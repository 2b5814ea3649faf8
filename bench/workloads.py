"""The four workloads: seeded inputs, timed ops and per-op contract checks.

Inputs come from this file's own numpy code, never from `lagrass.sampling`, so
a change to the program's sampling helpers cannot change what is measured.
Ops call the program through module attributes at call time (`lagrass.connect`,
not a name bound at import), so the tracer's patched functions are the ones
that run. An op's latency covers program calls only; the checks that follow
it use numpy/scipy directly and are not timed.

A failure is one of three kinds:
  refusal   the program raised one of its typed errors (or the CLI exited 3/4)
  contract  the program returned an output that fails its documented contract
  crash     any other exception or exit code
Every kind counts against `ok_frac`; only `contract` and `crash` make a run
incorrect, because a refusal returns no wrong number.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

import lagrass
from lagrass.tolerances import GRAPH_RECOVERY_TOL

REFUSALS = (lagrass.InvariantViolation, lagrass.ComputationError)
CLI_REFUSAL_CODES = (3, 4)
CLI_COMMANDS = ("validate", "connect", "distance", "sample", "decompose",
                "multiplicity", "graph-recover", "spectral-curve", "random-pair")


@dataclass(frozen=True)
class Failure:
    kind: str     # "refusal", "contract" or "crash"
    cause: str
    regime: str

    def key(self) -> str:
        return f"{self.kind} | {self.cause} | {self.regime}"


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _raised(exc: BaseException, regime: str, stage: str = "") -> Failure:
    kind = "refusal" if isinstance(exc, REFUSALS) else "crash"
    message = _NUMBER.sub("#", str(exc))[:90]
    return Failure(kind, f"{stage}{type(exc).__name__}: {message}", regime)


def _require(fails: list, ok: bool, what: str, regime: str) -> None:
    if not ok:
        fails.append(Failure("contract", what, regime))


class InputHash:
    """sha256 over every generated input array, shape included."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            arr = np.ascontiguousarray(a, dtype=float)
            self._h.update(repr(arr.shape).encode())
            self._h.update(arr.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# benchmark-owned geometry: random inputs and reference computations


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def op_norm(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def schatten(a, k) -> float:
    sigma = np.linalg.svd(a, compute_uv=False)
    if k == math.inf:
        return float(sigma[0])
    return float(np.sum(sigma ** k) ** (1.0 / k))


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def standard_j(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def random_orthogonal(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def random_lagrangian(rng, n: int) -> np.ndarray:
    """Symmetry of U(vertical) for a Haar unitary U, standard J."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    g = np.block([[u.real, -u.imag], [u.imag, u.real]])
    vertical = np.concatenate([-np.ones(n), np.ones(n)])
    return symmetrize((g * vertical) @ g.T)


def random_j_antisymmetric(rng, n: int) -> np.ndarray:
    """Antisymmetric 2n x 2n matrix commuting with the standard J."""
    p = rng.standard_normal((n, n))
    q = rng.standard_normal((n, n))
    p = (p - p.T) / 2.0
    q = (q + q.T) / 2.0
    return np.block([[p, -q], [q, p]])


def graph_symmetry_ref(b: np.ndarray) -> np.ndarray:
    """Symmetry of the graph {(x, b x)}: 2 G (G^T G)^-1 G^T - I with G = [I; b]."""
    n = b.shape[0]
    g = np.vstack([np.eye(n), b])
    p = g @ np.linalg.solve(np.eye(n) + b @ b, g.T)
    return symmetrize(2.0 * p - np.eye(2 * n))


def endpoint(z: np.ndarray, e0: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(2.0 * z) @ e0


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: a pool of seeded inputs cycled in whole rounds.

    `op(i)` runs op i and returns (seconds of program time or None if the op
    could not start, outcome); `check(i, outcome)` returns its failures.
    Ops must run in index order: an op may use state an earlier one left.
    """

    name = ""
    round_len = 1
    input_hash = ""

    def __init__(self):
        self.accuracy: dict[str, float] = {}

    def note(self, metric: str, value: float) -> None:
        self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), float(value))

    def warmup_indices(self) -> range | list:
        return range(self.round_len)

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, outcome) -> list[Failure]:
        raise NotImplementedError


@dataclass(frozen=True)
class _Pair:
    n: int
    regime: str
    structure: object
    e0: object
    e1: object


class Pairs(Workload):
    """connect, distance, five_way_decompose and classify_multiplicity on one pair."""

    name = "pairs"
    sizes = (1, 4, 16, 64, 128)
    round_len = 20      # five sizes x (three standard J, one rotated J)

    def __init__(self, seed: int, rounds: int = 4):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        digest = InputHash()
        rotations = {n: random_orthogonal(rng, 2 * n) for n in self.sizes}
        structures = {}
        self.pool = []
        for i in range(self.round_len * rounds):
            n = self.sizes[i % len(self.sizes)]
            rotated = i % 4 == 3
            e0 = random_lagrangian(rng, n)
            e1 = random_lagrangian(rng, n)
            j = standard_j(n)
            if rotated:
                r = rotations[n]
                e0 = symmetrize(r @ e0 @ r.T)
                e1 = symmetrize(r @ e1 @ r.T)
                j = r @ j @ r.T
                j = (j - j.T) / 2.0
            digest.add(j, e0, e1)
            if (n, rotated) not in structures:
                structures[n, rotated] = lagrass.ComplexStructure(j)
            regime = f"n={n}" + (" rotated J" if rotated else "")
            self.pool.append(_Pair(n, regime, structures[n, rotated],
                                   lagrass.Symmetry(e0), lagrass.Symmetry(e1)))
        self.input_hash = digest.hexdigest()

    def warmup_indices(self):
        return range(len(self.sizes))

    def op(self, i):
        p = self.pool[i % len(self.pool)]
        start = time.perf_counter()
        try:
            gen = lagrass.connect(p.e0, p.e1, p.structure)
            dist = lagrass.distance(p.e0, p.e1, p.structure)
            dec = lagrass.five_way_decompose(p.e0, p.e1)
            report = lagrass.classify_multiplicity(gen)
            outcome = (gen, dist, dec, report)
        except Exception as exc:     # recorded by check; the loop keeps going
            outcome = exc
        return time.perf_counter() - start, outcome

    def check(self, i, outcome):
        p = self.pool[i % len(self.pool)]
        if isinstance(outcome, Exception):
            return [_raised(outcome, p.regime)]
        gen, dist, dec, report = outcome
        z, e0, e1, j = gen.z, p.e0.matrix, p.e1.matrix, p.structure.matrix
        fails: list[Failure] = []
        resid = max_abs(endpoint(z, e0) - e1)
        self.note("geodesics.connect.endpoint_resid_max", resid)
        _require(fails, resid <= 1e-8, "endpoint residual > 1e-8", p.regime)
        _require(fails, max_abs(z @ j - j @ z) <= 1e-10, "J-commutator > 1e-10", p.regime)
        _require(fails, max_abs(z @ e0 + e0 @ z) <= 1e-10,
                 "base anticommutator > 1e-10", p.regime)
        _require(fails, op_norm(z) <= math.pi / 2.0 + 1e-12, "||z|| > pi/2", p.regime)
        gap = op_norm((e0 - e1) / 2.0)
        _require(fails, abs(math.sin(dist / 2.0) - gap) <= 1e-8,
                 "|sin(d/2) - projection gap| > 1e-8", p.regime)
        _require(fails, sum(dec.dims().values()) == 2 * p.n,
                 "five-way dims do not sum to 2n", p.regime)
        _require(fails, report.classification is lagrass.Multiplicity.UNIQUE
                 and report.minus_one_dim_complex == 0,
                 "random pair not classified Unique", p.regime)
        return fails


@dataclass(frozen=True)
class _CurvePair:
    n: int
    structure: object
    e0: object
    e1: object
    competitors: tuple    # (raw J-commuting antisymmetric direction, amplitude)


class Curves(Workload):
    """Schatten-minimality race: each pair's geodesic plus perturbed competitors.

    Sizes cycle 2, 3, 4, 6, 8. n = 6 is not in acceptance criterion 5; it makes
    the size groups odd in number, so the median op falls inside one group
    instead of on the boundary between two.
    """

    name = "curves"
    sizes = (2, 3, 4, 6, 8)
    competitors = 3
    nodes = 2000
    ks = (math.inf, 2, 4)
    round_len = len(sizes) * (1 + competitors)

    def __init__(self, seed: int, rounds: int = 4):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        digest = InputHash()
        self.ts = np.linspace(0.0, 1.0, self.nodes)
        self.dt = float(self.ts[1] - self.ts[0])
        self.pool = []
        for p in range(len(self.sizes) * rounds):
            n = self.sizes[p % len(self.sizes)]
            e0 = random_lagrangian(rng, n)
            e1 = random_lagrangian(rng, n)
            comps = tuple((random_j_antisymmetric(rng, n), 0.2 + 0.4 * float(rng.random()))
                          for _ in range(self.competitors))
            digest.add(e0, e1, *[a for a, _ in comps], [amp for _, amp in comps])
            self.pool.append(_CurvePair(n, lagrass.ComplexStructure.standard(n),
                                        lagrass.Symmetry(e0), lagrass.Symmetry(e1), comps))
        self.input_hash = digest.hexdigest()
        self._geodesic = {}     # pool slot -> (generator, closed-form lengths)

    def _locate(self, i):
        pair_index, position = divmod(i, 1 + self.competitors)
        slot = pair_index % len(self.pool)
        return slot, position, self.pool[slot]

    def warmup_indices(self):
        per_pair = 1 + self.competitors
        return [p * per_pair + k for p in range(len(self.sizes)) for k in (0, 1)]

    def _direction(self, pair: _CurvePair, z: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Horizontal direction at e0, orthogonal to z, with operator norm 1.

        A component along z would only reparametrize the geodesic and tie the
        race, as in acceptance criterion 5.
        """
        e = pair.e0.matrix
        w = (raw - e @ raw @ e) / 2.0
        w = (w - w.T) / 2.0
        z_unit = z / max(np.linalg.norm(z), 1e-300)
        w = w - float(np.tensordot(w, z_unit)) * z_unit
        return w / op_norm(w)

    def op(self, i):
        slot, position, pair = self._locate(i)
        if position == 0:
            self._geodesic.pop(slot, None)
            start = time.perf_counter()
            try:
                gen = lagrass.connect(pair.e0, pair.e1, pair.structure)
                stack = lagrass.sample(lagrass.Geodesic(gen), self.ts)
                lengths = lagrass.sampled_lengths(stack, self.dt, self.ks)
                outcome = (gen, lengths)
            except Exception as exc:
                outcome = exc
            return time.perf_counter() - start, outcome
        if slot not in self._geodesic:
            return None, None
        gen = self._geodesic[slot][0]
        raw, amplitude = pair.competitors[position - 1]
        w = self._direction(pair, gen.z, raw)
        start = time.perf_counter()
        try:
            stack = lagrass.perturbed_curve(gen, w, amplitude, self.ts)
            outcome = lagrass.sampled_lengths(stack, self.dt, self.ks)
        except Exception as exc:
            outcome = exc
        return time.perf_counter() - start, outcome

    def check(self, i, outcome):
        slot, position, pair = self._locate(i)
        regime = f"n={pair.n} " + ("geodesic" if position == 0 else "competitor")
        if outcome is None:
            return [Failure("refusal", "no geodesic for this pair", regime)]
        if isinstance(outcome, Exception):
            return [_raised(outcome, regime)]
        fails: list[Failure] = []
        if position == 0:
            gen, lengths = outcome
            closed = {k: schatten(2.0 * gen.z, k) for k in self.ks}
            self._geodesic[slot] = (gen, closed)
            self.note("geodesics.connect.endpoint_resid_max",
                      max_abs(endpoint(gen.z, pair.e0.matrix) - pair.e1.matrix))
            for k in self.ks:
                rel = abs(lengths[k] - closed[k]) / max(closed[k], 1e-12)
                self.note("geodesics.sampled_lengths.quad_rel_err_max", rel)
                _require(fails, rel <= 1e-6, f"geodesic quadrature error > 1e-6 (k={k})", regime)
        else:
            closed = self._geodesic[slot][1]
            for k in self.ks:
                _require(fails, outcome[k] - closed[k] >= -1e-9,
                         f"competitor shorter than geodesic (k={k})", regime)
        return fails


@dataclass(frozen=True)
class _ChartCase:
    n: int
    regime: str
    planted_d: int
    theta: np.ndarray      # planted principal angles between graph(I) and graph(b)
    b: np.ndarray
    y: np.ndarray          # pi/4 - arctan(b)
    e0_ref: np.ndarray
    e1_ref: np.ndarray


class Charts(Workload):
    """Graph-encoded pairs at and near the cut locus, in four independent stages.

    Sizes cycle 2, 4, 8, 12, 16: five size groups, an odd number, so the
    median op sits inside one group. Pairs within a few ANGLE_RIGHT_TOL of
    pi/2 are left out: the program refuses some of them (ROADMAP item 4),
    and the benchmark's workloads are ones on which no op fails.
    """

    name = "charts"
    sizes = (2, 4, 8, 12, 16)
    regimes = ("generic", "coincident", "antipodal")
    round_len = len(sizes) * len(regimes)
    grid = np.linspace(-1.0, 1.0, 50)

    def __init__(self, seed: int, rounds: int = 20):
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        digest = InputHash()
        self.pool = []
        for i in range(self.round_len * rounds):
            n = self.sizes[i % len(self.sizes)]
            regime = self.regimes[(i // len(self.sizes)) % len(self.regimes)]
            theta = rng.uniform(0.15, math.pi / 2.0 - 0.15, n)
            planted_d = 0
            if regime == "coincident":
                theta[0] = 0.0
            elif regime == "antipodal":
                planted_d = int(rng.integers(1, 3))
                theta[:planted_d] = math.pi / 2.0
            q = random_orthogonal(rng, n)
            lam = np.tan(math.pi / 4.0 - theta)
            b = symmetrize((q * lam) @ q.T)
            y = symmetrize((q * (math.pi / 4.0 - np.arctan(lam))) @ q.T)
            digest.add(theta, q)
            self.pool.append(_ChartCase(n, regime, planted_d, theta, b, y,
                                        graph_symmetry_ref(np.eye(n)),
                                        graph_symmetry_ref(b)))
        self.input_hash = digest.hexdigest()

    def warmup_indices(self):
        return range(len(self.sizes))

    def op(self, i):
        c = self.pool[i % len(self.pool)]
        eye = np.eye(c.n)
        out = {}

        def stage(key, fn):
            try:
                out[key] = fn()
            except Exception as exc:
                out[key] = exc

        def build():
            return (lagrass.graph_symmetry(eye), lagrass.graph_symmetry(c.b),
                    lagrass.ComplexStructure.standard(c.n))

        def stage_a():
            e0, e1, structure = out["build"]
            gen = lagrass.connect(e0, e1, structure)
            report = lagrass.classify_multiplicity(gen)
            return gen, report, lagrass.alternate_generators(gen, limit=8)

        def stage_b():
            return lagrass.recover_operator(out["build"][1]), lagrass.gap_distance(eye, c.b)

        def stage_d():
            gen = lagrass.codiagonal_generator(c.y, lagrass.graph_symmetry(eye))
            geo = lagrass.Geodesic(gen)
            kept = [float(t) for t in self.grid
                    if lagrass.is_graph(lagrass.evaluate(geo, float(t)))]
            return lagrass.cayley_curve(gen, kept), lagrass.graph_safe_radius(gen)

        start = time.perf_counter()
        stage("build", build)
        if not isinstance(out["build"], Exception):
            stage("a", stage_a)
            stage("b", stage_b)
        stage("c", lambda: lagrass.graph_window(c.y))
        stage("d", stage_d)
        return time.perf_counter() - start, out

    def check(self, i, out):
        c = self.pool[i % len(self.pool)]
        regime = f"{c.regime} n={c.n}"
        fails: list[Failure] = []
        if isinstance(out["build"], Exception):
            fails.append(_raised(out["build"], regime, "(build) "))
        for key in ("a", "b", "c", "d"):
            if isinstance(out.get(key), Exception):
                fails.append(_raised(out[key], regime, f"({key}) "))

        if isinstance(out.get("a"), tuple):
            gen, report, alternates = out["a"]
            expected = (lagrass.Multiplicity.UNIQUE, lagrass.Multiplicity.EXACTLY_TWO,
                        lagrass.Multiplicity.INFINITE)[min(c.planted_d, 2)]
            _require(fails, report.classification is expected
                     and report.minus_one_dim_complex == c.planted_d,
                     "(a) multiplicity differs from the planted class", regime)
            end = endpoint(gen.z, c.e0_ref)
            self.note("geodesics.connect.endpoint_resid_max", max_abs(end - c.e1_ref))
            worst = max(max_abs(endpoint(alt.z, c.e0_ref) - end) for alt in alternates)
            _require(fails, worst <= 1e-9, "(a) alternate endpoint moved > 1e-9", regime)
        if isinstance(out.get("b"), tuple):
            b_rec, gap = out["b"]
            _require(fails, max_abs(b_rec - c.b) <= GRAPH_RECOVERY_TOL * max(1.0, max_abs(c.b)),
                     "(b) recovered operator off by > GRAPH_RECOVERY_TOL", regime)
            _require(fails, abs(gap - math.sin(float(np.max(c.theta)))) <= 1e-8,
                     "(b) gap distance differs from sin(largest angle)", regime)
        if not isinstance(out["c"], Exception):
            _require(fails, out["c"].ok and out["c"].curve_verified,
                     "(c) planted window not verified", regime)
        if isinstance(out["d"], tuple):
            curve = out["d"][0]
            self.note("graphs.cayley_curve.form_err_max", curve.closed_form_max_error)
            _require(fails, curve.closed_form_max_error <= 1e-8,
                     "(d) Cayley closed-form error > 1e-8", regime)
        return fails


class Cli(Workload):
    """The nine CLI commands, one invocation per op, in a fixed cycle.

    mode "subprocess" runs `python -m lagrass.cli` (the untraced workload);
    mode "inprocess" calls `lagrass.cli.main` (the traced run, where the
    tracer can see inside). Each op's stdout and written files must be
    byte-identical to the warm-up cycle's.
    """

    name = "cli"
    round_len = len(CLI_COMMANDS)
    timeout_s = 60.0

    def __init__(self, seed: int, workdir: Path, mode: str = "subprocess", env=None):
        super().__init__()
        rng = np.random.default_rng([seed, 4])
        digest = InputHash()
        self.workdir = Path(workdir)
        self.mode = mode
        self.env = env
        self.peak_child_kb = 0
        self._reference: dict[tuple, tuple] = {}    # (mode, command) -> (sha256, bytes)

        first, second = random_lagrangian(rng, 16), random_lagrangian(rng, 16)
        m = int(rng.integers(1, 3))
        theta = rng.uniform(0.15, math.pi / 2.0 - 0.15, 4)
        theta[:m] = math.pi / 2.0
        q = random_orthogonal(rng, 4)
        anti = symmetrize((q * np.tan(math.pi / 4.0 - theta)) @ q.T)
        block_q = random_orthogonal(rng, 8)
        block = symmetrize((block_q * rng.uniform(-0.7, 1.5, 8)) @ block_q.T)
        digest.add(first, second, theta, q, block)
        self.input_hash = digest.hexdigest()
        self.planted_class = "ExactlyTwo" if m == 1 else "Infinite"

        def write(name, doc):
            path = self.workdir / name
            path.write_text(json.dumps(doc))
            return str(path)

        f1 = write("first.json", {"dim": 32, "subspace": {"symmetry": first.tolist()}})
        f2 = write("second.json", {"dim": 32, "subspace": {"symmetry": second.tolist()}})
        gi = write("graph_i.json", {"dim": 8, "subspace": {"graph_of": np.eye(4).tolist()}})
        ga = write("graph_anti.json", {"dim": 8, "subspace": {"graph_of": anti.tolist()}})
        blk = write("block.json", {"matrix": block.tolist()})
        out = self.workdir / "out"
        out.mkdir(exist_ok=True)
        self.commands = (
            (["validate", f1], ()),
            (["connect", f1, f2], ()),
            (["distance", f1, f2], ()),
            (["sample", f1, f2, "--grid", "41", "--out-prefix", str(out / "sample")],
             ("sample_curve.csv", "sample_speed.csv")),
            (["decompose", gi, ga], ()),
            (["multiplicity", gi, ga, "--alternates"], ()),
            (["graph-recover", ga], ()),
            (["spectral-curve", blk, "--grid", "50", "--out", str(out / "curve.csv")],
             ("curve.csv",)),
            (["random-pair", "--dim-half", "16", "--seed", str(seed),
              "--out-prefix", str(out / "pair")], ("pair_first.json", "pair_second.json")),
        )

    def _run_subprocess(self, argv):
        stdout_path = self.workdir / "stdout.txt"
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "lagrass.cli", *argv],
                                    stdout=out, stderr=err, env=self.env)
            killer = threading.Timer(self.timeout_s, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return elapsed, (proc.returncode, stdout_path.read_bytes())

    def _run_inprocess(self, argv):
        cli = importlib.import_module("lagrass.cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:
                return time.perf_counter() - start, exc
            elapsed = time.perf_counter() - start
        return elapsed, (code, buf.getvalue().encode())

    def cycle_bytes(self) -> int:
        """Bytes one cycle writes (stdout plus files), from the first cycle."""
        return sum(size for (mode, _), (_, size) in self._reference.items() if mode == self.mode)

    def op(self, i):
        argv = self.commands[i % self.round_len][0]
        if self.mode == "subprocess":
            return self._run_subprocess(argv)
        return self._run_inprocess(argv)

    def check(self, i, outcome):
        argv, files = self.commands[i % self.round_len]
        regime = argv[0]
        if isinstance(outcome, Exception):
            return [_raised(outcome, regime)]
        code, stdout = outcome
        if code != 0:
            kind = "refusal" if code in CLI_REFUSAL_CODES else "crash"
            return [Failure(kind, f"exit code {code}", regime)]
        digest = hashlib.sha256(stdout)
        size = len(stdout)
        for name in files:
            blob = (self.workdir / "out" / name).read_bytes()
            digest.update(blob)
            size += len(blob)
        fails: list[Failure] = []
        reference = self._reference.setdefault((self.mode, i % self.round_len),
                                               (digest.hexdigest(), size))
        _require(fails, digest.hexdigest() == reference[0],
                 "output bytes differ from the first cycle", regime)
        try:
            payload = json.loads(stdout)
        except ValueError:
            fails.append(Failure("contract", "stdout is not JSON", regime))
            return fails
        if regime == "multiplicity":
            _require(fails, payload.get("classification") == self.planted_class,
                     "multiplicity differs from the planted class", regime)
        return fails


LIBRARY_WORKLOADS = {"pairs": Pairs, "curves": Curves, "charts": Charts}
