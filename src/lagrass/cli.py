"""Batch command line front end.

Reads subspaces and operators from JSON documents, drives the solver, and
emits machine-readable JSON and CSV. One job per invocation; outputs are
deterministic for fixed inputs and seed (no timestamps, repr-exact floats).

Input document: {"dim": 2n, "J": optional 2n x 2n rows (default standard),
"subspace": exactly one of {"basis" | "projection" | "symmetry" | "graph_of"}}.
The spectral-curve command instead takes {"matrix": n x n symmetric rows}.

Exit codes: 0 success, 2 parse failure or an output path that cannot be
written, 3 invariant violation, 4 solver error, 141 (128 + SIGPIPE) stdout
closed by its reader before all output was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .complex_structure import (
    ComplexStructure,
    _complex_block,
    _real_eigenbasis,
    _wrap_phase,
    realify_conjugation,
)
from .errors import ComputationError, InvariantViolation
from .geodesics import (
    Geodesic,
    _connect,
    _node_speeds,
    alternate_generators,
    classify_multiplicity,
    connect,
    distance,
    length,
    sample,
)
from .graphs import (
    _cayley_result,
    _chart_grid,
    _conjugation_gap,
    _identity_graph,
    codiagonal_generator,
    graph_symmetry,
    recover_operator,
)
from .linalg import max_abs
from .sampling import random_lagrangian
from .subspaces import (
    Projection,
    Subspace,
    Symmetry,
    five_way_decompose,
    is_lagrangian,
    symmetry_from_projection,
    symmetry_from_subspace,
)
from .tolerances import ANGLE_TOL, ANGLE_TOL_FLOOR, RANK_RTOL, SYM_RTOL


class ParseFailure(Exception):
    """Input file missing, malformed or not matching the schema, or an
    output path that cannot be written: exit 2."""


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseFailure(f"{path}: top-level JSON object expected")
    return doc


def _matrix_from(doc, key: str, path: str) -> np.ndarray:
    try:
        arr = np.asarray(doc[key], dtype=float)
    except KeyError as exc:
        raise ParseFailure(f"{path}: missing key {key!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseFailure(f"{path}: {key!r} is not a numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise ParseFailure(f"{path}: {key!r} must be a 2-d matrix")
    return arr


def _load_pair(args) -> tuple[ComplexStructure, Symmetry, Symmetry]:
    """Read the two subspace documents of a pair command, requiring one J."""
    structure, e0 = _load_problem(args.first)
    structure1, e1 = _load_problem(args.second)
    if (structure1.dim != structure.dim
            or max_abs(structure1.matrix - structure.matrix) > 1e-12):
        raise InvariantViolation("the two inputs carry different complex structures")
    return structure, e0, e1


def _load_problem(path: str) -> tuple[ComplexStructure, Symmetry]:
    """Read one subspace document: (complex structure, symmetry)."""
    doc = _load_json(path)
    if "dim" not in doc:
        raise ParseFailure(f"{path}: missing key 'dim'")
    dim = doc["dim"]
    # a JSON integer only: int() would truncate 4.9, parse "4", take true as
    # 1 and overflow on 1e400
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseFailure(f"{path}: 'dim' must be an integer, got {dim!r}")
    if dim < 2 or dim % 2:
        raise ParseFailure(f"{path}: 'dim' must be an even integer >= 2, got {dim}")
    # every shape is checked against dim before a complex structure is built:
    # building one validates a dim x dim J. A square J of another even size is
    # a shape mismatch; any other malformed J is refused by ComplexStructure
    j = _matrix_from(doc, "J", path) if "J" in doc else None
    if j is not None and j.shape[0] == j.shape[1] != dim and j.shape[0] % 2 == 0:
        raise ParseFailure(f"{path}: 'J' shape does not match 'dim'")
    sub = doc.get("subspace")
    if not isinstance(sub, dict):
        raise ParseFailure(f"{path}: missing 'subspace' object")
    keys = [k for k in ("basis", "projection", "symmetry", "graph_of") if k in sub]
    if len(keys) != 1:
        raise ParseFailure(
            f"{path}: 'subspace' needs exactly one of basis/projection/symmetry/graph_of"
        )
    kind = keys[0]
    arr = _matrix_from(sub, kind, path)
    if kind == "basis":
        if arr.shape[0] != dim:
            raise ParseFailure(f"{path}: basis rows must equal 'dim'")
    elif kind == "graph_of":
        if arr.shape != (dim // 2, dim // 2):
            raise ParseFailure(f"{path}: graph_of must be (dim/2) x (dim/2)")
    elif arr.shape != (dim, dim):
        raise ParseFailure(f"{path}: {kind} must be dim x dim")
    structure = ComplexStructure.standard(dim // 2) if j is None else ComplexStructure(j)
    if kind == "basis":
        eps = symmetry_from_subspace(Subspace(arr))
    elif kind == "projection":
        eps = symmetry_from_projection(Projection(arr))
    elif kind == "symmetry":
        eps = Symmetry(arr)
    else:
        eps = graph_symmetry(arr)
    return structure, eps


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _provenance(args, seed=None) -> dict:
    prov = {
        "tolerances": {
            "sym": SYM_RTOL,
            "angle": args.tol_angle,
            "rank": args.tol_rank,
        }
    }
    if seed is not None:
        prov["seed"] = seed
    return prov


def _json_lines(doc: dict) -> list[str]:
    return [json.dumps(doc, indent=2, sort_keys=True) + "\n"]


def _csv_header(args, command: str, extra: str = "") -> str:
    line = (f"# lagrass {command} tol-sym={SYM_RTOL:g} "
            f"tol-angle={args.tol_angle:g} tol-rank={args.tol_rank:g}")
    if extra:
        line += " " + extra
    return line + "\n"


def _csv_lines(header: str, columns: list[str], rows):
    """The header (a comment line or ""), the column line, then one line of
    repr-exact floats per row."""
    yield header + ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(_fmt(x) for x in row) + "\n"


def _write(path: str | None, lines) -> None:
    """The one output writer: the lines go to path, or to stdout when path is
    None. A path that cannot be opened or written is a ParseFailure (exit 2);
    a failing stdout is left to `main`."""
    if path is None:
        sys.stdout.writelines(lines)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# commands: each returns the JSON document `main` writes


def _cmd_validate(args) -> dict:
    structure, eps = _load_problem(args.subspace)
    j = structure.matrix
    e = eps.matrix
    dim = structure.dim
    return {
        "dim": dim,
        "j_antisymmetry": max_abs(j + j.T),
        "j_square_plus_identity": max_abs(j @ j + np.eye(dim)),
        "j_orthogonality": max_abs(j @ j.T - np.eye(dim)),
        "symmetry_asymmetry": max_abs(e - e.T),
        "symmetry_square_minus_identity": max_abs(e @ e - np.eye(dim)),
        "anticommutator_with_j": max_abs(structure._residual(e, "anticommutes")),
        "subspace_dim": eps.plus_dim,
        "lagrangian": is_lagrangian(eps, structure),
        "provenance": _provenance(args),
    }


def _cmd_connect(args) -> dict:
    structure, e0, e1 = _load_pair(args)
    gen, endpoint = _connect(e0, e1, structure)
    z = gen.z
    geo = Geodesic(gen)
    return {
        "z": z.tolist(),
        "norm_op": gen.norm,
        "residuals": {
            "antisymmetry": max_abs(z + z.T),
            "commutator_with_j": max_abs(structure._residual(z, "commutes")),
            "anticommutator_with_base": max_abs(z @ e0.matrix + e0.matrix @ z),
            "endpoint": endpoint,
        },
        "norm_k": {key: length(geo, k)
                   for key, k in (("1", 1), ("2", 2), ("inf", math.inf))},
        "provenance": _provenance(args),
    }


def _cmd_distance(args) -> dict:
    structure, e0, e1 = _load_pair(args)
    d = distance(e0, e1, structure)
    gap = _conjugation_gap(_complex_block(e0.matrix, structure),
                           _complex_block(e1.matrix, structure))
    return {
        "distance": d,
        "projection_gap": gap,
        "sin_norm_residual": abs(math.sin(d / 2.0) - gap),
        "provenance": _provenance(args),
    }


def _cmd_sample(args) -> dict:
    structure, e0, e1 = _load_pair(args)
    geo = Geodesic(connect(e0, e1, structure))
    ts = np.linspace(0.0, 1.0, args.grid)
    c = sample(geo, ts)
    speeds = _node_speeds(c, float(ts[1] - ts[0]), [args.k])[args.k]
    stack = realify_conjugation(c, structure)
    dim = structure.dim
    header = _csv_header(args, "sample", f"grid={args.grid} k={args.k}")
    files = [args.out_prefix + "_curve.csv", args.out_prefix + "_speed.csv"]
    _write(files[0], _csv_lines(
        header, ["t"] + [f"eps_{i}_{j}" for i in range(dim) for j in range(dim)],
        ([t] + list(stack[idx].reshape(-1)) for idx, t in enumerate(ts))))
    _write(files[1], _csv_lines(header, ["t", f"speed_{args.k}"],
                                ([t, speeds[idx]] for idx, t in enumerate(ts))))
    return {"files": files, "closed_form_speed": length(geo, args.k)}


def _cmd_decompose(args) -> dict:
    structure, e0, e1 = _load_pair(args)
    dec = five_way_decompose(e0, e1, args.tol_angle)
    return {
        "dims": dec.dims(),
        "bases": {
            "both_plus": dec.both_plus.basis.tolist(),
            "both_minus": dec.both_minus.basis.tolist(),
            "plus_minus": dec.plus_minus.basis.tolist(),
            "minus_plus": dec.minus_plus.basis.tolist(),
            "generic": dec.generic.basis.tolist(),
        },
        "generic_angles": dec.generic_angles.tolist(),
        "provenance": _provenance(args),
    }


def _cmd_multiplicity(args) -> dict:
    structure, e0, e1 = _load_pair(args)
    gen = connect(e0, e1, structure)
    report = classify_multiplicity(gen)
    payload = {
        "classification": report.classification.value,
        "minus_one_dim_complex": report.minus_one_dim_complex,
        "norm_gap": report.norm_gap,
        "provenance": _provenance(args),
    }
    if args.alternates:
        alts = alternate_generators(gen, limit=args.limit)
        payload["alternates"] = [g.z.tolist() for g in alts]
    return payload


def _cmd_graph_recover(args) -> dict:
    structure, eps = _load_problem(args.subspace)
    if not structure.is_standard():
        raise InvariantViolation("graph-recover: requires the standard complex structure")
    b = recover_operator(eps, rank_rtol=args.tol_rank)
    # recover_operator has validated C = O diag(e^{i phi}) O^T. The vertical's
    # C is -I and the identity graph's is iI, so the minimal geodesic from the
    # vertical (the identity graph) to eps has the chart block x (y) = -H,
    # |H| <= pi/2, with e^{2iH} = -C (-iC): H = O diag(psi / 2) O^T for the
    # phases psi = phi + pi (phi - pi/2), wrapped into (-pi, pi] as phi is
    o, phi = _real_eigenbasis(_complex_block(eps.matrix, structure))
    psi = _wrap_phase(phi + np.array([[math.pi], [-math.pi / 2.0]]))
    cos_x, cos_y = (o * np.cos(psi / 2.0)[:, None, :]) @ o.T
    sin_x, sin_y = -(o * np.sin(psi / 2.0)[:, None, :]) @ o.T
    return {
        "operator": b.tolist(),
        # vertical-chart closed form b sin(x) = cos(x)
        "residual_vertical_chart": max_abs(b @ sin_x - cos_x),
        # identity-chart form b (cos y + sin y) = cos y - sin y
        "residual_identity_chart": max_abs(b @ (cos_y + sin_y) - (cos_y - sin_y)),
        "provenance": _provenance(args),
    }


def _cmd_spectral_curve(args) -> dict:
    doc = _load_json(args.operator)
    y = _matrix_from(doc, "matrix", args.operator)
    if y.shape[0] != y.shape[1]:
        raise ParseFailure(f"{args.operator}: 'matrix' must be square")
    n = y.shape[0]
    gen = codiagonal_generator(y, Symmetry(_identity_graph(n)))
    ts = np.linspace(-1.0, 1.0, args.grid)
    c, in_chart = _chart_grid(gen, ts, args.tol_rank)
    if not np.any(in_chart):
        raise ComputationError("spectral-curve: no grid time stays inside the graph chart")
    result = _cayley_result(gen, ts[in_chart], c[in_chart])
    # the CSV goes to --out after its comment line, or to stdout without it,
    # ahead of the verdict
    header = _csv_header(args, "spectral-curve", f"grid={args.grid}") if args.csv else ""
    _write(args.csv, _csv_lines(
        header, ["t"] + [f"phase_{i}" for i in range(n)] + ["min_gap_to_minus_one"],
        ([s.t] + list(s.phases) + [s.min_gap_to_minus_one] for s in result.samples)))
    return {
        "trivial_flow": result.trivial_flow,
        "min_gap": result.min_gap,
        "closed_form_max_error": result.closed_form_max_error,
        "det_phase_change": result.det_phase_change,
        "skipped_times": int(np.sum(~in_chart)),
        "note": result.note,
        "provenance": _provenance(args),
    }


def _cmd_random_pair(args) -> dict:
    n = args.dim_half
    rng = np.random.default_rng(args.seed)
    structure = ComplexStructure.standard(n)
    files = []
    for tag in ("first", "second"):
        eps = random_lagrangian(structure, rng)
        files.append(f"{args.out_prefix}_{tag}.json")
        _write(files[-1], _json_lines({
            "dim": 2 * n,
            "subspace": {"symmetry": eps.matrix.tolist()},
        }))
    return {
        "files": files,
        "seed": args.seed,
        "provenance": _provenance(args, seed=args.seed),
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _ranged(convert, low, high, label: str):
    """An argparse type: convert(text) (int or float) in [low, high), so NaN
    is refused; label names the range in the message."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan    # not a number: refused with the same message
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be {label}, got {text!r}")
        return value
    return parse


def _integer_at_least(low: int):
    return _ranged(int, low, math.inf, f"an integer >= {low}")


def _schatten_order(text: str):
    """Parse a Schatten order: 'inf' or an integer >= 1."""
    if text == "inf":
        return math.inf
    return _ranged(int, 1, math.inf, "an integer >= 1 or inf")(text)


# --tol-angle is the one bucket width, at 0 and at pi/2, so at
# pi/4 or above the two buckets overlap; below the floor rounding
# splits a common direction off as generic
_angle_tolerance = _ranged(float, ANGLE_TOL_FLOOR, math.pi / 4.0,
                           f"a finite angle in [{ANGLE_TOL_FLOOR:g}, pi/4)")
# --tol-rank is compared with singular values of the top rows of a
# projection, which lie in [0, 1]; the range is open at 0, whose least
# positive neighbour is ulp(0)
_rank_tolerance = _ranged(float, math.ulp(0.0), 1.0, "a finite value in (0, 1)")


def _arg(*flags, **kwargs):
    """One add_argument call, as (flags, kwargs)."""
    return flags, kwargs


_OUT = _arg("--out")
_PAIR = (_arg("first"), _arg("second"))

# one row per subcommand: name, handler, help, then its arguments in order.
# `main` writes the handler's document to --out where the row takes _OUT, and
# to stdout otherwise
_COMMANDS = (
    ("validate", _cmd_validate, "check structure and subspace invariants",
     _arg("subspace"), _OUT),
    ("connect", _cmd_connect, "minimal geodesic generator between two subspaces",
     *_PAIR, _OUT),
    ("distance", _cmd_distance, "geodesic distance and gap cross-check", *_PAIR, _OUT),
    ("sample", _cmd_sample, "sample the connecting geodesic to CSV", *_PAIR,
     _arg("--grid", type=_integer_at_least(5), default=101),
     _arg("--k", type=_schatten_order, default=math.inf,
          help="Schatten order for the speed column: an integer >= 1 or inf"),
     _arg("--out-prefix", required=True)),
    ("decompose", _cmd_decompose, "five-way decomposition of a subspace pair", *_PAIR, _OUT),
    ("multiplicity", _cmd_multiplicity, "classify minimal-geodesic multiplicity", *_PAIR,
     _arg("--alternates", action="store_true",
          help="include the sign-flip alternate generators"),
     _arg("--limit", type=_integer_at_least(1), default=64), _OUT),
    ("graph-recover", _cmd_graph_recover, "recover the graph operator of a subspace",
     _arg("subspace"), _OUT),
    # --out names the CSV file here; the verdict document goes to stdout
    ("spectral-curve", _cmd_spectral_curve, "Cayley eigenphases along a graph flow",
     _arg("operator", help="JSON file with the symmetric half-space block"),
     _arg("--grid", type=_integer_at_least(1), default=50), _arg("--out", dest="csv")),
    ("random-pair", _cmd_random_pair, "write a reproducible random Lagrangian pair",
     _arg("--dim-half", type=_integer_at_least(1), required=True),
     _arg("--seed", type=_integer_at_least(0), required=True),
     _arg("--out-prefix", required=True)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrass",
        description="Minimal geodesics and graph charts of Lagrangian subspaces.",
    )
    parser.add_argument("--tol-angle", type=_angle_tolerance, default=ANGLE_TOL,
                        help="principal-angle bucket width of decompose: an angle within "
                             "it of 0 or of pi/2 counts as 0 or pi/2")
    parser.add_argument("--tol-rank", type=_rank_tolerance, default=RANK_RTOL,
                        help="rank cutoff for graph detection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, *arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func, out=None)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code (see the module docstring)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _write(args.out, _json_lines(args.func(args)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early. Python's SIGPIPE recipe: point stdout
        # at devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141    # 128 + SIGPIPE, what a C tool reports
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ComputationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
