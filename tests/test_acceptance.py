"""Acceptance suite: one test per release criterion, pinned tolerances.

Each test prints a single PASS/FAIL line (visible under pytest -s or on
failure) before asserting, so the suite doubles as a release report.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lagrass.complex_structure import ComplexStructure, realify_conjugation
from lagrass.geodesics import (
    Geodesic,
    Multiplicity,
    alternate_generators,
    classify_multiplicity,
    connect,
    distance,
    evaluate,
    length,
    sample,
    sampled_lengths,
)
from lagrass.graphs import (
    _chart_grid,
    cayley_curve,
    codiagonal_generator,
    gap_distance,
    graph_projection,
    graph_safe_radius,
    graph_subspace,
    graph_symmetry,
    is_graph,
    recover_operator,
)
from lagrass.linalg import (
    expm_antisymmetric,
    logm_special_orthogonal,
    max_abs,
    schatten_norm,
)
from lagrass.sampling import (
    perturbed_curve,
    random_horizontal,
    random_lagrangian_pair,
    random_symmetric,
)
from lagrass.subspaces import (
    Projection,
    Symmetry,
    covariant_derivative,
    projection_from_symmetry,
    tangent_project,
    vertical_symmetry,
)
from lagrass.tolerances import RANK_RTOL

from reference_formulas import tangent_project_offdiagonal

SEED = 20260816


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def line_symmetry(theta):
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    return Symmetry(np.array([[c, s], [s, -c]]))


def rotated_diag(values, rng):
    vals = np.asarray(values, dtype=float)
    q, _ = np.linalg.qr(rng.standard_normal((vals.size, vals.size)))
    return q @ np.diag(vals) @ q.T


def test_criterion_1_random_pair_contract():
    rng = np.random.default_rng(SEED)
    worst_endpoint = 0.0
    worst_excess = -math.inf
    worst_commutator = 0.0
    worst_anticommutator = 0.0
    start = time.perf_counter()
    for n in range(1, 7):
        structure = ComplexStructure.standard(n)
        j = structure.matrix
        for _ in range(200):
            _, e0, e1 = random_lagrangian_pair(n, rng)
            gen = connect(e0, e1, structure)
            z = gen.z
            end = expm_antisymmetric(2.0 * z) @ e0.matrix
            worst_endpoint = max(worst_endpoint, max_abs(end - e1.matrix))
            worst_excess = max(worst_excess, gen.norm - math.pi / 2)
            worst_commutator = max(worst_commutator, max_abs(z @ j - j @ z))
            worst_anticommutator = max(
                worst_anticommutator, max_abs(z @ e0.matrix + e0.matrix @ z))
    elapsed = time.perf_counter() - start
    ok = (worst_endpoint <= 1e-8 and worst_excess <= 1e-10
          and worst_commutator <= 1e-10 and worst_anticommutator <= 1e-10
          and elapsed < 10.0)
    report(1, "random pair contract", ok,
           f"endpoint {worst_endpoint:.2e}, norm excess {worst_excess:.2e}, "
           f"J-commutator {worst_commutator:.2e}, "
           f"base anticommutator {worst_anticommutator:.2e}, {elapsed:.1f}s")


def test_criterion_2_route_agreement():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    kept = 0
    attempts = 0
    start = time.perf_counter()
    while kept < 100 and attempts < 4000:
        attempts += 1
        n = int(rng.integers(1, 5))
        structure, e0, e1 = random_lagrangian_pair(n, rng, spread=0.7)
        p0 = projection_from_symmetry(e0).matrix
        p1 = projection_from_symmetry(e1).matrix
        if schatten_norm(p0 - p1, math.inf) >= 1.0 - 1e-6:
            continue
        kept += 1
        # reference: half the principal log of e1 e0, unique below the cut locus
        z_ref = logm_special_orthogonal(e1.matrix @ e0.matrix)
        worst = max(worst, max_abs(connect(e0, e1, structure).z - z_ref))
    elapsed = time.perf_counter() - start
    ok = kept == 100 and worst <= 1e-8 and elapsed < 5.0
    report(2, "agreement with the log reference below the cut locus", ok,
           f"{kept} pairs, max difference {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_plane_lines_closed_form():
    structure = ComplexStructure.standard(1)
    worst_z = 0.0
    worst_d = 0.0
    for theta in (0.1, 0.7, 1.2):
        gen = connect(line_symmetry(0.0), line_symmetry(theta), structure)
        want = theta * structure.matrix
        worst_z = max(worst_z, max_abs(gen.z - want))
        d = distance(line_symmetry(0.0), line_symmetry(theta), structure)
        worst_d = max(worst_d, abs(d - 2.0 * theta))
    ok = worst_z <= 1e-12 and worst_d <= 1e-12
    report(3, "plane line closed form", ok,
           f"generator error {worst_z:.2e}, distance error {worst_d:.2e}")


def test_criterion_4_antipodal_graphs_multiplicity():
    structure = ComplexStructure.standard(2)
    e = np.diag([1.0, -1.0])
    e0 = graph_symmetry(np.eye(2))
    e1 = graph_symmetry(e)
    gen = connect(e0, e1, structure)
    norm_err = abs(gen.norm - math.pi / 2)
    x = gen.z[:2, 2:]
    lam, q = np.linalg.eigh((x + x.T) / 2.0)
    cos2x = q @ np.diag(np.cos(2.0 * lam)) @ q.T
    sin2x = q @ np.diag(np.sin(2.0 * lam)) @ q.T
    form_err = max(max_abs(cos2x - e), max_abs(sin2x))

    rep = classify_multiplicity(gen)
    two = (rep.classification is Multiplicity.EXACTLY_TWO
           and rep.minus_one_dim_complex == 1)
    alts = alternate_generators(gen)
    endpoint_err = 0.0
    for alt in alts:
        reached = evaluate(Geodesic(alt), 1.0).matrix
        endpoint_err = max(endpoint_err, max_abs(reached - e1.matrix))
    two = two and len(alts) == 2 and endpoint_err <= 1e-9

    big = ComplexStructure.standard(4)
    gen8 = connect(graph_symmetry(np.eye(4)),
                   graph_symmetry(np.diag([1.0, 1.0, -1.0, -1.0])), big)
    rep8 = classify_multiplicity(gen8)
    infinite = (rep8.classification is Multiplicity.INFINITE
                and rep8.minus_one_dim_complex == 2)

    ok = norm_err <= 1e-10 and form_err <= 1e-9 and two and infinite
    report(4, "antipodal graph multiplicity", ok,
           f"norm error {norm_err:.2e}, half-block form error {form_err:.2e}, "
           f"four-dim {rep.classification.value} d={rep.minus_one_dim_complex}, "
           f"eight-dim {rep8.classification.value} d={rep8.minus_one_dim_complex}, "
           f"alternate endpoint error {endpoint_err:.2e}")


def test_criterion_5_minimality_against_competitors():
    rng = np.random.default_rng(SEED + 5)
    ks = (math.inf, 2, 4)
    nodes = 2000
    ts = np.linspace(0.0, 1.0, nodes)
    dt = float(ts[1] - ts[0])
    worst_margin = math.inf
    worst_quad_rel = 0.0
    start = time.perf_counter()
    for i in range(20):
        # n >= 2 so the horizontal space has transverse directions; at n = 1
        # every perturbation reparametrizes the same arc and ties the length
        n = 2 + i % 3
        structure, e0, e1 = random_lagrangian_pair(n, rng)
        gen = connect(e0, e1, structure)
        geo = Geodesic(gen)
        closed = {k: length(geo, k) for k in ks}
        quad = sampled_lengths(sample(geo, ts), dt, ks)
        for k in ks:
            worst_quad_rel = max(
                worst_quad_rel, abs(quad[k] - closed[k]) / max(closed[k], 1e-12))
        z_unit = gen.z / max(np.linalg.norm(gen.z), 1e-300)
        competitors = 0
        while competitors < 100:
            w = random_horizontal(structure, e0, rng, norm=1.0)
            # drop the component along z: a parallel perturbation only
            # reparametrizes the geodesic and makes the comparison a tie
            w = w - float(np.tensordot(w, z_unit)) * z_unit
            scale = schatten_norm(w, math.inf)
            if scale < 0.1:
                continue
            w = w / scale
            competitors += 1
            amplitude = 0.2 + 0.4 * rng.random()
            competitor = perturbed_curve(gen, w, amplitude, ts)
            comp_len = sampled_lengths(competitor, dt, ks)
            for k in ks:
                worst_margin = min(worst_margin, comp_len[k] - closed[k])
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-9 and worst_quad_rel <= 1e-6 and elapsed < 60.0
    report(5, "minimality against perturbed competitors", ok,
           f"smallest competitor margin {worst_margin:.3e}, "
           f"quadrature relative error {worst_quad_rel:.2e}, {elapsed:.1f}s")


def test_criterion_6_sine_norm_identity():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        structure, e0, e1 = random_lagrangian_pair(n, rng)
        gen = connect(e0, e1, structure)
        p0 = projection_from_symmetry(e0).matrix
        p1 = projection_from_symmetry(e1).matrix
        gap = schatten_norm(p0 - p1, math.inf)
        worst = max(worst, abs(math.sin(min(gen.norm, math.pi / 2)) - gap))
    ok = worst <= 1e-8
    report(6, "sine of norm equals projection gap", ok,
           f"max residual {worst:.2e}")


def test_criterion_7_tangent_projection_and_parallel_velocity():
    rng = np.random.default_rng(SEED + 7)
    worst_agree = 0.0
    worst_idem = 0.0
    worst_j = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        structure, e0, _ = random_lagrangian_pair(n, rng)
        j = structure.matrix
        a = random_symmetric(2 * n, rng)
        # restrict to directions anticommuting with J before projecting
        v_in = (a - j @ a @ j.T) / 2.0
        v_in = (v_in + v_in.T) / 2.0
        v = tangent_project(e0, v_in)
        v_alt = tangent_project_offdiagonal(projection_from_symmetry(e0), v_in)
        worst_agree = max(worst_agree, max_abs(v - v_alt))
        worst_idem = max(worst_idem, max_abs(tangent_project(e0, v) - v))
        worst_j = max(worst_j, max_abs(v @ j + j @ v))
    agree_ok = worst_agree <= 1e-12 and worst_idem <= 1e-12 and worst_j <= 1e-10

    structure, e0, e1 = random_lagrangian_pair(3, np.random.default_rng(SEED + 70))
    gen = connect(e0, e1, structure)
    geo = Geodesic(gen)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        ts = np.linspace(0.0, 1.0, round(1.0 / h) + 1)
        curve = realify_conjugation(sample(geo, ts), structure)
        velocity = 2.0 * np.matmul(gen.z[None, :, :], curve)
        deriv = covariant_derivative(ts, curve, velocity)
        errors.append(max_abs(deriv))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    order_ok = min(orders) >= 1.9
    ok = agree_ok and order_ok
    report(7, "tangent projection and parallel velocity", ok,
           f"formula gap {worst_agree:.2e}, idempotency {worst_idem:.2e}, "
           f"J-preservation {worst_j:.2e}, "
           f"convergence orders {orders[0]:.2f}/{orders[1]:.2f}")


def test_criterion_8_graph_chart_formulas():
    rng = np.random.default_rng(SEED + 8)
    worst_proj = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        a = random_symmetric(n, rng, scale=1.5)
        p_closed = graph_projection(a).matrix
        cols = np.vstack([np.eye(n), a])
        p_basis = cols @ np.linalg.solve(cols.T @ cols, cols.T)
        worst_proj = max(worst_proj, max_abs(p_closed - p_basis))

    x = rotated_diag([0.3, 0.7, 1.1], rng)
    lam, q = np.linalg.eigh(x)
    gen_v = codiagonal_generator(x, vertical_symmetry(3))
    b_vertical = recover_operator(evaluate(Geodesic(gen_v), 1.0))
    want_vertical = q @ np.diag(np.cos(lam) / np.sin(lam)) @ q.T
    err_vertical = max_abs(b_vertical - want_vertical)

    gen_i = codiagonal_generator(x, graph_symmetry(np.eye(3)))
    b_identity = recover_operator(evaluate(Geodesic(gen_i), 1.0))
    vals = (-np.sin(lam) + np.cos(lam)) / (np.sin(lam) + np.cos(lam))
    want_identity = q @ np.diag(vals) @ q.T
    err_identity = max_abs(b_identity - want_identity)

    gap_err = abs(gap_distance(np.zeros((3, 3)), np.eye(3)) - math.sqrt(2) / 2)

    ok = (worst_proj <= 1e-10 and err_vertical <= 1e-9
          and err_identity <= 1e-9 and gap_err <= 1e-12)
    report(8, "graph chart closed forms", ok,
           f"projection gap {worst_proj:.2e}, vertical chart {err_vertical:.2e}, "
           f"identity chart {err_identity:.2e}, gap value {gap_err:.2e}")


def criterion_9_flows():
    """The 50 flows of criterion 9: (inner, eigenvalues of y, generator)."""
    rng = np.random.default_rng(SEED + 9)
    for i in range(50):
        n = int(rng.integers(1, 5))
        inner = bool(i % 2)
        if inner:
            vals = rng.uniform(-math.pi / 4 + 0.01, math.pi / 4 - 0.01, size=n)
        else:
            vals = rng.uniform(-math.pi / 4 + 0.01, math.pi / 2, size=n)
        y = rotated_diag(vals, rng)
        yield inner, vals, codiagonal_generator(y, graph_symmetry(np.eye(n)))


def test_criterion_9_spectral_curves():
    worst_form = 0.0
    trivial_failures = 0
    radius_checked = 0
    for inner, _, gen in criterion_9_flows():
        geo = Geodesic(gen)
        ts = np.linspace(-1.0, 1.0, 50)
        kept = [t for t in ts if is_graph(evaluate(geo, t))]
        res = cayley_curve(gen, kept)
        worst_form = max(worst_form, res.closed_form_max_error)
        if inner and not res.trivial_flow:
            trivial_failures += 1
        # the safe radius counts as verified only if the flow stays in the
        # chart on a 50-node grid of [0, radius (1 - 1e-3)]
        radius = graph_safe_radius(gen)
        if _chart_grid(gen, np.linspace(0.0, radius * (1.0 - 1e-3), 50), RANK_RTOL)[1].all():
            radius_checked += 1
    ok = worst_form <= 1e-8 and trivial_failures == 0 and radius_checked == 50
    report(9, "Cayley spectral curves", ok,
           f"closed form error {worst_form:.2e}, "
           f"trivial-flow misses {trivial_failures}, "
           f"safe radii verified {radius_checked}/50")


def test_criterion_9_chart_mask_matches_is_graph():
    # the chart test read off C_t must agree with is_graph node by node, on
    # criterion 9's grid and on a wider one that adds each flow's exact chart
    # exit t = -pi / (4 mu) for its largest |mu|
    disagreements = 0
    exits_seen = 0
    for _, vals, gen in criterion_9_flows():
        geo = Geodesic(gen)
        mu = vals[np.argmax(np.abs(vals))]
        wide = np.append(np.linspace(-3.0, 3.0, 61), -math.pi / (4.0 * mu))
        for ts in (np.linspace(-1.0, 1.0, 50), wide):
            mask = _chart_grid(gen, ts, RANK_RTOL)[1]
            want = np.array([is_graph(evaluate(geo, float(t))) for t in ts])
            disagreements += int(np.sum(mask != want))
            exits_seen += int(np.sum(~want))
    ok = disagreements == 0 and exits_seen >= 50
    report(9, "chart mask against is_graph", ok,
           f"disagreements {disagreements}, chart exits seen {exits_seen}")


def test_criterion_10_cli_determinism(tmp_path):
    def write(path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def line_payload(theta):
        c = math.cos(2.0 * theta)
        s = math.sin(2.0 * theta)
        return {"dim": 2, "subspace": {"symmetry": [[c, s], [s, -c]]}}

    line_a = write(tmp_path / "line_a.json", line_payload(0.0))
    line_b = write(tmp_path / "line_b.json", line_payload(0.7))
    graph_i = write(tmp_path / "graph_i.json",
                    {"dim": 4, "subspace": {"graph_of": [[1.0, 0.0], [0.0, 1.0]]}})
    graph_e = write(tmp_path / "graph_e.json",
                    {"dim": 4, "subspace": {"graph_of": [[1.0, 0.0], [0.0, -1.0]]}})
    block = write(tmp_path / "block.json",
                  {"matrix": [[0.3, 0.0], [0.0, -0.2]]})

    def run_suite(tag):
        out_dir = tmp_path / tag
        out_dir.mkdir()
        captured = []
        commands = [
            ["validate", line_a],
            ["connect", line_a, line_b],
            ["distance", line_a, line_b],
            ["decompose", graph_i, graph_e],
            ["multiplicity", graph_i, graph_e, "--alternates"],
            ["graph-recover", graph_e],
            ["spectral-curve", block, "--grid", "21",
             "--out", str(out_dir / "curve.csv")],
            ["sample", line_a, line_b, "--grid", "11",
             "--out-prefix", str(out_dir / "run")],
            ["random-pair", "--dim-half", "2", "--seed", "31",
             "--out-prefix", str(out_dir / "pair")],
        ]
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "lagrass.cli"] + argv,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (argv, proc.stderr)
            # stdout embeds --out paths, which differ between the two runs by
            # design; normalize the directory before comparing
            captured.append(proc.stdout.replace(str(out_dir), "OUT"))
        files = sorted(p.name for p in out_dir.iterdir())
        blobs = {name: (out_dir / name).read_bytes() for name in files}
        return captured, blobs

    first_out, first_files = run_suite("first")
    second_out, second_files = run_suite("second")
    stdout_ok = first_out == second_out
    names_ok = sorted(first_files) == sorted(second_files)
    bytes_ok = names_ok and all(
        first_files[name] == second_files[name] for name in first_files)
    ok = stdout_ok and bytes_ok and len(first_files) == 5
    report(10, "deterministic command line output", ok,
           f"stdout identical {stdout_ok}, files identical {bytes_ok}, "
           f"{len(first_files)} files compared")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
