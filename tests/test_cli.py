"""End-to-end tests of the command line interface.

Commands run in-process through main(argv) so exit codes and stdout can be
checked cheaply; one subprocess test confirms the installed entry point.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagrass.cli
from lagrass.cli import main
from lagrass.complex_structure import ComplexStructure, standard_form
from lagrass.geodesics import GeodesicGenerator, connect
from lagrass.graphs import graph_symmetry
from lagrass.linalg import max_abs
from lagrass.subspaces import Subspace, Symmetry, symmetry_from_subspace
from lagrass.tolerances import ANGLE_TOL, SYM_RTOL

from reference_formulas import graph_chart_residuals
from test_graphs import near_edge_block
from test_subspaces import (
    THRESHOLD_CASES,
    assert_blocks_invariant,
    block_dims,
    common_directions_read_above,
    involution_defect,
    perturbed_three_spaces,
    planted_angle_pair,
    threshold_case,
)

SEED = 90210


def line_symmetry(theta):
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    return [[c, s], [s, -c]]


def write_problem(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def line_file(tmp_path, theta, name):
    return write_problem(tmp_path / name, {
        "dim": 2,
        "subspace": {"symmetry": line_symmetry(theta)},
    })


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# validate


def test_validate_reports_invariants(tmp_path, capsys):
    path = line_file(tmp_path, 0.3, "sub.json")
    code, out = run_cli(capsys, ["validate", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["lagrangian"] is True
    assert payload["subspace_dim"] == 1
    for key in ("j_antisymmetry", "j_square_plus_identity", "j_orthogonality",
                "symmetry_asymmetry", "symmetry_square_minus_identity",
                "anticommutator_with_j"):
        assert payload[key] < 1e-12
    assert payload["provenance"]["tolerances"]["sym"] == SYM_RTOL


def test_validate_accepts_graph_encoding(tmp_path, capsys):
    path = write_problem(tmp_path / "graph.json", {
        "dim": 4,
        "subspace": {"graph_of": [[1.0, 0.2], [0.2, -0.5]]},
    })
    code, out = run_cli(capsys, ["validate", path])
    assert code == 0
    assert json.loads(out)["lagrangian"] is True


def test_validate_accepts_a_graph_operator_asymmetric_within_tolerance(tmp_path, capsys):
    # 5e-11 asymmetry passes the symmetry check (tolerance 4e-10); it used to
    # fail the eigen-reassembly check with exit 4
    path = write_problem(tmp_path / "graph.json", {
        "dim": 4,
        "subspace": {"graph_of": [[1.0, 5e-11], [0.0, 2.0]]},
    })
    code, out = run_cli(capsys, ["validate", path])
    assert code == 0
    assert json.loads(out)["lagrangian"] is True


def test_validate_writes_out_file(tmp_path, capsys):
    path = line_file(tmp_path, 0.3, "sub.json")
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, ["validate", path, "--out", str(out_path)])
    assert code == 0
    _, streamed = run_cli(capsys, ["validate", path])
    assert out_path.read_text() == streamed


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, ["validate", str(bad)])
    assert code == 2


def test_exit_code_missing_file(tmp_path, capsys):
    code, _ = run_cli(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 2


def test_exit_code_unknown_command(capsys):
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_invariant_violation(tmp_path, capsys):
    # a coordinate plane that is not Lagrangian for the standard structure
    path = write_problem(tmp_path / "nonlag.json", {
        "dim": 4,
        "subspace": {"basis": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
    })
    first = line_file(tmp_path, 0.0, "a.json")
    code, _ = run_cli(capsys, ["connect", first, path])
    assert code == 3


def test_exit_code_computation_error(tmp_path, capsys):
    # the vertical subspace is Lagrangian but not a graph
    path = write_problem(tmp_path / "vertical.json", {
        "dim": 4,
        "subspace": {"basis": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
    })
    code, _ = run_cli(capsys, ["graph-recover", path])
    assert code == 4


def test_graph_recover_non_lagrangian_half_dimensional_exits_3(tmp_path, capsys):
    # span{x1, y1}: half-dimensional, neither Lagrangian nor a graph
    path = write_problem(tmp_path / "plane.json", {
        "dim": 4,
        "subspace": {"basis": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
    })
    code, out = run_cli(capsys, ["graph-recover", path])
    assert code == 3
    assert out == ""


class _NoStructure:
    """Stands in for ComplexStructure where none may be built."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a complex structure was built")

    @classmethod
    def standard(cls, n):
        raise AssertionError("a complex structure was built")


@pytest.mark.parametrize("doc, message", [
    ({"dim": 3000, "subspace": {"symmetry": [[1.0, 0.0], [0.0, -1.0]]}},
     "symmetry must be dim x dim"),
    ({"dim": 3000, "subspace": {"projection": [[1.0, 0.0], [0.0, 0.0]]}},
     "projection must be dim x dim"),
    ({"dim": 3000, "subspace": {"basis": [[1.0], [0.0]]}},
     "basis rows must equal 'dim'"),
    ({"dim": 3000, "subspace": {"graph_of": [[0.5]]}},
     "graph_of must be (dim/2) x (dim/2)"),
    ({"dim": 4, "J": standard_form(1).tolist(),
      "subspace": {"symmetry": np.diag([1.0, 1.0, -1.0, -1.0]).tolist()}},
     "'J' shape does not match 'dim'"),
    ({"dim": 4, "J": standard_form(2).tolist(),
      "subspace": {"symmetry": [[1.0, 0.0], [0.0, -1.0]]}},
     "symmetry must be dim x dim"),
], ids=["symmetry", "projection", "basis", "graph_of", "J", "J-then-symmetry"])
def test_shapes_are_checked_before_a_complex_structure_is_built(tmp_path, capsys, monkeypatch,
                                                                 doc, message):
    # a 2 x 2 symmetry with "dim": 3000 used to build and validate a
    # 3000 x 3000 J before exit 2
    monkeypatch.setattr(lagrass.cli, "ComplexStructure", _NoStructure)
    path = write_problem(tmp_path / "doc.json", doc)
    code = main(["validate", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {path}: {message}" in captured.err


@pytest.mark.parametrize("j, message", [
    ([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]], "J: expected square"),
    (np.eye(3).tolist(), "J: ambient dimension must be even"),
    (np.eye(2).tolist(), "J: must be antisymmetric"),
])
def test_a_malformed_j_keeps_its_message(tmp_path, capsys, j, message):
    path = write_problem(tmp_path / "doc.json", {
        "dim": 2, "J": j, "subspace": {"symmetry": line_symmetry(0.3)}})
    code = main(["validate", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"invariant violation: {message}" in captured.err


# ---------------------------------------------------------------------------
# connect, distance, decompose, multiplicity


def test_connect_emits_valid_generator(tmp_path, capsys):
    theta = 0.7
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, theta, "b.json")
    code, out = run_cli(capsys, ["connect", first, second])
    assert code == 0
    payload = json.loads(out)
    z = np.array(payload["z"])
    assert abs(payload["norm_op"] - theta) < 1e-12
    want = theta * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert max_abs(z - want) < 1e-12
    for key, val in payload["residuals"].items():
        assert val < 1e-9, key
    # the emitted matrix must survive re-validation as a generator
    GeodesicGenerator(
        z,
        base=Symmetry(np.array(line_symmetry(0.0))),
        structure=ComplexStructure.standard(1),
    )


def test_connect_angle_just_inside_a_tight_angle_width(tmp_path, capsys):
    # with --tol-angle 1e-10 an angle 2e-9 short of pi/2 stays generic; the
    # generator must carry it exactly instead of failing near the pi rotation
    theta = math.pi / 2 - 2e-9
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, theta, "b.json")
    code, out = run_cli(capsys, ["--tol-angle", "1e-10", "connect", first, second])
    assert code == 0
    assert abs(json.loads(out)["norm_op"] - theta) < 1e-12

    # connect builds z from the measured angles, so the default tolerance
    # carries the same angle
    s = ComplexStructure.standard(1)
    gen = connect(Symmetry(np.array(line_symmetry(0.0))),
                  Symmetry(np.array(line_symmetry(theta))), s)
    assert abs(gen.norm - theta) < 1e-12

    # the flag is both bucket widths, so it must be a finite angle in
    # [ANGLE_TOL_FLOOR, pi/4)
    other = line_file(tmp_path, 0.6, "c.json")
    for bad in ("1", "0.7853981633974483", "0", "-0.001", "nan", "inf", "abc", "1e-300",
                "9.99e-13"):
        code, out = run_cli(capsys, ["--tol-angle", bad, "connect", first, other])
        assert code == 2 and out == "", bad


def test_tol_angle_leaves_connect_alone(tmp_path, capsys):
    # a wide bucket puts the pair in the swapped blocks of decompose, while
    # connect carries the measured angle and reaches the endpoint
    theta = math.pi / 2 - 1e-4
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, theta, "b.json")
    code, out = run_cli(capsys, ["--tol-angle", "1e-3", "connect", first, second])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["norm_op"] - theta) <= 1e-12
    assert payload["residuals"]["endpoint"] <= 1e-12
    code, out = run_cli(capsys, ["--tol-angle", "1e-3", "decompose", first, second])
    assert code == 0
    assert json.loads(out)["dims"]["plus_minus"] == 1


def test_distance_payload(tmp_path, capsys):
    theta = 0.4
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, theta, "b.json")
    code, out = run_cli(capsys, ["distance", first, second])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["distance"] - 2.0 * theta) < 1e-12
    assert payload["sin_norm_residual"] < 1e-10
    assert 0.0 < payload["projection_gap"] <= 1.0


def test_decompose_payload(tmp_path, capsys):
    first = write_problem(tmp_path / "a.json", {
        "dim": 4,
        "subspace": {"basis": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]},
    })
    theta = 0.5
    second = write_problem(tmp_path / "b.json", {
        "dim": 4,
        "subspace": {"basis": [
            [1.0, 0.0],
            [0.0, math.cos(theta)],
            [0.0, 0.0],
            [0.0, math.sin(theta)],
        ]},
    })
    code, out = run_cli(capsys, ["decompose", first, second])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {"both_plus": 1, "both_minus": 1, "plus_minus": 0,
                               "minus_plus": 0, "generic": 2}
    assert abs(payload["generic_angles"][0] - theta) < 1e-10


def test_decompose_unequal_dimensions(tmp_path, capsys):
    # a line tilted by arccos 0.6 against a plane of R^4: the plane's
    # direction the pairing leaves over is a swapped (minus_plus) block
    first = write_problem(tmp_path / "a.json", {
        "dim": 4, "subspace": {"basis": [[0.6], [0.0], [0.8], [0.0]]},
    })
    second = write_problem(tmp_path / "b.json", {
        "dim": 4, "subspace": {"basis": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]},
    })
    code, out = run_cli(capsys, ["decompose", first, second])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {"both_plus": 0, "both_minus": 1, "plus_minus": 0,
                               "minus_plus": 1, "generic": 2}
    assert abs(payload["generic_angles"][0] - math.acos(0.6)) <= 1e-15
    assert abs(abs(payload["bases"]["minus_plus"][1][0]) - 1.0) <= 1e-15


def test_multiplicity_with_alternates(tmp_path, capsys):
    first = write_problem(tmp_path / "a.json", {
        "dim": 4, "subspace": {"graph_of": [[1.0, 0.0], [0.0, 1.0]]},
    })
    second = write_problem(tmp_path / "b.json", {
        "dim": 4, "subspace": {"graph_of": [[1.0, 0.0], [0.0, -1.0]]},
    })
    code, out = run_cli(capsys, ["multiplicity", first, second, "--alternates"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "ExactlyTwo"
    assert payload["minus_one_dim_complex"] == 1
    assert len(payload["alternates"]) == 2


@pytest.mark.parametrize("delta, classification, count",
                         [(5e-9, "ExactlyTwo", 2), (3e-8, "Unique", 1)])
def test_multiplicity_alternates_near_a_right_angle(tmp_path, capsys, delta,
                                                    classification, count):
    # the flip-plane band is the generator's norm slack, so every plane the
    # classification counts can be flipped
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, math.pi / 2 - delta, "b.json")
    code, out = run_cli(capsys, ["multiplicity", first, second, "--alternates"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == classification
    assert len(payload["alternates"]) == count


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_multiplicity_rejects_limit_below_one(tmp_path, capsys, limit):
    first = write_problem(tmp_path / "a.json", {
        "dim": 4, "subspace": {"graph_of": [[1.0, 0.0], [0.0, 1.0]]},
    })
    second = write_problem(tmp_path / "b.json", {
        "dim": 4, "subspace": {"graph_of": [[1.0, 0.0], [0.0, -1.0]]},
    })
    code, out = run_cli(capsys, ["multiplicity", first, second,
                                 "--alternates", "--limit", limit])
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# sample and CSV output


def test_sample_writes_curve_and_speed(tmp_path, capsys):
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, 0.6, "b.json")
    prefix = tmp_path / "run"
    code, out = run_cli(capsys, [
        "sample", first, second, "--grid", "21", "--k", "2",
        "--out-prefix", str(prefix),
    ])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["closed_form_speed"] - 2.0 * 0.6 * math.sqrt(2)) < 1e-10

    curve_lines = (tmp_path / "run_curve.csv").read_text().splitlines()
    assert curve_lines[0].startswith("# lagrass sample")
    assert curve_lines[1] == "t,eps_0_0,eps_0_1,eps_1_0,eps_1_1"
    assert len(curve_lines) == 2 + 21
    row = curve_lines[2].split(",")
    assert float(row[0]) == 0.0
    assert abs(float(row[1]) - 1.0) < 1e-15

    speed_lines = (tmp_path / "run_speed.csv").read_text().splitlines()
    assert speed_lines[1] == "t,speed_2"
    # interior rows of a geodesic report constant speed up to grid error
    mid = float(speed_lines[2 + 10].split(",")[1])
    assert abs(mid - payload["closed_form_speed"]) < 5e-3


def test_sample_large_k_speed_stays_finite(tmp_path, capsys):
    # speeds above 1 raised to a large k overflow unless rescaled
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, 1.0, "b.json")
    prefix = tmp_path / "run"
    code, out = run_cli(capsys, [
        "sample", first, second, "--grid", "21", "--k", "1100",
        "--out-prefix", str(prefix),
    ])
    assert code == 0
    closed = json.loads(out)["closed_form_speed"]
    assert abs(closed - 2.0 * 2.0 ** (1 / 1100)) < 1e-12
    speed_lines = (tmp_path / "run_speed.csv").read_text().splitlines()
    assert speed_lines[1] == "t,speed_1100"
    speeds = [float(line.split(",")[1]) for line in speed_lines[2:]]
    assert all(math.isfinite(v) for v in speeds)
    assert abs(speeds[10] - closed) < 5e-3


@pytest.mark.parametrize("argv, want", [
    (["--k", "abc"], 2),
    (["--k", "0"], 2),
    (["--grid", "2"], 2),
    (["--grid", "4"], 2),
    (["--k", "-1"], 2),
])
def test_sample_rejects_bad_options(tmp_path, capsys, argv, want):
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, 0.6, "b.json")
    prefix = tmp_path / "run"
    code = main(["sample", first, second, "--out-prefix", str(prefix)] + argv)
    capsys.readouterr()
    assert code == want
    assert not list(tmp_path.glob("run_*.csv"))


# ---------------------------------------------------------------------------
# graph-recover and spectral-curve


def test_graph_recover_residuals(tmp_path, capsys):
    a = [[0.8, 0.1], [0.1, -0.3]]
    path = write_problem(tmp_path / "g.json", {"dim": 4, "subspace": {"graph_of": a}})
    code, out = run_cli(capsys, ["graph-recover", path])
    assert code == 0
    payload = json.loads(out)
    assert max_abs(np.array(payload["operator"]) - np.array(a)) < 1e-10
    assert payload["residual_vertical_chart"] < 1e-9
    assert payload["residual_identity_chart"] < 1e-9


_SCALES = (1e-3, 1e-1, 10.0, 1e3, 1e5)


@pytest.mark.parametrize("n, scale, planted", [
    # 0 puts a pi-plane in the vertical chart, -1 one in the identity chart
    *((n, scale, (0.0, -1.0)) for n in (2, 8, 64) for scale in _SCALES),
    *((1, scale, ()) for scale in _SCALES),
    (1, 1.0, (0.0,)),
    (1, 1.0, (-1.0,)),
])
def test_graph_recover_residuals_match_the_geodesic_reference(tmp_path, capsys, monkeypatch,
                                                              n, scale, planted):
    rng = np.random.default_rng(SEED + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = scale * rng.standard_normal(n)
    lam[:len(planted)] = planted
    a = (q * lam) @ q.T
    a = (a + a.T) / 2.0
    path = write_problem(tmp_path / "g.json", {"dim": 2 * n, "subspace": {"graph_of": a.tolist()}})

    def no_connect(*args, **kwargs):
        raise AssertionError("graph-recover must read its residuals off C, not connect")

    # the residuals are read in closed form: no geodesic and no eigenvalue loop
    monkeypatch.setattr(lagrass.cli, "connect", no_connect)
    assert not hasattr(lagrass.cli, "apply_function")
    assert not hasattr(lagrass.cli, "spectral_decompose")
    code, out = run_cli(capsys, ["graph-recover", path])
    assert code == 0
    payload = json.loads(out)
    b = np.array(payload["operator"])
    want = graph_chart_residuals(b, graph_symmetry(a))
    tol = 1e-12 * max(1.0, max_abs(b))
    assert abs(payload["residual_vertical_chart"] - want[0]) <= tol
    assert abs(payload["residual_identity_chart"] - want[1]) <= tol


@pytest.mark.parametrize("value", ["-1", "0", "1", "nan", "inf", "abc"])
def test_tol_rank_outside_unit_interval_exits_2(tmp_path, capsys, value):
    # the plane of x2 and y1 is not a graph; --tol-rank -1 or nan used to
    # end in a LinAlgError traceback, 0, 1 and inf in exit 4
    path = write_problem(tmp_path / "half.json", {
        "dim": 4,
        "subspace": {"symmetry": np.diag([-1.0, 1.0, 1.0, -1.0]).tolist()},
    })
    code, out = run_cli(capsys, ["--tol-rank", value, "graph-recover", path])
    assert code == 2
    assert out == ""


def test_spectral_curve_outputs(tmp_path, capsys):
    y = [[0.3, 0.0], [0.0, -0.2]]
    path = write_problem(tmp_path / "y.json", {"matrix": y})
    out_csv = tmp_path / "curve.csv"
    code, out = run_cli(capsys, [
        "spectral-curve", path, "--grid", "41", "--out", str(out_csv),
    ])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["trivial_flow"] is True
    assert abs(verdict["det_phase_change"] - (-4.0 * (0.3 - 0.2))) < 1e-10
    assert verdict["closed_form_max_error"] < 1e-10
    assert verdict["skipped_times"] == 0

    lines = out_csv.read_text().splitlines()
    assert lines[1] == "t,phase_0,phase_1,min_gap_to_minus_one"
    assert len(lines) == 2 + 41


def test_spectral_curve_stdout_rows_equal_the_file_rows(tmp_path, capsys):
    path = write_problem(tmp_path / "y.json", {"matrix": [[0.3, 0.1], [0.1, -0.2]]})
    out_csv = tmp_path / "curve.csv"
    code, out = run_cli(capsys, ["spectral-curve", path, "--grid", "17"])
    assert code == 0
    code, verdict = run_cli(capsys, ["spectral-curve", path, "--grid", "17",
                                     "--out", str(out_csv)])
    assert code == 0
    text = out_csv.read_text()
    header, rows = text.split("\n", 1)
    assert header.startswith("# lagrass spectral-curve")
    # stdout carries the same column line and rows, then the verdict JSON
    assert out == rows + verdict


@pytest.mark.parametrize("n", [2, 4, 12])
def test_spectral_curve_near_the_chart_edge(tmp_path, capsys, n):
    # a double eigenvalue 3e-7 inside -pi/4: the node at t = 1 sits 3e-7
    # inside the chart
    path = write_problem(tmp_path / "y.json", {"matrix": near_edge_block(n).tolist()})
    code, out = run_cli(capsys, ["spectral-curve", path, "--grid", "21"])
    assert code == 0
    verdict = json.loads(out[out.index("{"):])
    assert verdict["closed_form_max_error"] <= 1e-12
    assert verdict["skipped_times"] == 0


@pytest.mark.parametrize("grid, want", [("-1", 2), ("0", 2), ("1", 0)])
def test_spectral_curve_grid_range(tmp_path, capsys, grid, want):
    # -1 used to end in an np.linspace traceback, 0 in a misleading exit 4
    path = write_problem(tmp_path / "y.json", {"matrix": [[0.3, 0.0], [0.0, -0.2]]})
    code, out = run_cli(capsys, ["spectral-curve", path, "--grid", grid])
    assert code == want
    if want:
        assert out == ""
    else:
        assert out.splitlines()[0] == "t,phase_0,phase_1,min_gap_to_minus_one"
        assert len(out.splitlines()[1].split(",")) == 4


def test_spectral_curve_rejects_wide_spectrum(tmp_path, capsys):
    path = write_problem(tmp_path / "y.json",
                         {"matrix": [[math.pi / 2 + 0.2, 0.0], [0.0, 0.0]]})
    code, _ = run_cli(capsys, ["spectral-curve", path])
    assert code == 3


# ---------------------------------------------------------------------------
# determinism and reproducibility


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    first = line_file(tmp_path, 0.1, "a.json")
    second = line_file(tmp_path, 0.9, "b.json")
    outputs = []
    for _ in range(2):
        code, out = run_cli(capsys, ["connect", first, second])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_random_pair_reproducible(tmp_path, capsys):
    blobs = []
    for tag in ("x", "y"):
        prefix = tmp_path / tag
        code, out = run_cli(capsys, [
            "random-pair", "--dim-half", "3", "--seed", "42",
            "--out-prefix", str(prefix),
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 42
        blobs.append((tmp_path / f"{tag}_first.json").read_bytes()
                     + (tmp_path / f"{tag}_second.json").read_bytes())
    assert blobs[0] == blobs[1]
    # the generated pair must be consumable by the other commands
    code, out = run_cli(capsys, [
        "distance", str(tmp_path / "x_first.json"), str(tmp_path / "x_second.json"),
    ])
    assert code == 0
    assert json.loads(out)["distance"] > 0.0


def test_random_pair_refuses_a_negative_seed(tmp_path, capsys):
    # numpy's default_rng used to end it in a ValueError traceback
    code, out = run_cli(capsys, [
        "random-pair", "--dim-half", "2", "--seed", "-1",
        "--out-prefix", str(tmp_path / "pair"),
    ])
    assert code == 2
    assert out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("dim", ["4.9", "1e400", '"4"', "true"])
def test_dim_must_be_a_json_integer(tmp_path, capsys, dim):
    # int() used to truncate 4.9, accept "4" and true, and overflow on 1e400
    path = tmp_path / "sub.json"
    path.write_text('{"dim": %s, "subspace": {"graph_of": [[1.0, 0.0], [0.0, 1.0]]}}' % dim)
    code, out = run_cli(capsys, ["validate", str(path)])
    assert code == 2
    assert out == ""


def test_tolerance_flags_recorded(tmp_path, capsys):
    path = line_file(tmp_path, 0.3, "sub.json")
    code, out = run_cli(capsys, ["--tol-angle", "1e-3", "--tol-rank", "1e-6", "validate", path])
    assert code == 0
    # the symmetry tolerance is not a flag; provenance records the value applied
    assert json.loads(out)["provenance"]["tolerances"] == {
        "sym": SYM_RTOL, "angle": 1e-3, "rank": 1e-6}
    code, out = run_cli(capsys, ["--tol-sym", "1e-8", "validate", path])
    assert code == 2 and out == ""


def test_installed_entry_point(tmp_path):
    path = line_file(tmp_path, 0.25, "sub.json")
    proc = subprocess.run(
        [sys.executable, "-m", "lagrass.cli", "validate", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lagrangian"] is True


def test_import_loads_no_scipy():
    # numpy is the only run-time import; scipy is for the log reference alone
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import lagrass\n"
            "print(scipy_modules())\n"
            "import lagrass.cli\n"
            "print(scipy_modules())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def run_on_pair(pair, commands, *flags):
    """(exit code, stdout, stderr) of each command on a pair of symmetries."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_problem(Path(tmp) / f"{i}.json",
                               {"dim": e.ambient_dim, "subspace": {"symmetry": e.matrix.tolist()}})
                 for i, e in enumerate(pair)]
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*flags, command, *paths])
            results.append((code, out.getvalue(), err.getvalue()))
    return results


@settings(max_examples=30, deadline=None)
@given(**THRESHOLD_CASES)
def test_decompose_buckets_land_on_the_planted_side(seed, tol, zero_side, right_side, generic):
    pair, dims = threshold_case(seed, tol, zero_side, right_side, generic)
    [(code, out, _)] = run_on_pair(pair, ["decompose"], "--tol-angle", repr(tol))
    assert code == 0
    assert json.loads(out)["dims"] == dims


def test_decompose_splits_perturbed_three_spaces_at_the_floor():
    for seed in range(10):
        pair = perturbed_three_spaces(seed)
        [(code, out, _)] = run_on_pair(pair, ["decompose"], "--tol-angle", "1.001e-12")
        assert code == 0
        doc = json.loads(out)
        assert doc["dims"] == block_dims(2, 0, 0, 0, 2)
        blocks = {name: Subspace(np.array(basis).reshape(4, -1))
                  for name, basis in doc["bases"].items()}
        assert_blocks_invariant(SimpleNamespace(**blocks), *pair, 1e-12, involution_defect(*pair))


def test_decompose_refuses_more_columns_than_dimensions(monkeypatch):
    # the library's ComputationError reaches the CLI as exit 4
    e0 = symmetry_from_subspace(Subspace(np.eye(4)[:, :3]))
    common_directions_read_above(1e-6, monkeypatch)
    [(code, _, err)] = run_on_pair((e0, e0), ["decompose"])
    assert code == 4
    assert err.startswith("solver error: five-way decomposition incomplete")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sides=st.lists(st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3, None]), min_size=1, max_size=8))
def test_decompose_swaps_match_the_multiplicity_count(seed, sides):
    # at default flags both commands read a right angle with the width 1e-8:
    # each swapped complex direction is one plus_minus and one minus_plus
    # dimension, and one flip plane of the generator
    rng = np.random.default_rng(seed)
    angles = [math.pi / 2 - 1e-8 * side if side else rng.uniform(0.1, 1.4) for side in sides]
    (code_m, out_m, _), (code_d, out_d, _) = run_on_pair(planted_angle_pair(angles, rng),
                                                         ["multiplicity", "decompose"])
    assert code_m == code_d == 0
    dims = json.loads(out_d)["dims"]
    d = json.loads(out_m)["minus_one_dim_complex"]
    assert dims["plus_minus"] + dims["minus_plus"] == 2 * d
    assert d == sum(side == 1.0 - 1e-3 for side in sides)


# 0, pi/2, and angles 10 to 1e7 widths from both
OFFSETS = st.floats(-7.0, -1.0).map(lambda e: 10.0 ** e)
ORACLE_ANGLES = st.one_of(st.just(0.0), OFFSETS, st.just(math.pi / 2),
                          OFFSETS.map(lambda d: math.pi / 2 - d), st.floats(0.1, 1.4))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), angles=st.lists(ORACLE_ANGLES, min_size=1, max_size=8))
@example(seed=0, angles=[0.0, 1e-7, 0.7])
def test_decompose_buckets_match_the_connect_record(seed, angles):
    # at default flags, with every angle 0, pi/2 or at least 10 widths from
    # both: each |theta| of connect's record within the width of 0 is one
    # both_plus and one both_minus dimension, each within it of pi/2 one
    # plus_minus and one minus_plus dimension
    pair = planted_angle_pair(angles, np.random.default_rng(seed))
    theta = np.abs(connect(*pair, ComplexStructure.standard(len(angles))).theta)
    [(code, out, _)] = run_on_pair(pair, ["decompose"])
    assert code == 0
    dims = json.loads(out)["dims"]
    zero = int(np.sum(theta <= ANGLE_TOL))
    right = int(np.sum(theta >= math.pi / 2 - ANGLE_TOL))
    assert dims == block_dims(zero, zero, right, right, 2 * (len(angles) - zero - right))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
