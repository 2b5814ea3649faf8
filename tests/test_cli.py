"""End-to-end tests of the command line interface.

Commands run in-process through main(argv) so exit codes and stdout can be
checked cheaply; one subprocess test confirms the installed entry point.
"""

import argparse
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
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lagrass.cli
from lagrass.cli import main
from lagrass.complex_structure import ComplexStructure, conjugation_matrix, standard_form
from lagrass.geodesics import Geodesic, GeodesicGenerator, connect, evaluate
from lagrass.graphs import codiagonal_generator, graph_symmetry, is_graph
from lagrass.linalg import max_abs
from lagrass.sampling import random_lagrangian
from lagrass.subspaces import (
    Projection,
    Subspace,
    Symmetry,
    is_lagrangian,
    symmetry_from_subspace,
)
from lagrass.tolerances import (
    ANGLE_TOL,
    CAYLEY_FORM_TOL,
    ENDPOINT_RTOL,
    GENERATOR_ATOL,
    SYM_RTOL,
)

from reference_formulas import (
    graph_chart_residuals,
    graph_chart_residuals_by_two_eigenbases,
    projection_gap_by_projections,
)
from spies import CallSpy
from test_chart_certificate import planted_block
from test_curve_kernel import rotated_structure
from test_graphs import near_edge_block
from test_subspaces import (
    THRESHOLD_CASES,
    assert_blocks_invariant,
    block_dims,
    common_directions_read_above,
    involution_defect,
    perturbed_three_spaces,
    planted_angle_pair,
    scaled_lagrangian_pair,
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


@pytest.mark.parametrize("command", ["validate", "graph-recover"])
@pytest.mark.parametrize("target, reason", [("absent.json", "No such file or directory"),
                                            ("", "Is a directory")], ids=["missing", "directory"])
def test_an_input_that_cannot_be_read_exits_2_naming_it_once(tmp_path, capsys, command, target,
                                                            reason):
    # the message used to name the path twice: "cannot read P: [Errno 2] ...: 'P'"
    path = str(tmp_path / target)
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: {reason}\n"


def test_exit_code_unknown_command(capsys):
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command, target, written", [
    (["validate", "{a}", "--out"], "x.json", "x.json"),
    (["spectral-curve", "{block}", "--out"], "x.csv", "x.csv"),
    (["sample", "{a}", "{b}", "--out-prefix"], "s", "s_curve.csv"),
    (["random-pair", "--dim-half", "1", "--seed", "0", "--out-prefix"], "p", "p_first.json"),
], ids=["validate --out", "spectral-curve --out", "sample --out-prefix",
        "random-pair --out-prefix"])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, command, target,
                                                       written):
    # a missing directory used to end in a FileNotFoundError traceback
    inputs = {"a": line_file(tmp_path, 0.0, "a.json"), "b": line_file(tmp_path, 0.6, "b.json"),
              "block": write_problem(tmp_path / "y.json", {"matrix": [[0.3, 0.0], [0.0, -0.2]]})}
    missing = tmp_path / "missing"
    code = main([arg.format(**inputs) for arg in command] + [str(missing / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {missing / written}: No such file or directory\n"


def test_a_reader_that_closes_early_ends_the_run_quietly(tmp_path):
    # 4000 rows are several times the 64 KiB a pipe buffers, so writes meet
    # the closed pipe; the run used to end in a BrokenPipeError traceback
    path = write_problem(tmp_path / "y.json", {"matrix": [[0.3, 0.1], [0.1, -0.2]]})
    with open(tmp_path / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "lagrass.cli", "spectral-curve", path,
                                 "--grid", "4000"], stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.read(100).startswith(b"t,phase_0,phase_1,")
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert code == 141
    assert (tmp_path / "stderr.txt").read_bytes() == b""


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


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "top-level JSON object expected"),
    ('{"subspace": {"symmetry": [[1.0]]}}', "missing key 'dim'"),
    ('{"dim": 3, "subspace": {"symmetry": [[1.0]]}}',
     "'dim' must be an even integer >= 2, got 3"),
    ('{"dim": 0, "subspace": {"symmetry": [[1.0]]}}',
     "'dim' must be an even integer >= 2, got 0"),
    ('{"dim": 2}', "missing 'subspace' object"),
    ('{"dim": 2, "subspace": [[1.0, 0.0], [0.0, -1.0]]}', "missing 'subspace' object"),
    ('{"dim": 2, "subspace": {}}',
     "'subspace' needs exactly one of basis/projection/symmetry/graph_of"),
    ('{"dim": 2, "subspace": {"symmetry": [[1.0, 0.0], [0.0, -1.0]], "graph_of": [[0.5]]}}',
     "'subspace' needs exactly one of basis/projection/symmetry/graph_of"),
    ('{"dim": 2, "subspace": {"symmetry": [["a", 0.0], [0.0, -1.0]]}}',
     "'symmetry' is not a numeric matrix: could not convert string to float: 'a'"),
    ('{"dim": 2, "subspace": {"symmetry": [1.0, -1.0]}}', "'symmetry' must be a 2-d matrix"),
], ids=["not-an-object", "no-dim", "odd-dim", "zero-dim", "no-subspace", "subspace-not-object",
        "no-kind", "two-kinds", "not-numeric", "not-2d"])
def test_a_malformed_subspace_document_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ('{"operator": [[0.1]]}', "missing key 'matrix'"),
    ('{"matrix": [[0.1, 0.2], [0.3]]}', "'matrix' is not a numeric matrix"),
    ('{"matrix": [0.1, 0.2]}', "'matrix' must be a 2-d matrix"),
    ('{"matrix": [[0.1, 0.2]]}', "'matrix' must be square"),
], ids=["no-matrix", "ragged", "not-2d", "not-square"])
def test_a_malformed_operator_document_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "block.json"
    path.write_text(text)
    code = main(["spectral-curve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {message}")


def test_graph_recover_refuses_a_non_standard_j(tmp_path, capsys):
    # a line is Lagrangian for every J on the plane, -J among them
    path = write_problem(tmp_path / "doc.json", {
        "dim": 2, "J": (-standard_form(1)).tolist(),
        "subspace": {"symmetry": line_symmetry(0.3)}})
    code = main(["graph-recover", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("invariant violation: graph-recover: requires the standard "
                            "complex structure\n")


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


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_distance_gap_equals_the_projection_reference(n, rotated):
    rng = np.random.default_rng([SEED, n, rotated])
    structure = rotated_structure(n, rng)[0] if rotated else ComplexStructure.standard(n)
    pair = [random_lagrangian(structure, rng) for _ in range(2)]
    [(code, out, _)] = run_on_pair(pair, ["distance"], structure=structure)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["projection_gap"] - projection_gap_by_projections(*pair)) <= 1e-14 * n
    assert payload["sin_norm_residual"] <= 1e-14 * n


def test_distance_builds_no_projection_and_no_full_size_svd(monkeypatch):
    n = 16
    structure = ComplexStructure.standard(n)
    rng = np.random.default_rng(SEED + 5)
    pair = [random_lagrangian(structure, rng) for _ in range(2)]
    built = []
    validate = Projection.__post_init__

    def spy(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(Projection, "__post_init__", spy)
    spy_calls = CallSpy(monkeypatch)
    [(code, _, _)] = run_on_pair(pair, ["distance"])
    assert code == 0
    assert built == []
    # the gap is one n x n SVD of C0 - C1
    assert spy_calls.calls("svd") == [("svd", (n, n))]


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


def test_sample_takes_k_inf_as_text(tmp_path, capsys):
    first = line_file(tmp_path, 0.0, "a.json")
    second = line_file(tmp_path, 0.6, "b.json")
    prefix = tmp_path / "run"
    code = main(["sample", first, second, "--k", "inf", "--out-prefix", str(prefix)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert abs(json.loads(captured.out)["closed_form_speed"] - 2.0 * 0.6) < 1e-12
    speed_lines = (tmp_path / "run_speed.csv").read_text().splitlines()
    assert speed_lines[0].endswith(" grid=101 k=inf")
    assert speed_lines[1] == "t,speed_inf"


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


def run_graph_recover(a):
    """(exit code, stdout) of graph-recover on graph(a)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_problem(Path(tmp) / "g.json",
                             {"dim": 2 * len(a), "subspace": {"graph_of": a.tolist()}})
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["graph-recover", path])
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       scale=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
       planted=st.lists(st.sampled_from([0.0, -1.0]), max_size=3))
@example(seed=0, n=1, scale=1.0, planted=[0.0])
@example(seed=0, n=1, scale=1.0, planted=[-1.0])
@example(seed=1, n=4, scale=1e4, planted=[0.0, -1.0, -1.0])
def test_graph_recover_residuals_match_the_two_eigenbasis_reference(seed, n, scale, planted):
    # 0 puts C's phase at 0, where -C has the branch point -1 of the vertical
    # chart; -1 puts it at -pi/2, where -iC has the identity chart's
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = scale * rng.standard_normal(n)
    lam[:len(planted)] = planted[:n]
    a = (q * lam) @ q.T
    a = 0.5 * a + 0.5 * a.T
    code, out = run_graph_recover(a)
    assert code == 0
    payload = json.loads(out)
    b = np.array(payload["operator"])
    c = conjugation_matrix(graph_symmetry(a).matrix, ComplexStructure.standard(n))
    want = graph_chart_residuals_by_two_eigenbases(b, c)
    tol = 1e-12 * max(1.0, max_abs(b))
    assert abs(payload["residual_vertical_chart"] - want[0]) <= tol
    assert abs(payload["residual_identity_chart"] - want[1]) <= tol


def test_graph_recover_factors_one_eigenbasis(monkeypatch):
    a = np.array([[0.8, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 0.0]])
    spy = CallSpy(monkeypatch)
    code, _ = run_graph_recover(a)
    assert code == 0
    assert spy.eigenbases == [(3, 3)]


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


def range_flag_argv(command, flag, value, pair, block, out):
    """The command with the flag at value, its inputs and outputs in out."""
    if command == "random-pair":
        opts = {"--dim-half": "1", "--seed": "0", flag: value}
        return ["random-pair", *(x for item in opts.items() for x in item),
                "--out-prefix", str(out / "pair")]
    if command == "spectral-curve":
        return ["spectral-curve", block, "--out", str(out / "curve.csv"), flag, value]
    if command == "multiplicity":
        return ["multiplicity", *pair, "--alternates", "--out", str(out / "m.json"), flag, value]
    return [command, *pair, "--out-prefix", str(out / "run"), flag, value]


@pytest.mark.parametrize("command, flag, minimum", [
    ("sample", "--grid", 5),
    ("sample", "--k", 1),
    ("spectral-curve", "--grid", 1),
    ("multiplicity", "--limit", 1),
    ("random-pair", "--dim-half", 1),
    ("random-pair", "--seed", 0),
])
def test_a_range_flag_is_checked_at_parse_time(tmp_path, capsys, command, flag, minimum):
    out = tmp_path / "out"
    out.mkdir()
    pair = [line_file(tmp_path, 0.0, "a.json"), line_file(tmp_path, 0.6, "b.json")]
    block = write_problem(tmp_path / "y.json", {"matrix": [[0.3, 0.0], [0.0, -0.2]]})
    argv = range_flag_argv(command, flag, str(minimum), pair, block, out)
    assert main(argv) == 0
    capsys.readouterr()
    for path in out.iterdir():
        path.unlink()
    # one below the minimum is refused before any input is read: the input
    # paths do not exist, and the message is argparse's, not "cannot read"
    missing = str(tmp_path / "missing.json")
    argv = range_flag_argv(command, flag, str(minimum - 1), [missing, missing], missing, out)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: must be an integer >= {minimum}" in captured.err
    assert captured.out == ""
    assert not list(out.iterdir())


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


def test_each_subcommand_keeps_its_option_strings():
    # read off the parser, so the command table can neither drop nor rename a
    # flag; positionals appear by name
    parser = lagrass.cli._build_parser()

    def options(p):
        return [s for action in p._actions for s in action.option_strings or [action.dest]]

    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == ["-h", "--help", "--tol-angle", "--tol-rank", "command"]
    assert {name: options(p)[2:] for name, p in commands.choices.items()} == {
        "validate": ["subspace", "--out"],
        "connect": ["first", "second", "--out"],
        "distance": ["first", "second", "--out"],
        "sample": ["first", "second", "--grid", "--k", "--out-prefix"],
        "decompose": ["first", "second", "--out"],
        "multiplicity": ["first", "second", "--alternates", "--limit", "--out"],
        "graph-recover": ["subspace", "--out"],
        "spectral-curve": ["operator", "--grid", "--out"],
        "random-pair": ["--dim-half", "--seed", "--out-prefix"],
    }
    assert all(options(p)[:2] == ["-h", "--help"] for p in commands.choices.values())


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


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process run of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_on_pair(pair, commands, *flags, structure=None):
    """(exit code, stdout, stderr) of each command on a pair of symmetries,
    with the structure's J in both documents when one is given. A command
    is its name and, after spaces, its own flags."""
    doc = {} if structure is None else {"J": structure.matrix.tolist()}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_problem(Path(tmp) / f"{i}.json",
                               {"dim": e.ambient_dim, **doc,
                                "subspace": {"symmetry": e.matrix.tolist()}})
                 for i, e in enumerate(pair)]
        return [run_captured([*flags, *command.split(), *paths]) for command in commands]


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zero=st.integers(0, 6), right=st.integers(0, 6),
       generic=st.integers(0, 4))
def test_distance_and_decompose_keep_their_contract_on_planted_clusters(seed, zero, right,
                                                                       generic):
    # clusters of angles at 0 and pi/2 beside generic ones, n <= 16: on exit 0
    # the printed numbers must satisfy the contract, recomputed from them alone
    n = zero + right + generic
    assume(n > 0)
    rng = np.random.default_rng(seed)
    angles = [0.0] * zero + [math.pi / 2] * right + list(rng.uniform(0.1, 1.4, generic))
    (code_d, out_d, _), (code_s, out_s, _) = run_on_pair(planted_angle_pair(angles, rng),
                                                         ["distance", "decompose"])
    assert code_d == code_s == 0
    dist = json.loads(out_d)
    assert abs(math.sin(dist["distance"] / 2.0) - dist["projection_gap"]) <= 1e-8
    assert dist["distance"] <= math.pi
    assert abs(dist["distance"] - 2.0 * max(angles)) <= 1e-8
    dec = json.loads(out_s)
    assert dec["dims"] == block_dims(zero, zero, right, right, 2 * generic)
    assert sum(dec["dims"].values()) == 2 * n
    bases = {name: np.array(basis).reshape(2 * n, -1) for name, basis in dec["bases"].items()}
    assert {name: b.shape[1] for name, b in bases.items()} == dec["dims"]
    joint = np.hstack(list(bases.values()))
    assert np.abs(joint.T @ joint - np.eye(2 * n)).max() <= 1e-10


def assert_generator_contract(z, e0, e1, structure):
    """The generator contract, recomputed from a printed z alone: z is
    antisymmetric, commutes with J and anticommutes with e0 within the
    generator slack, ||z|| <= pi/2 + GENERATOR_ATOL, and scipy's expm takes
    e0 to e1: e^{2z} e0 = e1 within ENDPOINT_RTOL * 2n. Returns ||z||."""
    z = np.array(z)
    j, e = structure.matrix, e0.matrix
    for residual in (z + z.T, z @ j - j @ z, z @ e + e @ z):
        assert max_abs(residual) <= GENERATOR_ATOL
    norm = np.linalg.norm(z, 2)
    assert norm <= math.pi / 2 + GENERATOR_ATOL
    assert max_abs(scipy.linalg.expm(2.0 * z) @ e - e1.matrix) <= ENDPOINT_RTOL * len(z)
    return norm


# a right angle less delta: within GENERATOR_ATOL of pi/2 it is a flip plane
# of the minimal geodesic, beyond it not
FLIP_DELTAS = (0.0, 1e-12, 1e-10)
RIGHT_DELTAS = FLIP_DELTAS + (1e-6, 1e-3)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zero=st.integers(0, 6), right=st.integers(0, 6),
       generic=st.integers(0, 4), delta=st.sampled_from(RIGHT_DELTAS))
@example(seed=0, zero=0, right=6, generic=0, delta=1e-12)
@example(seed=1, zero=1, right=1, generic=1, delta=1e-10)
@example(seed=2, zero=0, right=2, generic=2, delta=1e-6)
def test_connect_multiplicity_and_graph_recover_keep_their_contract_near_right_angles(
        seed, zero, right, generic, delta):
    # clusters of angles at 0 and at pi/2 - delta beside generic ones, n <= 16:
    # on exit 0 the printed numbers must satisfy the contract, recomputed
    # from them and the inputs alone
    n = zero + right + generic
    assume(n > 0)
    rng = np.random.default_rng(seed)
    angles = [0.0] * zero + [math.pi / 2 - delta] * right + list(rng.uniform(0.1, 1.4, generic))
    pair = planted_angle_pair(angles, rng)
    structure = ComplexStructure.standard(n)
    (code_c, out_c, _), (code_m, out_m, _) = run_on_pair(pair, ["connect",
                                                               "multiplicity --alternates"])
    [(code_g, out_g, _)] = run_on_pair(pair[1:], ["graph-recover"])
    assert code_c == code_m == code_g == 0

    con = json.loads(out_c)
    norm = assert_generator_contract(con["z"], *pair, structure)
    assert abs(con["norm_op"] - norm) <= 1e-12
    assert abs(con["norm_op"] - max(angles)) <= 1e-8
    singular = np.linalg.svd(2.0 * np.array(con["z"]), compute_uv=False)
    for key, want in (("1", singular.sum()), ("2", np.linalg.norm(singular)),
                      ("inf", singular[0])):
        assert abs(con["norm_k"][key] - want) <= 1e-12 * max(1.0, want)

    mult = json.loads(out_m)
    flips = right if delta in FLIP_DELTAS else 0
    assert mult["minus_one_dim_complex"] == flips
    assert mult["classification"] == {0: "Unique", 1: "ExactlyTwo"}.get(flips, "Infinite")
    assert mult["norm_gap"] == math.pi / 2 - con["norm_op"]
    # every sign pattern of the flip planes (2^6 = 64 is the default limit),
    # each a distinct generator to the same endpoint; a flip takes |theta| =
    # pi/2 - delta to pi/2 + delta, so the norm moves by at most 2 delta
    alternates = mult["alternates"]
    assert len(alternates) == 2 ** flips
    assert len({json.dumps(z) for z in alternates}) == len(alternates)
    for z in alternates:
        assert abs(assert_generator_contract(z, *pair, structure) - norm) <= 2 * delta + 1e-12

    rec = json.loads(out_g)
    b = np.array(rec["operator"])
    want = graph_chart_residuals(b, pair[1])
    tol = 1e-12 * max(1.0, max_abs(b))
    assert abs(rec["residual_vertical_chart"] - want[0]) <= tol
    assert abs(rec["residual_identity_chart"] - want[1]) <= tol


# eigenvalues at -pi/4 + side * delta: the node at t = 1 of the identity
# graph's flow lies about delta inside or outside the chart's edge
EDGE_DELTAS = (0.0, 1e-12, 1e-6, 1e-3)
EDGE_CASES = dict(seed=st.integers(0, 2**32 - 1), delta=st.sampled_from(EDGE_DELTAS),
                  sides=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=8),
                  generic=st.integers(0, 8))


def edge_block(seed, delta, sides, generic):
    """A rotated block with eigenvalues -pi/4 + side * delta, one per side,
    beside `generic` ones drawn from [-pi/2, pi/2]; n <= 16."""
    edges = [-math.pi / 4 + side * delta for side in sides]
    return planted_block(np.random.default_rng(seed), len(sides) + generic, edges)


def circular_mismatch(got, want):
    """The largest distance on the circle between two phase lists, sorted and
    matched up to a cyclic shift (a phase near pi may sort to either end)."""
    got, want = np.sort(got), np.sort(np.remainder(want, 2 * math.pi))
    return min(max(abs(math.remainder(g - w, 2 * math.pi)) for g, w in zip(got, np.roll(want, k)))
               for k in range(len(want)))


@settings(max_examples=25, deadline=None)
@given(**EDGE_CASES, grid=st.sampled_from([3, 21, 50]))
@example(seed=0, delta=0.0, sides=[1.0, 1.0], generic=0, grid=50)
@example(seed=1, delta=1e-12, sides=[-1.0, 1.0, 1.0], generic=13, grid=21)
def test_spectral_curve_keeps_its_contract_near_the_chart_edge(seed, delta, sides, generic,
                                                                grid):
    # on exit 0 the printed rows must satisfy the contract, recomputed from
    # them and the input block alone
    y = edge_block(seed, delta, sides, generic)
    n = len(y)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_problem(Path(tmp) / "y.json", {"matrix": y.tolist()})
        code, text, err = run_captured(["spectral-curve", path, "--grid", str(grid)])
    assert code == 0, err
    lines = text[:text.index("{")].splitlines()
    verdict = json.loads(text[text.index("{"):])
    assert lines[0] == ",".join(["t"] + [f"phase_{i}" for i in range(n)]
                                + ["min_gap_to_minus_one"])
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]

    geo = Geodesic(codiagonal_generator(y, graph_symmetry(np.eye(n))))
    kept = [t for t in np.linspace(-1.0, 1.0, grid).tolist() if is_graph(evaluate(geo, t))]
    assert [row[0] for row in rows] == kept
    assert verdict["skipped_times"] == grid - len(kept)
    mus = np.linalg.eigvalsh(y)
    for t, *phases, gap in rows:
        assert phases == sorted(phases)
        assert all(-math.pi < p <= math.pi for p in phases)
        assert gap == min(math.pi - abs(p) for p in phases)
        assert circular_mismatch(phases, -math.pi / 2 - 2.0 * t * mus) <= n * CAYLEY_FORM_TOL
    assert verdict["min_gap"] == min(row[-1] for row in rows)


@settings(max_examples=15, deadline=None)
@given(**EDGE_CASES)
@example(seed=2, delta=0.0, sides=[-1.0] * 8, generic=8)
def test_sample_keeps_its_contract_to_the_chart_edge(seed, delta, sides, generic):
    # the pair is the identity graph and the node at t = 1 of the planted
    # block's flow, at the chart's edge: on exit 0 every printed node must be
    # a Lagrangian symmetry, the end nodes the inputs, and the speeds the
    # closed-form length
    y = edge_block(seed, delta, sides, generic)
    n = len(y)
    e0 = graph_symmetry(np.eye(n))
    pair = (e0, Symmetry(evaluate(Geodesic(codiagonal_generator(y, e0)), 1.0).matrix))
    with tempfile.TemporaryDirectory() as tmp:
        [(code, out, err)] = run_on_pair(pair, [f"sample --out-prefix {tmp}/run"])
        assert code == 0, err
        curve, speed = ([[float(x) for x in line.split(",")] for line in
                         Path(name).read_text().splitlines()[2:]]
                        for name in json.loads(out)["files"])
    closed = json.loads(out)["closed_form_speed"]
    ts = np.linspace(0.0, 1.0, 101).tolist()
    assert [row[0] for row in curve] == [row[0] for row in speed] == ts

    structure = ComplexStructure.standard(n)
    nodes = [np.array(row[1:]).reshape(2 * n, 2 * n) for row in curve]
    assert all(is_lagrangian(Symmetry(e), structure) for e in nodes)
    for e, end in ((nodes[0], pair[0]), (nodes[-1], pair[1])):
        assert max_abs(e - end.matrix) <= ENDPOINT_RTOL * 2 * n
    # the minimal geodesic's principal angles are |mu|, so its speed is
    # 2 max |mu|. By Taylor's remainder, the one-sided five-point stencil
    # [-25, 48, -36, 16, -3] / 12h misses C'_t by at most
    # sum |c_j| (j h)^5 / 5! / 12h ||C^(5)|| = (17/3) h^4 speed^5, the
    # central one by less, and the norm moves by no more than that
    assert abs(closed - 2.0 * max_abs(np.linalg.eigvalsh(y))) <= 1e-9
    tol = 17.0 / 3.0 * ts[1] ** 4 * closed ** 5 + 1e-10
    assert max(abs(row[1] - closed) for row in speed) <= tol


def test_decompose_takes_a_symmetry_at_the_constructor_edge():
    # eigenvalues 1.2e-8 off +-1 at n = 128, within the constructor's
    # tolerance: validate and distance took the pair, decompose used to
    # refuse it with "eigenvalues not at +-1" (exit 3)
    n = 128
    _, e0, e1 = scaled_lagrangian_pair(n, 1.0 + 1.2e-8, SEED)
    [(code_v, out_v, _)] = run_on_pair((e1,), ["validate"])
    (code_d, _, _), (code_s, out_s, err_s) = run_on_pair((e0, e1), ["distance", "decompose"])
    assert code_v == code_d == code_s == 0, err_s
    assert json.loads(out_v)["lagrangian"] is True
    assert json.loads(out_s)["dims"] == block_dims(0, 0, 0, 0, 2 * n)


# the symmetry scaled so that max|eps^2 - I| is this fraction of the
# constructor's tolerance SYM_RTOL dim: inside it, at it, or beyond it
EDGE_FRACTIONS = (0.0, 0.99, 1.01)


def validate_input(seed, n, rotated, kind, edge):
    """A validate document, standard or rotated J: a random Lagrangian or
    the symmetry of a random subspace of any dimension, scaled by
    sqrt(1 + edge SYM_RTOL 2n)."""
    rng = np.random.default_rng(seed)
    structure = rotated_structure(n, rng)[0] if rotated else ComplexStructure.standard(n)
    if kind == "lagrangian":
        e = random_lagrangian(structure, rng).matrix
    else:
        b = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0][:, :rng.integers(0, 2 * n + 1)]
        e = 2.0 * (b @ b.T) - np.eye(2 * n)
    e = e * math.sqrt(1.0 + edge * SYM_RTOL * 2 * n)
    doc = {"dim": 2 * n, "subspace": {"symmetry": e.tolist()}}
    if rotated:
        doc["J"] = structure.matrix.tolist()
    return doc


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 8, 32, 64]),
       rotated=st.booleans(), kind=st.sampled_from(["lagrangian", "subspace"]),
       edge=st.sampled_from(EDGE_FRACTIONS))
@example(seed=0, n=64, rotated=True, kind="lagrangian", edge=0.99)
@example(seed=1, n=64, rotated=False, kind="subspace", edge=1.01)
def test_validate_keeps_its_contract_at_the_constructor_edge(seed, n, rotated, kind, edge):
    # on exit 0 every printed number is recomputed from the input document
    # alone; beyond the constructor's tolerance the symmetry is refused
    doc = validate_input(seed, n, rotated, kind, edge)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_captured(["validate", write_problem(Path(tmp) / "s.json", doc)])
    if edge > 1.0:
        assert (code, out) == (3, "")
        assert err.startswith("invariant violation: symmetry: eps^2 != I")
        return
    assert code == 0, err
    dim = 2 * n
    e = np.array(doc["subspace"]["symmetry"])
    j = np.array(doc["J"]) if rotated else standard_form(n)
    identity = np.eye(dim)
    report = json.loads(out)
    assert {key: report[key] for key in (
        "dim", "j_antisymmetry", "j_square_plus_identity", "j_orthogonality",
        "symmetry_asymmetry", "symmetry_square_minus_identity", "anticommutator_with_j")} == {
        "dim": dim, "j_antisymmetry": max_abs(j + j.T),
        "j_square_plus_identity": max_abs(j @ j + identity),
        "j_orthogonality": max_abs(j @ j.T - identity),
        "symmetry_asymmetry": max_abs(e - e.T),
        "symmetry_square_minus_identity": max_abs(e @ e - identity),
        "anticommutator_with_j": max_abs(e @ j + j @ e)}
    # the +1 eigenspace, and whether J maps it onto its complement: the
    # symplectic form vanishes on it, to rounding here or O(1) off it
    lam, vec = np.linalg.eigh((e + e.T) / 2.0)
    basis = vec[:, lam > 0.0]
    assert report["subspace_dim"] == basis.shape[1]
    assert report["lagrangian"] is (basis.shape[1] == n
                                    and max_abs(basis.T @ j @ basis) <= 1e-6)
    if kind == "lagrangian":
        assert report["lagrangian"] is True


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**63), dim_half=st.sampled_from([1, 2, 5, 16, 64]))
@example(seed=0, dim_half=64)
def test_random_pair_writes_a_reproducible_lagrangian_pair(seed, dim_half):
    # equal seeds write identical bytes, the next seed other files, and each
    # file passes validate as a Lagrangian of dim 2 --dim-half
    dim = 2 * dim_half
    with tempfile.TemporaryDirectory() as tmp:
        written = {}
        for tag, s in (("a", seed), ("b", seed), ("c", seed + 1)):
            prefix = str(Path(tmp) / tag)
            code, out, err = run_captured(["random-pair", "--dim-half", str(dim_half),
                                           "--seed", str(s), "--out-prefix", prefix])
            assert code == 0, err
            payload = json.loads(out)
            assert payload["files"] == [prefix + "_first.json", prefix + "_second.json"]
            assert payload["seed"] == payload["provenance"]["seed"] == s
            written[tag] = [Path(name).read_bytes() for name in payload["files"]]
            for name in payload["files"]:
                code, out, err = run_captured(["validate", name])
                assert code == 0, err
                report = json.loads(out)
                assert (report["dim"], report["subspace_dim"], report["lagrangian"]) == (
                    dim, dim_half, True)
    assert written["a"] == written["b"]
    assert written["a"][0] != written["a"][1]
    assert all(c != a for c, a in zip(written["c"], written["a"]))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
