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

import numpy as np
import pytest
from hypothesis import given, settings

from lagrass.cli import main
from lagrass.complex_structure import ComplexStructure
from lagrass.geodesics import GeodesicGenerator, connect
from lagrass.linalg import max_abs
from lagrass.subspaces import Symmetry
from lagrass.tolerances import SYM_RTOL

from test_graphs import near_edge_block
from test_subspaces import THRESHOLD_CASES, threshold_case

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


def test_connect_angle_just_inside_tight_right_tolerance(tmp_path, capsys):
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

    # the flag is both bucket widths, so it must be a finite angle in (0, pi/4)
    other = line_file(tmp_path, 0.6, "c.json")
    for bad in ("1", "0.7853981633974483", "0", "-0.001", "nan", "inf", "abc"):
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
    (["--k", "0"], 3),
    (["--grid", "2"], 2),
    (["--grid", "4"], 2),
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


@settings(max_examples=30, deadline=None)
@given(**THRESHOLD_CASES)
def test_decompose_buckets_land_on_the_planted_side(seed, tol, zero_side, right_side, generic):
    # the contract: the planted dimensions, or a typed error (exit 3 or 4)
    (e0, e1), dims = threshold_case(seed, tol, zero_side, right_side, generic)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_problem(Path(tmp) / f"{i}.json",
                               {"dim": e.ambient_dim, "subspace": {"symmetry": e.matrix.tolist()}})
                 for i, e in enumerate((e0, e1))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--tol-angle", repr(tol), "decompose", *paths])
    assert code in (0, 3, 4)
    if code == 0:
        assert json.loads(out.getvalue())["dims"] == dims


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
