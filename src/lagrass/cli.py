"""Batch command line front end.

Reads subspaces and operators from JSON documents, drives the solver, and
emits machine-readable JSON and CSV. One job per invocation; outputs are
deterministic for fixed inputs and seed (no timestamps, repr-exact floats).

Input document: {"dim": 2n, "J": optional 2n x 2n rows (default standard),
"subspace": exactly one of {"basis" | "projection" | "symmetry" | "graph_of"}}.
The spectral-curve command instead takes {"matrix": n x n symmetric rows}.

Exit codes: 0 success, 2 parse failure, 3 invariant violation, 4 solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .complex_structure import (
    ComplexStructure,
    _complex_block,
    _real_eigenbasis,
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
    length,
    sample,
)
from .graphs import (
    _cayley_result,
    _chart_grid,
    _identity_graph,
    codiagonal_generator,
    graph_symmetry,
    recover_operator,
)
from .linalg import max_abs, schatten_norm
from .sampling import random_lagrangian
from .subspaces import (
    Projection,
    Subspace,
    Symmetry,
    five_way_decompose,
    is_lagrangian,
    projection_from_symmetry,
    symmetry_from_projection,
    symmetry_from_subspace,
)
from .tolerances import ANGLE_TOL, ANGLE_TOL_FLOOR, RANK_RTOL, SYM_RTOL


class ParseFailure(Exception):
    """Input file missing, malformed, or not matching the schema."""


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
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


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_header(args, command: str, extra: str = "") -> str:
    line = (f"# lagrass {command} tol-sym={SYM_RTOL:g} "
            f"tol-angle={args.tol_angle:g} tol-rank={args.tol_rank:g}")
    if extra:
        line += " " + extra
    return line + "\n"


def _write_rows(fh, columns: list[str], rows) -> None:
    """The column line, then one line of repr-exact floats per row."""
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_csv(path: str, header_comment: str, columns: list[str],
               rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header_comment)
        _write_rows(fh, columns, rows)


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    structure, eps = _load_problem(args.subspace)
    j = structure.matrix
    e = eps.matrix
    dim = structure.dim
    payload = {
        "dim": dim,
        "j_antisymmetry": max_abs(j + j.T),
        "j_square_plus_identity": max_abs(j @ j + np.eye(dim)),
        "j_orthogonality": max_abs(j @ j.T - np.eye(dim)),
        "symmetry_asymmetry": max_abs(e - e.T),
        "symmetry_square_minus_identity": max_abs(e @ e - np.eye(dim)),
        "anticommutator_with_j": max_abs(e @ j + j @ e),
        "subspace_dim": eps.plus_dim,
        "lagrangian": is_lagrangian(eps, structure),
        "provenance": _provenance(args),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_connect(args) -> int:
    structure, e0, e1 = _load_pair(args)
    gen, endpoint = _connect(e0, e1, structure)
    z = gen.z
    j = structure.matrix
    geo = Geodesic(gen)
    payload = {
        "z": z.tolist(),
        "norm_op": gen.norm,
        "residuals": {
            "antisymmetry": max_abs(z + z.T),
            "commutator_with_j": max_abs(z @ j - j @ z),
            "anticommutator_with_base": max_abs(z @ e0.matrix + e0.matrix @ z),
            "endpoint": endpoint,
        },
        "norm_k": {key: length(geo, k)
                   for key, k in (("1", 1), ("2", 2), ("inf", math.inf))},
        "provenance": _provenance(args),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_distance(args) -> int:
    structure, e0, e1 = _load_pair(args)
    gen = connect(e0, e1, structure)
    d = 2.0 * gen.norm
    p0 = projection_from_symmetry(e0).matrix
    p1 = projection_from_symmetry(e1).matrix
    gap = schatten_norm(p0 - p1, math.inf)
    payload = {
        "distance": d,
        "projection_gap": gap,
        "sin_norm_residual": abs(math.sin(gen.norm) - gap),
        "provenance": _provenance(args),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_sample(args) -> int:
    if args.grid < 5:
        raise ParseFailure("sample: --grid must be >= 5")
    structure, e0, e1 = _load_pair(args)
    geo = Geodesic(connect(e0, e1, structure))
    ts = np.linspace(0.0, 1.0, args.grid)
    c = sample(geo, ts)
    speeds = _node_speeds(c, float(ts[1] - ts[0]), [args.k])[args.k]
    stack = realify_conjugation(c, structure)
    dim = structure.dim

    curve_cols = ["t"] + [f"eps_{i}_{j}" for i in range(dim) for j in range(dim)]
    curve_rows = ([t] + list(stack[idx].reshape(-1)) for idx, t in enumerate(ts))
    _write_csv(args.out_prefix + "_curve.csv",
               _csv_header(args, "sample", f"grid={args.grid} k={args.k}"),
               curve_cols, curve_rows)

    _write_csv(args.out_prefix + "_speed.csv",
               _csv_header(args, "sample", f"grid={args.grid} k={args.k}"),
               ["t", f"speed_{args.k}"],
               ([t, speeds[idx]] for idx, t in enumerate(ts)))
    _emit_json({
        "files": [args.out_prefix + "_curve.csv", args.out_prefix + "_speed.csv"],
        "closed_form_speed": length(geo, args.k),
    }, None)
    return 0


def _cmd_decompose(args) -> int:
    structure, e0, e1 = _load_pair(args)
    dec = five_way_decompose(e0, e1, args.tol_angle)
    payload = {
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
    _emit_json(payload, args.out)
    return 0


def _cmd_multiplicity(args) -> int:
    if args.limit < 1:
        raise ParseFailure("multiplicity: --limit must be >= 1")
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
    _emit_json(payload, args.out)
    return 0


def _chart_block_trig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos x, sin x) for the real symmetric x = -H, |H| <= pi/2, with
    e^{2iH} = s, a symmetric unitary: s = O diag(e^{i phi}) O^T gives
    H = O diag(phi / 2) O^T."""
    o, phi = _real_eigenbasis(s)
    return (o * np.cos(phi / 2.0)) @ o.T, -(o * np.sin(phi / 2.0)) @ o.T


def _cmd_graph_recover(args) -> int:
    structure, eps = _load_problem(args.subspace)
    if not structure.is_standard():
        raise InvariantViolation("graph-recover: requires the standard complex structure")
    b = recover_operator(eps, rank_rtol=args.tol_rank)
    # recover_operator has validated C. The vertical's C is -I and the identity
    # graph's is iI, so the minimal geodesic from either base to eps has the
    # chart block x = -H with e^{2iH} = -C and -iC respectively
    c = _complex_block(eps.matrix, structure)
    # vertical-chart closed form b sin(x) = cos(x)
    cos_x, sin_x = _chart_block_trig(-c)
    res_vertical = max_abs(b @ sin_x - cos_x)
    # identity-chart form b (cos y + sin y) = cos y - sin y
    cos_y, sin_y = _chart_block_trig(-1j * c)
    res_identity = max_abs(b @ (cos_y + sin_y) - (cos_y - sin_y))

    payload = {
        "operator": b.tolist(),
        "residual_vertical_chart": res_vertical,
        "residual_identity_chart": res_identity,
        "provenance": _provenance(args),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_spectral_curve(args) -> int:
    if args.grid < 1:
        raise ParseFailure("spectral-curve: --grid must be >= 1")
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
    skipped = int(np.sum(~in_chart))
    result = _cayley_result(gen, ts[in_chart], c[in_chart])
    columns = ["t"] + [f"phase_{i}" for i in range(n)] + ["min_gap_to_minus_one"]
    rows = ([s.t] + list(s.phases) + [s.min_gap_to_minus_one] for s in result.samples)
    if args.out:
        _write_csv(args.out, _csv_header(args, "spectral-curve", f"grid={args.grid}"),
                   columns, rows)
    else:
        _write_rows(sys.stdout, columns, rows)
    verdict = {
        "trivial_flow": result.trivial_flow,
        "min_gap": result.min_gap,
        "closed_form_max_error": result.closed_form_max_error,
        "det_phase_change": result.det_phase_change,
        "skipped_times": skipped,
        "note": result.note,
        "provenance": _provenance(args),
    }
    _emit_json(verdict, None)
    return 0


def _cmd_random_pair(args) -> int:
    n = args.dim_half
    if n < 1:
        raise ParseFailure("random-pair: --dim-half must be >= 1")
    if args.seed < 0:
        raise ParseFailure("random-pair: --seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    structure = ComplexStructure.standard(n)
    files = []
    for tag in ("first", "second"):
        eps = random_lagrangian(structure, rng)
        doc = {
            "dim": 2 * n,
            "subspace": {"symmetry": eps.matrix.tolist()},
        }
        path = f"{args.out_prefix}_{tag}.json"
        _emit_json(doc, path)
        files.append(path)
    _emit_json({
        "files": files,
        "seed": args.seed,
        "provenance": _provenance(args, seed=args.seed),
    }, None)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _schatten_order(text: str):
    """Parse a Schatten order: 'inf' or an integer >= 1."""
    if text == "inf":
        return math.inf
    try:
        k = int(text)
    except ValueError:
        k = 0           # not an integer: refused with the same message
    if k < 1:
        raise argparse.ArgumentTypeError(
            f"Schatten order must be an integer >= 1 or inf, got {text!r}")
    return k


def _float_range(low: float, high: float, label: str, what: str):
    """An argparse type: a positive float in [low, high); label names the range."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (value > 0.0 and low <= value < high):
            raise argparse.ArgumentTypeError(
                f"must be a finite {what} in {label}, got {text!r}")
        return value
    return parse


# --tol-angle is the one bucket width, at 0 and at pi/2, so at
# pi/4 or above the two buckets overlap; below the floor rounding
# splits a common direction off as generic
_angle_tolerance = _float_range(ANGLE_TOL_FLOOR, math.pi / 4.0,
                                f"[{ANGLE_TOL_FLOOR:g}, pi/4)", "angle")
# --tol-rank is compared with singular values of the top rows of a
# projection, which lie in [0, 1]
_rank_tolerance = _float_range(0.0, 1.0, "(0, 1)", "value")


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

    p = sub.add_parser("validate", help="check structure and subspace invariants")
    p.add_argument("subspace")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("connect", help="minimal geodesic generator between two subspaces")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("distance", help="geodesic distance and gap cross-check")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("sample", help="sample the connecting geodesic to CSV")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--k", type=_schatten_order, default=math.inf,
                   help="Schatten order for the speed column: an integer >= 1 or inf")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose", help="five-way decomposition of a subspace pair")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("multiplicity", help="classify minimal-geodesic multiplicity")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--alternates", action="store_true",
                   help="include the sign-flip alternate generators")
    p.add_argument("--limit", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_multiplicity)

    p = sub.add_parser("graph-recover", help="recover the graph operator of a subspace")
    p.add_argument("subspace")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graph_recover)

    p = sub.add_parser("spectral-curve", help="Cayley eigenphases along a graph flow")
    p.add_argument("operator", help="JSON file with the symmetric half-space block")
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectral_curve)

    p = sub.add_parser("random-pair", help="write a reproducible random Lagrangian pair")
    p.add_argument("--dim-half", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_random_pair)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ComputationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
