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

from .complex_structure import ComplexStructure, realify_conjugation
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
from .linalg import (
    apply_function,
    max_abs,
    schatten_norm,
    spectral_decompose,
)
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
    vertical_symmetry,
)
from .tolerances import ANGLE_ZERO_TOL, RANK_RTOL, SYM_RTOL


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
    try:
        dim = int(doc["dim"])
    except KeyError as exc:
        raise ParseFailure(f"{path}: missing key 'dim'") from exc
    except (TypeError, ValueError) as exc:
        raise ParseFailure(f"{path}: 'dim' must be an integer") from exc
    if dim < 2 or dim % 2:
        raise ParseFailure(f"{path}: 'dim' must be an even integer >= 2, got {dim}")
    if "J" in doc:
        structure = ComplexStructure(_matrix_from(doc, "J", path))
        if structure.dim != dim:
            raise ParseFailure(f"{path}: 'J' shape does not match 'dim'")
    else:
        structure = ComplexStructure.standard(dim // 2)
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
        eps = symmetry_from_subspace(Subspace(arr))
    elif kind == "projection":
        if arr.shape != (dim, dim):
            raise ParseFailure(f"{path}: projection must be dim x dim")
        eps = symmetry_from_projection(Projection(arr))
    elif kind == "symmetry":
        if arr.shape != (dim, dim):
            raise ParseFailure(f"{path}: symmetry must be dim x dim")
        eps = Symmetry(arr)
    else:
        if arr.shape != (dim // 2, dim // 2):
            raise ParseFailure(f"{path}: graph_of must be (dim/2) x (dim/2)")
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


def _write_csv(path: str, header_comment: str, columns: list[str],
               rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header_comment)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


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
    sys.stdout.write(json.dumps({
        "files": [args.out_prefix + "_curve.csv", args.out_prefix + "_speed.csv"],
        "closed_form_speed": length(geo, args.k),
    }, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_decompose(args) -> int:
    structure, e0, e1 = _load_pair(args)
    dec = five_way_decompose(e0, e1, zero_tol=args.tol_angle, right_tol=args.tol_angle)
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


def _cmd_graph_recover(args) -> int:
    structure, eps = _load_problem(args.subspace)
    if not structure.is_standard():
        raise InvariantViolation("graph-recover: requires the standard complex structure")
    b = recover_operator(eps, rank_rtol=args.tol_rank)
    n = structure.n

    # residual against the vertical-chart closed form b sin(x) = cos(x)
    gen_v = connect(vertical_symmetry(n), eps, structure)
    x = gen_v.z[:n, n:]
    dec_x = spectral_decompose((x + x.T) / 2.0)
    res_vertical = max_abs(b @ apply_function(dec_x, math.sin)
                           - apply_function(dec_x, math.cos))

    # residual against the identity-chart form b (cos y + sin y) = cos y - sin y
    gen_i = connect(Symmetry(_identity_graph(n)), eps, structure)
    y = gen_i.z[:n, n:]
    dec_y = spectral_decompose((y + y.T) / 2.0)
    cos_y = apply_function(dec_y, math.cos)
    sin_y = apply_function(dec_y, math.sin)
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
        sys.stdout.write(",".join(columns) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(x) for x in row) + "\n")
    verdict = {
        "trivial_flow": result.trivial_flow,
        "min_gap": result.min_gap,
        "closed_form_max_error": result.closed_form_max_error,
        "det_phase_change": result.det_phase_change,
        "skipped_times": skipped,
        "note": result.note,
        "provenance": _provenance(args),
    }
    sys.stdout.write(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_random_pair(args) -> int:
    n = args.dim_half
    if n < 1:
        raise ParseFailure("random-pair: --dim-half must be >= 1")
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        files.append(path)
    sys.stdout.write(json.dumps({
        "files": files,
        "seed": args.seed,
        "provenance": _provenance(args, seed=args.seed),
    }, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _schatten_order(text: str):
    """Parse a Schatten order: 'inf' or an integer (range checked downstream)."""
    if text == "inf":
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"Schatten order must be an integer or inf, got {text!r}") from None


def _open_interval(high: float, label: str, what: str):
    """An argparse type: a finite float in (0, high); label names high."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not 0.0 < value < high:
            raise argparse.ArgumentTypeError(
                f"must be a finite {what} in (0, {label}), got {text!r}")
        return value
    return parse


# --tol-angle is both the coincident and the right-angle bucket width, so at
# pi/4 or above the two buckets overlap
_angle_tolerance = _open_interval(math.pi / 4.0, "pi/4", "angle")
# --tol-rank is compared with top-block singular values of an orthonormal
# basis, which lie in [0, 1]
_rank_tolerance = _open_interval(1.0, "1", "value")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrass",
        description="Minimal geodesics and graph charts of Lagrangian subspaces.",
    )
    parser.add_argument("--tol-angle", type=_angle_tolerance, default=ANGLE_ZERO_TOL,
                        help="principal-angle bucketing tolerance of decompose")
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
                   help="Schatten order for the speed column: an integer or inf")
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
