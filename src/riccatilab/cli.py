"""Command line front end.

Subcommands: solve, certify, factorize, example, sweep.  Exit codes:
0 success, 1 malformed input, 2 solver failure.  All diagnostic text goes
to stderr; stdout carries only the JSON or CSV payload so outputs stay
byte-stable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .block import BlockProblem, SpectralGap, select_gap
from .certificates import Certificate, certify_all, gamma_center
from .errors import InfeasibleSpec, RiccatiLabError
from .factorization import (
    _w_scan,
    enclosure_bounds,
    factorization_grid,
    sign_conditions,
    verify_factorization,
)
from .harness import ExampleSpec, GenSpec, example_problem, exact_example_solution, sweep
from .linalg import TOL_SPEC, operator_norm
from .serialize import (
    certificate_to_dict,
    clean_number,
    dumps,
    matrix_to_json,
    problem_from_dict,
    problem_to_dict,
    solution_to_dict,
)
from .solvers import build_contour, solve_contour, solve_fixedpoint, solve_spectral


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # solver failures, so usage problems are remapped to 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="riccatilab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the Riccati equation for one problem")
    solve.add_argument("problem", help="problem JSON file, or - for stdin")
    solve.add_argument("--gap", type=float, default=None, help="interior point naming the gap")
    solve.add_argument(
        "--method",
        choices=("spectral", "contour", "fixedpoint"),
        default="spectral",
    )

    certify = sub.add_parser("certify", help="evaluate every certificate on one problem")
    certify.add_argument("problem", help="problem JSON file, or - for stdin")
    certify.add_argument("--gap", type=float, default=None, help="interior point naming the gap")

    fact = sub.add_parser("factorize", help="factorization defect and spectral enclosure")
    fact.add_argument("problem", help="problem JSON file, or - for stdin")
    fact.add_argument("--gap", type=float, default=None, help="interior point naming the gap")

    example = sub.add_parser("example", help="emit the closed-form sharpness instance")
    example.add_argument("--d", type=float, required=True, help="half gap length")
    example.add_argument("--b", type=float, required=True, help="coupling norm")

    sw = sub.add_parser("sweep", help="run a grid of specs and emit one CSV row each")
    sw.add_argument("specs", help="spec grid JSON file, or - for stdin")
    sw.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def _read_json(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return json.loads(text)


def _hint_point(alpha: float, beta: float) -> float:
    """A point naming the hinted gap: its midpoint, or on a ray, whose
    midpoint is infinite, a point strictly beyond its finite end."""
    if alpha == -math.inf:
        return beta - (1.0 + abs(beta))
    if beta == math.inf:
        return alpha + (1.0 + abs(alpha))
    return (alpha + beta) / 2.0


def _load_problem(path: str, gap_point) -> tuple[BlockProblem, SpectralGap]:
    p, gap_hint = problem_from_dict(_read_json(path))
    if gap_point is None and gap_hint is not None:
        gap_point = _hint_point(*gap_hint)
    return p, select_gap(p, gap_point)


def _solve_payload(p: BlockProblem, gap: SpectralGap, method: str) -> dict:
    if method == "spectral":
        sol = solve_spectral(p, gap)
    elif method == "fixedpoint":
        sol = solve_fixedpoint(p, gap)
    else:
        # the quadrature needs the pencil operator Z up front; the spectral
        # route provides it, after which the integral recovers X on its own
        ref = solve_spectral(p, gap)
        sol = solve_contour(p, ref.Z, build_contour(ref.z_eigs, p.eig_C.values))
    out = solution_to_dict(sol)
    out["gap"] = [clean_number(gap.alpha), clean_number(gap.beta)]
    return out


def _certify_payload(p: BlockProblem, gap: SpectralGap) -> dict:
    sol = solve_spectral(p, gap)
    certs = [
        certificate_to_dict(cert)
        if isinstance(cert, Certificate)
        else {"theorem": theorem, "applicable": False, "error": type(cert).__name__}
        for theorem, cert in certify_all(p, gap, sol)
    ]
    return {
        "gap": [clean_number(gap.alpha), clean_number(gap.beta)],
        "gamma": clean_number(gamma_center(sol)),
        "x_norm": clean_number(sol.x_norm),
        "residual": clean_number(sol.residual),
        "certificates": certs,
    }


def _factorize_payload(p: BlockProblem, gap: SpectralGap) -> dict:
    sol = solve_spectral(p, gap)
    out: dict = {
        "gap": [clean_number(gap.alpha), clean_number(gap.beta)],
        "x_norm": clean_number(sol.x_norm),
        "defect": (
            clean_number(verify_factorization(p, sol, factorization_grid(p, gap)))
            if gap.is_finite
            else None
        ),
    }
    try:
        bounds = enclosure_bounds(p, gap)
    except RiccatiLabError as err:
        out["enclosure"] = None
        out["enclosure_error"] = type(err).__name__
        return out
    out["enclosure"] = {
        "delta_minus": clean_number(bounds.delta_minus),
        "delta_plus": clean_number(bounds.delta_plus),
        "lower": clean_number(bounds.lower),
        "upper": clean_number(bounds.upper),
    }
    out["sign_conditions"] = sign_conditions(p, gap, bounds)
    W = _w_scan(p, sol.X, np.linspace(bounds.lower, bounds.upper, 25).astype(complex))
    smin = float(np.min(np.linalg.svd(W, compute_uv=False)[:, -1]))
    out["w_min_singular_value"] = clean_number(smin)
    out["w_invertible"] = bool(smin > TOL_SPEC)
    return out


def _example_payload(d: float, b: float) -> dict:
    X = exact_example_solution(d, b)
    out = problem_to_dict(example_problem(d, b), gap=(-d, d))
    out["X_exact"] = matrix_to_json(X)
    out["x_norm"] = clean_number(operator_norm(X))
    return out


# the JSON types of a sweep grid row's keys, by family; bool is no number
_NUMBER = (int, float)
_ROW_TYPES = {
    "example": {"family": (str,), "d": _NUMBER, "b": _NUMBER},
    "generated": {
        "seed": (int,), "n_A": (int,), "n_C": (int,), "gap": (list,),
        "d_target": _NUMBER, "b_ratio": _NUMBER, "placement": (str,),
    },
}


def _check_row(row: dict) -> None:
    """Raise ValueError on a key the row's family does not define, a value
    of another JSON type, or a gap that is not two numbers."""
    types = _ROW_TYPES["example" if row.get("family") == "example" else "generated"]
    for key, value in row.items():
        if key not in types:
            raise ValueError(f"unknown key {key!r}")
        if type(value) not in types[key]:
            raise ValueError(f"{key}={value!r} is not of its JSON type")
    gap = row.get("gap")
    if gap is not None and (len(gap) != 2 or not all(type(x) in _NUMBER for x in gap)):
        raise ValueError(f"gap must be [alpha, beta], got {gap!r}")


def _parse_specs(obj) -> list:
    if isinstance(obj, dict) and "specs" in obj:
        obj = obj["specs"]
    if not isinstance(obj, list):
        raise ValueError("spec grid JSON must be a list (or {'specs': [...]})")
    specs = []
    for i, row in enumerate(obj):
        if not isinstance(row, dict):
            raise ValueError(f"spec {i} must be an object")
        try:
            _check_row(row)
            if row.get("family") == "example":
                specs.append(ExampleSpec(d=float(row["d"]), b=float(row["b"])))
                continue
            specs.append(
                GenSpec(
                    seed=row["seed"],
                    n_A=row["n_A"],
                    n_C=row["n_C"],
                    gap=(float(row["gap"][0]), float(row["gap"][1])),
                    d_target=float(row["d_target"]),
                    b_ratio=float(row["b_ratio"]),
                    placement=row.get("placement", "interior"),
                )
            )
        except KeyError as err:
            raise ValueError(f"spec {i} lacks key {err}") from err
        except (ValueError, OverflowError, InfeasibleSpec) as err:
            raise ValueError(f"spec {i} is malformed: {err}") from err
    return specs


def _prepare(args):
    """Do all input parsing and return a no-argument compute closure.

    Anything raised here is malformed input (exit 1); anything raised by
    the returned closure is a solver failure (exit 2).
    """
    if args.command == "example":
        spec = ExampleSpec(d=args.d, b=args.b)
        return lambda: sys.stdout.write(dumps(_example_payload(spec.d, spec.b)))

    if args.command == "sweep":
        specs = _parse_specs(_read_json(args.specs))
        # opened here, so a path that cannot be written is malformed input
        # before any instance is computed
        out = None if args.out is None else open(args.out, "w", encoding="utf-8")

        def run_sweep():
            if out is None:
                sweep(specs).write_csv(sys.stdout)
                return
            with out:
                result = sweep(specs)
                result.write_csv(out)
            print(f"rows={len(result.rows)}")

        return run_sweep

    p, gap = _load_problem(args.problem, args.gap)
    if args.command == "solve":
        return lambda: sys.stdout.write(dumps(_solve_payload(p, gap, args.method)))
    if args.command == "certify":
        return lambda: sys.stdout.write(dumps(_certify_payload(p, gap)))
    return lambda: sys.stdout.write(dumps(_factorize_payload(p, gap)))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        work = _prepare(args)
    except (OSError, ValueError, OverflowError, KeyError, RiccatiLabError) as err:
        print(f"riccatilab: input error: {err}", file=sys.stderr)
        return 1
    try:
        work()
        return 0
    except RiccatiLabError as err:
        print(f"riccatilab: solver error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
