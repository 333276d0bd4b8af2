"""Deterministic instance generation and certificate sweeps.

Instances are built from a SplitMix64 stream so a (seed, spec) pair pins
the problem bit for bit; the draw order is part of the contract and is
documented in the README.  Sweeps run the spectral solver plus every
applicable certifier over a grid of specs and collect one CSV row per
instance, never dropping failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .block import BlockProblem, SpectralGap, select_gap
from .certificates import Certificate, certify_all
from .errors import InfeasibleSpec, RiccatiLabError
from .rng import SplitMix64
from .solvers import solve_spectral

PLACEMENTS = ("interior", "subordinated", "overlapping")


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random instance.

    gap is the target interval (alpha, beta); d_target is the distance
    from sigma(A) to the nearest endpoint (attained exactly for interior
    and subordinated placements); b_ratio scales ||B|| relative to
    sqrt(d_target * (beta - alpha)).
    """

    seed: int
    n_A: int
    n_C: int
    gap: tuple[float, float]
    d_target: float
    b_ratio: float
    placement: str = "interior"

    def __post_init__(self):
        alpha, beta = self.gap
        # SplitMix64 reduces its seed mod 2^64; a seed outside that range
        # would name another seed's instance
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise InfeasibleSpec(f"seed={self.seed!r} must be an integer in [0, 2^64)")
        if self.n_A < 1 or self.n_C < 1:
            raise InfeasibleSpec("n_A and n_C must be at least 1")
        if not alpha < beta:
            raise InfeasibleSpec(f"gap ({alpha}, {beta}) is empty")
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise InfeasibleSpec(f"gap ({alpha}, {beta}) must be finite")
        if not 0 < self.d_target <= (beta - alpha) / 2.0:
            raise InfeasibleSpec(
                f"d_target={self.d_target} must be in (0, {(beta - alpha) / 2}]"
            )
        if not 0 <= self.b_ratio < math.inf:
            raise InfeasibleSpec(f"b_ratio={self.b_ratio} must be finite and nonnegative")
        if self.placement not in PLACEMENTS:
            raise InfeasibleSpec(f"unknown placement {self.placement!r}")
        if self.placement != "subordinated" and self.n_C < 2:
            raise InfeasibleSpec("a finite gap needs n_C >= 2 to hit both endpoints")


@dataclass(frozen=True)
class ExampleSpec:
    """One member of the closed-form sharpness family (see example_problem);
    its closed-form X must have finite entries b / (sqrt2 d)."""

    d: float
    b: float

    def __post_init__(self):
        if not 0 < self.d < math.inf:
            raise InfeasibleSpec(f"d={self.d} must be finite and positive")
        if not 0 <= self.b < math.inf:
            raise InfeasibleSpec(f"b={self.b} must be finite and nonnegative")
        if not math.isfinite(self.b / (math.sqrt(2.0) * self.d)):
            raise InfeasibleSpec(f"d={self.d}, b={self.b}: the entry b/(sqrt2 d) of X overflows")


SweepSpec = Union[GenSpec, ExampleSpec]


def example_problem(d: float, b: float) -> BlockProblem:
    """The rank-one family A = 0, B = (b/sqrt2)(1, 1), C = diag(d, -d).

    Its Riccati solution is known in closed form (see exact_example_solution)
    with ||X|| = b/d exactly, A + BX = 0, and the tan-theta bound attained
    with equality, which makes the family the sharpness witness for the
    certificates.
    """
    s = b / math.sqrt(2.0)
    return BlockProblem(
        A=np.array([[0.0]], dtype=complex),
        B=np.array([[s, s]], dtype=complex),
        C=np.array([[d, 0.0], [0.0, -d]], dtype=complex),
    )


def exact_example_solution(d: float, b: float) -> np.ndarray:
    """Closed-form X for example_problem(d, b): column (-b, b) / (sqrt2 d)."""
    s = b / (math.sqrt(2.0) * d)
    return np.array([[-s], [s]], dtype=complex)


def _spread_uniforms(rng: SplitMix64, count: int) -> list[float]:
    return [rng.uniform() for _ in range(count)]


def generate(spec: GenSpec) -> BlockProblem:
    """Build the instance for a spec; same spec, same bits, every time.

    Draw order: C placement split, C eigenvalue offsets, A eigenvalues,
    B entries (row-major, one Box-Muller pair per entry), then the two
    unitaries.  Endpoint eigenvalues of C and the d_target-attaining
    eigenvalue of A are placed exactly, not sampled.
    """
    alpha, beta = spec.gap
    length = beta - alpha
    spread = length / 2.0
    rng = SplitMix64(spec.seed)

    if spec.placement == "subordinated":
        c_eigs = [beta] + [beta + spread * u for u in _spread_uniforms(rng, spec.n_C - 1)]
    else:
        k_lo = 1 + rng.next_u64() % (spec.n_C - 1)
        k_hi = spec.n_C - k_lo
        c_eigs = [alpha] + [alpha - spread * u for u in _spread_uniforms(rng, k_lo - 1)]
        c_eigs += [beta] + [beta + spread * u for u in _spread_uniforms(rng, k_hi - 1)]

    if spec.placement == "interior":
        lo, hi = alpha + spec.d_target, beta - spec.d_target
        a_eigs = [lo] + [lo + (hi - lo) * u for u in _spread_uniforms(rng, spec.n_A - 1)]
    elif spec.placement == "subordinated":
        hi = beta - spec.d_target
        a_eigs = [hi] + [alpha + (hi - alpha) * u for u in _spread_uniforms(rng, spec.n_A - 1)]
    else:
        lo, hi = alpha - 0.3 * length, beta + 0.3 * length
        a_eigs = []
        for _ in range(spec.n_A):
            while True:
                a = lo + (hi - lo) * rng.uniform()
                if min(abs(a - c) for c in c_eigs) > 1e-6 * length:
                    a_eigs.append(a)
                    break

    B = rng.complex_normal_matrix(spec.n_A, spec.n_C)
    target = spec.b_ratio * math.sqrt(spec.d_target * length)
    norm = float(np.linalg.norm(B, 2))
    B = B * (target / norm) if target > 0 else np.zeros_like(B)

    U_A = rng.unitary(spec.n_A)
    U_C = rng.unitary(spec.n_C)
    A = (U_A * np.array(a_eigs)) @ U_A.conj().T
    C = (U_C * np.array(c_eigs)) @ U_C.conj().T
    return BlockProblem(A=A, B=B, C=C)


def realize(spec: SweepSpec) -> tuple[BlockProblem, SpectralGap]:
    """Instance plus its named gap for any sweep spec."""
    if isinstance(spec, ExampleSpec):
        p = example_problem(spec.d, spec.b)
        return p, select_gap(p, 0.0)
    p = generate(spec)
    alpha, beta = spec.gap
    return p, select_gap(p, (alpha + beta) / 2.0)


CSV_COLUMNS = (
    "seed",
    "n_A",
    "n_C",
    "alpha",
    "beta",
    "d",
    "b",
    "method",
    "residual",
    "x_norm",
    "existence_pass",
    "existence_margin",
    "contraction_pass",
    "contraction_margin",
    "tan_theta_pass",
    "tan_theta_margin",
    "apriori_pass",
    "apriori_margin",
    "tan2theta_pass",
    "tan2theta_margin",
    "squared_pass",
    "squared_margin",
    "status",
)
# certificate column prefixes, in certify_all's report order
_CERT_PREFIXES = tuple(col[: -len("_pass")] for col in CSV_COLUMNS if col.endswith("_pass"))


@dataclass(frozen=True)
class SweepResult:
    rows: list[dict]

    def write_csv(self, stream) -> None:
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            stream.write(",".join(_cell(row.get(col)) for col in CSV_COLUMNS) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def sweep(spec_grid: Iterable[SweepSpec]) -> SweepResult:
    """Solve and certify every spec; one row per instance, failures tagged.

    The spectral solver provides the X fed to every certifier.  When
    building the instance (realize) or the solve fails, the error class
    name lands in the status column and every cell the failed step would
    have produced stays empty; certificate cells also stay empty
    whenever their theorem does not apply to the instance (infinite gap,
    hypothesis not evaluable, not subordinated), as certify_all reports.
    """
    rows = []
    for spec in spec_grid:
        alpha, beta = (spec.gap if isinstance(spec, GenSpec) else (-spec.d, spec.d))
        row = dict.fromkeys(CSV_COLUMNS)
        seed = spec.seed if isinstance(spec, GenSpec) else None
        row.update(seed=seed, alpha=float(alpha), beta=float(beta))
        rows.append(row)
        try:
            p, gap = realize(spec)
            row.update(n_A=p.n_A, n_C=p.n_C, d=p.d, b=p.norm_B)
            sol = solve_spectral(p, gap)
        except RiccatiLabError as err:
            row["status"] = type(err).__name__
            continue
        row.update(method=sol.method, residual=float(sol.residual), x_norm=float(sol.x_norm))
        row["status"] = "ok"
        for prefix, (_, cert) in zip(_CERT_PREFIXES, certify_all(p, gap, sol)):
            if isinstance(cert, Certificate):
                row[f"{prefix}_pass"] = cert.passed
                row[f"{prefix}_margin"] = float(cert.margin)
    return SweepResult(rows=rows)
