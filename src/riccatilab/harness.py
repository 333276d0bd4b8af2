"""Deterministic instance generation, sweep families and certificate sweeps.

Instances are built from a SplitMix64 stream so a (seed, spec) pair pins
the problem bit for bit; the draw order is part of the contract and is
documented in the README.  Each sweep family is one spec class, named in
FAMILIES by a grid row's family key (a row without one is a GenSpec): its
ROW reads the row, and it gives problem(), gap and seed.  Sweeps run the
spectral solver plus every applicable certifier over a grid of specs and
collect one CSV row per instance, never dropping failures.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Iterable

import numpy as np

from .block import BlockProblem, SpectralGap, select_gap
from .certificates import Certificate, certify_all
from .errors import InfeasibleSpec, RiccatiLabError
from .linalg import operator_norm
from .rng import SplitMix64, rephased_q
from .solvers import solve_spectral

PLACEMENTS = ("interior", "subordinated", "overlapping")

_NUMBER = (int, float)


def _interval(pair: list) -> tuple[float, float]:
    return (float(pair[0]), float(pair[1]))


# the JSON types a row value may have, by the conversion its family names
# for its key; a bool is no number, and an interval is a list of two numbers
_JSON_TYPES = {int: (int,), float: _NUMBER, str: (str,), _interval: (list,)}


class _Family:
    """Base of the sweep families: frozen dataclasses with problem(), gap and
    seed, whose ROW maps each grid row key, a field, to its conversion."""

    @classmethod
    def from_row(cls, row: dict):
        """The spec of a grid row, read as JSON gives it: ValueError on a key
        not in ROW, a value of another JSON type or a gap that is not two
        numbers, KeyError on a missing key whose field has no default."""
        for key, value in row.items():
            if key not in cls.ROW:
                raise ValueError(f"unknown key {key!r}")
            if type(value) not in _JSON_TYPES[cls.ROW[key]]:
                raise ValueError(f"{key}={value!r} is not of its JSON type")
        gap = row.get("gap")
        if gap is not None and (len(gap) != 2 or not all(type(x) in _NUMBER for x in gap)):
            raise ValueError(f"gap must be [alpha, beta], got {gap!r}")
        given = [f.name for f in fields(cls) if f.name in row or f.default is MISSING]
        return cls(**{key: cls.ROW[key](row[key]) for key in given})


@dataclass(frozen=True)
class GenSpec(_Family):
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
    ROW = {"seed": int, "n_A": int, "n_C": int, "gap": _interval, "d_target": float,
           "b_ratio": float, "placement": str}

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

    def problem(self) -> BlockProblem:
        return generate(self)


@dataclass(frozen=True)
class ExampleSpec(_Family):
    """A member of the closed-form sharpness family (see example_problem):
    gap (-d, d), no seed, and X's entries b / (sqrt2 d) must be finite."""

    d: float
    b: float
    ROW = {"d": float, "b": float}
    seed = None

    def __post_init__(self):
        if not 0 < self.d < math.inf:
            raise InfeasibleSpec(f"d={self.d} must be finite and positive")
        if not 0 <= self.b < math.inf:
            raise InfeasibleSpec(f"b={self.b} must be finite and nonnegative")
        if not math.isfinite(self.b / (math.sqrt(2.0) * self.d)):
            raise InfeasibleSpec(f"d={self.d}, b={self.b}: the entry b/(sqrt2 d) of X overflows")

    @property
    def gap(self) -> tuple[float, float]:
        return (-self.d, self.d)

    def problem(self) -> BlockProblem:
        return example_problem(self.d, self.b)


FAMILIES = {"example": ExampleSpec}


def parse_grid(obj) -> list:
    """The specs of a sweep grid JSON value: a list of rows, or {"specs": [...]}
    with no other key.

    A row's family key, if a string in FAMILIES, names its class; any other
    row is generated, and a family key in it is an unknown key.  Raises
    ValueError on the first row that is malformed.
    """
    if isinstance(obj, dict) and "specs" in obj:
        for key in obj:
            if key != "specs":
                raise ValueError(f"spec grid JSON has unknown top-level key {key!r}")
        obj = obj["specs"]
    if not isinstance(obj, list):
        raise ValueError("spec grid JSON must be a list (or {'specs': [...]})")
    specs = []
    for i, row in enumerate(obj):
        if not isinstance(row, dict):
            raise ValueError(f"spec {i} must be an object")
        family = row.get("family")
        # only a string is looked up: a list or an object is unhashable
        cls = FAMILIES.get(family, GenSpec) if isinstance(family, str) else GenSpec
        if cls is not GenSpec:
            row = {key: value for key, value in row.items() if key != "family"}
        try:
            specs.append(cls.from_row(row))
        except KeyError as err:
            raise ValueError(f"spec {i} lacks key {err}") from err
        except (ValueError, OverflowError, InfeasibleSpec) as err:
            raise ValueError(f"spec {i} is malformed: {err}") from err
    return specs


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


def generate(spec: GenSpec) -> BlockProblem:
    """Build the instance for a spec; same spec, same bits, every time.

    Draw order: C placement split, C eigenvalue offsets, A eigenvalues,
    B entries (row-major, one Box-Muller pair per entry), then the two
    unitaries' gaussian matrices; B and those matrices are one block.
    Endpoint eigenvalues of C and the d_target-attaining eigenvalue of A
    are placed exactly, not sampled.
    """
    alpha, beta = spec.gap
    length = beta - alpha
    spread = length / 2.0
    rng = SplitMix64(spec.seed)

    if spec.placement == "subordinated":
        c_eigs = [beta] + [beta + spread * rng.uniform() for _ in range(spec.n_C - 1)]
    else:
        k_lo = 1 + rng.next_u64() % (spec.n_C - 1)
        k_hi = spec.n_C - k_lo
        c_eigs = [alpha] + [alpha - spread * rng.uniform() for _ in range(k_lo - 1)]
        c_eigs += [beta] + [beta + spread * rng.uniform() for _ in range(k_hi - 1)]

    if spec.placement == "interior":
        lo, hi = alpha + spec.d_target, beta - spec.d_target
        a_eigs = [lo] + [lo + (hi - lo) * rng.uniform() for _ in range(spec.n_A - 1)]
    elif spec.placement == "subordinated":
        hi = beta - spec.d_target
        a_eigs = [hi] + [alpha + (hi - alpha) * rng.uniform() for _ in range(spec.n_A - 1)]
    else:
        lo, hi = alpha - 0.3 * length, beta + 0.3 * length
        a_eigs = []
        for _ in range(spec.n_A):
            while True:
                a = lo + (hi - lo) * rng.uniform()
                if min(abs(a - c) for c in c_eigs) > 1e-6 * length:
                    a_eigs.append(a)
                    break

    # B and the gaussian matrices of the two unitaries are consecutive
    # in the stream, so one block holds all three, in that order
    n_A, n_C = spec.n_A, spec.n_C
    g = rng.complex_normal_matrix(1, n_A * n_C + n_A * n_A + n_C * n_C)[0]
    B = g[: n_A * n_C].reshape(n_A, n_C)
    target = spec.b_ratio * math.sqrt(spec.d_target * length)
    norm = operator_norm(B)
    B = B * (target / norm) if target > 0 else np.zeros_like(B)

    U_A = rephased_q(g[n_A * n_C : n_A * (n_C + n_A)].reshape(n_A, n_A))
    U_C = rephased_q(g[n_A * (n_C + n_A) :].reshape(n_C, n_C))
    A = (U_A * np.array(a_eigs)) @ U_A.conj().T
    C = (U_C * np.array(c_eigs)) @ U_C.conj().T
    return BlockProblem(A=A, B=B, C=C)


def realize(spec) -> tuple[BlockProblem, SpectralGap]:
    """Instance of any sweep spec plus the gap named by spec.gap's midpoint."""
    p = spec.problem()
    alpha, beta = spec.gap
    return p, select_gap(p, (alpha + beta) / 2.0)


# certificate column prefixes, in certify_all's report order
_CERT_PREFIXES = ("existence", "contraction", "tan_theta", "apriori", "tan2theta", "squared")
CSV_COLUMNS = (
    ("seed", "n_A", "n_C", "alpha", "beta", "d", "b", "method", "residual", "x_norm")
    + tuple(f"{prefix}_{cell}" for prefix in _CERT_PREFIXES for cell in ("pass", "margin"))
    + ("status",)
)


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


def sweep(spec_grid: Iterable) -> SweepResult:
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
        alpha, beta = spec.gap
        row = dict.fromkeys(CSV_COLUMNS)
        row.update(seed=spec.seed, alpha=float(alpha), beta=float(beta))
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
