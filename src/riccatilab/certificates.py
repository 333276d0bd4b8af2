"""Machine-checkable certificates for the subspace perturbation bounds.

Each certifier evaluates one theorem on one concrete instance: it checks
the hypothesis numerically, computes the claimed bound and the observed
quantity, and reports the margin between them.  Failure is data, never an
exception; exceptions are reserved for inputs on which the certified
quantity is not even defined.

Margins are oriented so that nonnegative (up to _slack_tol) means the
theorem held: bound - observed for upper bounds, observed - bound for the
one lower-bound certificate (squared_subordination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .block import BlockProblem, SpectralGap, _hypothesis, dist_spectra
from .errors import (
    DeltaNonpositive,
    HypothesisViolated,
    NotSubordinated,
    RiccatiLabError,
)
from .factorization import enclosure_bounds
from .solvers import RiccatiSolution, residual_acceptable, solve_spectral, uniqueness_class_check


@dataclass(frozen=True)
class Certificate:
    theorem: str
    hypothesis_ok: bool
    bound_value: float
    observed_value: float
    margin: float
    passed: bool
    details: dict = field(default_factory=dict)


def _certificate(
    theorem: str, hyp: bool, bound: float, observed: float, details: dict, power: int, side=(), lower=False
) -> Certificate:
    """The one verdict rule: margin is bound - observed (observed - bound for
    a lower bound) and scales like s**power; the theorem passes when hyp
    holds, margin >= -_slack_tol(power) and every side condition holds."""
    margin = observed - bound if lower else bound - observed
    passed = bool(hyp and margin >= -linalg._slack_tol(power) and all(side))
    return Certificate(theorem, hyp, bound, observed, margin, passed, details)


def _shifted_frame(p: BlockProblem, gap: SpectralGap) -> tuple:
    """The gap-midpoint frame of the theorems under ||B|| < sqrt(d (|gap| - d)).

    Returns (gamma, threshold, hypothesis, A - gamma, C - gamma,
    (A - gamma) B + B (C - gamma), d (|gap| - d) - ||B||^2).
    """
    span = gap.length - p.d
    threshold, hyp = _hypothesis(p, gap, span)
    gamma = gap.midpoint
    b = p.norm_B
    with np.errstate(over="ignore", invalid="ignore"):
        Ash = p.A - gamma * np.eye(p.n_A)
        Csh = p.C - gamma * np.eye(p.n_C)
        Bhat = _finite(Ash @ p.B + p.B @ Csh)
    return gamma, threshold, hyp, Ash, Csh, Bhat, p.d * span - b * b


def _finite(M: np.ndarray) -> np.ndarray:
    """M, or HypothesisViolated when the gap-midpoint frame overflowed into it."""
    if not np.isfinite(M).all():
        raise HypothesisViolated("the gap-midpoint frame overflows double precision")
    return M


def gamma_center(sol: RiccatiSolution) -> float:
    """Midpoint of the hull of sigma(Z) for Z = A + BX."""
    return float(sol.z_eigs[0] + sol.z_eigs[-1]) / 2.0


def certify_existence(
    p: BlockProblem, gap: SpectralGap, sol: RiccatiSolution
) -> Certificate:
    """Existence of the gap solution under ||B|| < sqrt(d |gap|).

    The margin is hypothesis slack; passing additionally demands that the provided
    solution is accurate, that sigma(A+BX) landed inside the gap with sigma(C-B*X*)
    outside, and strictly interior at that.  A ray raises HypothesisViolated.
    """
    threshold, hyp = _hypothesis(p, gap, gap.length)
    b = p.norm_B
    res_ok = residual_acceptable(p, sol)
    uniq = uniqueness_class_check(p, sol, gap)
    proper = bool(np.all(gap.contains(sol.z_eigs, linalg._spectral_tol())))
    return _certificate(
        "existence_1i", hyp, threshold, b,
        {
            "d": p.d,
            "gap_length": gap.length,
            "residual": sol.residual,
            "residual_ok": res_ok,
            "uniqueness_class": uniq,
            "spectrum_interior": proper,
        },
        power=1,
        side=(res_ok, uniq, proper),
    )


def certify_contraction(
    p: BlockProblem, gap: SpectralGap, sol: RiccatiSolution, frame: tuple | None = None
) -> Certificate:
    """Strict contractivity ||X|| < 1 under ||B||^2 < d (|gap| - d).

    The coupling norm ||A'B + BC'|| is evaluated in the frame shifted by
    the gap midpoint, where the bound is sharpest and shift-invariantly
    stated.  A ray, or a frame that overflows, raises HypothesisViolated.
    The bound's atan2 reads the coupling and d (|gap| - d) - ||B||^2 in the
    frame scaled by 2^-e, 2^(e-1) <= |gap| < 2^e, so neither overflows;
    the reported denominator is the unscaled one.  frame is
    _shifted_frame(p, gap), built here when not given.
    """
    gamma, threshold, hyp, _, _, Bhat, denom = _shifted_frame(p, gap) if frame is None else frame
    coupling = linalg.operator_norm(Bhat)
    e = math.frexp(gap.length)[1]
    d, b = math.ldexp(p.d, -e), math.ldexp(p.norm_B, -e)
    scaled_denom = d * (math.ldexp(gap.length, -e) - d) - b * b
    if scaled_denom > 0:
        bound = math.tan(0.5 * math.atan2(2.0 * math.ldexp(coupling, -2 * e), scaled_denom))
    else:
        bound = math.inf
    observed = sol.x_norm
    return _certificate(
        "contraction_1ii", hyp, bound, observed,
        {
            "gamma": gamma,
            "coupling_norm": coupling,
            "denominator": denom,
            "hypothesis_threshold": threshold,
            "b_norm": p.norm_B,
        },
        power=0,
        side=(observed < 1.0,),
    )


def certify_tan_theta(p: BlockProblem, sol: RiccatiSolution) -> Certificate:
    """The sharp bound ||X|| <= ||B|| / dist(sigma(A+BX), sigma(C)).

    Works for any gap, finite or not, as long as sigma(A+BX) stays inside
    a single gap of C.  Raises DeltaNonpositive when the two spectra touch
    and the bound is undefined.
    """
    z = sol.z_eigs
    c = p.eig_C.values
    delta = dist_spectra(z, c)
    if delta <= linalg._spectral_tol():
        raise DeltaNonpositive(f"dist(sigma(Z), sigma(C)) = {delta:.3e}")
    # z is sorted; its hull lies in one gap of C when no eigenvalue of C falls between
    # its ends, which are over _spectral_tol from sigma(C) and so from every find_gaps cluster
    in_one_gap = bool(np.searchsorted(c, z[0]) == np.searchsorted(c, z[-1]))
    res_ok = residual_acceptable(p, sol)
    b = p.norm_B
    return _certificate(
        "tan_theta_2", bool(in_one_gap and res_ok), b / delta, sol.x_norm,
        {"delta": delta, "b_norm": b, "residual": sol.residual}, power=0,
    )


def certify_apriori(
    p: BlockProblem, gap: SpectralGap, sol: RiccatiSolution
) -> Certificate:
    """||X|| <= ||B|| / delta_tilde with delta_tilde from the enclosure alone.

    delta_tilde is how far the enclosure interval stays from the gap
    endpoints, a bound available before any solve.  Raises
    HypothesisViolated (from the enclosure) when the existence hypothesis fails.
    """
    bounds = enclosure_bounds(p, gap)
    a = p.sigma_A
    delta_tilde = min(
        float(a[0]) - gap.alpha - bounds.delta_minus,
        gap.beta - float(a[-1]) - bounds.delta_plus,
    )
    b = p.norm_B
    hyp = delta_tilde > 0
    return _certificate(
        "apriori_bound", hyp, b / delta_tilde if hyp else math.inf, sol.x_norm,
        {
            "delta_tilde": delta_tilde,
            "delta_minus": bounds.delta_minus,
            "delta_plus": bounds.delta_plus,
            "enclosure_lower": bounds.lower,
            "enclosure_upper": bounds.upper,
        },
        power=0,
    )


def certify_tan2theta(p: BlockProblem, sol: RiccatiSolution) -> Certificate:
    """||X|| <= tan(arctan(2||B||/d)/2) when sigma(A) lies strictly below sigma(C).

    No smallness of B is required; X is the solution whose graph is the
    spectral subspace of H below the subordination midpoint mid, which
    splits sigma(H) into n_A eigenvalues below and n_C above.  sol's X is
    certified when uniqueness_class_check on (-inf, mid) says it is that
    solution; otherwise X is the spectral route's on (-inf, mid).
    """
    a = p.sigma_A
    c = p.eig_C.values
    if not float(a[-1]) < float(c[0]) - linalg._spectral_tol():
        raise NotSubordinated(
            f"sup sigma(A) = {a[-1]:.6g} not below inf sigma(C) = {c[0]:.6g}"
        )
    # with sigma(A) below sigma(C), d = p.d is c[0] - a[-1] bit for bit
    d = p.d
    mid = (float(a[-1]) + float(c[0])) / 2.0
    below = SpectralGap(-math.inf, mid)
    if not uniqueness_class_check(p, sol, below):
        sol = solve_spectral(p, below)
    b = p.norm_B
    observed = sol.x_norm
    return _certificate(
        "tan_2theta_dk", True, math.tan(0.5 * math.atan2(2.0 * b, d)), observed,
        {"d": d, "b_norm": b, "split_at": mid, "residual": sol.residual}, power=0,
        side=(observed < 1.0,),
    )


def _squared_subordination(
    p: BlockProblem, gap: SpectralGap, frame: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Certificate]:
    """squared_shift's blocks (A-hat, B-hat, C-hat) and certificate, in the
    given frame (_shifted_frame(p, gap) when None); A-hat and C-hat are
    symmetrized once, (M + M*)/2, as require_hermitian would return them."""
    gamma, threshold, hyp, Ash, Csh, Bhat, floor = _shifted_frame(p, gap) if frame is None else frame
    b = p.norm_B
    if not hyp:
        raise HypothesisViolated(f"fails at ||B||={b:.6g}, sqrt(d(|gap|-d))={threshold:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        Ahat = _finite(Ash @ Ash + p.B @ p.B.conj().T)
        Chat = _finite(Csh @ Csh + p.B.conj().T @ p.B)
    Ahat, Chat = (Ahat + Ahat.conj().T) / 2.0, (Chat + Chat.conj().T) / 2.0
    # values only: nothing reads the eigenvectors of the squared blocks
    ahat, chat = np.linalg.eigvalsh(Ahat), np.linalg.eigvalsh(Chat)
    achieved = dist_spectra(ahat, chat)
    subordinated = bool(float(ahat[-1]) < float(chat[0]))
    top = (gap.length / 2.0 - p.d) ** 2 + b * b
    slack = linalg._slack_tol(2)
    contained = bool(float(ahat[0]) >= -slack and float(ahat[-1]) <= top + slack)
    cert = _certificate(
        "squared_subordination", True, floor, achieved,
        {
            "gamma": gamma,
            "separation_floor": floor,
            "separation_achieved": achieved,
            "subordinated": subordinated,
            "ahat_interval_top": top,
            "ahat_contained": contained,
        },
        power=2,
        side=(subordinated, contained),
        lower=True,
    )
    return Ahat, Bhat, Chat, cert


def squared_shift(p: BlockProblem, gap: SpectralGap) -> tuple[BlockProblem, Certificate]:
    """Square H - gamma at the gap midpoint and certify the induced subordination.

    The shifted square has diagonal blocks (A-gamma)^2 + BB* and
    (C-gamma)^2 + B*B whose spectra separate by at least
    d(|gap|-d) - ||B||^2, with the first block confined to
    [0, (|gap|/2 - d)^2 + ||B||^2].  Both claims are certified; the margin
    is the slack in the separation lower bound.  HypothesisViolated when
    the hypothesis fails or the shifted blocks overflow.  The returned
    problem holds the blocks the certificate read.
    """
    Ahat, Bhat, Chat, cert = _squared_subordination(p, gap)
    return BlockProblem(A=Ahat, B=Bhat, C=Chat), cert


def certify_all(
    p: BlockProblem, gap: SpectralGap, sol: RiccatiSolution
) -> list[tuple[str, Certificate | Exception]]:
    """Every certificate on one solved instance, in report order.

    Each theorem name is paired with its Certificate, or with the
    RiccatiLabError that made the theorem inapplicable to the instance
    (HypothesisViolated, DeltaNonpositive, NotSubordinated); any other
    exception is a fault and propagates.  Each entry is what its public
    certifier returns alone; the gap-midpoint frame is built once, tan
    2-theta solves only when sol is not its root below mid, and the
    squared certificate builds no BlockProblem.
    """
    # the certifiers are looked up by name when called, so rebinding one
    # of these module attributes (as a tracer does) is seen here
    try:
        frame = _shifted_frame(p, gap)
    except RiccatiLabError:
        frame = None  # each framed certifier rebuilds it and raises the same error
    out = []
    for theorem, attempt in (
        ("existence_1i", lambda: certify_existence(p, gap, sol)),
        ("contraction_1ii", lambda: certify_contraction(p, gap, sol, frame=frame)),
        ("tan_theta_2", lambda: certify_tan_theta(p, sol)),
        ("apriori_bound", lambda: certify_apriori(p, gap, sol)),
        ("tan_2theta_dk", lambda: certify_tan2theta(p, sol)),
        ("squared_subordination", lambda: _squared_subordination(p, gap, frame)[-1]),
    ):
        try:
            out.append((theorem, attempt()))
        except RiccatiLabError as err:
            out.append((theorem, err))
    return out
