"""Factorization of the gap function and the spectral enclosure it yields.

Once X solves the Riccati equation and Z = A + B X, the gap function
splits as M(lambda) = W(lambda) (lambda - Z) with
W(lambda) = I - B (C - lambda)^{-1} X, and W stays invertible near the
gap.  That factorization localizes sigma(Z) inside an interval computed
from ||B|| and the gap geometry alone, and forces definite signs on M
outside that interval.  Like M, W is evaluated in the cached eigenbasis
of C = U diag(c) U*: the resolvent acts on U* X as a row scaling by
1/(c - lambda), with no dense n_C x n_C solve per point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .block import (
    BlockProblem,
    SpectralGap,
    _coupled_resolvent,
    _hypothesis,
    _require_off_sigma_C,
    herglotz_batch,
)
from .errors import DimensionMismatch, HypothesisViolated
from .linalg import FRO_SLACK, as_matrix

logger = logging.getLogger(__name__)

GRID_POINTS = 50  # of factorization_grid: half across the gap, half on a circle


@dataclass(frozen=True)
class EnclosureBounds:
    """sigma(A + BX) is confined to [lower, upper] inside the gap."""

    delta_minus: float
    delta_plus: float
    lower: float  # min sigma(A) - delta_minus
    upper: float  # max sigma(A) + delta_plus


def compute_W(p: BlockProblem, X, lam) -> np.ndarray:
    """The factor W(lambda) = I - B (C - lambda)^{-1} X at one point, or
    stacked over a 1-d ndarray of points, each with the bits it gets alone.

    An X that is not n_C x n_A raises DimensionMismatch, and a lambda
    within tol of sigma(C) (an array's first) LambdaOnSpectrumOfC.
    """
    X = as_matrix(X)
    if X.shape != (p.n_C, p.n_A):
        raise DimensionMismatch(f"X must be {p.n_C}x{p.n_A}, got {X.shape}")
    if isinstance(lam, np.ndarray) and lam.ndim == 1:
        lam = lam.astype(complex, copy=False)
    else:
        lam = complex(lam)
    _require_off_sigma_C(p, lam)
    return _w_batch(p, X, lam)


def _w_batch(p: BlockProblem, X: np.ndarray, lams: np.ndarray | complex) -> np.ndarray:
    """W at lams, stacked for a 1-d array, one matrix for one point; no checks."""
    UX = p.eig_C.vectors.conj().T @ X
    return np.eye(p.n_A, dtype=complex) - _coupled_resolvent(p, lams, UX)


def factorization_grid(p: BlockProblem, gap: SpectralGap) -> np.ndarray:
    """Evaluation grid of GRID_POINTS: half real points across the gap, half on a circle.

    The real half spans the gap shrunk by _spectral_tol(8); the circle has radius
    equal to the gap length around its midpoint, dropping any point that
    lands within _spectral_tol(2) of sigma(C).  A ray has neither, and raises
    HypothesisViolated, as the theorems do.
    """
    if not gap.is_finite:
        raise HypothesisViolated(f"the grid needs a finite gap, not ({gap.alpha}, {gap.beta})")
    half = GRID_POINTS // 2
    # inset a few tolerances so the endpoint eigenvalues of C stay clear
    inset = linalg._spectral_tol(8)
    real_pts = np.linspace(gap.alpha + inset, gap.beta - inset, half)
    angles = 2.0 * np.pi * (np.arange(half) + 0.5) / half
    circle = gap.midpoint + gap.length * np.exp(1j * angles)
    c = p.eig_C.values
    keep = circle[np.min(np.abs(c[None, :] - circle[:, None]), axis=1) > linalg._spectral_tol(2)]
    return np.concatenate([real_pts.astype(complex), keep])


def verify_factorization(p: BlockProblem, sol, grid) -> float:
    """Max normalized defect ||M(lam) - W(lam)(lam - Z)|| / (1 + ||M(lam)||) on the grid.

    The defect is a 2-norm.  Frobenius norms bracket each point's ratio
    (||.||_F / sqrt(n_A) <= ||.||_2 <= ||.||_F, widened by FRO_SLACK), and
    the exact 2-norms are taken only at the points whose upper bracket
    reaches the largest lower bracket: the maximizer is always among
    them, so the result is the all-points maximum, bit for bit.  A
    Frobenius norm that overflows sends every point to the 2-norms.
    """
    lams = np.asarray(grid, dtype=complex).ravel()
    _require_off_sigma_C(p, lams, "grid point ")
    if lams.size == 0:
        return 0.0
    M = herglotz_batch(p, lams)
    W = _w_batch(p, sol.X, lams)
    eyeA = np.eye(p.n_A, dtype=complex)
    pencil = lams[:, None, None] * eyeA - sol.Z[None, :, :]
    diff = M - np.matmul(W, pencil)
    if not (np.all(np.isfinite(diff)) and np.all(np.isfinite(M))):
        raise ValueError("matrix has non-finite entries")
    fro_diff, fro_M = (np.sqrt(np.einsum("kij,kij->k", a, a.conj()).real) for a in (diff, M))
    if np.all(np.isfinite(fro_diff)) and np.all(np.isfinite(fro_M)):
        root = math.sqrt(p.n_A)
        lo = fro_diff / root * (1.0 - FRO_SLACK) / (1.0 + fro_M * (1.0 + FRO_SLACK))
        hi = fro_diff * (1.0 + FRO_SLACK) / (1.0 + fro_M / root * (1.0 - FRO_SLACK))
        keep = hi >= np.max(lo)
        diff, M = diff[keep], M[keep]
    ratios = np.linalg.norm(diff, 2, axis=(1, 2)) / (1.0 + np.linalg.norm(M, 2, axis=(1, 2)))
    return float(np.max(ratios))


def enclosure_bounds(p: BlockProblem, gap: SpectralGap) -> EnclosureBounds:
    """Interval around sigma(A) guaranteed to contain sigma(A + BX).

    Requires the existence hypothesis (sigma(A) inside a finite gap and
    ||B|| < sqrt(d |gap|)), else raises HypothesisViolated; the reach
    below sigma(A) is driven by the distance from sigma(A) to the far
    endpoint beta, and symmetrically above.
    """
    threshold, holds = _hypothesis(p, gap, gap.length)
    b = p.norm_B
    if not holds:
        raise HypothesisViolated(f"fails at ||B||={b:.6g}, sqrt(d |gap|)={threshold:.6g}")
    a = p.sigma_A
    delta_minus = b * math.tan(0.5 * math.atan2(2.0 * b, gap.beta - float(a[0])))
    delta_plus = b * math.tan(0.5 * math.atan2(2.0 * b, float(a[-1]) - gap.alpha))
    return EnclosureBounds(
        delta_minus=delta_minus,
        delta_plus=delta_plus,
        lower=float(a[0]) - delta_minus,
        upper=float(a[-1]) + delta_plus,
    )


def sign_conditions(p: BlockProblem, gap: SpectralGap, bounds: EnclosureBounds) -> bool:
    """M(lambda) negative definite left of the enclosure, positive right of it.

    On the real gap M'(lambda) = I + B (C - lambda)^{-2} B* >= I, so M
    increases there: negative definite at a point of (alpha, lower) makes it
    negative definite at every point further left, and positive definite at
    a point of (upper, beta) makes it so further right.  Each side is
    therefore decided at one point, 1/21 of its length away from the
    enclosure (the enclosure can touch sigma(Z), where M is singular), both
    in one batch.  An empty side passes vacuously with a log note, as when
    sigma(A) hugs an endpoint.  A ray raises HypothesisViolated, as the
    enclosure does.
    """
    if not gap.is_finite:
        raise HypothesisViolated(
            f"the sign conditions need a finite gap, not ({gap.alpha}, {gap.beta})"
        )
    lams, signs = [], []
    for lo, hi, t, side, sign in (
        (gap.alpha, bounds.lower, 20.0 / 21.0, "left", -1.0),
        (bounds.upper, gap.beta, 1.0 / 21.0, "right", 1.0),
    ):
        if not (hi - lo > linalg._spectral_tol(4)):
            logger.info("sign interval on the %s side is empty, skipping", side)
            continue
        lams.append(lo + (hi - lo) * t)
        signs.append(sign)
    M = herglotz_batch(p, np.array(lams, dtype=complex))
    w = np.linalg.eigvalsh((M + M.conj().transpose(0, 2, 1)) / 2.0)
    return bool(np.all(np.array(signs)[:, None] * w > 0))
