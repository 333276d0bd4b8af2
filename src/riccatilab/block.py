"""Block operator matrices H = [[A, B], [B*, C]] and their gap structure.

A and C are Hermitian, B couples them.  The module knows how to assemble
H, locate the spectral gaps of C, evaluate the gap function
M(lambda) = lambda - A + B (C - lambda)^{-1} B*, and rebuild the resolvent
of H from M alone, which is the identity the solvers and certificates
lean on.  Every resolvent of C is taken in its cached eigenbasis: with
C = U diag(c) U*, (C - lambda)^{-1} = U diag(1/(c - lambda)) U*, so no
point costs a dense n_C x n_C solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatch, HypothesisViolated, LambdaOnSpectrum, LambdaOnSpectrumOfC
from .linalg import (
    EigDecomposition,
    _read_only,
    _sqrt_product,
    as_matrix,
    operator_norm,
    require_hermitian,
)


def _hermitian_norm(w: np.ndarray) -> float:
    """The 2-norm of a Hermitian matrix from its ascending spectrum w:
    the larger of |w[0]| and |w[-1]|, with no SVD."""
    return float(max(w[-1], -w[0]))


@dataclass(frozen=True)
class BlockProblem:
    """Immutable problem data (A, B, C) with shapes (nA,nA), (nA,nC), (nC,nC), nA, nC >= 1.

    sigma(A) (values only, ascending), the eigendecomposition C = U diag(c) U*,
    U*, B* and B in the eigenbasis of C, the operator norms of A, B and C
    (those of A and C read off their spectra) and d = dist(sigma(A),
    sigma(C)) are computed on first use and cached, so every consumer of
    one problem shares them.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = require_hermitian(self.A, "A")
        C = require_hermitian(self.C, "C")
        if A.size == 0 or C.size == 0:
            raise DimensionMismatch(f"A and C must not be empty, got {A.shape} and {C.shape}")
        B = as_matrix(self.B)
        if not np.all(np.isfinite(B)):
            raise ValueError("B has non-finite entries")
        if B.shape != (A.shape[0], C.shape[0]):
            raise DimensionMismatch(
                f"B must be {A.shape[0]}x{C.shape[0]}, got {B.shape}"
            )
        # require_hermitian returned fresh arrays; B may still be the caller's
        object.__setattr__(self, "A", _read_only(A))
        object.__setattr__(self, "B", _read_only(np.array(B)))
        object.__setattr__(self, "C", _read_only(C))

    @cached_property
    def sigma_A(self) -> np.ndarray:
        return _read_only(np.linalg.eigvalsh(self.A))

    @cached_property
    def eig_C(self) -> EigDecomposition:
        # C is exactly Hermitian already (require_hermitian symmetrized it)
        w, v = np.linalg.eigh(self.C)
        return EigDecomposition(values=_read_only(w), vectors=_read_only(v))

    @cached_property
    def Ustar(self) -> np.ndarray:
        """U* for C = U diag(c) U*, read-only, shape (nC, nC): the map into C's eigenbasis."""
        return _read_only(self.eig_C.vectors.conj().T)

    @cached_property
    def Bstar_in_eig_C(self) -> np.ndarray:
        """U* B* for C = U diag(c) U*, read-only, shape (nC, nA)."""
        return _read_only(self.Ustar @ self.B.conj().T)

    @cached_property
    def B_in_eig_C(self) -> np.ndarray:
        """B U = (U* B*)*, read-only, shape (nA, nC)."""
        return _read_only(self.Bstar_in_eig_C.conj().T)

    @cached_property
    def norm_A(self) -> float:
        return _hermitian_norm(self.sigma_A)

    @cached_property
    def norm_B(self) -> float:
        return operator_norm(self.B)

    @cached_property
    def norm_C(self) -> float:
        return _hermitian_norm(self.eig_C.values)

    @cached_property
    def d(self) -> float:
        return dist_spectra(self.sigma_A, self.eig_C.values)

    @property
    def n_A(self) -> int:
        return self.A.shape[0]

    @property
    def n_C(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class SpectralGap:
    """Open interval (alpha, beta) free of sigma(C); rays use infinite endpoints."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"empty gap ({self.alpha}, {self.beta})")

    @property
    def length(self) -> float:
        return self.beta - self.alpha

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.alpha) and math.isfinite(self.beta)

    def contains(self, x, margin: float = 0.0):
        """alpha + margin < x < beta - margin, elementwise on arrays: the one
        gap-membership rule (strict interior tests pass margin linalg._spectral_tol())."""
        return (self.alpha + margin < x) & (x < self.beta - margin)

    @property
    def midpoint(self) -> float:
        if not self.is_finite:
            raise ValueError("infinite gap has no midpoint")
        return (self.alpha + self.beta) / 2.0


def _hypothesis(p: BlockProblem, gap: SpectralGap, span: float) -> tuple[float, bool]:
    """(threshold, holds) of the theorems' one hypothesis on a finite gap; a ray raises.

    threshold = sqrt(max(d span, 0)), span |gap| (existence, enclosure) or
    |gap| - d (contraction, squared shift); holds means sigma(A) is inside
    the gap (margin _spectral_tol) and ||B|| < threshold - _slack_tol(1).
    The root is linalg._sqrt_product's, so d span cannot overflow where
    the threshold fits, and the threshold scales exactly under H -> 2^k H.
    """
    if not gap.is_finite:
        raise HypothesisViolated(f"the theorem needs a finite gap, not ({gap.alpha}, {gap.beta})")
    threshold = float(_sqrt_product(p.d, max(span, 0.0)))
    holds = bool(np.all(gap.contains(p.sigma_A, linalg._spectral_tol())))
    return threshold, holds and p.norm_B < threshold - linalg._slack_tol(1)


def assemble_H(p: BlockProblem) -> np.ndarray:
    """The Hermitian block matrix [[A, B], [B*, C]]."""
    n = p.n_A
    H = np.empty((n + p.n_C, n + p.n_C), dtype=complex)
    H[:n, :n], H[:n, n:] = p.A, p.B
    H[n:, :n], H[n:, n:] = p.B.conj().T, p.C
    return H


def find_gaps(w) -> list[SpectralGap]:
    """All maximal open intervals in the complement of sigma(C).

    w is sigma(C) as a 1-d array in ascending order, as p.eig_C.values
    holds it.  Eigenvalues closer than _spectral_tol are merged into one
    cluster (their mean represents them, from the correctly rounded
    math.fsum, so it is the same on every Python version), so fake
    hairline gaps never appear.  The two infinite rays come first and
    last; the finite gaps tile the convex hull of the spectrum in between.
    """
    w = _spectrum(w)
    reps: list[float] = []
    cluster, tol = [float(w[0])], linalg._spectral_tol()
    for x in w[1:]:
        if float(x) - cluster[-1] <= tol:
            cluster.append(float(x))
        else:
            reps.append(math.fsum(cluster) / len(cluster))
            cluster = [float(x)]
    reps.append(math.fsum(cluster) / len(cluster))
    gaps = [SpectralGap(-math.inf, reps[0])]
    for lo, hi in zip(reps, reps[1:]):
        gaps.append(SpectralGap(lo, hi))
    gaps.append(SpectralGap(reps[-1], math.inf))
    return gaps


def _spectrum(w) -> np.ndarray:
    """w as an array, refused unless it is 1-d: a matrix is not its spectrum."""
    w = np.asarray(w)
    if w.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d array of eigenvalues, got ndim={w.ndim}")
    return w


def dist_spectra(a, c) -> float:
    """min |a_i - c_j| over two nonempty 1-d eigenvalue arrays, real or complex: every
    spectral distance above linalg (p.d, tan-theta delta, contour separation, sigma(H)
    test); the Sylvester steps' overlap test, linalg._require_apart, takes its own."""
    a, c = _spectrum(a), _spectrum(c)
    return float(np.min(np.abs(a[:, None] - c[None, :])))


def select_gap(p: BlockProblem, point: float | None = None) -> SpectralGap:
    """Pick the gap of C containing `point`.

    Without a point, the midpoint of sigma(A)'s hull names the gap, which
    is the natural choice when sigma(A) is expected to sit inside one gap.
    """
    if point is None:
        a = p.sigma_A
        point = float(a[0] + a[-1]) / 2.0
    for gap in find_gaps(p.eig_C.values):
        if gap.contains(point):
            return gap
    raise LambdaOnSpectrumOfC(f"point {point} is not interior to any gap of C")


def _require_off_sigma_C(
    p: BlockProblem, lams: np.ndarray | complex, label: str = "lambda="
) -> None:
    """Raise LambdaOnSpectrumOfC naming the first of lams, a 1-d array or
    one complex point, within _spectral_tol of sigma(C); label prefixes the
    point in the message ("lambda=" for a single evaluation point, "grid
    point " for a grid)."""
    c, tol = p.eig_C.values, linalg._spectral_tol()
    if isinstance(lams, complex):
        first = lams if np.abs(c - lams).min() <= tol else None
    else:
        near = np.flatnonzero(np.min(np.abs(c[None, :] - lams[:, None]), axis=1) <= tol)
        first = complex(lams[near[0]]) if near.size else None
    if first is not None:
        raise LambdaOnSpectrumOfC(f"{label}{first} is within tol of sigma(C)")


POINT_BLOCK_ENTRIES = 1 << 16  # entries of B U scaled per block of points: 1 MiB complex


def _point_blocks(p: BlockProblem, k: int) -> list[slice]:
    """Slices of k points, each block holding at most POINT_BLOCK_ENTRIES
    scaled entries of B U (one point at least); read at call time."""
    step = max(1, POINT_BLOCK_ENTRIES // (p.n_A * p.n_C))
    return [slice(i, i + step) for i in range(0, k, step)]


def _coupled_resolvent(
    p: BlockProblem, lams: np.ndarray | complex, UY: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """B (C - lambda)^{-1} Y for Y given as UY = U* Y: stacked over lams
    when it is a 1-d array (into out when given), one matrix when it is
    one point.

    With C = U diag(c) U*, B (C - lambda)^{-1} U is (U* B*)* with its
    columns scaled by 1/(c - lambda).  The stack is filled a block of
    points at a time (_point_blocks), so the scaled copies never outgrow
    one block.  Each point is its own product, so its value does not
    depend on the other points of the batch, and one point gives the bits
    it gets in any batch.
    """
    c = p.eig_C.values
    if isinstance(lams, complex):
        return (p.B_in_eig_C / (c - lams)) @ UY
    if out is None:
        out = np.empty((lams.size, p.n_A, UY.shape[1]), dtype=complex)
    for rows in _point_blocks(p, lams.size):
        np.matmul(p.B_in_eig_C / (c - lams[rows, None, None]), UY, out=out[rows])
    return out


def herglotz_batch(p: BlockProblem, lams: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """M(lambda) stacked over a 1-d array of lambdas, shape (N, nA, nA),
    into out when given: the one body of the gap function.

    Each block of points builds its coupled term in the output and adds
    lambda - A there, so neither lambda - A nor the scaled rows of B U
    outgrow one block.  No spectrum checks here; callers guarantee the
    points sit in rho(C).
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if out is None:
        out = np.empty((lams.size, p.n_A, p.n_A), dtype=complex)
    eye = np.eye(p.n_A)
    for rows in _point_blocks(p, lams.size):
        M = _coupled_resolvent(p, lams[rows], p.Bstar_in_eig_C, out=out[rows])
        M += lams[rows, None, None] * eye - p.A
    return out


def herglotz_M(p: BlockProblem, lam: complex) -> np.ndarray:
    """The gap function M(lambda) = lambda - A + B (C-lambda)^{-1} B* at one
    point: the one-point herglotz_batch, refused within tol of sigma(C)."""
    lam = complex(lam)
    _require_off_sigma_C(p, lam)
    return herglotz_batch(p, np.array([lam]))[0]


def resolvent_H(p: BlockProblem, lam: complex) -> np.ndarray:
    """(H - lambda)^{-1} rebuilt from M(lambda)^{-1} and resolvents of C.

    The representation inverts only the small nA block M(lambda); the
    resolvent of C comes from its cached eigenbasis.  It is exact wherever
    lambda avoids both spectra: a lambda within _spectral_tol of sigma(C)
    raises LambdaOnSpectrumOfC, and one within _spectral_tol of sigma(H), the
    eigvalsh of the exactly Hermitian assemble_H(p), LambdaOnSpectrum.
    """
    lam = complex(lam)
    M = herglotz_M(p, lam)
    if dist_spectra(np.linalg.eigvalsh(assemble_H(p)), np.array([lam])) <= linalg._spectral_tol():
        raise LambdaOnSpectrum(f"lambda={lam} is within tol of sigma(H)")
    nA, nC = p.n_A, p.n_C
    c, U = p.eig_C
    Cres = (U * (1.0 / (c - lam))) @ p.Ustar
    col = np.vstack([np.eye(nA, dtype=complex), -Cres @ p.B.conj().T])
    row = np.hstack([np.eye(nA, dtype=complex), -p.B @ Cres])
    out = np.zeros((nA + nC, nA + nC), dtype=complex)
    out[nA:, nA:] = Cres
    return out - col @ np.linalg.solve(M, row)

