"""Dense Hermitian linear algebra kernels, and the tolerance policy.

Everything downstream validates its matrices and takes its 2-norms and
its scale-exact roots (_sqrt_product) here, and the fixed point hands
each Sylvester step to _SylvesterSteps, which alone picks the row or eig
path and screens the overlap test.  Each spectral or certificate test
asks the policy below, as linalg._<units>_tol() when it decides, for the
tolerance of its quantity's units under H -> sH.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, NonHermitianInput, SpectraOverlap

# relative: the Hermiticity test allows a defect of HERM_TOL_FACTOR (1 + ||M||)
HERM_TOL_FACTOR = 1e-10
# absolute; read only by the tolerance policy below
TOL_SPEC = 1e-8
TOL_CERT = 1e-9
# relative rounding slack wherever a Frobenius norm bounds a 2-norm (the
# Hermiticity pre-screen, verify_factorization's brackets, the Bauer-Fike
# floor); far above the O(n eps) error of either norm at any practical size
FRO_SLACK = 1e-8


def _spectral_tol(multiple: int = 1) -> float:
    """multiple times the distance at which two points of the spectral axis touch: units of H."""
    return multiple * TOL_SPEC


def _slack_tol(power: int) -> float:
    """The slack of a verdict whose margin scales like s**power under H -> sH (0, 1 or 2)."""
    return {0: TOL_CERT, 1: TOL_CERT, 2: TOL_CERT}[power]


def _singular_tol() -> float:
    """The floor of the smallest singular value of a dimensionless matrix (projection block, W)."""
    return TOL_SPEC


class EigDecomposition(NamedTuple):
    values: np.ndarray  # real, ascending
    vectors: np.ndarray  # unitary, columns are eigenvectors


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex ndarray without copying when possible."""
    out = np.asarray(M, dtype=complex)
    if out.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={out.ndim}")
    return out


def operator_norm(M) -> float:
    """Largest singular value; 0.0 for the zero and the empty matrix."""
    M = as_matrix(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    s = np.linalg.svd(M, compute_uv=False)  # what norm(M, 2) maximizes, minus its dispatch
    return float(s[0]) if s.size else 0.0


def _read_only(a: np.ndarray) -> np.ndarray:
    """a itself, with writes to it refused from now on."""
    a.flags.writeable = False
    return a


def _frobenius(M: np.ndarray) -> float:
    """||M||_F: inf when it overflows, nan on non-finite entries."""
    return math.sqrt(np.vdot(M, M).real)


def _sqrt_product(x, y):
    """sqrt(x y) of two lengths, elementwise, with x and y first taken in
    units of 2^e, the binary exponent of max(|x|, |y|).  The rescaling is
    exact, so the product does not overflow where the root fits, and the
    root scales exactly with x and y under x, y -> 2^k x, 2^k y.

    The range: the smaller factor must stay at least about 2^-1021 of the
    larger, or the scaled product is subnormal or 0 (_sqrt_product(1e-300,
    1e300) reads 0.0), and the larger below 2^1023, where 2^e overflows."""
    unit = np.ldexp(1.0, np.frexp(np.maximum(np.abs(x), np.abs(y)))[1])
    return np.sqrt((x / unit) * (y / unit)) * unit


def require_hermitian(M, what: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry within tolerance, return the symmetrized copy.

    The test is ||M - M*||_2 <= HERM_TOL_FACTOR (1 + ||M||_2).  An exact
    zero defect passes at once, and so does one that passes with the
    bounds ||M - M*||_F >= ||M - M*||_2 on the left and
    ||M||_F / sqrt(n) <= ||M||_2 on the right, each widened by FRO_SLACK.
    Every other case, and an overflowing Frobenius norm, takes the two
    2-norms, so every verdict is the one they alone give.
    Symmetrizing after the check keeps eigh's input exactly Hermitian, so
    results do not depend on which triangle LAPACK happens to read.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{what} has non-finite entries")
    D = M - M.conj().T
    if D.any():
        fro_D, fro_M = _frobenius(D), _frobenius(M)
        lo_M = fro_M / math.sqrt(M.shape[0]) * (1.0 - FRO_SLACK)
        if not (math.isfinite(fro_M) and fro_D * (1.0 + FRO_SLACK) <= HERM_TOL_FACTOR * (1.0 + lo_M)):
            defect = operator_norm(D)
            if defect > HERM_TOL_FACTOR * (1.0 + operator_norm(M)):
                raise NonHermitianInput(f"{what} deviates from Hermitian by {defect:.3e}")
    return (M + M.conj().T) / 2.0


# n_A * n_C below which a fixed-point solve takes its Sylvester steps row by
# row (one batched solve over the n_C shifted systems); from here on, one
# eig(Z) per step.  At or below the crossover of the full fixed-point step,
# one BLAS thread (README).
ROW_SOLVE_LIMIT = 512


def _require_apart(z: np.ndarray, c: np.ndarray) -> float:
    """The one overlap rule of the Sylvester steps: min|z - c| <= _spectral_tol()
    raises, and any larger min|z - c| is returned."""
    sep = float(np.abs(z - c[:, None]).min())
    if sep <= _spectral_tol():
        raise SpectraOverlap(f"sigma(Z) and sigma(C) are {sep:.3e} apart")
    return sep


def _bauer_fike_floor(sep: float, kappa: float, scale: float, E: np.ndarray) -> float:
    """A lower bound on min|eigvals(Z + E) - c| from a reference Z: sep is
    min|z - c| over Z's eigenvalues z, kappa >= ||P||_2 ||P^{-1}||_2 for
    its eigenvectors P, and scale = ||Z|| + ||C||.

    Bauer-Fike: every eigenvalue of M lies within kappa ||M - D||_2 of z,
    for D = P diag(z) P^{-1}.  Two references exist.  The Hermitian A has
    kappa = 1 and sep = d = dist(sigma(A), sigma(C)), exact up to the eigh
    error of sigma(A), a few eps ||A||.  An iterate Z has the (z, P) of
    eig(Z), which solve Z P - P diag(z) = R with ||R||_F <= k n eps ||Z||
    ||P||_F for a modest k, so Z = D + R P^{-1} exactly, with
    ||R P^{-1}||_2 <= k n eps kappa ||Z|| when kappa is the Frobenius
    ||P||_F ||P^{-1}||_F (which bounds the 2-norm one).  eigvals(Z + E)
    returns the eigenvalues of Z + E + F, ||F|| <= k n eps ||Z + E||.  So
    each returned eigenvalue lies within
    kappa (||E||_F + k n eps (||Z|| + ||E||) + k n eps kappa ||Z||) of z.
    The FRO_SLACK terms, times kappa, cover all but ||E||_F as long as
    k n eps kappa stays far below FRO_SLACK (_eig_reference keeps no
    iterate where it does not), and with ||C|| they cover the rounding of
    c, of min|z - c| and of this floor.  Around A the fixed point passes
    the E of its own iterate Z = fl(A + E), which differs from A + E by at
    most eps ||Z||, a rounding the FRO_SLACK scale term covers too.
    """
    return sep - kappa * (1.0 + FRO_SLACK) * _frobenius(E) - kappa * FRO_SLACK * scale


class _OverlapReference(NamedTuple):
    """A matrix Z whose distance from c = sigma(C) is known, kept to screen
    later overlap tests by _bauer_fike_floor(sep, kappa, scale, Z' - Z)."""

    Z: np.ndarray
    sep: float  # min|z - c| over the eigenvalues z of Z
    kappa: float  # 1 for the Hermitian A, ||P||_F ||P^{-1}||_F for eig's P
    scale: float  # ||Z|| + ||C||


def _eig_reference(Z: np.ndarray, c: np.ndarray, norm_C: float) -> _OverlapReference | None:
    """The overlap test of Z against c taken from eig(Z), raising
    SpectraOverlap as _require_apart does, and Z as a reference for the
    screens of later tests.

    The reference is None when P^{-1} does not exist, when kappa is not
    finite, or when n eps kappa exceeds FRO_SLACK / 64: there the
    decomposition's own error can outgrow the floor's slack.  kappa comes
    from inv(P), which is exact enough here, not from an SVD.
    """
    z, P = np.linalg.eig(Z)
    sep = _require_apart(z, c)
    try:
        kappa = _frobenius(P) * _frobenius(np.linalg.inv(P))
    except np.linalg.LinAlgError:
        return None
    if not Z.shape[0] * np.finfo(float).eps * kappa <= FRO_SLACK / 64:  # nan and inf fail too
        return None
    return _OverlapReference(Z, sep, kappa, _frobenius(Z) + norm_C)


class _SylvesterSteps:
    """The Sylvester steps Y Z - diag(c) Y = G of one fixed-point solve, for
    iterates Z near the Hermitian A, d = dist(sigma(A), c) away from c; each
    raises SpectraOverlap when min|sigma(Z) - c| <= _spectral_tol().

    This is X Z - C X = R in the eigenbasis of C = U diag(c) U*, with
    Y = U* X and G = U* R.  Below ROW_SOLVE_LIMIT row i is the system
    Y_i (Z - c_i) = G_i, all n_C of them in one batched solve with the
    stacked shifts c_i I built once, and a defective Z does no harm.  There
    the overlap test is settled by the first reference whose Bauer-Fike
    floor clears _spectral_tol(): A, or one of the last two Z that took an
    eig.  A Z none of them settles takes eig(Z), which decides the test and
    replaces the older iterate reference (a period-2 cycle alternates
    between two limits).  From the limit on, with Z = P diag(z) P^{-1},
    (Y P)_ij (z_j - c_i) = (G P)_ij: one eig(Z) instead of the n_C
    factorizations, but Z must be diagonalizable, since a defective Z gives
    a numerically singular P and a wrong Y without an error.  That eig is
    taken of Z 2^-e, e the binary exponent of ||A|| + ||C||, and z scaled
    back by 2^e, both exactly: Z 2^-e is the same matrix under H -> 2^k H,
    so Y keeps its bits there, which LAPACK's zgeev on Z itself does for
    even k only.
    """

    def __init__(self, A: np.ndarray, c: np.ndarray, G: np.ndarray, d: float, norm_A: float, norm_C: float) -> None:
        n_C, n_A = G.shape
        self._c, self._G, self._norm_C = c, G, norm_C
        self._e = math.frexp(norm_A + norm_C)[1]  # the eig path's frame
        self._rows = None
        if n_A * n_C < ROW_SOLVE_LIMIT:
            self._rows = c[:, None, None] * np.eye(n_A), G[:, :, None]
        self._A = _OverlapReference(A, d, 1.0, norm_A + norm_C)
        self._refs: deque[_OverlapReference] = deque(maxlen=2)

    def solve(self, Z: np.ndarray, E: np.ndarray) -> np.ndarray:
        """Y for the iterate Z = fl(A + E); the A reference's floor reads E."""
        c = self._c
        if self._rows is None:
            z, P = np.linalg.eig(Z * math.ldexp(1.0, -self._e))
            z = z * math.ldexp(1.0, self._e)
            _require_apart(z, c)
            W = (self._G @ P) / (z[None, :] - c[:, None])
            return np.linalg.solve(P.T, W.T).T
        A, tol = self._A, _spectral_tol()
        if _bauer_fike_floor(A.sep, A.kappa, A.scale, E) <= tol and not any(
            _bauer_fike_floor(r.sep, r.kappa, r.scale, Z - r.Z) > tol for r in self._refs
        ):
            ref = _eig_reference(Z, c, self._norm_C)
            if ref is not None:
                self._refs.append(ref)
        shifts, rhs = self._rows
        # np.linalg.solve's own gufunc (zgesv on each system), without the
        # per-call wrapper: the operands are complex128 stacks of square
        # matrices built here, so its checks and casts would pass them as
        # they are, and every bit is the same.  On an exactly singular
        # system the wrapper raises LinAlgError; the bare gufunc returns
        # that row as nan with a RuntimeWarning, and solve_fixedpoint's
        # norm test turns the nan iterate into IterationDiverged.  The
        # overlap test above refuses every Z within _spectral_tol() of
        # sigma(C) before it gets that far.
        return _umath_linalg.solve(Z.T - shifts, rhs, signature="DD->D")[:, :, 0]
