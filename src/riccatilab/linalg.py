"""Dense Hermitian linear algebra kernels.

Everything downstream (block assembly, Riccati solvers, certificates)
validates its matrices and takes its 2-norms here, and the fixed point
solves its Sylvester steps here, so the tolerances are defined once in
this module and imported everywhere else.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, SpectraOverlap

# relative: the Hermiticity test allows a defect of HERM_TOL_FACTOR (1 + ||M||)
HERM_TOL_FACTOR = 1e-10
# absolute distance below which two eigenvalues, or a point and a spectrum, touch
TOL_SPEC = 1e-8
# absolute slack of every certificate verdict and theorem hypothesis
TOL_CERT = 1e-9
# relative rounding slack wherever a Frobenius norm bounds a 2-norm (the
# Hermiticity pre-screen, verify_factorization's brackets, the Bauer-Fike
# floor); far above the O(n eps) error of either norm at any practical size
FRO_SLACK = 1e-8


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


# n_A * n_C below which a Sylvester solve in C's eigenbasis goes row by row
# (one batched solve over the n_C shifted systems); from here on, one eig(Z).
# At or below the crossover of the full fixed-point step, one BLAS thread (README).
ROW_SOLVE_LIMIT = 512


def _require_apart(z: np.ndarray, c: np.ndarray) -> float:
    """The one overlap rule of the Sylvester kernel: min|z - c| <= TOL_SPEC
    raises, and any larger min|z - c| is returned."""
    sep = float(np.abs(z - c[:, None]).min())
    if sep <= TOL_SPEC:
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
    c, of min|z - c| and of this floor.
    """
    return sep - kappa * (1.0 + FRO_SLACK) * _frobenius(E) - kappa * FRO_SLACK * scale


class _OverlapReference(NamedTuple):
    """A matrix Z whose eig decided an overlap test, kept to screen later
    ones by _bauer_fike_floor(sep, kappa, scale, Z' - Z)."""

    Z: np.ndarray
    sep: float  # min|z - c| over the computed eigenvalues z
    kappa: float  # ||P||_F ||P^{-1}||_F for the computed eigenvectors P
    scale: float  # ||Z||_F + ||C||


def _eig_reference(Z: np.ndarray, c: np.ndarray, norm_C: float) -> tuple[float, _OverlapReference | None]:
    """The overlap test of Z against c = sigma(C) taken from eig(Z): its
    separation, raising SpectraOverlap as _require_apart does, and Z as a
    reference for the screens of later tests.

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
        return sep, None
    if not Z.shape[0] * np.finfo(float).eps * kappa <= FRO_SLACK / 64:  # nan and inf fail too
        return sep, None
    return sep, _OverlapReference(Z, sep, kappa, _frobenius(Z) + norm_C)


def _row_systems(c: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """What the row path's systems Y_i (Z - c_i) = G_i share for every Z:
    the stacked shifts c_i I and the rows G_i as columns; None from
    ROW_SOLVE_LIMIT on, where _solve_in_eig_C diagonalizes Z instead."""
    n_C, n_A = G.shape
    if n_A * n_C >= ROW_SOLVE_LIMIT:
        return None
    return c[:, None, None] * np.eye(n_A), G[:, :, None]


def _solve_in_eig_C(
    Z: np.ndarray,
    c: np.ndarray,
    G: np.ndarray,
    floor: float,
    rows: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """Solve Y Z - diag(c) Y = G for Y, raising SpectraOverlap when
    min|sigma(Z) - c| <= TOL_SPEC.

    This is X Z - C X = R in the eigenbasis of C = U diag(c) U*, with
    Y = U* X and G = U* R; rows is _row_systems(c, G), which the caller
    builds once for every Z it solves for, and which picks the path.
    On the row path row i is the system Y_i (Z - c_i) = G_i, and all n_C
    of them go in one batched solve; eigvals(Z) is skipped when floor, a
    lower bound on the separation that the caller vouches for
    (_bauer_fike_floor, or the separation _eig_reference found), already
    exceeds TOL_SPEC.  When rows is None,
    with Z = P diag(z) P^{-1}, (Y P)_ij (z_j - c_i) = (G P)_ij: one eig(Z)
    instead of the n_C factorizations, but Z must be diagonalizable, since
    a defective Z gives a numerically singular P and a wrong Y without an
    error.
    """
    if rows is not None:
        if not floor > TOL_SPEC:
            _require_apart(np.linalg.eigvals(Z), c)
        shifts, rhs = rows
        return np.linalg.solve(Z.T - shifts, rhs)[:, :, 0]
    z, P = np.linalg.eig(Z)
    _require_apart(z, c)
    W = (G @ P) / (z[None, :] - c[:, None])
    return np.linalg.solve(P.T, W.T).T
