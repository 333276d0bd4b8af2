"""Dense Hermitian linear algebra kernels.

Everything downstream (block assembly, Riccati solvers, certificates)
funnels through the four operations here, so the scale-aware tolerances
are defined once in this module and imported everywhere else.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, NotPSD, SpectraOverlap

# Relative tolerance factors; absolute tolerances below scale with 1 + ||M||.
HERM_TOL_FACTOR = 1e-10
EIG_TOL_FACTOR = 1e-11
TOL_RES = 1e-9
TOL_SPEC = 1e-8


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
    """Largest singular value; 0.0 for the zero matrix."""
    M = as_matrix(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.norm(M, 2))


def herm_tol(M: np.ndarray) -> float:
    return HERM_TOL_FACTOR * (1.0 + operator_norm(M))


def require_hermitian(M, what: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry within tolerance, return the symmetrized copy.

    Symmetrizing after the check keeps eigh's input exactly Hermitian, so
    results do not depend on which triangle LAPACK happens to read.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{what} has non-finite entries")
    D = M - M.conj().T
    # an exact zero defect passes herm_tol, which is always positive, so
    # neither 2-norm is needed then
    if D.any():
        defect = operator_norm(D)
        if defect > herm_tol(M):
            raise NonHermitianInput(f"{what} deviates from Hermitian by {defect:.3e}")
    return (M + M.conj().T) / 2.0


def hermitian_eig(M) -> EigDecomposition:
    """Full eigendecomposition of a Hermitian matrix, values ascending."""
    Ms = require_hermitian(M)
    w, v = np.linalg.eigh(Ms)
    return EigDecomposition(values=w, vectors=v)


def as_eig(M) -> EigDecomposition:
    """M itself when it already is an EigDecomposition, else hermitian_eig(M).

    Lets spectrum consumers take a problem's cached decomposition in place
    of the matrix, skipping the validation and eigh it already went through.
    """
    return M if isinstance(M, EigDecomposition) else hermitian_eig(M)


def solve_sylvester(Z, C, R) -> np.ndarray:
    """Solve X Z - C X = R for X by double diagonalization.

    Z is a general square matrix (here always similar to a Hermitian one),
    C is Hermitian, given as a matrix or as its EigDecomposition.  Writing
    Z = P diag(z) P^{-1} and C = U diag(c) U*, the transformed unknown
    Y = U* X P satisfies Y_ij (z_j - c_i) = (U* R P)_ij, so the solve is an
    entrywise division in the joint eigenbasis.
    """
    Z = as_matrix(Z)
    c, U = C if isinstance(C, EigDecomposition) else np.linalg.eigh(require_hermitian(C, "C"))
    R = as_matrix(R)
    n, m = c.shape[0], Z.shape[0]
    if Z.shape[0] != Z.shape[1]:
        raise DimensionMismatch(f"Z must be square, got {Z.shape}")
    if R.shape != (n, m):
        raise DimensionMismatch(f"R must be {n}x{m}, got {R.shape}")
    z, P = np.linalg.eig(Z)
    sep = np.min(np.abs(z[None, :] - c[:, None]))
    if sep <= TOL_SPEC:
        raise SpectraOverlap(f"sigma(Z) and sigma(C) are {sep:.3e} apart")
    Y = (U.conj().T @ R @ P) / (z[None, :] - c[:, None])
    # X = U Y P^{-1}, done as a solve on the right factor
    return np.linalg.solve(P.T, (U @ Y).T).T


def sqrt_psd(M) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-tol_eig, 0) are treated as rounded zeros and clamped;
    anything more negative raises NotPSD.
    """
    Ms = require_hermitian(M)
    w, v = np.linalg.eigh(Ms)
    tol = EIG_TOL_FACTOR * (1.0 + (abs(w[0]) if w.size else 0.0) + (abs(w[-1]) if w.size else 0.0))
    if w.size and w[0] < -tol:
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} below -{tol:.3e}")
    root = np.sqrt(np.clip(w, 0.0, None))
    S = (v * root) @ v.conj().T
    return (S + S.conj().T) / 2.0
