"""Dense Hermitian linear algebra kernels.

Everything downstream (block assembly, Riccati solvers, certificates)
funnels through the four operations here, so the scale-aware tolerances
are defined once in this module and imported everywhere else.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, SpectraOverlap

# Relative tolerance factors; absolute tolerances below scale with 1 + ||M||.
HERM_TOL_FACTOR = 1e-10
TOL_RES = 1e-9
TOL_SPEC = 1e-8
# absolute slack of every certificate verdict and theorem hypothesis
TOL_CERT = 1e-9
# relative rounding slack on the Frobenius brackets of a computed 2-norm;
# far above the O(n eps) error of either norm at any practical size
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


class _NormBracket:
    """operator_norm(M), bracketed by ||M||_F / sqrt(min(m, n)) <= ||M||_2 <= ||M||_F.

    The exact 2-norm (one SVD) is taken only when a comparison falls
    inside the bracket, so every decision equals the one operator_norm
    would give.  A non-finite Frobenius norm goes straight to
    operator_norm, which raises on non-finite entries as before.
    """

    __slots__ = ("M", "lo", "hi", "exact")

    def __init__(self, M: np.ndarray):
        self.M = M
        self.exact = False
        fro = math.sqrt(np.vdot(M, M).real)  # Frobenius norm
        if math.isfinite(fro):
            self.lo = fro / math.sqrt(min(M.shape)) * (1.0 - FRO_SLACK)
            self.hi = fro * (1.0 + FRO_SLACK)
        else:
            self.settle()

    def settle(self) -> float:
        """The exact operator_norm(M), computed once."""
        if not self.exact:
            self.lo = self.hi = operator_norm(self.M)
            self.exact = True
        return self.hi

    def exceeds(self, bound: float) -> bool:
        """operator_norm(M) > bound."""
        if self.lo > bound:
            return True
        return self.hi > bound and self.settle() > bound


def _step_within(step: _NormBracket, tol: float, ref: _NormBracket) -> bool:
    """operator_norm(step) <= tol * (1 + operator_norm(ref)), as a stop rule.

    Rounding is monotone, so comparing the outer bracket ends settles the
    test whenever they agree; otherwise both norms are taken exactly.
    """
    if step.hi <= tol * (1.0 + ref.lo):
        return True
    if step.lo > tol * (1.0 + ref.hi):
        return False
    return step.settle() <= tol * (1.0 + ref.settle())


def require_hermitian(M, what: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry within tolerance, return the symmetrized copy.

    The test is ||M - M*||_2 <= HERM_TOL_FACTOR (1 + ||M||_2).  Frobenius
    brackets of both norms decide it without an SVD whenever they can (an
    exact zero defect always passes); only an undecided comparison takes
    the 2-norms, so every verdict is the one the 2-norms alone would give.
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
        defect = _NormBracket(D)
        if not _step_within(defect, HERM_TOL_FACTOR, _NormBracket(M)):
            raise NonHermitianInput(f"{what} deviates from Hermitian by {defect.settle():.3e}")
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


class _Rotated(NamedTuple):
    """A right-hand side R of solve_sylvester given as U* R, where
    C = U diag(c) U*; a loop over one C and one R rotates R once."""

    UR: np.ndarray


def solve_sylvester(Z, C, R) -> np.ndarray:
    """Solve X Z - C X = R for X by double diagonalization.

    Z is a general square matrix (here always similar to a Hermitian one),
    C is Hermitian, given as a matrix or as its EigDecomposition.  Writing
    Z = P diag(z) P^{-1} and C = U diag(c) U*, the transformed unknown
    Y = U* X P satisfies Y_ij (z_j - c_i) = (U* R P)_ij, so the solve is an
    entrywise division in the joint eigenbasis.  R may also arrive as
    _Rotated(U* R), which skips that one product.

    Z must be diagonalizable: a defective Z gives a numerically singular P
    and a wrong X without an error (Z = [[0, 1], [0, 0]], C = diag(-1, 1),
    R = [[1, 0.3], [0.5, 1]]: residual 1.66, cond(P) ~ 1e292), so callers
    that may meet one check the residual of X.
    """
    Z = as_matrix(Z)
    c, U = C if isinstance(C, EigDecomposition) else np.linalg.eigh(require_hermitian(C, "C"))
    rotated = isinstance(R, _Rotated)
    R = as_matrix(R.UR if rotated else R)
    n, m = c.shape[0], Z.shape[0]
    if Z.shape[0] != Z.shape[1]:
        raise DimensionMismatch(f"Z must be square, got {Z.shape}")
    if R.shape != (n, m):
        raise DimensionMismatch(f"R must be {n}x{m}, got {R.shape}")
    z, P = np.linalg.eig(Z)
    sep = np.min(np.abs(z[None, :] - c[:, None]))
    if sep <= TOL_SPEC:
        raise SpectraOverlap(f"sigma(Z) and sigma(C) are {sep:.3e} apart")
    UR = R if rotated else U.conj().T @ R
    Y = (UR @ P) / (z[None, :] - c[:, None])
    # X = U Y P^{-1}, done as a solve on the right factor
    return np.linalg.solve(P.T, (U @ Y).T).T

