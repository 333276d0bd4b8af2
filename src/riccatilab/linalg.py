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


# n_A * n_C below which a Sylvester solve in C's eigenbasis goes row by row
# (one batched solve over the n_C shifted systems); from here on, one eig(Z).
# The crossover of the full fixed-point step, one BLAS thread (README).
ROW_SOLVE_LIMIT = 512


def _require_apart(z: np.ndarray, c: np.ndarray) -> None:
    """The one overlap rule of the Sylvester kernel: min|z - c| <= TOL_SPEC raises."""
    sep = np.abs(z - c[:, None]).min()
    if sep <= TOL_SPEC:
        raise SpectraOverlap(f"sigma(Z) and sigma(C) are {sep:.3e} apart")


def _bauer_fike_floor(d: float, scale: float, E: np.ndarray) -> float:
    """A lower bound on min|eigvals(A + E) - c|, for Hermitian A and C = U diag(c) U*.

    d = dist(sigma(A), sigma(C)) and scale = ||A|| + ||C||.  Every
    eigenvalue of A + E lies within ||E||_2 <= ||E||_F of sigma(A)
    (Bauer-Fike, with A normal), and so does every eigenvalue eigvals
    returns, up to its backward error and the rounding of sigma(A), sigma(C)
    and A + E, all far inside the FRO_SLACK margin on ||A||, ||C|| and ||E||.
    """
    fro = math.sqrt(np.vdot(E, E).real)
    return d - (1.0 + FRO_SLACK) * fro - FRO_SLACK * scale


def _solve_in_eig_C(Z: np.ndarray, c: np.ndarray, G: np.ndarray, floor: float = -math.inf) -> np.ndarray:
    """Solve Y Z - diag(c) Y = G for Y, raising SpectraOverlap when
    min|sigma(Z) - c| <= TOL_SPEC.

    This is X Z - C X = R in the eigenbasis of C = U diag(c) U*, with
    Y = U* X and G = U* R.  While n_A n_C < ROW_SOLVE_LIMIT, row i is the
    system Y_i (Z - c_i) = G_i, and all n_C of them go in one batched
    solve; eigvals(Z) is skipped when floor, a lower bound on the
    separation that the caller vouches for (_bauer_fike_floor), already
    exceeds TOL_SPEC.  From the limit on, with Z = P diag(z) P^{-1},
    (Y P)_ij (z_j - c_i) = (G P)_ij: one eig(Z) instead of the n_C
    factorizations, but Z must be diagonalizable, since a defective Z
    gives a numerically singular P and a wrong Y without an error.
    """
    n_C, n_A = G.shape
    if n_A * n_C < ROW_SOLVE_LIMIT:
        if not floor > TOL_SPEC:
            _require_apart(np.linalg.eigvals(Z), c)
        shifted = Z.T[None, :, :] - c[:, None, None] * np.eye(n_A)
        return np.linalg.solve(shifted, G[:, :, None])[:, :, 0]
    z, P = np.linalg.eig(Z)
    _require_apart(z, c)
    W = (G @ P) / (z[None, :] - c[:, None])
    return np.linalg.solve(P.T, W.T).T


def solve_sylvester(Z, C, R) -> np.ndarray:
    """Solve X Z - C X = R for X in the eigenbasis of C.

    Z is a general square matrix (here always similar to a Hermitian one),
    C is Hermitian, given as a matrix or as its EigDecomposition
    C = U diag(c) U*.  The unknown Y = U* X solves
    Y Z - diag(c) Y = U* R, which _solve_in_eig_C takes row by row for
    n_A n_C below ROW_SOLVE_LIMIT and by diagonalizing Z from there on;
    X = U Y.  A Z within TOL_SPEC of sigma(C) raises SpectraOverlap.

    Only the diagonalizing path needs Z diagonalizable: there a defective
    Z gives a numerically singular eigenvector matrix and a wrong X
    without an error, so callers that may meet one check the residual of
    X.  Row by row, Z = [[0, 1], [0, 0]], C = diag(-1, 1),
    R = [[1, 0.3], [0.5, 1]] solves to a residual near machine epsilon.
    """
    Z = as_matrix(Z)
    c, U = C if isinstance(C, EigDecomposition) else np.linalg.eigh(require_hermitian(C, "C"))
    R = as_matrix(R)
    n, m = c.shape[0], Z.shape[0]
    if Z.shape[0] != Z.shape[1]:
        raise DimensionMismatch(f"Z must be square, got {Z.shape}")
    if R.shape != (n, m):
        raise DimensionMismatch(f"R must be {n}x{m}, got {R.shape}")
    return U @ _solve_in_eig_C(Z, c, U.conj().T @ R)
