"""Three independent routes to the Riccati solution X.

All three target the same equation X A - C X + X B X = B*, whose solution
makes the graph of X the spectral subspace of H for the eigenvalues inside
a gap of C:

* spectral: eigendecompose H and read X = V2 V1^{-1} off the
  eigenvectors V = [V1; V2] of the gap eigenvalues;
* contour: integrate (C-lambda)^{-1} B* (Z-lambda)^{-1} around a circle
  separating sigma(Z) from sigma(C);
* fixed point: iterate the Sylvester map X -> solve(X (A+BX_k) - C X = B*).

Cross-checking them against each other is the point of the package, so
none of them shares intermediate results with another; what they share is
validated problem data, such as the cached eigendecomposition of C.
Each solution takes sigma(Z) and sigma(Zhat) from its own Hermitian
compressions, whichever route produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .block import BlockProblem, SpectralGap, assemble_H, dist_spectra
from .errors import (
    DimensionMismatch,
    IterationDiverged,
    NotAGraph,
    OutsideUniquenessClass,
    QuadratureStall,
    ResidualTooLarge,
    SpectraTooClose,
    WrongSubspaceDimension,
)
from .linalg import _frobenius, _read_only, as_matrix, operator_norm

TOL_QUAD = 1e-12  # relative stop for contour node doubling
TOL_FIX = 1e-12  # relative stop for fixed-point steps
START_NODES = 16  # first quadrature level; nodes double from here
MAX_NODES = 4096
MAX_ITER = 500
DIVERGE_NORM = 1e6
TOL_ACCEPT = 1e-6  # relative residual up to which a solution counts as accurate


@dataclass(frozen=True)
class RiccatiSolution:
    """X for problem p, found by method; its residual, Z, Zhat and V derive from them.

    X is kept as a read-only copy and its residual is computed at once, so a
    misshapen X raises DimensionMismatch and no certificate reads a residual
    X lacks.  Z = A + B X, Zhat = C - B* X* and the graph transform
    V = [[I, -X*], [X, I]] are cached and read-only.

    The graph of X is invariant under H, so Z and Zhat are similar to the
    Hermitian compressions Lambda = S Z S^{-1} and LambdaHat = T Zhat T^{-1},
    S = (I + X*X)^{1/2} and T = (I + XX*)^{1/2} from one thin SVD of X;
    z_eigs and zhat_eigs are their eigvalsh.  This holds only for an accurate
    X (S^2 Z - Z* S^2 = X* R - R* X for the residual R).
    """

    p: BlockProblem = field(repr=False)
    X: np.ndarray
    method: str
    residual: float = field(init=False)

    def __post_init__(self):
        X = _read_only(np.array(self.X, dtype=complex))  # a copy: the caller's array may change
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "residual", residual(self.p, X))

    @cached_property
    def Z(self) -> np.ndarray:
        return _read_only(self.p.A + self.p.B @ self.X)

    @cached_property
    def Zhat(self) -> np.ndarray:
        return _read_only(self.p.C - self.p.B.conj().T @ self.X.conj().T)

    @cached_property
    def V(self) -> np.ndarray:
        return _read_only(np.block([[np.eye(self.p.n_A), -self.X.conj().T], [self.X, np.eye(self.p.n_C)]]))

    @cached_property
    def x_norm(self) -> float:
        return operator_norm(self.X)

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # X = U diag(sigma) W*; S scales W, and T scales U, by r = sqrt(1 + sigma^2)
        U, sigma, Wh = np.linalg.svd(self.X, full_matrices=False)
        return U, np.sqrt(1.0 + sigma * sigma), Wh.conj().T

    @cached_property
    def Lambda(self) -> np.ndarray:
        _, r, W = self._svd
        return _compression(self.Z, W, r)

    @cached_property
    def LambdaHat(self) -> np.ndarray:
        U, r, _ = self._svd
        return _compression(self.Zhat, U, r)

    @cached_property
    def z_eigs(self) -> np.ndarray:
        return _read_only(np.linalg.eigvalsh(self.Lambda))

    @cached_property
    def zhat_eigs(self) -> np.ndarray:
        return _read_only(np.linalg.eigvalsh(self.LambdaHat))


def _compression(M: np.ndarray, V: np.ndarray, r: np.ndarray) -> np.ndarray:
    """S M S^{-1}, symmetrized, for S^{+-1} = I + V diag(r^{+-1} - 1) V*
    with orthonormal columns V; a rank-k update on each side."""
    Vh = V.conj().T
    MSinv = M + ((M @ V) * (1.0 / r - 1.0)) @ Vh
    L = MSinv + V @ ((r - 1.0)[:, None] * (Vh @ MSinv))
    return _read_only((L + L.conj().T) / 2.0)


@dataclass(frozen=True)
class Contour:
    """Circle separating sigma(Z) (inside) from sigma(C) (outside)."""

    center: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")


def residual(p: BlockProblem, X) -> float:
    """Operator norm of X A - C X + X B X - B*."""
    X = as_matrix(X)
    if X.shape != (p.n_C, p.n_A):
        raise DimensionMismatch(f"X must be {p.n_C}x{p.n_A}, got {X.shape}")
    return operator_norm(X @ p.A - p.C @ X + X @ p.B @ X - p.B.conj().T)


def residual_scale(p: BlockProblem, sol: RiccatiSolution) -> float:
    """Natural size of the Riccati residual: (||A||+||B||+||C||)(1+||X||)^2,
    with the solution's cached ||X||."""
    coeff = p.norm_A + p.norm_B + p.norm_C
    return coeff * (1.0 + sol.x_norm) ** 2


def residual_acceptable(p: BlockProblem, sol: RiccatiSolution, res: float) -> bool:
    """True when a residual res of sol is at most TOL_ACCEPT times residual_scale."""
    return res <= TOL_ACCEPT * residual_scale(p, sol)


def solve_spectral(p: BlockProblem, gap: SpectralGap) -> RiccatiSolution:
    """Read X off the spectral projection of H onto the gap eigenvalues.

    Exactly n_A eigenvalues of H must lie in the open gap, each at least
    _spectral_tol away from the finite endpoints.  Eigenvalues hugging an
    endpoint are never counted as inside (the gap is open); they only
    raise WrongSubspaceDimension when the strict-interior count comes out
    wrong, because then their membership would have decided the subspace.
    The projection Q = V V* onto the gap eigenvectors V = [V1; V2] must be
    a graph over the A component (smin(Q11) = smin(V1)^2 above
    _singular_tol), else NotAGraph; then X = Q21 Q11^{-1} = V2 V1^{-1},
    which forms no Q.
    """
    H = assemble_H(p)
    w, U = np.linalg.eigh(H)
    inside = gap.contains(w, linalg._spectral_tol())
    count = int(np.count_nonzero(inside))
    if count != p.n_A:
        for edge in (gap.alpha, gap.beta):
            if np.isfinite(edge) and np.any(np.abs(w - edge) <= linalg._spectral_tol()):
                raise WrongSubspaceDimension(
                    f"{count} eigenvalues strictly inside (need {p.n_A}) and "
                    f"another within tol of the endpoint {edge}"
                )
        raise WrongSubspaceDimension(
            f"gap ({gap.alpha}, {gap.beta}) holds {count} eigenvalues, need {p.n_A}"
        )
    V1, V2 = U[: p.n_A, inside], U[p.n_A :, inside]
    smin = float(np.linalg.svd(V1, compute_uv=False)[-1]) ** 2  # smin(Q11) for Q = V V*
    if smin <= linalg._singular_tol():
        raise NotAGraph(f"projection block is singular (smin={smin:.3e})")
    X = np.linalg.solve(V1.T, V2.T).T
    return RiccatiSolution(p, X, "spectral")


def build_contour(z_spectrum, c_spectrum) -> Contour:
    """Circle centered on sigma(Z)'s hull, radius halfway out to sigma(C).

    center = midpoint of [min z, max z]; radius = half-width of that hull
    plus half the spectral distance, so both separations are strict.
    """
    z = np.asarray(z_spectrum, dtype=float).ravel()
    c = np.asarray(c_spectrum, dtype=float).ravel()
    if z.size == 0 or c.size == 0:
        raise ValueError("both spectra must be nonempty")
    sep = dist_spectra(z, c)
    if sep <= linalg._spectral_tol(2):
        raise SpectraTooClose(f"spectra are only {sep:.3e} apart")
    center = (z.max() + z.min()) / 2.0
    radius = (z.max() - z.min()) / 2.0 + sep / 2.0
    return Contour(center=float(center), radius=float(radius))


def _quad_sum(
    c: np.ndarray, G: np.ndarray, Z: np.ndarray, lams: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_k weights_k U* (C-lam_k)^{-1} B* (Z-lam_k)^{-1}, in C's eigenbasis.

    With C = U diag(c) U* and G = U* B*, row i of the term at lam_k is
    G_i R_k / (c_i - lam_k), where R_k = (Z - lam_k)^{-1} comes from one
    batched solve.  So row i of the sum is G_i T_i with
    T_i = sum_k a_ik R_k and a_ik = weights_k / (c_i - lam_k): one BLAS-3
    contraction over the nodes.  Rows of C are contracted in blocks small
    enough that no block of T exceeds N n_C n_A entries, the size of the
    stacked per-node integrand (a single block unless n_A exceeds the node
    count N).
    """
    nA = Z.shape[0]
    n, nC = lams.size, c.size
    eye = np.eye(nA, dtype=complex)[None, :, :]  # a stack, so solve reads matrices
    R = np.linalg.solve(Z[None, :, :] - lams[:, None, None] * eye, eye).reshape(n, nA * nA)
    a = weights[None, :] / (c[:, None] - lams[None, :])
    block = max(1, min(nC, n * nC // nA))
    out = np.empty((nC, nA), dtype=complex)
    for i in range(0, nC, block):
        rows = slice(i, i + block)
        # one expression, so each block's T is freed before the next is built
        out[rows] = np.matmul(G[rows, None, :], (a[rows] @ R).reshape(-1, nA, nA))[:, 0, :]
    return out


def solve_contour(p: BlockProblem, Z, contour: Contour) -> RiccatiSolution:
    """Trapezoid quadrature of the contour representation of X.

    X = (2 pi i)^{-1} oint (C-lambda)^{-1} B* (Z-lambda)^{-1} d lambda over
    the counterclockwise circle; on N equispaced nodes this collapses to
    an average of integrand samples weighted by (lambda_k - center).

    The integrand is analytic for r_Z < |lambda - center| < r_C, where
    r_Z = max |sigma(Z) - center| and r_C = min |sigma(C) - center|, so on
    the circle of radius r the error of N nodes decays like rho^N with
    rho = max(r_Z / r, r / r_C) (Trefethen & Weideman, SIAM Review 2014).
    Nodes double from START_NODES, and X_2N is accepted once
    ||X_2N - X_N||_F rho^N / (1 - rho^N) <= TOL_QUAD (1 + ||X_2N||_F), with
    rho^(2N) <= TOL_QUAD and at least two doublings made.  A circle that
    does not separate the spectra (rho >= 1) raises SpectraTooClose, and a
    rho too close to 1 for any level up to MAX_NODES raises QuadratureStall,
    both before any node is evaluated; QuadratureStall is also raised when
    the nodes run out.  The sum runs in the eigenbasis of C and is mapped
    back once per doubling.
    """
    Z = as_matrix(Z)
    if Z.shape != (p.n_A, p.n_A):
        raise DimensionMismatch(f"Z must be {p.n_A}x{p.n_A}, got {Z.shape}")
    c, U = p.eig_C
    G = p.Bstar_in_eig_C
    center, r = contour.center, contour.radius
    r_Z = float(np.max(np.abs(np.linalg.eigvals(Z) - center)))
    r_C = float(np.min(np.abs(c - center)))
    rho = max(r_Z / r, r / r_C) if r_C > 0 else math.inf
    if not rho < 1.0:
        raise SpectraTooClose(
            f"contour of radius r={r:.6g} does not separate sigma(Z) (out to "
            f"r_Z={r_Z:.6g} from its center) from sigma(C) (from r_C={r_C:.6g})"
        )
    if rho**MAX_NODES > TOL_QUAD:
        raise QuadratureStall(f"no convergence within {MAX_NODES} nodes")

    def level_sum(n: int, offset: bool) -> np.ndarray:
        # offset picks the midpoints of an existing n-grid, i.e. the new
        # nodes created when n doubles
        k = np.arange(n) + (0.5 if offset else 0.0)
        lams = center + r * np.exp(2j * np.pi * k / n)
        return _quad_sum(c, G, Z, lams, lams - center)

    n = START_NODES
    total = level_sum(n, offset=False)
    X_prev = U @ total / n
    while True:
        if 2 * n > MAX_NODES:
            raise QuadratureStall(f"no convergence within {MAX_NODES} nodes")
        total = total + level_sum(n, offset=True)
        q = rho**n  # rho^N of the level just refined
        n *= 2
        X_new = U @ total / n
        if n >= 4 * START_NODES and rho**n <= TOL_QUAD:
            tol = TOL_QUAD * (1.0 - q) / q if q > 0.0 else math.inf
            if _frobenius(X_new - X_prev) <= tol * (1.0 + _frobenius(X_new)):
                return RiccatiSolution(p, X_new, "contour")
        X_prev = X_new


def _fixedpoint_step(p: BlockProblem, Y: np.ndarray, steps: linalg._SylvesterSteps) -> np.ndarray:
    """The next iterate in C's eigenbasis: Y' (A + (B U) Y) - diag(c) Y' = U* B*."""
    return steps.solve(p.A + p.B_in_eig_C @ Y)


def solve_fixedpoint(p: BlockProblem, gap: SpectralGap) -> RiccatiSolution:
    """Iterate X_{k+1} = Sylvester solve of X (A + B X_k) - C X = B* from X_0 = 0.

    Contracts when ||B|| is small against the gap; no convergence promise
    otherwise.  The iterate lives in C's eigenbasis, C = U diag(c) U*:
    Y_k = U* X_k and Z_k = A + (B U) Y_k, so each step solves
    Y Z_k - diag(c) Y = U* B* with the cached B U and U* B*, and X = U Y
    is formed once, at the stop.  linalg._SylvesterSteps, one per solve,
    picks the row or eig path and raises SpectraOverlap for a Z_k within
    _spectral_tol of sigma(C), screening that test by Bauer-Fike floors.
    Stops on a relative step of TOL_FIX.  Raises IterationDiverged
    past norm 1e6, at a period-2 cycle, or past MAX_ITER steps.  A cycle
    is Y_k within TOL_FIX of Y_{k-2} (relative, as the stop) while the
    step Y_k - Y_{k-1} is not within sqrt(TOL_FIX), tested first: the
    guard keeps oscillating convergers, whose two-step difference falls
    below TOL_FIX a few steps before their step does.  A linearly
    oscillating sequence that passes both tests keeps at least
    1 - sqrt(TOL_FIX) of its error per step, far too much to stop within
    MAX_ITER.  These stop rules are heuristics, decided in the Frobenius
    norm, which U leaves unchanged and which takes no SVD; the residual and
    x_norm of the result stay 2-norms.  A stop at a residual that is not
    residual_acceptable raises ResidualTooLarge, and one at another gap's
    root (uniqueness_class_check) OutsideUniquenessClass.
    """
    steps = linalg._SylvesterSteps(p.A, p.eig_C.values, p.Bstar_in_eig_C, p.d, p.norm_A, p.norm_C)
    Y_back = Y = np.zeros((p.n_C, p.n_A), dtype=complex)  # Y_{k-2} and Y_{k-1} at step k
    for k in range(1, MAX_ITER + 1):
        Y_next = _fixedpoint_step(p, Y, steps)
        step, y_norm = _frobenius(Y_next - Y), _frobenius(Y_next)
        if not y_norm <= DIVERGE_NORM:  # a nan iterate diverged too
            raise IterationDiverged(f"iterate norm exceeded {DIVERGE_NORM:.0e}")
        scale = 1.0 + y_norm
        if step <= TOL_FIX * scale:
            sol = RiccatiSolution(p, p.eig_C.vectors @ Y_next, "fixedpoint")
            if not residual_acceptable(p, sol, sol.residual):
                raise ResidualTooLarge(f"fixed point stopped at residual {sol.residual:.3e}")
            if not uniqueness_class_check(p, sol, gap):
                raise OutsideUniquenessClass(f"not the root of ({gap.alpha}, {gap.beta})")
            return sol
        # the guard first, so a converger's late steps take no two-step norm
        if step > math.sqrt(TOL_FIX) * scale and _frobenius(Y_next - Y_back) <= TOL_FIX * scale:
            raise IterationDiverged(f"period-2 cycle at step {k}")
        Y_back, Y = Y, Y_next
    raise IterationDiverged(f"no convergence within {MAX_ITER} iterations")


def uniqueness_class_check(p: BlockProblem, sol: RiccatiSolution, gap: SpectralGap) -> bool:
    """True when sol is accurate, sigma(A + BX) sits inside the gap and
    sigma(C - B*X*) outside.

    These two spectral locations are what single the solution out among
    all solutions of the equation; the compressions they are read from
    describe them only when the residual is residual_acceptable.  Both
    test gap.contains with a _spectral_tol margin, so endpoint roundoff cannot
    flip the answer.
    """
    if not residual_acceptable(p, sol, sol.residual):
        return False
    z_inside = np.all(gap.contains(sol.z_eigs, linalg._spectral_tol()))
    return bool(z_inside and not np.any(gap.contains(sol.zhat_eigs, linalg._spectral_tol())))
