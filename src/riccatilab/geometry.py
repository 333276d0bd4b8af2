"""Graph subspaces, operator angles, and the block diagonalization of H.

The graph of X carries an orthogonal projection Q with closed-form blocks
in terms of (I + X*X)^{-1}; the angle operator between the graph and the
first component subspace has tan Theta = (X*X)^{1/2}.  Conjugating H by
the graph transform splits it into A + BX and C - B*X*, and similarities
by (I + X*X)^{1/2} and (I + XX*)^{1/2} make both halves Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .block import BlockProblem
from .errors import ResidualTooLarge
from .linalg import as_matrix, operator_norm
from .solvers import RiccatiSolution, residual_acceptable


@dataclass(frozen=True)
class GraphProjection:
    Q: np.ndarray  # orthogonal projection onto the graph of X
    X: np.ndarray


@dataclass(frozen=True)
class AngleReport:
    theta_norm: float  # ||Theta||, largest principal angle
    sin_norm: float  # ||sin Theta|| = ||Q - P||
    tan_norm: float  # ||tan Theta|| = ||X||


def graph_projection(X) -> GraphProjection:
    """Orthogonal projection onto { x + Xx : x in the first component }."""
    X = as_matrix(X)
    n, m = X.shape[1], X.shape[0]
    S2 = np.eye(n, dtype=complex) + X.conj().T @ X
    Q11 = np.linalg.inv(S2)
    Q11 = (Q11 + Q11.conj().T) / 2.0
    Q21 = X @ Q11
    Q = np.zeros((n + m, n + m), dtype=complex)
    Q[:n, :n] = Q11
    Q[:n, n:] = Q21.conj().T
    Q[n:, :n] = Q21
    Q[n:, n:] = X @ Q11 @ X.conj().T
    return GraphProjection(Q=(Q + Q.conj().T) / 2.0, X=X)


def operator_angle(proj: GraphProjection) -> AngleReport:
    """Norms of the angle operator between the graph and the first component."""
    X = proj.X
    n = X.shape[1]
    Q11 = proj.Q[:n, :n]
    w = np.linalg.eigvalsh(np.eye(n, dtype=complex) - Q11)
    s2 = float(np.clip(w[-1], 0.0, 1.0))  # ||sin Theta||^2
    P = np.zeros_like(proj.Q)
    P[:n, :n] = np.eye(n)
    return AngleReport(
        theta_norm=math.asin(math.sqrt(s2)),
        sin_norm=operator_norm(proj.Q - P),
        tan_norm=operator_norm(X),
    )


def block_diagonalize(p: BlockProblem, X) -> RiccatiSolution:
    """The "given" RiccatiSolution of X, whose V splits H into Z and Zhat.

    A residual that is not residual_acceptable raises ResidualTooLarge: the
    off-diagonal blocks of V^{-1} H V would not vanish.  The solution also
    carries the Hermitian compressions Lambda and LambdaHat of Z and Zhat.
    """
    sol = RiccatiSolution(p, X, "given")
    if not residual_acceptable(p, sol, sol.residual):
        raise ResidualTooLarge(f"Riccati residual {sol.residual:.3e} too large to diagonalize")
    return sol
