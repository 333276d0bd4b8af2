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
from .solvers import _solution, residual_acceptable


@dataclass(frozen=True)
class GraphProjection:
    Q: np.ndarray  # orthogonal projection onto the graph of X
    X: np.ndarray


@dataclass(frozen=True)
class AngleReport:
    theta_norm: float  # ||Theta||, largest principal angle
    sin_norm: float  # ||sin Theta|| = ||Q - P||
    tan_norm: float  # ||tan Theta|| = ||X||


@dataclass(frozen=True)
class Diagonalization:
    V: np.ndarray  # graph transform [[I, -X*], [X, I]]
    Z: np.ndarray  # A + B X
    Zhat: np.ndarray  # C - B* X*
    Lambda: np.ndarray  # Hermitian, similar to Z
    LambdaHat: np.ndarray  # Hermitian, similar to Zhat


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


def block_diagonalize(p: BlockProblem, X) -> Diagonalization:
    """Split H by the graph transform of X and symmetrize both halves.

    X must be an accurate solution: a Riccati residual above 1e-6 times
    the natural scale means the off-diagonal blocks of V^{-1} H V would
    not actually vanish, so the operation refuses to pretend.  Z, Zhat and
    both compressions are read from the RiccatiSolution of X.
    """
    sol = _solution(p, as_matrix(X), "given")
    if not residual_acceptable(p, sol, sol.residual):
        raise ResidualTooLarge(f"Riccati residual {sol.residual:.3e} too large to diagonalize")
    V = np.block([[np.eye(p.n_A), -sol.X.conj().T], [sol.X, np.eye(p.n_C)]])
    return Diagonalization(V=V, Z=sol.Z, Zhat=sol.Zhat, Lambda=sol.Lambda, LambdaHat=sol.LambdaHat)
