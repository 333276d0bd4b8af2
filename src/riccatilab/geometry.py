"""Graph subspaces, operator angles, and the block diagonalization of H.

The graph of X carries an orthogonal projection Q with closed-form blocks
in terms of (I + X*X)^{-1}; the angle operator between the graph and the
first component subspace has tan Theta = (X*X)^{1/2}.  Conjugating H by
the graph transform splits it into A + BX and C - B*X*, and a further
similarity by (I + X*X)^{1/2} makes both halves Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .block import BlockProblem
from .errors import ResidualTooLarge
from .linalg import as_matrix, operator_norm
from .solvers import residual, residual_acceptable


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


def _sqrt_and_inverse(S2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # S2 = I + (positive semidefinite) has eigenvalues >= 1, so no clamping
    w, u = np.linalg.eigh(S2)
    return (u * np.sqrt(w)) @ u.conj().T, (u * (1.0 / np.sqrt(w))) @ u.conj().T


def block_diagonalize(p: BlockProblem, X) -> Diagonalization:
    """Split H by the graph transform of X and symmetrize both halves.

    X must be an accurate solution: a Riccati residual above 1e-6 times
    the natural scale means the off-diagonal blocks of V^{-1} H V would
    not actually vanish, so the operation refuses to pretend.
    """
    X = as_matrix(X)
    res = residual(p, X)
    if not residual_acceptable(p, X, res):
        raise ResidualTooLarge(f"Riccati residual {res:.3e} too large to diagonalize")
    nA, nC = p.n_A, p.n_C
    V = np.zeros((nA + nC, nA + nC), dtype=complex)
    V[:nA, :nA] = np.eye(nA)
    V[:nA, nA:] = -X.conj().T
    V[nA:, :nA] = X
    V[nA:, nA:] = np.eye(nC)
    Z = p.A + p.B @ X
    Zhat = p.C - p.B.conj().T @ X.conj().T
    # S = (I + X*X)^{1/2} symmetrizes Z; T = (I + XX*)^{1/2} symmetrizes Zhat
    S, Sinv = _sqrt_and_inverse(np.eye(nA, dtype=complex) + X.conj().T @ X)
    Lambda = S @ Z @ Sinv
    T, Tinv = _sqrt_and_inverse(np.eye(nC, dtype=complex) + X @ X.conj().T)
    LambdaHat = T @ Zhat @ Tinv
    return Diagonalization(
        V=V,
        Z=Z,
        Zhat=Zhat,
        Lambda=(Lambda + Lambda.conj().T) / 2.0,
        LambdaHat=(LambdaHat + LambdaHat.conj().T) / 2.0,
    )
