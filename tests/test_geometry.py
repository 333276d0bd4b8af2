"""Graph projection, operator angles, and the block diagonalization of H."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccatilab as rl
from riccatilab.errors import ResidualTooLarge
from riccatilab.linalg import operator_norm
from riccatilab.rng import SplitMix64
from riccatilab.solvers import _compression


def random_X(seed, rows, cols, scale=1.0):
    return scale * SplitMix64(seed).complex_normal_matrix(rows, cols)


def projection_oracle(X):
    # orthogonal projection onto the column span of [I; X], computed the
    # pedestrian way: K (K* K)^{-1} K*
    n = X.shape[1]
    K = np.vstack([np.eye(n), X])
    return K @ np.linalg.solve(K.conj().T @ K, K.conj().T)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_graph_projection_matches_oracle(n_A, n_C, seed):
    X = random_X(seed, n_C, n_A, scale=2.0)
    Q = rl.graph_projection(X).Q
    assert operator_norm(Q - projection_oracle(X)) <= 1e-11
    # idempotent, Hermitian, right rank
    assert operator_norm(Q @ Q - Q) <= 1e-12
    assert operator_norm(Q - Q.conj().T) <= 1e-12
    assert round(np.trace(Q).real) == n_A


def test_projection_equals_spectral_projection(battery500):
    # with X from the spectral solve, the graph projection IS the spectral
    # projection of H onto the gap eigenvalues
    for s, p, gap, sol in battery500.items[:30]:
        Q = rl.graph_projection(sol.X).Q
        w, U = np.linalg.eigh(rl.assemble_H(p))
        sel = (w > gap.alpha) & (w < gap.beta)
        E = U[:, sel] @ U[:, sel].conj().T
        assert operator_norm(Q - E) <= 1e-8


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 4.5])
def test_angle_identities_scalar(x):
    report = rl.operator_angle(rl.graph_projection(np.array([[x]])))
    assert report.tan_norm == pytest.approx(x, abs=1e-12)
    assert report.sin_norm == pytest.approx(x / np.hypot(1, x), abs=1e-12)
    assert report.theta_norm == pytest.approx(np.arctan(x), abs=1e-12)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_angle_identities_random(n_A, n_C, seed):
    X = random_X(seed, n_C, n_A, scale=1.5)
    x = operator_norm(X)
    report = rl.operator_angle(rl.graph_projection(X))
    assert abs(report.tan_norm - x) <= 1e-10 * (1 + x)
    assert abs(report.sin_norm - x / np.sqrt(1 + x * x)) <= 1e-10
    assert 0 <= report.theta_norm < np.pi / 2


def test_sin_norm_is_projector_distance():
    # ||sin Theta|| equals the norm distance between the graph projection
    # and the reference projection onto the A component
    X = random_X(99, 3, 2)
    proj = rl.graph_projection(X)
    P = np.zeros((5, 5))
    P[:2, :2] = np.eye(2)
    report = rl.operator_angle(proj)
    assert report.sin_norm == pytest.approx(operator_norm(proj.Q - P), abs=1e-11)


def test_block_diagonalize_example():
    d, b = 1.0, 0.5
    p = rl.example_problem(d, b)
    sol = rl.solve_spectral(p, rl.select_gap(p))
    diag = rl.block_diagonalize(p, sol.X)
    # V = [[I, -X*], [X, I]] conjugates H into blocks
    n = p.n_A + p.n_C
    V = np.block(
        [[np.eye(p.n_A), -sol.X.conj().T], [sol.X, np.eye(p.n_C)]]
    )
    assert operator_norm(diag.V - V) <= 1e-12
    inner = np.linalg.solve(V, rl.assemble_H(p) @ V)
    assert operator_norm(inner[: p.n_A, p.n_A :]) <= 1e-10
    assert operator_norm(inner[p.n_A :, : p.n_A]) <= 1e-10
    # the Hermitian representatives carry the right spectra:
    # sigma(Lambda-hat) = +-sqrt(d^2 + b^2) on this family
    lam_hat = np.linalg.eigvalsh(diag.LambdaHat)
    r = np.hypot(d, b)
    assert np.allclose(np.sort(lam_hat), [-r, r], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(diag.Lambda), [0.0], atol=1e-12)


def test_block_diagonalize_spectra_tile_sigma_H(battery500):
    for s, p, gap, sol in battery500.items[:25]:
        diag = rl.block_diagonalize(p, sol.X)
        together = np.concatenate(
            [np.linalg.eigvalsh(diag.Lambda), np.linalg.eigvalsh(diag.LambdaHat)]
        )
        H_eigs = np.linalg.eigvalsh(rl.assemble_H(p))
        scale = 1 + operator_norm(rl.assemble_H(p))
        assert np.max(np.abs(np.sort(together) - H_eigs)) <= 1e-9 * scale
        # similarity preserves sigma(Z)
        z = np.sort(np.linalg.eigvals(sol.Z).real)
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(diag.Lambda)) - z)) <= 1e-9 * scale
        # and the compressions are the ones the solution's spectra come from
        assert np.array_equal(np.linalg.eigvalsh(diag.Lambda), sol.z_eigs)
        assert np.array_equal(np.linalg.eigvalsh(diag.LambdaHat), sol.zhat_eigs)


def test_block_diagonalize_returns_the_given_solution_with_the_closed_forms(battery500):
    for s, p, gap, sol in battery500.items:
        diag = rl.block_diagonalize(p, sol.X)
        X = sol.X
        assert diag.method == "given" and np.array_equal(diag.X, X)
        Z = p.A + p.B @ X
        Zhat = p.C - p.B.conj().T @ X.conj().T
        U, sigma, Wh = np.linalg.svd(X, full_matrices=False)
        r = np.sqrt(1.0 + sigma * sigma)
        for got, want in (
            (diag.V, np.block([[np.eye(p.n_A), -X.conj().T], [X, np.eye(p.n_C)]])),
            (diag.Z, Z),
            (diag.Zhat, Zhat),
            (diag.Lambda, _compression(Z, Wh.conj().T, r)),
            (diag.LambdaHat, _compression(Zhat, U, r)),
        ):
            assert np.array_equal(got, want)


def test_block_diagonalize_inverse_closed_form():
    d, b = 1.0, 0.5
    p = rl.example_problem(d, b)
    sol = rl.solve_spectral(p, rl.select_gap(p))
    diag = rl.block_diagonalize(p, sol.X)
    n_A = p.n_A
    G = np.linalg.inv(np.eye(n_A) + sol.X.conj().T @ sol.X)
    V_inv_top = np.hstack([G, G @ sol.X.conj().T])
    got_top = np.linalg.inv(diag.V)[:n_A, :]
    assert operator_norm(got_top - V_inv_top) <= 1e-11


def test_block_diagonalize_rejects_non_solutions():
    p = rl.example_problem(1.0, 0.5)
    with pytest.raises(ResidualTooLarge):
        rl.block_diagonalize(p, np.array([[5.0], [5.0]]))


def test_distance_identity_at_gamma_center(battery500):
    # with gamma at the center of sigma(Z)'s hull and all of sigma(C)
    # outside that hull, dist(gamma, sigma(C)) = ||Lambda - gamma|| + delta
    # exactly, hence the resolvent norm identity
    for s, p, gap, sol in battery500.items[:40]:
        z = np.linalg.eigvals(sol.Z).real
        gamma = rl.gamma_center(sol)
        assert gamma == pytest.approx((z.min() + z.max()) / 2, abs=1e-9)
        c = np.linalg.eigvalsh(p.C)
        delta = min(abs(ci - zj) for ci in c for zj in z)
        r = max(abs(z - gamma))
        lhs = 1.0 / np.min(np.abs(c - gamma))  # = ||(C - gamma)^{-1}||
        assert lhs == pytest.approx(1.0 / (r + delta), rel=1e-9)
