"""Gap function factorization M = W (lambda - Z) and the spectral enclosure."""

import logging

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.errors import HypothesisViolated, LambdaOnSpectrumOfC
from riccatilab.linalg import TOL_SPEC, operator_norm


def solved_example(d=1.0, b=0.5):
    p = rl.example_problem(d, b)
    gap = rl.select_gap(p)
    return p, gap, rl.solve_spectral(p, gap)


def test_compute_W_closed_form_value():
    # on the sharpness family W(0) = 1 + b^2/d^2, a one-line computation
    # from W = I - B (C - lambda)^{-1} X
    for d, b in [(1.0, 0.5), (2.0, 1.2), (0.5, 0.3)]:
        p, gap, sol = solved_example(d, b)
        W = rl.compute_W(p, sol.X, 0.0)
        assert W.shape == (1, 1)
        assert W[0, 0] == pytest.approx(1 + (b / d) ** 2, rel=1e-12)


def test_factorization_identity_pointwise():
    p, gap, sol = solved_example()
    for lam in (0.3, -0.2 + 0.5j, 1.0 + 2.0j):
        M = rl.herglotz_M(p, lam).M
        W = rl.compute_W(p, sol.X, lam)
        factored = W @ (lam * np.eye(p.n_A) - sol.Z)
        assert operator_norm(M - factored) <= 1e-12 * (1 + operator_norm(M))


def test_factorization_grid_avoids_sigma_C():
    p, gap, sol = solved_example()
    grid = rl.factorization_grid(p, gap)
    assert len(grid) == 50
    c_eigs = np.linalg.eigvalsh(p.C)
    for lam in grid:
        assert np.min(np.abs(c_eigs - lam)) > TOL_SPEC


def test_factorization_grid_count_parameter():
    p, gap, sol = solved_example()
    assert len(rl.factorization_grid(p, gap, count=10)) == 10


def test_verify_factorization_small_defect():
    p, gap, sol = solved_example()
    defect = rl.verify_factorization(p, sol, rl.factorization_grid(p, gap))
    assert defect <= 1e-12


def test_verify_factorization_rejects_grid_on_sigma_C():
    p, gap, sol = solved_example()
    with pytest.raises(LambdaOnSpectrumOfC):
        rl.verify_factorization(p, sol, np.array([1.0 + 0j]))


def test_verify_factorization_empty_grid_has_no_defect():
    p, gap, sol = solved_example()
    assert rl.verify_factorization(p, sol, np.array([], dtype=complex)) == 0.0


def test_verify_factorization_names_first_point_on_sigma_C():
    # sigma(C) = {1, -1}; the clear point 0.3 comes first and must not be named
    p, gap, sol = solved_example()
    with pytest.raises(LambdaOnSpectrumOfC, match=r"grid point \(-1\+1e-10j\) "):
        rl.verify_factorization(p, sol, np.array([0.3, -1.0 + 1e-10j, 1.0]))


def test_enclosure_closed_form():
    # 1x2 family, gap (-d, d), sigma(A) = {0}: both deltas reduce to
    # b tan(arctan(2b/d)/2)
    d, b = 1.0, 0.5
    p, gap, sol = solved_example(d, b)
    enc = rl.enclosure_bounds(p, gap)
    expected = b * np.tan(0.5 * np.arctan2(2 * b, d))
    assert enc.delta_minus == pytest.approx(expected, rel=1e-12)
    assert enc.delta_plus == pytest.approx(expected, rel=1e-12)
    assert enc.lower == pytest.approx(-expected)
    assert enc.upper == pytest.approx(expected)


def test_enclosure_contains_sigma_Z(battery500):
    for s, p, gap, sol in battery500.items[:60]:
        enc = rl.enclosure_bounds(p, gap)
        z = np.linalg.eigvals(sol.Z).real
        assert z.min() >= enc.lower - 1e-9
        assert z.max() <= enc.upper + 1e-9


def test_enclosure_strictly_inside_gap(battery500):
    # delta_minus < inf sigma(A) - alpha and delta_plus < beta - sup sigma(A),
    # strictly, on every instance satisfying the existence hypothesis
    for s, p, gap, sol in battery500.items[:60]:
        a = np.linalg.eigvalsh(p.A)
        enc = rl.enclosure_bounds(p, gap)
        assert enc.delta_minus < a.min() - gap.alpha
        assert enc.delta_plus < gap.beta - a.max()


def test_enclosure_rejects_infinite_gap():
    d, b = 1.0, 0.5
    p = rl.example_problem(d, b)
    with pytest.raises(HypothesisViolated):
        rl.enclosure_bounds(p, rl.SpectralGap(-np.inf, d))


def test_enclosure_rejects_sigma_A_outside_gap():
    p = rl.BlockProblem(np.array([[5.0]]), np.zeros((1, 2)), np.diag([-1.0, 1.0]))
    with pytest.raises(HypothesisViolated):
        rl.enclosure_bounds(p, rl.SpectralGap(-1.0, 1.0))


def test_enclosure_rejects_large_coupling():
    # ||B|| = sqrt(2) d is exactly the existence threshold sqrt(d |gap|)
    p = rl.example_problem(1.0, np.sqrt(2.0))
    with pytest.raises(HypothesisViolated):
        rl.enclosure_bounds(p, rl.select_gap(p))


def test_sign_conditions_on_example():
    p, gap, sol = solved_example()
    enc = rl.enclosure_bounds(p, gap)
    assert rl.sign_conditions(p, gap, enc)


def test_sign_conditions_vacuous_side_logs(caplog):
    # hand the checker an enclosure that swallows the left sampling
    # interval; that side must pass vacuously with a log note
    p, gap, sol = solved_example()
    enc = rl.EnclosureBounds(
        delta_minus=0.0, delta_plus=0.2, lower=gap.alpha, upper=0.3
    )
    with caplog.at_level(logging.INFO, logger="riccatilab.factorization"):
        assert rl.sign_conditions(p, gap, enc)
    assert any("empty" in rec.message for rec in caplog.records)


def test_w_invertible_on_enclosure(battery500):
    for s, p, gap, sol in battery500.items[:40]:
        enc = rl.enclosure_bounds(p, gap)
        for lam in np.linspace(enc.lower, enc.upper, 9):
            W = rl.compute_W(p, sol.X, complex(lam))
            smin = float(np.linalg.svd(W, compute_uv=False)[-1])
            assert smin > TOL_SPEC
