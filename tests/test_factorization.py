"""Gap function factorization M = W (lambda - Z) and the spectral enclosure."""

import logging

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.block import herglotz_batch
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
        M = rl.herglotz_M(p, lam)
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
    # the grid is fixed: 25 real points across the gap, 25 on the circle
    p, gap, sol = solved_example()
    grid = rl.factorization_grid(p, gap)
    assert len(grid) == 50
    assert np.all(grid[:25].imag == 0) and np.all(gap.contains(grid[:25].real))
    assert np.allclose(np.abs(grid[25:] - gap.midpoint), gap.length)


def test_factorization_grid_refuses_a_ray():
    # a ray has no midpoint and no length to lay the grid on
    p = rl.example_problem(1.0, 0.5)
    with pytest.raises(HypothesisViolated, match="finite gap"):
        rl.factorization_grid(p, rl.select_gap(p, 5.0))


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


def test_w_scan_names_first_point_on_sigma_C():
    # the message is compute_W's for that one point
    from riccatilab.factorization import _w_scan

    p, gap, sol = solved_example()
    with pytest.raises(LambdaOnSpectrumOfC, match=r"^lambda=\(-1\+1e-10j\) is within tol"):
        _w_scan(p, sol.X, np.array([0.3, -1.0 + 1e-10j, 1.0]))
    with pytest.raises(LambdaOnSpectrumOfC, match=r"^lambda=\(-1\+1e-10j\) is within tol"):
        rl.compute_W(p, sol.X, -1.0 + 1e-10j)


def test_w_scan_is_bit_identical_to_compute_W_per_point(battery500):
    from riccatilab.factorization import _w_scan

    for _, p, gap, sol in battery500.items[:30]:
        enc = rl.enclosure_bounds(p, gap)
        lams = np.linspace(enc.lower, enc.upper, 25)
        W = _w_scan(p, sol.X, lams.astype(complex))
        for lam, Wk in zip(lams, W):
            assert np.array_equal(Wk, rl.compute_W(p, sol.X, complex(lam)))


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


def test_sign_conditions_decide_each_side_at_its_point_nearest_the_enclosure(monkeypatch):
    # one batch of two points: the 20th of 20 samples of (alpha, lower) and
    # the 1st of (upper, beta), where M is closest to losing its sign
    p, gap, sol = solved_example()
    enc = rl.enclosure_bounds(p, gap)
    seen = []

    def recording_batch(p, lams):
        seen.append(np.array(lams))
        return herglotz_batch(p, lams)

    monkeypatch.setattr(rl.factorization, "herglotz_batch", recording_batch)
    assert rl.sign_conditions(p, gap, enc)
    assert len(seen) == 1
    expected = [
        gap.alpha + (enc.lower - gap.alpha) * 20.0 / 21.0,
        enc.upper + (gap.beta - enc.upper) * (1.0 / 21.0),
    ]
    np.testing.assert_array_equal(seen[0], np.array(expected, dtype=complex))


def test_sign_conditions_both_sides_empty_pass_vacuously(caplog):
    # an enclosure spanning the whole gap leaves no point on either side
    p, gap, sol = solved_example()
    enc = rl.EnclosureBounds(0.0, 0.0, gap.alpha, gap.beta)
    with caplog.at_level(logging.INFO, logger="riccatilab.factorization"):
        assert rl.sign_conditions(p, gap, enc)
    sides = [rec.message for rec in caplog.records if "empty" in rec.message]
    assert len(sides) == 2
    assert "left" in sides[0] and "right" in sides[1]


def test_sign_conditions_refuse_a_ray():
    # the left side of a ray has no finite point to decide it at
    p = rl.example_problem(1.0, 0.5)
    ray = rl.select_gap(p, 5.0)
    assert not ray.is_finite
    with pytest.raises(HypothesisViolated, match="finite gap"):
        rl.sign_conditions(p, ray, rl.EnclosureBounds(0.0, 0.0, 1.5, 2.0))


def pointwise_sign_conditions(p, gap, bounds):
    """sign_conditions checking the 20 samples of each side one at a time."""
    ok = True
    for lo, hi, side in ((gap.alpha, bounds.lower, "left"), (bounds.upper, gap.beta, "right")):
        if not (hi - lo > 4 * TOL_SPEC):
            continue
        lams = lo + (hi - lo) * (np.arange(20) + 1.0) / 21.0
        for Mk in herglotz_batch(p, lams.astype(complex)):
            w = np.linalg.eigvalsh((Mk + Mk.conj().T) / 2.0)
            if side == "left" and w[-1] >= 0:
                ok = False
            if side == "right" and w[0] <= 0:
                ok = False
    return ok


def test_sign_conditions_equal_the_pointwise_loop(battery500):
    # the enclosure itself, the enclosure collapsed onto its upper end (the
    # left side then samples sigma(Z) and fails), onto its lower end (the
    # right side fails), and one reaching alpha (the left side is empty)
    failed = {"left": 0, "right": 0}
    for _, p, gap, _ in battery500.items[:50]:
        enc = rl.enclosure_bounds(p, gap)
        cases = {
            "true": enc,
            "left": rl.EnclosureBounds(0.0, 0.0, enc.upper, enc.upper),
            "right": rl.EnclosureBounds(0.0, 0.0, enc.lower, enc.lower),
            "empty": rl.EnclosureBounds(0.0, 0.0, gap.alpha, enc.upper),
        }
        for name, bounds in cases.items():
            got = rl.sign_conditions(p, gap, bounds)
            assert got is pointwise_sign_conditions(p, gap, bounds)
            if name in failed:
                failed[name] += not got
            else:
                assert got
    assert failed == {"left": 50, "right": 50}


def test_w_invertible_on_enclosure(battery500):
    for s, p, gap, sol in battery500.items[:40]:
        enc = rl.enclosure_bounds(p, gap)
        for lam in np.linspace(enc.lower, enc.upper, 9):
            W = rl.compute_W(p, sol.X, complex(lam))
            smin = float(np.linalg.svd(W, compute_uv=False)[-1])
            assert smin > TOL_SPEC


def dense_W(p, X, lam):
    """W(lambda) = I - B (C - lambda)^{-1} X through a dense solve."""
    return np.eye(p.n_A) - p.B @ np.linalg.solve(p.C - lam * np.eye(p.n_C), X)


def shift_condition(p, lam):
    c = p.eig_C.values
    return (operator_norm(p.C) + abs(lam)) / float(np.min(np.abs(c - lam)))


def test_compute_W_matches_the_dense_definition(battery500):
    # real points across the gap, complex points, and points within 1e-6 of
    # sigma(C), where both evaluations err by eps times cond(C - lambda)
    for _, p, gap, sol in battery500.items[:30]:
        c = p.eig_C.values
        lams = list(np.linspace(gap.alpha + 1e-3, gap.beta - 1e-3, 7))
        lams += [gap.midpoint + 0.4j, 3.0 - 2.0j, c[0] + 1e-6, c[-1] - 1e-6j]
        for lam in map(complex, lams):
            ref = dense_W(p, sol.X, lam)
            W = rl.compute_W(p, sol.X, lam)
            assert operator_norm(W - ref) <= 1e-12 * shift_condition(p, lam) * operator_norm(ref)


def test_verify_factorization_W_matches_the_dense_definition(monkeypatch, battery500):
    import riccatilab.factorization as factorization

    seen = []
    real_w_batch = factorization._w_batch

    def spy(p, X, lams):
        W = real_w_batch(p, X, lams)
        seen.append((lams, W))
        return W

    monkeypatch.setattr(factorization, "_w_batch", spy)
    for _, p, gap, sol in battery500.items[:30]:
        grid = rl.factorization_grid(p, gap)
        assert rl.verify_factorization(p, sol, grid) <= 1e-12
        lams, W = seen.pop()
        assert np.array_equal(lams, grid)
        for lam, Wk in zip(lams, W):
            ref = dense_W(p, sol.X, lam)
            assert operator_norm(Wk - ref) <= 1e-12 * shift_condition(p, lam) * operator_norm(ref)


def pointwise_grid(p, gap):
    """factorization_grid with the circle filtered one point at a time."""
    inset = 8 * TOL_SPEC
    real_pts = np.linspace(gap.alpha + inset, gap.beta - inset, 25)
    angles = 2.0 * np.pi * (np.arange(25) + 0.5) / 25
    circle = gap.midpoint + gap.length * np.exp(1j * angles)
    c = p.eig_C.values
    keep = [z for z in circle if float(np.min(np.abs(c - z))) > 2 * TOL_SPEC]
    return np.concatenate([real_pts.astype(complex), np.array(keep, dtype=complex)])


def test_factorization_grid_equals_the_pointwise_filter(battery500):
    # the broadcast filter keeps exactly the points the per-point loop kept,
    # in the same order and with the same bits
    cases = [(p, gap) for _, p, gap, _ in battery500.items[:50]]
    # the odd circle count 25 puts one circle point on the real axis at
    # midpoint - length = -2, an eigenvalue of C here, so it is dropped
    on_circle = rl.BlockProblem(np.zeros((1, 1)), np.full((1, 3), 0.1), np.diag([-2.0, -1.0, 1.0]))
    cases.append((on_circle, rl.select_gap(on_circle, 0.0)))
    for p, gap in cases:
        grid = rl.factorization_grid(p, gap)
        ref = pointwise_grid(p, gap)
        assert grid.dtype == ref.dtype and np.array_equal(grid, ref)
    assert len(rl.factorization_grid(on_circle, cases[-1][1])) == 49
