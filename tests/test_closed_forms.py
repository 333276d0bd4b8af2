"""Closed-form families on which a theorem is attained or breaks down."""

import math

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.errors import WrongSubspaceDimension


def swap_problem(a, d, b):
    """A = diag(-a, a), C = diag(-(a+d), a+d), B = b [[0, 1], [1, 0]].

    Each 2x2 block of H couples +-a to -+(a+d); its inner eigenvalue stays in
    the gap (-(a+d), a+d) iff b^2 < 2 (a+d) d = d |gap|, so the existence
    hypothesis ||B|| < sqrt(d |gap|) is sharp here (b < sqrt(2) d at a = 0).
    """
    return rl.BlockProblem(
        np.diag([-a, a]), b * np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([-(a + d), a + d])
    )


@pytest.mark.parametrize("a, x_norm", [(0.0, 0.70687), (0.5, 0.43272)])
def test_existence_breaks_down_at_the_sharp_threshold(a, x_norm):
    d = 0.3
    threshold = math.sqrt(d * 2 * (a + d))
    p = swap_problem(a, d, 0.999 * threshold)
    gap = rl.select_gap(p)
    assert (gap.alpha, gap.beta) == (-(a + d), a + d)
    sol = rl.solve_spectral(p, gap)
    assert rl.certify_existence(p, gap, sol).passed
    assert sol.x_norm == pytest.approx(x_norm, abs=5e-6)
    p = swap_problem(a, d, 1.001 * threshold)
    with pytest.raises(WrongSubspaceDimension):
        rl.solve_spectral(p, rl.select_gap(p))


@pytest.mark.parametrize("b", [0.01, 0.3, 0.6, 0.9])
def test_one_sided_family_attains_the_enclosure_and_the_apriori_ratio(b):
    # B couples sigma(A) = {0} to the lower end of the gap (-1, 1) only, so
    # sigma(Z) is pushed up to the enclosure's upper end exactly
    p = rl.BlockProblem(np.array([[0.0]]), np.array([[b, 0.0]]), np.diag([-1.0, 1.0]))
    gap = rl.select_gap(p)
    sol = rl.solve_spectral(p, gap)
    upper = rl.enclosure_bounds(p, gap).upper
    assert abs(float(sol.z_eigs[0]) - upper) <= 4 * math.ulp(upper)
    cert = rl.certify_apriori(p, gap, sol)
    s = math.sqrt(1 + 4 * b * b)
    assert cert.margin / cert.bound_value == pytest.approx(2 * (s - 1) / (s + 1), rel=1e-10)
