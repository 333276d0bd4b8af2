"""The three solution routes and their failure modes."""

import collections
import json
import math
import tracemalloc

import numpy as np
import pytest

import riccatilab as rl
from riccatilab import linalg, solvers
from riccatilab.block import herglotz_batch
from riccatilab.errors import (
    DimensionMismatch,
    IterationDiverged,
    NotAGraph,
    OutsideUniquenessClass,
    QuadratureStall,
    ResidualTooLarge,
    SpectraOverlap,
    SpectraTooClose,
    WrongSubspaceDimension,
)
from riccatilab.linalg import ROW_SOLVE_LIMIT, TOL_SPEC, operator_norm
from riccatilab.solvers import (
    CYCLE_MARGIN,
    DIVERGE_NORM,
    MAX_ITER,
    MAX_NODES,
    TOL_FIX,
    TOL_QUAD,
    residual_acceptable,
    residual_scale,
)

from cli_golden import PINNED_DIGESTS, battery_fixedpoint_digests
from conftest import MASTER_OVERLAPPING, overlapping_specs, sylvester_in_eig_C, sylvester_steps


@pytest.mark.parametrize("d,b", [(0.5, 0.1), (1.0, 0.5), (2.0, 1.2)])
def test_spectral_reproduces_closed_form(d, b):
    p = rl.example_problem(d, b)
    gap = rl.select_gap(p)
    sol = rl.solve_spectral(p, gap)
    X_exact = rl.exact_example_solution(d, b)
    assert operator_norm(sol.X - X_exact) <= 1e-12 * (1 + operator_norm(X_exact))
    assert sol.x_norm == pytest.approx(b / d, rel=1e-12)
    assert sol.residual <= 1e-12 * residual_scale(p, sol)


def test_spectral_zero_coupling_gives_zero_solution():
    p = rl.example_problem(1.0, 0.0)
    sol = rl.solve_spectral(p, rl.select_gap(p))
    assert operator_norm(sol.X) == 0.0
    assert np.allclose(sol.Z, p.A)
    assert np.allclose(sol.Zhat, p.C)


def test_spectral_counts_gap_eigenvalues():
    # sigma(A) = {5} outside the declared gap: zero eigenvalues inside
    p = rl.BlockProblem(np.array([[5.0]]), np.zeros((1, 2)), np.diag([-1.0, 1.0]))
    with pytest.raises(WrongSubspaceDimension):
        rl.solve_spectral(p, rl.SpectralGap(-0.5, 0.5))


def test_spectral_rejects_eigenvalue_on_gap_endpoint():
    # H has the eigenvalue 0 sitting exactly on the gap edge
    p = rl.BlockProblem(np.array([[0.0]]), np.zeros((1, 2)), np.diag([1.0, -1.0]))
    with pytest.raises(WrongSubspaceDimension):
        rl.solve_spectral(p, rl.SpectralGap(0.0, 1.0))


def test_spectral_detects_non_graph_subspace():
    # the only eigenvalue in the declared interval comes from the C block,
    # so the spectral subspace has no component over the A space
    p = rl.BlockProblem(np.array([[5.0]]), np.zeros((1, 2)), np.diag([-1.0, 1.0]))
    with pytest.raises(NotAGraph):
        rl.solve_spectral(p, rl.SpectralGap(0.5, 1.5))


def test_spectral_x_is_the_projector_formula_on_the_battery(battery500):
    # the spectral route reads X = V2 V1^{-1} off the gap eigenvectors and
    # tests smin(V1)^2; the projector Q = V V* gives the same X as
    # Q21 Q11^{-1}, and smin(Q11) = smin(V1)^2 since Q11 = V1 V1*
    for _, p, gap, sol in battery500.items:
        w, U = np.linalg.eigh(rl.assemble_H(p))
        V = U[:, gap.contains(w, linalg._spectral_tol())]
        Q = V @ V.conj().T
        Q11, Q21 = Q[: p.n_A, : p.n_A], Q[p.n_A :, : p.n_A]
        X_ref = np.linalg.solve(Q11.T, Q21.T).T
        assert operator_norm(sol.X - X_ref) <= 1e-14 * (1 + sol.x_norm)
        smin_Q11 = np.linalg.svd(Q11, compute_uv=False)[-1]
        smin_V1 = np.linalg.svd(V[: p.n_A], compute_uv=False)[-1]
        assert abs(smin_V1**2 - smin_Q11) <= 1e-13 * smin_Q11


def semi_axes(contour):
    """(a, b) of the ellipse of size a + b = s with foci center +- f:
    a - b = f^2 / s, since (a - b)(a + b) = f^2."""
    s, f = contour.size, contour.focus
    return (s + f**2 / s) / 2, (s - f**2 / s) / 2


def test_contour_invariants():
    c = rl.build_contour(np.array([0.0, 0.2]), np.array([-1.0, 1.0]))
    # the foci are the hull's ends, and the ellipse is confocal with it
    assert (c.center, c.focus) == (0.1, 0.1)
    a, b = semi_axes(c)
    assert a > c.focus and b == pytest.approx(np.sqrt(a**2 - c.focus**2), rel=1e-15)
    # sigma(Z) strictly inside, sigma(C) strictly outside
    assert abs(0.2 - c.center) < a
    assert abs(1.0 - c.center) > a
    # a one-point hull gives the circle whose diameter is the separation
    assert rl.build_contour(np.array([0.25]), np.array([-1.0, 1.0])) == rl.Contour(0.25, 0.75)


@pytest.mark.parametrize("size, focus", [(0.0, 0.0), (1.0, 1.0), (1.0, -0.5)])
def test_contour_refuses_a_degenerate_ellipse(size, focus):
    with pytest.raises(ValueError):
        rl.Contour(center=0.0, size=size, focus=focus)


def inside_ellipse(contour, x):
    """(Re x - m)^2 / a^2 + (Im x)^2 / b^2 < 1, elementwise."""
    x = np.asarray(x, dtype=complex)
    a, b = semi_axes(contour)
    return ((x.real - contour.center) / a) ** 2 + (x.imag / b) ** 2 < 1.0


def test_build_contour_encloses_sigma_Z_and_excludes_sigma_C(battery500, battery300):
    for _, p, _, sol in battery500.items + battery300.items:
        contour = rl.build_contour(np.linalg.eigvals(sol.Z).real, p.eig_C.values)
        assert np.all(inside_ellipse(contour, np.linalg.eigvals(sol.Z)))
        assert not np.any(inside_ellipse(contour, p.eig_C.values))


def test_build_contour_refuses_sigma_C_inside_the_hull():
    # no ellipse confocal with the hull [-1, 1] keeps a point of it outside,
    # off its center too, where epsilon is the focus only up to rounding
    for c in (0.0, 0.3, -0.7, 0.999):
        with pytest.raises(SpectraTooClose, match="meets the hull"):
            rl.build_contour(np.array([-1.0, 1.0]), np.array([c]))


def test_build_contour_refuses_an_empty_spectrum():
    with pytest.raises(ValueError) as err:
        rl.build_contour([], [1.0])
    assert str(err.value) == "both spectra must be nonempty"


def test_build_contour_refuses_a_matrix():
    # a matrix's entries are no spectrum, on either side
    for z, c in ((np.eye(2), np.array([3.0])), (np.array([0.0]), np.diag([2.0, 3.0]))):
        with pytest.raises(DimensionMismatch, match="ndim=2"):
            rl.build_contour(z, c)


@pytest.mark.parametrize("d", [1e160, 1e300])
def test_contour_solves_far_from_the_center(d):
    # sigma(C) = {-d, d} about 0: the size of the contour and the sizes of
    # sigma(C) are roots of products of two lengths near d^2, past the
    # float range from d = 1e155 on unless each product is rescaled first
    p = rl.example_problem(d, d / 2)
    ref = rl.solve_spectral(p, rl.select_gap(p))
    sol = rl.solve_contour(p, ref.Z, rl.build_contour(ref.z_eigs, p.eig_C.values))
    assert operator_norm(sol.X - ref.X) <= 1e-15 * (1 + ref.x_norm)


def test_solve_contour_refuses_a_Z_of_the_wrong_shape():
    p = rl.generate(rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5))
    sol = rl.solve_spectral(p, rl.select_gap(p, 0.0))
    contour = rl.build_contour(sol.z_eigs, p.eig_C.values)
    with pytest.raises(DimensionMismatch) as err:
        rl.solve_contour(p, np.eye(2), contour)
    assert str(err.value) == "Z must be 3x3, got (2, 2)"


def test_fixedpoint_gives_up_past_the_norm_bound(monkeypatch):
    p = rl.generate(rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5))
    monkeypatch.setattr(solvers, "DIVERGE_NORM", 0.1)
    with pytest.raises(IterationDiverged) as err:
        rl.solve_fixedpoint(p, rl.select_gap(p, 0.0))
    assert str(err.value) == "iterate norm exceeded 1e-01"


def test_build_contour_rejects_touching_spectra():
    with pytest.raises(SpectraTooClose):
        rl.build_contour(np.array([0.0]), np.array([1e-12]))


def test_contour_agrees_with_spectral():
    p = rl.example_problem(1.0, 0.7)
    gap = rl.select_gap(p)
    ref = rl.solve_spectral(p, gap)
    contour = rl.build_contour(
        np.linalg.eigvals(ref.Z).real, np.linalg.eigvalsh(p.C)
    )
    sol = rl.solve_contour(p, ref.Z, contour)
    assert operator_norm(sol.X - ref.X) <= 1e-12 * (1 + operator_norm(ref.X))
    assert sol.method == "contour"


def ellipse_nodes(contour, nodes):
    """lambda(theta_k) = m + a cos theta_k + i b sin theta_k on nodes equispaced
    angles, and the trapezoid weights lambda'(theta_k) / i of
    (2 pi i)^{-1} oint f d lambda = (1 / nodes) sum f(lambda_k) lambda'(theta_k) / i."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    a, b = semi_axes(contour)
    lams = contour.center + a * np.cos(theta) + 1j * b * np.sin(theta)
    return lams, (-a * np.sin(theta) + 1j * b * np.cos(theta)) / 1j


def direct_trapezoid(p, Z, contour, nodes):
    """One-shot trapezoid sum, written independently of the library loop."""
    n_A = p.n_A
    total = np.zeros((p.n_C, n_A), dtype=complex)
    for lam, weight in zip(*ellipse_nodes(contour, nodes)):
        F = np.linalg.solve(
            p.C - lam * np.eye(p.n_C), p.B.conj().T
        ) @ np.linalg.inv(Z - lam * np.eye(n_A))
        total += F * weight
    return total / nodes


def test_quadrature_error_decays_geometrically():
    p = rl.example_problem(1.0, 0.6)
    gap = rl.select_gap(p)
    ref = rl.solve_spectral(p, gap)
    z = np.linalg.eigvals(ref.Z).real
    c = rl.build_contour(z, np.linalg.eigvalsh(p.C))
    errs = []
    for nodes in (8, 16, 32):
        X = direct_trapezoid(p, ref.Z, c, nodes)
        errs.append(operator_norm(X - ref.X))
    floor = 1e-14 * (1 + operator_norm(ref.X))
    # each doubling must at least halve the error until the floor
    assert errs[1] <= max(0.5 * errs[0], floor)
    assert errs[2] <= max(0.5 * errs[1], floor)


def test_quadrature_stalls_on_hugging_contour():
    # contour passing within 1e-5 of sigma(C): the decay rate per doubling
    # is so close to 1 that the node budget runs out
    p = rl.example_problem(1.0, 0.5)
    gap = rl.select_gap(p)
    ref = rl.solve_spectral(p, gap)
    z0 = float(np.linalg.eigvals(ref.Z).real[0])
    dist_C = np.min(np.abs(np.linalg.eigvalsh(p.C) - z0))
    contour = rl.Contour(center=z0, size=2 * dist_C * (1 - 1e-5))
    with pytest.raises(QuadratureStall):
        rl.solve_contour(p, ref.Z, contour)


def spy_quad_nodes(monkeypatch):
    """Record the node count of every _quad_sum batch."""
    sizes = []
    real = solvers._quad_sum

    def spy(c, G, Z, lams, weights):
        sizes.append(lams.size)
        return real(c, G, Z, lams, weights)

    monkeypatch.setattr(solvers, "_quad_sum", spy)
    return sizes


def test_hugging_contour_stalls_before_any_node(monkeypatch):
    # rho = 1 - 1e-5 leaves rho^MAX_NODES far above TOL_QUAD
    p = rl.example_problem(1.0, 0.5)
    ref = rl.solve_spectral(p, rl.select_gap(p))
    z0 = float(np.linalg.eigvals(ref.Z).real[0])
    dist_C = np.min(np.abs(np.linalg.eigvalsh(p.C) - z0))
    sizes = spy_quad_nodes(monkeypatch)
    with pytest.raises(QuadratureStall, match=f"within {MAX_NODES} nodes"):
        rl.solve_contour(p, ref.Z, rl.Contour(center=z0, size=2 * dist_C * (1 - 1e-5)))
    assert sizes == []


@pytest.mark.parametrize("radius", [1.5, 3.0, 1e300])
def test_contour_around_sigma_C_raises_before_any_node(monkeypatch, radius):
    # sigma(C) = {-1, 1}: a circle of radius > 1 about 0 encloses it as well
    # as sigma(Z), and quadrature on it converges to a wrong X
    p = rl.example_problem(1.0, 0.5)
    ref = rl.solve_spectral(p, rl.select_gap(p))
    sizes = spy_quad_nodes(monkeypatch)
    with pytest.raises(SpectraTooClose, match=r"s=.* s_Z=.* s_C="):
        rl.solve_contour(p, ref.Z, rl.Contour(center=0.0, size=2 * radius))
    assert sizes == []


def test_contour_inside_sigma_Z_raises_before_any_node(monkeypatch):
    p = rl.example_problem(1.0, 0.5)
    ref = rl.solve_spectral(p, rl.select_gap(p))
    z0 = abs(complex(ref.Z[0, 0]))
    assert z0 > 0
    sizes = spy_quad_nodes(monkeypatch)
    with pytest.raises(SpectraTooClose):
        rl.solve_contour(p, ref.Z, rl.Contour(center=0.0, size=2 * (z0 / 2)))
    assert sizes == []


def test_contour_first_test_waits_for_64_nodes_even_when_rho_underflows(monkeypatch):
    # a circle of radius 1e-12 about the one eigenvalue of Z: rho < 1e-11,
    # so rho^32 underflows to 0.0; 32 nodes would already meet the
    # tolerance, yet the first test waits for 64, the least level accepted
    p = rl.example_problem(1.0, 0.5)
    ref = rl.solve_spectral(p, rl.select_gap(p))
    z0 = float(np.linalg.eigvals(ref.Z).real[0])
    assert (1e-12 / np.min(np.abs(p.eig_C.values - z0))) ** 32 == 0.0
    sizes = spy_quad_nodes(monkeypatch)
    sol = rl.solve_contour(p, ref.Z, rl.Contour(center=z0, size=2 * 1e-12))
    assert sizes == [32, 32]
    assert operator_norm(sol.X - ref.X) <= 1e-12 * (1 + ref.x_norm)


def test_contour_waits_for_the_rho_guard_when_levels_agree_exactly(monkeypatch):
    # B = 0 makes every level exactly 0; rho = 0.9 still asks for
    # rho^(2N) <= TOL_QUAD, first met at 2N = 512
    p = rl.BlockProblem(np.zeros((1, 1)), np.zeros((1, 2)), np.diag([-1.0, 1.0]))
    sizes = spy_quad_nodes(monkeypatch)
    sol = rl.solve_contour(p, np.zeros((1, 1)), rl.Contour(center=0.0, size=2 * 0.9))
    assert sizes == [256, 256]
    assert not sol.X.any()


def test_contour_meets_the_tolerance_for_a_defective_Z():
    # a Jordan block Z makes the error constant grow with N; the rho^(2N)
    # guard alone would stop at 128 nodes 7e-12 away, the step test goes on
    n = 4
    p = rl.BlockProblem(np.zeros((n, n)), np.ones((n, 2)), np.diag([-1.0, 1.0]))
    Z = 0.6 * np.eye(n) + np.eye(n, k=1)
    # X Z - C X = B*, solved through its Kronecker form
    K = np.kron(Z.T, np.eye(2)) - np.kron(np.eye(n), p.C)
    want = np.linalg.solve(K, p.B.T.reshape(-1, order="F")).reshape(2, n, order="F")
    sol = rl.solve_contour(p, Z, rl.Contour(center=0.0, size=2 * 0.8))
    assert operator_norm(sol.X - want) <= TOL_QUAD * (1 + operator_norm(want))


def circle_around_hull(z, c):
    """The circle about sigma(Z)'s hull whose radius is the hull's half-width
    plus half the separation from sigma(C)."""
    return rl.Contour(
        center=float((z.max() + z.min()) / 2.0),
        size=2 * float((z.max() - z.min()) / 2.0 + rl.dist_spectra(z, c) / 2.0),
    )


def first_level(rho):
    """Half of the least level 16 2^k >= 64 with rho^level <= TOL_QUAD."""
    n = 64
    while rho**n > TOL_QUAD:
        n *= 2
    return n // 2


def test_a_circle_keeps_its_rate_and_its_message(monkeypatch, battery500):
    # a focus-0 Contour is the circle of radius r = size / 2: rho =
    # max(r_Z / r, r / r_C) with r_Z = max |sigma(Z) - center| and
    # r_C = min |sigma(C) - center| picks the first level, and a circle that
    # fails to separate is named by its sizes, twice r, r_Z and r_C
    sizes = spy_quad_nodes(monkeypatch)
    for _, p, _, sol in battery500.items[:40]:
        z = np.linalg.eigvals(sol.Z)
        circle = circle_around_hull(z.real, p.eig_C.values)
        r_Z = np.max(np.abs(z - circle.center))
        r_C = np.min(np.abs(p.eig_C.values - circle.center))
        sizes.clear()
        alt = rl.solve_contour(p, sol.Z, circle)
        r = circle.size / 2
        assert sizes[0] == first_level(max(r_Z / r, r / r_C))
        assert operator_norm(alt.X - sol.X) <= 1e-11 * (1 + sol.x_norm)
    p = rl.example_problem(1.0, 0.5)
    ref = rl.solve_spectral(p, rl.select_gap(p))
    r_Z = abs(np.linalg.eigvals(ref.Z)[0])
    message = (
        f"contour of size s=3 does not separate sigma(Z) (out to "
        f"size s_Z={2 * r_Z:.6g}) from sigma(C) (from size s_C=2)"
    )
    with pytest.raises(SpectraTooClose) as err:
        rl.solve_contour(p, ref.Z, rl.Contour(center=0.0, size=2 * 1.5))
    assert str(err.value) == message


def test_the_64x192_reference_problem_takes_64_nodes(monkeypatch):
    # the circle about the hull took 256 nodes here
    p = rl.generate(rl.GenSpec(11, 64, 192, (-1.0, 1.0), 0.3, 0.5))
    ref = rl.solve_spectral(p, rl.select_gap(p, 0.0))
    sizes = spy_quad_nodes(monkeypatch)
    sol = rl.solve_contour(p, ref.Z, rl.build_contour(ref.z_eigs, p.eig_C.values))
    assert sizes == [32, 32]
    assert operator_norm(sol.X - ref.X) <= 1e-12 * (1 + ref.x_norm)


def test_the_ellipse_converges_where_the_circle_stalls():
    # among the first 100 overlapping specs, the circle about the hull
    # passes too close to sigma(C) on six, and the ellipse confocal with
    # the hull converges on all six
    stalled = []
    for i, spec in enumerate(overlapping_specs(100, MASTER_OVERLAPPING)):
        p = rl.generate(spec)
        try:
            ref = rl.solve_spectral(p, rl.select_gap(p, (spec.gap[0] + spec.gap[1]) / 2))
        except WrongSubspaceDimension:
            continue
        z = np.linalg.eigvals(ref.Z).real
        try:
            rl.solve_contour(p, ref.Z, circle_around_hull(z, p.eig_C.values))
        except QuadratureStall:
            stalled.append(i)
            sol = rl.solve_contour(p, ref.Z, rl.build_contour(z, p.eig_C.values))
            assert operator_norm(sol.X - ref.X) <= 1e-10 * (1 + ref.x_norm)
    assert stalled == [15, 16, 44, 61, 77, 79]


def contour_kernel(p, Z, contour, nodes):
    """The library's node sum on one fixed grid, mapped back out of C's eigenbasis."""
    lams, weights = ellipse_nodes(contour, nodes)
    c, U = p.eig_C
    return U @ solvers._quad_sum(c, p.Bstar_in_eig_C, Z, lams, weights) / nodes


@pytest.mark.parametrize(
    "problem",
    [
        lambda: rl.example_problem(1.0, 0.7),
        lambda: rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5)),
        lambda: rl.generate(rl.GenSpec(5, 8, 24, (-1.0, 1.0), 0.3, 0.5)),
        # n_A > n_C, and n_A > 16 nodes: rows of C are contracted in blocks
        lambda: rl.generate(rl.GenSpec(7, 40, 12, (-1.0, 1.0), 0.3, 0.5)),
    ],
)
@pytest.mark.parametrize("nodes", [16, 64])
def test_quadrature_kernel_matches_direct_trapezoid(problem, nodes):
    p = problem()
    ref = rl.solve_spectral(p, rl.select_gap(p, 0.0))
    contour = rl.build_contour(np.linalg.eigvals(ref.Z).real, p.eig_C.values)
    got = contour_kernel(p, ref.Z, contour, nodes)
    want = direct_trapezoid(p, ref.Z, contour, nodes)
    assert operator_norm(got - want) <= 1e-13 * operator_norm(want)


def direct_trapezoid_batched(p, Z, contour, nodes):
    """direct_trapezoid with the dense solves of all nodes stacked."""
    lams, weights = ellipse_nodes(contour, nodes)
    shiftC = p.C[None, :, :] - lams[:, None, None] * np.eye(p.n_C)
    Bstar = np.broadcast_to(p.B.conj().T, (nodes, p.n_C, p.n_A))
    shiftZ = Z[None, :, :] - lams[:, None, None] * np.eye(p.n_A)
    F = np.linalg.solve(shiftC, Bstar) @ np.linalg.inv(shiftZ)
    return np.tensordot(weights, F, axes=1) / nodes


def test_accepted_contour_X_is_within_tolerance_of_one_more_doubling(monkeypatch, battery500):
    sizes = spy_quad_nodes(monkeypatch)
    for _, p, _, sol in battery500.items:
        contour = rl.build_contour(np.linalg.eigvals(sol.Z).real, p.eig_C.values)
        sizes.clear()
        alt = rl.solve_contour(p, sol.Z, contour)
        finer = direct_trapezoid_batched(p, sol.Z, contour, 2 * sum(sizes))
        assert operator_norm(alt.X - finer) <= 10 * TOL_QUAD * (1 + alt.x_norm)


def test_gap_function_integrates_to_the_graph_projector(battery500):
    # P = -(2 pi i)^{-1} oint (H - lambda)^{-1}, taken on the ellipse around
    # sigma(Z), is the orthogonal projector onto the graph of X; its blocks
    # need only M^{-1}: P11 = (2 pi i)^{-1} oint M^{-1} = (I + X*X)^{-1} and
    # P21 = -(2 pi i)^{-1} oint (C - lambda)^{-1} B* M^{-1} = X P11
    nodes = 512
    for spec, p, _, sol in battery500.items:
        lams, weights = ellipse_nodes(rl.build_contour(sol.z_eigs, p.eig_C.values), nodes)
        Minv = np.linalg.inv(herglotz_batch(p, lams))
        P11 = np.tensordot(weights, Minv, axes=1) / nodes
        # (C - lambda)^{-1} B* = U diag(1 / (c - lambda)) U* B* in C's eigenbasis
        a = weights[None, :] / (p.eig_C.values[:, None] - lams[None, :])
        P21 = -p.eig_C.vectors @ np.einsum("ik,kij->ij", a, p.Bstar_in_eig_C @ Minv) / nodes
        X = sol.X
        assert operator_norm(P21 @ np.linalg.inv(P11) - X) <= 1e-12, spec
        assert operator_norm(P11 - np.linalg.inv(np.eye(p.n_A) + X.conj().T @ X)) <= 1e-12, spec


@pytest.mark.parametrize("n_A,n_C,nodes", [(16, 48, 64), (64, 96, 16)])
def test_quadrature_batch_memory_is_bounded_by_the_node_stack(n_A, n_C, nodes):
    # at (64, 96, 16) n_A > nodes, so rows of C go in four blocks; one
    # block of all 96 rows would hold 4 nodes n_C n_A entries
    p = rl.generate(rl.GenSpec(11, n_A, n_C, (-1.0, 1.0), 0.3, 0.5))
    ref = rl.solve_spectral(p, rl.select_gap(p, 0.0))
    contour = rl.build_contour(np.linalg.eigvals(ref.Z).real, p.eig_C.values)
    lams, weights = ellipse_nodes(contour, nodes)
    c, G = p.eig_C.values, p.Bstar_in_eig_C
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solvers._quad_sum(c, G, ref.Z, lams, weights)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * nodes * n_C * n_A * 16


def test_fixedpoint_agrees_with_spectral():
    p = rl.example_problem(1.0, 0.4)
    gap = rl.select_gap(p)
    ref = rl.solve_spectral(p, gap)
    sol = rl.solve_fixedpoint(p, gap)
    assert operator_norm(sol.X - ref.X) <= 1e-10 * (1 + operator_norm(ref.X))
    assert sol.method == "fixedpoint"


def test_fixedpoint_reports_divergence():
    # coupling far beyond the existence threshold: every candidate fixed
    # point repels the iteration
    p = rl.BlockProblem(np.array([[0.0]]), np.array([[1.5, 1.0]]), np.diag([1.0, -1.0]))
    with pytest.raises(IterationDiverged):
        rl.solve_fixedpoint(p, rl.SpectralGap(-1.0, 1.0))


def _fro(M):
    return np.linalg.norm(M, "fro")


def _frobenius_rule_fixedpoint(p, cycles=True):
    """The fixed point with every stop, cycle and divergence test taken in
    the Frobenius norm, and the overlap test always taken from eig; with
    cycles=False, the rule without either period-2 cycle stop."""
    c, U = p.eig_C
    Y_back = Y = np.zeros((p.n_C, p.n_A), dtype=complex)
    e = []  # ||Y_j - Y_{j-2}|| since the step last fell within sqrt(TOL_FIX)
    for k in range(1, MAX_ITER + 1):
        Y_next = sylvester_in_eig_C(p.A + p.B_in_eig_C @ Y, c, p.Bstar_in_eig_C)
        step = _fro(Y_next - Y)
        y_norm = _fro(Y_next)
        if y_norm > DIVERGE_NORM:
            raise IterationDiverged(f"iterate norm exceeded {DIVERGE_NORM:.0e}")
        if step <= TOL_FIX * (1.0 + y_norm):
            return U @ Y_next
        if cycles and step <= np.sqrt(TOL_FIX) * (1.0 + y_norm):
            e = []
        elif cycles:
            e.append(_fro(Y_next - Y_back))
            r = max(e[-1] / e[-3], e[-2] / e[-4]) if k >= 6 and len(e) >= 4 else 1.0
            if e[-1] <= TOL_FIX * (1.0 + y_norm) or (r < 1.0 and step > CYCLE_MARGIN * (e[-1] + e[-2]) * r / (1.0 - r)):
                raise IterationDiverged(f"period-2 cycle at step {k}")
        Y_back, Y = Y, Y_next
    raise IterationDiverged(f"no convergence within {MAX_ITER} iterations")


def _outcome(run):
    try:
        return run()
    except IterationDiverged as err:
        return str(err)


def test_fixedpoint_follows_the_frobenius_norm_rule(battery500):
    # the Bauer-Fike screen may only skip eigvals, never move a stop: the
    # iterate sequence, the stopping step and every give-up must match
    cases = [(p, gap) for _, p, gap, _ in battery500.items[:25]]
    cases.append(
        (
            rl.BlockProblem(np.array([[0.0]]), np.array([[1.5, 1.0]]), np.diag([1.0, -1.0])),
            rl.SpectralGap(-1.0, 1.0),
        )
    )
    gave_up = []
    for p, gap in cases:
        expected = _outcome(lambda: _frobenius_rule_fixedpoint(p))
        got = _outcome(lambda: rl.solve_fixedpoint(p, gap).X)
        if isinstance(expected, str):
            gave_up.append(expected)
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected)
    assert len(gave_up) >= 2
    # item 18 cycles; the cycle stop, too, is decided in the Frobenius norm
    assert any(msg.startswith("period-2 cycle at step ") for msg in gave_up)


def test_battery_fixed_points_are_pinned_by_digest(battery500):
    # two SHA-256 digests over the 500 battery instances in index order:
    # the converged X bytes with each give-up as its error class only, and
    # the give-ups' messages; a failure names the one that moved
    pinned = json.loads(PINNED_DIGESTS.read_text())
    digests = battery_fixedpoint_digests(battery500.items)
    assert [name for name, digest in digests.items() if pinned[name] != digest] == []


def _gave_up(run):
    """X from run, or its refusal as f"{type}: {message}" without the step."""
    try:
        return run()
    except rl.RiccatiLabError as err:
        return f"{type(err).__name__}: {err}".split(" at step ")[0]


def test_fixedpoint_stops_cycles_and_keeps_every_convergence(battery500, battery200_subordinated, overlapping100):
    # the battery splits 474 converged / 24 period-2 cycles / 2 give-ups
    # at the step limit.  On it, the 200 subordinated and the 100
    # overlapping instances, the rule without the cycle stops converges
    # wherever the solve does, to the same X bit for bit, and where it
    # converges and the solve does not, the solve refused its X as
    # another gap's root: no cycle stop ends a converger
    cycle = "IterationDiverged: period-2 cycle"
    at_limit = f"IterationDiverged: no convergence within {MAX_ITER} iterations"
    subordinated = [(p, rl.select_gap(p, (s.gap[0] + s.gap[1]) / 2)) for s, p in battery200_subordinated.items]
    counts = []
    for items in (
        [(p, gap) for _, p, gap, _ in battery500.items],
        subordinated + [(p, gap) for _, p, gap, _ in overlapping100.items],
    ):
        moved = collections.Counter()
        for p, gap in items:
            got = _gave_up(lambda: rl.solve_fixedpoint(p, gap).X)
            free = _gave_up(lambda: _frobenius_rule_fixedpoint(p, cycles=False))
            if not isinstance(got, str):
                assert not isinstance(free, str) and np.array_equal(got, free)
            elif isinstance(free, str):
                assert got in (free, cycle) and free.startswith("IterationDiverged: ")
                moved[got, free] += 1
            else:
                assert got.startswith("OutsideUniquenessClass: ")
                moved["refused", "X"] += 1
        counts.append(moved)
    assert (500 - sum(counts[0].values()), counts[0][cycle, at_limit], counts[0][at_limit, at_limit]) == (474, 24, 2)
    assert dict(counts[1]) == {(cycle, at_limit): 49, (at_limit, at_limit): 18, ("refused", "X"): 38}


def test_fixedpoint_cycle_stop_spares_an_oscillating_converger(battery500):
    # item 0 oscillates as it converges: at some step Y_k is already within
    # TOL_FIX of Y_{k-2} while the step is not yet within TOL_FIX, so only
    # the sqrt(TOL_FIX) step guard keeps it from counting as a cycle
    p = battery500.items[0][1]
    Y = _fixedpoint_steps(p, MAX_ITER)
    near_cycle = []
    for k in range(2, MAX_ITER + 1):
        scale = 1.0 + _fro(Y[k])
        step = _fro(Y[k] - Y[k - 1])
        if step <= TOL_FIX * scale:
            break
        if _fro(Y[k] - Y[k - 2]) <= TOL_FIX * scale:
            near_cycle.append(step / scale)
    assert near_cycle and max(near_cycle) < np.sqrt(TOL_FIX)
    assert np.array_equal(rl.solve_fixedpoint(p, battery500.items[0][2]).X, p.eig_C.vectors @ Y[k])


@pytest.mark.parametrize("q, count", [(0.5, 41), (0.8, 127), (0.9, 269), (0.93, 391)])
def test_fixedpoint_cycle_stop_spares_a_slow_oscillating_converger(q, count, monkeypatch):
    # A = [0], C = [1], B = [x / (x^2 - 1)] with x = -sqrt(q): each step is
    # y -> b / (b y - 1), whose derivative at its root x is -x^2 = -q, so
    # the iterates oscillate into x at rate -q.  The two-step norms shrink
    # by r = q^2, and the step is about (e_k + e_{k-1}) r / (1 - r), the
    # distance they say is left (exactly that for Y* + (-q)^k V), far
    # inside CYCLE_MARGIN of it, so the solve converges where the rule
    # without cycle stops does
    x = -math.sqrt(q)
    p = rl.BlockProblem(np.array([[0.0]]), np.array([[x / (x * x - 1.0)]]), np.array([[1.0]]))
    steps, real_step = [], solvers._fixedpoint_step
    monkeypatch.setattr(solvers, "_fixedpoint_step", lambda *a: steps.append(1) or real_step(*a))
    X = rl.solve_fixedpoint(p, rl.select_gap(p)).X
    assert len(steps) == count
    assert np.array_equal(X, _frobenius_rule_fixedpoint(p, cycles=False))
    assert abs(X[0, 0] - x) <= 1e-10


def test_fixedpoint_takes_svds_only_for_the_norms_of_its_result(battery500, monkeypatch):
    # the stop rules take no SVD: a give-up takes none, and a converged
    # solve only its residual, x_norm and the compressions' thin SVD
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
    counts = {True: [], False: []}  # SVDs per solve, by whether it gave up
    for _, p, gap, _ in battery500.items:
        p.norm_A, p.norm_B, p.norm_C  # cached problem data, read once per problem
        calls.clear()
        gave_up = isinstance(_outcome(lambda: rl.solve_fixedpoint(p, gap)), str)
        counts[gave_up].append(len(calls))
    assert (len(counts[False]), len(counts[True])) == (474, 26)
    assert max(counts[True]) == 0 and max(counts[False]) <= 3


def test_fixedpoint_rejects_a_converged_non_solution(monkeypatch):
    # a Sylvester solve off by a fixed offset makes the iteration settle on
    # a matrix that does not solve the equation; the step test alone
    # would return it
    p = rl.example_problem(1.0, 0.4)
    real_solve = linalg._SylvesterSteps.solve
    monkeypatch.setattr(linalg._SylvesterSteps, "solve", lambda *args: real_solve(*args) + 0.1)
    with pytest.raises(ResidualTooLarge):
        rl.solve_fixedpoint(p, rl.select_gap(p))


def test_fixedpoint_refuses_the_root_of_another_gap():
    # from X_0 = 0 the iteration settles on the (-1, 1) root, ||X|| = 0.5;
    # asked for the ray (1, inf), whose root has ||X|| = 3, it must refuse
    # rather than return that root under the ray's name
    p = rl.example_problem(1.0, 0.5)
    ray = rl.select_gap(p, 5.0)
    assert (ray.alpha, ray.beta) == (1.0, np.inf)
    assert rl.solve_spectral(p, ray).x_norm == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(OutsideUniquenessClass):
        rl.solve_fixedpoint(p, ray)
    assert rl.solve_fixedpoint(p, rl.select_gap(p)).x_norm == pytest.approx(0.5, rel=1e-12)


def test_fixedpoint_reads_the_cached_rotated_coupling(monkeypatch):
    # every step goes to the solve's one set of Sylvester steps, built on
    # the problem's cached U* B* and spectrum of C, and forms Z from the
    # cached B U and the last iterate, never rotating back to X in between
    p = rl.generate(rl.GenSpec(12, 3, 7, (-1.0, 1.0), 0.3, 0.4, "interior"))
    built, calls = [], []
    real = linalg._SylvesterSteps

    class Spy(real):
        def __init__(self, A, c, G, *rest):
            built.append((self, A, c, G))
            super().__init__(A, c, G, *rest)

        def solve(self, Z, E):
            calls.append((self, Z, E, super().solve(Z, E)))
            return calls[-1][3]

    monkeypatch.setattr(linalg, "_SylvesterSteps", Spy)
    sol = rl.solve_fixedpoint(p, rl.select_gap(p, 0.0))
    assert len(calls) > 1 and len(built) == 1
    steps, A, c, G = built[0]
    assert A is p.A and c is p.eig_C.values and G is p.Bstar_in_eig_C
    # and one stack of row shifts, built before the first step
    assert steps._rows is not None and all(s is steps for s, _, _, _ in calls)
    assert np.array_equal(calls[0][1], p.A) and not calls[0][2].any()
    # the screen around A reads the step's own E = (B U) Y, not Z - A
    for (_, _, _, Y), (_, Z, E, _) in zip(calls, calls[1:]):
        assert np.array_equal(E, p.B_in_eig_C @ Y) and np.array_equal(Z, p.A + E)
    assert np.array_equal(sol.X, p.eig_C.vectors @ calls[-1][3])


def test_fixedpoint_builds_the_row_shifts_once_per_solve(battery500, monkeypatch):
    # the stacked shifts c_i I do not depend on the iterate: a solve takes
    # one np.eye however many steps it runs, and still makes exactly one
    # _fixedpoint_step call per step
    eyes, steps = [], []
    real_eye, real_step = np.eye, solvers._fixedpoint_step
    monkeypatch.setattr(np, "eye", lambda *a, **k: eyes.append(1) or real_eye(*a, **k))
    monkeypatch.setattr(solvers, "_fixedpoint_step", lambda *a: steps.append(1) or real_step(*a))
    # item 18 cycles at step 15, item 274 runs to the step limit
    for i, outcome, count in (
        (18, "period-2 cycle at step 15", 15),
        (274, f"no convergence within {MAX_ITER} iterations", MAX_ITER),
    ):
        _, p, gap, _ = battery500.items[i]
        assert p.n_A * p.n_C < ROW_SOLVE_LIMIT
        eyes.clear()
        steps.clear()
        assert _outcome(lambda: rl.solve_fixedpoint(p, gap)) == outcome
        assert (len(eyes), len(steps)) == (1, count)


def _fixedpoint_steps(p, count):
    """The first count iterates Y_k = U* X_k of the fixed point, from Y_0 = 0."""
    steps = sylvester_steps(p)
    Y = [np.zeros((p.n_C, p.n_A), dtype=complex)]
    for _ in range(count):
        Y.append(solvers._fixedpoint_step(p, Y[-1], steps))
    return Y


def _kernel_at_limit(limit, Z, c, G):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "ROW_SOLVE_LIMIT", limit)
        return sylvester_in_eig_C(Z, c, G)


def test_row_and_eig_kernels_agree_on_fixedpoint_steps(battery500):
    # battery blocks are row-solved; the two larger ones sit at and past
    # the limit, where the fixed point diagonalizes Z
    problems = [p for _, p, _, _ in battery500.items[:40]]
    problems += [
        rl.generate(rl.GenSpec(5, 16, 32, (-1.0, 1.0), 0.3, 0.5, "interior")),
        rl.generate(rl.GenSpec(6, 16, 48, (-1.0, 1.0), 0.3, 0.5, "interior")),
    ]
    assert min(p.n_A * p.n_C for p in problems) < ROW_SOLVE_LIMIT <= max(p.n_A * p.n_C for p in problems)
    for p in problems:
        c, G = p.eig_C.values, p.Bstar_in_eig_C
        for Y in _fixedpoint_steps(p, 4):
            Z = p.A + p.B_in_eig_C @ Y
            rows, eig = _kernel_at_limit(np.inf, Z, c, G), _kernel_at_limit(0, Z, c, G)
            assert operator_norm(rows - eig) <= 1e-13 * (1.0 + operator_norm(rows))


def _pushed_next_to_sigma_C(p, Z):
    """An iterate Y whose Z' = A + (B U) Y is Z with its eigenvalue nearest
    sigma(C) moved to 1e-9 from it; B U must have full row rank."""
    z, P = np.linalg.eig(Z)
    c = p.eig_C.values
    j, i = np.unravel_index(np.argmin(np.abs(z[:, None] - c[None, :])), (z.size, c.size))
    target = P @ np.diag(np.where(np.arange(z.size) == j, c[i] + 1e-9, z)) @ np.linalg.inv(P)
    Y = np.linalg.lstsq(p.B_in_eig_C, target - p.A, rcond=None)[0]
    pushed = p.A + p.B_in_eig_C @ Y
    assert np.min(np.abs(np.linalg.eigvals(pushed)[None, :] - c[:, None])) < 2e-9
    return Y


def test_an_iterate_next_to_sigma_C_still_overlaps(battery500, monkeypatch):
    # push one eigenvalue of Z = A + (B U) Y to 1e-9 from sigma(C): the
    # Bauer-Fike floor cannot clear it, so the row path diagonalizes Z and
    # refuses the step, whether it is the first step of a solve or one
    # taken after two iterates became references
    _, p, _, _ = next(item for item in battery500.items if item[1].n_A < item[1].n_C)
    assert p.n_A * p.n_C < ROW_SOLVE_LIMIT
    with pytest.raises(SpectraOverlap):
        solvers._fixedpoint_step(p, _pushed_next_to_sigma_C(p, p.A), sylvester_steps(p))
    # item 27 (5 x 7) cycles at step 241 and diagonalizes 18 of its
    # iterates; at step 100 both references are taken, and the iterate is
    # pushed from where the solve stands, so it is near a reference
    _, p, gap, _ = battery500.items[27]
    assert p.n_A < p.n_C
    real_step, taken = solvers._fixedpoint_step, []

    def push_at_step_100(p, Y, steps):
        taken.append(len(steps._refs))
        if len(taken) == 100:
            Y = _pushed_next_to_sigma_C(p, p.A + p.B_in_eig_C @ Y)
        return real_step(p, Y, steps)

    monkeypatch.setattr(solvers, "_fixedpoint_step", push_at_step_100)
    with pytest.raises(SpectraOverlap, match=r"are [0-9.]+e-(09|10) apart"):
        rl.solve_fixedpoint(p, gap)
    assert (len(taken), taken[-1]) == (100, 2)


def test_fixedpoint_takes_no_eigvals_on_the_battery(battery500, monkeypatch):
    # every overlap test is settled by a Bauer-Fike floor around A or one of
    # the last two diagonalized iterates, or decided by a fresh eig, which
    # becomes a reference; the battery took 5,413 eigvals before the
    # iterate references, and takes 669 eig and 669 inv with them
    calls = {"eigvals": 0, "eig": 0, "inv": 0}
    for name in calls:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _n=name, _f=real, **k: calls.__setitem__(_n, calls[_n] + 1) or _f(*a, **k)
        )
    for _, p, gap, _ in battery500.items:
        p.sigma_A, p.eig_C  # cached problem data, read before counting
        _outcome(lambda: rl.solve_fixedpoint(p, gap))
    assert calls["eigvals"] == 0
    assert 0 < calls["eig"] <= 800 and calls["inv"] == calls["eig"]


def test_residual_acceptance_is_relative_to_the_scale(monkeypatch):
    # the boundary is inclusive: a residual equal to TOL_ACCEPT times the
    # scale passes, and one a bit above it fails
    p = rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5))
    sol = rl.solve_spectral(p, rl.select_gap(p, 0.0))
    assert sol.residual > 0.0
    monkeypatch.setattr(solvers, "TOL_ACCEPT", 1.0)
    monkeypatch.setattr(solvers, "residual_scale", lambda p, s: s.residual)
    assert residual_acceptable(p, sol)
    monkeypatch.setattr(solvers, "residual_scale", lambda p, s: np.nextafter(s.residual, 0.0))
    assert not residual_acceptable(p, sol)


def test_x_norm_is_taken_once_and_reused_by_the_residual_scale(monkeypatch):
    import riccatilab.solvers as solvers

    p = rl.example_problem(2.0, 1.2)
    gap = rl.select_gap(p)
    sol = rl.solve_spectral(p, gap)
    seen = []
    real_norm = solvers.operator_norm
    monkeypatch.setattr(solvers, "operator_norm", lambda M: seen.append(M is sol.X) or real_norm(M))
    rl.certify_all(p, gap, sol)
    assert seen.count(True) == 1
    assert sol.x_norm == real_norm(sol.X)


def test_spectra_of_Z_and_Zhat_are_taken_once(monkeypatch):
    p = rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5))
    gap = rl.select_gap(p, 0.0)
    sol = rl.solve_spectral(p, gap)
    for eigs, M in ((sol.z_eigs, sol.Z), (sol.zhat_eigs, sol.Zhat)):
        assert eigs.dtype == np.float64
        assert np.all(np.diff(eigs) >= 0)
        ref = np.sort(np.linalg.eigvals(M).real)
        assert np.max(np.abs(eigs - ref)) <= 1e-14 * (1 + operator_norm(M))
    assert sol.z_eigs is sol.z_eigs and sol.zhat_eigs is sol.zhat_eigs
    assert sol.Lambda is sol.Lambda and sol.LambdaHat is sol.LambdaHat
    for frozen in (sol.z_eigs, sol.zhat_eigs, sol.Lambda, sol.LambdaHat):
        with pytest.raises(ValueError):
            frozen[0] = 0.0
    rl.certify_all(p, gap, sol)
    calls = []
    for name in ("eigvals", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    assert rl.uniqueness_class_check(p, sol, gap)
    assert calls == []


def test_compressions_are_hermitian_and_similar_to_Z_and_Zhat():
    p = rl.generate(rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5))
    sol = rl.solve_spectral(p, rl.select_gap(p, 0.0))
    X = sol.X
    S2 = np.eye(p.n_A) + X.conj().T @ X
    T2 = np.eye(p.n_C) + X @ X.conj().T
    for L, M, G2 in ((sol.Lambda, sol.Z, S2), (sol.LambdaHat, sol.Zhat, T2)):
        assert np.array_equal(L, L.conj().T)
        # L = G M G^{-1} with G = G2^{1/2}
        w, u = np.linalg.eigh(G2)
        G, Ginv = (u * np.sqrt(w)) @ u.conj().T, (u / np.sqrt(w)) @ u.conj().T
        assert operator_norm(Ginv @ L @ G - M) <= 1e-14 * (1 + operator_norm(M))


def test_solution_fields_consistent():
    p = rl.example_problem(2.0, 1.0)
    gap = rl.select_gap(p)
    sol = rl.solve_spectral(p, gap)
    assert np.allclose(sol.Z, p.A + p.B @ sol.X)
    assert np.allclose(sol.Zhat, p.C - p.B.conj().T @ sol.X.conj().T)
    assert sol.Z.shape == (1, 1)
    assert sol.Zhat.shape == (2, 2)
    assert sol.residual == rl.residual(p, sol.X)


def test_z_eigenvalues_are_the_gap_eigenvalues_of_H(battery500):
    # sigma(Z) = sigma(H) inside the gap, as multisets
    for s, p, gap, sol in battery500.items[:40]:
        H_inside = np.array(
            [x for x in np.linalg.eigvalsh(rl.assemble_H(p)) if gap.contains(x)]
        )
        for z in (np.linalg.eigvals(sol.Z), sol.z_eigs):
            assert np.max(np.abs(np.imag(z))) <= 1e-8
            assert np.max(np.abs(np.sort(z.real) - H_inside)) <= 1e-8 * (1 + operator_norm(sol.Z))


def test_solution_is_built_from_p_X_and_method_alone():
    p = rl.generate(rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5))
    X = rl.solve_spectral(p, rl.select_gap(p, 0.0)).X.copy()
    sol = rl.RiccatiSolution(p, X, "mine")
    assert sol.residual == rl.residual(p, X)
    # a copy: changing the caller's array afterwards changes nothing
    X[0, 0] += 1.0
    assert sol.X[0, 0] != X[0, 0]
    assert sol.residual == rl.residual(p, sol.X)
    assert sol.V is sol.V and sol.Z is sol.Z and sol.Zhat is sol.Zhat
    for frozen in (sol.X, sol.Z, sol.Zhat, sol.V):
        with pytest.raises(ValueError):
            frozen[0, 0] = 0.0
    with pytest.raises(TypeError):
        rl.RiccatiSolution(p, X, "mine", 0.0)  # the residual is never an argument


def test_solution_rejects_a_misshapen_X():
    p = rl.example_problem(1.0, 0.5)
    for X in (np.zeros((1, 2)), np.zeros((2, 1, 1))):
        with pytest.raises(DimensionMismatch):
            rl.RiccatiSolution(p, X, "mine")


def test_uniqueness_class_accepts_the_gap_solution():
    p = rl.example_problem(1.0, 0.8)
    gap = rl.select_gap(p)
    sol = rl.solve_spectral(p, gap)
    assert rl.uniqueness_class_check(p, sol, gap)


def test_uniqueness_class_rejects_the_complementary_root():
    # 1x1: b x^2 - d x = b has two roots; the one with Z outside the gap
    # solves the equation but belongs to the complementary subspace
    d, b = 1.0, 0.75
    p = rl.BlockProblem(np.array([[0.0]]), np.array([[b]]), np.array([[d]]))
    gap = rl.SpectralGap(-np.inf, d)
    x_wrong = (d + np.sqrt(d * d + 4 * b * b)) / (2 * b)
    X = np.array([[x_wrong]])
    assert rl.residual(p, X) <= 1e-12
    bad = rl.RiccatiSolution(p, X, "handmade")
    assert not rl.uniqueness_class_check(p, bad, gap)


def test_uniqueness_class_rejects_a_perturbed_solution():
    # X + 1e-3 E is no solution; its compressions still put sigma(Z) in the
    # gap and sigma(Zhat) outside, so only the residual can reject it
    p = rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5))
    gap = rl.select_gap(p, 0.0)
    sol = rl.solve_spectral(p, gap)
    assert rl.uniqueness_class_check(p, sol, gap)
    bad = rl.RiccatiSolution(p, sol.X + 1e-3 * np.ones_like(sol.X), "perturbed")
    assert bad.residual == rl.residual(p, bad.X) > 1e-2
    assert not residual_acceptable(p, bad)
    assert np.all(gap.contains(bad.z_eigs, TOL_SPEC))
    assert not np.any(gap.contains(bad.zhat_eigs, TOL_SPEC))
    assert not rl.uniqueness_class_check(p, bad, gap)


def test_uniqueness_class_needs_sigma_Zhat_not_the_inertia_of_M(battery500):
    # the neighbouring gap's root plus 3e-3 is 3,500 times the size of the
    # true root, yet its residual is acceptable at the scale (1 + ||X||)^2 and
    # its compression puts sigma(Z) inside the gap; M(alpha+) < 0 < M(beta-)
    # is a property of the problem alone, so a rule reading only the inertia
    # of M there (with sigma(Z) and the residual) would take this X, while
    # sigma(Zhat) has an eigenvalue in the gap and rejects it
    _, p, gap, sol = battery500.items[368]
    assert (p.n_A, p.n_C) == (1, 12)
    gaps = rl.find_gaps(p.eig_C.values)
    near = gaps[gaps.index(gap) + 1]
    assert near.alpha == gap.beta and near.length < 0.02
    X = rl.solve_spectral(p, near).X + 3e-3 * np.ones((p.n_C, p.n_A))
    bad = rl.RiccatiSolution(p, X, "handmade")
    assert bad.x_norm > 3000 * sol.x_norm
    assert residual_acceptable(p, bad)
    assert np.all(gap.contains(bad.z_eigs, TOL_SPEC))
    M = herglotz_batch(p, np.array([gap.alpha + TOL_SPEC, gap.beta - TOL_SPEC], dtype=complex))
    assert M[0, 0, 0].real < 0 < M[1, 0, 0].real
    assert np.any(gap.contains(bad.zhat_eigs, TOL_SPEC))
    assert not rl.uniqueness_class_check(p, bad, gap)
    assert not rl.certify_existence(p, gap, bad).passed


def test_cross_method_agreement_sampled(battery500):
    # full-battery agreement is asserted in the acceptance suite; this is
    # the same check on a slice, kept close to the solver code
    for s, p, gap, sol in battery500.items[:25]:
        contour = rl.build_contour(
            np.linalg.eigvals(sol.Z).real, np.linalg.eigvalsh(p.C)
        )
        alt = rl.solve_contour(p, sol.Z, contour)
        assert operator_norm(alt.X - sol.X) <= 1e-8 * (1 + sol.x_norm)


def test_every_step_the_screen_settles_is_apart_from_sigma_C(battery500, monkeypatch):
    # a row-path step takes no eig only when a Bauer-Fike floor, around A
    # (from the step's E = (B U) Y) or an iterate reference, clears
    # _spectral_tol(); on all 500 battery fixed points, the exact
    # separation of each such step clears it too (A settles 14,278 steps,
    # the iterate references 2,151)
    eigs, seps = [], []
    real_eig, real_solve = np.linalg.eig, linalg._SylvesterSteps.solve
    monkeypatch.setattr(np.linalg, "eig", lambda *a: eigs.append(1) or real_eig(*a))

    def solve(steps, Z, E):
        taken = len(eigs)
        Y = real_solve(steps, Z, E)
        if len(eigs) == taken:
            assert steps._rows is not None
            seps.append(np.min(np.abs(np.linalg.eigvals(Z)[None, :] - steps._c[:, None])))
        return Y

    monkeypatch.setattr(linalg._SylvesterSteps, "solve", solve)
    for _, p, gap, _ in battery500.items:
        _outcome(lambda: rl.solve_fixedpoint(p, gap))
    assert (len(seps), len(eigs)) == (16_429, 669)
    assert min(seps) > linalg._spectral_tol()
