"""Block problem container, gap discovery, and the gap function M."""

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.block import herglotz_batch
from riccatilab.errors import (
    DimensionMismatch,
    LambdaOnSpectrum,
    LambdaOnSpectrumOfC,
    NonHermitianInput,
)
from riccatilab.linalg import TOL_SPEC, operator_norm
from riccatilab.rng import SplitMix64


def small_problem():
    # 1x2 sharpness instance, d = 1, b = 0.5
    return rl.example_problem(1.0, 0.5)


def test_block_problem_validates_shapes():
    with pytest.raises(DimensionMismatch):
        rl.BlockProblem(np.eye(2), np.ones((3, 2)), np.eye(2))


@pytest.mark.parametrize(
    "A,B,C,error,message",
    [
        (np.eye(1), np.array([[np.nan, 0.0]]), np.eye(2), ValueError, "B has non-finite entries"),
        (np.ones((1, 2)), np.zeros((1, 2)), np.eye(2), DimensionMismatch, "A must be square, got (1, 2)"),
    ],
    ids=["nan_in_B", "non_square_A"],
)
def test_block_problem_refusals_name_the_block(A, B, C, error, message):
    with pytest.raises(error) as err:
        rl.BlockProblem(A, B, C)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize(
    "A,B,C",
    [
        (np.zeros((0, 0)), np.zeros((0, 2)), np.eye(2)),
        (np.eye(2), np.zeros((2, 0)), np.zeros((0, 0))),
        (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    ],
    ids=["empty_A", "empty_C", "both_empty"],
)
def test_block_problem_refuses_an_empty_block(A, B, C):
    # an empty spectrum has no norm and no gap, so it is refused before
    # any spectrum is read, as a RiccatiLabError and not an IndexError
    with pytest.raises(DimensionMismatch, match="must not be empty"):
        rl.BlockProblem(A, B, C)


def test_block_problem_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        rl.BlockProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), np.eye(2))


def test_block_problem_rejects_nonfinite():
    with pytest.raises(ValueError):
        rl.BlockProblem(np.array([[np.nan]]), np.zeros((1, 1)), np.eye(1))


def test_block_problem_arrays_are_frozen():
    p = small_problem()
    with pytest.raises(ValueError):
        p.A[0, 0] = 5.0


def test_block_problem_caches_its_spectra():
    p = rl.generate(rl.GenSpec(7, 3, 5, (-1.0, 1.0), 0.3, 0.5, "interior"))
    assert p.eig_C is p.eig_C
    assert p.sigma_A is p.sigma_A
    # sigma(A) is values only: nothing reads eigenvectors of A
    assert np.array_equal(p.sigma_A, np.linalg.eigvalsh(p.A))
    with pytest.raises(ValueError):
        p.sigma_A[0] = 0.0
    w, v = np.linalg.eigh(p.C)
    assert np.array_equal(p.eig_C.values, w)
    assert np.array_equal(p.eig_C.vectors, v)
    with pytest.raises(ValueError):
        p.eig_C.values[0] = 0.0
    with pytest.raises(ValueError):
        p.eig_C.vectors[0, 0] = 0.0


def test_block_problem_caches_its_norms():
    p = rl.generate(rl.GenSpec(7, 3, 5, (-1.0, 1.0), 0.3, 0.5, "interior"))
    # the Hermitian blocks' norms are read off their cached spectra, which
    # agree with the SVD's largest singular value to rounding
    for cached, M, w in ((p.norm_A, p.A, p.sigma_A), (p.norm_C, p.C, p.eig_C.values)):
        assert cached == max(-w[0], w[-1])
        n = M.shape[0]
        assert abs(cached - rl.operator_norm(M)) <= 8 * n * np.finfo(float).eps * cached
    assert p.norm_B == rl.operator_norm(p.B)
    assert "norm_B" in vars(p)
    assert p.norm_A is p.norm_A and p.norm_C is p.norm_C


def test_dist_spectra_takes_eigenvalue_arrays_and_is_every_spectral_distance(battery500):
    assert rl.dist_spectra(np.array([0.5, 3.0]), np.array([-1.0, 1.0])) == 0.5
    assert rl.dist_spectra(np.array([0.0, 2.0]), np.array([1.0 + 1.0j])) == np.sqrt(2.0)
    with pytest.raises(DimensionMismatch):
        rl.dist_spectra(np.eye(2), np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        rl.find_gaps(np.diag([0.0, 1.0]))
    for _, p, _, sol in battery500.items:
        a, c, z = p.sigma_A, p.eig_C.values, sol.z_eigs
        assert p.d == rl.dist_spectra(a, c)
        assert rl.certify_tan_theta(p, sol).details["delta"] == rl.dist_spectra(z, c)
        # the contour's foci are the hull's ends; sigma(C) lies outside the hull,
        # so the nearest eigenvalue of C by dist_spectra has the least size
        # eps = |u| + sqrt(u^2 - f^2), and the size a + b is the geometric mean sqrt(f eps)
        contour = rl.build_contour(z, c)
        f = (z.max() - z.min()) / 2.0
        assert (contour.center, contour.focus) == ((z.max() + z.min()) / 2.0, f)
        u = f + rl.dist_spectra(z, c)
        eps = u + np.sqrt(u * u - f * f)
        size = np.sqrt(max(f, eps / 4.0) * eps)
        assert contour.size == pytest.approx(size, rel=1e-13)


def test_assemble_H_is_hermitian():
    p = small_problem()
    H = rl.assemble_H(p)
    assert H.shape == (3, 3)
    assert operator_norm(H - H.conj().T) == 0.0


def test_find_gaps_simple():
    gaps = rl.find_gaps(np.array([0.0, 1.0, 3.0]))
    finite = [g for g in gaps if g.is_finite]
    assert [(g.alpha, g.beta) for g in finite] == [(0.0, 1.0), (1.0, 3.0)]
    rays = [g for g in gaps if not g.is_finite]
    assert len(rays) == 2


def test_find_gaps_merges_near_ties():
    # 1.0 and 1.0 + eps are one spectral point at tol_spec resolution
    gaps = rl.find_gaps(np.array([0.0, 1.0, 1.0 + 1e-12, 3.0]))
    finite = [g for g in gaps if g.is_finite]
    assert len(finite) == 2


def test_find_gaps_cluster_mean_is_correctly_rounded():
    # the plain float sum of this cluster rounds differently before and
    # after Python 3.12 (-...707 against -...705 as the mean); the mean of
    # the correctly rounded sum is the same everywhere
    cluster = [-1.6274266722243342, -1.6274266678701468, -1.6274266676509306]
    gaps = rl.find_gaps(np.array(cluster + [2.0]))
    assert gaps[0].beta == gaps[1].alpha == -1.6274266692484705


def test_find_gaps_tile_the_hull():
    rng = SplitMix64(21)
    for _ in range(5):
        vals = np.sort([rng.normal() * 3 for _ in range(6)])
        finite = [g for g in rl.find_gaps(vals) if g.is_finite]
        # closures of the finite gaps cover [min, max] without overlap
        total = sum(g.length for g in finite)
        assert total == pytest.approx(vals[-1] - vals[0], abs=1e-9)
        for g1, g2 in zip(finite, finite[1:]):
            assert g1.beta <= g2.alpha + 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1(a): find_gaps merges eigenvalues of C within the absolute 1e-8, "
    "so at s = 1e-7 the gap (-1.0497e-7, 1e-7) holds -1e-7 in sigma(C)",
)
def test_no_eigenvalue_of_C_lies_inside_the_selected_gap_at_small_scale():
    p = rl.generate(rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5))
    for s in (1.0, 1e-7):
        ps = rl.BlockProblem(s * p.A, s * p.B, s * p.C)
        gap = rl.select_gap(ps, 0.0)
        assert not np.any(gap.contains(ps.eig_C.values)), s


def test_select_gap_default_uses_sigma_A():
    p = small_problem()
    gap = rl.select_gap(p)
    assert (gap.alpha, gap.beta) == (-1.0, 1.0)
    assert p.d == pytest.approx(1.0)


def test_select_gap_rejects_point_on_spectrum():
    p = small_problem()
    with pytest.raises(LambdaOnSpectrumOfC):
        rl.select_gap(p, 1.0)


def test_spectral_gap_midpoint_and_contains():
    g = rl.SpectralGap(-1.0, 3.0)
    assert g.midpoint == 1.0
    assert g.contains(2.9)
    assert not g.contains(2.9, margin=0.2)
    assert not rl.SpectralGap(-np.inf, 0.0).is_finite


@pytest.mark.parametrize("alpha,beta", [(-1.0, 3.0), (-np.inf, 0.5), (0.5, np.inf)])
@pytest.mark.parametrize("margin", [0.0, TOL_SPEC])
def test_spectral_gap_contains_is_the_scalar_rule_elementwise(alpha, beta, margin):
    g = rl.SpectralGap(alpha, beta)
    pts = [-7.0, 0.0, 0.7, 7.0]
    for edge in (alpha + margin, beta - margin):
        if np.isfinite(edge):
            pts += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    expected = [alpha + margin < x < beta - margin for x in pts]
    got = g.contains(np.array(pts), margin)
    assert got.dtype == bool
    assert got.tolist() == expected
    assert [bool(g.contains(x, margin)) for x in pts] == expected


def test_herglotz_M_value():
    p = small_problem()
    # M(0) = -A + B C^{-1} B* = 0 + (0.125 - 0.125) ... worked by hand
    M = rl.herglotz_M(p, 0.0)
    expected = -p.A + p.B @ np.linalg.inv(p.C) @ p.B.conj().T
    assert np.allclose(M, expected, atol=1e-14)


def test_herglotz_M_rejects_lambda_on_sigma_C():
    p = small_problem()
    with pytest.raises(LambdaOnSpectrumOfC):
        rl.herglotz_M(p, 1.0 + 1e-12)


def test_herglotz_batch_matches_single():
    p = small_problem()
    lams = np.array([0.1, 0.5j, -0.3 + 0.2j])
    batch = herglotz_batch(p, lams)
    for k, lam in enumerate(lams):
        assert np.allclose(batch[k], rl.herglotz_M(p, complex(lam)), atol=1e-13)


def test_herglotz_M_is_the_one_point_batch_bit_for_bit(battery500):
    # herglotz_M gives the one-point batch's bits and refuses sigma(C)
    expected = [
        [herglotz_batch(p, [lam])[0] for lam in probe_points(p, gap)]
        for _, p, gap, _ in battery500.items
    ]
    for (_, p, gap, _), ms in zip(battery500.items, expected):
        for lam, M in zip(probe_points(p, gap), ms):
            assert np.array_equal(rl.herglotz_M(p, lam), M)
        c0 = complex(p.eig_C.values[0])
        with pytest.raises(LambdaOnSpectrumOfC) as err:
            rl.herglotz_M(p, c0)
        assert str(err.value) == f"lambda={c0} is within tol of sigma(C)"


def test_herglotz_imaginary_part_psd_upper_half_plane():
    # the defining property: Im M(lambda) >= 0 whenever Im lambda > 0
    spec = rl.GenSpec(seed=5150, n_A=3, n_C=6, gap=(-1.0, 1.0), d_target=0.4, b_ratio=0.7)
    p = rl.generate(spec)
    rng = SplitMix64(3)
    for _ in range(20):
        lam = complex(3 * rng.normal(), 0.05 + 2 * rng.uniform())
        M = rl.herglotz_M(p, lam)
        im = (M - M.conj().T) / 2j
        assert np.linalg.eigvalsh(im).min() >= -1e-11 * (1 + operator_norm(M))


def test_herglotz_derivative_dominates_identity_on_gap():
    # d/dlambda M >= I on the gap; checked as a centered difference
    spec = rl.GenSpec(seed=5151, n_A=2, n_C=5, gap=(-1.0, 1.0), d_target=0.35, b_ratio=0.6)
    p = rl.generate(spec)
    h = 1e-6
    for lam in np.linspace(-0.5, 0.5, 7):
        Mp = rl.herglotz_M(p, lam + h)
        Mm = rl.herglotz_M(p, lam - h)
        deriv = (Mp - Mm).real / (2 * h)
        assert np.linalg.eigvalsh(deriv).min() >= 1.0 - 1e-6


def test_resolvent_matches_direct_inverse():
    spec = rl.GenSpec(seed=5152, n_A=3, n_C=4, gap=(-1.0, 1.0), d_target=0.4, b_ratio=0.5)
    p = rl.generate(spec)
    H = rl.assemble_H(p)
    eigs = np.linalg.eigvalsh(H)
    rng = SplitMix64(17)
    checked = 0
    while checked < 12:
        lam = complex(4 * rng.normal(), 4 * rng.normal())
        if min(abs(eigs - lam)) < 0.1 or min(abs(np.linalg.eigvalsh(p.C) - lam)) < 0.1:
            continue
        R = rl.resolvent_H(p, lam)
        direct = np.linalg.inv(H - lam * np.eye(H.shape[0]))
        assert operator_norm(R - direct) <= 1e-8 * operator_norm(direct)
        checked += 1


ON_SIGMA_C = [
    ("herglotz_M", lambda p, gap, sol, pts: rl.herglotz_M(p, pts[1]), "lambda="),
    ("resolvent_H", lambda p, gap, sol, pts: rl.resolvent_H(p, pts[1]), "lambda="),
    ("compute_W", lambda p, gap, sol, pts: rl.compute_W(p, sol.X, pts[1]), "lambda="),
    (
        "verify_factorization",
        lambda p, gap, sol, pts: rl.verify_factorization(p, sol, pts),
        "grid point ",
    ),
]


@pytest.mark.parametrize("name,call,label", ON_SIGMA_C, ids=[case[0] for case in ON_SIGMA_C])
def test_points_near_sigma_C_name_the_first_offender(name, call, label):
    # sigma(C) = {-1, 1}: the second point is within tol of 1, the third is
    # on -1; the single-point functions get the second point alone
    p = small_problem()
    gap = rl.select_gap(p)
    sol = rl.solve_spectral(p, gap)
    pts = np.array([0.1, 1.0 + 0.5 * TOL_SPEC, -1.0], dtype=complex)
    with pytest.raises(LambdaOnSpectrumOfC) as err:
        call(p, gap, sol, pts)
    assert str(err.value) == f"{label}{complex(pts[1])} is within tol of sigma(C)"


def test_resolvent_rejects_lambda_on_spectrum():
    p = small_problem()
    H = rl.assemble_H(p)
    lam = float(np.linalg.eigvalsh(H)[0])
    with pytest.raises(LambdaOnSpectrum):
        rl.resolvent_H(p, lam)


def test_gap_eigenvalues_of_H_are_counted_by_the_inertia_of_M(battery500):
    # In(H - t) = In(C - t) + In(-M(t)) (Haynsworth), and C has no eigenvalue
    # in the gap, so #sigma(H) in (a, b) = nu(M(a)) + pi(M(b)) - n_A for a < b
    # there; M(b) - M(a) = (b - a)(I + B (C - a)^{-1} (C - b)^{-1} B*) >= b - a
    # is the monotonicity that lets one point decide each side of an enclosure
    for _, p, gap, _ in battery500.items[:50]:
        h = np.linalg.eigvalsh(rl.assemble_H(p))
        inside = h[gap.contains(h)]
        offset = 1e-4 * gap.length
        lams = np.sort(np.concatenate([
            np.linspace(gap.alpha, gap.beta, 11)[1:-1],
            inside - offset,
            inside + offset,
        ]))
        lams = lams[gap.contains(lams, offset)]
        M = herglotz_batch(p, lams.astype(complex))
        w = np.linalg.eigvalsh(M)
        neg = np.count_nonzero(w < 0, axis=1)
        pos = np.count_nonzero(w > 0, axis=1)
        norms = np.linalg.norm(M, 2, axis=(1, 2))
        for i, j in zip(*np.triu_indices(lams.size, 1)):
            a, b = lams[i], lams[j]
            count = np.count_nonzero((a < h) & (h < b))
            assert count == neg[i] + pos[j] - p.n_A
            slack = 1e-13 * (1.0 + max(norms[i], norms[j]))
            assert np.linalg.eigvalsh(M[j] - M[i])[0] >= (b - a) - slack


def dense_herglotz(p, lam):
    """M(lambda) through a dense solve with C - lambda, the textbook definition."""
    shifted = p.C - lam * np.eye(p.n_C)
    return lam * np.eye(p.n_A) - p.A + p.B @ np.linalg.solve(shifted, p.B.conj().T)


def dense_resolvent(p, lam):
    """(H - lambda)^{-1} from M(lambda) with a dense inverse of C - lambda."""
    nA, nC = p.n_A, p.n_C
    Cres = np.linalg.inv(p.C - lam * np.eye(nC))
    col = np.vstack([np.eye(nA), -Cres @ p.B.conj().T])
    row = np.hstack([np.eye(nA), -p.B @ Cres])
    out = np.zeros((nA + nC, nA + nC), dtype=complex)
    out[nA:, nA:] = Cres
    return out - col @ np.linalg.solve(dense_herglotz(p, lam), row)


def shift_condition(M, spectrum, lam):
    """Condition number of M - lambda for Hermitian M with the given spectrum."""
    return (operator_norm(M) + abs(lam)) / float(np.min(np.abs(spectrum - lam)))


def probe_points(p, gap):
    """Real points across the gap, complex points, and points within 1e-6 of sigma(C)."""
    c = p.eig_C.values
    real = np.linspace(gap.alpha + 1e-3, gap.beta - 1e-3, 7)
    off_axis = [gap.midpoint + 0.4j, gap.alpha - 0.3 + 0.2j, 3.0 - 2.0j, 1e-3j]
    near = [c[0] + 1e-6, c[-1] - 1e-6, c[0] + 1e-6j, c[-1] + 7e-7 * np.exp(0.3j)]
    return np.concatenate([real, off_axis, near]).astype(complex)


def test_herglotz_batch_matches_the_dense_definition(battery500):
    # the eigenbasis and the dense solve each err by about eps times the
    # condition number of C - lambda, which reaches 1e6 next to sigma(C)
    for _, p, gap, _ in battery500.items[:30]:
        lams = probe_points(p, gap)
        for lam, M in zip(lams, herglotz_batch(p, lams)):
            ref = dense_herglotz(p, lam)
            kappa = shift_condition(p.C, p.eig_C.values, lam)
            assert operator_norm(M - ref) <= 1e-12 * kappa * operator_norm(ref)
            assert np.array_equal(rl.herglotz_M(p, lam), M)


def test_resolvent_matches_the_dense_inverse(battery500):
    for _, p, gap, _ in battery500.items[:30]:
        H = rl.assemble_H(p)
        h = np.linalg.eigvalsh(H)
        for lam in probe_points(p, gap):
            if np.min(np.abs(h - lam)) <= 1e-6:
                continue
            ref = dense_resolvent(p, lam)
            kappa = max(shift_condition(p.C, p.eig_C.values, lam), shift_condition(H, h, lam))
            assert operator_norm(rl.resolvent_H(p, lam) - ref) <= 1e-12 * kappa * operator_norm(ref)


def test_rotated_coupling_is_cached_read_only():
    p = rl.generate(rl.GenSpec(7, 3, 5, (-1.0, 1.0), 0.3, 0.5, "interior"))
    Ustar = p.Ustar
    assert Ustar is p.Ustar
    assert np.array_equal(Ustar, p.eig_C.vectors.conj().T)
    with pytest.raises(ValueError):
        Ustar[0, 0] = 0.0
    G = p.Bstar_in_eig_C
    assert G is p.Bstar_in_eig_C
    assert np.array_equal(G, p.eig_C.vectors.conj().T @ p.B.conj().T)
    with pytest.raises(ValueError):
        G[0, 0] = 0.0
    BU = p.B_in_eig_C
    assert BU is p.B_in_eig_C
    assert np.array_equal(BU, G.conj().T)
    with pytest.raises(ValueError):
        BU[0, 0] = 0.0


def test_cached_coupling_keeps_the_gap_function_bit_for_bit():
    # B U is read from the cache instead of conjugating U* B* per call;
    # the coupled resolvent behind M, W and the factorization check must
    # not move by a bit
    p = rl.generate(rl.GenSpec(7, 3, 5, (-1.0, 1.0), 0.3, 0.5, "interior"))
    sol = rl.solve_spectral(p, rl.select_gap(p, 0.0))
    lams = rl.factorization_grid(p, rl.select_gap(p, 0.0))
    c, U = p.eig_C

    def coupled(UY):
        BU = p.Bstar_in_eig_C.conj().T
        return np.matmul(BU[None, :, :] / (c[None, None, :] - lams[:, None, None]), UY)

    eye = np.eye(p.n_A)
    assert np.array_equal(herglotz_batch(p, lams), lams[:, None, None] * eye - p.A + coupled(p.Bstar_in_eig_C))
    W = eye - coupled(U.conj().T @ sol.X)
    assert np.array_equal(rl.compute_W(p, sol.X, lams[3]), W[3])
    M = herglotz_batch(p, lams)
    # the factorization defect M - W (lambda - Z) as -B (C - lambda)^{-1} R
    R = sol.X @ p.A - p.C @ sol.X + sol.X @ p.B @ sol.X - p.B.conj().T
    diff = coupled(U.conj().T @ R)
    ratios = np.linalg.norm(diff, 2, axis=(1, 2)) / (1.0 + np.linalg.norm(M, 2, axis=(1, 2)))
    assert rl.verify_factorization(p, sol, lams) == float(np.max(ratios))


def test_resolvents_of_C_take_no_dense_solve(monkeypatch):
    p = rl.generate(rl.GenSpec(31, 3, 7, (-1.0, 1.0), 0.3, 0.5, "interior"))
    gap = rl.select_gap(p, 0.0)
    sol = rl.solve_spectral(p, gap)
    grid = rl.factorization_grid(p, gap)
    shapes = []
    for name in ("solve", "inv"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    herglotz_batch(p, grid)
    rl.herglotz_M(p, 0.1 + 0.2j)
    rl.compute_W(p, sol.X, 0.1 + 0.2j)
    rl.verify_factorization(p, sol, grid)
    rl.resolvent_H(p, 0.1 + 0.2j)
    assert shapes and (p.n_C, p.n_C) not in shapes
