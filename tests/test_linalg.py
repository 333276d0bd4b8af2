"""Core linear algebra: eigensolver contract and Sylvester kernel.

A problem's cached spectrum is cross-checked against a from-scratch
cyclic Jacobi sweep so that no assertion here trusts the production code
path it is checking.  The Sylvester kernel is checked against the
Kronecker vectorization of the same equation, again a fully independent
route.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccatilab as rl

from riccatilab import linalg
from riccatilab.errors import DimensionMismatch, NonHermitianInput, SpectraOverlap
from riccatilab.linalg import (
    HERM_TOL_FACTOR,
    ROW_SOLVE_LIMIT,
    TOL_SPEC,
    _bauer_fike_floor,
    _require_apart,
    _sqrt_product,
    _SylvesterSteps,
    as_matrix,
    operator_norm,
    require_hermitian,
)
from riccatilab.rng import SplitMix64

from conftest import sylvester_in_eig_C


def random_hermitian(rng, n):
    G = rng.complex_normal_matrix(n, n)
    return (G + G.conj().T) / 2


def jacobi_eigenvalues(M, sweeps=60, tol=1e-14):
    """Cyclic Jacobi for Hermitian M, eigenvalues only.

    Row-by-row sweep with complex rotations.  Slow and simple on purpose:
    it shares nothing with the production eigensolver.
    """
    A = np.array(M, dtype=complex)
    n = A.shape[0]
    scale = operator_norm(M) + 1.0
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) <= tol * scale:
                    continue
                # dephase A[p, q] to a real value, then rotate it away:
                # the combined 2x2 unitary is [[c, -s], [ph* s, ph* c]]
                # with ph = A[p, q]/|A[p, q]|
                phase = A[p, q] / abs(A[p, q])
                theta = 0.5 * np.arctan2(2 * abs(A[p, q]), (A[p, p] - A[q, q]).real)
                c = np.cos(theta)
                s = np.sin(theta)
                rows_p = c * A[p, :] + phase * s * A[q, :]
                rows_q = -s * A[p, :] + phase * c * A[q, :]
                A[p, :], A[q, :] = rows_p, rows_q
                cols_p = c * A[:, p] + np.conj(phase) * s * A[:, q]
                cols_q = -s * A[:, p] + np.conj(phase) * c * A[:, q]
                A[:, p], A[:, q] = cols_p, cols_q
        if off <= tol * scale:
            break
    return np.sort(np.diag(A).real)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_cached_eig_matches_jacobi(n):
    rng = SplitMix64(900 + n)
    for _ in range(3):
        M = random_hermitian(rng, n)
        ref = jacobi_eigenvalues(M)
        got = rl.BlockProblem(M, np.zeros((n, 1)), np.eye(1)).sigma_A
        assert np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - ref)) <= 1e-10 * (1 + operator_norm(M))


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_cached_eig_reconstructs(n, seed):
    M = random_hermitian(SplitMix64(seed), n)
    vals, vecs = rl.BlockProblem(np.eye(1), np.zeros((1, n)), M).eig_C
    tol = 1e-11 * (1 + operator_norm(M))
    assert operator_norm(vecs @ np.diag(vals) @ vecs.conj().T - M) <= tol
    assert operator_norm(vecs.conj().T @ vecs - np.eye(n)) <= tol
    assert np.all(np.imag(vals) == 0)


def test_operator_norm_adjoint_invariant():
    rng = SplitMix64(7)
    for rows, cols in [(1, 1), (2, 5), (4, 3), (6, 6)]:
        M = rng.complex_normal_matrix(rows, cols)
        assert operator_norm(M) == pytest.approx(operator_norm(M.conj().T), rel=1e-13)


@pytest.mark.parametrize("shape", [(1, 1), (3, 6), (64, 192), (0, 3)])
@pytest.mark.parametrize("kind", ["real", "complex", "zero"])
def test_operator_norm_is_the_2_norm_bit_for_bit(shape, kind):
    rng = np.random.default_rng(7)
    M = rng.standard_normal(shape)
    if kind == "complex":
        M = M + 1j * rng.standard_normal(shape)
    elif kind == "zero":
        M = np.zeros(shape)
    assert operator_norm(M) == np.linalg.norm(as_matrix(M), 2)


def test_operator_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("k", [-199, -21, -3, -2, -1, 1, 2, 3, 21, 60, 61, 199])
def test_sqrt_product_scales_exactly_by_powers_of_two(k):
    # sqrt(2^k x 2^k y) = 2^k sqrt(x y) bit for bit, odd k too: the
    # product is formed in the unit of the larger factor, an exact rescaling
    rng = np.random.default_rng(abs(k))
    x = np.ldexp(rng.uniform(0.5, 1.0, 2000), rng.integers(-60, 61, 2000))
    y = np.ldexp(rng.uniform(0.5, 1.0, 2000), rng.integers(-60, 61, 2000))
    scaled = _sqrt_product(np.ldexp(x, k), np.ldexp(y, k))
    assert np.array_equal(scaled, np.ldexp(_sqrt_product(x, y), k))
    # one pair of scalars, as the theorems' hypothesis takes it
    assert _sqrt_product(2.0**k * 0.3, 2.0**k * 0.7) == 2.0**k * _sqrt_product(0.3, 0.7)


def test_sqrt_product_does_not_overflow_where_the_root_fits():
    assert _sqrt_product(1e300, 1e300) == 1e300
    assert _sqrt_product(2.0, 8.0) == 4.0
    assert _sqrt_product(0.0, 0.0) == 0.0


def test_as_matrix_requires_two_dims():
    assert as_matrix([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 2, 2)))


def test_require_hermitian_accepts_and_symmetrizes():
    M = np.array([[1.0, 2.0 + 1e-14j], [2.0, 3.0]])
    H = require_hermitian(M)
    assert operator_norm(H - H.conj().T) == 0.0


def test_require_hermitian_takes_no_norm_of_exactly_hermitian_input(monkeypatch):
    import riccatilab.linalg as linalg

    norms = []
    real_norm = linalg.operator_norm
    monkeypatch.setattr(linalg, "operator_norm", lambda M: norms.append(M) or real_norm(M))
    M = random_hermitian(SplitMix64(5), 6)
    H = require_hermitian(M)
    assert norms == []
    assert np.array_equal(H, (M + M.conj().T) / 2.0)
    # within tolerance, but too close to it for the Frobenius bracket
    # to decide: both norms are taken, the check passes
    M[0, 1] += 3e-10
    require_hermitian(M)
    assert len(norms) == 2


def _verdict(M):
    try:
        require_hermitian(M)
        return "accepted"
    except NonHermitianInput as err:
        return str(err)


def _exact_verdict(M):
    """require_hermitian's verdict decided by the exact 2-norms alone."""
    defect = operator_norm(M - M.conj().T)
    if defect <= HERM_TOL_FACTOR * (1.0 + operator_norm(M)):
        return "accepted"
    return f"matrix deviates from Hermitian by {defect:.3e}"


def test_require_hermitian_decides_as_the_exact_rule_around_the_tolerance():
    # defects from far inside to far outside herm_tol, just below and just
    # above it included: the Frobenius pre-screen never moves a verdict
    rng = SplitMix64(41)
    verdicts = set()
    for n in (2, 3, 6, 9):
        M = random_hermitian(rng, n)
        tol = HERM_TOL_FACTOR * (1.0 + operator_norm(M))
        E = rng.complex_normal_matrix(n, n)
        for shape in (np.eye(n)[:, ::-1] * 1j, E - E.conj().T, E):
            unit = shape / operator_norm(shape - shape.conj().T)
            for factor in (1e-4, 0.3, 0.999, 1.001, 3.0, 1e4):
                Mk = M + factor * tol * unit
                expected = _exact_verdict(Mk)
                assert _verdict(Mk) == expected
                verdicts.add((factor < 1, expected == "accepted"))
    assert verdicts == {(True, True), (False, False)}


def test_require_hermitian_on_overflowing_entries_takes_the_exact_rule():
    # ||M||_F and ||M - M*||_F overflow (to inf for real entries, to nan
    # for complex ones), so no bracket can be formed and the exact 2-norms
    # decide
    rng = SplitMix64(43)
    G = rng.complex_normal_matrix(4, 4).real
    for M in (1e200 * random_hermitian(rng, 4), 1e200 * (G + G.T)):
        verdicts = []
        for defect in (0.0, 1e-12, 1e-9):
            Mk = M.copy()
            Mk[0, 1] += defect * 1e200
            D = Mk - Mk.conj().T
            assert not np.isfinite(np.vdot(Mk, Mk).real)
            assert defect == 0.0 or not np.isfinite(np.vdot(D, D).real)
            verdicts.append(_verdict(Mk))
            assert verdicts[-1] == _exact_verdict(Mk)
        assert verdicts[:2] == ["accepted", "accepted"] and verdicts[2] != "accepted"


def test_require_hermitian_takes_no_norm_for_a_generated_instance(monkeypatch):
    # generated A and C are rotations U diag(w) U*, Hermitian only up to
    # rounding; the Frobenius bracket accepts them without an SVD
    import riccatilab.block as block
    import riccatilab.linalg as linalg

    norms, defects = [], []
    real_norm, real_check = linalg.operator_norm, block.require_hermitian
    monkeypatch.setattr(linalg, "operator_norm", lambda M: norms.append(M) or real_norm(M))

    def check(M, what="matrix"):
        defects.append(bool((M - M.conj().T).any()))
        return real_check(M, what)

    monkeypatch.setattr(block, "require_hermitian", check)
    for seed in range(5):
        rl.generate(rl.GenSpec(seed, 2 + seed, 4 + 2 * seed, (-1.0, 1.0), 0.3, 0.5, "interior"))
    assert len(defects) == 10 and all(defects)
    assert norms == []


def test_require_hermitian_rejects():
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def sylvester_kron_oracle(Z, C, R):
    # vec(X Z - C X) = (Z^T kron I - I kron C) vec(X), column-major vec
    n_C, n_A = R.shape
    K = np.kron(Z.T, np.eye(n_C)) - np.kron(np.eye(n_A), C)
    return np.linalg.solve(K, R.flatten(order="F")).reshape((n_C, n_A), order="F")


def solve_in_eig_C(Z, C, R):
    # X Z - C X = R through the kernel, in the eigenbasis of C = U diag(c) U*
    c, U = np.linalg.eigh(C)
    return U @ sylvester_in_eig_C(Z, c, U.conj().T @ R)


def test_solve_in_eig_C_diagonal_closed_form():
    Z = np.diag([1.0, 3.0])
    c = np.array([-1.0, 0.0, 5.0])
    R = np.arange(6, dtype=float).reshape(3, 2) + 1
    Y = sylvester_in_eig_C(Z, c, R)
    expected = R / (np.array([1.0, 3.0])[None, :] - c[:, None])
    assert operator_norm(Y - expected) <= 1e-14


def test_solve_in_eig_C_worked_example():
    # Y Z - diag(1, -1) Y = G: solvable by hand row by row
    Z = np.array([[2.0]])
    G = np.array([[1.0], [3.0]])
    Y = sylvester_in_eig_C(Z, np.array([1.0, -1.0]), G)
    assert np.allclose(Y, [[1.0], [1.0]], atol=1e-14)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_solve_in_eig_C_matches_kron(n_A, n_C, seed):
    rng = SplitMix64(seed)
    # Hermitian coefficients with spectra pushed apart so the division
    # in the eigenbasis stays well conditioned
    Z = random_hermitian(rng, n_A) + 10.0 * np.eye(n_A)
    C = random_hermitian(rng, n_C) - 10.0 * np.eye(n_C)
    R = rng.complex_normal_matrix(n_C, n_A)
    X = solve_in_eig_C(Z, C, R)
    ref = sylvester_kron_oracle(Z, C, R)
    scale = 1 + operator_norm(R)
    assert operator_norm(X - ref) <= 1e-9 * scale
    assert operator_norm(X @ Z - C @ X - R) <= 1e-9 * scale


def test_solve_in_eig_C_rejects_overlap():
    with pytest.raises(SpectraOverlap):
        sylvester_in_eig_C(np.eye(2), np.ones(3), np.ones((3, 2)))


def test_solve_in_eig_C_solves_a_defective_Z_row_by_row(monkeypatch):
    # Z = [[0, 1], [0, 0]] has one eigenvector, so diagonalizing it fails
    # silently; the row path solves each shifted system directly
    Z = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.array([-1.0, 1.0])
    G = np.array([[1.0, 0.3], [0.5, 1.0]])
    assert Z.size < ROW_SOLVE_LIMIT
    Y = sylvester_in_eig_C(Z, c, G)
    assert operator_norm(Y @ Z - np.diag(c) @ Y - G) <= 1e-15
    monkeypatch.setattr(linalg, "ROW_SOLVE_LIMIT", 0)
    Y = sylvester_in_eig_C(Z, c, G)
    assert operator_norm(Y @ Z - np.diag(c) @ Y - G) > 1.0


def test_bauer_fike_screen_never_skips_a_refusal():
    # A is Hermitian, so eigvals(A + E) stays within ||E||_F of sigma(A).
    # E moves the eigenvalue of A nearest sigma(C) the fraction t of the
    # way onto it, plus a non-normal part; t runs across 1 at the scale of
    # TOL_SPEC and across [0, 1.2] at the scale of d.  The screen may
    # skip eig only where the exact rule passes: steps that hold A as a
    # reference decide as steps whose reference (d = 0) never settles.
    rng = SplitMix64(14)
    skipped = refused = 0
    for trial in range(400):
        n_A, n_C = 1 + trial % 4, 1 + (trial // 4) % 4
        A, C = random_hermitian(rng, n_A), random_hermitian(rng, n_C)
        a, V = np.linalg.eigh(A)
        c = np.linalg.eigvalsh(C)
        gaps = np.abs(a[:, None] - c[None, :])
        j, i = np.unravel_index(np.argmin(gaps), gaps.shape)
        d = float(gaps[j, i])
        if trial % 2:
            t = 1.0 + (rng.uniform() - 0.5) * 10.0 * TOL_SPEC / d
        else:
            t = 1.2 * rng.uniform()
        N = rng.complex_normal_matrix(n_A, n_A)
        E = t * (c[i] - a[j]) * np.outer(V[:, j], V[:, j].conj())
        E = E + (TOL_SPEC if trial % 3 else 0.1 * d) * rng.uniform() * N / np.linalg.norm(N)
        Z, norm_A, norm_C = A + E, operator_norm(A), operator_norm(C)
        floor = _bauer_fike_floor(d, 1.0, norm_A + norm_C, E)  # the screen reads E, not Z - A
        sep = np.min(np.abs(np.linalg.eigvals(Z)[None, :] - c[:, None]))
        assert max(floor, _bauer_fike_floor(d, 1.0, norm_A + norm_C, Z - A)) <= sep
        G = rng.complex_normal_matrix(n_C, n_A)
        steps = _SylvesterSteps(A, c, G, d, norm_A, norm_C)
        outcomes = []
        for solve in (lambda Z: steps.solve(Z, E), lambda Z: sylvester_in_eig_C(Z, c, G)):
            try:
                outcomes.append(solve(Z))
            except SpectraOverlap:
                outcomes.append(None)
        assert (outcomes[0] is None) == (outcomes[1] is None)
        assert outcomes[0] is None or np.array_equal(outcomes[0], outcomes[1])
        skipped += floor > TOL_SPEC
        refused += outcomes[1] is None
    assert skipped > 100 and refused > 10


def _unitary(rng, n):
    Q, _ = np.linalg.qr(rng.complex_normal_matrix(n, n))
    return Q


def test_bauer_fike_screen_around_a_non_normal_reference_never_skips_a_refusal():
    # Z_r = P diag(z) P^{-1}, with the condition number of P from 1 to 1e4,
    # is the reference _eig_reference keeps, here held by steps whose A
    # reference (d = 0) never settles, after one eig step at Z_r; Z_r + E
    # must never be waved through when eigvals(Z_r + E) touches sigma(C).
    # E is, in turn:
    # (0) the perturbation that moves z_j fastest, kappa_j = ||p_j|| ||q_j||
    # times its norm, toward its nearest c_i, by f in [0, 1.2] of the way;
    # (1) an exact shift of z_j to within 5 TOL_SPEC of c_i, plus the same
    # fastest perturbation at the TOL_SPEC scale; (2) random, of norm up
    # to TOL_SPEC
    rng = SplitMix64(25)
    skipped = refused = wide = 0
    for trial in range(600):
        n_A, n_C, kind = 1 + trial % 4, 1 + (trial // 4) % 4, trial % 3
        target = 10.0 ** (4.0 * rng.uniform())
        P = _unitary(rng, n_A) @ np.diag(np.geomspace(1.0, target, n_A)) @ _unitary(rng, n_A)
        Q = np.linalg.inv(P)  # rows q_j: the left eigenvectors
        z = rng.complex_normal_matrix(1, n_A)[0] * np.array([1.0, 0.1])[np.arange(n_A) % 2]
        c = np.sort(2.0 * np.array([rng.uniform() for _ in range(n_C)]) - 1.0)
        gaps = np.abs(z[:, None] - c[None, :])
        j, i = np.unravel_index(np.argmin(gaps), gaps.shape)
        if gaps[j, i] <= 1e3 * TOL_SPEC:
            continue
        w = c[i] - z[j]
        Z_r = P @ np.diag(z) @ Q
        norm_C = operator_norm(np.diag(c))
        ref = linalg._eig_reference(Z_r, c, norm_C)
        kappas = np.linalg.norm(P, axis=0) * np.linalg.norm(Q, axis=1)  # unchanged by eig's scaling
        sep_r = np.min(np.abs(np.linalg.eig(Z_r)[0][None, :] - c[:, None]))
        assert ref is not None and ref.sep == sep_r and ref.kappa >= kappas.max() * (1.0 - 1e-8)
        kappa_j = kappas[j]
        fastest = np.outer(Q[j].conj(), P[:, j].conj()) / kappa_j  # q_j E p_j = ||E||_2 kappa_j
        if kind == 0:
            E = 1.2 * rng.uniform() * w / kappa_j * fastest
        elif kind == 1:
            shift = w + (rng.uniform() - 0.5) * 10.0 * TOL_SPEC * np.exp(2j * np.pi * rng.uniform())
            E = shift * np.outer(P[:, j], Q[j])
            E = E + TOL_SPEC * rng.uniform() / kappa_j * np.exp(2j * np.pi * rng.uniform()) * fastest
        else:
            N = rng.complex_normal_matrix(n_A, n_A)
            E = TOL_SPEC * rng.uniform() * N / np.linalg.norm(N)
        Z = Z_r + E
        floor = _bauer_fike_floor(ref.sep, ref.kappa, ref.scale, Z - ref.Z)
        sep = np.min(np.abs(np.linalg.eigvals(Z)[None, :] - c[:, None]))
        assert floor <= sep
        G = rng.complex_normal_matrix(n_C, n_A)
        held = _SylvesterSteps(Z_r, c, G, 0.0, 0.0, norm_C)
        held.solve(Z_r, np.zeros_like(Z_r))
        assert len(held._refs) == 1 and held._refs[0][1:] == ref[1:]
        outcomes = []
        for solve in (lambda Z: held.solve(Z, Z - Z_r), lambda Z: sylvester_in_eig_C(Z, c, G)):
            try:
                outcomes.append(solve(Z))
            except SpectraOverlap:
                outcomes.append(None)
        assert (outcomes[0] is None) == (outcomes[1] is None)
        assert outcomes[0] is None or np.array_equal(outcomes[0], outcomes[1])
        skipped += floor > TOL_SPEC
        refused += outcomes[1] is None
        wide += floor > TOL_SPEC and kappa_j > 1e2 and kind == 0
    assert skipped > 200 and refused > 20 and wide >= 10


def test_eig_reference_keeps_no_ill_conditioned_or_defective_matrix():
    # the decomposition's own error grows like n eps kappa^2 ||Z||; past
    # n eps kappa = FRO_SLACK / 64 the floor's slack no longer covers it,
    # and a defective Z has no reference at all; the separation is still
    # the one eig found, and an overlap still raises
    c = np.array([-1.0, 1.0])
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert linalg._eig_reference(jordan, c, 1.0) is None
    assert _require_apart(np.linalg.eig(jordan)[0], c) == 1.0
    P = np.array([[1.0, 1.0], [0.0, 1e-7]], dtype=complex)  # kappa about 4e14
    Z = P @ np.diag([0.25, -0.5]) @ np.linalg.inv(P)
    assert linalg._eig_reference(Z, c, 1.0) is None
    assert _require_apart(np.linalg.eig(Z)[0], c) == pytest.approx(0.5, rel=1e-6)
    P[1, 1] = 0.5
    Z = P @ np.diag([0.25, -0.5]) @ np.linalg.inv(P)
    ref = linalg._eig_reference(Z, c, 1.0)
    unit = np.linalg.eig(Z)[1]  # P with the unit columns eig returns
    assert ref is not None and _require_apart(np.linalg.eig(Z)[0], c) == ref.sep == 0.5
    assert ref.kappa == np.linalg.norm(unit) * np.linalg.norm(np.linalg.inv(unit))
    with pytest.raises(SpectraOverlap):
        linalg._eig_reference(np.diag([0.25, 1.0 + 1e-9]).astype(complex), c, 1.0)


def test_linalg_alone_owns_the_sylvester_steps():
    # solvers hands each fixed-point step to linalg._SylvesterSteps and
    # names neither the path's limit nor the overlap screen; one function
    # of linalg reads the limit
    src = Path(rl.__file__).parent
    solvers_src = (src / "solvers.py").read_text(encoding="utf-8")
    for name in ("ROW_SOLVE_LIMIT", "_bauer_fike_floor", "_eig_reference", "_OverlapReference", "_require_apart"):
        assert not re.search(rf"\b{name}\b", solvers_src), name
    tree = ast.parse((src / "linalg.py").read_text(encoding="utf-8"))
    readers = [
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "ROW_SOLVE_LIMIT" for n in ast.walk(f))
    ]
    assert readers == ["__init__"]
