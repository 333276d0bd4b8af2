"""Theorem certificates: hypotheses, bounds, margins, and sharpness."""

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.errors import (
    DeltaNonpositive,
    HypothesisViolated,
    NotSubordinated,
    RiccatiLabError,
    WrongSubspaceDimension,
)
from riccatilab.linalg import TOL_CERT, operator_norm
from riccatilab.rng import SplitMix64
from riccatilab.solvers import RiccatiSolution, residual_acceptable


def solved_example(d=1.0, b=0.5):
    p = rl.example_problem(d, b)
    gap = rl.select_gap(p)
    return p, gap, rl.solve_spectral(p, gap)


def test_certificates_take_no_eigenvectors(monkeypatch):
    # sigma(A) and the squared blocks' spectra are values only: building a
    # problem and its d takes one eigh, for C (whose U every resolvent of C
    # reads), and certify_all on a solved problem takes none
    q = rl.generate(rl.GenSpec(11, 8, 24, (-1.0, 1.0), 0.3, 0.5))
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or real(*a, **k))
    p = rl.BlockProblem(q.A, q.B, q.C)
    p.d
    assert len(calls) == 1
    gap = rl.select_gap(p, 0.0)
    sol = rl.solve_spectral(p, gap)
    calls.clear()
    results = rl.certify_all(p, gap, sol)
    assert calls == []
    assert [isinstance(cert, rl.Certificate) for _, cert in results] == [True] * 4 + [False, True]


def test_certificate_margin_orientation_upper_bounds(battery500, battery200_subordinated):
    # every certificate of certify_all reports through one verdict rule:
    # margin is bound - observed (observed - bound for the one lower
    # bound), and passing needs the hypothesis and margin >= -TOL_CERT
    instances = [solved_example(1.0, b) for b in (0.5, 1.0, 1.41, 1.5)]
    instances += [(p, gap, sol) for _, p, gap, sol in battery500.items[:20]]
    for s, p in battery200_subordinated.items[:20]:
        gap = rl.select_gap(p, (s.gap[0] + s.gap[1]) / 2)
        instances.append((p, gap, rl.solve_spectral(p, gap)))
    seen = set()
    for p, gap, sol in instances:
        for theorem, cert in rl.certify_all(p, gap, sol):
            if isinstance(cert, Exception):
                continue
            seen.add(theorem)
            assert cert.theorem == theorem
            if theorem == "squared_subordination":
                assert cert.margin == cert.observed_value - cert.bound_value
            else:
                assert cert.margin == cert.bound_value - cert.observed_value
            if cert.passed:
                assert cert.hypothesis_ok and cert.margin >= -TOL_CERT
    assert seen == {theorem for theorem, _ in rl.certify_all(*instances[0])}
    assert len(seen) == 6


def test_existence_certificate_on_example():
    p, gap, sol = solved_example()
    cert = rl.certify_existence(p, gap, sol)
    assert cert.theorem == "existence_1i"
    assert cert.hypothesis_ok and cert.passed
    # hypothesis slack: sqrt(d |gap|) - ||B|| = sqrt(2) - 0.5
    assert cert.margin == pytest.approx(np.sqrt(2) - 0.5, rel=1e-12)


def test_existence_rejects_infinite_gap():
    p = rl.example_problem(1.0, 0.5)
    sol = rl.solve_spectral(p, rl.select_gap(p))
    with pytest.raises(HypothesisViolated):
        rl.certify_existence(p, rl.SpectralGap(-np.inf, 1.0), sol)


def _existence_hypothesis(p, gap, sol):
    try:
        return rl.certify_existence(p, gap, sol).hypothesis_ok
    except HypothesisViolated:
        return False


def _enclosure_exists(p, gap):
    try:
        rl.enclosure_bounds(p, gap)
    except HypothesisViolated:
        return False
    return True


def test_existence_and_enclosure_share_one_hypothesis():
    # one rule decides both: the existence certificate's hypothesis holds
    # exactly when the enclosure is defined, on interior, subordinated and
    # overlapping instances with couplings on both sides of sqrt(d |gap|)
    m = SplitMix64(20261018)
    outcomes = []
    for k in range(240):
        placement = ("interior", "subordinated", "overlapping")[k % 3]
        seed = m.next_u64()
        n_A, n_C = 1 + m.next_u64() % 4, 2 + m.next_u64() % 7
        alpha = 0.0 if placement == "subordinated" else -(0.5 + m.uniform())
        beta = 0.5 + m.uniform()
        d_target = (0.08 + 0.3 * m.uniform()) * (beta - alpha)
        spec = rl.GenSpec(seed, n_A, n_C, (alpha, beta), d_target, 1.6 * m.uniform(), placement)
        p = rl.generate(spec)
        gap = rl.select_gap(p, (alpha + beta) / 2)
        try:
            sol = rl.solve_spectral(p, gap)
        except rl.RiccatiLabError:
            continue
        hyp = _existence_hypothesis(p, gap, sol)
        assert hyp == _enclosure_exists(p, gap), spec
        outcomes.append(hyp)
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40
    # within tol_cert below the threshold both refuse: one slack, not two
    for b in (np.sqrt(2.0), np.sqrt(2.0) - 5e-10, np.sqrt(2.0) - 2e-9):
        p, gap, sol = solved_example(1.0, b)
        assert _existence_hypothesis(p, gap, sol) == _enclosure_exists(p, gap) == (b < np.sqrt(2.0) - 1e-9)


@pytest.mark.parametrize("kappa", [0.5, 0.9, 0.99, 0.999])
def test_existence_holds_below_the_frontier_on_every_interior_instance(kappa, battery500):
    # the theorem on random instances: with B scaled to ||B|| = kappa
    # sqrt(d |gap|), kappa < 1, the gap solution exists, is the one in the
    # uniqueness class, and the existence certificate passes
    for spec, p, gap, _ in battery500.items:
        scaled = rl.BlockProblem(p.A, p.B * (kappa * np.sqrt(p.d * gap.length) / p.norm_B), p.C)
        sol = rl.solve_spectral(scaled, gap)
        assert rl.uniqueness_class_check(scaled, sol, gap), spec
        cert = rl.certify_existence(scaled, gap, sol)
        assert cert.hypothesis_ok and cert.passed, spec


def test_existence_holds_where_contraction_fails():
    # coupling in [d, sqrt(2) d): the gap solution exists but is no
    # longer a contraction; the two certificates must disagree exactly so
    p, gap, sol = solved_example(1.0, 1.41)
    exist = rl.certify_existence(p, gap, sol)
    contr = rl.certify_contraction(p, gap, sol)
    assert exist.hypothesis_ok and exist.passed
    assert not contr.hypothesis_ok
    assert not contr.passed
    assert sol.x_norm == pytest.approx(1.41, rel=1e-12)


def test_contraction_hypothesis_fails_at_threshold():
    # b = d sits exactly on ||B|| = sqrt(d(|gap| - d)); the strict
    # hypothesis must fail and ||X|| = 1 exactly
    p, gap, sol = solved_example(1.0, 1.0)
    cert = rl.certify_contraction(p, gap, sol)
    assert not cert.hypothesis_ok
    assert sol.x_norm == pytest.approx(1.0, rel=1e-12)


def test_contraction_bound_sharp_on_example():
    # on this family the bound collapses to b/d = ||X||
    for d, b in [(1.0, 0.5), (2.0, 0.7), (0.5, 0.2)]:
        p, gap, sol = solved_example(d, b)
        cert = rl.certify_contraction(p, gap, sol)
        assert cert.hypothesis_ok
        assert cert.bound_value == pytest.approx(b / d, rel=1e-12)
        assert abs(cert.margin) <= 1e-10
        assert cert.passed


def test_contraction_nested_in_existence(battery300):
    # the contraction hypothesis implies the existence hypothesis
    for s, p, gap, sol in battery300.items:
        contr = rl.certify_contraction(p, gap, sol)
        exist = rl.certify_existence(p, gap, sol)
        assert contr.hypothesis_ok
        assert exist.hypothesis_ok
        assert contr.observed_value < 1.0


def test_tan_theta_certificate_on_example():
    p, gap, sol = solved_example()
    cert = rl.certify_tan_theta(p, sol)
    # delta = dist(sigma(Z), sigma(C)) = d here, so the bound is b/d and
    # the family attains it exactly
    assert cert.bound_value == pytest.approx(0.5, rel=1e-12)
    assert abs(cert.margin) <= 1e-10
    assert cert.passed


def test_tan_theta_needs_positive_delta():
    # Z and C share the eigenvalue 1 when X = 0 and sigma(A) meets sigma(C)
    p = rl.BlockProblem(np.array([[1.0]]), np.zeros((1, 2)), np.diag([1.0, -1.0]))
    sol = rl.RiccatiSolution(p, np.zeros((2, 1)), "handmade")
    with pytest.raises(DeltaNonpositive):
        rl.certify_tan_theta(p, sol)


def _hull_in_one_gap_of_C(a, c):
    # B = 0 and X = 0 put sigma(Z) at sigma(A); the hull test as find_gaps states it
    p = rl.BlockProblem(np.diag(a), np.zeros((len(a), len(c))), np.diag(c))
    cert = rl.certify_tan_theta(p, RiccatiSolution(p, np.zeros((len(c), len(a))), "zero"))
    lo, hi = min(a), max(a)
    assert cert.hypothesis_ok == any(g.contains(lo) and g.contains(hi) for g in rl.find_gaps(p.eig_C.values))
    return cert.hypothesis_ok


def test_tan_theta_refuses_a_hull_that_straddles_sigma_C():
    assert _hull_in_one_gap_of_C([-1.0, -0.5], [0.0, 2.0])
    assert not _hull_in_one_gap_of_C([-1.0, 1.0], [0.0, 2.0])
    assert not _hull_in_one_gap_of_C([-1.0, 3.0], [0.0, 2.0])


def test_tan_theta_hull_test_across_a_cluster_of_C_closer_than_tol_spec():
    # 0 and 3e-9 are one cluster of find_gaps, as are 2 and 2 + 3e-9
    c = [0.0, 3e-9, 2.0, 2.0 + 3e-9]
    assert _hull_in_one_gap_of_C([0.5, 1.5], c)
    assert _hull_in_one_gap_of_C([-1.0, -0.5], c)
    assert not _hull_in_one_gap_of_C([-0.5, 0.5], c)
    assert not _hull_in_one_gap_of_C([0.5, 2.5], c)


def test_a_perturbed_solution_fails_existence():
    # X + 1e-3 is no solution; its residual is derived from X, never supplied
    p = rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5))
    gap = rl.select_gap(p, 0.0)
    sol = rl.solve_spectral(p, gap)
    assert rl.certify_existence(p, gap, sol).passed
    existence = rl.certify_existence(p, gap, RiccatiSolution(p, sol.X + 1e-3, "perturbed"))
    assert existence.details["residual"] > 1e-2
    assert not existence.details["uniqueness_class"] and not existence.passed


def test_tan_theta_on_overlapping_instances(overlapping100):
    # no mutual-position assumption: the bound holds as soon as a graph
    # solution exists, even with interleaved spectra
    for s, p, gap, sol in overlapping100.items[:30]:
        cert = rl.certify_tan_theta(p, sol)
        assert cert.passed


def test_apriori_bound_weaker_but_solve_free(battery500):
    for s, p, gap, sol in battery500.items[:50]:
        tan = rl.certify_tan_theta(p, sol)
        apriori = rl.certify_apriori(p, gap, sol)
        assert apriori.passed
        # the a priori delta uses the enclosure endpoints, never sigma(Z),
        # so it can only be at most as sharp
        assert apriori.bound_value >= tan.bound_value - 1e-12


def test_apriori_propagates_hypothesis_failure():
    # ||B|| = 1.5 > sqrt(2): past the existence threshold the enclosure
    # formula has no meaning, so the certifier refuses rather than reports
    p, gap, sol = solved_example(1.0, 1.5)
    with pytest.raises(HypothesisViolated):
        rl.certify_apriori(p, gap, sol)


def test_tan2theta_requires_subordination():
    p, _, sol = solved_example()  # sigma(A) inside the gap of C
    with pytest.raises(NotSubordinated):
        rl.certify_tan2theta(p, sol)


def test_tan2theta_scalar_equality():
    # A = 0, C = d, B = b: |X| = (sqrt(d^2 + 4b^2) - d) / (2b), which is
    # exactly tan(arctan(2b/d)/2)
    for d, b in [(1.0, 0.7), (2.0, 3.0), (0.5, 0.1)]:
        p = rl.BlockProblem(np.array([[0.0]]), np.array([[b]]), np.array([[d]]))
        cert = rl.certify_tan2theta(p, rl.solve_spectral(p, rl.select_gap(p)))
        expected = (np.hypot(d, 2 * b) - d) / (2 * b)
        assert cert.observed_value == pytest.approx(expected, rel=1e-12)
        assert abs(cert.margin) <= 1e-10
        assert cert.passed
        assert cert.observed_value < 1.0


def test_tan2theta_on_battery(battery200_subordinated):
    for s, p in battery200_subordinated.items[:50]:
        cert = rl.certify_tan2theta(p, _subordinated_solved(s)[2])
        assert cert.passed
        assert cert.observed_value < 1.0


def test_squared_shift_example_numbers():
    # d = 1, b = 0.5, gap (-1, 1), gamma = 0: the shifted problem has
    # sigma(A-hat) = {0.25}, sigma(C-hat) = {1, 1.25}, so the separation
    # is 0.75 and meets the floor d(|gap| - d) - b^2 exactly
    p, gap, sol = solved_example(1.0, 0.5)
    shifted, cert = rl.squared_shift(p, gap)
    assert np.allclose(np.linalg.eigvalsh(shifted.A), [0.25], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(shifted.C), [1.0, 1.25], atol=1e-12)
    assert cert.theorem == "squared_subordination"
    assert cert.bound_value == pytest.approx(0.75, rel=1e-12)
    assert cert.observed_value == pytest.approx(0.75, rel=1e-12)
    # lower-bound certificate: margin = observed - bound
    assert cert.margin == pytest.approx(cert.observed_value - cert.bound_value, abs=1e-15)
    assert cert.passed


def test_squared_shift_is_subordinated(battery300):
    for s, p, gap, sol in battery300.items[:50]:
        shifted, cert = rl.squared_shift(p, gap)
        assert cert.passed
        assert np.linalg.eigvalsh(shifted.A).max() < np.linalg.eigvalsh(shifted.C).min()


def test_squared_shift_blocks_are_the_literal_square():
    p, gap, sol = solved_example(1.0, 0.5)
    gamma = gap.midpoint
    H = rl.assemble_H(p)
    sq = (H - gamma * np.eye(3)) @ (H - gamma * np.eye(3))
    shifted, cert = rl.squared_shift(p, gap)
    assert operator_norm(rl.assemble_H(shifted) - sq) <= 1e-12


def test_squared_shift_meets_its_floor_whenever_n_A_is_one(battery500):
    # with A = [a], |a - gamma| = |gap|/2 - d, so A-hat = (a - gamma)^2 +
    # ||B||^2 is the containment top, and a rank-one B*B cannot lift both
    # gap ends of (C - gamma)^2, so min sigma(C-hat) = (|gap|/2)^2 and the
    # separation is the floor d(|gap| - d) - ||B||^2: both hold up to
    # rounding, the margin within eigvalsh's few eps of ||C-hat|| (3.9 eps
    # at worst here) and A-hat within a few eps of the top (3.7 eps)
    eps = np.finfo(float).eps
    applicable = 0
    for s, p, gap, sol in battery500.items:
        if p.n_A != 1:
            continue
        try:
            shifted, cert = rl.squared_shift(p, gap)
        except HypothesisViolated:
            continue
        applicable += 1
        chat_norm = float(np.linalg.eigvalsh(shifted.C)[-1])
        assert abs(cert.margin) <= 16 * eps * chat_norm
        top = cert.details["ahat_interval_top"]
        assert abs(float(shifted.A[0, 0].real) - top) <= 8 * eps * top
    assert applicable == 64


def test_squared_shift_rejects_weak_hypothesis():
    p, gap, sol = solved_example(1.0, 1.0)
    with pytest.raises(HypothesisViolated):
        rl.squared_shift(p, gap)


def test_an_overflowing_frame_violates_the_hypothesis():
    # at this scale (A - gamma) B + B (C - gamma) and (C - gamma)^2 overflow
    p, gap, sol = solved_example(1e300, 1e300)
    with pytest.raises(HypothesisViolated, match="overflows"):
        rl.certify_contraction(p, gap, sol)
    with pytest.raises(HypothesisViolated, match="overflows"):
        rl.squared_shift(p, gap)


def test_sigma_A_beyond_the_gap_fails_the_hypothesis_without_a_crash():
    # sigma(A) = {5} lies outside the gap (-1, 1), so d = 4 exceeds |gap|
    # and d (|gap| - d) = -8: the threshold is 0, which no ||B|| is below
    p = rl.BlockProblem(np.array([[5.0]]), np.array([[1.0, 1.0]]), np.diag([-1.0, 1.0]))
    gap = rl.SpectralGap(-1.0, 1.0)
    sol = rl.solve_spectral(p, gap)
    assert sol.x_norm == pytest.approx(4.8009, abs=1e-4)
    pairs = dict(rl.certify_all(p, gap, sol))
    contraction = pairs["contraction_1ii"]
    assert isinstance(contraction, rl.Certificate)
    assert not contraction.hypothesis_ok and not contraction.passed
    assert contraction.details["hypothesis_threshold"] == 0.0
    assert isinstance(pairs["squared_subordination"], HypothesisViolated)
    assert isinstance(pairs["apriori_bound"], HypothesisViolated)
    assert not pairs["existence_1i"].hypothesis_ok


def test_certificate_details_are_json_ready():
    from riccatilab.serialize import certificate_to_dict, dumps

    p, gap, sol = solved_example()
    cert = rl.certify_existence(p, gap, sol)
    payload = certificate_to_dict(cert)
    assert payload["theorem"] == "existence_1i"
    dumps(payload)  # must not raise


THEOREMS = [
    "existence_1i",
    "contraction_1ii",
    "tan_theta_2",
    "apriori_bound",
    "tan_2theta_dk",
    "squared_subordination",
]


def test_certify_all_reports_every_theorem_in_order():
    p, gap, sol = solved_example()
    pairs = rl.certify_all(p, gap, sol)
    assert [name for name, _ in pairs] == THEOREMS
    for name, cert in pairs:
        if name == "tan_2theta_dk":
            assert isinstance(cert, NotSubordinated)
        else:
            assert cert.theorem == name and cert.passed


def test_certify_all_on_a_ray_marks_finite_gap_theorems_inapplicable():
    p = rl.generate(rl.GenSpec(5, 2, 4, (0.0, 1.0), 0.3, 1.2, "subordinated"))
    gap = rl.select_gap(p, 0.5)
    assert not gap.is_finite
    pairs = dict(rl.certify_all(p, gap, rl.solve_spectral(p, gap)))
    for name in ("existence_1i", "contraction_1ii", "apriori_bound", "squared_subordination"):
        assert isinstance(pairs[name], HypothesisViolated)
    assert pairs["tan_theta_2"].passed and pairs["tan_2theta_dk"].passed


def test_certify_all_lets_a_non_library_error_propagate(monkeypatch):
    # only a RiccatiLabError means "not applicable"; a plain ValueError is
    # a fault, and reporting it as a verdict would hide it
    import riccatilab.certificates as certificates

    def broken(p, gap, sol, frame=None):
        raise ValueError("math domain error")

    p, gap, sol = solved_example()
    monkeypatch.setattr(certificates, "certify_contraction", broken)
    with pytest.raises(ValueError, match="math domain error"):
        rl.certify_all(p, gap, sol)


def test_certify_all_calls_certifiers_by_name(monkeypatch):
    # the benchmark's tracer rebinds module attributes; certify_all must
    # call through them, not through references taken at import
    import riccatilab.certificates as certificates

    names = (
        "_shifted_frame",
        "certify_existence",
        "certify_contraction",
        "certify_tan_theta",
        "certify_apriori",
        "certify_tan2theta",
        "_squared_subordination",
    )
    calls = []

    def spy(name, original):
        def called(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return called

    for name in names:
        monkeypatch.setattr(certificates, name, spy(name, getattr(certificates, name)))
    p, gap, sol = solved_example()
    rl.certify_all(p, gap, sol)
    assert sorted(calls) == sorted(names)


def _subordinated_solved(spec=rl.GenSpec(11, 8, 24, (0.0, 1.0), 0.3, 1.2, "subordinated")):
    p = rl.generate(spec)
    gap = rl.select_gap(p, (spec.gap[0] + spec.gap[1]) / 2)
    return p, gap, rl.solve_spectral(p, gap)


def _solved_below_mid(p):
    # the theorem's X, from the spectral route on (-inf, mid) as certificates
    # calls it, so a spy on certificates.solve_spectral counts this solve too
    import riccatilab.certificates as certificates

    mid = (float(p.sigma_A[-1]) + float(p.eig_C.values[0])) / 2.0
    return certificates.solve_spectral(p, rl.SpectralGap(-np.inf, mid))


def _spy_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_certify_all_on_a_solved_subordinated_problem_solves_nothing(monkeypatch):
    # tan 2-theta certifies the given spectral X, so no eigh of H and no
    # second spectral solve
    import riccatilab.certificates as certificates

    p, gap, sol = _subordinated_solved()
    eighs = _spy_calls(monkeypatch, np.linalg, "eigh")
    solves = _spy_calls(monkeypatch, certificates, "solve_spectral")
    pairs = dict(rl.certify_all(p, gap, sol))
    assert eighs == [] and solves == []
    assert pairs["tan_2theta_dk"].passed


def test_certify_all_builds_one_frame_and_validates_nothing(monkeypatch):
    import riccatilab.block as block
    import riccatilab.certificates as certificates

    p, gap, sol = solved_example()
    frames = _spy_calls(monkeypatch, certificates, "_shifted_frame")
    validations = _spy_calls(monkeypatch, block, "require_hermitian")
    pairs = dict(rl.certify_all(p, gap, sol))
    assert len(frames) == 1 and validations == []
    assert pairs["contraction_1ii"].passed and pairs["squared_subordination"].passed


def test_tan2theta_certifies_the_given_solution_bit_for_bit(monkeypatch, battery200_subordinated):
    # on every instance the given spectral X is the one the re-solve on
    # (-inf, mid) reads off the same eigenvectors, so reusing it moves no bit
    import riccatilab.certificates as certificates

    solves = _spy_calls(monkeypatch, certificates, "solve_spectral")
    for s, p in battery200_subordinated.items:
        sol = rl.solve_spectral(p, rl.select_gap(p, (s.gap[0] + s.gap[1]) / 2))
        solves.clear()
        given = rl.certify_tan2theta(p, sol)
        assert solves == []
        assert repr(given) == repr(rl.certify_tan2theta(p, _solved_below_mid(p)))
        assert len(solves) == 1


def test_tan2theta_falls_back_to_the_re_solve(monkeypatch, battery200_subordinated):
    # a solution of another gap, or an inaccurate X, is not the theorem's
    # solution: the certificate is then the re-solve's
    import riccatilab.certificates as certificates

    others = []
    for s, p in battery200_subordinated.items:
        for gap in rl.find_gaps(p.eig_C.values)[1:]:
            try:
                others.append((p, rl.solve_spectral(p, gap)))
            except RiccatiLabError:
                pass
    assert len(others) >= 5
    for s, p in battery200_subordinated.items[:20]:
        sol = rl.solve_spectral(p, rl.select_gap(p, (s.gap[0] + s.gap[1]) / 2))
        bad = RiccatiSolution(p, sol.X + 0.1, "perturbed")
        assert not residual_acceptable(p, bad)
        others.append((p, bad))
    solves = _spy_calls(monkeypatch, certificates, "solve_spectral")
    for p, other in others:
        solves.clear()
        reference = rl.certify_tan2theta(p, _solved_below_mid(p))
        assert repr(rl.certify_tan2theta(p, other)) == repr(reference)
        assert len(solves) == 2


def test_certify_all_agrees_with_each_public_certifier(battery300, battery200_subordinated):
    # the shared frame, the given X and the bare squared blocks change no
    # bit of any certificate, and no error class
    instances = [(p, gap, sol) for _, p, gap, sol in battery300.items[:60]]
    for s, p in battery200_subordinated.items[:60]:
        instances.append(_subordinated_solved(s))
    instances.append(solved_example(1.0, 1.0))  # contraction hypothesis fails
    standalone = {
        "existence_1i": lambda p, gap, sol: rl.certify_existence(p, gap, sol),
        "contraction_1ii": lambda p, gap, sol: rl.certify_contraction(p, gap, sol),
        "tan_theta_2": lambda p, gap, sol: rl.certify_tan_theta(p, sol),
        "apriori_bound": lambda p, gap, sol: rl.certify_apriori(p, gap, sol),
        "tan_2theta_dk": lambda p, gap, sol: rl.certify_tan2theta(p, sol),
        "squared_subordination": lambda p, gap, sol: rl.squared_shift(p, gap)[1],
    }
    kinds = set()
    for p, gap, sol in instances:
        for theorem, cert in rl.certify_all(p, gap, sol):
            try:
                alone = standalone[theorem](p, gap, sol)
            except RiccatiLabError as err:
                alone = err
            if isinstance(cert, Exception):
                assert type(cert) is type(alone), theorem
            else:
                assert repr(cert) == repr(alone), theorem
            kinds.add((theorem, type(cert).__name__))
    for theorem in standalone:
        assert (theorem, "Certificate") in kinds
    assert ("squared_subordination", "HypothesisViolated") in kinds
    assert ("tan_2theta_dk", "NotSubordinated") in kinds


def test_squared_shift_blocks_are_the_symmetrized_squares_bit_for_bit(battery300):
    for s, p, gap, sol in battery300.items[:50]:
        Ash = p.A - gap.midpoint * np.eye(p.n_A)
        Csh = p.C - gap.midpoint * np.eye(p.n_C)
        Ahat = Ash @ Ash + p.B @ p.B.conj().T
        Chat = Csh @ Csh + p.B.conj().T @ p.B
        shifted, _ = rl.squared_shift(p, gap)
        for block, expected in (
            (shifted.A, (Ahat + Ahat.conj().T) / 2.0),
            (shifted.B, Ash @ p.B + p.B @ Csh),
            (shifted.C, (Chat + Chat.conj().T) / 2.0),
        ):
            assert block.shape == expected.shape and block.tobytes() == expected.tobytes()


def test_inaccurate_solution_is_reported_not_refused():
    p, gap, sol = solved_example()
    bad = RiccatiSolution(p, sol.X + 0.1, "perturbed")
    existence = rl.certify_existence(p, gap, bad)
    assert existence.details["residual_ok"] is False and not existence.passed
    tan_theta = rl.certify_tan_theta(p, bad)
    assert not tan_theta.hypothesis_ok and not tan_theta.passed


def _verdicts(p):
    gap = rl.select_gap(p, 0.0)
    sol = rl.solve_spectral(p, gap)
    verdicts = [
        (theorem, type(cert).__name__ if isinstance(cert, Exception) else cert.passed)
        for theorem, cert in rl.certify_all(p, gap, sol)
    ]
    return verdicts, sol.x_norm


SCALING_SPECS = pytest.mark.parametrize(
    "spec",
    [
        rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5),
        rl.GenSpec(8, 3, 6, (-1.0, 1.0), 0.3, 0.5),
        rl.GenSpec(11, 16, 48, (-1.0, 1.0), 0.3, 0.5),
    ],
    ids=lambda spec: f"seed{spec.seed}-{spec.n_A}x{spec.n_C}",
)


@SCALING_SPECS
def test_certificates_are_invariant_under_large_scaling(spec):
    # H -> sH leaves X and every verdict unchanged; eigvals of the scaled,
    # non-normal Z picks up imaginary parts far above 1e-8 here, the
    # Hermitian compressions do not
    p = rl.generate(spec)
    base, x_norm = _verdicts(p)
    for s in (1e-7, 1e-6, 1e-5, 1e8, 1e10, 1e12):
        verdicts, x_norm_s = _verdicts(rl.BlockProblem(s * p.A, s * p.B, s * p.C))
        assert verdicts == base, s
        assert x_norm_s == pytest.approx(x_norm, rel=1e-12, abs=0.0)


@SCALING_SPECS
@pytest.mark.xfail(
    strict=True,
    raises=WrongSubspaceDimension,
    reason="ROADMAP item 1(a): the absolute 1e-8 margins at both ends cover the gap (-1e-8, 1e-8)",
)
def test_certificates_are_invariant_under_small_scaling(spec):
    p = rl.generate(spec)
    s = 1e-8
    assert _verdicts(rl.BlockProblem(s * p.A, s * p.B, s * p.C))[0] == _verdicts(p)[0]
