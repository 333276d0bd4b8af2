"""Acceptance battery.

One test per acceptance criterion, each printing a single [PASS]/[FAIL]
line with the measured numbers.  The shared instance batteries live in
conftest so the unit tests can probe the same instances.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.errors import IterationDiverged
from riccatilab.factorization import _w_scan
from riccatilab.linalg import TOL_SPEC, operator_norm
from riccatilab.rng import SplitMix64
from riccatilab.solvers import residual_scale

EXAMPLE_GRID = [(d, b) for d in (0.5, 1.0, 2.0) for b in (0.1, 0.5, 1.0, 1.2)]


@pytest.fixture()
def report(capsys):
    def _report(criterion, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
        assert ok, f"{criterion}: {detail}"

    return _report


def test_criterion_01_sharpness_example_exact(report):
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_norm = 0.0
    for d, b in EXAMPLE_GRID:
        p = rl.example_problem(d, b)
        sol = rl.solve_spectral(p, rl.select_gap(p))
        X_exact = rl.exact_example_solution(d, b)
        rel = operator_norm(sol.X - X_exact) / operator_norm(X_exact)
        worst_rel = max(worst_rel, rel)
        worst_norm = max(worst_norm, abs(sol.x_norm - b / d) / (b / d))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-12 and worst_norm <= 1e-12 and elapsed < 1.0
    report(
        "criterion 01 closed-form family",
        ok,
        f"12 (d,b) pairs, worst rel err {worst_rel:.2e}, "
        f"worst ||X||-b/d rel err {worst_norm:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_existence_suite(report, battery500):
    t0 = time.perf_counter()
    worst_res = 0.0
    for s, p, gap, sol in battery500.items:
        worst_res = max(worst_res, sol.residual / residual_scale(p, sol.X))
        assert rl.uniqueness_class_check(p, sol, gap)
        enc = rl.enclosure_bounds(p, gap)
        z = np.linalg.eigvals(sol.Z).real
        assert z.min() >= enc.lower - 1e-9 and z.max() <= enc.upper + 1e-9
        a = np.linalg.eigvalsh(p.A)
        assert enc.delta_minus < a.min() - gap.alpha
        assert enc.delta_plus < gap.beta - a.max()
    elapsed = battery500.gen_solve_seconds + time.perf_counter() - t0
    ok = worst_res <= 1e-9 and elapsed < 30.0
    report(
        "criterion 02 existence suite",
        ok,
        f"500 instances, worst residual/scale {worst_res:.2e}, "
        f"uniqueness + strict enclosure on all, {elapsed:.1f}s",
    )


def test_criterion_03_cross_method_oracle(report, battery500):
    worst_contour = 0.0
    worst_fix = 0.0
    converged = 0
    for s, p, gap, sol in battery500.items:
        contour = rl.build_contour(
            np.linalg.eigvals(sol.Z).real, np.linalg.eigvalsh(p.C)
        )
        alt = rl.solve_contour(p, sol.Z, contour)
        worst_contour = max(worst_contour, operator_norm(alt.X - sol.X))
        try:
            fix = rl.solve_fixedpoint(p, gap)
        except IterationDiverged:
            continue
        converged += 1
        worst_fix = max(worst_fix, operator_norm(fix.X - sol.X))
    ok = worst_contour <= 1e-8 and worst_fix <= 1e-7
    report(
        "criterion 03 cross-method oracle",
        ok,
        f"contour worst gap {worst_contour:.2e} (<=1e-8), fixed point "
        f"converged on {converged}/500, worst gap {worst_fix:.2e} (<=1e-7)",
    )


def test_criterion_04_factorization(report, battery500):
    worst_defect = 0.0
    min_smin = np.inf
    for s, p, gap, sol in battery500.items:
        grid = rl.factorization_grid(p, gap)
        worst_defect = max(worst_defect, rl.verify_factorization(p, sol, grid))
        enc = rl.enclosure_bounds(p, gap)
        W = _w_scan(p, sol.X, np.linspace(enc.lower, enc.upper, 25).astype(complex))
        min_smin = min(min_smin, float(np.min(np.linalg.svd(W, compute_uv=False)[:, -1])))
    ok = worst_defect <= 1e-9 and min_smin > TOL_SPEC
    report(
        "criterion 04 factorization",
        ok,
        f"500 instances x 50-point grids, worst defect {worst_defect:.2e} "
        f"(<=1e-9), min smin(W) on enclosure {min_smin:.2e}",
    )


def test_criterion_05_tan_theta_bound(report, battery500, overlapping100):
    worst_margin = np.inf
    for battery in (battery500, overlapping100):
        for s, p, gap, sol in battery.items:
            cert = rl.certify_tan_theta(p, sol)
            worst_margin = min(worst_margin, cert.margin)
    eq_margin = 0.0
    for d, b in EXAMPLE_GRID:
        p = rl.example_problem(d, b)
        sol = rl.solve_spectral(p, rl.select_gap(p))
        eq_margin = max(eq_margin, abs(rl.certify_tan_theta(p, sol).margin))
    ok = worst_margin >= -1e-9 and eq_margin <= 1e-10
    report(
        "criterion 05 tan-theta bound",
        ok,
        f"600 instances (500 interior + 100 overlapping), worst margin "
        f"{worst_margin:.2e} (>=-1e-9); sharpness family |margin| {eq_margin:.2e}",
    )


def test_criterion_06_contraction_suite(report, battery300):
    worst_margin = np.inf
    max_norm = 0.0
    for s, p, gap, sol in battery300.items:
        cert = rl.certify_contraction(p, gap, sol)
        assert cert.hypothesis_ok
        worst_margin = min(worst_margin, cert.margin)
        max_norm = max(max_norm, cert.observed_value)
    eq_margin = 0.0
    for d, b in EXAMPLE_GRID:
        if b >= d:  # the stronger hypothesis needs ||B|| < d here
            continue
        p = rl.example_problem(d, b)
        sol = rl.solve_spectral(p, rl.select_gap(p))
        cert = rl.certify_contraction(p, rl.select_gap(p), sol)
        eq_margin = max(eq_margin, abs(cert.margin))
    ok = max_norm < 1.0 and worst_margin >= -1e-9 and eq_margin <= 1e-10
    report(
        "criterion 06 contraction suite",
        ok,
        f"300 instances, max ||X|| {max_norm:.6f} (<1), worst margin "
        f"{worst_margin:.2e}; family equality |margin| {eq_margin:.2e}",
    )


def test_criterion_07_contraction_frontier(report):
    specs = [rl.ExampleSpec(d=1.0, b=i / 100) for i in range(141)]
    rows = rl.sweep(specs).rows
    passes = [row["contraction_pass"] for row in rows]
    first_false = passes.index(False) if False in passes else None
    flips_once = first_false == 100 and not any(passes[100:])
    norms_ok = all(row["x_norm"] >= 1.0 - 1e-12 for row in rows[100:])
    ok = flips_once and norms_ok
    report(
        "criterion 07 contraction frontier",
        ok,
        f"sweep b=0.00..1.40 step 0.01: first contraction failure at "
        f"b={None if first_false is None else first_false / 100:.2f} "
        f"(want 1.00), ||X||>=1 beyond it: {norms_ok}",
    )


def test_criterion_08_tan2theta(report, battery200_subordinated):
    worst_margin = np.inf
    max_norm = 0.0
    for s, p in battery200_subordinated.items:
        cert = rl.certify_tan2theta(p)
        worst_margin = min(worst_margin, cert.margin)
        max_norm = max(max_norm, cert.observed_value)
    eq_margin = 0.0
    for d, b in [(1.0, 0.7), (2.0, 0.3), (0.5, 1.1)]:
        p = rl.BlockProblem(np.array([[0.0]]), np.array([[b]]), np.array([[d]]))
        eq_margin = max(eq_margin, abs(rl.certify_tan2theta(p).margin))
    ok = worst_margin >= -1e-9 and max_norm < 1.0 and eq_margin <= 1e-10
    report(
        "criterion 08 tan-2theta subordinated",
        ok,
        f"200 instances, worst margin {worst_margin:.2e}, max ||X|| "
        f"{max_norm:.6f} (<1); scalar equality |margin| {eq_margin:.2e}",
    )


def test_criterion_09_squared_shift(report, battery300):
    worst_margin = np.inf
    all_subordinated = True
    for s, p, gap, sol in battery300.items:
        shifted, cert = rl.squared_shift(p, gap)
        assert cert.passed
        worst_margin = min(worst_margin, cert.margin)
        a_top = np.linalg.eigvalsh(shifted.A).max()
        c_bot = np.linalg.eigvalsh(shifted.C).min()
        all_subordinated = all_subordinated and a_top < c_bot
    ok = worst_margin >= -1e-9 and all_subordinated
    report(
        "criterion 09 squared-shift subordination",
        ok,
        f"300 instances, worst dist-floor margin {worst_margin:.2e} "
        f"(>=-1e-9), sup of shifted A below inf of shifted C on all",
    )


def test_criterion_10_geometry_identities(report):
    rng = SplitMix64(777)
    worst_tan = worst_sin = worst_proj = 0.0
    for _ in range(1000):
        n_A = 1 + rng.next_u64() % 5
        n_C = 1 + rng.next_u64() % 7
        scale = 0.2 + 3.0 * rng.uniform()
        X = scale * rng.complex_normal_matrix(n_C, n_A)
        proj = rl.graph_projection(X)
        angle = rl.operator_angle(proj)
        x = operator_norm(X)
        worst_tan = max(worst_tan, abs(angle.tan_norm - x))
        worst_sin = max(
            worst_sin, abs(angle.sin_norm - x / np.sqrt(1 + x * x))
        )
        Q = proj.Q
        worst_proj = max(
            worst_proj,
            operator_norm(Q @ Q - Q),
            operator_norm(Q - Q.conj().T),
        )
    ok = worst_tan <= 1e-10 and worst_sin <= 1e-10 and worst_proj <= 1e-12
    report(
        "criterion 10 geometry identities",
        ok,
        f"1000 random X: |tan-||X||| {worst_tan:.2e}, sin identity "
        f"{worst_sin:.2e} (<=1e-10), projector defects {worst_proj:.2e} (<=1e-12)",
    )


def test_criterion_11_cli_determinism(report, tmp_path):
    from riccatilab.serialize import dumps, problem_to_dict

    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps([
        {"family": "example", "d": 1.0, "b": 0.7},
        {"seed": 31415, "n_A": 3, "n_C": 6, "gap": [-1.0, 1.0],
         "d_target": 0.35, "b_ratio": 0.6},
    ]))
    prob_path = tmp_path / "problem.json"
    p = rl.example_problem(1.0, 0.5)
    prob_path.write_text(dumps(problem_to_dict(p, gap=(-1.0, 1.0))))

    commands = [
        ["example", "--d", "1", "--b", "0.5"],
        ["solve", str(prob_path)],
        ["certify", str(prob_path)],
        ["sweep", str(spec_path)],
    ]
    identical = True
    for cmd in commands:
        outs = []
        for _ in range(2):
            run = subprocess.run(
                [sys.executable, "-m", "riccatilab", *cmd],
                capture_output=True, check=True,
            )
            outs.append(run.stdout)
        identical = identical and outs[0] == outs[1] and len(outs[0]) > 0
    report(
        "criterion 11 CLI determinism",
        identical,
        f"{len(commands)} commands run twice each, byte-identical stdout",
    )
