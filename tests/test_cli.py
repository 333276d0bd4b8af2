"""Command line surface: exit codes, payload shapes, determinism."""

import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import riccatilab as rl
from riccatilab import cli, harness
from riccatilab.cli import main
from riccatilab.harness import _CERT_PREFIXES, realize
from riccatilab.linalg import operator_norm
from riccatilab.serialize import (
    clean_number,
    dumps,
    matrix_from_json,
    problem_from_dict,
    problem_to_dict,
)


@pytest.fixture()
def example_file(tmp_path):
    p = rl.example_problem(1.0, 0.5)
    path = tmp_path / "problem.json"
    path.write_text(dumps(problem_to_dict(p, gap=(-1.0, 1.0))))
    return str(path)


@pytest.fixture()
def generated_file(tmp_path):
    p = rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5))
    path = tmp_path / "generated.json"
    path.write_text(dumps(problem_to_dict(p, gap=(-1.0, 1.0))))
    return str(path)


def _matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_exit_zero_and_payload(capsys, example_file):
    code, out, err = run(capsys, "solve", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "spectral"
    assert payload["x_norm"] == pytest.approx(0.5, rel=1e-12)
    assert payload["residual"] <= 1e-12
    X = _matrix(payload["X"])
    assert X.shape == (2, 1)


def test_solve_method_choices_agree(capsys, example_file):
    results = {}
    for method in ("spectral", "contour", "fixedpoint"):
        code, out, _ = run(capsys, "solve", example_file, "--method", method)
        assert code == 0
        results[method] = json.loads(out)["x_norm"]
    assert results["contour"] == pytest.approx(results["spectral"], abs=1e-10)
    assert results["fixedpoint"] == pytest.approx(results["spectral"], abs=1e-10)


@pytest.mark.parametrize("method", ["spectral", "contour", "fixedpoint"])
def test_solve_payload_is_x_alone(capsys, monkeypatch, generated_file, method):
    from riccatilab import cli

    solutions = []
    real_solution_to_dict = cli.solution_to_dict
    monkeypatch.setattr(
        cli, "solution_to_dict", lambda sol: solutions.append(sol) or real_solution_to_dict(sol)
    )
    code, out, _ = run(capsys, "solve", generated_file, "--method", method)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"gap", "method", "residual", "x_norm", "X"}
    assert payload["method"] == method
    # Z and Zhat are two products away from the problem file and X
    (sol,) = solutions
    with open(generated_file, encoding="utf-8") as f:
        p, _ = problem_from_dict(json.load(f))
    X = _matrix(payload["X"])
    assert np.array_equal(X, sol.X)
    np.testing.assert_allclose(p.A + p.B @ X, sol.Z, rtol=0, atol=1e-14)
    np.testing.assert_allclose(p.C - p.B.conj().T @ X.conj().T, sol.Zhat, rtol=0, atol=1e-14)


def _outcomes(results):
    return [(t, c if isinstance(c, rl.Certificate) else repr(c)) for t, c in results]


def test_a_saved_X_certifies_as_the_solution_it_came_from(capsys, generated_file):
    # X alone is saved; the solution rebuilt from it derives Z, Zhat and the
    # residual, so every certificate reads what it reads in process
    code, out, _ = run(capsys, "solve", generated_file, "--method", "spectral")
    assert code == 0
    payload = json.loads(out)
    with open(generated_file, encoding="utf-8") as f:
        p, _ = problem_from_dict(json.load(f))
    gap = rl.SpectralGap(*payload["gap"])
    saved = rl.RiccatiSolution(p, matrix_from_json(payload["X"]), "spectral")
    ours = rl.solve_spectral(p, gap)
    assert saved.residual == ours.residual
    assert _outcomes(rl.certify_all(p, gap, saved)) == _outcomes(rl.certify_all(p, gap, ours))


def test_solve_output_on_the_large_instance_stays_small(capsys, tmp_path):
    # the 64x192 problem of the cli_large benchmark workload: X is 192x64,
    # where X, Z and Zhat together wrote 4.05 MB
    p = rl.generate(rl.GenSpec(11, 64, 192, (-1.0, 1.0), 0.3, 0.5))
    path = tmp_path / "large.json"
    path.write_text(dumps(problem_to_dict(p, gap=(-1.0, 1.0))))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert len(out.encode()) <= 1_100_000


def _subordinated_ray():
    # gap (-inf, 0.9999999999999999), written as [null, beta]
    return realize(rl.GenSpec(11, 3, 8, (0.0, 1.0), 0.3, 0.5, "subordinated"))


def _upper_ray():
    p = rl.BlockProblem(np.array([[3.0]]), np.array([[0.1, 0.2]]), np.diag([-1.0, 1.0]))
    return p, rl.select_gap(p)


@pytest.mark.parametrize("make", [_subordinated_ray, _upper_ray])
def test_ray_gap_hint_round_trips(capsys, tmp_path, make):
    # the file carries the ray with a null end, and the CLI must select
    # that same gap from it
    p, gap = make()
    assert np.isinf(gap.alpha) != np.isinf(gap.beta)
    path = tmp_path / "ray.json"
    path.write_text(dumps(problem_to_dict(p, gap=(gap.alpha, gap.beta))))
    written = [clean_number(gap.alpha), clean_number(gap.beta)]
    assert json.loads(path.read_text())["gap"] == written
    for command in ("solve", "certify"):
        code, out, err = run(capsys, command, str(path))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["gap"] == written
        assert payload["x_norm"] == rl.solve_spectral(p, gap).x_norm


def test_gap_hint_with_no_finite_end_exits_one(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"A": [[0.0]], "B": [[0.5]], "C": [[2.0]], "gap": [None, None]}))
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err == 'riccatilab: input error: "gap" must be [alpha, beta]\n'


def test_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert err != ""


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "absent.json"))
    assert code == 1


def test_non_hermitian_input_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [0.0]], "C": [[5.0]]}))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1


def test_unknown_flag_exits_one(capsys, example_file):
    code, _, _ = run(capsys, "solve", example_file, "--frobnicate")
    assert code == 1


def test_parser_is_built_once_per_process(capsys, example_file):
    cli._build_parser.cache_clear()
    argvs = [["solve", example_file], ["certify", example_file], ["solve", "--bogus"],
             ["example", "--d", "1", "--b", "0.5"]] * 5
    for argv in argvs:
        main(argv)
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)


def test_a_reused_parser_keeps_no_state_between_calls(capsys, generated_file):
    # an option given in one call must not become the next call's default,
    # and a usage error must not spoil the parser for the next call
    _, spectral, _ = run(capsys, "solve", generated_file)
    code, contour, _ = run(capsys, "solve", generated_file, "--method", "contour")
    assert code == 0 and json.loads(contour)["method"] == "contour"
    code, again, _ = run(capsys, "solve", generated_file)
    assert code == 0 and again == spectral and json.loads(again)["method"] == "spectral"
    code, out, err = run(capsys, "solve", generated_file, "--method", "newton")
    assert code == 1 and out == "" and "invalid choice" in err
    code, again, _ = run(capsys, "solve", generated_file)
    assert code == 0 and again == spectral


def test_solver_failure_exits_two(capsys, tmp_path):
    # valid problem, valid gap, but the iteration diverges: a computation
    # failure, distinct from bad input
    p = rl.BlockProblem(np.array([[0.0]]), np.array([[1.5, 1.0]]), np.diag([1.0, -1.0]))
    path = tmp_path / "diverges.json"
    path.write_text(dumps(problem_to_dict(p, gap=(-1.0, 1.0))))
    code, _, err = run(capsys, "solve", str(path), "--method", "fixedpoint")
    assert code == 2
    assert "IterationDiverged" in err or "iteration" in err.lower()


def test_fixedpoint_cycle_exits_two(capsys, tmp_path, battery500):
    # battery item 18 settles into a period-2 cycle: a give-up, not a result
    _, p, gap, _ = battery500.items[18]
    path = tmp_path / "cycles.json"
    path.write_text(dumps(problem_to_dict(p, gap=(gap.alpha, gap.beta))))
    code, out, err = run(capsys, "solve", str(path), "--method", "fixedpoint")
    assert (code, out) == (2, "")
    assert "IterationDiverged" in err and "period-2 cycle" in err


def test_fixedpoint_root_of_another_gap_exits_two(capsys, example_file):
    # --gap 5 names the ray (1, inf); the fixed point reaches the (-1, 1)
    # root instead, which must not be printed under the ray's name
    code, out, err = run(capsys, "solve", example_file, "--method", "fixedpoint", "--gap", "5")
    assert (code, out) == (2, "")
    assert "OutsideUniquenessClass" in err


@pytest.mark.parametrize("hint", [[0.5, 0.2], [float("nan"), 1.0], [0.3, 0.3]])
def test_gap_hint_without_alpha_below_beta_exits_one(capsys, tmp_path, hint):
    # json reads NaN, so a NaN end reaches the decoder like any number
    path = tmp_path / "problem.json"
    problem = {"A": [[0.0]], "B": [[0.5, 0.0]], "C": [[-1.0, 0.0], [0.0, 1.0]], "gap": hint}
    path.write_text(json.dumps(problem))
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("riccatilab: input error: empty gap")


def test_gap_flag_overrides_hint(capsys, tmp_path):
    # C has gaps (-1, 1) and (1, 3); sigma(A) sits in the second
    p = rl.BlockProblem(np.array([[2.0]]), np.zeros((1, 3)), np.diag([-1.0, 1.0, 3.0]))
    path = tmp_path / "two_gaps.json"
    path.write_text(dumps(problem_to_dict(p)))
    code, out, _ = run(capsys, "solve", str(path), "--gap", "2.0")
    assert code == 0
    assert json.loads(out)["x_norm"] == 0.0


@pytest.mark.parametrize("command", ["solve", "certify", "factorize"])
def test_negative_gap_in_exponent_form_is_a_number(capsys, example_file, command):
    # argparse's own pattern took -5e-1 for an option and exited 1 with
    # "expected one argument"; repr writes a small negative point as -1e-05
    for plain, exponent in [("-0.5", "-5e-1"), ("-0.1", "-1E-1"), ("-1e-05", "-0.00001"), ("-5", "-5e+0")]:
        expected = run(capsys, command, example_file, "--gap", plain)
        assert run(capsys, command, example_file, "--gap", exponent) == expected
    assert run(capsys, command, example_file, "--gap", "-5e-1")[0] == 0


def test_certify_payload_covers_every_theorem(capsys, example_file):
    code, out, _ = run(capsys, "certify", example_file)
    assert code == 0
    payload = json.loads(out)
    names = {c["theorem"] for c in payload["certificates"]}
    assert names == {
        "existence_1i", "contraction_1ii", "tan_theta_2",
        "apriori_bound", "tan_2theta_dk", "squared_subordination",
    }
    for cert in payload["certificates"]:
        if cert["theorem"] == "tan_2theta_dk":
            # the example family is not subordinated; reported as
            # inapplicable, not as a failure
            assert cert["applicable"] is False
        else:
            assert cert["passed"] is True


def test_certify_inapplicable_is_data_not_error(capsys, tmp_path):
    # coupling past every hypothesis: certify still exits 0 and reports
    p = rl.example_problem(1.0, 1.5)
    path = tmp_path / "large_b.json"
    path.write_text(dumps(problem_to_dict(p, gap=(-1.0, 1.0))))
    code, out, _ = run(capsys, "certify", str(path))
    assert code == 0
    payload = json.loads(out)
    by_name = {c["theorem"]: c for c in payload["certificates"]}
    assert by_name["apriori_bound"]["applicable"] is False
    assert by_name["contraction_1ii"]["hypothesis_ok"] is False


def test_certify_reports_an_overflowing_frame_as_inapplicable(capsys, tmp_path):
    # at d = 1e200 the squared shift's (C - gamma)^2 overflows double precision
    code, problem, _ = run(capsys, "example", "--d", "1e200", "--b", "1")
    assert code == 0
    path = tmp_path / "huge.json"
    path.write_text(problem)
    code, out, err = run(capsys, "certify", str(path))
    assert (code, err) == (0, "")
    by_name = {c["theorem"]: c for c in json.loads(out)["certificates"]}
    assert by_name["squared_subordination"] == {
        "theorem": "squared_subordination", "applicable": False, "error": "HypothesisViolated",
    }
    assert by_name["contraction_1ii"]["passed"] is True


def test_certify_bounds_stay_finite_at_large_scale(capsys, tmp_path):
    # d |gap| = 2e400 and d (|gap| - d) = 1e400 are no doubles; the
    # hypotheses read them in a frame scaled by a power of two
    code, problem, _ = run(capsys, "example", "--d", "1e200", "--b", "1")
    path = tmp_path / "huge.json"
    path.write_text(problem)
    code, out, err = run(capsys, "certify", str(path))
    assert (code, err) == (0, "")
    by_name = {c["theorem"]: c for c in json.loads(out)["certificates"]}
    existence, contraction = by_name["existence_1i"], by_name["contraction_1ii"]
    assert existence["bound_value"] == 1.414213562373095e200 == np.sqrt(2.0) * 1e200
    assert existence["margin"] == existence["bound_value"] - 1.0
    # the family attains the contraction bound b / d
    assert (contraction["bound_value"], contraction["margin"]) == (1e-200, 0.0)
    assert contraction["details"]["hypothesis_threshold"] == 1e200
    assert contraction["details"]["denominator"] is None


def test_factorize_payload(capsys, example_file):
    code, out, _ = run(capsys, "factorize", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] <= 1e-9
    assert payload["w_invertible"] is True
    assert payload["sign_conditions"] is True
    enc = payload["enclosure"]
    assert enc["lower"] == pytest.approx(-enc["upper"])


def test_factorize_scans_W_in_one_batch(capsys, monkeypatch, tmp_path):
    from riccatilab import cli

    p = rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5))
    path = tmp_path / "problem.json"
    path.write_text(dumps(problem_to_dict(p, gap=(-1.0, 1.0))))
    batches = []
    real_compute_W = cli.compute_W

    def spy(p, X, lams):
        batches.append(np.shape(lams))
        return real_compute_W(p, X, lams)

    monkeypatch.setattr(cli, "compute_W", spy)
    code, out, _ = run(capsys, "factorize", str(path))
    assert code == 0
    assert json.loads(out)["w_invertible"] is True
    # one batch for the 25-point W scan; the factorization defect forms no W
    assert batches == [(25,)]


def test_certify_takes_each_spectrum_once(monkeypatch):
    from riccatilab import cli

    p = rl.generate(rl.GenSpec(3, 4, 12, (-1.0, 1.0), 0.3, 0.5))
    gap = rl.select_gap(p, 0.0)
    calls = []
    real_eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(np.shape(a)) or real_eigvals(a))
    cli._certify_payload(p, gap)
    # sigma(Z) and sigma(Zhat) come from eigvalsh of the solution's Hermitian
    # compressions, so no general eigenvalue problem is solved
    assert calls == []


def test_example_command_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "example", "--d", "1.0", "--b", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["x_norm"] == pytest.approx(0.5, rel=1e-12)
    assert payload["gap"] == [-1.0, 1.0]
    # the payload doubles as solver input: A, B, C, gap at the top level
    path = tmp_path / "emitted.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "solve", str(path))
    assert code2 == 0
    assert json.loads(out2)["x_norm"] == pytest.approx(0.5, rel=1e-12)


def test_example_rejects_bad_parameters(capsys):
    code, _, _ = run(capsys, "example", "--d", "-1.0", "--b", "0.5")
    assert code == 1


# the last pair is finite, but the closed-form entry b / (sqrt2 d) of X is not
@pytest.mark.parametrize(
    "d, b", [("1", "nan"), ("inf", "0.5"), ("nan", "0.5"), ("1", "inf"), ("1e-310", "1e10")]
)
def test_example_rejects_non_finite_parameters(capsys, d, b):
    code, out, err = run(capsys, "example", "--d", d, "--b", b)
    assert (code, out) == (1, "")
    assert err.startswith("riccatilab: input error:")


_GEN_ROW = '"seed": 7, "n_A": 2, "n_C": 4, "d_target": 0.3'
_UNKNOWN_FAMILY = "spec 0 is malformed: unknown key 'family'"
# rows whose whole message is pinned: a family that is no string is never
# looked up (a list is unhashable) but stays an unknown key, and a grid
# object has no key but specs
_FULL_MESSAGES = {
    '{"family": ["example"], "d": 1.0, "b": 0.5}': _UNKNOWN_FAMILY,
    '{"family": {"x": 1}, "d": 1.0, "b": 0.5}': _UNKNOWN_FAMILY,
    '{"family": 1, "d": 1.0, "b": 0.5}': _UNKNOWN_FAMILY,
    '{"specs": [{"family": "example", "d": 1.0, "b": 0.5}], "seed": 3}':
        "spec grid JSON has unknown top-level key 'seed'",
}


@pytest.mark.parametrize(
    "row",
    [
        '{%s, "gap": [-1.0, 1.0], "b_ratio": 1e400}' % _GEN_ROW,
        '{%s, "gap": [-1.0, 1.0], "b_ratio": NaN}' % _GEN_ROW,
        '{%s, "gap": 5, "b_ratio": 0.5}' % _GEN_ROW,
        '{%s, "gap": [-1], "b_ratio": 0.5}' % _GEN_ROW,
        '{%s, "gap": [-1e400, 1.0], "b_ratio": 0.5}' % _GEN_ROW,
        '{"seed": 7, "n_A": 1e400, "n_C": 4, "d_target": 0.3, "gap": [-1.0, 1.0], "b_ratio": 0.5}',
        '{"family": "example", "d": null, "b": 0.5}',
        '{"family": "example", "d": 1.0, "b": Infinity}',
        # no coercion: seed, n_A and n_C are JSON integers, the rest numbers
        '{"seed": 7.9, "n_A": 2, "n_C": 4, "d_target": 0.3, "gap": [-1.0, 1.0], "b_ratio": 0.5}',
        '{"seed": 7, "n_A": 2.7, "n_C": 4, "d_target": 0.3, "gap": [-1.0, 1.0], "b_ratio": 0.5}',
        '{"seed": "8", "n_A": 2, "n_C": 4, "d_target": 0.3, "gap": [-1.0, 1.0], "b_ratio": 0.5}',
        '{"seed": true, "n_A": 2, "n_C": 4, "d_target": 0.3, "gap": [-1.0, 1.0], "b_ratio": 0.5}',
        '{"seed": 7, "n_A": 2, "n_C": 4, "d_target": "0.3", "gap": [-1.0, 1.0], "b_ratio": 0.5}',
        '{%s, "gap": [-1.0, 1.0], "b_ratio": true}' % _GEN_ROW,
        '{%s, "gap": [-1.0, "1"], "b_ratio": 0.5}' % _GEN_ROW,
        '{%s, "gap": [-1.0, 1.0, 5.0], "b_ratio": 0.5}' % _GEN_ROW,
        '{%s, "gap": [-%s, 1.0], "b_ratio": 0.5}' % (_GEN_ROW, "1" * 401),
        '{%s, "gap": [-1.0, 1.0], "b_ratio": 0.5, "placement": 3}' % _GEN_ROW,
        '{"family": "example", "d": "1", "b": 0.5}',
        '{"family": "example", "d": 1.0, "b": false}',
        # a key the row's family does not define, and an unknown family
        '{%s, "gap": [-1.0, 1.0], "b_ratio": 0.5, "placment": "subordinated"}' % _GEN_ROW,
        '{%s, "gap": [-1.0, 1.0], "b_ratio": 0.5, "d": 1.0}' % _GEN_ROW,
        '{"family": "example", "d": 1.0, "b": 0.5, "seed": 7}',
        '{"family": "other", "d": 1.0, "b": 0.5}',
        '{"family": null, %s, "gap": [-1.0, 1.0], "b_ratio": 0.5}' % _GEN_ROW,
        *_FULL_MESSAGES,
    ],
)
def test_sweep_rejects_non_finite_or_mistyped_row(capsys, tmp_path, row):
    spec_path = tmp_path / "grid.json"
    # a row is swept as a one-row grid, a grid object as it is written
    spec_path.write_text(row if row.startswith('{"specs"') else f"[{row}]")
    code, out, err = run(capsys, "sweep", str(spec_path))
    assert (code, out) == (1, "")
    assert err.startswith("riccatilab: input error: ")
    if row in _FULL_MESSAGES:
        assert err == f"riccatilab: input error: {_FULL_MESSAGES[row]}\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"A": [[%s]], "B": [[0.5]], "C": [[2.0]]}' % ("1" * 401),
        '{"A": [[0.0]], "B": [[0.5]], "C": [[2.0]], "gap": [-%s, 1.0]}' % ("1" * 401),
    ],
    ids=["entry", "gap_hint"],
)
def test_integer_beyond_float_range_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "problem.json"
    path.write_text(text)
    code, out, err = run(capsys, "certify", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("riccatilab: input error: ")


def test_sweep_writes_csv(capsys, tmp_path):
    specs = {"specs": [
        {"family": "example", "d": 1.0, "b": 0.5},
        {"seed": 7, "n_A": 2, "n_C": 4, "gap": [-1.0, 1.0], "d_target": 0.3, "b_ratio": 0.5},
    ]}
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(specs))
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "sweep", str(spec_path), "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("seed,n_A,n_C,")


def test_sweep_rejects_malformed_spec(capsys, tmp_path):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps([{"family": "example", "d": 1.0}]))  # b missing
    code, _, err = run(capsys, "sweep", str(spec_path))
    assert code == 1


@dataclass(frozen=True)
class _HalfCoupling(harness._Family):
    """A throwaway family: the example problem with b = d / 2, and a seed."""

    d: float
    seed: int
    ROW = {"d": float, "seed": int}

    @property
    def gap(self):
        return (-self.d, self.d)

    def problem(self):
        return rl.example_problem(self.d, self.d / 2)


def test_a_registered_family_sweeps_through_the_cli(capsys, monkeypatch):
    # registering the class is all a family takes: cli and sweep name none
    monkeypatch.setitem(harness.FAMILIES, "half", _HalfCoupling)
    grid = [{"family": "half", "d": 2.0, "seed": 5}, {"family": "example", "d": 2.0, "b": 1.0}]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(grid)))
    code, out, err = run(capsys, "sweep", "-")
    assert (code, err) == (0, "")
    header, half, example = out.splitlines()
    # the family's own cells come first; the rest is the example row's
    assert half.split(",")[:5] == ["5", "1", "2", "-2.0", "2.0"]
    assert half == "5" + example
    assert dict(zip(header.split(","), half.split(",")))["status"] == "ok"


@pytest.mark.parametrize(
    "row",
    [
        {"seed": 7, "n_A": 2, "n_C": 1, "gap": [-1.0, 1.0], "d_target": 0.3, "b_ratio": 0.5},
        {"seed": 7, "n_A": 2, "n_C": 1, "gap": [-1.0, 1.0], "d_target": 0.3, "b_ratio": 0.5,
         "placement": "overlapping"},
        {"family": "example", "d": 1e-310, "b": 1e10},
    ],
    ids=["interior_n_C_1", "overlapping_n_C_1", "example_overflow"],
)
def test_sweep_reports_an_infeasible_row_as_malformed(capsys, monkeypatch, row):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([row])))
    code, out, err = run(capsys, "sweep", "-")
    assert (code, out) == (1, "")
    assert err.startswith("riccatilab: input error: spec 0 is malformed: ")


@pytest.mark.parametrize(
    "d, b, inapplicable",
    [(1e300, 1e300, {"contraction", "tan2theta", "squared"}), (1e200, 1.0, {"tan2theta", "squared"})],
)
def test_sweep_writes_a_full_row_when_the_frame_overflows(capsys, monkeypatch, d, b, inapplicable):
    rows = [{"family": "example", "d": d, "b": b}, {"family": "example", "d": 1.0, "b": 0.5}]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
    code, out, err = run(capsys, "sweep", "-")
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    assert len(lines) == 2
    cells = dict(zip(header.split(","), lines[0].split(",")))
    assert cells["status"] == "ok"
    assert math.isfinite(float(cells["existence_margin"]))
    empty = {col for col, value in cells.items() if value == ""}
    assert empty == {"seed"} | {f"{t}_{k}" for t in inapplicable for k in ("pass", "margin")}


@pytest.mark.parametrize("target", ["missing_dir/rows.csv", "."], ids=["no_such_dir", "a_directory"])
def test_sweep_out_that_cannot_be_opened_is_an_input_error(capsys, monkeypatch, tmp_path, target):
    calls = []
    monkeypatch.setattr("riccatilab.cli.sweep", lambda specs: calls.append(specs))
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps([{"family": "example", "d": 1.0, "b": 0.5}]))
    code, out, err = run(capsys, "sweep", str(spec_path), "--out", str(tmp_path / target))
    assert (code, out) == (1, "")
    assert err.startswith("riccatilab: input error: ")
    assert calls == []


@pytest.mark.parametrize(
    "grid,message",
    [(42, "spec grid JSON must be a list (or {'specs': [...]})"), ([1], "spec 0 must be an object")],
    ids=["not_a_list", "row_not_an_object"],
)
def test_sweep_refuses_a_grid_that_is_no_list_of_objects(capsys, monkeypatch, grid, message):
    with pytest.raises(ValueError) as err:
        harness.parse_grid(grid)
    assert str(err.value) == message
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(grid)))
    code, out, err = run(capsys, "sweep", "-")
    assert (code, out, err) == (1, "", f"riccatilab: input error: {message}\n")


def test_solve_refuses_a_problem_that_is_no_object(capsys, monkeypatch):
    with pytest.raises(ValueError) as err:
        problem_from_dict([])
    assert str(err.value) == "problem JSON must be an object"
    monkeypatch.setattr("sys.stdin", io.StringIO("[]"))
    code, out, err = run(capsys, "solve", "-")
    assert (code, out, err) == (1, "", "riccatilab: input error: problem JSON must be an object\n")


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_sweep_rejects_a_seed_outside_the_stream(capsys, monkeypatch, seed):
    row = {"seed": seed, "n_A": 2, "n_C": 4, "gap": [-1.0, 1.0], "d_target": 0.3, "b_ratio": 0.5}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([row])))
    code, out, err = run(capsys, "sweep", "-")
    assert (code, out) == (1, "")
    assert err.startswith("riccatilab: input error: spec 0 is malformed: seed=")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--method", "spectral"],
        ["solve", "--method", "contour"],
        ["solve", "--method", "fixedpoint"],
        ["certify"],
        ["factorize"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[2:]),
)
def test_cli_output_is_deterministic(capsys, generated_file, argv):
    code1, out1, _ = run(capsys, argv[0], generated_file, *argv[1:])
    code2, out2, _ = run(capsys, argv[0], generated_file, *argv[1:])
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_sweep_cells_agree_with_certify(capsys, tmp_path):
    theorems = {
        "existence": "existence_1i",
        "contraction": "contraction_1ii",
        "tan_theta": "tan_theta_2",
        "apriori": "apriori_bound",
        "tan2theta": "tan_2theta_dk",
        "squared": "squared_subordination",
    }
    grid = [
        rl.GenSpec(7, 3, 5, (-1.0, 1.0), 0.3, 0.5, "interior"),
        rl.GenSpec(5, 2, 4, (0.0, 1.0), 0.3, 1.2, "subordinated"),  # gap is a ray
        rl.GenSpec(3, 2, 5, (-1.0, 1.0), 0.3, 0.6, "overlapping"),
        rl.ExampleSpec(d=1.0, b=1.6),  # past sqrt(2) d
    ]
    # sweep zips its column prefixes with certify_all's report order; the
    # cells are matched here by theorem name, so a reordering fails
    assert set(theorems) == set(_CERT_PREFIXES)
    applied = set()
    for spec, row in zip(grid, rl.sweep(grid).rows):
        p, _ = realize(spec)
        point = sum(spec.gap) / 2
        path = tmp_path / "problem.json"
        path.write_text(dumps(problem_to_dict(p)))
        code, out, _ = run(capsys, "certify", str(path), "--gap", repr(point))
        assert code == 0
        payload = json.loads(out)
        assert payload["x_norm"] == row["x_norm"]
        by_name = {c["theorem"]: c for c in payload["certificates"]}
        for prefix, theorem in theorems.items():
            cert = by_name[theorem]
            if row[f"{prefix}_pass"] is None:
                assert row[f"{prefix}_margin"] is None
                assert cert["applicable"] is False, (spec, theorem)
            else:
                assert "applicable" not in cert, (spec, theorem)
                assert row[f"{prefix}_pass"] == cert["passed"]
                assert clean_number(row[f"{prefix}_margin"]) == cert["margin"]
                applied.add(theorem)
    # every column is compared on at least one row
    assert applied == set(theorems.values())


def test_cli_contour_route_agrees_with_the_spectral_route(battery500):
    # the CLI places the circle from sol.z_eigs and p.eig_C, not from
    # eigvals(Z) and eigvalsh(C) as criterion 03 does
    from riccatilab import cli

    for _, p, gap, sol in battery500.items[:25]:
        payload = cli._solve_payload(p, gap, "contour")
        assert payload["method"] == "contour"
        X = matrix_from_json(payload["X"])
        assert operator_norm(X - sol.X) <= 1e-8 * (1.0 + sol.x_norm)


def test_certify_closes_the_problem_file(capsys, example_file):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["certify", example_file]) == 0
    capsys.readouterr()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
