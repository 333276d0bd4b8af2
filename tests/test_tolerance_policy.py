"""The tolerance policy: one module holds the numbers, and every spectral
and certificate test reaches them through it, by the units of its quantity.

Under H -> sH a spectral distance scales like s, a verdict's margin like
s**power, and a singular value of a dimensionless matrix not at all.  So
scaling the policy the same way, and only the policy, must leave every
outcome of the five commands as it is at s = 1.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import riccatilab as rl
from riccatilab import cli, linalg
from riccatilab.serialize import dumps, problem_to_dict

SPECTRAL_TOL, SLACK_TOL = linalg._spectral_tol, linalg._slack_tol

COMMANDS = (
    ["solve", "--method", "spectral"],
    ["solve", "--method", "contour"],
    ["solve", "--method", "fixedpoint"],
    ["certify"],
    ["factorize"],
)


def _gap_end_problem() -> rl.BlockProblem:
    # B leaves C's eigenvector at 1 uncoupled, so H has the eigenvalue 1 on the gap end
    B = 0.2 * np.array([[1.0, 0.5, 0.0, 0.3], [0.2, 1.0, 0.0, 0.4]])
    return rl.BlockProblem(np.diag([-0.2, 0.3]), B, np.diag([-1.0, -1.4, 1.0, 1.3]))


PROBLEMS = {
    "seed5-3x6": lambda: rl.generate(rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5)),
    "seed8-3x6": lambda: rl.generate(rl.GenSpec(8, 3, 6, (-1.0, 1.0), 0.3, 0.5)),
    "gap-end-2x4": _gap_end_problem,
}


def _outcomes(p: rl.BlockProblem, s: float, path: Path) -> list:
    """What the five commands decide on (sA, sB, sC) with the gap (-s, s): exit codes,
    each certificate's applicability and verdict, and factorize's flags."""
    problem = problem_to_dict(rl.BlockProblem(s * p.A, s * p.B, s * p.C), gap=(-s, s))
    path.write_text(dumps(problem), encoding="utf-8")
    out = []
    for argv in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            outcome = [cli.main([*argv, str(path)])]
        payload = json.loads(stdout.getvalue()) if outcome[0] == 0 else {}
        for c in payload.get("certificates", []):
            outcome.append((c["theorem"], c.get("applicable", True), c.get("passed")))
        if "w_invertible" in payload:
            outcome += [payload["w_invertible"], payload["sign_conditions"], payload["defect"] < 1e-9]
        out.append(outcome)
    return out


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_scaling_the_policy_with_the_problem_keeps_every_outcome(name, monkeypatch, tmp_path):
    # spectral tolerances times s, a verdict's slack times s**power, the
    # singular-value floor as it is; only linalg is patched
    p = PROBLEMS[name]()
    base = _outcomes(p, 1.0, tmp_path / "p.json")
    assert [outcome[0] for outcome in base] == [0, 0, 0, 0, 0]
    for s in (1e-12, 1e-8, 1e12, 1e100):
        monkeypatch.setattr(linalg, "_spectral_tol", lambda multiple=1, s=s: s * SPECTRAL_TOL(multiple))
        monkeypatch.setattr(linalg, "_slack_tol", lambda power, s=s: s**power * SLACK_TOL(power))
        assert _outcomes(p, s, tmp_path / "p.json") == base, s


def test_only_linalg_names_the_tolerance_constants():
    src = Path(rl.__file__).parent
    naming = sorted(
        path.name for path in src.glob("*.py")
        if re.search(r"\bTOL_(SPEC|CERT)\b", path.read_text(encoding="utf-8"))
    )
    assert naming == ["linalg.py"]
