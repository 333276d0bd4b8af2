"""Pinned CLI stdout: the reference problems, the commands run on each,
and the script that rewrites the fixtures.

Each case runs ``riccatilab.cli.main`` in process on a problem built from
its ``GenSpec`` and written with its gap hint; its stdout bytes and exit
code are kept under ``tests/golden/cli``.  The four problems print the
same bytes at one and at two BLAS threads.  The larger reference problems
(seed 3 at 32x96, seed 11 at 64x192) do not, so they stay a manual
``cmp`` at one BLAS thread.

After a change that moves output on purpose, rewrite the fixtures with

    PYTHONPATH=src python tests/cli_golden.py

and list each rewritten file, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import riccatilab as rl
from riccatilab import cli
from riccatilab.serialize import dumps, problem_to_dict

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"

PROBLEMS = {
    "seed5_3x6": rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5),
    "seed7_4x9": rl.GenSpec(7, 4, 9, (-1.0, 1.0), 0.3, 0.99),
    "seed9_4x8_subordinated": rl.GenSpec(9, 4, 8, (0.0, 1.0), 0.3, 0.6, "subordinated"),
    "seed11_16x48": rl.GenSpec(11, 16, 48, (-1.0, 1.0), 0.3, 0.5),
}

COMMANDS = {
    "solve-spectral": ["solve", "--method", "spectral"],
    "solve-contour": ["solve", "--method", "contour"],
    "solve-fixedpoint": ["solve", "--method", "fixedpoint"],
    "certify": ["certify"],
    "factorize": ["factorize"],
}

# name -> (problem name or None, argv after the program name, before the file)
CASES = {
    f"{problem}.{command}": (problem, argv)
    for problem in PROBLEMS
    for command, argv in COMMANDS.items()
}
CASES["example-d1-b0.5"] = (None, ["example", "--d", "1", "--b", "0.5"])


def run_case(name: str, workdir: Path) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of one case, run in process."""
    problem, argv = CASES[name]
    argv = list(argv)
    if problem is not None:
        spec = PROBLEMS[problem]
        path = workdir / f"{problem}.json"
        if not path.exists():
            path.write_text(dumps(problem_to_dict(rl.generate(spec), gap=spec.gap)), encoding="utf-8")
        argv.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def first_difference(expected: bytes, actual: bytes, context: int = 40) -> str:
    """Where two byte strings first differ, with the bytes around it; '' when equal."""
    if expected == actual:
        return ""
    at = next(
        (i for i, (a, b) in enumerate(zip(expected, actual)) if a != b),
        min(len(expected), len(actual)),
    )
    lo = max(0, at - context)
    return (
        f"first difference at byte {at} (expected {len(expected)} bytes, got {len(actual)}):\n"
        f"  expected ...{expected[lo:at + context]!r}\n"
        f"  got      ...{actual[lo:at + context]!r}"
    )


def regenerate(workdir: Path) -> list[str]:
    """Rewrite every fixture and the exit-code table; the names whose
    stdout or exit code changed."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    old_codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    codes, changed = {}, []
    for name in CASES:
        code, stdout = run_case(name, workdir)
        path = golden_path(name)
        if old_codes.get(name) != code or not path.exists() or path.read_bytes() != stdout:
            changed.append(name)
        path.write_bytes(stdout)
        codes[name] = code
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        moved = regenerate(Path(tmp))
    print("\n".join(f"changed: {name}" for name in moved) or "no fixture changed", file=sys.stderr)
