"""Pinned outputs: the reference problems, the commands run on each, the
sweep_mixed CSV, the pinned digests, and the script that rewrites them all.

Each case runs ``riccatilab.cli.main`` in process on a problem built from
its ``GenSpec`` and written with its gap hint; its stdout bytes and exit
code are kept under ``tests/golden/cli``.  The four problems print the
same bytes at one and at two BLAS threads.  The larger reference problems
(seed 3 at 32x96, seed 11 at 64x192) do not, so their cases run in a
fresh interpreter with every BLAS thread variable set to 1 before numpy
loads, and only the exit code and the sha256 of stdout are kept
(``tests/golden/cli_large_sha256.json``; their stdout is 0.3 to 1 MB a
command).  The CSV of ``riccatilab sweep`` over the benchmark's 800-spec
sweep_mixed grid is kept whole in ``tests/golden/sweep_mixed.csv``, so a
moved digest can name the rows that moved.  ``tests/golden/pinned_sha256.json``
holds that CSV's sha256 and the interior battery's two fixed-point
digests, one of the converged X and one of the give-up messages.

After a change that moves output on purpose, rewrite the fixtures with

    PYTHONPATH=src python tests/cli_golden.py

and list each rewritten file, and why, in CHANGES.md.  For each moved
in-process fixture the script prints the keys whose values moved, old ->
new (moved_keys); the large cases are kept as digests only, so for them
it can name no key.  A moved pinned digest is named with its old and new
value.  A moved list (a matrix) is named with its largest entry move,
absolute and relative (list_move).  When the CSV moves, the script also
prints a summary of the moved cells per column (moved_columns).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import riccatilab as rl
from riccatilab import cli
from riccatilab.serialize import dumps, problem_to_dict

from conftest import MASTER_INTERIOR, _solve_battery, interior_specs, sweep_mixed_grid

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
LARGE_DIGESTS = GOLDEN_DIR.parent / "cli_large_sha256.json"
SWEEP_MIXED_CSV = GOLDEN_DIR.parent / "sweep_mixed.csv"
PINNED_DIGESTS = GOLDEN_DIR.parent / "pinned_sha256.json"
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

PROBLEMS = {
    "seed5_3x6": rl.GenSpec(5, 3, 6, (-1.0, 1.0), 0.3, 0.5),
    "seed7_4x9": rl.GenSpec(7, 4, 9, (-1.0, 1.0), 0.3, 0.99),
    "seed9_4x8_subordinated": rl.GenSpec(9, 4, 8, (0.0, 1.0), 0.3, 0.6, "subordinated"),
    "seed11_16x48": rl.GenSpec(11, 16, 48, (-1.0, 1.0), 0.3, 0.5),
}
# pinned by digest at one BLAS thread; the fixed point takes the eig path on both
LARGE_PROBLEMS = {
    "seed3_32x96": rl.GenSpec(3, 32, 96, (-1.0, 1.0), 0.3, 0.8),
    "seed11_64x192": rl.GenSpec(11, 64, 192, (-1.0, 1.0), 0.3, 0.5),
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
LARGE_CASES = {
    f"{problem}.{command}": (problem, argv)
    for problem in LARGE_PROBLEMS
    for command, argv in COMMANDS.items()
}


def run_case(name: str, workdir: Path) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of one case of CASES or LARGE_CASES, run in process."""
    problem, argv = {**CASES, **LARGE_CASES}[name]
    argv = list(argv)
    if problem is not None:
        spec = {**PROBLEMS, **LARGE_PROBLEMS}[problem]
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


def _digests_in_process(workdir: Path) -> dict[str, list]:
    digests = {}
    for name in LARGE_CASES:
        code, stdout = run_case(name, workdir)
        digests[name] = [code, hashlib.sha256(stdout).hexdigest()]
    return digests


def large_digests(workdir: Path) -> dict[str, list]:
    """{case: [exit code, sha256 of stdout]} for LARGE_CASES, run by a fresh
    interpreter whose BLAS and OpenMP thread variables are 1 from its start."""
    src = str(Path(rl.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, __file__, "--large-digests", str(workdir)],
        env=env, capture_output=True, text=True,
    )
    if run.returncode:
        raise RuntimeError(f"the one-thread digest run exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout)


def sweep_mixed_csv() -> str:
    """The CSV of riccatilab sweep over the sweep_mixed grid."""
    buf = io.StringIO()
    rl.sweep(sweep_mixed_grid()).write_csv(buf)
    return buf.getvalue()


def battery_fixedpoint_digests(items) -> dict[str, str]:
    """The fixed point's two SHA-256 digests over battery items (spec,
    problem, gap, solution) in order.  battery_fixedpoint_X covers
    X.tobytes() of each converged fixed point and only the error class of
    each give-up, type(err).__name__ as UTF-8; battery_fixedpoint_gave_up
    covers each give-up's f"{type(err).__name__}: {err}" as UTF-8.  A stop
    rule that moves where a give-up stops, or its message, moves the
    second alone."""
    converged, gave_up = hashlib.sha256(), hashlib.sha256()
    for _, p, gap, _ in items:
        try:
            converged.update(rl.solve_fixedpoint(p, gap).X.tobytes())
        except rl.RiccatiLabError as err:
            converged.update(type(err).__name__.encode("utf-8"))
            gave_up.update(f"{type(err).__name__}: {err}".encode("utf-8"))
    return {"battery_fixedpoint_X": converged.hexdigest(), "battery_fixedpoint_gave_up": gave_up.hexdigest()}


def moved_rows(expected: str, actual: str) -> list[str]:
    """One line per CSV row that differs, naming its seed and each changed
    column as old -> new; a changed row count is a line too."""
    old = list(csv.DictReader(io.StringIO(expected)))
    new = list(csv.DictReader(io.StringIO(actual)))
    lines = [f"rows: {len(old)} -> {len(new)}"] if len(old) != len(new) else []
    for number, (a, b) in enumerate(zip(old, new), start=1):
        changes = [f"{col}: {a.get(col)!r} -> {b.get(col)!r}" for col in {**a, **b} if a.get(col) != b.get(col)]
        if changes:
            lines.append(f"row {number}, seed {a.get('seed')}: " + ", ".join(changes))
    return lines


def _number(cell: str | None) -> float | None:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def moved_columns(expected: str, actual: str) -> list[str]:
    """One line per CSV column with moved cells among the rows both tables
    have: how many rows moved and, over the cells that are finite numbers
    on both sides, the largest absolute move; a last line names the
    verdict columns (*_pass, status) that moved, if any."""
    old = list(csv.DictReader(io.StringIO(expected)))
    new = list(csv.DictReader(io.StringIO(actual)))
    lines, verdicts = [], []
    for col in old[0] if old else ():
        pairs = [(a.get(col), b.get(col)) for a, b in zip(old, new) if a.get(col) != b.get(col)]
        if not pairs:
            continue
        line = f"{col}: {len(pairs)} rows moved"
        moves = [abs(y - x) for x, y in ((_number(a), _number(b)) for a, b in pairs) if None not in (x, y)]
        if moves:
            line += f", largest move {max(moves):.3g}"
        lines.append(line)
        if col.endswith("_pass") or col == "status":
            verdicts.append(col)
    lines.append(f"verdict columns moved: {', '.join(verdicts)}" if verdicts else "no *_pass or status cell moved")
    return lines


def _leaves(obj, prefix: str = "") -> dict:
    """The values of a JSON object by dotted key path; a list is one value."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(_leaves(value, f"{prefix}.{key}" if prefix else key))
    return out


def list_move(old, new) -> str:
    """How far a moved list of numbers (a matrix as nested lists) moved: the
    largest entry move, absolute and relative to the largest old entry; a
    changed shape, or a list that is not all numbers, is only named."""
    try:
        a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    except (TypeError, ValueError):
        return "list moved"
    if a.shape != b.shape:
        return f"list moved, shape {a.shape} -> {b.shape}"
    move, largest = float(np.max(np.abs(b - a))), float(np.max(np.abs(a)))
    return f"list moved, largest entry move {move:.3g}, {move / largest if largest else math.inf:.3g} relative"


def moved_keys(expected: bytes, actual: bytes) -> list[str]:
    """One line per key of a JSON payload whose value moved, as old -> new,
    with nested keys by dotted path and a moved list named by how far it
    moved (list_move); one line when either side is no JSON object."""
    try:
        old, new = json.loads(expected), json.loads(actual)
    except ValueError:
        old = new = None
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [f"not a JSON object on both sides: {len(expected)} -> {len(actual)} bytes"]
    old, new = _leaves(old), _leaves(new)
    lines = []
    for key in {**old, **new}:
        a, b = (repr(side[key]) if key in side else "<absent>" for side in (old, new))
        if a != b:
            if isinstance(old.get(key), list) and isinstance(new.get(key), list):
                lines.append(f"{key}: {list_move(old[key], new[key])}")
            elif isinstance(old.get(key), list) or isinstance(new.get(key), list):
                lines.append(f"{key}: list moved")
            else:
                lines.append(f"{key}: {a} -> {b}")
    return lines


def regenerate(workdir: Path) -> dict[str, list[str]]:
    """Rewrite every fixture, the exit-code table, the large digests, the
    sweep CSV and the pinned digests; for each name whose output changed,
    its moved keys (none for a large digest or the CSV; old -> new for a
    pinned digest)."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    old_codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    codes, changed = {}, {}
    for name in CASES:
        code, stdout = run_case(name, workdir)
        path = golden_path(name)
        kept = path.read_bytes() if path.exists() else b""
        if old_codes.get(name) != code:
            changed[name] = [f"exit code: {old_codes.get(name)} -> {code}"]
        if kept != stdout:
            changed.setdefault(name, []).extend(moved_keys(kept, stdout))
        path.write_bytes(stdout)
        codes[name] = code
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    old_digests = json.loads(LARGE_DIGESTS.read_text()) if LARGE_DIGESTS.exists() else {}
    digests = large_digests(workdir)
    for name in LARGE_CASES:
        if old_digests.get(name) != digests[name]:
            changed[name] = ["digest only: no key can be named"]
    LARGE_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    table = sweep_mixed_csv()
    if not SWEEP_MIXED_CSV.exists() or SWEEP_MIXED_CSV.read_text(encoding="utf-8") != table:
        changed[SWEEP_MIXED_CSV.name] = []
    SWEEP_MIXED_CSV.write_bytes(table.encode("utf-8"))
    old_pins = json.loads(PINNED_DIGESTS.read_text()) if PINNED_DIGESTS.exists() else {}
    pins = {
        **battery_fixedpoint_digests(_solve_battery(interior_specs(500, MASTER_INTERIOR)).items),
        SWEEP_MIXED_CSV.name: hashlib.sha256(table.encode("utf-8")).hexdigest(),
    }
    for name, digest in pins.items():
        if old_pins.get(name) != digest:
            changed[f"{PINNED_DIGESTS.name}: {name}"] = [f"sha256: {old_pins.get(name)} -> {digest}"]
    PINNED_DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return changed


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] == ["--large-digests"]:
        print(json.dumps(_digests_in_process(Path(sys.argv[2]))))
        sys.exit(0)
    kept = SWEEP_MIXED_CSV.read_text(encoding="utf-8") if SWEEP_MIXED_CSV.exists() else ""
    with tempfile.TemporaryDirectory() as tmp:
        moved = regenerate(Path(tmp))
    lines = [line for name, keys in moved.items() for line in [f"changed: {name}"] + [f"  {k}" for k in keys]]
    print("\n".join(lines) or "no fixture changed", file=sys.stderr)
    if SWEEP_MIXED_CSV.name in moved:
        print("\n".join(moved_columns(kept, SWEEP_MIXED_CSV.read_text(encoding="utf-8"))), file=sys.stderr)
