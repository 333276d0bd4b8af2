"""The benchmark's workloads: their inputs, one timed pass, and its checks.

Each workload builds its inputs in ``setup`` and then runs passes.  A pass
calls riccatilab only through its public entry points (``cli.main`` and
the ``riccatilab.*`` functions), times those calls and nothing else, and
checks every output against thresholds taken from the acceptance battery.
A failed check is counted, never dropped.

The instance batteries are derived exactly as in ``tests/conftest.py``
from master seeds; the run seed only shuffles the order of the work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import riccatilab as rl
from riccatilab import cli, harness, serialize
from riccatilab.errors import IterationDiverged
from riccatilab.rng import SplitMix64

DEFAULT_MASTERS = {
    "interior": 20260817,
    "subordinated": 424242,
    "overlapping": 515151,
    "instance": 11,
}


@dataclass(frozen=True)
class Size:
    interior: int
    subordinated: int
    overlapping: int
    n_A: int
    n_C: int


FULL = Size(interior=500, subordinated=200, overlapping=100, n_A=64, n_C=192)
SMOKE = Size(interior=5, subordinated=5, overlapping=5, n_A=8, n_C=24)

# thresholds from the acceptance battery (criteria 02, 03, 04)
RESIDUAL_REL = 1e-9
CONTOUR_GAP = 1e-8
FIXEDPOINT_GAP = 1e-7
DEFECT_MAX = 1e-9
SMIN_FLOOR = 1e-8
W_SCAN_POINTS = 25


def interior_specs(count: int, master: int) -> list:
    """Interior battery, drawn as tests/conftest.py::interior_specs does."""
    m = SplitMix64(master)
    specs = []
    for _ in range(count):
        seed = m.next_u64()
        n_A = 1 + m.next_u64() % 6
        n_C = 2 + m.next_u64() % 11
        alpha = -(0.5 + m.uniform())
        beta = 0.5 + m.uniform()
        length = beta - alpha
        d_target = (0.08 + 0.34 * m.uniform()) * length
        ratio = 0.05 + 0.90 * m.uniform()
        specs.append(rl.GenSpec(seed, n_A, n_C, (alpha, beta), d_target, ratio, "interior"))
    return specs


def subordinated_specs(count: int, master: int) -> list:
    """Subordinated battery, drawn as tests/conftest.py::subordinated_specs does."""
    m = SplitMix64(master)
    specs = []
    for _ in range(count):
        seed = m.next_u64()
        n_A = 1 + m.next_u64() % 6
        n_C = 1 + m.next_u64() % 12
        beta = 0.5 + m.uniform()
        d_target = (0.05 + 0.40 * m.uniform()) * beta
        ratio = 0.1 + 1.9 * m.uniform()
        specs.append(rl.GenSpec(seed, n_A, n_C, (0.0, beta), d_target, ratio, "subordinated"))
    return specs


def overlapping_specs(count: int, master: int) -> list:
    """The first `count` overlapping specs of tests/conftest.py::overlapping100.

    Unlike the fixture, nothing is filtered out: specs on which the
    spectral route fails stay in, so their rows carry error tags.
    """
    m = SplitMix64(master)
    specs = []
    for _ in range(count):
        seed = m.next_u64()
        n_A = 1 + m.next_u64() % 4
        n_C = 2 + m.next_u64() % 9
        alpha = -(0.5 + m.uniform())
        beta = 0.5 + m.uniform()
        length = beta - alpha
        d_target = (0.08 + 0.30 * m.uniform()) * length
        ratio = 0.05 + 0.85 * m.uniform()
        specs.append(rl.GenSpec(seed, n_A, n_C, (alpha, beta), d_target, ratio, "overlapping"))
    return specs


def large_spec(seed: int, size: Size):
    return rl.GenSpec(seed, size.n_A, size.n_C, (-1.0, 1.0), 0.3, 0.5, "interior")


def _midpoint(spec) -> float:
    return (spec.gap[0] + spec.gap[1]) / 2.0


def _norm2(M) -> float:
    # the benchmark's own checks use numpy directly, so they never show
    # up in the library's per-layer counts
    return float(np.linalg.norm(M, 2))


def _error_names() -> frozenset:
    names, todo = set(), [rl.RiccatiLabError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return frozenset(names)


def _spec_row(spec) -> dict:
    return {
        "seed": spec.seed,
        "n_A": spec.n_A,
        "n_C": spec.n_C,
        "gap": list(spec.gap),
        "d_target": spec.d_target,
        "b_ratio": spec.b_ratio,
        "placement": spec.placement,
    }


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


# The host's per-core speed swings by up to 1.8x within seconds.  Small-
# matrix work slows down with this kernel, so a unit's time divided by the
# kernel's time just before it is steady; times are reported scaled to a
# host on which the kernel takes REFERENCE_S.
REFERENCE_S = 5e-4
_REF = np.random.default_rng(20260817)
_REF_H = _REF.standard_normal((12, 12)) + 1j * _REF.standard_normal((12, 12))
_REF_H = _REF_H + _REF_H.conj().T
_REF_B = _REF.standard_normal((12, 6)) + 0j
_REF_SHIFT = 30.0 * np.eye(12)


def reference_s() -> float:
    """Seconds taken by a fixed mix of small eigh, 2-norm, solve and Python loops."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.linalg.eigh(_REF_H)
        np.linalg.norm(_REF_H[:6, :6], 2)
        np.linalg.solve(_REF_H + _REF_SHIFT, _REF_B)
        sum(i * 0.5 for i in range(150))
    return time.perf_counter() - t0


@dataclass
class PassResult:
    """One pass: the time of each timed unit of work, and check outcomes."""

    unit_s: dict  # unit key -> seconds spent inside riccatilab calls
    attempted: int
    ref_s: dict = field(default_factory=dict)  # unit key -> reference_s() near it
    failed: int = 0
    info: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def cost(self, unit) -> float:
        """The unit's time, scaled by the reference time near it if there is one."""
        ref = self.ref_s.get(unit)
        seconds = self.unit_s[unit]
        return seconds if ref is None else seconds * REFERENCE_S / ref

    def problem(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


class Workload:
    """Base: setup() rebuilds the inputs; run_pass() times one pass over them.

    A pass is a fixed list of timed units (a sweep chunk, an instance, a
    CLI command).  ``instance_ms`` turns each unit's cost into per-instance
    latencies, and ``instances`` is the number of instances in one pass.
    """

    name = ""

    def __init__(self, size: Size, masters: dict, seed: int, workdir: Path, tracer=None):
        self.size = size
        self.masters = masters
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def _order(self, count: int) -> list:
        order = list(range(count))
        random.Random(self.seed).shuffle(order)
        return order

    def _count(self, name: str, value: int) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    @property
    def instances(self) -> int:
        raise NotImplementedError

    def instance_ms(self, cost: dict) -> list:
        raise NotImplementedError

    def cost_info(self, cost: dict) -> dict:
        """Workload-specific figures for the details line."""
        return {}


class SweepMixed(Workload):
    """In-process ``riccatilab sweep -`` over the interior, subordinated and
    unfiltered overlapping batteries, issued in chunks of CHUNK specs fed
    on stdin, so that each chunk is timed on its own and no file is read
    or written."""

    name = "sweep_mixed"
    CHUNK = 10

    def setup(self) -> None:
        specs = (
            interior_specs(self.size.interior, self.masters["interior"])
            + subordinated_specs(self.size.subordinated, self.masters["subordinated"])
            + overlapping_specs(self.size.overlapping, self.masters["overlapping"])
        )
        self.order = self._order(len(specs))
        self.specs = [specs[i] for i in self.order]
        self.chunks = [
            (json.dumps([_spec_row(s) for s in self.specs[k : k + self.CHUNK]]), self.specs[k : k + self.CHUNK])
            for k in range(0, len(self.specs), self.CHUNK)
        ]
        self.errors = _error_names()

    @property
    def instances(self) -> int:
        return len(self.specs)

    def instance_ms(self, cost: dict) -> list:
        return [1e3 * cost[k] / len(chunk) for k, (_, chunk) in enumerate(self.chunks) for _ in chunk]

    def run_pass(self) -> PassResult:
        result = PassResult({}, attempted=len(self.specs))
        header = ",".join(harness.CSV_COLUMNS)
        body = []
        tags: dict = {}
        for k, (grid, chunk) in enumerate(self.chunks):
            result.ref_s[k] = reference_s()
            out = io.StringIO()
            stdin, sys.stdin = sys.stdin, io.StringIO(grid)
            try:
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["sweep", "-"])
                result.unit_s[k] = time.perf_counter() - t0
            finally:
                sys.stdin = stdin
            text = out.getvalue() if code == 0 else ""
            lines = text.splitlines()
            if not lines or lines[0] != header or len(lines) != len(chunk) + 1:
                for spec in chunk:
                    result.problem(f"chunk {k}: exit {code}, or CSV header or row count differs")
                body.extend([""] * len(chunk))
                continue
            self._count("cli.sweep.csv_bytes", len(text.encode()))
            body.extend(lines[1:])
            for spec, row in zip(chunk, csv.DictReader(io.StringIO(text))):
                problem = self._row_problem(spec, row, tags)
                if problem:
                    result.problem(f"seed {spec.seed}: {problem}")
        # the rows in grid order, as one sweep over the unshuffled specs writes them
        canonical = [""] * len(body)
        for line, i in zip(body, self.order):
            canonical[i] = line
        digest = hashlib.sha256("\n".join([header, *canonical, ""]).encode())
        result.info = {"tags": dict(sorted(tags.items())), "csv_sha256": digest.hexdigest()}
        return result

    def _row_problem(self, spec, row: dict, tags: dict) -> str | None:
        if row["seed"] != str(spec.seed):
            return "row order differs from the grid"
        status = row["status"]
        if spec.placement == "overlapping":
            if status == "ok":
                return None
            if status in self.errors:
                tags[status] = tags.get(status, 0) + 1
                return None
            return f"status {status!r} is neither ok nor a RiccatiLabError"
        if status != "ok":
            return f"status {status}"
        # a lower bound on residual_scale: ||A|| and ||C|| are at least the
        # eigenvalues the generator places exactly, so the test is never looser
        alpha, beta = spec.gap
        a_exact = beta - spec.d_target if spec.placement == "subordinated" else alpha + spec.d_target
        c_exact = max(abs(alpha), abs(beta)) if spec.placement == "interior" else abs(beta)
        scale = (abs(a_exact) + float(row["b"]) + c_exact) * (1.0 + float(row["x_norm"])) ** 2
        if not float(row["residual"]) <= RESIDUAL_REL * scale:
            return f"residual {row['residual']} above {RESIDUAL_REL}*scale"
        wanted = (
            ("existence", "tan_theta", "apriori")
            if spec.placement == "interior"
            else ("tan2theta", "tan_theta")
        )
        for cert in wanted:
            if row[f"{cert}_pass"] != "true":
                return f"{cert}_pass is {row[f'{cert}_pass']!r}"
        return None


class OracleBattery(Workload):
    """Cross-checks the three solver routes, the factorization and the
    geometry on each interior instance, as acceptance criteria 03 and 04 do."""

    name = "oracle_battery"
    OPS = ("spectral", "contour", "fixedpoint", "uniqueness", "factorization", "w_scan", "geometry")

    def setup(self) -> None:
        specs = interior_specs(self.size.interior, self.masters["interior"])
        self.battery = []
        for i in self._order(len(specs)):
            p = rl.generate(specs[i])
            self.battery.append((i, p, rl.select_gap(p, _midpoint(specs[i]))))

    @property
    def instances(self) -> int:
        return len(self.battery)

    def instance_ms(self, cost: dict) -> list:
        per_instance: dict = {}
        for (i, _), seconds in cost.items():
            per_instance[i] = per_instance.get(i, 0.0) + seconds
        return [1e3 * t for t in per_instance.values()]

    def run_pass(self) -> PassResult:
        result = PassResult({}, attempted=len(self.battery) * len(self.OPS))
        result.info = {"fixedpoint_converged": 0, "fixedpoint_diverged": 0}
        for i, p, gap in self.battery:
            if self.tracer is not None:
                self.tracer.instance = i
            ref = reference_s()
            op_s, problems = self._instance(p, gap, result.info)
            result.unit_s.update({(i, op): t for op, t in op_s.items()})
            result.ref_s.update({(i, op): ref for op in op_s})
            for op, what in problems:
                result.problem(f"instance {i} {op}: {what}")
        return result

    def _instance(self, p, gap, info: dict) -> tuple[dict, list]:
        """Seconds per operation, and the (operation, problem) pairs found."""
        op_s = dict.fromkeys(self.OPS, 0.0)
        problems = []

        def timed(op, fn):
            t0 = time.perf_counter()
            try:
                return fn()
            except rl.RiccatiLabError as err:
                problems.append((op, type(err).__name__))
                return None
            finally:
                op_s[op] = time.perf_counter() - t0

        sol = timed("spectral", lambda: rl.solve_spectral(p, gap))
        if sol is None:
            return op_s, problems + [(op, "no spectral solution") for op in self.OPS[1:]]

        def contour():
            z = np.linalg.eigvals(sol.Z).real
            c = np.linalg.eigvalsh(p.C)
            return rl.solve_contour(p, sol.Z, rl.build_contour(z, c))

        alt = timed("contour", contour)
        if alt is not None and not _norm2(alt.X - sol.X) <= CONTOUR_GAP:
            problems.append(("contour", f"gap {_norm2(alt.X - sol.X):.2e}"))

        # IterationDiverged is the route's documented give-up outcome, not a
        # wrong answer; it is counted apart and converged runs are checked
        t0 = time.perf_counter()
        try:
            fix = rl.solve_fixedpoint(p, gap)
        except IterationDiverged:
            fix = None
            info["fixedpoint_diverged"] += 1
        except rl.RiccatiLabError as err:
            fix = None
            problems.append(("fixedpoint", type(err).__name__))
        op_s["fixedpoint"] = time.perf_counter() - t0
        if fix is not None:
            info["fixedpoint_converged"] += 1
            if not _norm2(fix.X - sol.X) <= FIXEDPOINT_GAP:
                problems.append(("fixedpoint", f"gap {_norm2(fix.X - sol.X):.2e}"))

        if timed("uniqueness", lambda: rl.uniqueness_class_check(p, sol, gap)) is False:
            problems.append(("uniqueness", "not in the uniqueness class"))

        defect = timed(
            "factorization",
            lambda: rl.verify_factorization(p, sol, rl.factorization_grid(p, gap)),
        )
        if defect is not None and not defect <= DEFECT_MAX:
            problems.append(("factorization", f"defect {defect:.2e}"))

        def w_scan():
            enc = rl.enclosure_bounds(p, gap)
            lams = np.linspace(enc.lower, enc.upper, W_SCAN_POINTS)
            return [rl.compute_W(p, sol.X, complex(lam)) for lam in lams]

        Ws = timed("w_scan", w_scan)
        if Ws is not None:
            smin = min(float(np.linalg.svd(W, compute_uv=False)[-1]) for W in Ws)
            if not smin > SMIN_FLOOR:
                problems.append(("w_scan", f"min smin(W) {smin:.2e}"))

        def geometry():
            angle = rl.operator_angle(rl.graph_projection(sol.X))
            rl.block_diagonalize(p, sol.X)
            return angle, sol.x_norm

        out = timed("geometry", geometry)
        if out is not None and out[0].tan_norm != out[1]:
            problems.append(("geometry", f"tan_norm {out[0].tan_norm!r} != x_norm {out[1]!r}"))
        return op_s, problems


class CliLarge(Workload):
    """``riccatilab solve`` (three routes), ``certify`` and ``factorize``,
    in process, on one large generated problem file."""

    name = "cli_large"
    # large LAPACK calls slow down less than the reference kernel when the
    # host does, so scaling would widen the spread: commands stay raw
    COMMANDS = (
        ("solve_spectral", ["solve", "--method", "spectral"]),
        ("solve_contour", ["solve", "--method", "contour"]),
        ("solve_fixedpoint", ["solve", "--method", "fixedpoint"]),
        ("certify", ["certify"]),
        ("factorize", ["factorize"]),
    )

    def setup(self) -> None:
        t0 = time.perf_counter()
        spec = large_spec(self.masters["instance"], self.size)
        p = rl.generate(spec)
        self.generate_runs_s = getattr(self, "generate_runs_s", []) + [time.perf_counter() - t0]
        self.problem_path = self.workdir / "problem.json"
        self.problem_path.write_text(serialize.dumps(serialize.problem_to_dict(p, gap=spec.gap)))
        self.problem_bytes = self.problem_path.stat().st_size
        self.order = self._order(len(self.COMMANDS))

    @property
    def instances(self) -> int:
        return 1

    def instance_ms(self, cost: dict) -> list:
        return [1e3 * sum(cost.values())]

    def cost_info(self, cost: dict) -> dict:
        info = {f"{label}_s": cost[label] for label, _ in self.COMMANDS}
        info["generate_s"] = min(self.generate_runs_s)
        return info

    def run_pass(self) -> PassResult:
        result = PassResult({}, attempted=len(self.COMMANDS))
        payloads = {}
        for k in self.order:
            label, args = self.COMMANDS[k]
            if self.tracer is not None:
                self.tracer.instance = k
            self._count("serialize.bytes_in", self.problem_bytes)
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main([args[0], str(self.problem_path), *args[1:]])
            result.unit_s[label] = time.perf_counter() - t0
            try:
                payloads[label] = json.loads(out.getvalue()) if code == 0 else None
            except json.JSONDecodeError:
                payloads[label] = None
            if payloads[label] is None:
                result.problem(f"{label}: exit {code} or stdout is not JSON")
        self._check(payloads, result)
        return result

    def _check(self, payloads: dict, result: PassResult) -> None:
        spectral = payloads["solve_spectral"]
        for label, bound in (("solve_contour", CONTOUR_GAP), ("solve_fixedpoint", FIXEDPOINT_GAP)):
            if spectral is None or payloads[label] is None:
                continue
            gap = _norm2(_matrix(payloads[label]["X"]) - _matrix(spectral["X"]))
            if not gap <= bound:
                result.problem(f"{label}: X differs from spectral by {gap:.2e}")
        certify = payloads["certify"]
        if certify is not None:
            existence = [c for c in certify["certificates"] if c["theorem"] == "existence_1i"]
            if not (existence and existence[0].get("passed") is True):
                result.problem("certify: existence certificate did not pass")
        factorize = payloads["factorize"]
        if factorize is not None:
            defect = factorize["defect"]
            if defect is None or not defect <= DEFECT_MAX or factorize.get("w_invertible") is not True:
                result.problem(f"factorize: defect {defect} or W not invertible")


WORKLOADS = {w.name: w for w in (SweepMixed, OracleBattery, CliLarge)}

