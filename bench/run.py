"""riccatilab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  A run sets up the workload's inputs several times,
then repeats timed passes until S seconds have gone by (at least one).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced set-up plus pass and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; the line before it
holds the details (environment, seeds, check outcomes).  ``--seed`` only
shuffles the order of the work: the instances come from the master seeds.
"""

import os

# BLAS and OpenMP pools are pinned before numpy is first imported; this
# process is the only one the benchmark runs
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _import_library():
    """Import riccatilab from this checkout's src, never from elsewhere."""
    init = SRC / "riccatilab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no riccatilab sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import riccatilab

    if Path(riccatilab.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: riccatilab imported from {riccatilab.__file__}, not {init}")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep_mixed", "oracle_battery", "cli_large"))
    parser.add_argument("--seed", type=int, required=True, help="shuffles the order of the work")
    parser.add_argument("--seconds", type=float, required=True, help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: 5 specs per family, 8x24")
    # master seeds of the instances; unset means the acceptance battery's
    for family in ("interior", "subordinated", "overlapping", "instance"):
        parser.add_argument(f"--{family}-seed", type=int)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next(
            (line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines() if line.startswith("model name")),
            "",
        )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _measure(workload, seconds: float) -> dict:
    """Set up, then alternate passes and set-ups until `seconds` have passed.

    A unit's cost is its median over the passes; the set-ups are spread
    over the run rather than done back to back.
    """
    from workloads import REFERENCE_S, reference_s

    setup_s = []

    def setup():
        ref = reference_s()
        t0 = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - t0
        setup_s.append(seconds * REFERENCE_S / ((ref + reference_s()) / 2))

    setup()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass())
        setup()
    while len(setup_s) < SETUP_REPEATS:
        setup()
    cost = {unit: statistics.median(p.cost(unit) for p in passes) for unit in passes[0].unit_s}
    latency = workload.instance_ms(cost)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "instances_per_s": (workload.instances / sum(cost.values()), "1/s"),
        "instance_p50_ms": (_percentile(latency, 50), "ms"),
        "instance_p98_ms": (_percentile(latency, 98), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return {
        "metrics": metrics,
        "passes": passes,
        "samples": len(latency),
        "setup_runs_s": setup_s,
        "pass_s": [sum(p.unit_s.values()) for p in passes],
        "pass_reference_s": [statistics.median(p.ref_s.values()) for p in passes if p.ref_s],
        "cost_info": workload.cost_info(cost),
    }


def _traced(workload, tracer) -> dict:
    from tracing import per_layer_metrics

    t0 = time.perf_counter()
    workload.setup()
    passes = [workload.run_pass()]
    untraced_s = time.perf_counter() - t0
    workload.tracer = tracer
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.setup()
        passes.append(workload.run_pass())
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    layer = per_layer_metrics(tracer.spans, tracer.counters)
    return {
        "layer": layer,
        "passes": passes,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead": traced_s / untraced_s,
    }


def _summary(passes: list) -> dict:
    problems = [msg for p in passes for msg in p.problems]
    return {"pass_info": passes[-1].info, "problems": problems[:10]}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import workloads as wl
    from tracing import PER_LAYER, Tracer

    masters = dict(wl.DEFAULT_MASTERS)
    for family in masters:
        if getattr(args, f"{family}_seed") is not None:
            masters[family] = getattr(args, f"{family}_seed")
    size = wl.SMOKE if args.smoke else wl.FULL
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = wl.WORKLOADS[args.workload](size, masters, args.seed, workdir)
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "masters": masters,
            "size": vars(size),
            "smoke": args.smoke,
            "env": environment(),
        }
        if args.trace:
            tracer = Tracer()
            run = _traced(workload, tracer)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}.jsonl.gz"
            tracer.write_spans(spans_path)
            metrics = {name: {"value": run["layer"][name], "unit": unit} for name, unit, _ in PER_LAYER}
            details["trace"] = {
                "untraced_s": run["untraced_s"],
                "traced_s": run["traced_s"],
                "overhead": run["overhead"],
                "spans": len(tracer.spans),
                "peak_rss_mb": _peak_rss_mb(),
                "spans_file": str(spans_path.relative_to(ROOT)),
            }
        else:
            run = _measure(workload, args.seconds)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["metrics"].items()}
            details["pass_s"] = run["pass_s"]
            details["pass_reference_s"] = run["pass_reference_s"]
            details["cost"] = run["cost_info"]
            details["samples"] = run["samples"]
            details["setup_runs_s"] = run["setup_runs_s"]
        passes = run["passes"]
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        details.update(_summary(passes))
        details["failed_ratio"] = failed / attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
