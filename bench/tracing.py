"""Per-layer tracing installed from outside the library.

riccatilab has no tracing of its own yet, so the traced run wraps, at run
time, every public function of each package module, the methods of
``SplitMix64`` and the ``numpy.linalg`` entry points the package calls.
The modules bind each other's functions with ``from .linalg import ...``,
so a wrapper replaces the function at every module global that binds it;
numpy is reached through a stand-in ``np`` module in each riccatilab
module, so the benchmark's own numpy calls are never counted.

Each call becomes a span (name, start, end, parent, instance, error,
extra), kept in memory and written out as JSON lines when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "rng",
    "harness",
    "block",
    "linalg",
    "solvers",
    "certificates",
    "factorization",
    "geometry",
    "serialize",
    "cli",
)
RNG_METHODS = (
    "next_u64",
    "uniform",
    "uniform_open",
    "normal_pair",
    "normal",
    "complex_normal_matrix",
    "unitary",
)
KERNEL = ("eigh", "eig", "eigvals", "eigvalsh", "svd", "norm", "solve", "qr", "inv")
CERTIFIERS = {
    "existence": "certify_existence",
    "contraction": "certify_contraction",
    "tan_theta": "certify_tan_theta",
    "apriori": "certify_apriori",
    "tan2theta": "certify_tan2theta",
    "squared_shift": "squared_shift",
}
# every sweep row starts with realize(spec), so that call opens a new instance
INSTANCE_STARTS = frozenset({"harness.realize"})


def _ndim_batch(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return int(np.shape(a)[0]) if np.ndim(a) == 3 else 1


def _points(index):
    def extra(args, kwargs, result):
        return int(np.size(args[index]))

    return extra


def _result_length(args, kwargs, result):
    return len(result)


EXTRAS = {
    "kernel.solve": _ndim_batch,
    "block.herglotz_batch": _points(1),
    "factorization.verify_factorization": _points(2),
    "serialize.dumps": _result_length,
}


def _norm_name(args, kwargs) -> str:
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return "kernel.norm2" if order == 2 else "kernel.norm"


class Tracer:
    """Records spans for wrapped calls; install() and uninstall() patch the package."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.instance = -1
        self._stack = [-1]
        self._undo: list = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] += value

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)
        name_of = _norm_name if name == "kernel.norm" else None
        opens_instance = name in INSTANCE_STARTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_instance:
                tracer.instance += 1
            span = [name_of(args, kwargs) if name_of else name, 0.0, 0.0, stack[-1], tracer.instance, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[6] = extra(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of riccatilab's modules, wherever bound."""
        import riccatilab
        from riccatilab.rng import SplitMix64

        modules = [riccatilab] + [importlib.import_module(f"riccatilab.{m}") for m in LAYERS]
        modules += [m for n, m in sorted(sys.modules.items()) if n.startswith("riccatilab.") and m not in modules]
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"riccatilab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replacements[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])
        for meth in RNG_METHODS:
            self._set(SplitMix64, meth, self._wrap(f"rng.{meth}", vars(SplitMix64)[meth]))

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(np.linalg))
        for fn in KERNEL:
            setattr(linalg, fn, self._wrap(f"kernel.{fn}", getattr(np.linalg, fn)))
        numpy = types.ModuleType("numpy")
        numpy.__dict__.update(vars(np))
        numpy.linalg = linalg
        for mod in modules:
            if getattr(mod, "np", None) is np:
                self._set(mod, "np", numpy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            for name, t0, t1, parent, instance, error, extra in self.spans:
                row = {"name": name, "start": t0 - origin, "end": t1 - origin, "parent": parent, "instance": instance}
                if error is not None:
                    row["error"] = error
                if extra is not None:
                    row["extra"] = extra
                out.write(json.dumps(row) + "\n")


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in ("kernel",) + LAYERS]
    + [
        (f"linalg.{fn}.{kind}", unit, "lower")
        for fn in ("require_hermitian", "operator_norm", "hermitian_eig", "solve_sylvester")
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"kernel.{fn}.{kind}", unit, "lower")
        for fn in ("eigh", "eig", "eigvals", "eigvalsh", "svd", "norm2", "solve", "qr", "inv")
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("kernel.solve.batch_matrices", "count", "lower"),
        ("solvers.solve_spectral.self_s", "s", "lower"),
        ("solvers.solve_contour.self_s", "s", "lower"),
        ("solvers.contour.nodes", "count", "lower"),
        ("solvers.solve_fixedpoint.self_s", "s", "lower"),
        ("solvers.fixedpoint.iterations", "count", "lower"),
        ("solvers.fixedpoint.failed", "count", "lower"),
        ("solvers.fixedpoint.wasted_iterations", "count", "lower"),
        ("solvers.fixedpoint.converged_ratio", "ratio", "higher"),
        ("solvers.residual.calls", "count", "lower"),
        ("solvers.uniqueness_class_check.self_s", "s", "lower"),
        ("rng.draws", "count", "lower"),
        ("harness.generate.calls", "count", "lower"),
        ("harness.generate.self_s", "s", "lower"),
        ("block.select_gap.self_s", "s", "lower"),
        ("block.find_gaps.calls", "count", "lower"),
        ("block.dist_spectra.calls", "count", "lower"),
        ("block.herglotz_batch.points", "count", "lower"),
        ("block.herglotz_batch.self_s", "s", "lower"),
    ]
    + [(f"certificates.{short}.self_s", "s", "lower") for short in CERTIFIERS]
    + [
        ("certificates.not_applicable", "count", "lower"),
        ("factorization.verify_factorization.self_s", "s", "lower"),
        ("factorization.verify_factorization.points", "count", "lower"),
        ("factorization.compute_W.calls", "count", "lower"),
        ("factorization.compute_W.self_s", "s", "lower"),
        ("factorization.enclosure_bounds.self_s", "s", "lower"),
        ("factorization.sign_conditions.self_s", "s", "lower"),
        ("geometry.graph_projection.self_s", "s", "lower"),
        ("geometry.operator_angle.self_s", "s", "lower"),
        ("geometry.block_diagonalize.self_s", "s", "lower"),
        ("serialize.problem_from_dict.self_s", "s", "lower"),
        ("serialize.matrix_from_json.self_s", "s", "lower"),
        ("serialize.matrix_to_json.self_s", "s", "lower"),
        ("serialize.dumps.self_s", "s", "lower"),
        ("serialize.bytes_in", "bytes", "lower"),
        ("serialize.bytes_out", "bytes", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.sweep.csv_bytes", "bytes", "lower"),
    ]
)


def per_layer_metrics(spans: list, counters: Counter) -> dict:
    """Aggregate spans and counters into every PER_LAYER metric."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    extra: Counter = Counter()
    errors: Counter = Counter()
    for i, (name, t0, t1, parent, instance, error, ext) in enumerate(spans):
        own = (t1 - t0) - child[i]
        calls[name] += 1
        self_s[name] += own
        self_s[name.split(".", 1)[0]] += own
        if ext is not None:
            extra[name] += ext
        if error is not None:
            errors[name] += 1

    def owner(i: int, layer: str) -> str | None:
        # name of the nearest enclosing span of the given layer
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0].startswith(layer):
                return spans[parent][0]
            parent = spans[parent][3]
        return None

    nodes = 0
    iterations: Counter = Counter()  # per fixed-point span index
    for i, span in enumerate(spans):
        if span[0] == "kernel.solve" and owner(i, "solvers.") == "solvers.solve_contour":
            nodes += span[6]
        elif span[0] == "linalg.solve_sylvester" and owner(i, "solvers.") == "solvers.solve_fixedpoint":
            parent = span[3]
            while spans[parent][0] != "solvers.solve_fixedpoint":
                parent = spans[parent][3]
            iterations[parent] += 1
    fixedpoint = [i for i, s in enumerate(spans) if s[0] == "solvers.solve_fixedpoint"]
    failed = [i for i in fixedpoint if spans[i][5] is not None]

    out = {}
    for name, unit, _ in PER_LAYER:
        parts = name.split(".")
        if len(parts) == 2 and name.endswith(".self_s"):
            value = self_s[parts[0]]
        elif name.endswith(".self_s"):
            span_name = name[: -len(".self_s")]
            if parts[0] == "certificates" and parts[1] in CERTIFIERS:
                span_name = f"certificates.{CERTIFIERS[parts[1]]}"
            value = self_s[span_name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        else:
            value = None
        out[name] = value
    out.update(
        {
            "kernel.solve.batch_matrices": extra["kernel.solve"],
            # each quadrature node costs one C-side and one Z-side solve
            "solvers.contour.nodes": nodes // 2,
            "solvers.fixedpoint.iterations": sum(iterations.values()),
            "solvers.fixedpoint.failed": len(failed),
            "solvers.fixedpoint.wasted_iterations": sum(iterations[i] for i in failed),
            "solvers.fixedpoint.converged_ratio": (
                (len(fixedpoint) - len(failed)) / len(fixedpoint) if fixedpoint else 0.0
            ),
            "rng.draws": calls["rng.next_u64"],
            "block.herglotz_batch.points": extra["block.herglotz_batch"],
            "certificates.not_applicable": sum(
                errors[f"certificates.{fn}"] for fn in CERTIFIERS.values()
            ),
            "factorization.verify_factorization.points": extra["factorization.verify_factorization"],
            "serialize.bytes_in": counters["serialize.bytes_in"],
            "serialize.bytes_out": extra["serialize.dumps"],
            "cli.sweep.csv_bytes": counters["cli.sweep.csv_bytes"],
        }
    )
    missing = [name for name, value in out.items() if value is None]
    if missing:
        raise KeyError(f"per-layer metrics without a rule: {missing}")
    return out
