"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the krgraph modules after they are
imported. Nothing inside the package changes: each wrapped function is
replaced on its defining module (or class) and on every other krgraph
module that imported it by name, so that `evaluation.fit_krg`,
`graphlearn.fit_krg` and `cli.gram_matrix` are counted as well as
`solver.fit_krg` and `kernels.gram_matrix`.

Spans are kept in memory as (layer index, start, end, parent span) and
written out once, when the traced command ends. `aggregate` turns a span
file into per-layer metrics; a layer's self time is its duration minus
the durations of the wrapped calls made directly inside it.

A target that no longer exists (a later version may delete or fuse a
function) is listed as absent, and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

# (layer name, module, attribute path inside the module, reported stats).
# Stats: calls, s (total), self_s, p50_s, p95_s, and the extras that
# EXTRAS below computes from a call's arguments and result.
LAYERS = (
    ("cli.main", "krgraph.cli", "main", ("self_s",)),
    ("evaluation.cross_validate", "krgraph.evaluation", "cross_validate",
     ("calls", "s", "self_s", "p50_s", "p95_s")),
    ("evaluation.nmse_db", "krgraph.evaluation", "nmse_db", ("calls", "s")),
    ("solver.SpectralCache.build", "krgraph.solver", "SpectralCache.build",
     ("calls", "s", "self_s")),
    ("solver.solve_sylvester_spectral", "krgraph.solver",
     "solve_sylvester_spectral", ("calls", "s")),
    ("solver.fit_krg", "krgraph.solver", "fit_krg", ("calls", "s")),
    ("solver.save_model", "krgraph.solver", "save_model", ("s", "bytes")),
    ("solver.load_model", "krgraph.solver", "load_model", ("s",)),
    ("kernels.kernel_cross_matrix", "krgraph.kernels", "kernel_cross_matrix",
     ("calls", "s", "rows")),
    ("kernels.gram_matrix", "krgraph.kernels", "gram_matrix", ("calls", "s")),
    # KernelSpec validation, including the precomputed-kernel PSD check.
    ("kernels.KernelSpec.check", "krgraph.kernels", "KernelSpec.__post_init__",
     ("calls", "s")),
    ("graphs.Laplacian.eigendecomposition", "krgraph.graphs",
     "Laplacian.eigendecomposition", ("calls", "s")),
    ("graphs.load_matrix_csv", "krgraph.graphs", "load_matrix_csv",
     ("calls", "s")),
    ("graphs.save_matrix_csv", "krgraph.graphs", "save_matrix_csv",
     ("calls", "s", "bytes")),
    ("graphlearn.alternating_fit", "krgraph.graphlearn", "alternating_fit",
     ("s", "outer_iters")),
    ("graphlearn.minimize_edge_weights", "krgraph.graphlearn",
     "minimize_edge_weights", ("calls", "s", "self_s")),
    ("graphlearn.project_simplex", "krgraph.graphlearn", "project_simplex",
     ("calls",)),
    ("graphlearn.joint_cost", "krgraph.graphlearn", "joint_cost", ("s",)),
    ("graphlearn.weights_to_laplacian", "krgraph.graphlearn",
     "weights_to_laplacian", ("s",)),
    ("synthdata.make_synthetic_dataset", "krgraph.synthdata",
     "make_synthetic_dataset", ("calls", "s")),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_s": "s",
         "p95_s": "s", "bytes": "B", "rows": "count", "outer_iters": "count"}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


# layer -> function of (args, kwargs, result) giving the number summed into
# the layer's one extra stat (bytes, rows or outer_iters in LAYERS)
EXTRAS = {
    "graphs.save_matrix_csv": _file_bytes,
    "solver.save_model": _file_bytes,
    "kernels.kernel_cross_matrix": lambda a, k, r: r.shape[0],
    "graphlearn.alternating_fit": lambda a, k, r: len(r[2]),
}


def metric_names():
    """Every per-layer metric the tracer can report, in a fixed order."""
    names = [f"{layer}.{stat}" for layer, _, _, stats in LAYERS
             for stat in stats]
    return names + ["trace_overhead_s"]


class Tracer:
    """Wraps the LAYERS functions and records one span per call."""

    def __init__(self):
        self.layers = [layer for layer, _, _, _ in LAYERS]
        self.spans = []            # [layer index, start, end, parent index]
        self.extras = {}           # layer -> summed extra value
        self.sites = {}            # layer -> where the wrapper was installed
        self.absent = []
        self._stack = []

    def _wrap(self, index, fn):
        layer = self.layers[index]
        extra = EXTRAS.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                try:
                    value = extra(args, kwargs, result)
                except Exception:  # never let the tracer change the program
                    value = 0
                self.extras[layer] = self.extras.get(layer, 0) + value
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; record the others as absent."""
        for index, (layer, module_name, attr, _) in enumerate(LAYERS):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(layer)
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                self.absent.append(layer)
                continue
            if owner_name:
                # A method: patching the class reaches every caller.
                if isinstance(raw, staticmethod):
                    setattr(owner, name,
                            staticmethod(self._wrap(index, raw.__func__)))
                else:
                    setattr(owner, name, self._wrap(index, raw))
                self.sites[layer] = [f"{module_name}.{attr}"]
                continue
            wrapper = self._wrap(index, raw)
            sites = []
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == "krgraph"
                                       or mod_name.startswith("krgraph.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod_name}.{key}")
            self.sites[layer] = sites

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "spans": self.spans,
                       "extras": self.extras, "sites": self.sites,
                       "absent": self.absent}, fh)


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def aggregate(docs):
    """Per-layer totals over the span files of one workload iteration."""
    totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
              for layer, _, _, _ in LAYERS}
    absent = set()
    extras = {}
    for doc in docs:
        absent.update(doc["absent"])
        for layer, value in doc["extras"].items():
            extras[layer] = extras.get(layer, 0) + value
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for layer_idx, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer_idx, start, end, _) in enumerate(spans):
            t = totals[doc["layers"][layer_idx]]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["durations"].append(end - start)
    metrics = {}
    for layer, _, _, stats in LAYERS:
        if layer in absent:
            continue
        t = totals[layer]
        durations = sorted(t["durations"])
        for stat in stats:
            if stat == "p50_s":
                value = _quantile(durations, 50)
            elif stat == "p95_s":
                value = _quantile(durations, 95)
            elif stat in ("calls", "s", "self_s"):
                value = t[stat]
            else:
                value = extras.get(layer, 0)
            metrics[f"{layer}.{stat}"] = value
    return metrics, sorted(absent)
