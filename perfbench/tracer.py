"""Layer spans around parahaar's public calls, installed from outside the package.

A layer is one module of the package.  `install` wraps every public function
of each layer module, and every public method, property and constructor of
the classes defined there, and rebinds the wrapper under every name that
holds the original in any `parahaar.*` namespace.  That reaches the names
`checks` and `cli` bind with `from .paraproducts import ...`, and the ones
`shifts` and `algebras` import inside function bodies, which read the module
attribute at call time.

A span opens when a call crosses into a layer from the benchmark or from
another layer; a call a layer makes into itself belongs to the enclosing span.
Each closed span keeps (layer, name, start, end, parent, probe time inside it).
Self time is a span's duration minus its direct children's durations, with
the time of the counting probes below taken out of every enclosing span.

Probes count work at the boundary where it happens:
- every `spectral.singular_values` call, nested or not: D, D**3 and whether the
  same matrix was already decomposed in this case (by content hash);
- every `kernels.discretize` call: n_cells**2 * refinement**(2 * dim) evaluations;
- every paraproducts span: the dense bytes (rows * cols * 16) and nonzero
  entries of the 2-D operators it returns.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("dyadic", "spectral", "paraproducts", "norms", "shifts", "median",
          "accel", "algebras", "kernels", "checks", "cli")

COUNTERS = ("paraproducts.dense_bytes", "paraproducts.nnz", "spectral.svd_calls",
            "spectral.svd_D_max", "spectral.svd_work", "spectral.svd_repeats",
            "kernels.kernel_evals")


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []        # open spans: [layer, span id, start, probe time at open]
        self.spans = []        # spans of the current case, indexed by span id
        self.probe_s = 0.0     # total probe time so far, excluded from spans
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.by_name = {}      # span name -> [self time, calls]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.medians = dict.fromkeys(("searches", "fallbacks", "boundary_cases"), 0)
        self.n_spans = 0
        self._svd_seen = set()

    def start_case(self):
        self.spans = []
        self._svd_seen = set()
        self.active = True

    def end_case(self, median_stats):
        """Fold the case's spans into per-layer self time and call counts.

        `median_stats` is `parahaar.median.stats`, zeroed before the case.
        """
        self.active = False
        self.medians["searches"] += median_stats.calls
        self.medians["fallbacks"] += median_stats.fallbacks
        self.medians["boundary_cases"] += median_stats.boundary_cases
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans left open at the end of a case")
        dur = [end - start - probe for (_, _, start, end, _, probe) in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[4] >= 0:
                child[span[4]] += dur[i]
        for i, (layer, name, _, _, _, _) in enumerate(self.spans):
            own = dur[i] - child[i]
            self.self_s[layer] += own
            self.calls[layer] += 1
            entry = self.by_name.setdefault(name, [0.0, 0])
            entry[0] += own
            entry[1] += 1
        self.n_spans += len(self.spans)
        self.spans = []

    # -- probes ------------------------------------------------------------

    def _probe_svd(self, fn, args, kwargs, result):
        T = np.ascontiguousarray(np.asarray(args[0] if args else kwargs["T"], dtype=complex))
        digest = hashlib.blake2b(T, digest_size=16)
        digest.update(repr(T.shape).encode())
        key = digest.digest()
        c = self.counters
        D = T.shape[0]
        c["spectral.svd_calls"] += 1
        c["spectral.svd_D_max"] = max(c["spectral.svd_D_max"], D)
        c["spectral.svd_work"] += D ** 3
        if key in self._svd_seen:
            c["spectral.svd_repeats"] += 1
        self._svd_seen.add(key)

    def _probe_discretize(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        refinement = bound.arguments["refinement"]
        dim = bound.arguments["K"].dim
        self.counters["kernels.kernel_evals"] += result.n_cells ** 2 * refinement ** (2 * dim)

    def _probe_operators(self, result):
        for arr in _matrices(result):
            self.counters["paraproducts.dense_bytes"] += arr.shape[0] * arr.shape[1] * 16
            self.counters["paraproducts.nnz"] += int(np.count_nonzero(arr))

    def report(self):
        """Per-layer metrics of the traced cases so far, by benchmark name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        c = self.counters
        out["paraproducts.dense_bytes"] = c["paraproducts.dense_bytes"]
        entries = c["paraproducts.dense_bytes"] // 16
        out["paraproducts.nnz_frac"] = c["paraproducts.nnz"] / entries if entries else 0.0
        for key in ("svd_calls", "svd_D_max", "svd_work"):
            out[f"spectral.{key}"] = c[f"spectral.{key}"]
        calls = c["spectral.svd_calls"]
        out["spectral.svd_repeat_frac"] = c["spectral.svd_repeats"] / calls if calls else 0.0
        for key, value in self.medians.items():
            out[f"median.{key}"] = value
        searches = self.medians["searches"]
        out["median.fallback_frac"] = self.medians["fallbacks"] / searches if searches else 0.0
        out["kernels.kernel_evals"] = c["kernels.kernel_evals"]
        out["trace.spans"] = self.n_spans
        out["trace.probe_s"] = self.probe_s
        return out


def _matrices(result):
    if isinstance(result, np.ndarray):
        if result.ndim == 2:
            yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _matrices(item)
    elif dataclasses.is_dataclass(result) and not isinstance(result, type):
        for f in dataclasses.fields(result):
            yield from _matrices(getattr(result, f.name))


_PROBES = {
    "spectral.singular_values": Tracer._probe_svd,
    "kernels.discretize": Tracer._probe_discretize,
}


def _wrap(tr, fn, layer, name):
    probe = _PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        stack = tr.stack
        if stack and stack[-1][0] == layer:
            if probe is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            t = time.perf_counter()
            probe(tr, fn, args, kwargs, result)
            tr.probe_s += time.perf_counter() - t
            return result
        sid = len(tr.spans)
        parent = stack[-1][1] if stack else -1
        tr.spans.append(None)
        stack.append((layer, sid, time.perf_counter(), tr.probe_s))
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, _, start, probe_open = stack.pop()
            tr.spans[sid] = (layer, name, start, end, parent, tr.probe_s - probe_open)
        t = time.perf_counter()
        if probe is not None:
            probe(tr, fn, args, kwargs, result)
        if layer == "paraproducts":
            tr._probe_operators(result)
        tr.probe_s += time.perf_counter() - t
        return result

    return traced


def _home_layer(obj):
    mod = getattr(obj, "__module__", "") or ""
    if mod.startswith("parahaar."):
        layer = mod.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return None


def install(tr: Tracer):
    """Wrap the public calls of every layer and rebind them everywhere."""
    mods = {layer: importlib.import_module(f"parahaar.{layer}") for layer in LAYERS}
    replaced = {}  # id(original function) -> wrapper
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or _home_layer(obj) != layer:
                continue
            if inspect.isfunction(obj):
                if id(obj) not in replaced:
                    replaced[id(obj)] = _wrap(tr, obj, layer, f"{layer}.{attr}")
            elif inspect.isclass(obj):
                _wrap_class(tr, obj, layer)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "parahaar" or modname.startswith("parahaar.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])


def _wrap_class(tr, cls, layer):
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(obj, property):
            if obj.fget is not None:
                setattr(cls, attr, property(_wrap(tr, obj.fget, layer, name),
                                            obj.fset, obj.fdel, obj.__doc__))
        elif isinstance(obj, (staticmethod, classmethod)):
            setattr(cls, attr, type(obj)(_wrap(tr, obj.__func__, layer, name)))
        elif inspect.isfunction(obj):
            setattr(cls, attr, _wrap(tr, obj, layer, name))
