"""Spans around the public callables of agb's modules, from outside agb.

``Tracer.install`` replaces every public module-level function and every
public method (and ``__init__``) of the public classes defined in each layer
module with a wrapper that records a span: name, start, end and parent span.
Every agb namespace that holds the original (``from .gf import rref`` and the
like) gets the wrapper too.  Spans stay in memory in flat arrays until
``write`` saves them.  ``uninstall`` restores the originals.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans, so each instant counts once, for the
innermost layer that was running.
"""

import enum
import functools
import importlib
import json
import time
import tracemalloc
import types
from array import array

import numpy as np

import refcheck

LAYERS = ("cli", "semigroup", "hstar", "bounds", "gf", "evalcode",
          "generic_bound", "oracle")

# metric name -> (span names, statistic); "s" is the summed time and "calls"
# the count of spans not nested directly in a span of the same name.
_SPAN_METRICS = {
    "semigroup.from_generators.calls": (
        ("semigroup.NumericalSemigroup.from_generators",), "calls"),
    "hstar.construct.calls": (
        tuple(f"hstar.HStar.{c}" for c in (
            "from_explicit", "from_equiv_divisor", "from_isometry_dual",
            "from_abundance", "from_dimension_chain")), "calls"),
    "bounds.lambda_profile.s": (("bounds.lambda_profile",), "s"),
    "bounds.lambda_profile.calls": (("bounds.lambda_profile",), "calls"),
    "bounds.a_counts_by_index.s": (("bounds.a_counts_by_index",), "s"),
    "bounds.ghw_bound.s": (("bounds.ghw_bound",), "s"),
    "bounds.ghw_bound.calls": (("bounds.ghw_bound",), "calls"),
    "gf.add_arrays.s": (("gf.FiniteField.add_arrays",), "s"),
    "gf.add_arrays.calls": (("gf.FiniteField.add_arrays",), "calls"),
    "gf.rref.s": (("gf.rref",), "s"),
    "gf.rref.calls": (("gf.rref",), "calls"),
    "evalcode.code.s": (("evalcode.code",), "s"),
    "evalcode.code.calls": (("evalcode.code",), "calls"),
    "evalcode.biorthogonal_adjust.s": (("evalcode.biorthogonal_adjust",), "s"),
    "generic_bound.CodeChain.calls": (("generic_bound.CodeChain",), "calls"),
    "oracle.min_distance.s": (("oracle.min_distance",), "s"),
    "oracle.weight_hierarchy.s": (("oracle.weight_hierarchy",), "s"),
    "oracle.find_isometry_vector.s": (("oracle.find_isometry_vector",), "s"),
}

# every per-layer metric with its unit and better direction, in report order
PER_LAYER = (
    [(f"{layer}.{stat}", unit, "lower") for layer in LAYERS
     for stat, unit in (("self_s", "s"), ("calls", "count"))]
    + [(name, "count" if name.endswith(".calls") else "s", "lower")
       for name in _SPAN_METRICS]
    + [("bounds.lambda_profile.entries", "count", "lower"),
       ("bounds.lambda_profile.peak_mb", "MiB", "lower"),
       ("gf.add_arrays.elements", "count", "lower"),
       ("gf.add_arrays.elements_per_s", "1/s", "higher"),
       ("oracle.min_distance.codewords", "count", "lower"),
       ("oracle.min_distance.codewords_per_s", "1/s", "higher"),
       ("oracle.weight_hierarchy.subspaces", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Records spans around agb's public callables while installed."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []
        self.elements = 0          # summed sizes of add_arrays outputs
        self.profile_entries = 0   # summed lengths n of profiled jump sets
        self.profile_peak = 0      # largest tracemalloc peak of one profile
        self.searched = []         # (oracle function, matrix, r) per search
        self.rref = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _hooked(self, span: str, fn):
        """The span wrapper plus the work counters kept for some callables."""
        traced = self._wrap(span, fn)
        if span == "gf.FiniteField.add_arrays":
            def counted(*args, **kwargs):
                out = traced(*args, **kwargs)
                self.elements += out.size
                return out
        elif span == "bounds.lambda_profile":
            def counted(hs):
                tracemalloc.start()
                try:
                    return traced(hs)
                finally:
                    self.profile_peak = max(self.profile_peak,
                                            tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    self.profile_entries += hs.n
        elif span in ("oracle.min_distance", "oracle.weight_hierarchy"):
            def counted(M, *args, **kwargs):
                out = traced(M, *args, **kwargs)
                r = args[0] if args else kwargs.get("r", 1)
                self.searched.append((span, M, r))
                return out
        else:
            return traced
        return functools.wraps(fn)(counted)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)
                              if isinstance(owner, types.ModuleType)
                              else owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public callable of the layer modules."""
        import agb
        modules = {layer: importlib.import_module(f"agb.{layer}")
                   for layer in LAYERS}
        namespaces = [agb, *modules.values()]
        self.rref = modules["gf"].rref
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                own = getattr(obj, "__module__", None) == mod.__name__
                if name.startswith("_") or not own:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif (isinstance(obj, types.FunctionType)
                      or hasattr(obj, "cache_clear")):
                    new = self._hooked(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, new)

    def _install_class(self, layer: str, cls) -> None:
        if issubclass(cls, (BaseException, tuple, enum.Enum)):
            return
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                span = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                span = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._hooked(span, raw.__func__))
            elif isinstance(raw, types.FunctionType):
                new = self._hooked(span, raw)
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def metrics(self, batches: int) -> dict:
        """Per-layer metrics per batch, from every span recorded."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        names = np.array(self.names + ["<none>"])
        layer_of = np.array([n.split(".")[0] for n in names])
        has_parent = parent >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        exclusive = dur - child_time
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        span_layer = layer_of[nid]
        parent_layer = layer_of[parent_nid]  # -1 selects "<none>"
        outermost = parent_nid != nid
        out = {}
        for layer in LAYERS:
            mine = span_layer == layer
            out[f"{layer}.self_s"] = float(exclusive[mine].sum()) / batches
            entered = mine & (parent_layer != layer)
            out[f"{layer}.calls"] = int(entered.sum()) / batches
        for metric, (spans, stat) in _SPAN_METRICS.items():
            ids = [i for i, n in enumerate(self.names) if n in spans]
            sel = np.isin(nid, ids) & outermost
            value = dur[sel].sum() if stat == "s" else sel.sum()
            out[metric] = float(value) / batches
        codewords = subspaces = 0
        ranks = {}
        for span, M, r in self.searched:
            key = (M.field.q, M.data.shape, M.data.tobytes())
            if key not in ranks:
                ranks[key] = self.rref(M).rank
            if span == "oracle.min_distance":
                codewords += M.field.q ** ranks[key]
            else:
                subspaces += refcheck.gaussian_binomial(ranks[key], r, M.field.q)
        out["bounds.lambda_profile.entries"] = self.profile_entries / batches
        out["bounds.lambda_profile.peak_mb"] = self.profile_peak / 2 ** 20
        out["gf.add_arrays.elements"] = self.elements / batches
        out["gf.add_arrays.elements_per_s"] = _rate(
            self.elements, out["gf.add_arrays.s"] * batches)
        out["oracle.min_distance.codewords"] = codewords / batches
        out["oracle.min_distance.codewords_per_s"] = _rate(
            codewords, out["oracle.min_distance.s"] * batches)
        out["oracle.weight_hierarchy.subspaces"] = subspaces / batches
        return out

    def write(self, path) -> None:
        """Save every span as parallel columns; times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name_id": self.name_id.tolist(),
                       "parent": self.parent.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0
