"""In-process layer trace for one benchmark op.

``Tracer.install`` wraps the public functions of each matchboard layer
module and the public methods of ``TruncSeries``/``AuxSeries``, rebinding
every module attribute that holds one of them (``from .patterns import
length3_mask`` copies the function into ``families``, so patching only the
defining module would miss those calls).  Nothing under the package changes
on disk, and the wrappers return what the wrapped function returns, so stdout
is unchanged.

Each timed call opens a span (layer, name, start, end, parent).  A layer's
self time is the time inside its spans that nested spans of other layers do
not cover.  Leaf functions that run once per enumerated object
(``COUNT_ONLY``, up to 7e5 calls in one op) and generator functions are
counted, not timed: their time stays with the caller's span.  Spans are kept
in memory and written once by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from child import coeff_bits

LAYERS = ("cli", "families", "patterns", "model", "bijections", "series", "formulas")
SERIES_CLASSES = ("TruncSeries", "AuxSeries")
ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__",
}
# leaf functions run once per enumerated object, 5e4 to 7e5 times in one op
COUNT_ONLY = {
    "patterns.length3_mask",
    "patterns.perm_contains",
    "patterns.lis_length",
    "patterns.find_arc_occurrence",
    "model.gamma_restriction",
    "bijections.check_fixed_point_class",
}
# functions whose outermost calls are summed into an inclusive-time metric
INCLUSIVE = {
    "families.border_mask_profile": "families.profile_s",
    "families.partition_mask_profile": "families.profile_s",
    "series.fe_iterate": "series.fe_s",
    "series.residual": "series.residual_s",
    "formulas.coefficients": "formulas.primary_s",
    "formulas.secondary_coefficients": "formulas.secondary_s",
    "formulas.oracle_value": "formulas.oracle_s",
}
PROFILES = ("border_mask_profile", "partition_mask_profile")


class Tracer:
    """Counters and spans of one op; times are integer nanoseconds."""

    def __init__(self):
        self._calls: dict[str, list[int]] = {}  # qualified name -> [calls]
        self.yields: Counter = Counter()  # layer -> items yielded by its generators
        self.self_ns: defaultdict = defaultdict(int)
        self.inclusive_ns: defaultdict = defaultdict(int)
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, ns covered by child spans]
        self._depth: Counter = Counter()
        self._seen: set[int] = set()
        self.profile_objects = 0
        self.series_terms = 0
        self.series_max_bits = 0
        self._profiles: dict = {}
        self.t0 = perf_counter_ns()

    # wrappers ---------------------------------------------------------

    def _cell(self, qual: str) -> list[int]:
        return self._calls.setdefault(qual, [0])

    def _timed(self, layer: str, qual: str, fn, observe=None):
        calls, spans, stack, depth = self._cell(qual), self.spans, self._stack, self._depth
        self_ns, inclusive_ns = self.self_ns, self.inclusive_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            span = [layer, qual, perf_counter_ns(), 0, stack[-1][0] if stack else -1]
            frame = [len(spans), 0]
            spans.append(span)
            stack.append(frame)
            depth[qual] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[qual] -= 1
                span[3] = end
                dur = end - span[2]
                self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not depth[qual]:
                    inclusive_ns[qual] += dur
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, qual: str, fn):
        calls = self._cell(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, layer: str, qual: str, fn):
        calls, yields = self._cell(qual), self.yields

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            for item in fn(*args, **kwargs):
                yields[layer] += 1
                yield item

        return wrapper

    # observers of results (each distinct result object counted once) ---

    def _first_time(self, result) -> bool:
        if id(result) in self._seen:
            return False
        self._seen.add(id(result))
        return True

    def _observe_profile(self, profile) -> None:
        if self._first_time(profile):
            for value in profile.values():
                self.profile_objects += sum(value.values()) if isinstance(value, dict) else value

    def _observe_fe(self, sol) -> None:
        if self._first_time(sol):
            for poly in sol.dicts():
                self.series_terms += len(poly)
                for c in poly.values():
                    self.series_max_bits = max(self.series_max_bits, coeff_bits(c))

    def _observe_coefficients(self, coeffs) -> None:
        for c in coeffs:
            self.series_max_bits = max(self.series_max_bits, coeff_bits(c))

    # installation -----------------------------------------------------

    def _wrap(self, layer: str, qual: str, fn):
        if qual in COUNT_ONLY:
            return self._counted(qual, fn)
        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn)):
            return self._generator(layer, qual, fn)
        observe = None
        if qual.split(".")[-1] in PROFILES:
            observe = self._observe_profile
        elif qual == "series.fe_iterate":
            observe = self._observe_fe
        elif qual in ("formulas.coefficients", "formulas.secondary_coefficients"):
            observe = self._observe_coefficients
        return self._timed(layer, qual, fn, observe)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"matchboard.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name in PROFILES:
                    self._profiles[name] = obj
                replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "matchboard" and not modname.startswith("matchboard."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(mod, name, replaced[id(obj)])
        for cls_name in SERIES_CLASSES:
            cls = getattr(modules["series"], cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name not in ARITHMETIC:
                    continue
                qual = f"series.{cls_name}.{name}"
                if isinstance(attr, (classmethod, staticmethod)):
                    setattr(cls, name, type(attr)(self._wrap("series", qual, attr.__func__)))
                elif inspect.isfunction(attr):
                    setattr(cls, name, self._wrap("series", qual, attr))

    # output -----------------------------------------------------------

    def summary(self) -> dict:
        hits = misses = 0
        for fn in self._profiles.values():
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "inclusive_s": {k: v / 1e9 for k, v in self.inclusive_ns.items()},
            "calls": {k: v[0] for k, v in self._calls.items() if v[0]},
            "yields": dict(self.yields),
            "profile_objects": self.profile_objects,
            "profile_hits": hits,
            "profile_misses": misses,
            "series_terms": self.series_terms,
            "series_max_bits": self.series_max_bits,
        }

    def dump(self, path: str) -> None:
        doc = self.summary()
        t0 = self.t0
        # [layer, name, start ns, end ns, parent span index or -1]
        doc["spans"] = [[l, n, s - t0, e - t0, p] for l, n, s, e, p in self.spans]
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))
