"""Span tracing for the traced run (``--trace 1``).

The tracer wraps, in each package module's namespace, the functions that
module imports from another package module (so ``semigroups.cone_from_rays``
is a span named ``cones.cone_from_rays``), plus ``Cone.contains`` and
``SpectrumAtlas.meet``/``join`` at class level and the entry points the
benchmark calls itself.  ``dot``, the ``vec_*`` helpers, ``is_zero_vector``
and ``primitive_vector`` stay unwrapped: they are so small that a span would
cost more than the call, and their time counts as their caller's self time.

Spans are recorded only while ``active`` is set, which the runner does around
each timed operation, so untimed checks leave no trace.  A span's self time is
its duration minus the time covered by its child spans.
"""

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("intlinalg", "cones", "semigroups", "characters", "cli")
UNWRAPPED = {"dot", "is_zero_vector", "primitive_vector"}
CLASS_METHODS = (("cones", "Cone", "contains"),
                 ("semigroups", "SpectrumAtlas", "meet"),
                 ("semigroups", "SpectrumAtlas", "join"))


def layer_of(obj):
    module = getattr(obj, "__module__", "") or ""
    prefix, _, layer = module.rpartition(".")
    return layer if prefix == "toric_spectrum" and layer in LAYERS else None


class Tracer:
    """In-memory spans (name, start, end, parent, op id) plus per-name call
    counts and self time.  Calls are counted only while ``counting`` is set,
    so counts cover a fixed prefix of operations and repeat exactly."""

    def __init__(self, max_spans=50_000):
        self.active = False
        self.counting = True
        self.op = -1
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._stack = []

    def enter(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans) if len(self.spans) < self.max_spans else -1
        start = perf_counter()
        if index >= 0:
            self.spans.append([name, start, 0.0, parent, self.op])
        else:
            self.dropped += 1
        self._stack.append([name, start, 0.0, index])

    def exit(self):
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        if index >= 0:
            self.spans[index][2] = end
        self.self_s[name] += duration - child
        if self.counting:
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def install(self, lib, api):
        """Wrap the cross-module imports of every layer, the class-level
        methods and every entry of the benchmark's ``api`` namespace."""
        for layer in LAYERS:
            module = getattr(lib, layer)
            for attr, obj in list(vars(module).items()):
                source = layer_of(obj)
                if (source is None or source == layer or isinstance(obj, type)
                        or not callable(obj) or attr in UNWRAPPED
                        or attr.startswith("vec_")):
                    continue
                setattr(module, attr, self.wrap(f"{source}.{obj.__qualname__}", obj))
        for layer, cls_name, method in CLASS_METHODS:
            cls = getattr(getattr(lib, layer), cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}",
                                           getattr(cls, method)))
        for attr, obj in list(vars(api).items()):
            setattr(api, attr, self.wrap(f"{layer_of(obj)}.{obj.__qualname__}", obj))

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": names, "dropped": self.dropped,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]},
                      out, separators=(",", ":"))
