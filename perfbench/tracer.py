"""Per-layer spans recorded from outside the program.

The layers are the dsfmin modules.  Every function and method defined
in a layer is replaced by a timing wrapper, in the namespace of each
module that holds a reference to it: because of ``from .x import f``,
``dsfmin.minreal.residue_at`` has to be wrapped as well as
``dsfmin.ratcore.residue_at``.  Spans nest on a stack, so each module's
self time is its spans' time minus the time of their child spans, and
the time of an op that falls in no span is kept as the unaccounted
remainder.  Spans are aggregated as they close, not stored.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("ratcore", "sslib", "dsf", "minreal", "cli")

# modules whose namespaces may hold references to layer functions
NAMESPACES = ("dsfmin",) + tuple(f"dsfmin.{name}" for name in LAYERS)

SKIP_METHODS = frozenset({"__repr__", "__post_init__"})

# spans whose return value is kept in Tracer.last_result, to read sizes from
KEEP_RESULT = frozenset({"minreal.minreal_pipeline"})


class Tracer:
    """Installs the wrappers and aggregates what they record.

    span_s and calls are keyed by span name, e.g. ``ratcore.residue_at``,
    ``ratcore.Polynomial.roots`` or ``dsf.DSF`` (construction); span_s
    counts only the outermost span of a name, so recursion is not
    counted twice.  self_s is keyed by layer.
    """

    def __init__(self):
        self.span_s = defaultdict(float)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.op_s = 0.0
        self.unaccounted_s = 0.0
        self.ops = 0
        self.last_result = {}
        self._stack = []
        self._depth = Counter()
        self._patches = []
        self._wrappers = {}

    def _wrap(self, fn, layer, name, keep_result=False):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)][1]
        stack, depth = self._stack, self._depth
        span_s, calls, self_s = self.span_s, self.calls, self.self_s
        results = self.last_result

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if keep_result:
                    results[name] = out
                return out
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                depth[name] -= 1
                if not depth[name]:
                    span_s[name] += dt
                calls[name] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    def install(self):
        """Wrap every function and method of the layers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"dsfmin.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    self._wrap(obj, layer, name, name in KEEP_RESULT)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, layer)
        for modname in NAMESPACES:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _patch_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr in SKIP_METHODS:
                continue
            name = f"{layer}.{cls.__name__}" if attr == "__init__" else \
                f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                new = self._wrap(obj, layer, name)
            elif isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, layer, name))
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    @contextmanager
    def op(self):
        """Root span of one op: installs the wrappers for its duration."""
        self.last_result.clear()
        self.install()
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self.unaccounted_s += dt - self._stack.pop()
            self.op_s += dt
            self.ops += 1
            self.uninstall()
