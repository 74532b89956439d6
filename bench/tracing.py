"""Spans and counters recorded around the calls into each apolarium module.

The library itself is not edited.  ``Tracer.install`` replaces every function
of the traced modules, wherever a module binds it (``from .x import y``
included), and the chosen class methods, with a wrapper that records a span:
name, start, end, parent span and task id.  ``uninstall`` puts the originals
back.  A layer's self time is the time inside its spans minus the time inside
their direct child spans, so time spent in ``fractions`` or other stdlib code
counts toward the layer that called it.

Counters are updated by hooks at the same boundaries, so ratios are measured
where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("exact", "poly", "apolar", "encompass", "tensor3", "sweet",
          "papersuite", "cli")

# Called once per term, entry or key comparison.  Wrapping them would cost
# more than the work they do, so their time counts toward the caller.
UNWRAPPED = {
    "exact.rat", "exact._first_nonzero",
    "poly.monomial_key", "poly.natural_key", "poly.Poly.__init__",
    "poly.Poly.is_zero", "poly.Poly.variable", "poly.Poly.monomial",
    "poly.Poly.const", "poly.Poly.zero", "poly.Poly._check",
    "poly.Poly.coeff", "poly.Poly.degree",
    "apolar._bounded", "apolar._fact",
    "sweet._as_label", "sweet.Blocking.label", "sweet.Blocking.axis_dim",
    "tensor3.AbelianGroup.add", "tensor3.AbelianGroup.index",
}

# Dunder methods that do work worth a span; the others (hashing, equality,
# printing) are left alone.
WRAPPED_DUNDERS = {"__init__", "__add__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__pow__", "__neg__", "__truediv__"}

ECHELON_INITS = {"exact.SparseEchelon.__init__", "exact.EchelonState.__init__"}
ECHELON_INSERTS = {"exact.SparseEchelon.insert", "exact.EchelonState.insert"}


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"apolarium.{layer}")
                        for layer in LAYERS}
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.task: Optional[int] = None
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []
        self._hooks: Dict[str, Callable] = {
            "exact.rref": self._on_rref,
            "poly.apply": self._on_apply,
            "apolar.hilbert_function": self._on_hilbert,
            "tensor3.Tensor3.__init__": self._on_tensor,
            "sweet.sp_extract": self._on_enumeration,
            "sweet.chimney": self._on_enumeration,
        }
        for name in ECHELON_INITS:
            self._hooks[name] = self._on_echelon
        for name in ECHELON_INSERTS:
            self._hooks[name] = self._on_insert

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable, args=(), kwargs=None):
        """Call fn inside a span of the given layer and return its result."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None or parent[1] != layer:
            self.counts[layer + ".entered"] += 1
        self._next_id += 1
        frame = [self._next_id, layer, name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[layer] += dur - frame[3]
            if stack:
                stack[-1][3] += dur
            self.spans.append((frame[0], parent[0] if parent else None,
                               self.task, name, start, end))
        hook = self._hooks.get(name)
        if hook is not None:
            hook(args, kwargs or {}, result)
        return result

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    # -- installing the wrappers -------------------------------------------

    def _wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(layer, name, fn, args, kwargs)
        return traced

    def _targets(self):
        """(layer, qualified name, target) for every function and method to
        wrap; a method's target is (class, attribute, class attribute)."""
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    name = f"{layer}.{attr}"
                    if name not in UNWRAPPED:
                        yield layer, name, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    yield from self._methods(layer, mod, obj)

    def _methods(self, layer, mod, cls):
        for attr, obj in list(vars(cls).items()):
            fn = obj.__func__ if isinstance(obj, classmethod) else obj
            if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                continue  # properties, dataclass-generated methods
            if attr.startswith("__") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name not in UNWRAPPED:
                yield layer, name, (cls, attr, obj)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = {}
        for layer, name, target in list(self._targets()):
            if isinstance(target, tuple):
                cls, attr, obj = target
                if isinstance(obj, classmethod):
                    new = classmethod(self._wrapper(layer, name, obj.__func__))
                else:
                    new = self._wrapper(layer, name, obj)
                self._patches.append((cls, attr, obj))
                setattr(cls, attr, new)
            else:
                functions[id(target)] = (target, self._wrapper(layer, name, target))
        # Rebind each wrapped function under every name any module gives it.
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        # Suite entries hold their run functions directly.
        for entry in self.modules["papersuite"].ENTRIES:
            self._patches.append((entry, "run", entry.run))
            entry.run = self._wrapper("papersuite", f"papersuite.entry:{entry.id}",
                                      entry.run)
            self._hooks[f"papersuite.entry:{entry.id}"] = self._on_suite_entry

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counter hooks -----------------------------------------------------

    def _on_rref(self, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        self.counts["exact.rref_calls"] += 1
        self.counts["exact.rref_cells"] += len(m) * (len(m[0]) if m else 0)

    def _on_echelon(self, args, kwargs, result):
        self.counts["exact.echelons_built"] += 1
        if self.inside("apolar.hilbert_function"):
            self.counts["apolar.echelons_in_hilbert"] += 1

    def _on_insert(self, args, kwargs, result):
        self.counts["exact.echelon_inserts"] += 1
        self.counts["exact.echelon_accepts"] += bool(result)

    def _on_apply(self, args, kwargs, result):
        sigma, f = args[0], args[1]
        self.counts["poly.apply_calls"] += 1
        self.counts["poly.apply_terms"] += len(sigma.terms) * len(f.terms)

    def _on_hilbert(self, args, kwargs, result):
        self.counts["apolar.hilbert_calls"] += 1

    def _on_tensor(self, args, kwargs, result):
        self.counts["tensor3.entries_built"] += len(args[0].entries)

    def _on_enumeration(self, args, kwargs, result):
        T = args[0]
        N = args[3] if len(args) > 3 else kwargs["N"]
        self.counts["sweet.combos_visited"] += len(T.entries) ** N
        kept = result.tensor if hasattr(result, "tensor") else result
        self.counts["sweet.entries_kept"] += len(kept.entries)

    def _on_suite_entry(self, args, kwargs, result):
        self.counts["papersuite.entries_run"] += 1

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line:
        id, parent id, task id, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
