"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each traced function at every module and class
attribute of the ``mvop`` package bound to it (``orthogonal_polynomial`` is
bound in five modules, ``QuadExt.__mul__`` also as ``__rmul__``).  Functions
are found by qualified name in whichever ``mvop`` module defines them and then
by identity, so a function moved to another module is still traced; one that
no longer exists is reported as absent.  Each call records a span (layer,
parent span, start, end) in memory; ``Recorder.summary`` folds an
operation's spans into counts and inclusive seconds.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# (layer name, qualified name in the defining module).  Layer names are
# ``<module>.<function>`` as of the program's current layout.
TARGETS = (
    ("cli.cmd_verify", "cmd_verify"),
    ("cli.cmd_family", "cmd_family"),
    ("cli.cmd_export", "cmd_export"),
    ("cli.cmd_limits", "cmd_limits"),
    ("verification.verify_orthogonality", "verify_orthogonality"),
    ("verification.verify_recurrence", "verify_recurrence"),
    ("construction.inner_product", "inner_product"),
    ("construction.weight_matrix", "weight_matrix"),
    ("construction.relative_gram_bound", "relative_gram_bound"),
    ("construction.orthogonal_polynomial", "orthogonal_polynomial"),
    ("construction.closure_polynomial", "closure_polynomial"),
    ("operators.verify_eigenfunction", "verify_eigenfunction"),
    ("operators.extract_recurrence", "extract_recurrence"),
    ("operators.canonical_operator", "canonical_operator"),
    ("operators.DifferenceOperator.apply", "DifferenceOperator.apply"),
    ("poly.MatrixPoly.matmul", "MatrixPoly.__matmul__"),
    ("poly.MatrixPoly.evaluate", "MatrixPoly.evaluate"),
    ("families.monic_polynomial", "monic_polynomial"),
    ("families.squared_norm", "squared_norm"),
    ("linalg.mat_mul", "mat_mul"),
    ("linalg.mat_inverse", "mat_inverse"),
    ("limits.run_transition", "run_transition"),
    ("limits.coefficient_error", "coefficient_error"),
    ("limits.continuous_target", "continuous_target"),
    ("quadext.QuadExt.mul", "QuadExt.__mul__"),
)
# Layers whose distinct inputs are counted: calls with equal arguments after
# defaults are applied are one input.
DISTINCT = {"construction.weight_matrix", "construction.orthogonal_polynomial"}
# Every public function of this module forms the one layer "serialize"; only
# the outermost serialize call of a nest is timed.
SERIALIZE_MODULE = "mvop.serialize"


def _inner_product_mode(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "exact")
    return "construction.inner_product." + mode


VARIANTS = {"construction.inner_product": _inner_product_mode}


class Recorder:
    """Spans of one operation: ``spans[i] = (layer, parent index, start, end)``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = {}  # layer -> open calls, so nested calls are not timed twice
        self.keys = {}  # layer -> distinct input keys
        self.outer = []  # per span: whether it is the outermost of its layer

    def summary(self):
        calls, seconds = {}, {}
        for (layer, _, start, end), outer in zip(self.spans, self.outer):
            calls[layer] = calls.get(layer, 0) + 1
            if outer:
                seconds[layer] = seconds.get(layer, 0.0) + (end - start)
        distinct = {layer: len(keys) for layer, keys in self.keys.items()}
        return {"calls": calls, "seconds": seconds, "distinct": distinct}


def _mvop_modules():
    import mvop

    mods = [mvop]
    for info in pkgutil.iter_modules(mvop.__path__, "mvop."):
        mods.append(importlib.import_module(info.name))
    return mods


def _defined(mods):
    """qualified name -> object, for every function and method the package
    defines (lru_cache wrappers included)."""
    found = {}
    for mod in mods:
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr in vars(obj).values():
                    if callable(attr) and hasattr(attr, "__qualname__"):
                        found.setdefault(attr.__qualname__, attr)
            elif callable(obj) and hasattr(obj, "__qualname__"):
                found.setdefault(obj.__qualname__, obj)
    return found


class Tracer:
    """Installs and removes the wrappers; ``recorder`` collects the spans of
    the operation in progress."""

    def __init__(self):
        self.recorder = Recorder()
        self.absent = []
        self._bindings = []  # (owner, attribute, original)

    def install(self):
        mods = _mvop_modules()
        defined = _defined(mods)
        self.absent = []
        targets = []
        for layer, qualname in TARGETS:
            fn = defined.get(qualname)
            if fn is None:
                self.absent.append(layer)
            else:
                targets.append((layer, fn))
        serialize = next((m for m in mods if m.__name__ == SERIALIZE_MODULE), None)
        if serialize is None:
            self.absent.append("serialize")
        else:
            for name, obj in vars(serialize).items():
                if (inspect.isfunction(obj) and obj.__module__ == SERIALIZE_MODULE
                        and not name.startswith("_")):
                    targets.append(("serialize", obj))
        wrappers = {id(fn): (fn, self._wrap(layer, fn)) for layer, fn in targets}
        owners = list(mods) + [
            cls for mod in mods for cls in vars(mod).values()
            if inspect.isclass(cls) and cls.__module__ == mod.__name__
        ]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._bindings.append((owner, attr, val))
                    setattr(owner, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _wrap(self, layer, fn):
        variant = VARIANTS.get(layer)
        signature = None
        if layer in DISTINCT:
            signature = inspect.signature(fn)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.recorder
            name = variant(args, kwargs) if variant else layer
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.keys.setdefault(name, set()).add(tuple(bound.arguments.values()))
            index = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            depth = rec.depth.get(name, 0)
            rec.depth[name] = depth + 1
            rec.stack.append(index)
            rec.spans.append(None)
            rec.outer.append(depth == 0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                rec.spans[index] = (name, parent, start, end)
                rec.stack.pop()
                rec.depth[name] = depth

        return traced
