"""Per-layer spans and counts around the modules of `waug`, from outside.

The layers are the modules of `src/waug`.  `Spans.install` replaces each
public function of a module, each public method of its classes and the
arithmetic operators of `Element` by a wrapper that times the call, and
puts the wrapper under every module-level name that refers to the original,
so that `from .structures import division_balls` in `cli` is wrapped too.
A layer's self time is the time inside its spans minus the time inside the
spans they call.  Spans are aggregated as they close, not stored.

Per-element methods (`Structure.multiply`, `right_divide_point`, the
`elem_*` helpers, `word_length`) and the scalar type `QC` are not wrapped:
a span per element would cost more than the work it measures, so their time
counts to the layer that calls them.  Their calls, and every other
`*_calls` figure, come from `CallCounter`, a separate round under cProfile,
so that counting does not distort the self times.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import pstats
import time

LAYERS = ("cli", "structures", "algebra", "idealkit", "certify", "weights",
          "sequences", "serialize")

_PER_ELEMENT = {"multiply", "invert", "identity", "right_divide_point",
                "elem_key", "elem_to_json", "elem_from_json", "elem_str",
                "word_length", "is_standard_generators", "default_generators",
                "eps_at", "base_at", "omega_pos", "tau"}
_UNWRAPPED_CLASSES = {"QC"}
_ELEMENT_OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__eq__")


def _modules():
    return {name: importlib.import_module(f"waug.{name}") for name in LAYERS}


def _bits_arg(args, kwargs):
    """The precision argument of pow_bounds(base, n, bits) and
    nth_root(x, n, bits)."""
    return args[2] if len(args) > 2 else kwargs.get("bits", 128)


class Spans:
    """Self time per layer, inclusive time of `Decomposition.verify`, and
    the value counters that need a call's arguments or result."""

    def __init__(self):
        self.self_s = {name: 0.0 for name in LAYERS}
        self.verify_s = 0.0
        self.pairs = 0
        self.bytes_out = 0
        self.max_bits = 0
        self.l74_blocks = 0
        self.l74_dyadic_blocks = 0
        self._stack = []
        self._undo = []

    # -- hooks that read arguments or results --------------------------------

    def _observe(self, qualname, args, kwargs, result, elapsed):
        if qualname == "Decomposition.verify":
            self.verify_s += elapsed
            self.pairs += len(args[0].pairs)
        elif qualname in ("canonical_json", "write_csv"):
            self.bytes_out += len(result)  # ASCII: one byte per character
        elif qualname in ("pow_bounds", "nth_root"):
            self.max_bits = max(self.max_bits, _bits_arg(args, kwargs))
        elif qualname == "build_lemma74":
            report = result[1]
            self.l74_blocks += max(report["blocks"] - 1, 0)
            self.l74_dyadic_blocks += sum(
                1 for c in report["step_bounds"] if c["method"] == "certified-dyadic")

    def _wrap(self, layer, qualname, fn):
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        observe = self._observe
        hooked = qualname in ("Decomposition.verify", "canonical_json", "write_csv",
                              "pow_bounds", "nth_root", "build_lemma74")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hooked:
                observe(qualname, args, kwargs, result, elapsed)
            return result
        return span

    # -- installation ----------------------------------------------------------

    def install(self):
        mods = _modules()
        replaced = {}   # id(original function) -> wrapper
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and name not in _UNWRAPPED_CLASSES):
                    self._wrap_class(layer, obj)
        # every module-level name bound to a wrapped function, in any layer
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._undo.append((mod, name, obj))

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") and name not in _PER_ELEMENT
            operator = cls.__name__ == "Element" and name in _ELEMENT_OPERATORS
            if not (public or operator):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(layer, qualname, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, qualname, attr)
            else:
                continue
            setattr(cls, name, wrapped)
            self._undo.append((cls, name, attr))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self) -> dict:
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out["idealkit.verify_s"] = self.verify_s
        out["idealkit.pairs"] = self.pairs
        out["serialize.bytes_out"] = self.bytes_out
        out["certify.max_bits"] = self.max_bits
        out["weights.l74_dyadic_blocks"] = self.l74_dyadic_blocks
        out["weights.l74_blocks_searched"] = self.l74_blocks
        return out


# (layer, function name) -> metric; calls summed over every function of
# that name in the layer's file (e.g. each structure family's multiply)
COUNTED = {
    ("structures", "multiply"): "structures.multiply_calls",
    ("structures", "right_divide_point"): "structures.divide_calls",
    ("structures", "bfs_words"): "structures.bfs_calls",
    ("algebra", "convolve"): "algebra.convolve_calls",
    ("certify", "ratio_pow_less"): "certify.ratio_pow_less_calls",
    ("certify", "pow_bounds"): "certify.pow_bounds_calls",
    ("certify", "nth_root"): "certify.nth_root_calls",
    ("weights", "tau_and_C"): "weights.tau_and_C_calls",
    ("weights", "_lemma74_predicate"): "weights.l74_probes",
    ("sequences", "tail_functional"): "sequences.tail_functional_calls",
}


LAYER_UNITS = {f"{layer}.self_s": "s" for layer in LAYERS}
LAYER_UNITS.update({metric: "count" for metric in COUNTED.values()})
LAYER_UNITS.update({
    "algebra.fractions_created": "count",
    "idealkit.verify_s": "s",
    "idealkit.pairs": "count",
    "certify.max_bits": "bits",
    "weights.l74_probes_per_block": "calls/block",
    "weights.l74_dyadic_blocks": "count",
    "serialize.bytes_out": "bytes",
})
del LAYER_UNITS["weights.l74_probes"]


class CallCounter:
    """Call counts from cProfile, enabled only while a command runs."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def before(self, i):
        self.profile.enable()

    def after(self, i):
        self.profile.disable()

    def metrics(self) -> dict:
        files = {os.path.abspath(m.__file__): layer for layer, m in _modules().items()}
        out = {metric: 0 for metric in COUNTED.values()}
        out["algebra.fractions_created"] = 0
        for (filename, _, func), (_, ncalls, *_rest) in pstats.Stats(self.profile).stats.items():
            if func == "__new__" and os.path.basename(filename) == "fractions.py":
                out["algebra.fractions_created"] += ncalls
                continue
            layer = files.get(os.path.abspath(filename))
            metric = COUNTED.get((layer, func))
            if metric is not None:
                out[metric] += ncalls
        return out
