"""Span tracing around the public functions of each symfock module.

Every public module-level function of a layer module is replaced, at every
``symfock.*`` import site, by a wrapper that records a span: name, start,
end and parent. Modules import each other's functions by name
(``from .linalg import permanent_ryser``), so patching only the defining
module would miss those callers. Generator functions get one span per item,
so the work done while iterating is charged to them.

Spans are kept in flat arrays and written out by :meth:`Tracer.write`. Self
time (duration minus child spans) is summed per layer as spans close.
Counters are updated by per-function hooks while the span is still open.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: Traced layers, one per module; ``svg`` stays out because no workload draws.
LAYERS = ("linalg", "permutations", "fock", "scattering", "unitaries",
          "suppression", "experiments", "serialize", "cli")


def _batch(matrix) -> int:
    """Matrices in a call: the product of the leading dims of a (..., N, N) stack."""
    return math.prod(np.shape(matrix)[:-2])


def _output_arg(args, kwargs):
    return kwargs["occupation_out"] if "occupation_out" in kwargs else args[2]


def _repeated(args, kwargs) -> bool:
    return max(_output_arg(args, kwargs), default=0) > 1


def _count_permanent_prob(counts, args, kwargs, result):
    counts["scattering.prob_calls"] += 1
    counts["permanent_probs"] += 1
    counts["permanent_probs_repeated"] += _repeated(args, kwargs)


def _count_verdict(counts, args, kwargs, result):
    counts["suppression.verdict_calls"] += 1
    counts["suppression.law_suppressed"] += bool(result)


def _count_written(counts, args, kwargs, result):
    counts["serialize.bytes_written"] += os.path.getsize(args[0])


def _count_sample(counts, args, kwargs, result):
    counts["gram_samples"] += 1
    counts["gram_repairs"] += bool(result[1])


def _count(key, size=None):
    def hook(counts, args, kwargs, result):
        counts[key] += size(args[0]) if size else 1
    return hook


HOOKS = {
    "linalg.as_complex_matrix": _count("linalg.validate_calls"),
    "linalg.permanent_ryser": _count("linalg.permanent_matrices", _batch),
    "linalg.permanent_naive": _count("linalg.permanent_matrices", _batch),
    "linalg.determinant": _count("linalg.determinant_matrices", _batch),
    "fock.check_occupation": _count("fock.check_occupation_calls"),
    "scattering.prob_boson": _count_permanent_prob,
    "scattering.prob_distinguishable": _count_permanent_prob,
    "scattering.prob_fermion": _count("scattering.prob_calls"),
    "scattering.prob_partial": _count("scattering.prob_calls"),
    "unitaries.build_unitary": _count("unitaries.build_calls"),
    "suppression.boson_suppressed": _count_verdict,
    "suppression.fermion_suppressed": _count_verdict,
    "suppression.old_fourier_fermion_suppressed": _count_verdict,
    "experiments.sample_distinguishability": _count_sample,
    "serialize.write_verdict_csv": _count_written,
    "serialize.write_fit_csv": _count_written,
    "serialize.write_metadata": _count_written,
}


class Tracer:
    """Records spans for the public functions of the traced layers."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]
        self._wrapped: dict = {}  # original function -> its wrapper
        self._undo: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name_id: int) -> None:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(time.perf_counter())

    def _close(self, layer: str) -> None:
        now = time.perf_counter()
        index, children = self._stack.pop()
        duration = now - self.span_start[index]
        self.span_end[index] = now
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        counts = self.counts
        calls_key = f"{layer}.calls"

        if inspect.isgeneratorfunction(fn):
            items_key = f"{layer}.items"

            def generator(*args, **kwargs):
                counts[calls_key] += 1
                inner = fn(*args, **kwargs)
                while True:
                    self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(layer)
                    counts[items_key] += 1
                    yield item

            generator.__wrapped__ = fn
            return generator

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, args, kwargs, result)
            finally:
                self._close(layer)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every public layer function at every ``symfock.*`` import site."""
        wrapped = self._wrapped
        if not wrapped:
            for layer in LAYERS:
                module = sys.modules[f"symfock.{layer}"]
                for attr, obj in vars(module).items():
                    if (not attr.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == module.__name__):
                        wrapped[obj] = self._wrap(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "symfock" and not modname.startswith("symfock."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                    self._undo.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line: index, name, parent,
        start and end in microseconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                         f"{(self.span_end[i] - origin) * 1e6:.1f}\n")

    def layer_metrics(self, reps: int, c: Counter) -> dict:
        """Per-layer metrics: self times averaged over ``reps`` identical
        traced runs, counts ``c`` from one of them."""
        metrics = {f"{layer}.self_s": (self.self_s[layer] / reps, "s") for layer in LAYERS}

        def share(part, whole):
            return c[part] / c[whole] if c[whole] else 0.0

        for key, unit in (("linalg.calls", "count"), ("linalg.permanent_matrices", "count"),
                          ("linalg.determinant_matrices", "count"),
                          ("linalg.validate_calls", "count"),
                          ("fock.check_occupation_calls", "count"),
                          ("scattering.prob_calls", "count"), ("unitaries.build_calls", "count"),
                          ("suppression.verdict_calls", "count"),
                          ("serialize.bytes_written", "bytes")):
            metrics[key] = (c[key], unit)
        metrics["fock.outputs_enumerated"] = (c["fock.items"], "count")
        metrics["fock.repeated_output_frac"] = (
            share("permanent_probs_repeated", "permanent_probs"), "fraction")
        metrics["scattering.gram_repair_frac"] = (share("gram_repairs", "gram_samples"), "fraction")
        metrics["suppression.law_suppressed_frac"] = (
            share("suppression.law_suppressed", "suppression.verdict_calls"), "fraction")
        return metrics
