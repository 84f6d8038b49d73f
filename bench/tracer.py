"""Span tracing of nsdpcheck's layers from outside the package.

``Tracer.installed()`` wraps the functions named in ``LAYERS`` for the
duration of a ``with`` block.  The package's modules import these functions
by name, so every module attribute bound to a traced function is rebound to
its wrapper, and restored on exit.  Each wrapped call records a span
(name, start, end, parent) in memory; a span's self time is its duration
minus that of its direct children.  The numpy kernels in ``KERNELS`` are
only counted.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

import numpy as np

LAYERS = {
    "cli": ("main",),
    "nlsdp": ("problem_from_json", "eval_F", "dF"),
    "symmat": (
        "eigen_decompose",
        "pseudoinverse",
        "conjugate",
        "block",
        "SymMat.dense",
        "SymMat.from_dense",
    ),
    "cone": ("tangent_cone_contains", "normal_cone_contains", "dist_psd"),
    "subderivative": (
        "second_subderivative",
        "subderivative_sampling_trace",
        "estimate_subderivative_sampling",
        "recovery_sequence",
    ),
    "sosc": (
        "check_sosc",
        "sample_critical_directions",
        "critical_cone_contains",
        "sosc_margin",
        "verify_growth",
    ),
}
KERNELS = ("eigvalsh", "eigh", "svd", "solve")

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)
SAMPLER = "sosc.sample_critical_directions"


class Tracer:
    """Per-operation spans and kernel counts, aggregated over operations."""

    def __init__(self):
        self.modules = [
            importlib.import_module(f"nsdpcheck.{mod}") for mod in LAYERS
        ] + [importlib.import_module("nsdpcheck")]
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.kernel_calls: Counter = Counter()
        self.kept_directions = 0

    # -- wrapping ---------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == SAMPLER:
                self.kept_directions += len(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.kernel_calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block."""
        undo = []
        try:
            for mod_name, names in LAYERS.items():
                mod = sys.modules[f"nsdpcheck.{mod_name}"]
                for name in names:
                    undo.extend(self._install(mod, mod_name, name))
            for name in KERNELS:
                orig = getattr(np.linalg, name)
                setattr(np.linalg, name, self._count(f"numpy.linalg.{name}", orig))
                undo.append((np.linalg, name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def _install(self, mod, mod_name: str, name: str):
        span = f"{mod_name}.{name}"
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(span, raw.__func__))
            else:
                wrapped = self._span(span, raw)
            setattr(cls, attr, wrapped)
            return [(cls, attr, raw)]
        orig = getattr(mod, name)
        wrapped = self._span(span, orig)
        undo = []
        for module in self.modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
                    undo.append((module, key, orig))
        return undo

    # -- aggregation ------------------------------------------------------------

    def take_spans(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


def self_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Calls and summed self time per span name."""
    calls: Counter = Counter()
    own: Counter = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child):
        calls[name] += 1
        own[name] += (end - start) - inner
    return calls, own
