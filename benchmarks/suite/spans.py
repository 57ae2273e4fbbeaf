"""In-memory span recorder: time calls into a layer from outside it.

The recorder replaces an entry point (a method on a class, or a module
function wherever it is bound) with a wrapper that records one span per
call.  Spans are not kept one by one; each layer accumulates its call count,
its inclusive time and its *self* time — the span's duration minus the part
of it covered by wrapped calls nested inside it — which is what the share
table adds up.  Everything lives in memory until the benchmark reads it.

``with SpanRecorder() as recorder:`` restores every original on exit, so a
traced rep leaves the program exactly as it found it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Per-layer call counts, inclusive time and self time of wrapped calls.

    ``clock`` is injectable so tests can check the self-time arithmetic
    exactly.  ``counts`` is a free-form counter the wrappers' ``around``
    hooks add work counts to (queue lengths scanned, records ingested, ...).
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, LayerTotals] = {}
        self.counts: Counter = Counter()
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------
    def wrap_method(
        self,
        owner: type,
        name: str,
        layer: str | Callable[..., str],
        around: Optional[Callable] = None,
    ) -> None:
        """Record a span per call of ``owner.name`` (defined on ``owner``).

        ``layer`` names the span's layer, or computes it from the call's
        arguments.  ``around(original, *args, **kwargs)``, when given, makes
        the call itself so it can count work before and after it.
        """
        original = owner.__dict__[name]
        self._patch(owner, name, self._timed(original, layer, around))

    def wrap_function(self, func: Callable, layer: str | Callable[..., str]) -> None:
        """Record a span per call of module function ``func``.

        Callers often import a function by name, so every binding of it in
        a loaded ``repro`` module is replaced, not only its home module's.
        """
        wrapper = self._timed(func, layer, None)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped entry point back as it was."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- reading -------------------------------------------------------------
    def totals(self, layer: str) -> LayerTotals:
        return self.layers.get(layer, LayerTotals())

    def self_seconds(self, prefix: str) -> float:
        """Self time of ``prefix`` and every layer named ``prefix.*``."""
        return sum(
            totals.self_s
            for layer, totals in self.layers.items()
            if layer == prefix or layer.startswith(prefix + ".")
        )

    # -- internals -----------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _timed(self, original, layer, around):
        recorder = self
        call = original if around is None else functools.partial(around, original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(*args, **kwargs)
            stack = recorder._child_time
            stack.append(0.0)
            started = recorder.clock()
            try:
                return call(*args, **kwargs)
            finally:
                duration = recorder.clock() - started
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                totals = recorder.layers.get(name)
                if totals is None:
                    totals = recorder.layers[name] = LayerTotals()
                totals.calls += 1
                totals.total_s += duration
                totals.self_s += duration - covered

        return wrapper
