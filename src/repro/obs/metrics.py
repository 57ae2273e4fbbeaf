"""The telemetry sidecar's metrics registry: counters and histograms.

:class:`~repro.obs.telemetry.Telemetry` holds the program's one
:class:`MetricsRegistry`; the runner writes its ``runner.*`` and
``artifacts.*`` cells, and the sidecar's terminal wall summary carries the
snapshot (:meth:`MetricsRegistry.as_dict`).  Simulation and store components
keep their counters as plain attributes.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically-increasing integer cell (decrements are a bug)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Streaming summary of observed values: count / total / min / max.

    Deliberately bucket-free: the consumers here want totals and extremes
    (e.g. artifact load seconds), and a fixed bucket layout would be one
    more thing to keep deterministic across code versions.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} total={self.total}>"


class MetricsRegistry:
    """Dotted-name instrument registry (get-or-create, type-checked).

    ``counter``/``histogram`` return the existing instrument when the name
    is already registered, and raise if the name is registered as a
    different instrument kind (two writers colliding on one name is a
    wiring bug worth failing loudly on).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Histogram] = {}

    def _get_or_create(self, name: str, kind):
        if not name or name.startswith(".") or name.endswith("."):
            raise ValueError(f"bad metric name {name!r}")
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"{name!r} already registered as "
                    f"{type(existing).__name__}, wanted {kind.__name__}"
                )
            return existing
        instrument = kind(name)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def as_dict(self) -> dict:
        """Deterministic flat snapshot (sorted names, plain JSON values)."""
        snapshot: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                snapshot[name] = instrument.value
            else:
                snapshot[name] = {
                    "count": instrument.count,
                    "total": instrument.total,
                    "min": instrument.min,
                    "max": instrument.max,
                }
        return snapshot
