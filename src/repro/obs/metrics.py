"""The central metrics registry: one source of truth for counters.

Before this module existed, operational counters were scattered dicts and
bare ``int`` attributes across the federation substrate (`infra.resilience`,
`infra.gateway`, `infra.amie`), the runner (`runner.cache`) and the oracle —
every consumer re-derived totals its own way.  The registry follows the
XDMoD idea of a single queryable metric namespace: every counter and
histogram has a dotted name (``ingest.packets_received``,
``gateway.nanohub.requests_shed``), components *register* their instruments
once and keep mutating them through normal attribute-style access, and any
consumer — the invariant oracle, a report footer, the telemetry sidecar —
reads the same underlying cells.

Determinism contract: instruments hold plain Python numbers fed exclusively
by simulation events, so a registry snapshot (:meth:`MetricsRegistry.as_dict`)
is a pure function of the scenario seed.  Nothing in this module reads the
wall clock.
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = [
    "Counter",
    "CounterAttr",
    "Histogram",
    "MetricsRegistry",
    "ScopedRegistry",
]


class CounterAttr:
    """Descriptor exposing a registry :class:`Counter` as a plain int attribute.

    Components that migrated their scattered ``self.count += 1`` ints onto
    the registry keep their exact attribute API through this: reads return
    the cell's value, writes go through :meth:`Counter.set` (so ``+=`` works
    and decrements still fail loudly).  ``slot`` names the instance
    attribute holding the :class:`Counter` cell.
    """

    def __init__(self, slot: str) -> None:
        self.slot = slot

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return getattr(obj, self.slot).value

    def __set__(self, obj, value) -> None:
        getattr(obj, self.slot).set(value)


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

    def set(self, value: int) -> None:
        """Absolute assignment, for components that mirror legacy ``+=`` code."""
        if value < self.value:
            raise ValueError(
                f"{self.name}: counters only go up ({self.value} -> {value})"
            )
        self.value = value

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

    ``counter``/``histogram`` return the existing instrument when
    the name is already registered — that is what makes the registry a
    single source of truth rather than a mirror — and raise if the name is
    registered as a different instrument kind (two components colliding on
    one name is a wiring bug worth failing loudly on).
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

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view that prepends ``prefix.`` to every name it registers."""
        return ScopedRegistry(self, prefix)

    # -- read side ------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def value(self, name: str):
        """The instrument's scalar value (histograms report their total)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            raise KeyError(name)
        if isinstance(instrument, Histogram):
            return instrument.total
        return instrument.value

    def family(self, prefix: str) -> Iterator[tuple[str, object]]:
        """Instruments whose name starts with ``prefix.`` (or equals it)."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        for name in self.names():
            if name == prefix or name.startswith(dotted):
                yield name, self._instruments[name]

    def as_dict(self) -> dict:
        """Deterministic flat snapshot (sorted names, plain JSON values)."""
        snapshot: dict = {}
        for name in self.names():
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


class ScopedRegistry:
    """A prefixing view over a :class:`MetricsRegistry` (shared storage)."""

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        if not prefix or prefix.endswith("."):
            raise ValueError(f"bad scope prefix {prefix!r}")
        self._registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def scoped(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self._registry, self._name(prefix))
