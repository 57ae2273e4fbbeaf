"""The simulation engine: clock, event heap and run loop."""

from __future__ import annotations

import heapq
from itertools import count
from time import perf_counter
from typing import Any, Callable, Generator, Optional

from repro.sim.process import (
    Event,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Process,
    Timeout,
)

__all__ = [
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "default_tracer",
    "set_default_tracer",
]

# The kernel's tracer slot.  `repro.sim` must stay importable without
# `repro.obs`, so the tracer is duck-typed: anything with the
# on_schedule/on_event/on_resume/on_process_start/on_process_end methods of
# `repro.obs.trace.SimTracer` works.  With no tracer installed the run loop
# pays one `is None` check per step.
_default_tracer = None


def set_default_tracer(tracer) -> None:
    """Install ``tracer`` on every subsequently constructed :class:`Simulator`.

    Pass ``None`` to uninstall.  Diagnostics-only: simulators on the report
    path run untraced unless `repro profile`/the benchmark harness wraps
    them (see :func:`repro.obs.trace.traced_simulation`).
    """
    global _default_tracer
    _default_tracer = tracer


def default_tracer():
    """The currently installed default tracer (``None`` when untraced)."""
    return _default_tracer


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class StopSimulation(Exception):
    """Raise inside a callback/process to stop :meth:`Simulator.run` early."""


class Simulator:
    """A discrete-event simulator with a deterministic event order.

    Events scheduled for the same time fire in (priority, FIFO) order, which
    makes every run fully reproducible for a fixed seed.  Time is a float in
    arbitrary units; the TeraGrid substrate uses seconds.  The simulator also
    mints the ids of what runs in it (:meth:`next_id`).
    """

    def __init__(self, start_time: float = 0.0, tracer=None) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._tracer = tracer if tracer is not None else _default_tracer
        self._ids: dict[str, int] = {}

    # -- introspection -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event.

        Raises :class:`SimulationError` when no events remain — an empty
        heap has no "next event time", and silently returning a sentinel
        (or leaking ``IndexError``) hid bugs in callers.
        """
        if not self._heap:
            raise SimulationError("peek() on an empty event heap")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def next_id(self, kind: str) -> int:
        """The next serial of ``kind`` (``"job"``, ``"workflow"``, ...), from 1.

        Ids are per simulation, so a campaign's ids depend only on the
        campaign, never on what the process simulated before it.
        """
        serial = self._ids.get(kind, 0) + 1
        self._ids[kind] = serial
        return serial

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event, to be succeeded/failed by user code."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` time units from now.

        A timeout doubles as a timer: a callback appended to its
        ``callbacks`` runs when it fires, with no process behind it.
        """
        return Timeout(self, delay, value)

    def defer(self, callback: Callable[[Event], None], value: Any = None) -> Event:
        """Call ``callback(event)`` at the current time, with ``event.value``
        set to ``value``, ahead of every same-time event of normal priority.

        The call waits for the code running now to return, so a caller may
        finish a batch of changes (say, pick every victim of an outage)
        before the first deferred call lands.
        """
        event = Event(self)
        event._triggered = True
        event._value = value
        event.callbacks.append(callback)  # type: ignore[union-attr]
        self._schedule(event, priority=PRIORITY_URGENT)
        return event

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start ``generator`` as a process at the current time."""
        return Process(self, generator, name=name)

    # -- scheduling ------------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self._now + delay
        heapq.heappush(self._heap, (when, priority, next(self._eid), event))
        if self._tracer is not None:
            self._tracer.on_schedule(len(self._heap))

    # -- run loop ----------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        when, _priority, _eid, event = heapq.heappop(self._heap)
        self._now = when
        tracer = self._tracer
        if tracer is None:
            callbacks, event.callbacks = event.callbacks, None
            event._processed = True
            for callback in callbacks:
                callback(event)
        else:
            started = perf_counter()
            try:
                event._run_callbacks()
            finally:
                tracer.on_event(event, when, perf_counter() - started)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event heap is empty;
        * a number — run until the clock reaches that time (the clock is set
          to exactly ``until`` on return, even if no event fires then);
        * an :class:`Event` — run until that event has been processed, and
          return its value (re-raising its exception on failure).
        """
        if until is None:
            while self._heap:
                try:
                    self.step()
                except StopSimulation:
                    return None
            return None

        if isinstance(until, Event):
            target = until
            if target.processed:
                if not target.ok:
                    raise target.value
                return target.value
            # Absorb a failure so step() does not double-raise; run() raises.
            def _absorb(e: Event) -> None:
                e.defused = True

            target._add_callback(_absorb)
            try:
                while self._heap and not target.processed:
                    try:
                        self.step()
                    except StopSimulation:
                        return None
            finally:
                # If we leave without processing the target (heap exhausted,
                # StopSimulation, or an unrelated failure propagating out of
                # step()), detach the absorber: otherwise a later failure of
                # the event would be silently defused with nobody waiting.
                if not target.processed and target.callbacks is not None:
                    try:
                        target.callbacks.remove(_absorb)
                    except ValueError:
                        pass
            if not target.processed:
                raise SimulationError(
                    "run(until=event) exhausted the event heap before the "
                    "event triggered"
                )
            if not target.ok:
                raise target.value
            return target.value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        while self._heap and self._heap[0][0] <= horizon:
            try:
                self.step()
            except StopSimulation:
                return None
        self._now = horizon
        return None
