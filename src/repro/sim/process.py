"""Events, processes and condition events for the simulation kernel.

The design follows the classic generator-coroutine pattern: a *process* is a
Python generator that ``yield``\\ s :class:`Event` objects.  When a yielded
event triggers, the kernel resumes the generator with the event's value (or
throws the event's exception into it).  A :class:`Process` is itself an
:class:`Event` that triggers when the generator finishes, so processes can
wait on one another and be composed with :class:`AllOf` / :class:`AnyOf`.

Failure semantics: a failed event delivered to at least one waiter is
*defused*; a failed event that nobody handles is re-raised by
:meth:`repro.sim.engine.Simulator.step` so that errors never pass silently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
]

# Scheduling priorities: events scheduled at the same simulated time fire in
# priority order, then in scheduling (FIFO) order.  URGENT is used for process
# initialization and deferred calls (:meth:`Simulator.defer`) so they preempt
# same-time timeouts.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event goes through three stages: *pending* (created, not triggered),
    *triggered* (given a value/exception and scheduled on the event heap) and
    *processed* (its callbacks have run).  Events may only trigger once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: set when a failure has been delivered to (or absorbed by) a waiter
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` schedules the callbacks that far in the future; the event
        counts as triggered immediately (it cannot be triggered twice).
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        Waiting processes have the exception thrown into them; if nobody is
        waiting, the simulator raises it at the top level.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._schedule(self, delay=delay)
        return self

    # -- kernel hooks -------------------------------------------------------
    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: deliver immediately (still at current time).
            callback(self)
        else:
            self.callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        assert callbacks is not None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self._triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` simulated time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        self._triggered = True
        self._value = value
        sim._schedule(self, delay=self.delay)


class Initialize(Event):
    """Internal event that starts a process at its creation time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self._triggered = True
        self.callbacks.append(process._resume)  # type: ignore[union-attr]
        sim._schedule(self, delay=0.0, priority=PRIORITY_URGENT)


class Process(Event):
    """Wraps a generator; triggers (as an event) when the generator returns.

    The generator's ``return`` value becomes the event value.  Exceptions
    escaping the generator fail the event; if no other process is waiting on
    it, the simulation run raises the exception.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        tracer = sim._tracer
        if tracer is not None:
            tracer.on_process_start(self, sim.now)
        Initialize(sim, self)

    # -- kernel -------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        tracer = sim._tracer
        if tracer is not None:
            tracer.on_resume(self, sim._now)
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            if tracer is not None:
                tracer.on_process_end(self, sim._now)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if tracer is not None:
                tracer.on_process_end(self, sim._now)
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            raise TypeError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
        if next_event.sim is not sim:
            raise RuntimeError("cannot wait on an event from another simulator")
        next_event._add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class ConditionEvent(Event):
    """Base for composite events over a fixed set of child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise RuntimeError("condition spans multiple simulators")
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event._add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Triggers when *all* child events have triggered (fails on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(ConditionEvent):
    """Triggers when *any* child event triggers (fails on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self.succeed(self._collect())
