"""Discrete-event simulation kernel.

SimPy is not available in this offline environment, so :mod:`repro.sim`
provides an equivalent generator-based process/event kernel: a time-ordered
event heap (:class:`~repro.sim.engine.Simulator`), coroutine processes that
``yield`` events (:class:`~repro.sim.process.Process`), timeouts (which
double as callback timers), condition events, counting resources, and
reproducible named random streams.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()

    def clock(sim, name, period):
        while True:
            yield sim.timeout(period)
            print(name, sim.now)

    sim.process(clock(sim, "fast", 0.5))
    sim.process(clock(sim, "slow", 1.0))
    sim.run(until=2.0)
"""

from repro.sim.engine import Simulator, SimulationError, StopSimulation
from repro.sim.process import (
    AllOf,
    AnyOf,
    Event,
    Process,
    Timeout,
)
from repro.sim.resources import Request, Resource
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim import distributions

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "RandomStreams",
    "derive_seed",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "distributions",
]
