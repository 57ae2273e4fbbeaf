"""A step-function view of future node availability.

Schedulers reason about the future using the *requested* walltimes of running
jobs (the only bound a real scheduler has) plus any advance reservations.
:class:`CapacityProfile` turns those into a piecewise-constant availability
function supporting the two queries every policy needs: *how many nodes are
free throughout a window* and *when is the earliest window with enough
nodes*.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Sequence

__all__ = ["CapacityProfile"]

_EPSILON = 1e-9


class CapacityProfile:
    """Node usage over ``[now, inf)`` as a sorted step function.

    Build one per scheduling decision: add each running job and inaccessible
    reservation with :meth:`add_usage`, then query.  Usage intervals are
    half-open ``[start, end)``.  The step function is computed on the first
    query and reused until the next :meth:`add_usage`.
    """

    def __init__(self, total_nodes: int, now: float) -> None:
        if total_nodes < 1:
            raise ValueError(f"total_nodes must be >= 1, got {total_nodes}")
        self.total_nodes = total_nodes
        self.now = float(now)
        self._deltas: dict[float, int] = {}
        self._cached_steps: tuple[list[float], list[int]] | None = None

    def add_usage(self, start: float, end: float, nodes: int) -> None:
        """Mark ``nodes`` as busy during ``[start, end)`` (clipped to now)."""
        if nodes < 0:
            raise ValueError(f"nodes must be >= 0, got {nodes}")
        if nodes == 0 or end <= self.now or end <= start:
            return
        start = max(start, self.now)
        self._deltas[start] = self._deltas.get(start, 0) + nodes
        self._deltas[end] = self._deltas.get(end, 0) - nodes
        self._cached_steps = None

    def add_releases(self, releases: Sequence[tuple[float, int]]) -> None:
        """Mark each ``(release, nodes)`` pair busy from now until ``release``.

        ``releases`` is sorted, so the pairs already released are a prefix to
        skip.  Same deltas as one :meth:`add_usage` from now per pair.
        """
        deltas = self._deltas
        busy = 0
        first = bisect.bisect_right(releases, (self.now, math.inf))
        for release, nodes in itertools.islice(releases, first, None):
            busy += nodes
            deltas[release] = deltas.get(release, 0) - nodes
        if busy:
            deltas[self.now] = deltas.get(self.now, 0) + busy
            self._cached_steps = None

    def _steps(self) -> tuple[list[float], list[int]]:
        """(times, usage) where usage[i] holds on [times[i], times[i+1])."""
        if self._cached_steps is None:
            times = sorted(self._deltas)
            usage: list[int] = []
            running = 0
            for t in times:
                running += self._deltas[t]
                usage.append(running)
            self._cached_steps = times, usage
        return self._cached_steps

    def available_during(self, start: float, duration: float) -> int:
        """Minimum free nodes over the window ``[start, start + duration)``."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        start = max(start, self.now)
        end = start + duration
        times, usage = self._steps()
        if not times:
            return self.total_nodes
        # usage before times[0] is 0; find the step active at `start`
        peak = 0
        index = bisect.bisect_right(times, start) - 1
        if index >= 0:
            peak = usage[index]
        for i in range(max(index + 1, 0), len(times)):
            if times[i] >= end - _EPSILON:
                break
            peak = max(peak, usage[i])
        return self.total_nodes - peak

    def earliest_start(
        self, nodes: int, duration: float, not_before: float | None = None
    ) -> float:
        """Earliest ``t >= not_before`` with ``nodes`` free for ``duration``.

        The candidates are ``not_before`` (clipped to now) and every later
        step edge; the first whose window ``[t, t + duration)`` never exceeds
        ``total_nodes - nodes`` busy nodes wins.  One forward sweep finds it:
        a step over the limit lies in the window of every candidate from the
        current one up to its own start, so the search resumes at the next
        edge.  Always terminates: beyond the last usage event the machine is
        empty, so a feasible start exists whenever ``nodes <= total_nodes``.
        """
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        if nodes > self.total_nodes:
            raise ValueError(
                f"request for {nodes} nodes exceeds machine size "
                f"{self.total_nodes}"
            )
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        floor = self.now if not_before is None else max(not_before, self.now)
        times, usage = self._steps()
        limit = self.total_nodes - nodes
        candidate = floor
        # The step in force at the candidate counts even though it began
        # earlier (-1: before the first edge, where nothing is busy).
        in_force = bisect.bisect_right(times, floor) - 1
        stop = candidate + duration - _EPSILON
        i = max(in_force, 0)
        while i < len(times) and (i == in_force or times[i] < stop):
            if usage[i] > limit:
                # The last step is empty, so an over-limit step has a successor.
                in_force = i + 1
                candidate = times[in_force]
                stop = candidate + duration - _EPSILON
            i += 1
        return candidate
