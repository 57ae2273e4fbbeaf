"""Shared resources for simulation processes: counting resources."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.process import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Request", "Resource"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Triggers (succeeds) when the claim is granted.  Use as::

        req = resource.request()
        yield req
        ...  # holding the resource
        resource.release(req)

    ``amount`` lets one request claim several units of capacity at once
    (e.g. cores of a node); the resource grants strictly in queue order, so a
    large request at the head blocks later small ones (no starvation).
    """

    __slots__ = ("resource", "amount")

    def __init__(self, resource: "Resource", amount: int) -> None:
        super().__init__(resource.sim)
        if amount < 1:
            raise ValueError(f"request amount must be >= 1, got {amount}")
        if amount > resource.capacity:
            raise ValueError(
                f"request for {amount} exceeds capacity {resource.capacity}"
            )
        self.resource = resource
        self.amount = int(amount)


class Resource:
    """A counting resource with ``capacity`` units and a FIFO queue.

    The grant discipline is strict queue order (like a conservative batch
    queue): the head request must be satisfiable before any later request
    is considered.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self._in_use = 0
        self._queue: deque[Request] = deque()

    # -- introspection ----------------------------------------------------
    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    # -- operations ----------------------------------------------------------
    def request(self, amount: int = 1) -> Request:
        """Claim ``amount`` units; the returned event triggers when granted."""
        req = Request(self, amount)
        self._queue.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return the units held by a granted ``request``."""
        if not request.triggered:
            raise RuntimeError("release() of an ungranted request")
        self._in_use -= request.amount
        if self._in_use < 0:  # pragma: no cover - defensive
            raise RuntimeError("resource released below zero in-use")
        self._grant()

    def _grant(self) -> None:
        while self._queue:
            head = self._queue[0]
            if head.amount > self.capacity - self._in_use:
                return
            self._queue.popleft()
            self._in_use += head.amount
            head.succeed(head)
