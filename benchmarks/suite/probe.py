"""Host-speed probe: put times measured on a shared host on one scale.

Small shared hosts (the 2-vCPU VMs this suite was built on) run a vCPU up
to 1.7x slower for seconds at a time while a neighbour is busy, and the
share of slow time drifts over minutes; raw wall times of one workload then
differ by 7-34% (quartile spread) between runs minutes apart, more than
any bound.  The probe measures that speed while a rep runs: every 50 ms of
CPU time (``ITIMER_PROF``) a signal handler times :func:`probe_work`, a
fixed loop of the heap, dict and small-object work the simulator does,
written here so that no change to the program can alter it.  Pool workers
forked during a rep arm the same timer and append their samples to a file.

A rep's time at reference speed is ``raw time * PROBE_REFERENCE_S / mean
probe time``.  The probe itself costs about 2% of the rep.  Traced reps
are timed with :func:`probe_burst` around them instead, which tracks the
host less closely; only ``obs.trace_overhead_frac`` uses it.
"""

from __future__ import annotations

import heapq
import os
import signal
import time
from pathlib import Path
from statistics import mean, median

#: Times are reported at the host speed where :func:`probe_work` takes this
#: long.  It only fixes the unit: on the 2.1 GHz Xeon vCPUs the committed
#: baselines come from, the probe's mean over a rep is 0.7-1.6 ms.
PROBE_REFERENCE_S = 0.001
#: CPU time between probe samples.
PROBE_INTERVAL_S = 0.05


class _Item:
    __slots__ = ("key", "value")


def probe_work(n: int = 1000) -> int:
    heap: list = []
    table: dict = {}
    for i in range(n):
        item = _Item()
        item.key = (i * 7919) % 1009
        item.value = i
        heapq.heappush(heap, (item.key, i, item))
        table[item.key] = table.get(item.key, 0) + item.value
        if len(heap) > 128:
            heapq.heappop(heap)
    return len(table)


def probe_burst(samples: int = 9) -> float:
    """Median probe time of a quick burst, for a rep that cannot be sampled.

    A traced rep must not carry the sampler (its probe time would land in
    whatever span is open), so its speed is taken right before and after.
    """
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - started)
    return median(times)


class SpeedSampler:
    """Probe samples of this process, and of children forked while active."""

    def __init__(self, folder: Path) -> None:
        self.folder = Path(folder)
        self.samples: list[float] = []
        self._active = False
        self._busy = False
        self._sink = None  # file descriptor, in a forked worker
        self._previous = None
        os.register_at_fork(after_in_child=self._in_child)

    def start(self) -> None:
        self.samples = []
        self._active = True
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> float:
        """Disarm; return the mean probe time over every process's samples."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._active = False
        samples = list(self.samples)
        for path in self.folder.glob("probe-*.txt"):
            samples += [float(line) for line in path.read_text().split()]
            path.unlink()
        return mean(samples) if samples else PROBE_REFERENCE_S

    def _tick(self, signum, frame) -> None:
        # A handler that ran late (after a long C call) can be signalled
        # again before it returns; the nested call must do nothing, or it
        # would skew the sample and could raise into the measured program.
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            probe_work()
            seconds = time.perf_counter() - started
            if self._sink is None:
                self.samples.append(seconds)
            else:
                os.write(self._sink, f"{seconds!r}\n".encode())
        finally:
            self._busy = False

    def _in_child(self) -> None:
        # Interval timers are not inherited across fork; re-arm them, and
        # write samples straight to a file, since pool workers leave
        # through os._exit.
        if self._active:
            self._busy = False
            path = self.folder / f"probe-{os.getpid()}.txt"
            self._sink = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
