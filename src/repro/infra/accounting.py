"""Usage records and the central accounting database.

Every terminal job yields exactly one :class:`UsageRecord` — the observable
unit the paper's measurement methodology consumes.  Sites buffer records
locally and forward them to the :class:`CentralAccountingDB` in periodic
batches, mimicking the AMIE packet exchange between resource providers and
the TeraGrid central database (TGCDB).

Ground-truth fields of :class:`~repro.infra.job.Job` (``true_modality``,
``true_user``) are deliberately **not** part of the record schema.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.infra.job import Job, JobState
from repro.infra.units import HOUR
from repro.sim import Simulator

__all__ = ["UsageRecord", "CentralAccountingDB", "AmieFeed"]


class _UsageFields(NamedTuple):
    job_id: int
    user: str  # the *local account* user (community account for gateways)
    account: str
    resource: str
    queue_name: str
    cores: int
    requested_walltime: float
    submit_time: float
    start_time: Optional[float]
    end_time: float
    final_state: JobState
    charged_nu: float
    attributes: dict[str, Any]
    #: the charged allocation's discipline (how TG reports sliced by science)
    field_of_science: Optional[str]


class UsageRecord(_UsageFields):
    """One job's worth of accounting data, as the central database sees it.

    An immutable named tuple of the fields above: it has no ``__dict__`` and
    pickles as its field values, so a stored campaign's records load about
    as fast as plain tuples.  ``attributes`` defaults to a fresh empty dict
    per record (a named-tuple default would be one dict shared by every
    record) and ``field_of_science`` to None.  Derive a changed copy with
    ``_replace``.
    """

    __slots__ = ()

    def __new__(
        cls,
        job_id: int,
        user: str,
        account: str,
        resource: str,
        queue_name: str,
        cores: int,
        requested_walltime: float,
        submit_time: float,
        start_time: Optional[float],
        end_time: float,
        final_state: JobState,
        charged_nu: float,
        attributes: Optional[dict[str, Any]] = None,
        field_of_science: Optional[str] = None,
    ) -> "UsageRecord":
        return tuple.__new__(cls, (
            job_id, user, account, resource, queue_name, cores,
            requested_walltime, submit_time, start_time, end_time,
            final_state, charged_nu,
            {} if attributes is None else attributes,
            field_of_science,
        ))

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def elapsed(self) -> float:
        if self.start_time is None:
            return 0.0
        return self.end_time - self.start_time

    @property
    def ran(self) -> bool:
        return self.start_time is not None

    @classmethod
    def from_job(
        cls,
        job: Job,
        queue_name: str = "normal",
        field_of_science: Optional[str] = None,
    ) -> "UsageRecord":
        """Extract the observable fields of a terminal job."""
        if not job.state.is_terminal:
            raise ValueError(f"job {job.job_id} is not terminal ({job.state})")
        if job.end_time is None or job.submit_time is None:
            raise ValueError(f"job {job.job_id} is missing timestamps")
        return cls(
            job_id=job.job_id,
            user=job.user,
            account=job.account,
            resource=job.resource or "unknown",
            queue_name=queue_name,
            cores=job.cores,
            requested_walltime=job.walltime,
            submit_time=job.submit_time,
            start_time=job.start_time,
            end_time=job.end_time,
            final_state=job.state,
            charged_nu=job.charged_nu,
            attributes=dict(job.attributes),
            field_of_science=field_of_science,
        )


class CentralAccountingDB:
    """The TGCDB stand-in: the union of all sites' usage records.

    Provides the indexed views the measurement system needs.  Records arrive
    in AMIE batches, so insertion order is not global time order; query
    methods sort where order matters.
    """

    def __init__(self) -> None:
        self._records: list[UsageRecord] = []
        self._by_user: dict[str, list[UsageRecord]] = {}
        self._job_ids: set[int] = set()
        #: lifetime count of duplicate job ids skipped by :meth:`ingest`
        self.duplicates_skipped = 0

    def ingest(self, records: Iterable[UsageRecord]) -> tuple[int, int]:
        """Add a batch atomically and idempotently.

        Duplicate job ids (within the batch or against prior state) are
        skipped, not raised: a replayed AMIE packet must be a no-op, and a
        mid-batch duplicate must never leave the earlier records of its
        batch half-indexed.  Returns ``(added, duplicates)`` counters.
        """
        batch = list(records)
        fresh: list[UsageRecord] = []
        batch_ids: set[int] = set()
        duplicates = 0
        for record in batch:
            if record.job_id in self._job_ids or record.job_id in batch_ids:
                duplicates += 1
                continue
            batch_ids.add(record.job_id)
            fresh.append(record)
        # All-or-nothing from here: every validation already passed, so the
        # index updates below cannot partially apply.
        for record in fresh:
            self._job_ids.add(record.job_id)
            self._records.append(record)
            self._by_user.setdefault(record.user, []).append(record)
        self.duplicates_skipped += duplicates
        return len(fresh), duplicates

    # -- views --------------------------------------------------------------
    def all_records(self) -> list[UsageRecord]:
        return sorted(self._records, key=lambda r: (r.end_time, r.job_id))

    def records_of_user(self, user: str) -> list[UsageRecord]:
        return sorted(
            self._by_user.get(user, []), key=lambda r: (r.submit_time, r.job_id)
        )

    def job_ids(self) -> frozenset[int]:
        """Every job id recorded — the oracle's no-double-charge hook."""
        return frozenset(self._job_ids)

    def total_nu(self) -> float:
        return sum(r.charged_nu for r in self._records)

    def __len__(self) -> int:
        return len(self._records)


class AmieFeed:
    """Buffers a site's records and flushes them centrally every ``interval``.

    ``on_flush`` (optional) observes each flushed batch — handy for tests.
    Call :meth:`drain` at the end of a run to push any remaining records.
    """

    def __init__(
        self,
        sim: Simulator,
        central: CentralAccountingDB,
        interval: float = 6 * HOUR,
        on_flush: Optional[Callable[[list[UsageRecord]], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.central = central
        self.interval = interval
        self.on_flush = on_flush
        self._buffer: list[UsageRecord] = []
        self.batches_sent = 0
        sim.process(self._pump(sim), name="amie-feed")

    def publish(self, record: UsageRecord) -> None:
        self._buffer.append(record)

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def drain(self) -> int:
        """Flush whatever is buffered right now; returns records sent.

        If ingest fails, the batch is put back at the *front* of the buffer
        (records published mid-failure keep their order behind it), so a
        transient central-DB error delays the batch instead of losing it.
        """
        if not self._buffer:
            return 0
        batch, self._buffer = self._buffer, []
        try:
            self.central.ingest(batch)
        except Exception:
            self._buffer = batch + self._buffer
            raise
        self.batches_sent += 1
        if self.on_flush is not None:
            self.on_flush(batch)
        return len(batch)

    def _pump(self, sim: Simulator):
        while True:
            yield sim.timeout(self.interval)
            self.drain()
