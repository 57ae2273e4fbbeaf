"""Fault-tolerant AMIE packet exchange between sites and the central DB.

The plain :class:`~repro.infra.accounting.AmieFeed` models the accounting
exchange as a lossless in-process call.  Real AMIE feeds are file-and-batch
protocols over wide-area links: packets get dropped, duplicated, reordered,
delayed and truncated, and the central database has to *survive* that
without double-charging or silently losing usage.  This module supplies both
halves of that story:

* the **adversary** — :class:`PacketFaultRegime` describes a seed-stable
  fault climate and :class:`FaultyTransport` applies it to every packet (and
  every ack) crossing the site→center link;
* the **defense** — :class:`ResilientAmieFeed` stamps per-feed sequence
  numbers on batches, keeps a site-side ledger of everything it ever
  published, and (policy permitting) retransmits unacknowledged packets with
  deterministic exponential backoff; :class:`AmieIngestEndpoint` validates
  checksums, quarantines malformed packets with structured reasons,
  dedup-skips replayed sequence numbers, and ingests records idempotently;
  :meth:`AmieIngestEndpoint.reconcile` is the end-of-run audit that diffs
  central state against the site ledgers and issues targeted re-sends.

Everything draws from one named RNG stream per feed, so a fault schedule is
a pure function of the scenario seed — the A5 ablation's byte-identity
across worker counts, resumes and chaos rests on that.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.infra.accounting import CentralAccountingDB, UsageRecord
from repro.infra.units import HOUR, MINUTE
from repro.sim import Simulator

__all__ = [
    "AmieIngestEndpoint",
    "AmiePacket",
    "FaultyTransport",
    "FeedAudit",
    "IngestRecoveryPolicy",
    "PacketFaultRegime",
    "QuarantinedPacket",
    "ReconciliationReport",
    "ResilientAmieFeed",
    "packet_checksum",
]


@dataclass(frozen=True)
class PacketFaultRegime:
    """The fault climate of the site→center accounting link.

    All rates are independent per-packet probabilities; delays are seconds.
    The default (all zero) regime is *disabled*: scenario assembly takes the
    plain lossless path and produces byte-identical results to a config with
    no regime at all.
    """

    #: P(a data packet vanishes in flight — never delivered, never acked)
    drop_rate: float = 0.0
    #: P(a delivered packet arrives twice)
    duplicate_rate: float = 0.0
    #: P(a packet is held back an extra ``reorder_delay``, overtaken by later ones)
    reorder_rate: float = 0.0
    #: P(a packet is truncated and corrupted in flight — quarantined on arrival)
    corrupt_rate: float = 0.0
    #: mean one-way transit latency (exponential; 0 = instantaneous)
    delay_mean: float = 0.0
    #: extra hold applied to reordered packets
    reorder_delay: float = 2 * HOUR
    #: P(an acknowledgement is lost on the way back); None = ``drop_rate``
    ack_drop_rate: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.ack_drop_rate is not None and not (0.0 <= self.ack_drop_rate <= 1.0):
            raise ValueError(
                f"ack_drop_rate must be in [0, 1], got {self.ack_drop_rate}"
            )
        if self.delay_mean < 0:
            raise ValueError(f"delay_mean must be >= 0, got {self.delay_mean}")
        if self.reorder_delay < 0:
            raise ValueError(f"reorder_delay must be >= 0, got {self.reorder_delay}")

    @property
    def enabled(self) -> bool:
        """Whether this regime perturbs the exchange at all."""
        return (
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.reorder_rate > 0
            or self.corrupt_rate > 0
            or self.delay_mean > 0
            or (self.ack_drop_rate or 0.0) > 0
        )

    @property
    def effective_ack_drop_rate(self) -> float:
        return self.drop_rate if self.ack_drop_rate is None else self.ack_drop_rate


@dataclass(frozen=True)
class IngestRecoveryPolicy:
    """How hard the exchange fights back against a fault regime.

    ``retransmit`` covers in-run losses (ack timeout → exponential-backoff
    re-send, bounded by ``max_attempts``); ``reconcile`` arms the end-of-run
    audit's targeted re-sends, which also recover packets that were still in
    flight when the run ended or that exhausted their retransmit budget.
    """

    retransmit: bool = True
    ack_timeout: float = 30 * MINUTE
    backoff_factor: float = 2.0
    max_attempts: int = 5
    reconcile: bool = True

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be positive, got {self.ack_timeout}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


def packet_checksum(records: Sequence[UsageRecord]) -> str:
    """Content checksum over the fields a truncation or bit-flip would damage."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(
            f"{record.job_id}|{record.user}|{record.resource}|"
            f"{record.end_time!r}|{record.charged_nu!r};".encode("utf-8")
        )
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class AmiePacket:
    """One sequenced batch of usage records on the wire."""

    feed_id: str
    seq: int
    records: tuple[UsageRecord, ...]
    #: record count at send time (a truncated packet disagrees with it)
    declared_records: int
    checksum: str

    @classmethod
    def make(cls, feed_id: str, seq: int, records: Iterable[UsageRecord]) -> "AmiePacket":
        batch = tuple(records)
        return cls(
            feed_id=feed_id,
            seq=seq,
            records=batch,
            declared_records=len(batch),
            checksum=packet_checksum(batch),
        )


@dataclass(frozen=True)
class QuarantinedPacket:
    """One malformed packet the endpoint refused, with a structured reason."""

    feed_id: str
    seq: int
    reason: str  # "truncated" | "corrupted"
    detail: str
    n_records: int
    received_at: float


class FaultyTransport:
    """Applies a :class:`PacketFaultRegime` to every packet and ack.

    All randomness comes from the single generator handed in (one named
    stream per feed), drawn in simulation order — the fault schedule is a
    deterministic function of the scenario seed.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: "AmieIngestEndpoint",
        regime: PacketFaultRegime,
        rng,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.regime = regime
        self.rng = rng
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.acks_dropped = 0

    def _transit_delay(self) -> float:
        if self.regime.delay_mean <= 0:
            return 0.0
        return float(self.rng.exponential(self.regime.delay_mean))

    def _corrupt(self, packet: AmiePacket) -> AmiePacket:
        """Truncate-and-corrupt: drop the tail, damage a surviving field."""
        self.packets_corrupted += 1
        records = packet.records
        if len(records) > 1:
            records = records[: max(1, len(records) // 2)]
        if records:
            mangled = records[0]._replace(
                charged_nu=records[0].charged_nu * 1.5 + 1.0
            )
            records = (mangled,) + records[1:]
        # The stale checksum (and declared count) is what the receiver catches.
        return dataclasses.replace(packet, records=records)

    def send(self, packet: AmiePacket, feed: "ResilientAmieFeed") -> None:
        """Launch one packet toward the endpoint under the fault regime."""
        if self.rng.random() < self.regime.drop_rate:
            self.packets_dropped += 1
            return
        if self.rng.random() < self.regime.corrupt_rate:
            packet = self._corrupt(packet)
        deliveries = 1
        if self.rng.random() < self.regime.duplicate_rate:
            self.packets_duplicated += 1
            deliveries = 2
        for _ in range(deliveries):
            delay = self._transit_delay()
            if self.rng.random() < self.regime.reorder_rate:
                delay += self.regime.reorder_delay
            self.sim.process(
                self._deliver(packet, feed, delay),
                name=f"amie-transit:{packet.feed_id}:{packet.seq}",
            )

    def _deliver(self, packet: AmiePacket, feed: "ResilientAmieFeed", delay: float):
        yield self.sim.timeout(delay)
        acked = self.endpoint.receive(packet, at=self.sim.now)
        if not acked:
            return  # quarantined: no ack, the sender's retransmit covers it
        if self.rng.random() < self.regime.effective_ack_drop_rate:
            self.acks_dropped += 1
            return
        yield self.sim.timeout(self._transit_delay())
        feed.handle_ack(packet.seq)


@dataclass(frozen=True)
class FeedAudit:
    """One feed's slice of the reconciliation audit."""

    feed_id: str
    published: int
    delivered: int
    missing_before: int
    resent: int
    recovered: int
    unrecovered: int


@dataclass
class ReconciliationReport:
    """Outcome of the end-of-run central-vs-site-ledgers audit."""

    audits: list[FeedAudit]
    resend_enabled: bool

    @property
    def total_resent(self) -> int:
        return sum(a.resent for a in self.audits)

    @property
    def total_unrecovered(self) -> int:
        return sum(a.unrecovered for a in self.audits)


class AmieIngestEndpoint:
    """The central database's receive side: validate, dedup, ingest, audit.

    Idempotence is layered: replayed *sequence numbers* are skipped before
    ingest (packet-level), and :meth:`CentralAccountingDB.ingest` skips
    duplicate job ids (record-level) — so a retransmit racing its own
    original can never double-charge.
    """

    def __init__(self, central: CentralAccountingDB) -> None:
        self.central = central
        self._seen: dict[str, set[int]] = {}
        self.quarantine: list[QuarantinedPacket] = []
        self.packets_received = 0
        self.packets_accepted = 0
        self.packets_duplicate = 0
        self.packets_quarantined = 0
        self.records_accepted = 0
        self.records_duplicate = 0
        #: records per feed that reached the central DB, accepted from a
        #: packet or recovered by the audit
        self._delivered: dict[str, int] = {}
        self.reconciliation: Optional[ReconciliationReport] = None

    def receive(self, packet: AmiePacket, at: float = 0.0) -> bool:
        """Process one arriving packet; returns whether to acknowledge it."""
        self.packets_received += 1
        if len(packet.records) != packet.declared_records:
            self._quarantine(
                packet,
                reason="truncated",
                detail=(
                    f"declared {packet.declared_records} records, "
                    f"carried {len(packet.records)}"
                ),
                at=at,
            )
            return False
        if packet.checksum != packet_checksum(packet.records):
            self._quarantine(
                packet,
                reason="corrupted",
                detail="content checksum mismatch",
                at=at,
            )
            return False
        seen = self._seen.setdefault(packet.feed_id, set())
        if packet.seq in seen:
            # Replay (retransmit or wire duplicate): skip, but re-ack so the
            # sender stops resending.
            self.packets_duplicate += 1
            return True
        seen.add(packet.seq)
        added, duplicates = self.central.ingest(packet.records)
        self.packets_accepted += 1
        self.records_accepted += added
        self.records_duplicate += duplicates
        self._delivered[packet.feed_id] = (
            self.delivered_records(packet.feed_id) + added
        )
        return True

    def _quarantine(
        self, packet: AmiePacket, reason: str, detail: str, at: float
    ) -> None:
        self.packets_quarantined += 1
        self.quarantine.append(
            QuarantinedPacket(
                feed_id=packet.feed_id,
                seq=packet.seq,
                reason=reason,
                detail=detail,
                n_records=len(packet.records),
                received_at=at,
            )
        )

    def delivered_records(self, feed_id: str) -> int:
        """Records from ``feed_id`` that made it into the central DB."""
        return self._delivered.get(feed_id, 0)

    def reconcile(
        self, feeds: Sequence["ResilientAmieFeed"], resend: bool = True
    ) -> ReconciliationReport:
        """Diff central state against every site ledger; optionally re-send.

        The audit is out-of-band (a bulk ledger exchange, not the packet
        path), so its re-sends are reliable: with ``resend`` every record a
        site ever published ends up centrally recorded exactly once, which
        is the zero-unrecovered guarantee the A5 ablation pins.
        """
        audits = []
        for feed in feeds:
            known = self.central.job_ids()
            missing = [r for r in feed.ledger if r.job_id not in known]
            resent = recovered = 0
            if resend and missing:
                added, _duplicates = self.central.ingest(missing)
                resent = len(missing)
                recovered = added
                self._delivered[feed.feed_id] = (
                    self.delivered_records(feed.feed_id) + added
                )
                feed.settle()
            still_known = self.central.job_ids()
            unrecovered = sum(
                1 for r in feed.ledger if r.job_id not in still_known
            )
            audits.append(
                FeedAudit(
                    feed_id=feed.feed_id,
                    published=len(feed.ledger),
                    delivered=self.delivered_records(feed.feed_id),
                    missing_before=len(missing),
                    resent=resent,
                    recovered=recovered,
                    unrecovered=unrecovered,
                )
            )
        report = ReconciliationReport(audits=audits, resend_enabled=resend)
        self.reconciliation = report
        return report


class ResilientAmieFeed:
    """A site's accounting feed over a faulty transport.

    Same surface as :class:`~repro.infra.accounting.AmieFeed` (``publish``,
    ``drain``, ``buffered``, ``on_flush``) plus the
    recovery machinery: sequence numbers, an outbox of unacknowledged
    packets, deterministic-backoff retransmission, and a site-side ledger
    (`ledger`) recording every record ever published — the reconciliation
    audit's ground truth.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: AmieIngestEndpoint,
        feed_id: str,
        regime: PacketFaultRegime,
        policy: IngestRecoveryPolicy,
        rng,
        interval: float = 6 * HOUR,
        on_flush: Optional[Callable[[list[UsageRecord]], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.endpoint = endpoint
        self.feed_id = feed_id
        self.policy = policy
        self.interval = interval
        self.on_flush = on_flush
        self.retransmits = 0
        self.records_published = 0
        self.transport = FaultyTransport(sim, endpoint, regime, rng)
        self._buffer: list[UsageRecord] = []
        self.ledger: list[UsageRecord] = []
        self._next_seq = 0
        self._outbox: dict[int, AmiePacket] = {}
        self.acked: set[int] = set()
        sim.process(self._pump(), name=f"amie-feed:{feed_id}")

    # -- the AmieFeed surface -------------------------------------------------
    def publish(self, record: UsageRecord) -> None:
        self._buffer.append(record)
        self.ledger.append(record)
        self.records_published += 1

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def drain(self) -> int:
        """Flush the buffer into one sequenced packet; returns records sent.

        A post-horizon drain (the end-of-run flush) still launches the
        packet, but the simulator is no longer stepping, so it stays in
        flight — the "lost at shutdown" class only the reconciliation audit
        recovers.
        """
        if not self._buffer:
            return 0
        batch, self._buffer = self._buffer, []
        packet = AmiePacket.make(self.feed_id, self._next_seq, batch)
        self._next_seq += 1
        self._send(packet, attempt=1)
        if self.on_flush is not None:
            self.on_flush(batch)
        return len(batch)

    def _pump(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.drain()

    # -- sequencing, acks, retransmission ------------------------------------
    def _send(self, packet: AmiePacket, attempt: int) -> None:
        self._outbox[packet.seq] = packet
        self.transport.send(packet, self)
        if self.policy.retransmit and attempt < self.policy.max_attempts:
            self.sim.process(
                self._await_ack(packet, attempt),
                name=f"amie-ack-watch:{self.feed_id}:{packet.seq}",
            )

    def _await_ack(self, packet: AmiePacket, attempt: int):
        backoff = self.policy.ack_timeout * (
            self.policy.backoff_factor ** (attempt - 1)
        )
        yield self.sim.timeout(backoff)
        if packet.seq in self.acked:
            return
        self.retransmits += 1
        self._send(packet, attempt + 1)

    def handle_ack(self, seq: int) -> None:
        self.acked.add(seq)
        self._outbox.pop(seq, None)

    def settle(self) -> None:
        """Close the books after a reconciliation re-send covered the outbox."""
        for seq in list(self._outbox):
            self.acked.add(seq)
            self._outbox.pop(seq, None)

    @property
    def unacked(self) -> int:
        """Packets sent but never acknowledged (in flight, lost, or refused)."""
        return len(self._outbox)
