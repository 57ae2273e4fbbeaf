"""Tests for the fault-tolerant AMIE packet exchange."""

import pytest

from repro.infra.accounting import CentralAccountingDB, UsageRecord
from repro.infra.amie import (
    AmieIngestEndpoint,
    AmiePacket,
    IngestRecoveryPolicy,
    PacketFaultRegime,
    ResilientAmieFeed,
    packet_checksum,
)
from repro.infra.job import Job, JobState
from repro.infra.units import DAY, HOUR, MINUTE
from repro.sim import RandomStreams, Simulator

from tests.infra.test_accounting import terminal_job


def record(**kwargs) -> UsageRecord:
    return UsageRecord.from_job(terminal_job(**kwargs))


class ScriptedRng:
    """Replays a fixed list of uniform draws, then stays fault-free."""

    def __init__(self, draws=()):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if self.draws else 0.99

    def exponential(self, mean):
        return mean


def exchange(regime=None, policy=None, interval=HOUR, seed=7, rng=None):
    """One site feeding one central DB over a (possibly faulty) link."""
    sim = Simulator()
    central = CentralAccountingDB()
    endpoint = AmieIngestEndpoint(central)
    feed = ResilientAmieFeed(
        sim,
        endpoint,
        feed_id="site00",
        regime=regime if regime is not None else PacketFaultRegime(),
        policy=policy if policy is not None else IngestRecoveryPolicy(),
        rng=rng if rng is not None else RandomStreams(seed=seed).stream("amie:site00"),
        interval=interval,
    )
    return sim, central, endpoint, feed


# -- regime validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "knob", ["drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"]
)
def test_regime_rejects_out_of_range_rates(knob):
    with pytest.raises(ValueError):
        PacketFaultRegime(**{knob: 1.5})
    with pytest.raises(ValueError):
        PacketFaultRegime(**{knob: -0.1})


def test_regime_rejects_negative_delays():
    with pytest.raises(ValueError):
        PacketFaultRegime(delay_mean=-1.0)
    with pytest.raises(ValueError):
        PacketFaultRegime(reorder_delay=-1.0)


def test_regime_enabled_flag():
    assert not PacketFaultRegime().enabled
    assert PacketFaultRegime(drop_rate=0.1).enabled
    assert PacketFaultRegime(delay_mean=60.0).enabled
    assert PacketFaultRegime(ack_drop_rate=0.2).enabled


def test_ack_drop_rate_defaults_to_drop_rate():
    assert PacketFaultRegime(drop_rate=0.3).effective_ack_drop_rate == 0.3
    assert (
        PacketFaultRegime(drop_rate=0.3, ack_drop_rate=0.1).effective_ack_drop_rate
        == 0.1
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        IngestRecoveryPolicy(ack_timeout=0.0)
    with pytest.raises(ValueError):
        IngestRecoveryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        IngestRecoveryPolicy(max_attempts=0)


# -- endpoint validation, quarantine, idempotence -----------------------------


def test_endpoint_accepts_well_formed_packet():
    central = CentralAccountingDB()
    endpoint = AmieIngestEndpoint(central)
    packet = AmiePacket.make("site00", 0, [record(), record()])
    assert endpoint.receive(packet)
    assert len(central) == 2
    assert endpoint.packets_accepted == 1
    assert endpoint.records_accepted == 2


def test_endpoint_quarantines_truncated_packet():
    central = CentralAccountingDB()
    endpoint = AmieIngestEndpoint(central)
    packet = AmiePacket.make("site00", 0, [record(), record()])
    truncated = AmiePacket(
        feed_id=packet.feed_id,
        seq=packet.seq,
        records=packet.records[:1],
        declared_records=packet.declared_records,
        checksum=packet.checksum,
    )
    assert not endpoint.receive(truncated, at=5.0)
    assert len(central) == 0
    [entry] = endpoint.quarantine
    assert entry.reason == "truncated"
    assert entry.n_records == 1
    assert entry.received_at == 5.0


def test_endpoint_quarantines_corrupted_packet():
    central = CentralAccountingDB()
    endpoint = AmieIngestEndpoint(central)
    good = [record(), record()]
    packet = AmiePacket.make("site00", 0, good)
    import dataclasses

    mangled = good[0]._replace(charged_nu=999.0)
    corrupted = dataclasses.replace(packet, records=(mangled, good[1]))
    assert not endpoint.receive(corrupted)
    assert len(central) == 0
    [entry] = endpoint.quarantine
    assert entry.reason == "corrupted"


def test_endpoint_reacks_duplicate_sequence_without_reingest():
    central = CentralAccountingDB()
    endpoint = AmieIngestEndpoint(central)
    packet = AmiePacket.make("site00", 0, [record()])
    assert endpoint.receive(packet)
    assert endpoint.receive(packet)  # replay: still acked
    assert len(central) == 1
    assert endpoint.packets_duplicate == 1
    assert endpoint.records_accepted == 1


def test_checksum_tracks_content():
    a, b = record(user="alice"), record(user="bob")
    assert packet_checksum([a]) != packet_checksum([b])
    assert packet_checksum([a, b]) != packet_checksum([a])
    assert packet_checksum([a]) == packet_checksum([a])


# -- the lossless resilient path ----------------------------------------------


def test_resilient_feed_delivers_everything_without_faults():
    sim, central, endpoint, feed = exchange()
    for user in ("alice", "bob"):
        feed.publish(record(user=user))
    sim.run(until=HOUR + 1)
    assert len(central) == 2
    assert feed.unacked == 0
    assert feed.retransmits == 0
    assert feed.records_published == 2
    assert len(feed.ledger) == 2


def test_resilient_feed_interval_validation():
    with pytest.raises(ValueError):
        exchange(interval=0.0)


# -- retransmission ------------------------------------------------------------


def test_retransmit_recovers_dropped_packet():
    """Exactly the first send drops; the retry delivers and gets acked."""
    sim, central, endpoint, feed = exchange(
        regime=PacketFaultRegime(drop_rate=0.5),
        policy=IngestRecoveryPolicy(
            retransmit=True, ack_timeout=10 * MINUTE, max_attempts=5
        ),
        rng=ScriptedRng([0.0]),  # first drop-check draw fails the packet
    )
    feed.publish(record())
    feed.drain()
    sim.run(until=DAY)
    assert len(central) == 1
    assert feed.retransmits == 1
    assert feed.transport.packets_dropped == 1
    assert feed.unacked == 0


def test_no_retransmit_loses_dropped_packet():
    sim, central, endpoint, feed = exchange(
        regime=PacketFaultRegime(drop_rate=1.0),
        policy=IngestRecoveryPolicy(retransmit=False, reconcile=False),
    )
    feed.publish(record())
    feed.drain()
    sim.run(until=30 * DAY)
    assert len(central) == 0
    assert feed.retransmits == 0
    assert feed.unacked == 1


def test_backoff_schedule_is_deterministic_exponential():
    sim, central, endpoint, feed = exchange(
        regime=PacketFaultRegime(drop_rate=1.0),
        policy=IngestRecoveryPolicy(
            retransmit=True,
            ack_timeout=10 * MINUTE,
            backoff_factor=2.0,
            max_attempts=4,
        ),
    )
    sends = []
    original = feed.transport.send

    def spy(packet, f):
        sends.append(sim.now)
        original(packet, f)

    feed.transport.send = spy
    feed.publish(record())
    feed.drain()
    sim.run(until=10 * DAY)
    # attempt 1 at t0, retries after 10, 20, 40 minutes; then budget exhausted
    assert sends == [0.0, 10 * MINUTE, 30 * MINUTE, 70 * MINUTE]
    assert feed.retransmits == 3


def test_retransmit_racing_its_ack_does_not_double_ingest():
    """Slow acks cause spurious retransmits; layered dedup absorbs them."""
    sim, central, endpoint, feed = exchange(
        regime=PacketFaultRegime(delay_mean=4 * HOUR),
        policy=IngestRecoveryPolicy(
            retransmit=True, ack_timeout=10 * MINUTE, max_attempts=10
        ),
    )
    for user in ("alice", "bob", "carol"):
        feed.publish(record(user=user))
    feed.drain()
    sim.run(until=60 * DAY)
    assert len(central) == 3
    assert central.duplicates_skipped == 0  # seq dedup absorbed the replays
    assert endpoint.packets_duplicate > 0
    assert feed.unacked == 0


# -- reconciliation ------------------------------------------------------------


def test_reconcile_recovers_lost_records():
    sim, central, endpoint, feed = exchange(
        regime=PacketFaultRegime(drop_rate=1.0),
        policy=IngestRecoveryPolicy(retransmit=False, reconcile=True),
    )
    for user in ("alice", "bob"):
        feed.publish(record(user=user))
    feed.drain()
    sim.run(until=DAY)
    assert len(central) == 0
    report = endpoint.reconcile([feed], resend=True)
    assert len(central) == 2
    [audit] = report.audits
    assert audit.published == 2
    assert audit.missing_before == 2
    assert audit.resent == 2
    assert audit.recovered == 2
    assert audit.unrecovered == 0
    assert report.total_unrecovered == 0
    assert feed.unacked == 0  # settle() closed the outbox


def test_reconcile_counts_each_feed_apart():
    """A feed's delivered records: accepted off the wire, then recovered."""
    sim = Simulator()
    central = CentralAccountingDB()
    endpoint = AmieIngestEndpoint(central)
    streams = RandomStreams(seed=7)

    def feed(feed_id, regime):
        return ResilientAmieFeed(
            sim,
            endpoint,
            feed_id=feed_id,
            regime=regime,
            policy=IngestRecoveryPolicy(retransmit=False),
            rng=streams.stream(f"amie:{feed_id}"),
            interval=HOUR,
        )

    clean = feed("site00", PacketFaultRegime())
    lossy = feed("site01", PacketFaultRegime(drop_rate=1.0))
    for user in ("alice", "bob", "carol"):
        clean.publish(record(user=user))
    for user in ("dave", "erin"):
        lossy.publish(record(user=user))
    sim.run(until=HOUR + 1)
    assert endpoint.delivered_records("site00") == 3
    assert endpoint.delivered_records("site01") == 0

    report = endpoint.reconcile([clean, lossy], resend=True)
    assert endpoint.delivered_records("site00") == 3
    assert endpoint.delivered_records("site01") == 2
    assert [
        (audit.feed_id, audit.delivered, audit.recovered, audit.unrecovered)
        for audit in report.audits
    ] == [("site00", 3, 0, 0), ("site01", 2, 2, 0)]


def test_reconcile_without_resend_only_reports():
    sim, central, endpoint, feed = exchange(
        regime=PacketFaultRegime(drop_rate=1.0),
        policy=IngestRecoveryPolicy(retransmit=False, reconcile=False),
    )
    feed.publish(record())
    feed.drain()
    sim.run(until=DAY)
    report = endpoint.reconcile([feed], resend=False)
    assert len(central) == 0
    assert report.total_unrecovered == 1
    assert report.total_resent == 0
    assert not report.resend_enabled


def test_reconcile_is_idempotent_for_delivered_records():
    sim, central, endpoint, feed = exchange()
    feed.publish(record())
    sim.run(until=HOUR + 1)
    report = endpoint.reconcile([feed], resend=True)
    assert len(central) == 1
    assert report.total_resent == 0
    assert report.total_unrecovered == 0


# -- determinism ---------------------------------------------------------------


def test_faulty_exchange_is_seed_stable():
    def outcome(seed):
        sim, central, endpoint, feed = exchange(
            regime=PacketFaultRegime(
                drop_rate=0.3,
                duplicate_rate=0.2,
                reorder_rate=0.2,
                corrupt_rate=0.2,
                delay_mean=30 * MINUTE,
            ),
            policy=IngestRecoveryPolicy(
                retransmit=True, ack_timeout=20 * MINUTE, max_attempts=4
            ),
            seed=seed,
        )
        for user in ("alice", "bob", "carol", "dave"):
            feed.publish(record(user=user))
            feed.drain()
        sim.run(until=10 * DAY)
        return (
            sorted(r.user for r in central.all_records()),
            feed.transport.packets_dropped,
            feed.retransmits,
            endpoint.packets_quarantined,
        )

    assert outcome(3) == outcome(3)
    # different seeds draw different fault schedules (overwhelmingly likely
    # to differ in at least one counter for these rates)
    assert outcome(3) != outcome(4) or outcome(3)[0] != outcome(5)[0]
