"""Tests for usage records, the central DB and the AMIE feed."""

import itertools

import pytest

from repro.infra.accounting import AmieFeed, CentralAccountingDB, UsageRecord
from repro.infra.job import Job, JobState
from repro.infra.units import HOUR
from repro.sim import Simulator


_ids = itertools.count(1)


def terminal_job(**kwargs):
    defaults = dict(
        user="alice", account="acct", cores=4, walltime=3600.0,
        true_runtime=1800.0, job_id=next(_ids),
    )
    defaults.update(kwargs)
    job = Job(**defaults)
    job.state = JobState.COMPLETED
    job.resource = "mach"
    job.submit_time = 0.0
    job.start_time = 100.0
    job.end_time = 1900.0
    job.charged_nu = 2.0
    return job


def test_record_from_job_copies_observables():
    job = terminal_job(attributes={"submit_interface": "login"})
    record = UsageRecord.from_job(job)
    assert record.job_id == job.job_id
    assert record.user == "alice"
    assert record.resource == "mach"
    assert record.wait_time == 100.0
    assert record.elapsed == 1800.0
    assert record.cores == job.cores
    assert record.attributes == {"submit_interface": "login"}
    assert record.ran


def test_record_attributes_are_a_copy():
    job = terminal_job(attributes={"k": "v"})
    record = UsageRecord.from_job(job)
    job.attributes["k"] = "changed"
    assert record.attributes["k"] == "v"


def test_record_from_job_holds_its_own_attribute_dict():
    job = terminal_job(attributes={"k": "v"})
    record = UsageRecord.from_job(job)
    assert record.attributes == job.attributes
    assert record.attributes is not job.attributes


def bare_record(**changes):
    fields = dict(
        job_id=7, user="alice", account="acct", resource="mach",
        queue_name="normal", cores=4, requested_walltime=3600.0,
        submit_time=0.0, start_time=100.0, end_time=1900.0,
        final_state=JobState.COMPLETED, charged_nu=2.0,
    )
    fields.update(changes)
    return UsageRecord(**fields)


@pytest.mark.parametrize(
    "state", [JobState.COMPLETED, JobState.FAILED, JobState.KILLED_WALLTIME,
              JobState.CANCELLED],
)
@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"start_time": None, "end_time": 0.0},
        {"attributes": {"submit_interface": "gateway", "gateway_user": "u1"},
         "field_of_science": "Chemistry"},
    ],
    ids=["empty-attributes", "never-started", "attributes"],
)
def test_record_pickles_as_an_equal_record(state, changes):
    import pickle

    record = bare_record(final_state=state, **changes)
    loaded = pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(loaded) is UsageRecord
    assert loaded == record
    for name in UsageRecord._fields:
        assert getattr(loaded, name) == getattr(record, name), name
    assert loaded.final_state is state


def test_records_built_without_attributes_do_not_share_a_dict():
    first, second = bare_record(), bare_record()
    assert first.attributes == second.attributes == {}
    first.attributes["k"] = "v"
    assert second.attributes == {}
    assert bare_record().attributes == {}
    assert first.field_of_science is None


def test_record_is_an_immutable_value():
    record = bare_record()
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.cores = 8
    changed = record._replace(cores=8)
    assert type(changed) is UsageRecord
    assert (changed.cores, record.cores) == (8, 4)
    assert changed.attributes is record.attributes


def test_record_has_no_ground_truth_fields():
    job = terminal_job(true_modality="batch", true_user="secret")
    record = UsageRecord.from_job(job)
    assert not hasattr(record, "true_modality")
    assert not hasattr(record, "true_user")
    assert "true_modality" not in record.attributes


def test_record_rejects_non_terminal_job():
    job = terminal_job()
    job.state = JobState.RUNNING
    with pytest.raises(ValueError):
        UsageRecord.from_job(job)


def test_cancelled_before_start_record():
    job = terminal_job()
    job.state = JobState.CANCELLED
    job.start_time = None
    record = UsageRecord.from_job(job)
    assert not record.ran
    assert record.wait_time is None
    assert record.elapsed == 0.0


def test_central_db_indices():
    db = CentralAccountingDB()
    r1 = UsageRecord.from_job(terminal_job(user="alice"))
    r2 = UsageRecord.from_job(terminal_job(user="bob"))
    db.ingest([r1, r2])
    assert len(db) == 2
    assert [r.user for r in db.records_of_user("alice")] == ["alice"]
    assert [r.user for r in db.records_of_user("bob")] == ["bob"]
    assert db.job_ids() == {r1.job_id, r2.job_id}
    assert db.total_nu() == pytest.approx(4.0)


def test_central_db_skips_duplicate_job():
    """A replayed record is a counted no-op, not an exception."""
    db = CentralAccountingDB()
    record = UsageRecord.from_job(terminal_job())
    assert db.ingest([record]) == (1, 0)
    assert db.ingest([record]) == (0, 1)
    assert len(db) == 1
    assert db.duplicates_skipped == 1


def test_central_db_ingest_is_atomic_on_mid_batch_duplicate():
    """A duplicate mid-batch must not leave earlier records half-indexed."""
    db = CentralAccountingDB()
    first = UsageRecord.from_job(terminal_job(user="alice"))
    fresh = UsageRecord.from_job(terminal_job(user="bob"))
    later = UsageRecord.from_job(terminal_job(user="carol"))
    db.ingest([first])
    added, duplicates = db.ingest([fresh, first, later])
    assert (added, duplicates) == (2, 1)
    assert len(db) == 3
    # every index saw exactly the fresh records, once
    assert len(db.records_of_user("alice")) == 1
    assert len(db.records_of_user("bob")) == 1
    assert len(db.records_of_user("carol")) == 1
    assert len(db.all_records()) == 3


def test_central_db_skips_duplicate_within_one_batch():
    db = CentralAccountingDB()
    record = UsageRecord.from_job(terminal_job())
    assert db.ingest([record, record]) == (1, 1)
    assert len(db) == 1


def test_amie_feed_batches_by_interval():
    sim = Simulator()
    db = CentralAccountingDB()
    batches = []
    feed = AmieFeed(sim, db, interval=6 * HOUR, on_flush=batches.append)
    feed.publish(UsageRecord.from_job(terminal_job()))
    feed.publish(UsageRecord.from_job(terminal_job()))
    assert feed.buffered == 2
    assert len(db) == 0  # not yet flushed
    sim.run(until=6 * HOUR + 1)
    assert len(db) == 2
    assert feed.buffered == 0
    assert len(batches) == 1 and len(batches[0]) == 2


def test_amie_drain_flushes_immediately():
    sim = Simulator()
    db = CentralAccountingDB()
    feed = AmieFeed(sim, db, interval=6 * HOUR)
    feed.publish(UsageRecord.from_job(terminal_job()))
    assert feed.drain() == 1
    assert feed.drain() == 0
    assert len(db) == 1


def test_amie_interval_validation():
    with pytest.raises(ValueError):
        AmieFeed(Simulator(), CentralAccountingDB(), interval=0.0)
    with pytest.raises(ValueError):
        AmieFeed(Simulator(), CentralAccountingDB(), interval=-1.0)


def test_amie_drain_rebuffers_batch_on_ingest_failure():
    """A central-DB error delays the batch instead of losing it."""

    class FlakyCentral(CentralAccountingDB):
        def __init__(self):
            super().__init__()
            self.fail_next = True

        def ingest(self, records):
            if self.fail_next:
                self.fail_next = False
                raise RuntimeError("tgcdb briefly unavailable")
            return super().ingest(records)

    sim = Simulator()
    db = FlakyCentral()
    feed = AmieFeed(sim, db, interval=6 * HOUR)
    early = UsageRecord.from_job(terminal_job(user="alice"))
    feed.publish(early)
    with pytest.raises(RuntimeError):
        feed.drain()
    # nothing lost or counted as sent; the batch is buffered again
    assert feed.buffered == 1
    assert feed.batches_sent == 0
    assert len(db) == 0
    # records published after the failure queue *behind* the failed batch
    late = UsageRecord.from_job(terminal_job(user="bob"))
    feed.publish(late)
    assert feed.drain() == 2
    assert [r.user for r in db.all_records()] == ["alice", "bob"]


def test_amie_feed_flushes_every_interval():
    """Cadence: one flush per interval boundary, each carrying its window."""
    sim = Simulator()
    db = CentralAccountingDB()
    batches = []
    feed = AmieFeed(sim, db, interval=6 * HOUR, on_flush=batches.append)

    def producer(sim):
        for hour in (1, 5, 8, 13):
            yield sim.timeout(hour * HOUR - sim.now)
            feed.publish(UsageRecord.from_job(terminal_job()))

    sim.process(producer(sim))
    sim.run(until=18 * HOUR + 1)
    # windows: (0,6]h -> 2 records, (6,12]h -> 1, (12,18]h -> 1
    assert [len(b) for b in batches] == [2, 1, 1]
    assert feed.batches_sent == 3
    assert len(db) == 4


def test_amie_feed_empty_interval_sends_no_batch():
    sim = Simulator()
    db = CentralAccountingDB()
    batches = []
    feed = AmieFeed(sim, db, interval=6 * HOUR, on_flush=batches.append)
    sim.run(until=24 * HOUR)
    assert batches == []
    assert feed.batches_sent == 0


def test_amie_on_flush_observes_batches_in_publish_order():
    sim = Simulator()
    db = CentralAccountingDB()
    seen = []
    feed = AmieFeed(
        sim, db, interval=HOUR, on_flush=lambda b: seen.extend(r.user for r in b)
    )
    for user in ("alice", "bob", "carol"):
        feed.publish(UsageRecord.from_job(terminal_job(user=user)))
    sim.run(until=HOUR + 1)
    assert seen == ["alice", "bob", "carol"]


def test_amie_end_of_run_drain_flushes_partial_window():
    """The horizon rarely lands on a flush boundary; drain picks up the tail."""
    sim = Simulator()
    db = CentralAccountingDB()
    feed = AmieFeed(sim, db, interval=6 * HOUR)

    def producer(sim):
        yield sim.timeout(7 * HOUR)
        feed.publish(UsageRecord.from_job(terminal_job()))

    sim.process(producer(sim))
    sim.run(until=8 * HOUR)  # past one flush, before the next
    assert feed.buffered == 1
    assert feed.drain() == 1
    assert feed.buffered == 0
    assert len(db) == 1
