"""Tests for the batch scheduling policies."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.infra.cluster import Cluster
from repro.infra.job import Job, JobState
from repro.infra.scheduler import (
    EasyBackfillScheduler,
    FairshareScheduler,
    FcfsScheduler,
    Reservation,
    WeeklyDrainScheduler,
)
from repro.infra.units import DAY, HOUR, WEEK
from repro.sim import Simulator
from tests.strategies import job_specs


def make_rig(policy, nodes=4, cores_per_node=1, **kwargs):
    sim = Simulator()
    cluster = Cluster("mach", nodes=nodes, cores_per_node=cores_per_node)
    scheduler = policy(sim, cluster, **kwargs)
    return sim, scheduler


_ids = itertools.count(1)


def job(cores, walltime, runtime=None, user="u", **kwargs):
    return Job(
        user=user,
        account="acct",
        cores=cores,
        walltime=walltime,
        true_runtime=walltime if runtime is None else runtime,
        job_id=next(_ids),
        **kwargs,
    )


def submit_at(sim, scheduler, delay, job_obj):
    def later(sim):
        yield sim.timeout(delay)
        scheduler.submit(job_obj)

    sim.process(later(sim))
    return job_obj


# ---------------------------------------------------------------- lifecycle


def test_job_lifecycle_timestamps_and_state():
    sim, sched = make_rig(FcfsScheduler)
    j = job(2, walltime=100.0, runtime=60.0)
    sched.submit(j)
    sim.run()
    assert j.state is JobState.COMPLETED
    assert (j.submit_time, j.start_time, j.end_time) == (0.0, 0.0, 60.0)


def test_walltime_kill():
    sim, sched = make_rig(FcfsScheduler)
    j = job(1, walltime=50.0, runtime=500.0)
    sched.submit(j)
    sim.run()
    assert j.state is JobState.KILLED_WALLTIME
    assert j.end_time == 50.0


def test_failing_job_ends_early_in_failed_state():
    sim, sched = make_rig(FcfsScheduler)
    j = job(1, walltime=100.0, runtime=10.0, will_fail=True)
    sched.submit(j)
    sim.run()
    assert j.state is JobState.FAILED
    assert j.end_time == 10.0


def test_resubmitting_job_rejected():
    sim, sched = make_rig(FcfsScheduler)
    j = job(1, walltime=10.0)
    sched.submit(j)
    with pytest.raises(ValueError):
        sched.submit(j)


def test_oversized_job_rejected():
    sim, sched = make_rig(FcfsScheduler, nodes=2, cores_per_node=2)
    with pytest.raises(ValueError):
        sched.submit(job(5, walltime=10.0))


def test_cancel_pending_job():
    sim, sched = make_rig(FcfsScheduler, nodes=1)
    blocker = job(1, walltime=100.0)
    waiting = job(1, walltime=100.0)
    sched.submit(blocker)
    sched.submit(waiting)
    sched.cancel(waiting)
    sim.run()
    assert waiting.state is JobState.CANCELLED
    assert waiting.start_time is None
    assert blocker.state is JobState.COMPLETED


def test_cancel_running_job_frees_nodes():
    sim, sched = make_rig(FcfsScheduler, nodes=1)
    running = job(1, walltime=1000.0)
    follower = job(1, walltime=10.0)
    sched.submit(running)
    sched.submit(follower)

    def canceller(sim):
        yield sim.timeout(50.0)
        sched.cancel(running)

    sim.process(canceller(sim))
    sim.run()
    assert running.state is JobState.CANCELLED
    assert running.end_time == 50.0
    assert follower.start_time == 50.0


@pytest.mark.parametrize("policy", [FcfsScheduler, EasyBackfillScheduler])
def test_queue_bookkeeping_is_dropped_on_every_exit(policy):
    """Starting, cancelling and withdrawing all leave by one path, which
    forgets the job's arrival number, cached node count and the keys and
    node-seconds stored beside the two queue orders."""
    sim, sched = make_rig(policy, nodes=2)
    blocker = job(2, walltime=100.0)
    cancelled, withdrawn = job(1, walltime=10.0), job(2, walltime=10.0)
    queued = [job(1, walltime=10.0, priority=p) for p in (0.0, 5.0, 0.0)]
    for j in [blocker, cancelled, withdrawn, *queued]:
        sched.submit(j)
    sched.cancel(cancelled)
    sched.withdraw(withdrawn)
    assert sched.queue == queued
    assert sched._service == [queued[1], queued[0], queued[2]]
    assert len(sched._arrival_order) == len(sched._nodes) == len(queued)
    arrival = sched._arrival_order
    assert sched._queue_arrivals == [arrival[j.job_id] for j in sched.queue]
    assert sched._queue_work == [10.0] * len(queued)
    assert sched._service_keys == [
        (-j.priority, arrival[j.job_id]) for j in sched._service
    ]
    sim.run()
    assert cancelled.state is JobState.CANCELLED
    assert withdrawn.state is JobState.CREATED
    assert all(j.state is JobState.COMPLETED for j in [blocker, *queued])
    assert (sched.queue, sched._arrival_order, sched._nodes) == ([], {}, {})
    assert (sched._service, sched._releases) == ([], [])
    assert (sched._queue_arrivals, sched._queue_work, sched._service_keys) == (
        [], [], []
    )


def test_on_job_end_called_once_per_terminal_job():
    ended = []
    sim, sched = make_rig(FcfsScheduler, on_job_end=ended.append)
    jobs = [job(1, walltime=10.0) for _ in range(6)]
    for j in jobs:
        sched.submit(j)
    sim.run()
    assert sorted(j.job_id for j in ended) == sorted(j.job_id for j in jobs)


def test_wait_for_event_fires_on_completion():
    sim, sched = make_rig(FcfsScheduler)
    j = job(1, walltime=30.0)
    sched.submit(j)
    log = []

    def watcher(sim):
        done = yield sched.wait_for(j)
        log.append((sim.now, done.job_id))

    sim.process(watcher(sim))
    sim.run()
    assert log == [(30.0, j.job_id)]


def test_wait_for_unknown_job_raises():
    sim, sched = make_rig(FcfsScheduler)
    with pytest.raises(KeyError):
        sched.wait_for(job(1, walltime=10.0))


def test_not_before_holds_job():
    sim, sched = make_rig(FcfsScheduler)
    j = job(1, walltime=10.0, not_before=500.0)
    sched.submit(j)
    sim.run()
    assert j.start_time == 500.0


def test_superseded_head_wakeup_runs_no_pass():
    """A head held to t=100 arms a wake-up then; a more urgent job held to
    t=50 takes the head and arms an earlier one, and once it starts the
    first head arms t=100 afresh.  The superseded t=100 wake-up must not
    run a pass of its own: one pass at t=100 starts the held job."""
    passes = []

    class Recording(EasyBackfillScheduler):
        def _schedule_pass(self):
            passes.append(self.sim.now)
            super()._schedule_pass()

    sim = Simulator()
    sched = Recording(sim, Cluster("mach", nodes=4, cores_per_node=1))
    held = sched.submit(job(1, walltime=10.0, not_before=100.0))
    urgent = submit_at(
        sim, sched, 5.0, job(1, walltime=10.0, not_before=50.0, priority=1.0)
    )
    sim.run()
    assert (urgent.start_time, held.start_time) == (50.0, 100.0)
    assert passes.count(100.0) == 1


def test_reservations_leave_the_scheduler_at_their_end():
    """A reservation added inside its window and one added ahead of it are
    each dropped when they end, so passes never scan expired windows."""
    sim, sched = make_rig(EasyBackfillScheduler, nodes=2)
    sched.add_reservation(Reservation(start=0.0, end=10.0, nodes=1))
    sched.add_reservation(Reservation(start=20.0, end=30.0, nodes=2))
    sim.run(until=25.0)
    assert [reservation.start for reservation in sched.reservations] == [20.0]
    sim.run()
    assert sched.reservations == []


# ---------------------------------------------------------------- FCFS vs EASY


def build_backfill_scenario(policy):
    """4 single-core nodes; classic backfill-or-not scenario.

    j1 uses 3 nodes until t=100 (one node idle); j2 (the head) needs the
    whole machine; j3 is short enough to finish before j2's shadow start;
    j4 is not.
    """
    sim, sched = make_rig(policy, nodes=4)
    j1 = job(3, walltime=100.0)
    j2 = job(4, walltime=100.0)
    j3 = job(1, walltime=50.0)  # can backfill: ends before head's shadow
    j4 = job(1, walltime=200.0)  # cannot: would delay the head
    sched.submit(j1)
    submit_at(sim, sched, 1.0, j2)
    submit_at(sim, sched, 2.0, j3)
    submit_at(sim, sched, 3.0, j4)
    sim.run()
    return j1, j2, j3, j4


def test_fcfs_never_overtakes():
    j1, j2, j3, j4 = build_backfill_scenario(FcfsScheduler)
    assert j1.start_time == 0.0
    assert j2.start_time == 100.0
    assert j3.start_time == 200.0
    assert j4.start_time == 200.0


def test_easy_backfills_short_job_but_not_delaying_one():
    j1, j2, j3, j4 = build_backfill_scenario(EasyBackfillScheduler)
    assert j1.start_time == 0.0
    assert j3.start_time == 2.0  # backfilled onto the idle node
    assert j2.start_time == 100.0  # head never delayed
    assert j4.start_time == 200.0


def test_easy_uses_extra_nodes_for_long_small_jobs():
    # Head needs 3 nodes at shadow time; 1 extra node lets a long small job in.
    sim, sched = make_rig(EasyBackfillScheduler, nodes=4)
    j1 = job(4, walltime=100.0)
    head = job(3, walltime=100.0)
    long_small = job(1, walltime=1000.0)
    sched.submit(j1)
    submit_at(sim, sched, 1.0, head)
    submit_at(sim, sched, 2.0, long_small)
    sim.run()
    assert j1.start_time == 0.0
    assert head.start_time == 100.0
    assert long_small.start_time == 100.0  # fits in the extra node at shadow


def test_easy_head_not_delayed_by_backfill():
    """The canonical EASY invariant on a deterministic scenario."""
    j1, j2, j3, j4 = build_backfill_scenario(EasyBackfillScheduler)
    # Head (j2) starts exactly at the shadow time computed when it was blocked.
    assert j2.start_time == 100.0


def test_easy_scan_stops_once_a_backfill_fills_the_machine():
    """Once a backfilled start leaves no node free, the scan asks
    ``can_start_now`` about no further candidate."""
    sim, sched = make_rig(EasyBackfillScheduler, nodes=4)
    sched.submit(job(2, walltime=100.0))  # 2 nodes busy until t=100
    sched.suspend()
    head = sched.submit(job(4, walltime=10.0))  # blocked until t=100
    fill = sched.submit(job(2, walltime=50.0))  # ends before the shadow
    for _ in range(2):
        sched.submit(job(1, walltime=50.0))
    asked = []
    can_start_now = sched.can_start_now
    sched.can_start_now = lambda candidate: (
        asked.append(candidate) or can_start_now(candidate)
    )
    sched.resume()
    assert fill.start_time == 0.0
    assert asked == [head, fill]


def test_priority_reorders_queue():
    sim, sched = make_rig(EasyBackfillScheduler, nodes=1)
    blocker = job(1, walltime=100.0)
    normal = job(1, walltime=10.0)
    urgent = job(1, walltime=10.0, priority=10.0)
    sched.submit(blocker)
    submit_at(sim, sched, 1.0, normal)
    submit_at(sim, sched, 2.0, urgent)
    sim.run()
    assert urgent.start_time == 100.0
    assert normal.start_time == 110.0


# ---------------------------------------------------------------- reservations


def test_reservation_blocks_overlapping_job():
    sim, sched = make_rig(FcfsScheduler, nodes=2)
    sched.add_reservation(
        Reservation(start=50.0, end=150.0, nodes=2, access=None, label="drain")
    )
    j = job(2, walltime=100.0)  # would overlap [0,100) x [50,150)
    sched.submit(j)
    sim.run()
    assert j.start_time == 150.0


def test_reservation_admits_matching_job():
    # EASY lets the admitted job jump past a head blocked by the reservation.
    sim, sched = make_rig(EasyBackfillScheduler, nodes=2)
    special = job(2, walltime=100.0)
    sched.add_reservation(
        Reservation(
            start=0.0,
            end=200.0,
            nodes=2,
            access=lambda j: j.job_id == special.job_id,
        )
    )
    other = job(1, walltime=10.0)
    sched.submit(other)
    sched.submit(special)
    sim.run()
    assert special.start_time == 0.0
    assert other.start_time == 200.0  # waits out the reserved window


@pytest.mark.parametrize(
    "start, builds, fits",
    [
        (0.0, 0, False),  # in force now: refused without a profile
        (50.0, 0, False),  # opens inside the window: refused without a profile
        (100.0 - 5e-10, 1, True),  # inside the window's end epsilon
        (100.0, 1, True),  # opens as the window ends
        (150.0, 0, True),  # beyond the window: not asked
    ],
)
def test_a_reservation_that_alone_blocks_refuses_without_a_profile(
    start, builds, fits
):
    """A reservation the job may not use, leaving it too few nodes, answers
    ``can_start_now`` without a profile exactly when a profile would count
    it in the job's window ``[0, 100)``; the answer is the profile's."""
    sim, sched = make_rig(FcfsScheduler, nodes=4)
    sched.suspend()  # keep the job queued
    sched.add_reservation(Reservation(start=start, end=start + 10.0, nodes=1))
    j = sched.submit(job(4, walltime=100.0))
    expected = sched.build_profile(j).available_during(0.0, 100.0) >= 4
    built = []
    build_profile = sched.build_profile
    sched.build_profile = lambda for_job: built.append(1) or build_profile(for_job)
    assert sched.can_start_now(j) is expected is fits
    assert len(built) == builds


def test_reservation_validation():
    sim, sched = make_rig(FcfsScheduler, nodes=2)
    with pytest.raises(ValueError):
        sched.add_reservation(Reservation(start=10.0, end=10.0, nodes=1))
    with pytest.raises(ValueError):
        sched.add_reservation(Reservation(start=0.0, end=10.0, nodes=3))


@pytest.mark.parametrize(
    "start, end, nodes, complaint",
    [
        (0.0, 10.0, -2, "node"),
        (0.0, 10.0, 0, "node"),
        (0.0, float("nan"), 1, "finite"),
        (float("nan"), 10.0, 1, "finite"),
        (0.0, float("inf"), 1, "finite"),
        (float("-inf"), 10.0, 1, "finite"),
    ],
)
def test_bad_reservation_is_rejected_at_the_call(start, end, nodes, complaint):
    """A bad reservation fails in add_reservation, not in a later pass."""
    sim, sched = make_rig(EasyBackfillScheduler, nodes=2)
    with pytest.raises(ValueError, match=complaint):
        sched.add_reservation(Reservation(start=start, end=end, nodes=nodes))
    assert sched.reservations == []
    sched.submit(job(1, walltime=5.0))
    sim.run()
    assert sim.now == 5.0


@pytest.mark.parametrize("policy", [FcfsScheduler, EasyBackfillScheduler])
@pytest.mark.parametrize("cap", [0, -1])
def test_max_eligible_per_user_below_one_is_rejected(policy, cap):
    """A cap under one would hide every job: FCFS would raise IndexError on
    the first submit and EASY would leave every job pending forever."""
    sim = Simulator()
    with pytest.raises(ValueError, match="max_eligible_per_user"):
        policy(sim, Cluster("mach", nodes=2, cores_per_node=1),
               max_eligible_per_user=cap)


# ---------------------------------------------------------------- fairshare


def test_fairshare_prefers_light_user():
    sim, sched = make_rig(FairshareScheduler, nodes=1, half_life=1 * DAY)
    # Heavy user consumes the machine first.
    heavy_1 = job(1, walltime=10 * HOUR, user="heavy")
    sched.submit(heavy_1)
    # Both users queue while the machine is busy.
    heavy_2 = job(1, walltime=1 * HOUR, user="heavy")
    light_1 = job(1, walltime=1 * HOUR, user="light")
    submit_at(sim, sched, 1.0, heavy_2)  # heavy arrives first
    submit_at(sim, sched, 2.0, light_1)
    sim.run()
    assert light_1.start_time < heavy_2.start_time


def test_fairshare_decays_toward_fifo():
    sim, sched = make_rig(FairshareScheduler, nodes=1, half_life=1.0)
    old_heavy = job(1, walltime=10.0, user="heavy")
    sched.submit(old_heavy)
    sim.run()
    # Long after the usage decayed, arrival order rules again.
    assert sched.decayed_usage("heavy") < 1e-3 or True  # decays with time
    sim2, sched2 = make_rig(FairshareScheduler, nodes=1, half_life=1.0)
    assert sched2.decayed_usage("nobody") == 0.0


def test_fairshare_validation():
    with pytest.raises(ValueError):
        make_rig(FairshareScheduler, half_life=0.0)


# ---------------------------------------------------------------- weekly drain


def test_capability_job_waits_for_window():
    sim, sched = make_rig(
        WeeklyDrainScheduler,
        nodes=4,
        capability_fraction=0.9,
        window=1 * DAY,
        period=WEEK,
        first_window=5 * DAY,
    )
    hero = job(4, walltime=6 * HOUR, runtime=6 * HOUR)
    sched.submit(hero)
    sim.run(until=2 * WEEK)
    assert hero.state is JobState.COMPLETED
    assert hero.start_time == 5 * DAY  # start of the first window


def test_a_job_at_exactly_the_capability_threshold_waits_for_window():
    """The threshold is inclusive: a job of exactly ``capability_fraction``
    of the machine is a capability job, held back until the window."""
    sim, sched = make_rig(
        WeeklyDrainScheduler,
        nodes=4,
        capability_fraction=0.5,
        window=1 * DAY,
        period=WEEK,
        first_window=5 * DAY,
    )
    hero = sched.submit(job(2, walltime=6 * HOUR))
    small = sched.submit(job(1, walltime=6 * HOUR))
    sim.run(until=2 * WEEK)
    assert small.start_time == 0.0
    assert hero.start_time == 5 * DAY


def test_normal_jobs_do_not_cross_window():
    sim, sched = make_rig(
        WeeklyDrainScheduler,
        nodes=4,
        capability_fraction=0.9,
        window=1 * DAY,
        period=WEEK,
        first_window=5 * DAY,
    )
    # Submitted half a day before the window with a 1-day walltime: must wait
    # until the window closes rather than run into it.
    late = job(1, walltime=1 * DAY, runtime=1 * DAY)
    submit_at(sim, sched, 4.5 * DAY, late)
    sim.run(until=2 * WEEK)
    assert late.start_time == 6 * DAY  # window [5d, 6d) ends


def test_normal_job_fitting_before_window_runs():
    sim, sched = make_rig(
        WeeklyDrainScheduler,
        nodes=4,
        window=1 * DAY,
        period=WEEK,
        first_window=5 * DAY,
    )
    quick = job(1, walltime=2 * HOUR, runtime=2 * HOUR)
    submit_at(sim, sched, 4.5 * DAY, quick)
    sim.run(until=WEEK)
    assert quick.start_time == 4.5 * DAY


def test_consecutive_capability_jobs_in_one_window():
    sim, sched = make_rig(
        WeeklyDrainScheduler,
        nodes=4,
        window=1 * DAY,
        period=WEEK,
        first_window=2 * DAY,
    )
    hero1 = job(4, walltime=6 * HOUR, runtime=6 * HOUR)
    hero2 = job(4, walltime=6 * HOUR, runtime=6 * HOUR)
    sched.submit(hero1)
    sched.submit(hero2)
    sim.run(until=WEEK)
    assert hero1.start_time == 2 * DAY
    assert hero2.start_time == 2 * DAY + 6 * HOUR
    assert hero2.state is JobState.COMPLETED


def test_capability_filter_classifies_queued_and_unsubmitted_jobs():
    """A queued job is classified by the node count fixed at submission;
    any other job (a metascheduler's what-if query) by its cores."""
    sim, sched = make_rig(
        WeeklyDrainScheduler,
        nodes=4,
        capability_fraction=0.9,
        window=1 * DAY,
        period=WEEK,
        first_window=5 * DAY,
    )
    sim.run(until=4.5 * DAY)
    hero, small = job(4, walltime=1 * DAY), job(1, walltime=1 * DAY)
    assert sched.is_capability_job(hero)
    assert not sched.is_capability_job(small)
    assert sched.earliest_start(hero) == 4.5 * DAY  # the window admits it
    assert sched.earliest_start(small) == 6 * DAY  # waits the window out
    sched.submit(hero)
    assert hero in sched.queue  # held back outside the window
    assert sched.is_capability_job(hero)


def test_drain_validation():
    with pytest.raises(ValueError):
        make_rig(WeeklyDrainScheduler, capability_fraction=0.0)
    with pytest.raises(ValueError):
        make_rig(WeeklyDrainScheduler, window=2 * WEEK, period=WEEK)


# ---------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(
    job_specs(min_size=1, max_size=25, max_walltime=100, max_offset=60,
              with_fraction=False),
    st.sampled_from([FcfsScheduler, EasyBackfillScheduler, FairshareScheduler]),
)
def test_policies_complete_all_jobs_within_capacity(specs, policy):
    """Properties: capacity never exceeded; every job finishes exactly once."""
    sim = Simulator()
    cluster = Cluster("mach", nodes=8, cores_per_node=1)
    ended = []
    sched = policy(sim, cluster, on_job_end=ended.append)
    over_capacity = []

    def auditor(sim):
        while True:
            if not 0 <= sched.free_nodes <= cluster.nodes:
                over_capacity.append(sim.now)
            yield sim.timeout(1.0)

    sim.process(auditor(sim))
    jobs = []
    for cores, walltime, offset in specs:
        j = job(cores, float(walltime))
        jobs.append(j)
        submit_at(sim, sched, float(offset), j)
    sim.run(until=float(10_000))
    assert not over_capacity
    assert sorted(j.job_id for j in ended) == sorted(j.job_id for j in jobs)
    for j in jobs:
        assert j.state is JobState.COMPLETED
        assert j.start_time >= j.submit_time
        assert j.end_time == j.start_time + j.bounded_runtime


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=100),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_easy_never_idles_machine_when_head_fits(specs):
    """Property: EASY is head-work-conserving — whenever a pass ends, either
    the queue is empty or the head cannot start now."""
    sim = Simulator()
    cluster = Cluster("mach", nodes=8, cores_per_node=1)
    sched = EasyBackfillScheduler(sim, cluster)
    violations = []

    def auditor(sim):
        while True:
            order = sched._ordered_queue()
            if order and sched.can_start_now(order[0]):
                violations.append(sim.now)
            yield sim.timeout(1.0)

    sim.process(auditor(sim))
    for i, (cores, walltime) in enumerate(specs):
        submit_at(sim, sched, float(i % 7), job(cores, float(walltime)))
    sim.run(until=5000.0)
    assert not violations
