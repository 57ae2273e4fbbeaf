"""The four workloads: what one rep runs and how its output is checked.

Every workload is a closed loop with one client: a rep starts only after
the previous one finished, and all load comes from this process and, for
``sweep-cold``, its two pool workers.  Each workload's simulated input is
fixed by the reproduction's own spec (report seeds, the T-table campaign,
the ROADMAP's scale-0.5 target): a campaign's cost moves by up to 2.4x from
one seed to the next, far more than any bound, so ``--seed`` reseeds only
what cannot change the amount of work, namely the order in which
``measure-warm`` measures its experiments.

A workload exposes ``setup()``, ``rep(index, traced)`` (the timed call) and
``check(index)`` (run after the timer stops), which returns
``(attempted, failed, digest, runner_records)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import random
import shutil
import sys
from pathlib import Path

#: T-tables plus the two figures that read the same campaign (measure-warm).
WARM_EXPERIMENTS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F2", "F9")


def _complain(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr, flush=True)


def record_digest(records) -> str:
    """SHA-256 over the id-independent fields of a campaign's records.

    Job ids come from process-global counters, so they are left out: the
    digest must not depend on what ran earlier in the same process.
    """
    rows = sorted(
        (
            record.user, record.resource, repr(record.submit_time),
            repr(record.start_time), repr(record.end_time), str(record.cores),
            repr(record.charged_nu),
        )
        for record in records
    )
    digest = hashlib.sha256()
    for row in rows:
        digest.update("|".join(row).encode("utf-8") + b"\n")
    return digest.hexdigest()


class SweepCold:
    """``repro run-all --fast`` over all 23 experiments, cold, at 2 workers."""

    jobs = 2

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work

    def setup(self) -> None:
        from repro.__main__ import main
        from repro.experiments.base import plan_tasks
        from repro.experiments.reporting import FAST_KNOBS
        from repro.runner.cache import code_version

        code_version()
        self._main = main
        self.planned_tasks = sum(
            len(plan_tasks(experiment_id, **knobs))
            for experiment_id, knobs in FAST_KNOBS.items()
        )

    def _dir(self, index: int) -> Path:
        return self.work / f"rep{index}"

    def rep(self, index: int, traced: bool) -> None:
        from repro.experiments.base import _campaign_cache

        _campaign_cache.clear()
        rep_dir = self._dir(index)
        argv = [
            "run-all", "--fast",
            # Spans are recorded in this process only: trace inline.
            "--jobs", str(1 if traced else self.jobs),
            "--cache-dir", str(rep_dir / "cache"),
            "--runs-dir", str(rep_dir / "runs"),
            "--out", str(rep_dir / "report.txt"),
        ]
        chatter = io.StringIO()
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            self.exit_code = self._main(argv)
        self.chatter = chatter.getvalue()
        # The pool is shut down without waiting; reap its workers so their
        # CPU time is counted and none outlives the rep.
        for child in multiprocessing.active_children():
            child.join()

    def check(self, index: int):
        from repro.obs import read_sidecar
        from repro.runner import RunJournal

        rep_dir = self._dir(index)
        everything = self.planned_tasks, self.planned_tasks, None, None
        try:
            report = (rep_dir / "report.txt").read_bytes()
            (run_dir,) = (rep_dir / "runs").iterdir()
            journal = RunJournal.resume(run_dir.parent, run_dir.name).events()
            records = read_sidecar(run_dir / "telemetry.jsonl")
        except (OSError, ValueError) as exc:
            _complain(f"sweep-cold rep {index}: unreadable run output: {exc}")
            return everything
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        completed = [e for e in journal if e["event"] == "run-completed"]
        counters = [r["counters"] for r in records if "counters" in r]
        if self.exit_code != 0 or not completed or not counters:
            _complain(
                f"sweep-cold rep {index}: exit code {self.exit_code}, "
                f"{len(completed)} run-completed record(s); run-all said:\n"
                f"{self.chatter}"
            )
            return everything
        failed = counters[-1]["failures"] + counters[-1]["campaign_failures"]
        if failed:
            _complain(f"sweep-cold rep {index}: run-all said:\n{self.chatter}")
        return (
            self.planned_tasks,
            max(failed, completed[-1]["failures"]),
            hashlib.sha256(report).hexdigest(),
            records,
        )


class Campaign:
    """One coupled ``run_scenario`` per rep."""

    def __init__(self, name: str, work: Path, seed: int) -> None:
        self.name = name

    def setup(self) -> None:
        from repro.scenarios import check_scenario
        from repro.users.population import PopulationSpec
        from repro.workloads import synthetic
        from repro.workloads.synthetic import CampaignKey, ScenarioConfig

        if self.name == "campaign-canonical":
            # The T-table campaign at its fast horizon: seed 1, 46,815 events.
            self.config = CampaignKey.make(days=15).config()
        else:
            # The ROADMAP's coupled scale-0.5 target: scheduler-bound.
            self.config = ScenarioConfig(
                days=2.0, seed=9, population=PopulationSpec(scale=0.5)
            )
        self._synthetic = synthetic
        self._check = check_scenario

    def rep(self, index: int, traced: bool) -> None:
        # Looked up per call, so a traced rep goes through the wrapper.
        self.result = self._synthetic.run_scenario(self.config)

    def check(self, index: int):
        result, self.result = self.result, None
        report = self._check(result)
        if not report.ok:
            _complain(f"{self.name} rep {index}: oracle: {report.violations}")
        return 1, 0 if report.ok else 1, record_digest(result.records), None


class MeasureWarm:
    """Measurement only: 10 experiments over a pre-filled artifact store."""

    jobs = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.store_root = work / "store"
        self.rng = random.Random(seed)

    def setup(self) -> None:
        from repro.experiments.base import _campaign_cache
        from repro.experiments.reporting import FAST_KNOBS
        from repro.runner.cache import code_version

        self._campaign_cache = _campaign_cache
        self.version = code_version()
        self.requests = [(i, FAST_KNOBS[i]) for i in WARM_EXPERIMENTS]
        # The prefill simulates the shared campaign once and stores it; it
        # belongs to set-up so that work moved out of the reps shows there.
        self._runner().run_many(self.requests)

    def _runner(self):
        from repro.obs.telemetry import Telemetry
        from repro.runner import ArtifactStore, ParallelRunner

        # A fresh store object per rep: its in-memory memo would otherwise
        # serve the artifact without reading it from disk.
        store = ArtifactStore(root=self.store_root, version=self.version)
        return ParallelRunner(
            jobs=1, use_cache=False, artifacts=store, telemetry=Telemetry()
        )

    def rep(self, index: int, traced: bool) -> None:
        self._campaign_cache.clear()
        order = list(self.requests)
        self.rng.shuffle(order)
        self.runner = self._runner()
        self.outputs = dict(
            zip((i for i, _ in order), self.runner.run_many(order))
        )

    def check(self, index: int):
        runner, outputs = self.runner, self.outputs
        self.runner = self.outputs = None
        stats = runner.campaign_stats
        clean = (
            not runner.failures
            and stats["simulated"] == 0
            and stats["fallbacks"] == 0
        )
        if not clean:
            _complain(
                f"measure-warm rep {index}: failures {runner.failures}, "
                f"campaign stats {stats}"
            )
        text = "\n".join(str(outputs[i]) for i in WARM_EXPERIMENTS)
        return (
            len(WARM_EXPERIMENTS),
            0 if clean else len(WARM_EXPERIMENTS),
            hashlib.sha256(text.encode("utf-8")).hexdigest(),
            runner.telemetry.all_records(),
        )


WORKLOADS = ("sweep-cold", "campaign-canonical", "campaign-10x", "measure-warm")


def make(name: str, work: Path, seed: int):
    if name == "sweep-cold":
        return SweepCold(work, seed)
    if name == "measure-warm":
        return MeasureWarm(work, seed)
    if name in ("campaign-canonical", "campaign-10x"):
        return Campaign(name, work, seed)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
