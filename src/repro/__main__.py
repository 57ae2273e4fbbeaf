"""Command-line entry point: regenerate tables/figures from the terminal.

Usage::

    python -m repro list                # show the experiment index
    python -m repro run T1              # regenerate one table/figure
    python -m repro run T1 --days 30    # ...with reduced horizon
    python -m repro run R1 --jobs 4     # fan its replicates over 4 workers
    python -m repro run-all --fast      # the full suite, parallel + cached
    python -m repro run-all --resume 20260806-101500-ab12cd
    python -m repro cache info          # the store: entries per namespace
    python -m repro taxonomy            # print the modality taxonomy
    python -m repro profile T2          # event-kernel hot-path table
    python -m repro stats               # render the latest telemetry sidecar

``run-all`` and ``run`` accept ``--jobs N`` (default: ``REPRO_JOBS`` env,
then CPU count), ``--cache-dir`` / ``--no-cache`` (the checksummed store:
task results plus the campaign artifacts behind the runner's
simulate-once/measure-everywhere two-stage DAG), ``--task-timeout SECONDS``,
``--retries N`` and ``--timings`` (per-stage wall-clock and campaign dedup
counters on stderr).  ``run-all`` additionally journals its progress under
``<runs-dir>/<run-id>/journal.jsonl`` (``--runs-dir``, default ``runs/`` or
``REPRO_RUNS_DIR``) so an interrupted sweep can be continued with
``--resume <run-id>`` — completed tasks are skipped via the result cache
and only pending or failed ones re-run.  ``cache info|stats|clear|gc``
inspect, empty or prune both namespaces of the store.  Reports are written
without timing lines so the bytes are identical at any ``--jobs`` value;
timing, cache and fault-tolerance summaries go to stderr instead.

Chaos testing: set ``REPRO_CHAOS=kill:p,hang:p,corrupt:p`` to inject
worker kills, hangs and cache corruption; the sweep must still complete
with byte-identical reports (that is the point).
"""

from __future__ import annotations

import argparse
import sys
import time
from datetime import datetime, timezone


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every task and simulate every campaign "
                             "live; do not read or write the store")
    parser.add_argument("--cache-dir", default=None,
                        help="store root for task results and campaign artifacts "
                             "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                        help="wall-clock limit per task; overruns are retried, "
                             "then recorded as failures (default: unlimited)")
    parser.add_argument("--retries", type=int, default=4, metavar="N",
                        help="retries per task after transient failures — worker "
                             "crashes and timeouts, never task exceptions (default: 4)")
    parser.add_argument("--timings", action="store_true",
                        help="print per-stage wall-clock and campaign dedup "
                             "counters to stderr")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL telemetry sidecar (wall-domain "
                             "spans/events/metrics; never changes report bytes)")


def _build_runner(args, journal=None, resume_keys=(), run_id=None):
    from repro.obs.telemetry import Telemetry
    from repro.runner import (
        ArtifactStore,
        ParallelRunner,
        ResultCache,
        RetryPolicy,
        chaos_from_env,
    )

    chaos_from_env()  # fail fast on a malformed REPRO_CHAOS spec
    if args.retries < 0:
        raise ValueError("--retries must be >= 0")
    cache = artifacts = None
    if not args.no_cache:
        root = _store_root(args)
        cache, artifacts = ResultCache(root=root), ArtifactStore(root=root)
    return ParallelRunner(
        jobs=args.jobs,
        cache=cache,
        use_cache=not args.no_cache,
        task_timeout=args.task_timeout,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        journal=journal,
        resume_keys=resume_keys,
        artifacts=artifacts,
        telemetry=Telemetry(run_id=run_id),
        # Per-task sim tracing only when a sidecar was asked for explicitly:
        # the default path keeps the kernel's no-tracer fast path.
        trace_sim=getattr(args, "trace", None) is not None,
    )


def _store_root(args):
    """``--cache-dir``, else ``REPRO_CACHE_DIR``, else the user cache dir."""
    from pathlib import Path

    from repro.runner import default_cache_dir

    return Path(args.cache_dir) if args.cache_dir else default_cache_dir()


def _print_store_rows(namespaces) -> None:
    """``cache info`` / ``cache stats``: one row per namespace of the store."""
    print(f"store dir:    {namespaces[0].root}")
    print(f"code version: {namespaces[0].version}")
    for store in namespaces:
        print(f"{store.namespace + ':':14s}{len(store.entries())} entries "
              f"({len(store.current_entries())} current), "
              f"{len(store.quarantined_entries())} quarantined, "
              f"{store.size_bytes()} bytes")


def _tally(namespaces, counts) -> str:
    return ", ".join(
        f"{count} {store.namespace}" for store, count in zip(namespaces, counts)
    )


def _fault_note(runner) -> str:
    """Stderr-only fault-tolerance summary (empty when nothing happened)."""
    parts = []
    if runner.retries:
        parts.append(f"retries: {runner.retries}")
    if runner.pool_deaths:
        parts.append(f"pool-deaths: {runner.pool_deaths}")
    if runner.degraded_tasks:
        parts.append(f"degraded: {len(runner.degraded_tasks)}")
    if runner.resume_skipped:
        parts.append(f"resumed: {runner.resume_skipped} skipped")
    if runner.campaign_failures:
        parts.append(f"campaign-stage-failures: {len(runner.campaign_failures)}")
    if runner.failures:
        parts.append(f"failed: {len(runner.failures)}")
    return (", " + ", ".join(parts)) if parts else ""


def _print_timings(runner) -> None:
    """``--timings``: the telemetry view of stage/campaign data, on stderr.

    The numbers come from the same terminal wall-summary record the JSONL
    sidecar carries — the stderr lines are a rendering of telemetry, not a
    parallel bookkeeping path.
    """
    from repro.obs.telemetry import Telemetry, timings_lines

    telemetry = runner.telemetry if runner.telemetry is not None else Telemetry()
    for line in timings_lines(telemetry.finish(runner)):
        print(line, file=sys.stderr)


def _write_sidecar(runner, path) -> None:
    """``--trace FILE``: persist the run's telemetry sidecar."""
    if runner.telemetry is None or not path:
        return
    written = runner.telemetry.write_jsonl(path)
    print(f"[telemetry sidecar written to {written}]", file=sys.stderr)


def _print_last_run_rates(args) -> None:
    """``cache stats``: hit rates of the latest run, from its sidecar.

    The sidecar's ``cache`` block is a snapshot of the registry-backed
    :class:`~repro.runner.cache.CacheStats`; campaign reuse comes from the
    same terminal summary.  Silent no-op when no run has left telemetry.
    """
    sidecar = _latest_sidecar(args)
    if sidecar is None:
        return
    from repro.obs import read_sidecar, sidecar_summary

    try:
        summary = sidecar_summary(read_sidecar(sidecar))
    except (OSError, ValueError):
        return
    cache = summary.get("cache")
    if cache:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        rate = cache.get("hits", 0) / lookups if lookups else 0.0
        print(f"last run:     {cache.get('hits', 0)} hits, "
              f"{cache.get('misses', 0)} misses ({rate:.1%} hit rate)")
    stats = summary.get("campaign_stats")
    if stats and stats.get("distinct"):
        reused = stats.get("reused", 0)
        rate = reused / stats["distinct"]
        print(f"              {stats['distinct']} campaigns, {reused} reused "
              f"({rate:.1%} artifact/memo reuse)")


def _latest_sidecar(args):
    """Newest ``<runs-dir>/<run-id>/telemetry.jsonl`` by write time.

    Run ids only timestamp to the second (the suffix is random), so two
    quick runs can tie lexically; the file mtime breaks the tie.
    """
    from pathlib import Path

    from repro.runner import default_runs_dir

    runs_dir = (
        Path(args.runs_dir)
        if getattr(args, "runs_dir", None)
        else default_runs_dir()
    )
    if not runs_dir.is_dir():
        return None
    # Deterministic tie-break: mtime first, then the full path as a string
    # (run-id lexicographic), so two sidecars written in the same second
    # cannot flap between invocations.
    candidates = sorted(
        runs_dir.glob("*/telemetry.jsonl"),
        key=lambda path: (path.stat().st_mtime, path.as_posix()),
    )
    return candidates[-1] if candidates else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TeraGrid usage-modality reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")
    sub.add_parser("taxonomy", help="print the modality taxonomy table")

    report_parser = sub.add_parser(
        "report", help="regenerate every table/figure into one report"
    )
    report_parser.add_argument("--fast", action="store_true",
                               help="reduced horizons (smoke report)")
    report_parser.add_argument("--out", default=None,
                               help="write to a file instead of stdout")
    report_parser.add_argument("--only", nargs="*", default=None,
                               help="subset of experiment ids")

    run_all_parser = sub.add_parser(
        "run-all",
        help="regenerate the report with parallel workers, caching and "
             "a resumable run journal",
    )
    run_all_parser.add_argument("--fast", action="store_true",
                                help="reduced horizons (smoke report)")
    run_all_parser.add_argument("--out", default=None,
                                help="write to a file instead of stdout")
    run_all_parser.add_argument("--only", nargs="*", default=None,
                                help="subset of experiment ids")
    run_all_parser.add_argument("--resume", default=None, metavar="RUN_ID",
                                help="continue an interrupted run: skip tasks its "
                                     "journal records as completed")
    run_all_parser.add_argument("--runs-dir", default=None,
                                help="run-journal directory (default: REPRO_RUNS_DIR or ./runs)")
    run_all_parser.add_argument("--no-journal", action="store_true",
                                help="do not write a run journal (run cannot be resumed)")
    _add_parallel_flags(run_all_parser)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id", help="e.g. T1, F3")
    run_parser.add_argument("--days", type=float, default=None,
                            help="override the simulated horizon")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the master seed")
    _add_parallel_flags(run_parser)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="run random federation scenarios against the invariant oracle",
    )
    fuzz_parser.add_argument("--budget", type=int, default=50, metavar="N",
                             help="scenarios to draw and simulate (default: 50)")
    fuzz_parser.add_argument("--seed", type=int, default=0, metavar="S",
                             help="fuzzing seed; the whole run — and any "
                                  "failure — replays from it (default: 0)")
    fuzz_parser.add_argument("--max-days", type=float, default=6.0,
                             metavar="D",
                             help="longest simulated horizon per scenario "
                                  "(default: 6)")

    scenario_parser = sub.add_parser(
        "scenario",
        help="list or run the shipped federation-scenario library",
    )
    scenario_parser.add_argument(
        "action", choices=["list", "run"],
        help="list: show library entries; run: simulate one and print its "
             "oracle report",
    )
    scenario_parser.add_argument("name", nargs="?", default=None,
                                 help="library entry (for run), or a path to "
                                      "a scenario YAML document")
    scenario_parser.add_argument("--days", type=float, default=None,
                                 help="override the program's horizon")
    scenario_parser.add_argument("--seed", type=int, default=None,
                                 help="override the program's seed")
    scenario_parser.add_argument("--shards", type=int, default=None,
                                 help="simulate via population cells merged "
                                      "deterministically (default: the "
                                      "program's own shards knob)")

    cache_parser = sub.add_parser(
        "cache",
        help="inspect, clear or prune the store (task results and campaign "
             "artifacts)",
    )
    cache_parser.add_argument(
        "action", choices=["info", "clear", "stats", "gc"],
        help="info: entries, current-version entries, quarantined entries and "
             "bytes per namespace; stats: the same plus the latest run's hit "
             "rates; clear: delete every entry, quarantined ones included; gc: "
             "prune entries whose code version no longer matches the working "
             "tree",
    )
    cache_parser.add_argument("--cache-dir", default=None,
                              help="store root (default: REPRO_CACHE_DIR or "
                                   "~/.cache/repro)")
    cache_parser.add_argument("--runs-dir", default=None,
                              help="run-journal directory searched for the "
                                   "latest telemetry sidecar (default: "
                                   "REPRO_RUNS_DIR or ./runs)")

    profile_parser = sub.add_parser(
        "profile",
        help="run one experiment serially under the sim tracer and print "
             "the event-kernel hot-path table",
    )
    profile_parser.add_argument("experiment", help="e.g. T2 or t2_usage")
    profile_parser.add_argument("--days", type=float, default=None,
                                help="override the simulated horizon")
    profile_parser.add_argument("--seed", type=int, default=None,
                                help="override the master seed")
    profile_parser.add_argument("--top", type=int, default=10, metavar="N",
                                help="rows per ranking table (default: 10)")
    profile_parser.add_argument("--chrome", default=None, metavar="FILE",
                                help="also write Chrome trace-event JSON "
                                     "(open in chrome://tracing or Perfetto)")
    profile_parser.add_argument("--span-cap", type=int, default=None,
                                metavar="N",
                                help="per-process span retention cap; "
                                     "aggregates are never capped")
    profile_parser.add_argument("--json", default=None, metavar="FILE",
                                dest="json_out",
                                help="also write a machine-readable profile "
                                     "(wall seconds, sim events, events/sec, "
                                     "host cores) in the BENCH_<id>.json shape")

    stats_parser = sub.add_parser(
        "stats",
        help="render a run's telemetry sidecar (default: the latest run)",
    )
    stats_parser.add_argument("sidecar", nargs="?", default=None,
                              help="path to a telemetry.jsonl (default: the "
                                   "newest one under the runs dir)")
    stats_parser.add_argument("--runs-dir", default=None,
                              help="run-journal directory (default: "
                                   "REPRO_RUNS_DIR or ./runs)")

    args = parser.parse_args(argv)

    if args.command == "taxonomy":
        from repro.core.report import taxonomy_table

        print(taxonomy_table())
        return 0

    if args.command == "fuzz":
        try:
            from repro.scenarios.fuzz import run_fuzz
        except ImportError as exc:
            print(exc, file=sys.stderr)
            return 2
        try:
            outcome = run_fuzz(
                budget=args.budget,
                seed=args.seed,
                max_days=args.max_days,
                out=sys.stdout,
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        return 0 if outcome.ok else 1

    if args.command == "scenario":
        from repro.scenarios import SCENARIO_LIBRARY, check_scenario, load_program
        from repro.workloads.synthetic import run_scenario

        if args.action == "list":
            for name in sorted(SCENARIO_LIBRARY):
                program = SCENARIO_LIBRARY[name]()
                print(f"{name:28s} days={program.days:<5g} seed={program.seed:<4d} "
                      f"{program.description}")
            return 0
        if args.name is None:
            print("scenario run needs a library name or a YAML path "
                  "(see: repro scenario list)", file=sys.stderr)
            return 2
        try:
            if args.name in SCENARIO_LIBRARY:
                program = SCENARIO_LIBRARY[args.name]()
            else:
                program = load_program(args.name)
        except FileNotFoundError:
            print(f"unknown scenario {args.name!r}: not a library entry "
                  f"(repro scenario list) and no such file", file=sys.stderr)
            return 2
        except (ValueError, ImportError) as exc:
            print(exc, file=sys.stderr)
            return 2
        config = program.compile(seed=args.seed, days=args.days)
        shards = args.shards if args.shards is not None else program.shards
        if shards < 1:
            print(f"--shards must be >= 1, got {shards}", file=sys.stderr)
            return 2
        print(f"scenario: {program.name}")
        if program.description:
            print(f"  {program.description}")
        print(f"  days={config.days:g} seed={config.seed} "
              f"sites={len(config.sites) if config.sites else config.scale}")
        if shards > 1:
            from repro.scenarios import check_merged_artifact
            from repro.workloads.sharding import cell_count, run_scenario_sharded

            artifact = run_scenario_sharded(config, shards=shards)
            report = check_merged_artifact(artifact)
            print(f"  cells={cell_count(config.population)} shards={shards}")
            print(f"  records={len(artifact.records)} "
                  f"nu={artifact.total_nu:.1f}")
        else:
            result = run_scenario(config)
            report = check_scenario(result)
            print(f"  records={len(result.records)} "
                  f"nu={result.central.total_nu():.1f} "
                  f"outages={sum(len(i.outages) for i in result.injectors)}")
        print("invariants:")
        for line in report.summary().splitlines():
            print(f"  {line}")
        if not report.ok:
            for violation in report.violations:
                print(f"  !! {violation}")
        return 0 if report.ok else 1

    if args.command == "profile":
        from repro.obs import (
            chrome_trace_from_tracer,
            profile_experiment,
            render_hot_path_table,
            resolve_experiment_id,
            write_chrome_trace,
        )

        try:
            experiment_id = resolve_experiment_id(args.experiment)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        knobs = {}
        if args.days is not None:
            knobs["days"] = args.days
        if args.seed is not None:
            knobs["seed"] = args.seed
        extra = {"span_cap": args.span_cap} if args.span_cap is not None else {}
        profile_started = time.perf_counter()
        tracer = profile_experiment(experiment_id, knobs, **extra)
        wall_seconds = time.perf_counter() - profile_started
        print(render_hot_path_table(tracer, top=args.top), end="")
        if args.chrome:
            path = write_chrome_trace(
                chrome_trace_from_tracer(tracer), args.chrome
            )
            print(f"[chrome trace written to {path}]", file=sys.stderr)
        if args.json_out:
            import json
            import os

            payload = {
                "bench": "profile",
                "experiment": experiment_id,
                "knobs": knobs,
                "host_cores": os.cpu_count(),
                "wall_seconds": round(wall_seconds, 3),
                "sim_events": tracer.events_total,
                "events_per_second": (
                    round(tracer.events_total / wall_seconds, 1)
                    if wall_seconds > 0 else None
                ),
                "heap_high_water": tracer.heap_high_water,
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
            }
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"[profile json written to {args.json_out}]", file=sys.stderr)
        return 0

    if args.command == "stats":
        from repro.obs import read_sidecar, render_stats, sidecar_summary

        path = args.sidecar or _latest_sidecar(args)
        if path is None:
            print(
                "no telemetry sidecar found: pass a path, or produce one "
                "with run/run-all --trace (run-all also writes one next to "
                "its journal)",
                file=sys.stderr,
            )
            return 2
        try:
            records = read_sidecar(path)
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"sidecar: {path}")
        print(
            render_stats(
                sidecar_summary(records), run_id=records[0].get("run_id")
            ),
            end="",
        )
        return 0

    if args.command == "cache":
        from repro.runner import ArtifactStore, ResultCache

        root = _store_root(args)
        namespaces = (ResultCache(root=root), ArtifactStore(root=root))
        if args.action == "clear":
            counts = [store.clear() for store in namespaces]
            print(f"removed from {root}: {_tally(namespaces, counts)}")
        elif args.action == "gc":
            counts = [store.gc() for store in namespaces]
            print(f"pruned stale code versions from {root}: "
                  f"{_tally(namespaces, counts)} "
                  f"(kept {namespaces[0].version})")
        else:
            _print_store_rows(namespaces)
            if args.action == "stats":
                _print_last_run_rates(args)
        return 0

    from repro.experiments import registry, run_experiment

    if args.command == "list":
        for experiment_id in sorted(registry):
            doc = (registry[experiment_id].__module__ or "").rsplit(".", 1)[-1]
            print(f"{experiment_id:4s} {doc}")
        return 0

    if args.command == "report":
        from repro.experiments.reporting import generate_report

        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                generate_report(out=handle, fast=args.fast, only=args.only)
            print(f"report written to {args.out}")
        else:
            generate_report(out=sys.stdout, fast=args.fast, only=args.only)
        return 0

    if args.command == "run-all":
        from pathlib import Path

        from repro.experiments.reporting import generate_report
        from repro.runner import RunJournal, default_runs_dir

        runs_dir = Path(args.runs_dir) if args.runs_dir else default_runs_dir()
        journal = None
        resume_keys: frozenset[str] = frozenset()
        try:
            if args.resume:
                if args.no_cache:
                    raise ValueError(
                        "--resume needs the result cache (completed tasks are "
                        "served from it); drop --no-cache"
                    )
                if args.no_journal:
                    raise ValueError("--resume and --no-journal are contradictory")
                journal = RunJournal.resume(runs_dir, args.resume)
                resume_keys = journal.completed_keys()
            elif not args.no_journal:
                journal = RunJournal.create(runs_dir)
            runner = _build_runner(
                args,
                journal=journal,
                resume_keys=resume_keys,
                run_id=journal.run_id if journal is not None else None,
            )
        except (ValueError, FileNotFoundError) as exc:
            print(exc, file=sys.stderr)
            return 2

        if journal is not None:
            journal.record(
                "run-started",
                run_id=journal.run_id,
                only=args.only,
                fast=args.fast,
                jobs=runner.jobs,
                resumed=bool(args.resume),
            )
            print(f"[run {journal.run_id}: journal at {journal.path}]",
                  file=sys.stderr)
        started = time.time()
        try:
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    outputs = generate_report(
                        out=handle, fast=args.fast, only=args.only,
                        runner=runner, timings=False,
                    )
            else:
                outputs = generate_report(
                    out=sys.stdout, fast=args.fast, only=args.only,
                    runner=runner, timings=False,
                )
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        except Exception as exc:
            # Containment of last resort: report, never traceback-crash.
            print(f"run-all failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        finally:
            if journal is not None:
                journal.close()
        elapsed = time.time() - started
        stats = runner.cache_stats
        cache_note = f", cache: {stats}" if stats is not None else ", cache: off"
        print(
            f"[run-all: {len(outputs)} experiments, jobs={runner.jobs}"
            f"{cache_note}{_fault_note(runner)}, {elapsed:.1f}s]",
            file=sys.stderr,
        )
        if args.timings:
            _print_timings(runner)
        if journal is not None:
            _write_sidecar(runner, journal.path.parent / "telemetry.jsonl")
        if args.trace:
            _write_sidecar(runner, args.trace)
        for failure in runner.failures:
            print(f"[task failed] {failure.experiment_id}: {failure.describe()}",
                  file=sys.stderr)
        if journal is not None:
            with journal:
                journal.record(
                    "run-completed",
                    run_id=journal.run_id,
                    experiments=len(outputs),
                    failures=len(runner.failures),
                    retries=runner.retries,
                    pool_deaths=runner.pool_deaths,
                    degraded=len(runner.degraded_tasks),
                    resumed_skipped=runner.resume_skipped,
                )
        if args.out:
            print(f"report written to {args.out}")
        return 3 if runner.failures else 0

    knobs = {}
    if args.days is not None:
        knobs["days"] = args.days
    if args.seed is not None:
        knobs["seed"] = args.seed
    use_runner = (
        args.jobs is not None or args.no_cache or args.cache_dir is not None
        or args.task_timeout is not None or args.timings
        or args.trace is not None
    )
    try:
        if use_runner:
            runner = _build_runner(args)
            output = runner.run(args.experiment_id.upper(), **knobs)
            if args.timings:
                _print_timings(runner)
            if args.trace:
                _write_sidecar(runner, args.trace)
            if runner.failures:
                print(output)
                for failure in runner.failures:
                    print(f"[task failed] {failure.describe()}", file=sys.stderr)
                return 3
        else:
            output = run_experiment(args.experiment_id.upper(), **knobs)
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
