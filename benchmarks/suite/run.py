"""The reproduction's benchmark: four workloads, end-to-end and per-layer.

One workload, one run (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/suite/run.py --workload campaign-10x --seed 1 \\
        --seconds 15 --trace 0

prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it carries the run's raw samples.

The whole suite, interleaved rounds plus one traced run per workload::

    python3 benchmarks/suite/run.py --out results/BENCH_x.json [--seed S]

writes every metric with its median, quartiles and sample count, and prints
the metric table and the per-workload layer-share table.  Compare two such
files with ``compare.py``.

How one run is measured: set-up is timed from interpreter launch to the
first timed call in three fresh interpreters (two that only set up, then
the one that measures), and ``setup_s`` is their median.  The measuring
interpreter runs closed-loop reps until ``--seconds`` is spent (at least
two), checks each rep's output against ``reference.json`` after the timer
stops, and reports medians.  Every time is reported at reference host speed
(see :mod:`probe`); the raw times are on the line before the result.  With
``--trace 1`` it alternates untraced and traced reps; only the traced ones
carry the span recorder and the kernel's ``SimTracer``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from statistics import median, quantiles

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [str(SUITE), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from probe import PROBE_REFERENCE_S, SpeedSampler, probe_burst  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = SUITE / "reference.json"
WORK_ROOT = ROOT / ".bench_work"

#: Set-up is sampled this many times per run (fresh interpreters each).
SETUP_SAMPLES = 3
#: Every run times at least this many reps, even past ``--seconds``.
MIN_REPS = 2
#: A run stops its children and fails after this long (runs must end in 180 s).
RUN_LIMIT_S = 170.0


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- the measuring interpreter --------------------------------------------------

def measure(workload, seconds: float, trace: bool, sampler: SpeedSampler) -> dict:
    """Closed-loop reps until ``seconds`` is spent; raw samples per rep.

    End-to-end reps run under the speed sampler.  A ``--trace 1`` run
    takes probe bursts before and after each rep instead, so probe time
    never lands inside a layer's spans.
    """
    from repro.obs import traced_simulation

    reps = []
    first_counts = None
    started = time.monotonic()
    while True:
        index = len(reps)
        traced = trace and index % 2 == 1
        gc.collect()
        with contextlib.ExitStack() as stack:
            if trace:
                probe = probe_burst()
            else:
                sampler.start()
            if traced:
                recorder = stack.enter_context(SpanRecorder())
                layers.install(recorder)
                tracer = stack.enter_context(traced_simulation())
            cpu = cpu_seconds()
            clock = time.perf_counter()
            workload.rep(index, traced)
            wall = time.perf_counter() - clock
            cpu = cpu_seconds() - cpu
        probe = (probe + probe_burst()) / 2 if trace else sampler.stop()
        attempted, failed, digest, records = workload.check(index)
        rep = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "probe_s": probe,
               "attempted": attempted, "failed": failed, "digest": digest}
        if traced:
            rep["layers"] = layers.traced_metrics(recorder, tracer, wall)
            if first_counts is None:
                first_counts = rep["layers"]
            elif not layers.counts_repeat([first_counts, rep["layers"]]):
                print(f"benchmark: rep {index}: exact counts differ from the "
                      "first traced rep's", file=sys.stderr)
                rep["failed"] = attempted
        elif trace and records is not None:
            rep["runner"] = layers.runner_metrics(records, wall, workload.jobs)
        reps.append(rep)
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return {"reps": reps, "peak_rss_mb": peak_rss_mb()}


def child_main(args) -> int:
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        sampler = SpeedSampler(work)
        sampler.start()
        workload = workloads.make(args.workload, work, args.seed)
        workload.setup()
        print(f"ready {sampler.stop()!r}", flush=True)
        if args.child == "setup":
            return 0
        detail = measure(workload, args.seconds, bool(args.trace), sampler)
        print(json.dumps(detail), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- one run: set-up probes, then the measuring interpreter ---------------------

class RunFailed(RuntimeError):
    pass


def spawn(args, role: str, deadline: float) -> tuple[dict, str]:
    """Run one child; return its set-up sample and the rest of its output.

    Set-up is timed from launching the interpreter to its ``ready`` line,
    which also carries the probe time measured while it set up.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    killed = []

    def kill_group() -> None:
        killed.append(True)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)

    started = time.perf_counter()
    # Own session, so a kill takes the child's pool workers down with it.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), kill_group)
    watchdog.start()
    try:
        ready = child.stdout.readline().split()
        setup_seconds = time.perf_counter() - started
        output = child.stdout.read()
        child.wait()
    finally:
        watchdog.cancel()
    if killed:
        raise RunFailed(f"{role} child ran past the {RUN_LIMIT_S:g}-s limit")
    if child.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise RunFailed(f"{role} child failed (exit code {child.returncode})")
    return {"wall_s": setup_seconds, "probe_s": float(ready[1])}, output


def at_reference_speed(sample: dict, key: str) -> float:
    """A raw time scaled by how much slower the probe ran than reference."""
    return sample[key] * PROBE_REFERENCE_S / sample["probe_s"]


def summarize(detail: dict, trace: bool) -> dict:
    """Metric values of one run, from its raw samples."""
    reps = detail["reps"]
    untraced = [rep for rep in reps if not rep["traced"]]
    if not trace:
        return {
            "wall_s": median(at_reference_speed(rep, "wall_s") for rep in untraced),
            "cpu_s": median(at_reference_speed(rep, "cpu_s") for rep in untraced),
            "setup_s": median(
                at_reference_speed(sample, "wall_s") for sample in detail["setup"]
            ),
            "peak_rss_mb": detail["peak_rss_mb"],
        }
    traced = [rep for rep in reps if rep["traced"]]
    values = layers.combine([rep["layers"] for rep in traced])
    runner = [rep["runner"] for rep in untraced if "runner" in rep]
    values.update(layers.combine(runner) if runner else layers.NO_RUNNER)
    values["obs.traced_rep_s"] = median(rep["wall_s"] for rep in traced)
    values["obs.trace_overhead_frac"] = (
        median(at_reference_speed(rep, "cpu_s") for rep in traced)
        / median(at_reference_speed(rep, "cpu_s") for rep in untraced)
        - 1.0
    )
    return values


def apply_reference(detail: dict, reference) -> None:
    """A rep whose output digest is not the reference fails all its ops."""
    for index, rep in enumerate(detail["reps"]):
        if rep["digest"] != reference:
            print(f"benchmark: rep {index}: output digest {rep['digest']} is "
                  f"not the reference {reference}", file=sys.stderr)
            rep["failed"] = rep["attempted"]


def result_line(spec: dict, detail: dict, values: dict, trace: bool) -> dict:
    reps = detail["reps"]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    names = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in names
        },
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_json(SPEC_PATH)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup = [
            spawn(args, "setup", deadline)[0]
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        measured, output = spawn(args, "measure", deadline)
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    detail = json.loads(output.strip().splitlines()[-1])
    detail["setup"] = setup + [measured]
    if args.record_reference:
        return record_reference(args.workload, detail)
    apply_reference(detail, load_json(REFERENCE_PATH).get(args.workload))
    values = summarize(detail, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result_line(spec, detail, values, bool(args.trace))))
    return 0


def record_reference(workload: str, detail: dict) -> int:
    """Store the output digest every rep agreed on as the new reference.

    Only for a change that means to alter the program's outputs; a
    performance change must leave ``reference.json`` alone.
    """
    reps = detail["reps"]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1 or None in digests or any(rep["failed"] for rep in reps):
        print(f"benchmark: reps disagree or failed; {workload} reference "
              "left unchanged", file=sys.stderr)
        return 1
    reference = load_json(REFERENCE_PATH) if REFERENCE_PATH.exists() else {}
    reference[workload] = digests.pop()
    REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{workload}: reference digest {reference[workload]}")
    return 0


# -- the whole suite ----------------------------------------------------------------

def run_once(workload: str, seed: int, seconds: float, trace: int):
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise RunFailed(f"{workload} (trace {trace}) exited {done.returncode}")
    detail_line, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result)


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


SHARE_COLUMNS = (
    ("kernel", ("sim.kernel_self_frac",)),
    ("scheduler", ("scheduler.self_frac",)),
    ("site+meta", ("site.self_frac", "metascheduler.self_frac")),
    ("users", ("users.self_frac",)),
    ("acct/AMIE", ("accounting.self_frac",)),
    ("network", ("network.self_frac",)),
    ("gateway", ("gateway.self_frac",)),
    ("scenario", ("workloads.self_frac",)),
    ("measure", ("core.self_frac", "experiments.self_frac")),
    ("runner I/O", ("runner.artifact.save_frac", "runner.artifact.load_frac",
                    "runner.cache.put_frac")),
    ("other", ("obs.unattributed_frac",)),
)


def render(spec: dict, suite: dict) -> str:
    lines = ["end-to-end (median [q1, q3] over n samples)"]
    for name, entry in suite["workloads"].items():
        for metric in spec["end_to_end"]:
            stats = entry["end_to_end"][metric["name"]]
            lines.append(
                f"  {name:19s} {metric['name']:12s} {stats['median']:10.4f} "
                f"[{stats['q1']:.4f}, {stats['q3']:.4f}] n={stats['n']:<3d} "
                f"{metric['unit']}"
            )
        lines.append(
            f"  {name:19s} ops: {entry['attempted']} attempted, "
            f"{entry['failed']} failed"
        )
    lines.append("")
    lines.append("layer shares of one traced rep (%)")
    header = "  " + f"{'workload':19s}" + "".join(
        f"{label:>11s}" for label, _ in SHARE_COLUMNS
    )
    lines.append(header)
    for name, entry in suite["workloads"].items():
        values = entry["per_layer"]
        cells = "".join(
            f"{100 * sum(values[m] for m in members):11.1f}"
            for _, members in SHARE_COLUMNS
        )
        lines.append(f"  {name:19s}{cells}")
    return "\n".join(lines) + "\n"


def run_suite(args) -> int:
    spec = load_json(SPEC_PATH)
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    started = datetime.now(timezone.utc)
    runs: dict[str, list] = {name: [] for name in names}
    try:
        for round_index in range(args.rounds):
            for name in names:
                runs[name].append(
                    run_once(name, args.seed + round_index, seconds, 0)
                )
        traced = {
            name: run_once(name, args.seed, seconds, 1) for name in names
        }
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    suite = {
        "git_sha": git_sha(),
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "timestamp": started.isoformat(timespec="seconds"),
        "seed": args.seed,
        "rounds": args.rounds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in names:
        details = [detail for detail, _ in runs[name]]
        reps = [rep for d in details for rep in d["reps"]]
        setup = [sample for d in details for sample in d["setup"]]
        trace_result = traced[name][1]
        results = [result for _, result in runs[name]] + [trace_result]
        suite["workloads"][name] = {
            "end_to_end": {
                "wall_s": spread([at_reference_speed(r, "wall_s") for r in reps]),
                "cpu_s": spread([at_reference_speed(r, "cpu_s") for r in reps]),
                "setup_s": spread([at_reference_speed(s, "wall_s") for s in setup]),
                "peak_rss_mb": spread([d["peak_rss_mb"] for d in details]),
            },
            "raw": {
                "wall_s": spread([r["wall_s"] for r in reps]),
                "cpu_s": spread([r["cpu_s"] for r in reps]),
                "setup_s": spread([s["wall_s"] for s in setup]),
                "probe_s": spread([r["probe_s"] for r in reps]),
            },
            "per_run": [
                {m: v["value"] for m, v in result["metrics"].items()}
                for _, result in runs[name]
            ],
            "per_layer": {
                m: v["value"] for m, v in trace_result["metrics"].items()
            },
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(render(spec, suite), end="")
    print(f"[suite written to {out}]")
    return 0 if all(w["correct"] for w in suite["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="run the whole suite; write it here")
    parser.add_argument("--rounds", type=int, default=3,
                        help="untraced runs per workload in a suite run")
    parser.add_argument("--record-reference", action="store_true",
                        help="with --workload: store the run's output digest "
                             "in reference.json instead of checking it")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and args.seconds is None:
        args.seconds = float(load_json(SPEC_PATH)["run_seconds"])
    if args.child:
        return child_main(args)
    if args.workload:
        return run_workload(args)
    if args.out:
        return run_suite(args)
    parser.error("give --workload NAME or --out FILE")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
