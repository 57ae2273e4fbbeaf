"""Compare two suite results: ``python3 benchmarks/suite/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change; both come from
``run.py --out``.  One row per workload and end-to-end metric gives both
medians with quartiles, the change relative to A's median, and a verdict:

* ``unresolved`` — either side's quartile spread is wider than the metric's
  bound, unless every run of B reads better than every run of A;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — with at least ten runs a side (``run.py --rounds 10``), B
  wins nine tenths of all (A run, B run) pairs and its median is better
  than A's by more than A's own spread;
* ``within bound`` — anything else.

Per-layer deltas follow; a changed exact count is flagged, since counts
depend only on the simulated input and move only when the work does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
EXACT_UNITS = ("count", "B")
MIN_RUNS_FOR_GAIN = 10


def relative_spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"]


def wins_most_pairs(lower: bool, base_runs, change_runs) -> bool:
    """At least ten runs a side, and B wins nine tenths of all (A, B) pairs."""
    if min(len(base_runs), len(change_runs)) < MIN_RUNS_FOR_GAIN:
        return False
    wins = sum(
        (b < a) if lower else (b > a) for a in base_runs for b in change_runs
    )
    return wins >= 0.9 * len(base_runs) * len(change_runs)


def verdict(metric: dict, base: dict, change: dict, base_runs, change_runs) -> str:
    lower = metric["better"] == "lower"
    gain = wins_most_pairs(lower, base_runs, change_runs)
    if max(relative_spread(base), relative_spread(change)) > metric["bound"]:
        every_run_better = (
            max(change_runs) < min(base_runs) if lower
            else min(change_runs) > max(base_runs)
        )
        return "better" if every_run_better else "unresolved"
    delta = (change["median"] - base["median"]) / base["median"]
    worse_by = delta if lower else -delta
    if worse_by > metric["bound"]:
        return "worse"
    if gain and -worse_by > relative_spread(base):
        return "better"
    return "within bound"


def compare(spec: dict, base: dict, change: dict) -> list[str]:
    lines = [
        f"A: {base['git_sha'][:12]} {base['timestamp']}   "
        f"B: {change['git_sha'][:12]} {change['timestamp']}",
        "",
        f"{'workload':19s} {'metric':12s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'B vs A':>8s}  verdict",
    ]
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in base["workloads"]]
    for name in workloads:
        entry, other = base["workloads"][name], change["workloads"].get(name)
        if other is None:
            lines.append(f"{name:19s} missing from B")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = entry["end_to_end"][key], other["end_to_end"][key]
            delta = (b["median"] - a["median"]) / a["median"]
            label = verdict(
                metric, a, b,
                [run[key] for run in entry["per_run"]],
                [run[key] for run in other["per_run"]],
            )
            lines.append(
                f"{name:19s} {key:12s} "
                f"{a['median']:10.4f} [{a['q1']:.4f}, {a['q3']:.4f}] "
                f"{b['median']:10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
                f"{delta:+8.1%}  {label} (bound {metric['bound']:.0%})"
            )
        failures = (entry["failed"], other["failed"])
        lines.append(f"{name:19s} failed ops: A {failures[0]}, B {failures[1]}")
    lines += ["", "per-layer (traced run; exact counts listed only when they change)"]
    for name in workloads:
        entry, other = base["workloads"][name], change["workloads"].get(name)
        if other is None:
            continue
        for metric in spec["per_layer"]:
            key = metric["name"]
            a, b = entry["per_layer"][key], other["per_layer"][key]
            exact = metric["unit"] in EXACT_UNITS
            if a == b and (exact or a == 0):
                continue
            flag = "  COUNT CHANGED" if exact else ""
            delta = f"{(b - a) / a:+8.1%}" if a else "     new"
            lines.append(
                f"{name:19s} {key:36s} {a:14.6g} {b:14.6g} {delta}{flag}"
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    base, change = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in argv
    )
    print("\n".join(compare(spec, base, change)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
