"""Wall-time telemetry: per-run JSONL sidecar, strictly off the report path.

The runner (and the CLI around it) records *operational* facts here — task
spans with attempt counts, retry/timeout/cache-hit/dedup events, stage
wall-clocks, the final metrics snapshot — and writes them to one JSONL
sidecar per run (``<runs-dir>/<run-id>/telemetry.jsonl`` when journaling,
or wherever ``--trace`` points).  Everything in this file is wall-domain
and therefore nondeterministic; the invariant the test suite and CI enforce
is that *enabling* it changes no report byte.

Sidecar schema (``repro-telemetry/1``), one JSON object per line:

* ``{"type": "header", "schema": "repro-telemetry/1", "run_id": ...}`` —
  always the first record;
* ``{"type": "span", "name": ..., "start": epoch-seconds, "duration": s,
  ...}`` — one timed region (task execution, runner stage);
* ``{"type": "event", "name": ..., "at": epoch-seconds, ...}`` — one
  point occurrence (retry, timeout, cache hit, campaign dedup);
* ``{"type": "summary", "domain": "sim"|"wall", ...}`` — terminal
  aggregates: the deterministic sim-tracer slice (when a tracer ran) and
  the wall-domain metrics/stage/campaign snapshot (always, last line).

:func:`read_sidecar` / :func:`validate_sidecar` are the consuming half —
``repro stats``, ``repro cache stats`` and the CI schema check all go
through them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SCHEMA",
    "Telemetry",
    "read_sidecar",
    "sidecar_summary",
    "timings_lines",
    "validate_sidecar",
]

SCHEMA = "repro-telemetry/1"


class Telemetry:
    """Accumulates one run's wall-domain records; writes the sidecar.

    The attached :class:`MetricsRegistry` is the program's only one: the
    runner writes its ``runner.*`` task counts and the ``artifacts.*``
    store deltas its executions report.  Simulation components keep their
    counters as plain attributes, which no sidecar record carries.
    """

    def __init__(self, run_id: Optional[str] = None) -> None:
        self.run_id = run_id
        self.metrics = MetricsRegistry()
        self.records: list[dict] = []
        self._summary: Optional[dict] = None
        self.created = time.time()

    # -- recording ------------------------------------------------------------
    def event(self, name: str, **fields: Any) -> None:
        self.records.append(
            {"type": "event", "name": name, "at": time.time(), **fields}
        )

    def add_span(
        self, name: str, start: float, duration: float, **fields: Any
    ) -> None:
        self.records.append(
            {
                "type": "span",
                "name": name,
                "start": start,
                "duration": duration,
                **fields,
            }
        )

    def add_task_sim_summary(self, key: str, summary: dict) -> None:
        """Attach one task's deterministic sim slice (shipped from a worker).

        Keyed by the task key so sidecars from different ``--jobs`` values
        can be diffed record-for-record: the sim domain is a pure function
        of the task, never of where or when it ran.
        """
        self.records.append({"type": "summary", "task": key, **summary})

    def finish(self, runner=None) -> dict:
        """Build (or rebuild) the terminal wall-domain summary record."""
        summary: dict = {
            "type": "summary",
            "domain": "wall",
            "metrics": self.metrics.as_dict(),
        }
        if runner is not None:
            summary["stage_seconds"] = dict(runner.stage_seconds)
            summary["campaign_stats"] = dict(runner.campaign_stats)
            summary["counters"] = {
                "retries": runner.retries,
                "pool_deaths": runner.pool_deaths,
                "degraded": len(runner.degraded_tasks),
                "resume_skipped": runner.resume_skipped,
                "failures": len(runner.failures),
                "campaign_failures": len(runner.campaign_failures),
            }
            stats = runner.cache_stats
            if stats is not None:
                summary["cache"] = {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "writes": stats.writes,
                    "quarantined": stats.quarantined,
                }
        self._summary = summary
        return summary

    # -- output ---------------------------------------------------------------
    def header(self) -> dict:
        return {
            "type": "header",
            "schema": SCHEMA,
            "run_id": self.run_id,
            "created": self.created,
        }

    def all_records(self) -> list[dict]:
        records = [self.header(), *self.records]
        records.append(self._summary if self._summary is not None else self.finish())
        return records

    def write_jsonl(self, path: Path | str) -> Path:
        """Write the sidecar; parent directories are created as needed."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.all_records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path


# -- consuming side -------------------------------------------------------------

def read_sidecar(path: Path | str) -> list[dict]:
    """Load and validate one telemetry sidecar; raises ``ValueError``."""
    path = Path(path)
    records = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
    validate_sidecar(records)
    return records


def validate_sidecar(records: list[dict]) -> None:
    """Schema check for ``repro-telemetry/1`` (raises ``ValueError``)."""
    if not records:
        raise ValueError("empty telemetry sidecar")
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != SCHEMA:
        raise ValueError(
            f"first record must be a {SCHEMA} header, got {header!r}"
        )
    wall_summaries = 0
    for index, record in enumerate(records[1:], start=2):
        kind = record.get("type")
        if kind == "span":
            if not isinstance(record.get("name"), str):
                raise ValueError(f"record {index}: span without a name")
            for field in ("start", "duration"):
                if not isinstance(record.get(field), (int, float)):
                    raise ValueError(
                        f"record {index}: span {record.get('name')!r} has "
                        f"non-numeric {field!r}"
                    )
            if record["duration"] < 0:
                raise ValueError(
                    f"record {index}: span {record['name']!r} has negative "
                    "duration"
                )
        elif kind == "event":
            if not isinstance(record.get("name"), str):
                raise ValueError(f"record {index}: event without a name")
            if not isinstance(record.get("at"), (int, float)):
                raise ValueError(
                    f"record {index}: event {record['name']!r} has "
                    "non-numeric 'at'"
                )
        elif kind == "summary":
            if record.get("domain") not in ("sim", "wall"):
                raise ValueError(
                    f"record {index}: summary with unknown domain "
                    f"{record.get('domain')!r}"
                )
            if record["domain"] == "wall" and "metrics" in record:
                wall_summaries += 1
        elif kind == "header":
            raise ValueError(f"record {index}: duplicate header")
        else:
            raise ValueError(f"record {index}: unknown record type {kind!r}")
    if wall_summaries != 1:
        raise ValueError(
            f"expected exactly one terminal wall summary, found {wall_summaries}"
        )


def sidecar_summary(records: list[dict]) -> dict:
    """The terminal wall-domain summary record of a validated sidecar."""
    for record in reversed(records):
        if (
            record.get("type") == "summary"
            and record.get("domain") == "wall"
            and "metrics" in record
        ):
            return record
    raise ValueError("sidecar has no terminal wall summary")


def timings_lines(summary: dict) -> list[str]:
    """Render the ``--timings`` stderr view from a wall summary record.

    Same human-readable shape as the pre-telemetry ad-hoc printer: one
    ``[timings: ...]`` line of per-stage wall-clock, one ``[campaigns: ...]``
    line of dedup counters.
    """
    stage_seconds = summary.get("stage_seconds", {})
    stages = ", ".join(
        f"{stage}: {seconds:.2f}s" for stage, seconds in stage_seconds.items()
    ) or "none"
    stats = summary.get("campaign_stats", {})
    return [
        f"[timings: {stages}]",
        (
            f"[campaigns: {stats.get('distinct', 0)} distinct, "
            f"{stats.get('simulated', 0)} simulated, "
            f"{stats.get('reused', 0)} reused, "
            f"{stats.get('fallbacks', 0)} fallback simulations, "
            f"{stats.get('loads', 0)} artifact loads "
            f"({stats.get('load_seconds', 0.0):.2f}s)]"
        ),
    ]
