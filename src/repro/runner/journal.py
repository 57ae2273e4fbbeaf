"""Persistent run journal: crash-safe progress records for sweeps.

Every ``run-all`` writes ``<runs-dir>/<run-id>/journal.jsonl`` — one JSON
object per line, appended with flush+fsync so a SIGKILL mid-sweep loses at
most the line being written.  A later ``run-all --resume <run-id>`` loads
the journal, skips tasks it records as completed (their values come from
the result cache) and re-runs only pending or failed ones.

Event vocabulary (the ``event`` field):

* ``run-started``    — run id, argv, requested experiments
* ``task-started``   — task key, experiment/index/seed, attempt number
* ``task-completed`` — task key, attempts used, whether it was served from
  cache / skipped by resume / degraded to in-process execution
* ``task-failed``    — task key plus the structured failure kind/message
* ``run-completed``  — terminal summary counters

A torn final line (the crash signature) is tolerated on load and simply
ignored.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from pathlib import Path
from typing import Any, Optional

__all__ = ["RunJournal", "task_key", "default_runs_dir", "new_run_id"]

RUNS_DIR_ENV = "REPRO_RUNS_DIR"
JOURNAL_NAME = "journal.jsonl"


def default_runs_dir() -> Path:
    env = os.environ.get(RUNS_DIR_ENV)
    return Path(env) if env else Path("runs")


def new_run_id() -> str:
    """Sortable-by-start-time id with a collision-proof suffix."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + secrets.token_hex(3)


def task_key(experiment_id: str, params: dict, seed: int) -> str:
    """Stable identity of one task within a run: its result key, shortened.

    The result key carries no code version (the store's directory does), so
    a resume after an editor save still *recognizes* the task (and then
    recomputes it because the new version directory misses).
    """
    from repro.runner.cache import ResultCache

    return ResultCache.key(experiment_id, params, seed)[:16]


class RunJournal:
    """Append-only journal for one run id (see module docstring)."""

    def __init__(self, path: Path, run_id: str) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self._handle = None

    # -- construction --------------------------------------------------------
    @classmethod
    def create(cls, runs_dir: Path, run_id: Optional[str] = None) -> "RunJournal":
        run_id = run_id or new_run_id()
        path = Path(runs_dir) / run_id / JOURNAL_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        return cls(path, run_id)

    @classmethod
    def resume(cls, runs_dir: Path, run_id: str) -> "RunJournal":
        path = Path(runs_dir) / run_id / JOURNAL_NAME
        if not path.is_file():
            raise FileNotFoundError(
                f"no journal for run {run_id!r} under {runs_dir} "
                f"(expected {path})"
            )
        return cls(path, run_id)

    # -- writing -------------------------------------------------------------
    def record(self, event: str, **fields: Any) -> None:
        """Append one event line; flushed and fsynced before returning."""
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        line = json.dumps(
            {"event": event, "time": time.time(), **fields},
            sort_keys=True,
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -------------------------------------------------------------
    def events(self) -> list[dict]:
        """All parseable events; a torn final line is silently dropped."""
        if not self.path.is_file():
            return []
        parsed = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    parsed.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn append (crash mid-write)
        return parsed

    def completed_keys(self) -> frozenset[str]:
        """Task keys recorded as completed (the resume skip-set)."""
        return frozenset(
            event["key"]
            for event in self.events()
            if event.get("event") == "task-completed" and "key" in event
        )

    def failed_keys(self) -> frozenset[str]:
        """Task keys whose *latest* outcome is a failure."""
        latest: dict[str, str] = {}
        for event in self.events():
            if event.get("event") in ("task-completed", "task-failed"):
                key = event.get("key")
                if key:
                    latest[key] = event["event"]
        return frozenset(k for k, v in latest.items() if v == "task-failed")
