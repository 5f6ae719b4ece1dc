"""Helpers shared by the experiment benchmarks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.flow.report import format_table
from repro.obs.perf import history_line

#: Append-only trajectory of benchmark results (one JSON line per
#: suite run), next to the per-suite BENCH_*.json point snapshots.
HISTORY = Path(__file__).with_name("BENCH_history.jsonl")
REPO = Path(__file__).resolve().parents[1]


def golden_match(name: str, key: str, result) -> bool:
    """Whether ``result`` equals entry ``key`` of ``tests/golden/<name>.json``.

    Flows have one code path, so a harness row timing a flow checks its
    result against the golden fixture of the same flow and arguments,
    serialized exactly as ``tests/test_golden_outputs.py`` does.
    """
    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))
    from tests.test_golden_outputs import as_json, load_golden

    return as_json(result) == load_golden(name)[key]


def emit(title: str, headers, rows) -> None:
    """Print one paper-style table (visible with ``pytest -s``)."""
    print()
    print(format_table(headers, rows, title=title))
    sys.stdout.flush()


def record_history(suite: str, *, wall_seconds: float,
                   speedup=None, smoke: bool = False,
                   extra=None) -> None:
    """Append one summary line for this suite run to BENCH_history.jsonl.

    Each line carries the headline wall time/speedup plus the host
    fingerprint and git revision, so regressions are attributable to a
    machine or a commit rather than guessed at from overwritten
    snapshots.
    """
    line = history_line(suite, wall_seconds=wall_seconds,
                        speedup=speedup, smoke=smoke, extra=extra)
    with HISTORY.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"history += {suite} (wall {wall_seconds:.3f}s)")
