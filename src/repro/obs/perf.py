"""The run-history plane: RunReports persisted as comparable records.

A traced run produces one :class:`~repro.obs.report.RunReport`; this
module wraps it in a **run record** — the report plus the identity
facts needed to compare runs over time (when it ran, on what host,
against which git revision, invoked how) — and files it in the
:class:`~repro.artifacts.store.ArtifactStore` under a new ``runs/``
namespace (atomic writes, like the ``jobs/`` plane).

``repro age/sweep/serve`` record automatically whenever ``--store`` is
active, and every ``benchmarks/test_perf_*`` harness appends a one-line
summary to ``benchmarks/BENCH_history.jsonl`` through
:func:`history_line` — so both the analysis CLI and the bench suite
grow a trajectory instead of overwriting point snapshots.

Record schema (:data:`RUN_SCHEMA`)::

    {"schema_version": 1, "run_id": "<sortable id>",
     "recorded_at": "<UTC ISO-8601>", "command": "repro age c432 ...",
     "host": {"hostname": ..., "machine": ..., "system": ...,
              "python": ..., "cpus": ..., "id": "<12-hex digest>"},
     "git_rev": "<sha or null>",
     "report": {<RunReport document>}}

Run ids are time-sortable (``YYYYmmddTHHMMSSZ-<8 hex>``), so
``ArtifactStore.list_runs()`` returns chronological history and
``repro report history`` needs no extra index.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.report import RunReport, schema_errors

#: Version stamp of the run-record envelope.
RUN_SCHEMA = 1


def host_fingerprint() -> Dict[str, Any]:
    """Stable facts identifying the machine/environment of a run.

    The ``id`` field is a short digest of the other fields, so two
    records are comparable-by-host with one string equality.
    """
    info = {
        "hostname": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "cpus": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode("utf-8")).hexdigest()
    info["id"] = digest[:12]
    return info


_git_rev_cache: Dict[str, Optional[str]] = {}


def git_rev(cwd: Optional[str] = None) -> Optional[str]:
    """The current git HEAD sha, or ``None`` outside a repository.

    Best-effort and cached per directory: a missing ``git`` binary or
    a non-repo working directory must never fail a run record.
    """
    key = cwd or os.getcwd()
    if key not in _git_rev_cache:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=cwd,
                capture_output=True, text=True, timeout=10.0)
            _git_rev_cache[key] = (out.stdout.strip()
                                   if out.returncode == 0 else None)
        except (OSError, subprocess.SubprocessError):
            _git_rev_cache[key] = None
    return _git_rev_cache[key]


def new_run_id(now: Optional[float] = None) -> str:
    """A time-sortable unique run id (UTC stamp + 8 random hex)."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime(now))
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def make_run_record(report_doc: Dict[str, Any], *, command: str = "",
                    run_id: Optional[str] = None,
                    now: Optional[float] = None) -> Dict[str, Any]:
    """Wrap one RunReport document in the run-record envelope."""
    now = time.time() if now is None else now
    return {
        "schema_version": RUN_SCHEMA,
        "run_id": run_id or new_run_id(now),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime(now)),
        "command": command,
        "host": host_fingerprint(),
        "git_rev": git_rev(),
        "report": report_doc,
    }


def record_run(store: Any, report: Any, *, command: str = "",
               run_id: Optional[str] = None) -> str:
    """Persist one run into the store's history; returns the run id.

    ``report`` is a :class:`RunReport` or an already-built document.
    """
    doc = report.to_dict() if isinstance(report, RunReport) else dict(report)
    record = make_run_record(doc, command=command, run_id=run_id)
    store.save_run(record["run_id"], record)
    return record["run_id"]


def is_run_record(doc: Any) -> bool:
    """Whether ``doc`` is a run-record envelope (vs a bare report)."""
    return isinstance(doc, dict) and "run_id" in doc and "report" in doc


def unwrap_report(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The RunReport document inside ``doc`` (records unwrap, reports
    pass through)."""
    return doc["report"] if is_run_record(doc) else doc


def resolve_report(source: str, store: Any = None
                   ) -> Tuple[Dict[str, Any], str]:
    """Load a RunReport from a file path, ``-`` (stdin), or a run id.

    Run ids resolve against ``store`` (exact id first, then a unique
    prefix of the stored history).  Returns ``(report_doc, label)``;
    raises ``ValueError`` with a human message when the source cannot
    be resolved or the document is not a schema-valid report.
    """
    doc: Optional[Dict[str, Any]] = None
    label = source
    if source == "-":
        doc = json.load(sys.stdin)
        label = "<stdin>"
    elif os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif store is not None:
        run_ids = store.list_runs()
        matches = ([source] if source in run_ids else
                   [run_id for run_id in run_ids if run_id.startswith(source)])
        if len(matches) > 1:
            raise ValueError(
                f"run id prefix {source!r} is ambiguous: "
                + ", ".join(matches))
        if not matches:
            raise ValueError(f"no stored run matches {source!r}")
        label = matches[0]
        doc = store.load_run(label)
        if doc is None:
            raise ValueError(f"stored run {label} is damaged: its record "
                             f"is not a readable JSON object")
    else:
        raise ValueError(
            f"{source!r} is not a file (pass --store to resolve run ids)")
    report = unwrap_report(doc)
    errors = schema_errors(report)
    if errors:
        raise ValueError(f"{label}: not a valid RunReport ("
                         + "; ".join(errors[:3]) + ")")
    return report, label


def run_wall_seconds(report_doc: Dict[str, Any]) -> float:
    """Total wall time of a report's root spans (closed spans only)."""
    return sum(float(span.get("duration") or 0.0)
               for span in report_doc.get("spans", [])
               if isinstance(span, dict))


def summarize_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """One history row: the comparison-relevant facts of a record."""
    report = unwrap_report(record)
    git = record.get("git_rev")
    return {
        "run_id": record.get("run_id", "?"),
        "recorded_at": record.get("recorded_at", "?"),
        "command": record.get("command", ""),
        "label": report.get("label", ""),
        "host": (record.get("host") or {}).get("id", "?"),
        "git_rev": git[:12] if isinstance(git, str) else None,
        "wall_seconds": run_wall_seconds(report),
        "spans": len(report.get("spans", [])),
        "metrics": len(report.get("metrics", {})),
    }


def load_history(store: Any) -> List[Dict[str, Any]]:
    """Every readable stored run record, oldest first (ids are
    time-sortable); a damaged record is skipped, counted as
    ``store.run_corrupt``."""
    out = []
    for run_id in store.list_runs():
        record = store.load_run(run_id)
        if record is not None:
            out.append(record)
    return out


def history_line(suite: str, *, wall_seconds: float,
                 speedup: Optional[float] = None, smoke: bool = False,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One BENCH_history.jsonl entry for a benchmark suite run."""
    line = {
        "schema_version": RUN_SCHEMA,
        "suite": suite,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_seconds": wall_seconds,
        "speedup": speedup,
        "smoke": smoke,
        "host": host_fingerprint()["id"],
        "git_rev": git_rev(),
    }
    if extra:
        line.update(extra)
    return line
