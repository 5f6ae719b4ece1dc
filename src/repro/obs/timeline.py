"""Trace timeline export: spans as Chrome ``trace_event`` JSON.

Converts either trace format the stack emits — the flat JSONL of
``--trace FILE`` (one span per line with ``path``/``depth``) or the
nested span trees inside a RunReport / run record — into the Chrome
trace-event format that Perfetto and ``chrome://tracing`` load
(``{"traceEvents": [...]}`` with complete ``"ph": "X"`` events,
microsecond timestamps).

Lane assignment puts cross-process spans on their own tracks: the
parent process renders as pid 1 ("main"); a span carrying a ``pid``
attribute (stamped on the root span of each reply adopted from a
worker process, sweep row or served job) claims that OS pid's lane,
and its children inherit it.  Spans with only a ``worker`` index (older
payloads) get synthetic per-worker lanes.  Each lane opens with a
``process_name`` metadata event, so the Perfetto track names read
``main`` / ``worker 3 (pid 12345)``.

Span starts are relative to each tracer's own epoch, so cross-lane
alignment is per-lane-consistent rather than globally synchronized —
compare durations across lanes, orderings within one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

#: The synthetic pid of the parent (non-worker) lane.
MAIN_PID = 1

#: Synthetic lane base for spans that carry only a worker index.
WORKER_PID_BASE = 100_000


def _span_lane(attributes: Dict[str, Any],
               inherited: Tuple[int, str]) -> Tuple[int, str]:
    """The (pid, label) lane of one span given its parent's lane."""
    pid = attributes.get("pid")
    worker = attributes.get("worker")
    if isinstance(pid, int) and not isinstance(pid, bool):
        if isinstance(worker, int) and not isinstance(worker, bool):
            return pid, f"worker {worker} (pid {pid})"
        return pid, f"pid {pid}"
    if isinstance(worker, int) and not isinstance(worker, bool):
        return WORKER_PID_BASE + worker, f"worker {worker}"
    return inherited


def _event(name: str, start: float, duration: Optional[float],
           attributes: Dict[str, Any], pid: int) -> Dict[str, Any]:
    return {
        "name": name,
        "ph": "X",
        "ts": float(start) * 1e6,
        "dur": float(duration or 0.0) * 1e6,
        "pid": pid,
        "tid": 1,
        "args": {str(k): v for k, v in attributes.items()},
    }


def _metadata_events(lanes: Dict[int, str]) -> List[Dict[str, Any]]:
    out = []
    for pid in sorted(lanes):
        out.append({"name": "process_name", "ph": "M", "pid": pid,
                    "tid": 1, "args": {"name": lanes[pid]}})
    return out


def events_from_span_dicts(spans: List[Dict[str, Any]]
                           ) -> Tuple[List[Dict[str, Any]],
                                      Dict[int, str]]:
    """Trace events + lane names from nested span dicts (RunReport)."""
    events: List[Dict[str, Any]] = []
    lanes: Dict[int, str] = {MAIN_PID: "main"}

    def walk(span: Dict[str, Any], inherited: Tuple[int, str]) -> None:
        attributes = span.get("attributes") or {}
        lane = _span_lane(attributes, inherited)
        lanes[lane[0]] = lane[1]
        events.append(_event(str(span.get("name", "")),
                             float(span.get("start") or 0.0),
                             span.get("duration"), attributes, lane[0]))
        for child in span.get("children", []):
            if isinstance(child, dict):
                walk(child, lane)

    for span in spans:
        if isinstance(span, dict):
            walk(span, (MAIN_PID, "main"))
    return events, lanes


def events_from_jsonl(text: str) -> Tuple[List[Dict[str, Any]],
                                          Dict[int, str]]:
    """Trace events + lane names from the flat ``--trace`` JSONL.

    Lane inheritance uses the ``depth`` field: lines are depth-first,
    so a stack of (depth, lane) reconstructs each span's ancestry.
    """
    events: List[Dict[str, Any]] = []
    lanes: Dict[int, str] = {MAIN_PID: "main"}
    stack: List[Tuple[int, Tuple[int, str]]] = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        line = json.loads(raw)
        depth = int(line.get("depth", 0))
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inherited = stack[-1][1] if stack else (MAIN_PID, "main")
        attributes = line.get("attributes") or {}
        lane = _span_lane(attributes, inherited)
        lanes[lane[0]] = lane[1]
        events.append(_event(str(line.get("name", "")),
                             float(line.get("start") or 0.0),
                             line.get("duration"), attributes, lane[0]))
        stack.append((depth, lane))
    return events, lanes


def chrome_trace(events: List[Dict[str, Any]],
                 lanes: Dict[int, str]) -> Dict[str, Any]:
    """The loadable document: metadata events first, then spans."""
    return {"traceEvents": _metadata_events(lanes) + events,
            "displayTimeUnit": "ms"}


def convert(source_text: str) -> Dict[str, Any]:
    """Sniff ``source_text`` (RunReport / run record / JSONL) and
    convert it to one Chrome trace document."""
    try:
        doc = json.loads(source_text)
    except json.JSONDecodeError:
        doc = None  # multiple lines: the JSONL trace format
    if isinstance(doc, dict):
        report = doc.get("report") if "report" in doc else doc
        if isinstance(report, dict) and isinstance(report.get("spans"),
                                                   list):
            return chrome_trace(*events_from_span_dicts(report["spans"]))
        if "path" not in doc:
            raise ValueError(
                "JSON input has no 'spans' (not a RunReport, run "
                "record, or span trace)")
    return chrome_trace(*events_from_jsonl(source_text))


def convert_file(path: str) -> Dict[str, Any]:
    """:func:`convert` on the contents of ``path`` (``-`` = stdin)."""
    import sys

    if path == "-":
        return convert(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return convert(fh.read())
