"""Durable job queue over the content-addressed artifact store.

A :class:`JobQueue` owns the in-memory scheduling state (a FIFO of
eligible job ids plus an index of active jobs by ``(circuit_fp,
scenario_key)``) and mirrors **every** transition to disk as one
atomic JSON record per job (``<store>/jobs/<job_id>.json``).  The
on-disk records are the source of truth: a server that crashes or is
killed mid-run loses nothing but in-flight wall time — on restart
:meth:`JobQueue.recover` reloads every record, requeues orphaned
``running`` claims (attempts preserved), re-admits ``queued`` jobs,
and leaves terminal jobs untouched, so completed results are never
recomputed or duplicated.

Consistency contract (pinned by ``tests/test_properties_serve.py``):

* :meth:`complete` refuses to mark a job ``done`` unless the result
  payload is already readable from the store's result cache — a
  ``done`` job without a result body is structurally impossible.
* Transitions are only legal along ``queued -> running -> done |
  failed | queued(retry)``; anything else raises instead of
  corrupting the record.
* All mutating methods hold one re-entrant lock, so the HTTP handler
  threads and the scheduler thread observe serialized states.

Every transition is counted and spanned through the injected observer
(the service's :class:`~repro.serve.server.ServiceObs`), which is how
queue traffic lands in the ``/metrics`` RunReport.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.protocol import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    structured_error,
)


class _NullObserver:
    """Do-nothing observer for queue use outside a service."""

    def count(self, name: str, amount: int = 1, label: str = "") -> None:
        pass

    def span(self, name: str, **attributes: Any):
        from contextlib import nullcontext

        return nullcontext()


NULL_OBSERVER = _NullObserver()


class JobQueue:
    """Restart-safe FIFO of :class:`~repro.serve.protocol.JobRecord`.

    Args:
        store: an :class:`~repro.artifacts.store.ArtifactStore`; job
            records persist under its ``jobs/`` subtree.
        observer: optional span/counter sink (the service's obs hub).
    """

    def __init__(self, store: Any, observer: Any = None) -> None:
        self.store = store
        self.obs = observer or NULL_OBSERVER
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobRecord] = {}
        self._pending: deque = deque()
        #: (circuit_fp, scenario_key) -> job_id of the queued/running job.
        self._active: Dict[Tuple[str, str], str] = {}

    # -- persistence ---------------------------------------------------------

    def _persist(self, record: JobRecord) -> None:
        self.store.save_job(record.job_id, record.to_dict())

    # -- recovery ------------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Reload every persisted record; requeue orphaned claims.

        ``running`` records belong to a dead server (this queue has no
        live claims yet), so they return to ``queued`` with their
        attempt count intact and a note in ``last_error``; ``queued``
        records re-enter the FIFO in creation order; terminal records
        load as-is.  Returns per-outcome counts.
        """
        counts = {"queued": 0, "recovered": 0, "terminal": 0, "invalid": 0}
        with self._lock, self.obs.span("serve.queue.recover"):
            loaded: List[JobRecord] = []
            for job_id in self.store.list_jobs():
                try:
                    payload = self.store.load_job(job_id)
                    record = JobRecord.from_dict(payload or {})
                except (ValueError, KeyError, TypeError):
                    counts["invalid"] += 1
                    continue
                loaded.append(record)
            for record in sorted(loaded, key=lambda r: (r.created_at,
                                                        r.job_id)):
                if record.state == RUNNING:
                    record = record.touch()
                    record.state = QUEUED
                    record.pid = None
                    record.last_error = structured_error(
                        "orphaned",
                        "claim held by a dead server; requeued on "
                        "recovery", attempts=record.attempts)
                    self._persist(record)
                    counts["recovered"] += 1
                    self.obs.count("serve.jobs_recovered")
                elif record.state == QUEUED:
                    counts["queued"] += 1
                else:
                    counts["terminal"] += 1
                self._jobs[record.job_id] = record
                if record.state == QUEUED:
                    self._pending.append(record.job_id)
                    self._active[(record.circuit_fp,
                                  record.scenario_key)] = record.job_id
        return counts

    # -- submission ----------------------------------------------------------

    def submit(self, record: JobRecord) -> JobRecord:
        """Admit a new job (persist, then enqueue).

        Raises ``ValueError`` when a job with the same id exists or the
        record is not in the ``queued`` state.
        """
        with self._lock, self.obs.span("serve.queue.submit",
                                       job=record.job_id):
            if record.job_id in self._jobs:
                raise ValueError(f"job {record.job_id!r} already exists")
            if record.state != QUEUED:
                raise ValueError(
                    f"can only submit queued jobs, got {record.state!r}")
            record = record.touch()
            self._persist(record)
            self._jobs[record.job_id] = record
            self._pending.append(record.job_id)
            self._active[(record.circuit_fp,
                          record.scenario_key)] = record.job_id
            self.obs.count("serve.jobs_submitted")
        return record

    def admit_terminal(self, record: JobRecord) -> JobRecord:
        """Persist an already-terminal record (the cache-answer path).

        A warm ``(circuit, scenario)`` submission never touches the
        FIFO: the server materializes a ``done`` record pointing at
        the cached result and files it here for ``status``/``result``
        lookups.
        """
        with self._lock, self.obs.span("serve.queue.cache_answer",
                                       job=record.job_id):
            if not record.terminal:
                raise ValueError("admit_terminal needs a terminal record")
            record = record.touch()
            self._persist(record)
            self._jobs[record.job_id] = record
        return record

    def active_job_for(self, circuit_fp: str, scenario_key: str
                       ) -> Optional[JobRecord]:
        """The queued/running job answering this query, if any.

        Lets the server coalesce duplicate submissions onto one job
        instead of computing the same result twice.
        """
        with self._lock:
            job_id = self._active.get((circuit_fp, scenario_key))
            return self._jobs.get(job_id) if job_id else None

    # -- scheduling ----------------------------------------------------------

    def claim(self, now: Optional[float] = None) -> Optional[JobRecord]:
        """Pop the oldest eligible queued job and mark it running.

        Jobs whose retry backoff (``not_before``) has not elapsed are
        skipped (left in FIFO order).  Returns ``None`` when nothing
        is eligible.
        """
        now = time.time() if now is None else now
        with self._lock:
            eligible = None
            for job_id in self._pending:
                record = self._jobs[job_id]
                if record.not_before <= now:
                    eligible = job_id
                    break
            if eligible is None:
                return None
            self._pending.remove(eligible)
            record = self._jobs[eligible].touch()
            record.state = RUNNING
            record.attempts += 1
            record.pid = None
            with self.obs.span("serve.queue.claim", job=record.job_id,
                               attempt=record.attempts):
                self._persist(record)
            self._jobs[eligible] = record
            self.obs.count("serve.jobs_started")
            return record

    def mark_pid(self, job_id: str, pid: int) -> JobRecord:
        """Record the worker process id of a running claim."""
        with self._lock:
            record = self._require(job_id, RUNNING)
            record = record.touch()
            record.pid = pid
            self._persist(record)
            self._jobs[job_id] = record
            return record

    # -- transitions ---------------------------------------------------------

    def _require(self, job_id: str, *states: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        if states and record.state not in states:
            raise ValueError(
                f"job {job_id!r} is {record.state!r}, expected "
                f"{'/'.join(states)}")
        return record

    def complete(self, job_id: str) -> JobRecord:
        """running -> done.  The result must already be in the store.

        Refusing to transition without a readable result payload is
        what makes "done without a result" unobservable under any
        interleaving of submit/status/result.
        """
        with self._lock:
            record = self._require(job_id, RUNNING)
            if not self.store.has_result(record.circuit_fp,
                                         record.scenario_key):
                raise ValueError(
                    f"job {job_id!r} has no stored result; refusing to "
                    "mark it done")
            record = record.touch()
            record.state = DONE
            record.pid = None
            record.error = None
            with self.obs.span("serve.queue.complete", job=record.job_id,
                               attempts=record.attempts):
                self._persist(record)
            self._jobs[job_id] = record
            self._active.pop((record.circuit_fp, record.scenario_key),
                             None)
            self.obs.count("serve.jobs_done")
            return record

    def fail(self, job_id: str, error: Dict[str, Any]) -> JobRecord:
        """running -> failed (terminal, structured error attached)."""
        with self._lock:
            record = self._require(job_id, RUNNING)
            record = record.touch()
            record.state = FAILED
            record.pid = None
            record.error = dict(error, attempts=record.attempts)
            record.last_error = record.error
            with self.obs.span("serve.queue.fail", job=record.job_id,
                               attempts=record.attempts):
                self._persist(record)
            self._jobs[job_id] = record
            self._active.pop((record.circuit_fp, record.scenario_key),
                             None)
            self.obs.count("serve.jobs_failed")
            return record

    def requeue(self, job_id: str, error: Dict[str, Any], *,
                backoff_s: float = 0.0) -> JobRecord:
        """running -> queued (bounded retry, exponential backoff).

        The failed attempt's error is kept in ``last_error``;
        ``not_before`` delays the next claim by ``backoff_s *
        2**(attempts - 1)``.
        """
        with self._lock:
            record = self._require(job_id, RUNNING)
            record = record.touch()
            record.state = QUEUED
            record.pid = None
            record.last_error = dict(error, attempts=record.attempts)
            record.not_before = (time.time()
                                 + backoff_s * 2 ** max(0,
                                                        record.attempts - 1))
            with self.obs.span("serve.queue.requeue", job=record.job_id,
                               attempts=record.attempts):
                self._persist(record)
            self._jobs[job_id] = record
            self._pending.append(job_id)
            self.obs.count("serve.jobs_retried")
            return record

    def finish_attempt(self, job_id: str, error: Dict[str, Any], *,
                       backoff_s: float = 0.0) -> JobRecord:
        """Route a failed attempt: retry while budget remains, else fail."""
        with self._lock:
            record = self._require(job_id, RUNNING)
            if record.attempts > record.max_retries:
                return self.fail(job_id, error)
            return self.requeue(job_id, error, backoff_s=backoff_s)

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The live record of one job, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """Every known record, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda r: (r.created_at, r.job_id))

    def counts(self) -> Dict[str, int]:
        """``{state: jobs in that state}`` over every known job."""
        with self._lock:
            out = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for record in self._jobs.values():
                out[record.state] += 1
            return out

    def pending(self) -> int:
        """Jobs waiting in the FIFO (eligible or backing off)."""
        with self._lock:
            return len(self._pending)

    def next_not_before(self) -> Optional[float]:
        """The earliest ``not_before`` in the FIFO (``None`` if empty):
        when the next backed-off job becomes claimable."""
        with self._lock:
            return min((self._jobs[job_id].not_before
                        for job_id in self._pending), default=None)

    def retry_backlog(self) -> int:
        """Queued jobs that already burned at least one attempt."""
        with self._lock:
            return sum(1 for job_id in self._pending
                       if self._jobs[job_id].attempts > 0)

    def __repr__(self) -> str:
        counts = self.counts()
        return (f"JobQueue(jobs={len(self._jobs)}, "
                f"pending={counts[QUEUED]}, running={counts[RUNNING]})")
