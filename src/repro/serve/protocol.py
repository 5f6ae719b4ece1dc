"""Wire and storage protocol of the analysis service.

Everything the service persists or ships over HTTP is defined here as
plain JSON-able data:

* :class:`AgeScenario` — one aged-timing query (RAS split, active and
  standby temperatures, lifetime horizon, bounding standby state).
  ``repro age`` and ``repro serve`` both key its result by
  :meth:`~AgeScenario.key` and compute it with
  :meth:`~AgeScenario.compute`, so the service's result cache and the
  CLI's are one cache: a result computed by either is a warm hit for
  the other, byte for byte (JSON round-trips floats exactly).
* :class:`JobRecord` — the durable job state machine (``queued ->
  running -> done | failed``) persisted as one atomic JSON file per
  job in the :class:`~repro.artifacts.store.ArtifactStore`.  A record
  on disk is always a complete, consistent snapshot: transitions
  rewrite the whole file via the store's atomic-replace write path.
* :func:`structured_error` — the error envelope attached to failed
  attempts (worker crashes, timeouts, analysis exceptions), so a
  failed job explains itself instead of hanging the queue.

State machine invariants (enforced by
:class:`~repro.serve.queue.JobQueue` and pinned by the property and
fault-injection suites):

* ``done`` is only ever written after the result payload is in the
  store's result cache — a ``done`` job always has a readable result.
* ``running`` is a *claim*, not a completion: a crashed or restarted
  server finds ``running`` records and requeues them (attempts
  preserved), never duplicating a ``done`` result.
* ``failed`` is terminal and carries a structured error with the
  attempt count that exhausted the retry budget.
"""

from __future__ import annotations

import math
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.constants import years

#: Job-record JSON layout version (checked on load; stale-schema
#: records are surfaced as failed loads, never misread).
JOB_SCHEMA = 1

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Every valid state, for validation.
STATES = (QUEUED, RUNNING, DONE, FAILED)

#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED)


def new_job_id() -> str:
    """A fresh, collision-resistant job identifier."""
    return uuid.uuid4().hex[:16]


def structured_error(kind: str, message: str, **details: Any
                     ) -> Dict[str, Any]:
    """The error envelope of one failed attempt.

    ``kind`` is machine-matchable (``worker-crashed``, ``timeout``,
    ``analysis-error``, ``drained``); ``message`` is for humans;
    ``details`` carry whatever is known (exit code, signal number,
    exception type).
    """
    payload: Dict[str, Any] = {"type": kind, "message": message}
    payload.update(details)
    return payload


@dataclass(frozen=True)
class AgeScenario:
    """One aged-timing query: the ``repro age`` parameter set.

    The defaults equal the CLI defaults, so a bare ``submit`` asks the
    same question as a bare ``repro age CIRCUIT``.  Construction builds
    the operating profile, so an unanswerable scenario (bad RAS,
    non-finite or non-positive temperature, non-finite or negative
    lifetime, unknown standby case) raises ``ValueError`` before any
    job exists.
    """

    #: The query kind a worker names its span after.
    kind = "age"

    ras: str = "1:9"
    t_active: float = 400.0
    t_standby: float = 330.0
    years: float = 10.0
    standby: str = "worst"
    _profile: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        from repro.core.profiles import OperatingProfile

        if self.standby not in ("worst", "best"):
            raise ValueError(
                f"standby must be 'worst' or 'best', got {self.standby!r}")
        if not math.isfinite(self.years) or self.years < 0:
            raise ValueError(f"years must be a finite number >= 0, "
                             f"got {self.years!r}")
        object.__setattr__(self, "_profile", OperatingProfile.from_ras(
            self.ras, t_active=self.t_active, t_standby=self.t_standby))

    def payload(self) -> Dict[str, Any]:
        """The canonical scenario-key payload, which ``repro age
        --store`` and the service both hash.  Do not reorder semantics
        here without bumping the fingerprint schema."""
        return {"command": "age", "ras": self.ras,
                "t_active": self.t_active, "t_standby": self.t_standby,
                "years": self.years, "standby": self.standby}

    def key(self) -> str:
        """The content-hash result-cache key of this scenario."""
        from repro.artifacts.fingerprint import scenario_key

        return scenario_key(self.payload())

    def compute(self, context: Any) -> Dict[str, float]:
        """The four ``repro age`` numbers of this scenario on
        ``context``, on the summary path (both STA passes stay on
        ndarrays): the record :func:`~repro.sta.decode_age_numbers`
        checks."""
        from repro.sta import ALL_ONE, ALL_ZERO

        standby = {"worst": ALL_ZERO, "best": ALL_ONE}[self.standby]
        return context.aged_delays(self.profile(), self.lifetime_seconds(),
                                   standby=standby).numbers()

    def profile(self):
        """The :class:`~repro.core.profiles.OperatingProfile`."""
        return self._profile

    def lifetime_seconds(self) -> float:
        """The lifetime horizon in seconds."""
        return years(self.years)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the job-record / HTTP representation)."""
        return {"ras": self.ras, "t_active": self.t_active,
                "t_standby": self.t_standby, "years": self.years,
                "standby": self.standby}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AgeScenario":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        known = {"ras", "t_active", "t_standby", "years", "standby"}
        extra = sorted(set(data) - known)
        if extra:
            raise ValueError(f"unknown scenario field(s): {extra}")
        out = cls(
            ras=str(data.get("ras", "1:9")),
            t_active=float(data.get("t_active", 400.0)),
            t_standby=float(data.get("t_standby", 330.0)),
            years=float(data.get("years", 10.0)),
            standby=str(data.get("standby", "worst")),
        )
        return out


@dataclass
class JobRecord:
    """The durable state of one submitted analysis job.

    Persisted whole on every transition (atomic tmp + replace through
    the artifact store), so any on-disk record is a consistent
    snapshot a restarted server can resume from.
    """

    job_id: str
    circuit: str
    circuit_name: str
    circuit_fp: str
    scenario: AgeScenario
    scenario_key: str
    kind: str = "age"
    state: str = QUEUED
    attempts: int = 0
    max_retries: int = 2
    timeout_s: float = 300.0
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)
    not_before: float = 0.0
    pid: Optional[int] = None
    cached: bool = False
    error: Optional[Dict[str, Any]] = None
    last_error: Optional[Dict[str, Any]] = None
    fault: Optional[Dict[str, Any]] = None
    schema: int = JOB_SCHEMA

    @property
    def terminal(self) -> bool:
        """Whether the job has reached ``done`` or ``failed``."""
        return self.state in TERMINAL_STATES

    def touch(self) -> "JobRecord":
        """A copy with ``updated_at`` stamped to now."""
        return replace(self, updated_at=time.time())

    def to_dict(self) -> Dict[str, Any]:
        """The persisted / HTTP JSON form."""
        return {
            "schema": self.schema,
            "job_id": self.job_id,
            "kind": self.kind,
            "circuit": self.circuit,
            "circuit_name": self.circuit_name,
            "circuit_fp": self.circuit_fp,
            "scenario": self.scenario.to_dict(),
            "scenario_key": self.scenario_key,
            "state": self.state,
            "attempts": self.attempts,
            "max_retries": self.max_retries,
            "timeout_s": self.timeout_s,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "not_before": self.not_before,
            "pid": self.pid,
            "cached": self.cached,
            "error": self.error,
            "last_error": self.last_error,
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild from :meth:`to_dict` output; validates the basics."""
        if data.get("schema") != JOB_SCHEMA:
            raise ValueError(f"unsupported job schema "
                             f"{data.get('schema')!r} "
                             f"(expected {JOB_SCHEMA})")
        state = data.get("state")
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        pid = data.get("pid")
        return cls(
            schema=int(data["schema"]),
            job_id=str(data["job_id"]),
            kind=str(data.get("kind", "age")),
            circuit=str(data["circuit"]),
            circuit_name=str(data.get("circuit_name", data["circuit"])),
            circuit_fp=str(data["circuit_fp"]),
            scenario=AgeScenario.from_dict(data["scenario"]),
            scenario_key=str(data["scenario_key"]),
            state=str(state),
            attempts=int(data.get("attempts", 0)),
            max_retries=int(data.get("max_retries", 0)),
            timeout_s=float(data.get("timeout_s", 300.0)),
            created_at=float(data.get("created_at", 0.0)),
            updated_at=float(data.get("updated_at", 0.0)),
            not_before=float(data.get("not_before", 0.0)),
            pid=None if pid is None else int(pid),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
            last_error=data.get("last_error"),
            fault=data.get("fault"),
        )
