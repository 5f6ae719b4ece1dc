"""Long-running analysis service over the artifact plane.

``repro.serve`` turns the batch pipeline into a persistent query
service (ROADMAP item 1): a durable job queue stored through the
content-addressed :class:`~repro.artifacts.store.ArtifactStore`, a
pool of long-lived worker processes that keep pre-lowered circuits
hydrated between jobs, and a stdlib HTTP front end answering repeat
``(circuit_fingerprint, scenario_key)`` queries straight from the
result cache.

Layering (see docs/SERVICE.md):

* :mod:`repro.serve.protocol` — job records, scenarios, and the
  structured-error envelope (the JSON everything else exchanges);
* :mod:`repro.serve.queue` — the restart-safe durable FIFO;
* :mod:`repro.serve.workers` — long-lived, killable worker processes
  that keep hydrated circuits between jobs, with timeouts, crash
  classification, and bundle shipping;
* :mod:`repro.serve.server` — the event-driven scheduler, the
  service-owned observability hub, and the six-endpoint HTTP layer.
"""

from repro.serve.protocol import (
    DONE,
    FAILED,
    JOB_SCHEMA,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    AgeScenario,
    JobRecord,
    new_job_id,
    structured_error,
)
from repro.serve.queue import JobQueue
from repro.serve.server import (
    AnalysisService,
    ServeConfig,
    ServiceHTTPServer,
    ServiceObs,
    make_server,
)
from repro.serve.workers import (
    BundleCache,
    WarmCircuits,
    Worker,
    run_age_analysis,
    serve_job,
)

__all__ = [
    "JOB_SCHEMA", "QUEUED", "RUNNING", "DONE", "FAILED",
    "STATES", "TERMINAL_STATES",
    "AgeScenario", "JobRecord", "new_job_id", "structured_error",
    "JobQueue",
    "BundleCache", "WarmCircuits", "Worker", "run_age_analysis",
    "serve_job",
    "AnalysisService", "ServeConfig", "ServiceHTTPServer", "ServiceObs",
    "make_server",
]
