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
  classification, and bundle shipping (sweep rows run on them too);
* :mod:`repro.serve.server` — the event-driven scheduler, the
  service-owned observability hub, and the six-endpoint HTTP layer.
"""

import importlib

#: Public name -> its submodule, imported on first access (PEP 562):
#: ``repro age`` and ``repro sweep`` never import the HTTP server.
_EXPORTS = {
    **dict.fromkeys(("JOB_SCHEMA", "QUEUED", "RUNNING", "DONE", "FAILED",
                     "STATES", "TERMINAL_STATES", "AgeScenario",
                     "JobRecord", "new_job_id", "structured_error"),
                    "protocol"),
    "JobQueue": "queue",
    **dict.fromkeys(("BundleCache", "WarmCircuits", "Worker", "serve_job"),
                    "workers"),
    **dict.fromkeys(("AnalysisService", "ServeConfig", "ServiceHTTPServer",
                     "ServiceObs", "make_server"), "server"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)
