"""Content-addressed artifact plane.

Three layers, bottom-up:

- :mod:`repro.artifacts.fingerprint` — stable structural hashes for
  circuits, libraries, and NBTI models, composed into content-hash
  bundle/scenario keys.
- :mod:`repro.artifacts.bundle` — :class:`ArtifactBundle`, a picklable
  snapshot of one :class:`~repro.context.AnalysisContext`'s compiled
  artifacts that hydrates into a warm context without recompiling.
- :mod:`repro.artifacts.store` — :class:`ArtifactStore`, an on-disk
  content-hash-keyed bundle directory plus a (circuit, scenario)
  result cache and the source records that map netlist file bytes to
  circuit fingerprints.
- :mod:`repro.artifacts.sources` — :func:`resolve_source`, the one
  resolver from a circuit name to its fingerprint, parse-free on a
  source-record hit.
"""

from repro.artifacts.bundle import BUNDLE_VERSION, ArtifactBundle
from repro.artifacts.fingerprint import (
    SCHEMA_VERSION,
    bundle_key,
    circuit_fingerprint,
    library_fingerprint,
    model_fingerprint,
    scenario_key,
    source_key,
)
from repro.artifacts.sources import ResolvedCircuit, resolve_source
from repro.artifacts.store import STORE_VERSION, ArtifactStore

__all__ = [
    "SCHEMA_VERSION",
    "BUNDLE_VERSION",
    "STORE_VERSION",
    "ArtifactBundle",
    "ArtifactStore",
    "ResolvedCircuit",
    "bundle_key",
    "circuit_fingerprint",
    "library_fingerprint",
    "model_fingerprint",
    "resolve_source",
    "scenario_key",
    "source_key",
]
