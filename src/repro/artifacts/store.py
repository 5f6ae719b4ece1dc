"""Persistent content-addressed artifact/result store.

Layout (all writes atomic: temp file in the target directory, then
``os.replace``)::

    <root>/store.json                          # {"schema_version": 1}
    <root>/bundles/<k[:2]>/<key>.npz           # bundle arrays
    <root>/bundles/<k[:2]>/<key>.json          # bundle manifest
    <root>/results/<circuit_fp>/<scenario>.json  # age numbers, sweep rows
    <root>/sources/<source_key>.json           # netlist bytes -> circuit_fp
    <root>/jobs/<job_id>.json                  # service job records
    <root>/runs/<run_id>.json                  # run-history records

The manifest is written *after* the ``.npz`` it references, so a
manifest on disk marks a complete bundle — a crash between the two
writes leaves an orphan array file that is simply never read (and is
swept by :meth:`ArtifactStore.clear`).  Same-key bundle writers are
additionally serialized by a per-key ``.lock`` file (O_CREAT|O_EXCL,
with stale-lock breaking), so concurrent writers sharing one store
never interleave an array/manifest pair.

Every JSON record (result, source, job, run, bundle manifest) is read
by one rule: an absent file is a miss, and a damaged one (empty,
truncated, not UTF-8, not a JSON object) is a miss too, counted as
``store.<kind>_corrupt`` where the kind has counters.  A reader that
knows its record's fields passes a decoder; a payload the decoder
rejects (a missing or wrong-typed field) is a miss as well, counted as
``store.<kind>_invalid``, and never a hit.  The caller recomputes and
the atomic rewrite replaces the record.

Invalidation is purely by content address: a structural change to the
circuit, library, or model produces a different
:func:`~repro.artifacts.fingerprint.bundle_key`, so stale bundles are
never *wrong*, only unreferenced.  Bumping the fingerprint or bundle
schema version changes every key/payload check the same way.

Hit/miss counters live in a :class:`~repro.context.CacheStats` (the
same class the in-memory contexts use) registered with the obs layer
under ``store:<root name>`` — store traffic shows up in RunReports
next to the per-circuit context stats with zero schema changes.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.artifacts.bundle import ArtifactBundle

#: On-disk layout version (checked against ``store.json``).
STORE_VERSION = 1

#: A reader's check of one JSON record: the value the record holds, or
#: ``None`` when a field is missing or of the wrong type.
Decoder = Callable[[Dict[str, Any]], Any]

#: A ``.lock`` older than this is presumed orphaned (a writer that died
#: between acquiring and releasing) and is broken by the next writer.
LOCK_STALE_SECONDS = 60.0

#: How long a writer waits on a live lock before giving up and writing
#: anyway — content-addressed payloads make the duplicate write benign.
LOCK_WAIT_SECONDS = 10.0


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write_json(path: Path, payload: Any) -> None:
    _atomic_write_bytes(path, json.dumps(payload, indent=1).encode("utf-8"))


class ArtifactStore:
    """A content-hash-keyed directory of bundles plus a result cache.

    Args:
        root: store directory; created lazily on the first write.

    The store never overwrites a readable bundle (content-addressed
    payloads are immutable), and the only file it deletes on read is
    the manifest of a damaged bundle, so concurrent readers and writers
    on one directory are safe: the worst race is two processes writing
    the same bytes, or a recompute of a bundle another process just
    rewrote.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        from repro.context import CacheStats

        self.stats = CacheStats()
        obs.register_cache_stats(f"store:{self.root.name}", self.stats)

    # -- paths ---------------------------------------------------------------

    def _bundle_dir(self, key: str) -> Path:
        return self.root / "bundles" / key[:2]

    def _manifest_path(self, key: str) -> Path:
        return self._bundle_dir(key) / f"{key}.json"

    def _arrays_path(self, key: str) -> Path:
        return self._bundle_dir(key) / f"{key}.npz"

    def _result_path(self, circuit_fp: str, scenario_key: str) -> Path:
        return self.root / "results" / circuit_fp / f"{scenario_key}.json"

    def _source_path(self, key: str) -> Path:
        return self.root / "sources" / f"{key}.json"

    def _ensure_marker(self) -> None:
        marker = self.root / "store.json"
        if not marker.exists():
            _atomic_write_json(marker, {"schema_version": STORE_VERSION})

    # -- bundles -------------------------------------------------------------

    def has_bundle(self, key: str) -> bool:
        """Whether a complete bundle for ``key`` is on disk."""
        return self._manifest_path(key).exists()

    def _acquire_lock(self, lock: Path) -> bool:
        """Best-effort exclusive ``.lock`` acquisition.

        Returns True when this process owns the lock.  A lock held past
        :data:`LOCK_STALE_SECONDS` is presumed orphaned and broken; a
        live lock is waited on up to :data:`LOCK_WAIT_SECONDS`, after
        which False is returned and the caller may proceed unlocked —
        every store write is atomic and content-addressed, so the worst
        outcome of a lost race is two processes writing the same bytes.
        """
        lock.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + LOCK_WAIT_SECONDS
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                return True
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age > LOCK_STALE_SECONDS:
                    obs.count("store.stale_locks_broken")
                    try:
                        lock.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() >= deadline:
                    obs.count("store.lock_timeouts")
                    return False
                time.sleep(0.01)

    @staticmethod
    def _release_lock(lock: Path) -> None:
        try:
            lock.unlink()
        except OSError:
            pass

    def save_bundle(self, bundle: ArtifactBundle) -> None:
        """Persist a bundle (no-op when its key is already stored).

        Safe under concurrent writers: a per-key ``.lock`` file
        (O_CREAT|O_EXCL) serializes same-key writers, the key is
        re-checked after acquisition (double-checked), and stale locks
        from dead writers are broken after :data:`LOCK_STALE_SECONDS`.
        """
        key = bundle.bundle_key
        if self.has_bundle(key):
            return
        lock = self._bundle_dir(key) / f"{key}.lock"
        owned = self._acquire_lock(lock)
        try:
            if self.has_bundle(key):
                return  # another writer finished while we waited
            with obs.span("artifacts.store.save", key=key[:12]):
                self._ensure_marker()
                manifest, arrays = bundle.to_payload()
                arrays_path = self._arrays_path(key)
                arrays_path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=arrays_path.parent,
                                           prefix=f".{arrays_path.name}.")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        np.savez(fh, **arrays)
                    os.replace(tmp, arrays_path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                # Manifest last: its presence marks the bundle complete.
                _atomic_write_json(self._manifest_path(key), manifest)
            obs.count("store.bundle_saves")
        finally:
            if owned:
                self._release_lock(lock)

    def load_bundle(self, key: str) -> Optional[ArtifactBundle]:
        """The stored bundle for ``key``, or ``None`` (counted miss).

        A damaged bundle (an unreadable manifest or ``.npz``) is a miss
        too, also counted as ``store.bundle_corrupt``: its manifest is
        dropped, so :meth:`has_bundle` reads the bundle as incomplete
        and the recompute's :meth:`save_bundle` rewrites it.
        """
        path = self._manifest_path(key)
        manifest, fault = self._read_record(path)
        corrupt = fault is not None
        bundle = None
        if manifest is not None:
            with obs.span("artifacts.store.load", key=key[:12]):
                try:
                    with np.load(self._arrays_path(key)) as npz:
                        arrays = {name: npz[name] for name in npz.files}
                    bundle = ArtifactBundle.from_payload(manifest, arrays)
                except (OSError, EOFError, ValueError, KeyError, TypeError,
                        zipfile.BadZipFile):
                    corrupt = True
        if corrupt:
            obs.count("store.bundle_corrupt")
            path.unlink(missing_ok=True)
        if bundle is None:
            self.stats.record_miss("bundle")
            obs.count("store.bundle_misses")
            return None
        self.stats.record_hit("bundle")
        obs.count("store.bundle_hits")
        return bundle

    # -- JSON records --------------------------------------------------------

    @staticmethod
    def _read_record(path: Path, decode: Optional[Decoder] = None
                     ) -> Tuple[Any, Optional[str]]:
        """``(payload, fault)``, uncounted.

        ``payload`` is the record (through ``decode`` when given), or
        ``None``: for an absent record (``fault`` ``None``), a damaged
        one (``"corrupt"``: empty, truncated, not UTF-8, not a JSON
        object) and one ``decode`` rejects (``"invalid"``).
        """
        try:
            payload = json.loads(path.read_bytes())
        except FileNotFoundError:
            return None, None
        except ValueError:  # empty, truncated, or not UTF-8
            return None, "corrupt"
        if not isinstance(payload, dict):
            return None, "corrupt"
        if decode is not None:
            payload = decode(payload)
            if payload is None:
                return None, "invalid"
        return payload, None

    def _load_record(self, kind: str, path: Path,
                     decode: Optional[Decoder] = None) -> Any:
        """One record's payload, or ``None`` (a counted ``kind`` miss).

        A damaged record, or one ``decode`` rejects, is a miss too, also
        counted as ``store.<kind>_corrupt`` or ``store.<kind>_invalid``:
        the caller recomputes, and the next save replaces it atomically.
        """
        payload, fault = self._read_record(path, decode)
        if fault is not None:
            obs.count(f"store.{kind}_{fault}")
        if payload is None:
            self.stats.record_miss(kind)
            obs.count(f"store.{kind}_misses")
            return None
        self.stats.record_hit(kind)
        obs.count(f"store.{kind}_hits")
        return payload

    # -- results -------------------------------------------------------------

    def save_result(self, circuit_fp: str, scenario_key: str,
                    payload: Dict[str, Any]) -> None:
        """Cache a JSON-able result payload under (circuit, scenario)."""
        self._ensure_marker()
        _atomic_write_json(self._result_path(circuit_fp, scenario_key),
                           payload)
        obs.count("store.result_saves")

    def has_result(self, circuit_fp: str, scenario_key: str,
                   decode: Optional[Decoder] = None) -> bool:
        """Whether a readable cached result exists (no hit/miss accounting).

        The uncounted peek used for consistency checks (e.g. the serve
        queue's done-implies-result invariant) — cache *traffic* stays
        measured by :meth:`load_result` alone.  A damaged record, or one
        ``decode`` rejects, reads as absent here too, so the service
        recomputes it.
        """
        path = self._result_path(circuit_fp, scenario_key)
        return self._read_record(path, decode)[0] is not None

    def load_result(self, circuit_fp: str, scenario_key: str,
                    decode: Optional[Decoder] = None) -> Any:
        """The cached payload (through ``decode`` when given), or
        ``None`` (counted miss).

        A damaged record — empty, truncated, or not a JSON object — is
        a miss too, also counted as ``store.result_corrupt``, and so is
        a payload ``decode`` rejects (``store.result_invalid``): the
        caller recomputes, and :meth:`save_result` replaces it
        atomically.
        """
        return self._load_record(
            "result", self._result_path(circuit_fp, scenario_key), decode)

    # -- source records ------------------------------------------------------

    def save_source(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist one source record under its
        :func:`~repro.artifacts.fingerprint.source_key`."""
        self._ensure_marker()
        _atomic_write_json(self._source_path(key), payload)
        obs.count("store.source_saves")

    def load_source(self, key: str, decode: Decoder) -> Any:
        """The decoded source record of ``key``, or ``None`` (a counted
        ``source`` miss; damaged and rejected records included)."""
        return self._load_record("source", self._source_path(key), decode)

    # -- service job records --------------------------------------------------

    def _job_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    def save_job(self, job_id: str, payload: Dict[str, Any]) -> None:
        """Persist one job record (atomic tmp + replace).

        The service rewrites the whole record on every state
        transition, so any record on disk is a complete, consistent
        snapshot — a killed server never leaves a half-written job.
        """
        self._ensure_marker()
        _atomic_write_json(self._job_path(job_id), payload)
        obs.count("store.job_saves")

    def load_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job record's payload, or ``None`` when unknown or damaged
        (uncounted; :meth:`JobQueue.recover` counts it as invalid)."""
        return self._read_record(self._job_path(job_id))[0]

    def list_jobs(self) -> List[str]:
        """Sorted ids of every persisted job record."""
        jobs_dir = self.root / "jobs"
        if not jobs_dir.is_dir():
            return []
        return sorted(p.stem for p in jobs_dir.glob("*.json"))

    # -- run-history records --------------------------------------------------

    def _run_path(self, run_id: str) -> Path:
        return self.root / "runs" / f"{run_id}.json"

    def save_run(self, run_id: str, payload: Dict[str, Any]) -> None:
        """Persist one run-history record (atomic tmp + replace).

        Written by :func:`repro.obs.perf.record_run` whenever a
        ``--store``-active ``age``/``sweep``/``serve`` run finishes;
        ``repro report history/diff`` reads them back.
        """
        self._ensure_marker()
        _atomic_write_json(self._run_path(run_id), payload)
        obs.count("store.run_saves")

    def load_run(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One run record's payload, or ``None`` (counted miss; a damaged
        record is also counted as ``store.run_corrupt``)."""
        return self._load_record("run", self._run_path(run_id))

    def list_runs(self) -> List[str]:
        """Sorted ids of every run record (ids are time-sortable)."""
        runs_dir = self.root / "runs"
        if not runs_dir.is_dir():
            return []
        return sorted(p.stem for p in runs_dir.glob("*.json"))

    # -- maintenance ---------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """Inventory summary: bundle/result counts and on-disk bytes."""
        bundles = sorted(p for p in self.root.glob("bundles/*/*.json"))
        results = sorted(self.root.glob("results/*/*.json"))
        sources = sorted(self.root.glob("sources/*.json"))
        jobs = sorted(self.root.glob("jobs/*.json"))
        runs = sorted(self.root.glob("runs/*.json"))
        total = 0
        for pattern in ("bundles/*/*", "results/*/*", "sources/*", "jobs/*",
                        "runs/*", "store.json"):
            for path in self.root.glob(pattern):
                if path.is_file():
                    total += path.stat().st_size
        return {
            "root": str(self.root),
            "schema_version": STORE_VERSION,
            "bundles": len(bundles),
            "results": len(results),
            "sources": len(sources),
            "jobs": len(jobs),
            "runs": len(runs),
            "bytes": total,
            "bundle_keys": [p.stem for p in bundles],
        }

    def clear(self) -> int:
        """Delete every stored bundle and record; returns files removed.

        Only touches the store's own subtrees (``bundles/``,
        ``results/``, ``sources/``, ``jobs/``, ``runs/``, ``store.json``,
        and the ``sweeps/`` shard checkpoints of stores written before
        sweep rows became result records) — a mistyped ``--store``
        pointing at a source directory cannot lose anything else.
        """
        import shutil

        removed = 0
        for sub in ("bundles", "results", "sources", "sweeps", "jobs",
                    "runs"):
            path = self.root / sub
            if path.is_dir():
                removed += sum(1 for p in path.rglob("*") if p.is_file())
                shutil.rmtree(path)
        marker = self.root / "store.json"
        if marker.exists():
            marker.unlink()
            removed += 1
        return removed

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"
