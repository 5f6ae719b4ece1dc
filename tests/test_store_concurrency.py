"""Concurrency regression tests for the store under the service.

The invariant the service leans on: N concurrent writers of the same
circuit — handler threads in one server, worker processes across
servers — produce exactly **one** stored bundle, with no leftover
``.lock`` or temp files.  Serialization comes from the per-key
``.lock`` (O_CREAT|O_EXCL) plus double-checked key existence; stale
locks from dead writers are broken after ``LOCK_STALE_SECONDS``, and a
live foreign lock is only waited on for ``LOCK_WAIT_SECONDS`` before
the (benign, content-addressed) unlocked write proceeds.
"""

import multiprocessing
import os
import threading
import time

from repro.artifacts import ArtifactStore, store as store_mod
from repro.context import AnalysisContext
from repro.netlist import load_packaged
from repro.serve import AgeScenario, AnalysisService, ServeConfig


def _leftovers(root):
    """Stray lock/temp files anywhere under the store root."""
    strays = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".lock") or name.startswith("."):
                strays.append(os.path.join(dirpath, name))
    return strays


def _save_bundle_in_process(store_dir):
    """Child-process entry: lower c17 and persist it (module-level so
    the default start method can pickle it)."""
    store = ArtifactStore(store_dir)
    circuit = load_packaged("c17")
    AnalysisContext(circuit, store=store).save_to_store()


class TestThreadWriters:
    def test_n_threads_one_bundle(self, tmp_path):
        store = ArtifactStore(tmp_path)
        # Build the bundle once outside the store, then race the save.
        from repro.artifacts import ArtifactBundle

        context = AnalysisContext(load_packaged("c17"))
        bundle = ArtifactBundle.snapshot(context)
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            try:
                barrier.wait(timeout=10.0)
                store.save_bundle(bundle)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert store.info()["bundles"] == 1
        assert _leftovers(tmp_path) == []

    def test_racing_full_lowering_threads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        barrier = threading.Barrier(4)

        def build_and_save():
            barrier.wait(timeout=10.0)
            circuit = load_packaged("c17")
            AnalysisContext(circuit, store=store).save_to_store()

        threads = [threading.Thread(target=build_and_save)
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert store.info()["bundles"] == 1
        assert _leftovers(tmp_path) == []


class TestProcessWriters:
    def test_n_processes_one_bundle(self, tmp_path):
        procs = [multiprocessing.Process(
            target=_save_bundle_in_process, args=(str(tmp_path),))
            for _ in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120.0)
        assert all(p.exitcode == 0 for p in procs)
        store = ArtifactStore(tmp_path)
        assert store.info()["bundles"] == 1
        assert _leftovers(tmp_path) == []


class TestLockPaths:
    def _bundle(self, store):
        circuit = load_packaged("c17")
        context = AnalysisContext(circuit, store=store)
        from repro.artifacts import ArtifactBundle

        return ArtifactBundle.snapshot(context)

    def test_stale_lock_is_broken(self, tmp_path):
        store = ArtifactStore(tmp_path)
        bundle = self._bundle(store)
        lock = store._bundle_dir(bundle.bundle_key) / \
            f"{bundle.bundle_key}.lock"
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.touch()
        stale = time.time() - (store_mod.LOCK_STALE_SECONDS + 60.0)
        os.utime(lock, (stale, stale))

        store.save_bundle(bundle)
        assert store.info()["bundles"] == 1
        assert not lock.exists()  # broken, then released

    def test_live_foreign_lock_times_out_but_write_lands(self, tmp_path,
                                                         monkeypatch):
        # A fresh lock owned by someone else: the writer gives up
        # waiting and proceeds unlocked (content-addressed writes make
        # the duplicate benign); the foreign lock is left alone.
        monkeypatch.setattr(store_mod, "LOCK_WAIT_SECONDS", 0.2)
        store = ArtifactStore(tmp_path)
        bundle = self._bundle(store)
        lock = store._bundle_dir(bundle.bundle_key) / \
            f"{bundle.bundle_key}.lock"
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.touch()

        t0 = time.monotonic()
        store.save_bundle(bundle)
        elapsed = time.monotonic() - t0
        assert elapsed < store_mod.LOCK_STALE_SECONDS
        assert store.info()["bundles"] == 1
        assert lock.exists()  # not ours: never released/broken
        assert store.load_bundle(bundle.bundle_key) is not None


class TestThroughService:
    def test_concurrent_same_circuit_submissions_one_bundle(self,
                                                            tmp_path):
        service = AnalysisService(
            ArtifactStore(tmp_path / "store"),
            ServeConfig(max_workers=4))
        service.start()
        try:
            barrier = threading.Barrier(6)
            records = []
            lock = threading.Lock()

            def submit(idx):
                barrier.wait(timeout=10.0)
                record = service.submit(
                    "c17", AgeScenario(years=float(idx + 1)))
                with lock:
                    records.append(record)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert len(records) == 6

            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                states = {r.job_id: service.queue.get(r.job_id).state
                          for r in records}
                if all(s == "done" for s in states.values()):
                    break
                time.sleep(0.05)
            assert all(service.queue.get(r.job_id).state == "done"
                       for r in records)

            store = ArtifactStore(tmp_path / "store")
            assert store.info()["bundles"] == 1
            assert _leftovers(tmp_path / "store") == []
        finally:
            service.stop(drain=False)
