"""Content-addressed artifact plane: fingerprints, bundles, store,
bundle-shipping sweeps — plus the satellite guarantees (vectorized
variation sampling, batched sleep lifetime grid)."""

import os
import pickle
import random
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.artifacts import (
    ArtifactBundle,
    ArtifactStore,
    bundle_key,
    circuit_fingerprint,
    scenario_key,
)
from repro.artifacts.fingerprint import _hash
from repro.cells.library import build_library
from repro.constants import TEN_YEARS
from repro.context import AnalysisContext
from repro.core.aging import NbtiModel
from repro.core.profiles import OperatingProfile
from repro.flow.parallel import (
    CoOptimizationJob,
    PotentialSweepJob,
    load_circuit,
    run_co_optimization_sweep,
    run_potential_sweep,
)
from repro.netlist import iscas85
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.generators import scale_circuit
from repro.tech.ptm import PTM90_HVT

PROFILE = OperatingProfile.from_ras("1:5", t_standby=330.0)

#: The lowering artifacts a hydrated context must never rebuild.
LOWERINGS = ("gate_loads", "compiled_timing", "packed_simulator",
             "stress_duties", "aging_plan", "leakage_table")


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _counter_total(snapshot, name) -> float:
    entry = snapshot.get(name)
    if not entry:
        return 0
    return sum(entry.get("values", {}).values())


def _run_py(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestFingerprints(unittest.TestCase):
    def test_stable_across_reloads(self):
        a = load_circuit("c432").content_fingerprint()
        b = load_circuit("c432").content_fingerprint()
        self.assertEqual(a, b)

    def test_name_independent(self):
        c = load_circuit("c17")
        renamed = Circuit(name="totally-else",
                          primary_inputs=c.primary_inputs,
                          primary_outputs=c.primary_outputs,
                          gates=list(c.gates.values()))
        self.assertEqual(c.content_fingerprint(),
                         renamed.content_fingerprint())

    def test_stable_across_processes(self):
        local = load_circuit("c432").content_fingerprint()
        remote = _run_py(
            "from repro.flow.parallel import load_circuit\n"
            "print(load_circuit('c432').content_fingerprint())")
        self.assertEqual(local, remote)

    def test_changed_by_replace_gate(self):
        c = load_circuit("c17")
        before = c.content_fingerprint()
        name = next(iter(c.gates))
        old = c.gates[name]
        c.replace_gate(Gate(name=name, cell="NOR2", inputs=old.inputs))
        self.assertNotEqual(before, c.content_fingerprint())

    def test_library_fingerprint_structural(self):
        self.assertEqual(build_library().content_fingerprint(),
                         build_library().content_fingerprint())
        self.assertNotEqual(build_library().content_fingerprint(),
                            build_library(PTM90_HVT).content_fingerprint())

    def test_model_fingerprint(self):
        self.assertEqual(NbtiModel().content_fingerprint(),
                         NbtiModel().content_fingerprint())
        self.assertNotEqual(
            NbtiModel().content_fingerprint(),
            NbtiModel(scale_recovery=True).content_fingerprint())

    def test_bundle_key_covers_temperature(self):
        ctx = AnalysisContext(load_circuit("c17"))
        fps = ctx.content_fingerprints()
        self.assertNotEqual(
            bundle_key(fps["circuit"], fps["library"], fps["model"], 400.0),
            bundle_key(fps["circuit"], fps["library"], fps["model"], 330.0))

    def test_scenario_key_order_insensitive(self):
        self.assertEqual(scenario_key({"a": 1, "b": 2.5}),
                         scenario_key({"b": 2.5, "a": 1}))
        self.assertNotEqual(scenario_key({"a": 1}), scenario_key({"a": 2}))


def _circuit_payload(circuit) -> list:
    return [list(circuit.primary_inputs), list(circuit.primary_outputs),
            [[g.name, g.cell, list(g.inputs)] for g in circuit.gates.values()]]


#: Net names that stress the JSON encoding: quotes, backslashes,
#: control characters and non-ASCII (BMP and astral).
_NET_NAMES = st.text(
    alphabet=st.one_of(st.sampled_from("\"'\\/\n\t\x00é漢𝔘"),
                       st.characters()),
    min_size=1, max_size=12)


class TestCircuitDigest(unittest.TestCase):
    """``circuit_fingerprint`` skips ``_canon``; every digest must not move.

    Stores written before the fast path keep hitting only while the
    digest is byte-identical to ``_hash("circuit", payload)``.  A change
    to the hashing scheme must bump ``SCHEMA_VERSION`` deliberately,
    which the pinned c17 digest below forces.
    """

    def test_c17_digest_pinned(self):
        self.assertEqual(
            circuit_fingerprint(load_circuit("c17")),
            "4da3f28eacea6c27b8d82696ccbe5da4161468e5d69e672faadb4f72b9476bc9")

    def test_matches_canonical_hash_on_corpus(self):
        circuits = [load_circuit(n) for n in ("c17", *iscas85.NAMES)]
        circuits.append(scale_circuit(5000, seed=1))
        for circuit in circuits:
            self.assertEqual(circuit_fingerprint(circuit),
                             _hash("circuit", _circuit_payload(circuit)),
                             circuit.name)

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(_NET_NAMES, min_size=3, max_size=8, unique=True),
           cell=_NET_NAMES)
    def test_matches_canonical_hash_for_any_net_names(self, names, cell):
        pis, outputs = names[:2], names[2:]
        gates, drivers = [], list(pis)
        for name in outputs:
            gates.append(Gate(name, cell, [drivers[0], drivers[-1]]))
            drivers.append(name)
        circuit = Circuit("h", pis, outputs[-1:], gates)
        self.assertEqual(circuit_fingerprint(circuit),
                         _hash("circuit", _circuit_payload(circuit)))


class TestArtifactBundle(unittest.TestCase):
    def _warm_context(self, name="c17"):
        ctx = AnalysisContext(load_circuit(name))
        ctx.aged_timing(PROFILE, TEN_YEARS)
        return ctx

    def test_pickle_round_trip_equality(self):
        bundle = ArtifactBundle.snapshot(self._warm_context())
        clone = pickle.loads(pickle.dumps(bundle))
        self.assertEqual(clone, bundle)

    def test_hydrated_matches_fresh_bit_for_bit(self):
        fresh = self._warm_context("c432")
        hydrated = ArtifactBundle.snapshot(fresh).hydrate()
        a = fresh.aged_timing(PROFILE, TEN_YEARS)
        b = hydrated.aged_timing(PROFILE, TEN_YEARS)
        self.assertEqual(a.fresh_delay, b.fresh_delay)
        self.assertEqual(a.aged_delay, b.aged_delay)
        self.assertEqual(a.max_shift, b.max_shift)
        self.assertTrue(np.array_equal(
            fresh.compiled_timing().base_delays(),
            hydrated.compiled_timing().base_delays()))
        pop = np.array([[0] * 36, [1] * 36, [0, 1] * 18], dtype=np.uint8)
        self.assertTrue(np.array_equal(fresh.population_leakage(pop),
                                       hydrated.population_leakage(pop)))

    def test_hydrated_context_recomputes_nothing(self):
        hydrated = ArtifactBundle.snapshot(self._warm_context()).hydrate()
        hydrated.aged_timing(PROFILE, TEN_YEARS)
        for name in LOWERINGS:
            self.assertEqual(hydrated.stats.misses(name), 0, name)

    def test_hydration_skips_lowering_kernels(self):
        bundle = ArtifactBundle.snapshot(self._warm_context())
        registry = obs.MetricsRegistry()
        tracer = obs.Tracer()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            ctx = bundle.hydrate()
            ctx.aged_timing(PROFILE, TEN_YEARS)
        snapshot = registry.snapshot()
        for kernel in ("sta.compiled.lowerings", "sim.packed.compiles",
                       "aging.plan.lowerings"):
            self.assertEqual(_counter_total(snapshot, kernel), 0, kernel)
        self.assertGreaterEqual(
            _counter_total(snapshot, "artifacts.hydrations"), 1)

    def test_cross_process_round_trip(self):
        import tempfile

        ctx = self._warm_context()
        expected = ctx.aged_timing(PROFILE, TEN_YEARS).aged_delay
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "bundle.pkl"
            path.write_bytes(pickle.dumps(ArtifactBundle.snapshot(ctx)))
            remote = _run_py(
                "import pickle\n"
                "from repro.core.profiles import OperatingProfile\n"
                "from repro.constants import TEN_YEARS\n"
                f"bundle = pickle.loads(open({str(path)!r}, 'rb').read())\n"
                "ctx = bundle.hydrate()\n"
                "profile = OperatingProfile.from_ras('1:5', t_standby=330.0)\n"
                "res = ctx.aged_timing(profile, TEN_YEARS)\n"
                "print(repr(res.aged_delay))")
        self.assertEqual(float(remote), expected)

    def test_seed_rejects_mismatched_circuit(self):
        bundle = ArtifactBundle.snapshot(self._warm_context())
        other = load_circuit("c17")
        name = next(iter(other.gates))
        old = other.gates[name]
        other.replace_gate(Gate(name=name, cell="NOR2", inputs=old.inputs))
        with self.assertRaises(ValueError):
            bundle.seed(AnalysisContext(other))

    def test_payload_schema_version_checked(self):
        bundle = ArtifactBundle.snapshot(self._warm_context())
        manifest, arrays = bundle.to_payload()
        manifest = dict(manifest, schema_version=999)
        with self.assertRaises(ValueError):
            ArtifactBundle.from_payload(manifest, arrays)


class TestArtifactStore(unittest.TestCase):
    def setUp(self):
        import tempfile

        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def test_bundle_round_trip_and_counters(self):
        store = ArtifactStore(self.root)
        ctx = AnalysisContext(load_circuit("c17"), store=store)
        self.assertEqual(store.stats.misses("bundle"), 1)
        bundle = ctx.save_to_store()
        self.assertTrue(store.has_bundle(bundle.bundle_key))
        loaded = store.load_bundle(bundle.bundle_key)
        self.assertEqual(loaded, bundle)
        self.assertEqual(store.stats.hits("bundle"), 1)

    def test_warm_context_hydrates_from_store(self):
        store = ArtifactStore(self.root)
        cold = AnalysisContext(load_circuit("c17"), store=store)
        expected = cold.aged_timing(PROFILE, TEN_YEARS).aged_delay
        cold.save_to_store()
        warm = AnalysisContext(load_circuit("c17"), store=store)
        got = warm.aged_timing(PROFILE, TEN_YEARS).aged_delay
        self.assertEqual(got, expected)
        for name in LOWERINGS:
            self.assertEqual(warm.stats.misses(name), 0, name)

    def test_result_cache(self):
        store = ArtifactStore(self.root)
        self.assertIsNone(store.load_result("fp", "key"))
        store.save_result("fp", "key", {"x": 0.12345678901234567})
        self.assertEqual(store.load_result("fp", "key"),
                         {"x": 0.12345678901234567})
        self.assertEqual(store.stats.hits("result"), 1)
        self.assertEqual(store.stats.misses("result"), 1)

    def test_damaged_result_record_is_a_counted_miss(self):
        store = ArtifactStore(self.root)
        store.save_result("fp", "key", {"x": 0.5})
        path = store._result_path("fp", "key")
        good = path.read_bytes()
        damaged = [b"", good[:len(good) // 2], b"[1, 2]", b"null",
                   b"\xff\xfe{"]
        registry = obs.MetricsRegistry()
        with obs.use_tracer(obs.Tracer()), obs.use_metrics(registry):
            for data in damaged:
                path.write_bytes(data)
                self.assertFalse(store.has_result("fp", "key"), data)
                self.assertIsNone(store.load_result("fp", "key"), data)
            self.assertFalse(store.has_result("fp", "absent"))
            self.assertIsNone(store.load_result("fp", "absent"))
        snapshot = registry.snapshot()
        self.assertEqual(_counter_total(snapshot, "store.result_corrupt"),
                         len(damaged))
        self.assertEqual(_counter_total(snapshot, "store.result_misses"),
                         len(damaged) + 1)
        self.assertEqual(store.stats.misses("result"), len(damaged) + 1)
        self.assertEqual(store.stats.hits("result"), 0)
        # The recompute's save replaces the damaged record.
        store.save_result("fp", "key", {"x": 0.5})
        self.assertTrue(store.has_result("fp", "key"))
        self.assertEqual(store.load_result("fp", "key"), {"x": 0.5})

    def test_orphan_arrays_are_invisible(self):
        # A crash between the .npz and its manifest leaves an orphan
        # array file; the manifest-last protocol means it reads as a
        # clean miss.
        store = ArtifactStore(self.root)
        ctx = AnalysisContext(load_circuit("c17"))
        bundle = ArtifactBundle.snapshot(ctx)
        store.save_bundle(bundle)
        store._manifest_path(bundle.bundle_key).unlink()
        self.assertFalse(store.has_bundle(bundle.bundle_key))
        self.assertIsNone(store.load_bundle(bundle.bundle_key))

    def test_damaged_run_and_job_records_read_as_absent(self):
        store = ArtifactStore(self.root)
        store.save_run("run1", {"x": 1})
        store.save_job("job1", {"x": 1})
        for path in (store._run_path("run1"), store._job_path("job1")):
            path.write_bytes(path.read_bytes()[:3])
        registry = obs.MetricsRegistry()
        with obs.use_tracer(obs.Tracer()), obs.use_metrics(registry):
            self.assertIsNone(store.load_run("run1"))
            self.assertIsNone(store.load_job("job1"))
        snapshot = registry.snapshot()
        self.assertEqual(_counter_total(snapshot, "store.run_corrupt"), 1)
        self.assertEqual(store.stats.misses("run"), 1)
        self.assertEqual(store.list_runs(), ["run1"])

    def test_damaged_bundle_is_a_counted_miss_and_rebuilt(self):
        ctx = AnalysisContext(load_circuit("c17"))
        bundle = ArtifactBundle.snapshot(ctx)
        key = bundle.bundle_key
        for part in ("manifest", "arrays", "schema"):
            with self.subTest(part=part):
                store = ArtifactStore(self.root / part)
                store.save_bundle(bundle)
                manifest = store._manifest_path(key)
                if part == "schema":
                    manifest.write_text('{"schema_version": -1}')
                else:
                    path = (manifest if part == "manifest"
                            else store._arrays_path(key))
                    path.write_bytes(path.read_bytes()[:100])
                registry = obs.MetricsRegistry()
                with obs.use_tracer(obs.Tracer()), \
                        obs.use_metrics(registry):
                    self.assertIsNone(store.load_bundle(key))
                self.assertEqual(_counter_total(registry.snapshot(),
                                                "store.bundle_corrupt"), 1)
                self.assertEqual(store.stats.misses("bundle"), 1)
                self.assertFalse(store.has_bundle(key))
                store.save_bundle(bundle)
                self.assertEqual(store.load_bundle(key), bundle)

    def test_info_and_clear(self):
        store = ArtifactStore(self.root)
        ctx = AnalysisContext(load_circuit("c17"), store=store)
        ctx.save_to_store()
        store.save_result("fp", "key", {"x": 1})
        # A shard checkpoint left by a store written before sweep rows
        # became result records: clear() still removes it.
        legacy = self.root / "sweeps" / "sweepkey" / "shard-0000.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text('{"schema": 1}')
        info = store.info()
        self.assertEqual(info["bundles"], 1)
        self.assertEqual(info["results"], 1)
        self.assertNotIn("shards", info)
        self.assertGreater(info["bytes"], 0)
        removed = store.clear()
        self.assertGreaterEqual(removed, 5)  # npz + manifest + result...
        self.assertEqual(store.info()["bundles"], 0)
        self.assertEqual(store.info()["results"], 0)
        self.assertFalse(legacy.exists())

    def test_concurrent_same_key_bundle_writers(self):
        # Satellite requirement: the store stays consistent when many
        # shard workers save the same bundle at once.  Threads exercise
        # the same lock/atomic-replace code paths as processes.
        import threading

        store = ArtifactStore(self.root)
        ctx = AnalysisContext(load_circuit("c17"))
        bundle = ArtifactBundle.snapshot(ctx)
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    store.save_bundle(bundle)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.assertEqual(errors, [])
        self.assertTrue(store.has_bundle(bundle.bundle_key))
        self.assertEqual(store.load_bundle(bundle.bundle_key), bundle)
        # No stray lock or temp files survive the stampede.
        leftovers = [p for p in self.root.rglob("*")
                     if p.is_file() and (p.suffix == ".lock"
                                         or p.name.startswith("."))]
        self.assertEqual(leftovers, [])

    def test_stale_lock_is_broken(self):
        import time as _time

        from repro.artifacts import store as store_mod

        store = ArtifactStore(self.root)
        ctx = AnalysisContext(load_circuit("c17"))
        bundle = ArtifactBundle.snapshot(ctx)
        key = bundle.bundle_key
        lock = store._bundle_dir(key) / f"{key}.lock"
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.touch()
        stale = _time.time() - 10 * store_mod.LOCK_STALE_SECONDS
        os.utime(lock, (stale, stale))
        store.save_bundle(bundle)  # breaks the orphan lock, no hang
        self.assertTrue(store.has_bundle(key))
        self.assertFalse(lock.exists())


class TestBundledSweeps(unittest.TestCase):
    CIRCUITS = ["c17", "c17"]

    def test_bundled_equals_rebuilt_co_optimization(self):
        job = CoOptimizationJob(circuit="c17", profile=PROFILE,
                                lifetime=TEN_YEARS, n_vectors=8,
                                max_set_size=3, seed=1)
        bundle = ArtifactBundle.snapshot(
            AnalysisContext(load_circuit("c17")))
        shipped = job.compute(bundle.hydrate())
        rebuilt = job.compute(AnalysisContext(load_circuit("c17")))
        self.assertEqual(shipped, rebuilt)

    def test_pooled_bundled_equals_serial_bundled(self):
        kw = dict(n_vectors=8, max_set_size=3, seed=1)
        serial = run_co_optimization_sweep(self.CIRCUITS, PROFILE,
                                           TEN_YEARS, max_workers=1, **kw)
        pooled = run_co_optimization_sweep(self.CIRCUITS, PROFILE,
                                           TEN_YEARS, max_workers=2, **kw)
        self.assertEqual(serial, pooled)

    def test_direct_worker_without_bundle_matches(self):
        # A rebuilt circuit gives the sweep's row, also on a warm
        # circuit the serial path reuses for a repeated name.
        job = CoOptimizationJob(circuit="c17", profile=PROFILE,
                                lifetime=TEN_YEARS, n_vectors=8,
                                max_set_size=3, seed=1)
        direct = job.compute(AnalysisContext(load_circuit("c17")))
        rows = run_co_optimization_sweep(["c17", "c17"], PROFILE,
                                         TEN_YEARS, n_vectors=8,
                                         max_set_size=3, seed=1,
                                         max_workers=1)
        self.assertEqual(rows, [direct, direct])

    def test_bundled_equals_rebuilt_potential_sweep(self):
        job = PotentialSweepJob(circuit="c17",
                                t_standby_values=(330.0, 400.0))
        bundle = ArtifactBundle.snapshot(
            AnalysisContext(load_circuit("c17")))
        shipped = job.compute(bundle.hydrate())
        rebuilt = job.compute(AnalysisContext(load_circuit("c17")))
        self.assertEqual(shipped, rebuilt)
        self.assertEqual(run_potential_sweep(["c17"], (330.0, 400.0),
                                             max_workers=1)["c17"],
                         shipped)

    def test_sweep_with_store_round_trip(self):
        import tempfile

        kw = dict(n_vectors=8, max_set_size=3, seed=1, max_workers=1)
        plain = run_co_optimization_sweep(["c17"], PROFILE, TEN_YEARS, **kw)
        with tempfile.TemporaryDirectory() as d:
            s1 = ArtifactStore(d)
            cold = run_co_optimization_sweep(["c17"], PROFILE, TEN_YEARS,
                                             store=s1, **kw)
            self.assertEqual(s1.stats.misses("bundle"), 1)
            self.assertEqual(s1.stats.misses("result"), 1)
            s2 = ArtifactStore(d)
            warm = run_co_optimization_sweep(["c17"], PROFILE, TEN_YEARS,
                                             store=s2, **kw)
            # The warm row is answered from its result record alone.
            self.assertEqual(s2.stats.hits("result"), 1)
            self.assertEqual(s2.stats.misses("result"), 0)
            self.assertEqual(s2.stats.hits("bundle"), 0)
            self.assertEqual(s2.stats.misses("bundle"), 0)
        self.assertEqual(cold, plain)
        self.assertEqual(warm, plain)


class TestVectorizedSampling(unittest.TestCase):
    """Satellite: one RNG call per chunk, bit-identical draws."""

    def _oracle(self, model, circuit, n, seed, names):
        rng = random.Random(seed)
        dies = [model.sample(circuit, rng) for _ in range(n)]
        return np.array([[die[g] for die in dies] for g in names])

    def test_bit_identical_to_scalar_loop(self):
        """``iter_sample_matrix`` at chunk sizes 1, 2, 4 and n equals n
        sequential ``sample`` calls on one ``Random(seed)``, rows in the
        compiled kernel's gate order."""
        from repro.sta.compiled import CompiledTiming
        from repro.variation.sampling import VariationModel

        circuit = load_circuit("c432")
        names = CompiledTiming(circuit).gate_names
        models = [VariationModel(),
                  VariationModel(sigma_local=0.01, sigma_global=0.02),
                  VariationModel(sigma_local=0.0, sigma_global=0.02),
                  VariationModel(sigma_local=0.0, sigma_global=0.0),
                  VariationModel(sigma_local=0.5, sigma_global=0.3,
                                 truncate_sigmas=1.0),
                  VariationModel(sigma_local=0.02, sigma_global=0.01,
                                 truncate_sigmas=0.5)]
        for model in models:
            for seed in (0, 7, 12345):
                for n in (1, 2, 3, 17):
                    want = self._oracle(model, circuit, n, seed, names)
                    for chunk in sorted({1, 2, 4, n}):
                        got = np.hstack([part for _, part in
                                         model.iter_sample_matrix(
                                             circuit, n, seed,
                                             chunk_samples=chunk,
                                             gate_order=names)])
                        self.assertTrue(np.array_equal(got, want),
                                        (model, seed, n, chunk))


class TestGatedLifetimeSeries(unittest.TestCase):
    """Satellite: the (year, drop) grid through one delays_batch call."""

    def test_bit_identical_to_per_point_calls(self):
        from repro.sleep import (SleepStyle, design_sleep_transistor,
                                 gated_aged_delay, gated_lifetime_series)

        circuit = load_circuit("c432")
        ctx = AnalysisContext(circuit)
        times = [0.0, TEN_YEARS * 0.25, TEN_YEARS]
        for style in (SleepStyle.HEADER, SleepStyle.FOOTER, SleepStyle.BOTH):
            design = design_sleep_transistor(circuit, style, beta=0.05,
                                             context=ctx)
            series = gated_lifetime_series(circuit, design, PROFILE, times,
                                           context=ctx)
            oracle = [gated_aged_delay(circuit, design, PROFILE, t,
                                       context=ctx) for t in times]
            self.assertEqual(series, oracle, style)

    def test_single_propagation_for_whole_grid(self):
        from repro.sleep import (SleepStyle, design_sleep_transistor,
                                 gated_lifetime_series)

        circuit = load_circuit("c17")
        ctx = AnalysisContext(circuit)
        design = design_sleep_transistor(circuit, SleepStyle.HEADER,
                                         beta=0.05, context=ctx)
        registry = obs.MetricsRegistry()
        tracer = obs.Tracer()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            gated_lifetime_series(circuit, design, PROFILE,
                                  [0.0, TEN_YEARS * 0.5, TEN_YEARS],
                                  context=ctx)
        snapshot = registry.snapshot()
        self.assertEqual(
            _counter_total(snapshot, "sta.compiled.batch_calls"), 1)
        self.assertEqual(_counter_total(snapshot, "sleep.gated_points"), 3)


if __name__ == "__main__":
    unittest.main()
