"""Source records: a stored answer for a ``.bench`` file skips the parse.

A source record maps the sha256 of a netlist file's bytes (and the
parser version) to the fingerprint of the circuit parsed from exactly
those bytes.  ``repro age --store``, ``repro sweep --store`` and
``AnalysisService.submit`` resolve circuits through it, so a warm
answer reads the file, hashes it and reads two small records.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.artifacts import ArtifactStore, circuit_fingerprint, resolve_source
from repro.cli import main
from repro.netlist import bench, save_bench, scale_circuit
from repro.serve import DONE, AgeScenario, AnalysisService, ServeConfig

SWEEP_ARGS = ["--vectors", "8", "--set-size", "2"]
WARM_NOTE = "store: bundle hits=0 misses=0, result hits=1 misses=0"


def _store_scope(doc):
    [entry] = [e for e in doc["cache_stats"]
               if e["scope"].startswith("store:")]
    return entry["artifacts"]


def _counter(doc, name):
    entry = doc["metrics"].get(name)
    return sum(entry["values"].values()) if entry else 0


def _run(capsys, argv, report=None):
    """One in-process command: ``(stdout, stderr, RunReport or None)``."""
    extra = ["--metrics", str(report)] if report is not None else []
    assert main(argv + extra) == 0
    captured = capsys.readouterr()
    doc = json.loads(report.read_text()) if report is not None else None
    return captured.out, captured.err, doc


def _store_note(err):
    [note] = [line for line in err.splitlines() if line.startswith("store:")]
    return note


@pytest.fixture
def netlist(tmp_path):
    """A 300-gate ``.bench`` file."""
    path = tmp_path / "g.bench"
    save_bench(scale_circuit(300, seed=1), path)
    return path


@pytest.fixture
def refuse_parse(monkeypatch):
    """Make any ``.bench`` parse fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("parse_bench called on a warm answer")

    def install():
        monkeypatch.setattr(bench, "parse_bench", refuse)
    return install


class TestWarmHitNeverParses:
    def test_age(self, tmp_path, capsys, netlist, refuse_parse):
        argv = ["age", str(netlist), "--store", str(tmp_path / "store")]
        cold, _, _ = _run(capsys, argv)
        refuse_parse()
        warm, err, doc = _run(capsys, argv, tmp_path / "warm.json")
        assert warm == cold
        assert _store_note(err) == WARM_NOTE
        assert _store_scope(doc) == {"result": {"hits": 1, "misses": 0},
                                     "source": {"hits": 1, "misses": 0}}

    def test_age_in_a_fresh_interpreter(self, tmp_path, netlist):
        code = ("import sys\n"
                "import repro.netlist.bench as bench\n"
                "def refuse(*args, **kwargs):\n"
                "    raise SystemExit('parse_bench called')\n"
                "bench.parse_bench = refuse\n"
                "from repro.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["age", str(netlist), "--store", str(tmp_path / "store")]
        cold = subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert cold.returncode == 0, cold.stderr
        warm = subprocess.run([sys.executable, "-c", code, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout == cold.stdout
        assert _store_note(warm.stderr) == WARM_NOTE

    def test_sweep(self, tmp_path, capsys, netlist, refuse_parse):
        other = tmp_path / "o.bench"
        save_bench(bench.load_packaged("c17"), other)
        argv = ["sweep", str(netlist), str(other), *SWEEP_ARGS,
                "--store", str(tmp_path / "store")]
        cold, _, _ = _run(capsys, argv)
        refuse_parse()
        warm, err, doc = _run(capsys, argv, tmp_path / "warm.json")
        assert warm == cold
        assert _store_note(err) == ("store: bundle hits=0 misses=0, "
                                    "result hits=2 misses=0")
        assert _store_scope(doc) == {"result": {"hits": 2, "misses": 0},
                                     "source": {"hits": 2, "misses": 0}}

    def test_served_submit(self, tmp_path, capsys, netlist, refuse_parse):
        store_dir = tmp_path / "store"
        _run(capsys, ["age", str(netlist), "--store", str(store_dir)])
        [record] = store_dir.glob("results/*/*.json")
        refuse_parse()
        service = AnalysisService(ArtifactStore(store_dir), ServeConfig())
        try:
            job = service.submit(str(netlist), AgeScenario())
            assert job.state == DONE and job.cached
            assert job.circuit_name == "g"
            assert job.circuit_fp == record.parent.name
            _, numbers = service.result(job.job_id)
            assert numbers == json.loads(record.read_text())
        finally:
            service.stop(drain=False)


class TestSweepParsesOnce:
    @pytest.mark.parametrize("store", [False, True],
                             ids=["no-store", "cold-store"])
    def test_each_file_parsed_once(self, tmp_path, capsys, monkeypatch,
                                   netlist, store):
        other = tmp_path / "o.bench"
        save_bench(bench.load_packaged("c17"), other)
        parsed = []
        real = bench.parse_bench

        def counting(text, name="bench"):
            parsed.append(name)
            return real(text, name)
        monkeypatch.setattr(bench, "parse_bench", counting)
        argv = ["sweep", str(netlist), str(other), str(netlist),
                *SWEEP_ARGS, "--workers", "1"]
        if store:
            argv += ["--store", str(tmp_path / "store")]
        _run(capsys, argv)
        assert sorted(parsed) == ["g", "o"]


class TestSourceRecordFollowsTheFile:
    """A source record maps only bytes that were parsed."""

    def _age(self, capsys, tmp_path, netlist, label):
        argv = ["age", str(netlist), "--store", str(tmp_path / "store")]
        out, err, doc = _run(capsys, argv, tmp_path / f"{label}.json")
        return out, _store_scope(doc), doc

    def test_gate_edit_is_a_source_and_result_miss(self, tmp_path, capsys,
                                                  netlist):
        self._age(capsys, tmp_path, netlist, "cold")
        text = netlist.read_text()
        edited = text.replace(" = NAND(", " = NOR(", 1)
        assert edited != text
        netlist.write_text(edited)
        out, scope, _ = self._age(capsys, tmp_path, netlist, "edited")
        assert scope["source"] == {"hits": 0, "misses": 1}
        assert scope["result"] == {"hits": 0, "misses": 1}
        fresh, _, _ = _run(capsys, ["age", str(netlist)])
        assert out == fresh
        _, scope, _ = self._age(capsys, tmp_path, netlist, "warm")
        assert scope["source"] == {"hits": 1, "misses": 0}
        assert scope["result"] == {"hits": 1, "misses": 0}

    def test_comment_edit_is_a_source_miss_and_a_result_hit(
            self, tmp_path, capsys, netlist):
        cold, _, _ = self._age(capsys, tmp_path, netlist, "cold")
        with netlist.open("a") as fh:
            fh.write("# a comment changes the bytes, not the circuit\n")
        out, scope, _ = self._age(capsys, tmp_path, netlist, "commented")
        assert out == cold
        assert scope == {"source": {"hits": 0, "misses": 1},
                         "result": {"hits": 1, "misses": 0}}
        assert len(list((tmp_path / "store").glob("sources/*.json"))) == 2

    def test_new_parser_version_misses_every_record(self, tmp_path, capsys,
                                                    monkeypatch, netlist):
        cold, _, _ = self._age(capsys, tmp_path, netlist, "cold")
        monkeypatch.setattr(bench, "PARSER_VERSION",
                            bench.PARSER_VERSION + 1)
        out, scope, _ = self._age(capsys, tmp_path, netlist, "new-parser")
        assert out == cold
        assert scope == {"source": {"hits": 0, "misses": 1},
                         "result": {"hits": 1, "misses": 0}}
        _, scope, _ = self._age(capsys, tmp_path, netlist, "again")
        assert scope["source"] == {"hits": 1, "misses": 0}

    @pytest.mark.parametrize("damage, fault", [
        (b"", "corrupt"),
        (b'{"sha256": ', "corrupt"),
        (b"[]", "corrupt"),
        (b"{}", "invalid"),
        ({"sha256": "0" * 64}, "invalid"),
        ({"parser_version": -1}, "invalid"),
        ({"circuit_fp": 42}, "invalid"),
        ({"circuit_fp": "not-a-fingerprint"}, "invalid"),
    ], ids=["empty", "truncated", "not-an-object", "empty-object",
            "other-bytes", "other-parser", "wrong-type", "malformed-fp"])
    def test_damaged_record_is_a_counted_miss_and_rewritten(
            self, tmp_path, capsys, netlist, damage, fault):
        cold, _, _ = self._age(capsys, tmp_path, netlist, "cold")
        [record] = (tmp_path / "store").glob("sources/*.json")
        good = record.read_bytes()
        if isinstance(damage, dict):
            damage = json.dumps(dict(json.loads(good), **damage)).encode()
        record.write_bytes(damage)
        out, scope, doc = self._age(capsys, tmp_path, netlist, "damaged")
        assert out == cold
        assert scope == {"source": {"hits": 0, "misses": 1},
                         "result": {"hits": 1, "misses": 0}}
        assert _counter(doc, f"store.source_{fault}") == 1
        assert record.read_bytes() == good

    def test_store_without_source_records_still_answers(self, tmp_path,
                                                        capsys, netlist):
        # A store written before source records existed has results/
        # but no sources/: its first run hits the result record.
        cold, _, _ = self._age(capsys, tmp_path, netlist, "cold")
        for record in (tmp_path / "store").glob("sources/*.json"):
            record.unlink()
        out, scope, _ = self._age(capsys, tmp_path, netlist, "old-store")
        assert out == cold
        assert scope == {"source": {"hits": 0, "misses": 1},
                         "result": {"hits": 1, "misses": 0}}

    def test_resolved_circuit_parses_the_bytes_it_hashed(self, tmp_path,
                                                         netlist):
        store = ArtifactStore(tmp_path / "store")
        first = resolve_source(str(netlist), store)
        expected = first.circuit_fp
        resolved = resolve_source(str(netlist), store)  # a source hit
        save_bench(scale_circuit(300, seed=2), netlist)
        assert resolved.circuit_fp == expected
        assert circuit_fingerprint(resolved.circuit()) == expected
        assert resolved.circuit() is resolved.circuit()


class TestStandInsAndErrors:
    def test_stand_in_keeps_no_source_record(self, tmp_path, capsys):
        store = tmp_path / "store"
        _, _, doc = _run(capsys, ["age", "c432", "--store", str(store)],
                         tmp_path / "r.json")
        assert "source" not in _store_scope(doc)
        assert not (store / "sources").exists()

    def test_lookup_order_is_stand_in_packaged_path(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("c432", "c17"):
            (tmp_path / name).write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        store = ArtifactStore(tmp_path / "store")
        assert resolve_source("c432", store).circuit().n_gates() > 100
        c17 = resolve_source("c17", store)
        assert c17.name == "c17" and c17.circuit().n_gates() == 6
        mini = tmp_path / "mini.bench"
        mini.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert resolve_source(str(mini), store).name == "mini"

    @pytest.mark.parametrize("name, write", [
        ("c9999", None),
        ("netlists", "dir"),
        ("latin1.bench", b"INPUT(a)\nOUTPUT(y)\n# caf\xe9\ny = NOT(a)\n"),
        ("bad.bench", b"INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"),
        ("twice.bench", b"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"),
    ], ids=["unknown", "directory", "not-utf8", "bad-gate", "structural"])
    def test_error_lines_match_the_store_free_path(self, tmp_path,
                                                   monkeypatch, name,
                                                   write):
        monkeypatch.chdir(tmp_path)
        if write == "dir":
            (tmp_path / name).mkdir()
        elif write is not None:
            (tmp_path / name).write_bytes(write)
        messages = []
        for extra in ([], ["--store", "store"]):
            with pytest.raises(SystemExit) as exc:
                main(["age", name, *extra])
            messages.append(exc.value.code)
        assert messages[0] == messages[1]
        assert messages[0].startswith("error: ")
        assert not (tmp_path / "store" / "sources").exists()

    def test_non_utf8_error_is_the_read_text_error(self, tmp_path):
        path = tmp_path / "latin1.bench"
        path.write_bytes(b"INPUT(a)\nOUTPUT(y)\n# caf\xe9\ny = NOT(a)\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            path.read_text()
        with pytest.raises(SystemExit) as exc:
            main(["age", str(path), "--store", str(tmp_path / "store")])
        assert exc.value.code == f"error: {expected.value}"


class TestStoreNamespace:
    def test_info_clear_and_cache_info(self, tmp_path, capsys, netlist):
        store_dir = tmp_path / "store"
        _run(capsys, ["age", str(netlist), "--store", str(store_dir)])
        store = ArtifactStore(store_dir)
        assert store.info()["sources"] == 1
        out, _, _ = _run(capsys, ["cache", "info", "--store",
                                  str(store_dir)])
        assert "sources        : 1\n" in out
        store.clear()
        assert not (store_dir / "sources").exists()
        assert store.info()["sources"] == 0

    def test_rejected_record_is_a_counted_miss_never_a_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save_result("fp", "key", {"x": 0.5})
        registry = obs.MetricsRegistry()
        with obs.use_tracer(obs.Tracer()), obs.use_metrics(registry):
            assert store.load_result("fp", "key", lambda p: None) is None
            assert not store.has_result("fp", "key", lambda p: None)
            assert store.load_result("fp", "key", dict) == {"x": 0.5}
        counters = registry.snapshot()
        assert _counter({"metrics": counters}, "store.result_invalid") == 1
        assert store.stats.snapshot()["result"] == {"hits": 1, "misses": 1}
