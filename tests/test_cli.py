"""Tests for the command-line interface."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import build_parser, main, resolve_circuit
from repro.obs import schema_errors


class TestResolveCircuit:
    def test_iscas_name(self):
        assert resolve_circuit("c432").name == "c432"

    def test_packaged_name(self):
        c = resolve_circuit("c17")
        assert c.n_gates() == 6

    def test_bench_path(self, tmp_path):
        path = tmp_path / "mini.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        c = resolve_circuit(str(path))
        assert c.name == "mini"

    def test_unknown_exits(self):
        with pytest.raises(SystemExit, match="unknown circuit"):
            resolve_circuit("c9999")


def _run_cli(*argv, cwd):
    """``python -m repro <argv>`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestBadInput:
    """Bad input ends in one ``error:`` line on stderr, not a traceback."""

    def assert_one_line_error(self, proc):
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_unknown_gate_type(self, tmp_path):
        (tmp_path / "bad.bench").write_text(
            "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
        proc = _run_cli("age", "bad.bench", cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "unknown gate type" in proc.stderr

    def test_negative_standby_temperature(self, tmp_path):
        proc = _run_cli("age", "c17", "--t-standby", "-5", cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "kelvin" in proc.stderr

    def test_negative_years(self, tmp_path):
        proc = _run_cli("age", "c17", "--years", "-1", cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "--years" in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["--years", "nan"], "--years"),
        (["--years", "inf"], "--years"),
        (["--t-standby", "nan"], "kelvin"),
    ], ids=["nan-years", "inf-years", "nan-standby-temperature"])
    def test_non_finite_profile_flag(self, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["age", "c17", *argv])
        assert str(exc.value.code).startswith("error: ")
        assert message in str(exc.value.code)

    @pytest.mark.parametrize("argv, message", [
        (["mlv", "c17", "--vectors", "1"], "--vectors"),
        (["mlv", "c17", "--set-size", "0"], "--set-size"),
        (["sweep", "c17", "--vectors", "1", "--store", "s"], "--vectors"),
        (["sweep", "c17", "--set-size", "0", "--store", "s"], "--set-size"),
    ], ids=["mlv-vectors", "mlv-set-size", "sweep-vectors",
            "sweep-set-size"])
    def test_unusable_search(self, tmp_path, argv, message):
        proc = _run_cli(*argv, cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert message in proc.stderr
        assert not (tmp_path / "s").exists()  # nothing lowered or stored

    @pytest.mark.parametrize("command", ["age", "info", "sweep"])
    def test_combinational_cycle(self, tmp_path, command):
        (tmp_path / "loop.bench").write_text(
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n")
        proc = _run_cli(command, "loop.bench", cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "structural error: combinational cycle" in proc.stderr

    @pytest.mark.parametrize("command", ["age", "info", "sweep"])
    @pytest.mark.parametrize("text", [
        "INPUT(a)\nOUTPUT(a)\ny = NOT(a)\n", "INPUT(a)\nOUTPUT(a)\n",
    ], ids=["gate-off-output", "no-gate"])
    def test_no_gate_on_any_output(self, tmp_path, command, text):
        # Every path would be empty: a zero fresh delay, no ratio.
        (tmp_path / "z.bench").write_text(text)
        extra = (["--vectors", "8", "--set-size", "2"]
                 if command == "sweep" else [])
        proc = _run_cli(command, "z.bench", *extra, cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "no OUTPUT is driven by a gate" in proc.stderr

    def test_no_gate_on_any_output_with_store(self, tmp_path):
        (tmp_path / "z.bench").write_text("INPUT(a)\nOUTPUT(a)\n")
        proc = _run_cli("age", "z.bench", "--store", "S", cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "no OUTPUT is driven by a gate" in proc.stderr

    def test_age_checks_flags_before_the_store(self, tmp_path):
        (tmp_path / "copy.bench").write_text(
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        proc = _run_cli("age", "copy.bench", "--store", "S", "--years", "-1",
                        cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert proc.stderr == ("error: --years must be a finite number "
                               ">= 0, got -1\n")
        assert not (tmp_path / "S").exists()

    def test_bench_without_output(self, tmp_path):
        (tmp_path / "empty.bench").write_text("")
        proc = _run_cli("age", "empty.bench", cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "no OUTPUT" in proc.stderr

    def test_directory_path(self, tmp_path):
        (tmp_path / "netlists").mkdir()
        proc = _run_cli("age", "netlists", cwd=tmp_path)
        self.assert_one_line_error(proc)
        assert "cannot read" in proc.stderr


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "c17"]) == 0
        out = capsys.readouterr().out
        assert "c17: 5 inputs, 2 outputs, 6 gates" in out
        assert "NAND2" in out

    def test_age_worst(self, capsys):
        assert main(["age", "c17", "--ras", "1:5", "--years", "10"]) == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        assert "RAS 1:5" in out

    def test_age_best_below_worst(self, capsys):
        main(["age", "c17", "--t-standby", "400", "--standby", "worst"])
        worst = capsys.readouterr().out
        main(["age", "c17", "--t-standby", "400", "--standby", "best"])
        best = capsys.readouterr().out

        def deg(text):
            line = next(l for l in text.splitlines() if "degradation" in l)
            return float(line.split(":")[1].strip().rstrip("%"))

        assert deg(best) < deg(worst)

    def test_mlv(self, capsys):
        assert main(["mlv", "c17", "--vectors", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "chosen MLV" in out
        assert "aged degradation" in out

    def test_sleep_header(self, capsys):
        assert main(["sleep", "c17", "--beta", "0.03", "--nbti-aware"]) == 0
        out = capsys.readouterr().out
        assert "header dVth" in out
        assert "NBTI-aware sizing" in out

    def test_sleep_footer_no_header_line(self, capsys):
        assert main(["sleep", "c17", "--style", "footer"]) == 0
        out = capsys.readouterr().out
        assert "header dVth" not in out

    def test_guardband(self, capsys):
        assert main(["guardband", "--t-standby", "400"]) == 0
        out = capsys.readouterr().out
        assert "delay margin" in out

    def test_guardband_header_is_exact(self, capsys):
        assert main(["guardband", "--ras", "1:300", "--t-active",
                     "400.4"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == \
            "scenario: RAS 1:300, 400.4 K / 330 K, Vth0 0.22 V"

    def test_guardband_vth0_is_exact(self, capsys):
        lines = []
        for vth0 in ("0.2200001", "0.2200002"):
            assert main(["guardband", "--vth0", vth0]) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines == [
            "scenario: RAS 1:9, 400 K / 330 K, Vth0 0.2200001 V",
            "scenario: RAS 1:9, 400 K / 330 K, Vth0 0.2200002 V"]

    def test_table4_title_is_exact(self, capsys):
        titles = []
        for argv in (["--years", "1234567"], ["--years", "1234568"],
                     ["--ras", "2:18"], []):
            assert main(["table4", "c17", *argv]) == 0
            titles.append(capsys.readouterr().out.splitlines()[0])
        assert titles == [
            f"c17: internal-node-control potential ({tail})"
            for tail in ("RAS 1:9, 1234567 years", "RAS 1:9, 1234568 years",
                         "RAS 1:9, 10 years", "RAS 1:9, 10 years")]

    def test_age_header_is_exact(self, capsys):
        headers = []
        for ras in ("1:200", "1:300"):
            assert main(["age", "c17", "--ras", ras, "--t-active",
                         "400.4", "--years", "2.5"]) == 0
            headers.append(capsys.readouterr().out.splitlines()[1])
        assert headers == [
            "scenario       : RAS 1:200, 400.4 K / 330 K, 2.5 years, "
            "worst-case standby",
            "scenario       : RAS 1:300, 400.4 K / 330 K, 2.5 years, "
            "worst-case standby"]

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "330 K" in out and "400 K" in out
        assert "9:1" in out and "1:9" in out

    def test_paths(self, capsys):
        assert main(["paths", "c17", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "longest paths" in out
        assert out.count("->") >= 3

    def test_paths_aged(self, capsys):
        main(["paths", "c17", "-k", "1"])
        fresh = capsys.readouterr().out
        main(["paths", "c17", "-k", "1", "--aged", "--t-standby", "400"])
        aged = capsys.readouterr().out

        def top_delay(text):
            row = text.splitlines()[3]
            return float(row.split("|")[1])

        assert top_delay(aged) > top_delay(fresh)

    def test_table4(self, capsys):
        assert main(["table4", "c17"]) == 0
        out = capsys.readouterr().out
        assert "potential" in out
        assert "330 K" in out and "400 K" in out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_info_reports_engines(self, capsys):
        assert main(["info", "c17"]) == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out
        assert "compiled STA/aging kernels: available" in out
        assert "packed bit-parallel simulation: available" in out
        assert "scalar oracle paths: available" in out

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for cmd in ("info", "age", "mlv", "sleep", "guardband", "table1",
                    "paths", "table4", "sweep", "generate"):
            assert cmd in help_text


class TestGenerateCli:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.bench", tmp_path / "b.bench"
        assert main(["generate", str(a), "--gates", "300",
                     "--seed", "5"]) == 0
        out_a = capsys.readouterr().out
        assert main(["generate", str(b), "--gates", "300",
                     "--seed", "5"]) == 0
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()

        def fingerprint(text):
            return next(line for line in text.splitlines()
                        if line.startswith("fingerprint"))

        assert fingerprint(out_a) == fingerprint(out_b)

    def test_seed_changes_netlist(self, tmp_path, capsys):
        a, b = tmp_path / "a.bench", tmp_path / "b.bench"
        main(["generate", str(a), "--gates", "300", "--seed", "0"])
        main(["generate", str(b), "--gates", "300", "--seed", "1"])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_printed_stats_match_info_on_reload(self, tmp_path, capsys):
        # The reported profile describes the circuit *as written*, so
        # `repro info` on the file agrees even though the exporter
        # expands AOI/OAI cells into multi-gate decompositions.
        path = tmp_path / "g.bench"
        assert main(["generate", str(path), "--gates", "300"]) == 0
        gen = capsys.readouterr().out
        profile = next(line for line in gen.splitlines()
                       if line.startswith("profile"))
        counts = profile.split(":", 1)[1].split("(target")[0].strip()
        assert main(["info", str(path)]) == 0
        assert counts.rstrip(", ") in capsys.readouterr().out

    def test_custom_dims_and_name(self, tmp_path, capsys):
        path = tmp_path / "g.bench"
        assert main(["generate", str(path), "--gates", "300",
                     "--inputs", "16", "--outputs", "4",
                     "--name", "mychip"]) == 0
        out = capsys.readouterr().out
        assert "generated      : mychip" in out
        assert "16 inputs, 4 outputs" in out
        # .bench carries no name record: reloads are named by file stem.
        c = resolve_circuit(str(path))
        assert len(c.primary_inputs) == 16
        assert len(c.primary_outputs) == 4

    def test_generated_circuit_ages(self, tmp_path, capsys):
        path = tmp_path / "g.bench"
        assert main(["generate", str(path), "--gates", "300"]) == 0
        capsys.readouterr()
        assert main(["age", str(path), "--ras", "1:5",
                     "--years", "10"]) == 0
        assert "degradation" in capsys.readouterr().out


class TestAgeStoreCli:
    """``age --store``: the result record answers a warm run on its own."""

    @staticmethod
    def _age(capsys, argv, report):
        assert main(argv + ["--metrics", str(report)]) == 0
        out = capsys.readouterr().out
        return out, json.loads(report.read_text())

    @staticmethod
    def _counter(doc, name) -> int:
        entry = doc["metrics"].get(name)
        return sum(entry["values"].values()) if entry else 0

    def _lowerings(self, doc) -> int:
        return sum(self._counter(doc, name) for name in doc["metrics"]
                   if name.endswith(".lowerings"))

    @staticmethod
    def _store_scope(doc):
        [entry] = [e for e in doc["cache_stats"]
                   if e["scope"].startswith("store:")]
        return {name: {k: entry["artifacts"].get(name, {}).get(k, 0)
                       for k in ("hits", "misses")}
                for name in ("bundle", "result")}

    def test_warm_run_reads_only_the_result_record(self, tmp_path, capsys):
        argv = ["age", "c432", "--store", str(tmp_path / "store")]
        cold_out, cold = self._age(capsys, argv, tmp_path / "cold.json")
        assert self._lowerings(cold) > 0
        warm_out, warm = self._age(capsys, argv, tmp_path / "warm.json")
        assert warm_out == cold_out
        assert self._counter(warm, "artifacts.hydrations") == 0
        assert self._lowerings(warm) == 0
        assert self._store_scope(warm) == {
            "bundle": {"hits": 0, "misses": 0},
            "result": {"hits": 1, "misses": 0}}
        # A result miss on the same circuit computes on a plain context:
        # no bundle is read, hydrated or written.
        assert main(["age", "c432", "--ras", "1:5"]) == 0
        plain = capsys.readouterr().out
        other_out, other = self._age(capsys, argv + ["--ras", "1:5"],
                                     tmp_path / "other.json")
        assert other_out == plain
        assert self._store_scope(other) == {
            "bundle": {"hits": 0, "misses": 0},
            "result": {"hits": 0, "misses": 1}}
        assert self._counter(other, "artifacts.hydrations") == 0
        assert not list((tmp_path / "store").glob("bundles/*/*"))

    @pytest.mark.parametrize("name", ["c432", "bench"])
    def test_age_stores_no_bundle(self, tmp_path, capsys, name):
        if name == "bench":
            name = str(tmp_path / "g.bench")
            assert main(["generate", name, "--gates", "300"]) == 0
        store = tmp_path / "store"
        for ras, note in (("1:9", "result hits=0 misses=1"),
                          ("1:9", "result hits=1 misses=0"),
                          ("1:5", "result hits=0 misses=1")):
            capsys.readouterr()
            assert main(["age", name, "--ras", ras]) == 0
            plain = capsys.readouterr().out
            assert main(["age", name, "--ras", ras, "--store",
                         str(store)]) == 0
            captured = capsys.readouterr()
            assert captured.out == plain
            assert f"bundle hits=0 misses=0, {note}" in captured.err
        assert len(list(store.glob("results/*/*.json"))) == 2
        assert not (store / "bundles").exists()

    @pytest.mark.parametrize("name", ["c432", "c17"])
    def test_store_with_a_bundle_still_answers(self, tmp_path, capsys,
                                               name):
        # The layout an earlier ``age --store`` left: the result record
        # (and for a netlist file its source record) plus the circuit's
        # bundle, which ``cache warm`` writes the same way.
        store = tmp_path / "store"
        argv = ["age", name, "--store", str(store)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(["cache", "warm", name, "--store", str(store)]) == 0
        capsys.readouterr()
        bundle = {p: p.read_bytes() for p in store.glob("bundles/*/*")}
        assert len(bundle) == 2
        warm_out, warm = self._age(capsys, argv, tmp_path / "warm.json")
        assert warm_out == cold
        assert self._store_scope(warm)["result"] == {"hits": 1, "misses": 0}
        # A new scenario computes and ignores the stored bundle.
        assert main(["age", name, "--years", "5"]) == 0
        plain = capsys.readouterr().out
        other_out, other = self._age(capsys, argv + ["--years", "5"],
                                     tmp_path / "other.json")
        assert other_out == plain
        assert self._store_scope(other) == {
            "bundle": {"hits": 0, "misses": 0},
            "result": {"hits": 0, "misses": 1}}
        assert self._counter(other, "artifacts.hydrations") == 0
        assert {p: p.read_bytes()
                for p in store.glob("bundles/*/*")} == bundle

    @pytest.mark.parametrize("damage", ["empty", "truncated", "no-numbers"])
    def test_damaged_result_record_is_recomputed(self, tmp_path, capsys,
                                                 damage):
        store = tmp_path / "store"
        argv = ["age", "c17", "--store", str(store)]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        [record] = store.glob("results/*/*.json")
        good = record.read_bytes()
        record.write_bytes({"empty": b"", "truncated": good[:len(good) // 2],
                            "no-numbers": b"{}"}[damage])
        assert main(argv) == 0
        assert capsys.readouterr().out == cold_out
        assert record.read_bytes() == good
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cold_out
        assert "result hits=1 misses=0" in captured.err


    @pytest.mark.parametrize("damage", ["empty-object", "missing-field",
                                        "wrong-type"])
    def test_record_without_the_numbers_is_a_counted_miss(
            self, tmp_path, capsys, damage):
        store = tmp_path / "store"
        argv = ["age", "c17", "--store", str(store)]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        [record] = store.glob("results/*/*.json")
        good = record.read_bytes()
        record.write_text(json.dumps(_damaged(json.loads(good), damage,
                                              "max_shift", "aged_delay")))
        report = tmp_path / "damaged.json"
        assert main(argv + ["--metrics", str(report)]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold_out
        assert "result hits=0 misses=1" in captured.err
        doc = json.loads(report.read_text())
        assert self._counter(doc, "store.result_invalid") == 1
        assert record.read_bytes() == good


class TestDamagedRunRecord:
    def test_history_skips_it_and_diff_names_it(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for _ in range(2):
            assert main(["age", "c17", "--store", store]) == 0
        capsys.readouterr()
        damaged, good = sorted((tmp_path / "store").glob("runs/*.json"))
        damaged.write_bytes(damaged.read_bytes()[:40])
        assert main(["report", "history", "--store", store, "--ids"]) == 0
        assert capsys.readouterr().out.split() == [good.stem]
        for argv in (["diff", damaged.stem, good.stem],
                     ["timeline", damaged.stem]):
            assert main(["report", *argv, "--store", store]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "damaged" in err
            assert damaged.stem in err


class TestSweepStoreCli:
    """``sweep --store``: each row is a result record, so a re-run on
    the same store is the resume and prints the uninterrupted table."""

    ARGS = ["--vectors", "8", "--set-size", "2"]

    @staticmethod
    def _sweep(capsys, argv):
        assert main(["sweep", *argv]) == 0
        return capsys.readouterr()

    def test_warm_run_reads_only_row_records(self, tmp_path, capsys):
        argv = ["c17", "c432"] + self.ARGS
        plain = self._sweep(capsys, argv).out
        store = ["--store", str(tmp_path / "store")]
        cold = self._sweep(capsys, argv + store)
        assert cold.out == plain
        assert "bundle hits=0 misses=2, result hits=0 misses=2" in cold.err
        report = tmp_path / "warm.json"
        warm = self._sweep(capsys, argv + store + ["--metrics", str(report)])
        assert warm.out == plain
        assert "bundle hits=0 misses=0, result hits=2 misses=0" in warm.err
        doc = json.loads(report.read_text())
        for name in ("sta.compiled.lowerings", "artifacts.hydrations"):
            assert TestAgeStoreCli._counter(doc, name) == 0, name
        [scope] = [e for e in doc["cache_stats"]
                   if e["scope"].startswith("store:")]
        # c17 is a packaged netlist file, answered by its source record;
        # c432 is a stand-in, which has no file and no source record.
        assert scope["artifacts"] == {"result": {"hits": 2, "misses": 0},
                                      "source": {"hits": 1, "misses": 0}}
        names = {s["name"] for root in doc["spans"]
                 for s in _walk_spans(root)}
        assert "flow.run_sweep" not in names

    @pytest.mark.parametrize("part", ["manifest", "npz"])
    def test_damaged_bundle_is_rebuilt(self, tmp_path, capsys, part):
        store = ["--store", str(tmp_path / "store")]
        self._sweep(capsys, ["c17"] + self.ARGS + store)
        [manifest] = (tmp_path / "store").glob("bundles/*/*.json")
        target = manifest.with_suffix(".npz") if part == "npz" else manifest
        good = target.read_bytes()
        target.write_bytes(good[:len(good) // 2])
        # A new scenario misses the row and reads the damaged bundle.
        argv = ["c17", "--ras", "1:5"] + self.ARGS
        reference = self._sweep(capsys, argv).out
        report = tmp_path / "damaged.json"
        damaged = self._sweep(capsys, argv + store + ["--metrics",
                                                      str(report)])
        assert damaged.out == reference
        assert "bundle hits=0 misses=1, result hits=0 misses=1" in \
            damaged.err
        doc = json.loads(report.read_text())
        assert TestAgeStoreCli._counter(doc, "store.bundle_corrupt") == 1
        # The recompute rewrote the bundle: the next miss hydrates it.
        report = tmp_path / "next.json"
        rerun = self._sweep(capsys, ["c17", "--ras", "1:3"] + self.ARGS
                            + store + ["--metrics", str(report)])
        assert "bundle hits=1 misses=0, result hits=0 misses=1" in rerun.err
        doc = json.loads(report.read_text())
        assert TestAgeStoreCli._counter(doc, "artifacts.hydrations") > 0
        assert TestAgeStoreCli()._lowerings(doc) == 0

    def test_partial_then_full_is_byte_identical(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "store")]
        reference = self._sweep(capsys, ["c17", "c432"] + self.ARGS).out
        partial = self._sweep(capsys, ["c17"] + self.ARGS + store)
        assert "result hits=0 misses=1" in partial.err
        full = self._sweep(capsys, ["c17", "c432"] + self.ARGS + store)
        assert "result hits=1 misses=1" in full.err
        assert full.out == reference

    def test_ras_labels_do_not_alias(self, tmp_path, capsys):
        # RAS 1:200 and 1:300 rows are distinct records, keyed by the
        # exact profile fields, and their titles differ.
        store = ["--store", str(tmp_path / "store")]
        reference = self._sweep(capsys, ["c17", "--ras", "1:300"]
                                + self.ARGS).out
        other = self._sweep(capsys, ["c17", "--ras", "1:200"] + self.ARGS
                            + store)
        again = self._sweep(capsys, ["c17", "--ras", "1:300"]
                            + self.ARGS + store)
        assert "result hits=0 misses=1" in again.err
        assert again.out == reference
        assert len(list((tmp_path / "store").glob("results/*/*.json"))) == 2
        assert other.out.splitlines()[0] != reference.splitlines()[0]

    def test_title_is_exact(self, capsys):
        out = self._sweep(capsys, ["c17", "--ras", "1:300", "--t-active",
                                   "400.4", "--years", "2.5"]
                          + self.ARGS).out
        assert out.splitlines()[0] == ("co-optimization sweep (RAS 1:300, "
                                       "400.4 K / 330 K, 2.5 years)")

    def test_same_content_paths_print_their_own_names(self, tmp_path,
                                                      capsys):
        from repro.netlist import save_bench

        a, b = tmp_path / "a.bench", tmp_path / "b.bench"
        for path in (a, b):
            save_bench(resolve_circuit("c17"), path)
        store = ["--store", str(tmp_path / "store")]
        self._sweep(capsys, [str(a)] + self.ARGS + store)
        reference = self._sweep(capsys, [str(b)] + self.ARGS).out
        warm = self._sweep(capsys, [str(b)] + self.ARGS + store)
        assert "result hits=1 misses=0" in warm.err
        assert warm.out == reference
        assert str(b) in warm.out and str(a) not in warm.out

    @pytest.mark.parametrize("damage", ["empty-object", "missing-field",
                                        "wrong-type"])
    def test_record_without_the_row_is_a_counted_miss(self, tmp_path,
                                                      capsys, damage):
        argv = ["c17"] + self.ARGS + ["--store", str(tmp_path / "store")]
        cold = self._sweep(capsys, argv)
        [record] = (tmp_path / "store").glob("results/*/*.json")
        good = record.read_bytes()
        record.write_text(json.dumps(_damaged(json.loads(good), damage,
                                              "evaluated", "set_size")))
        again = self._sweep(capsys, argv)
        assert "result hits=0 misses=1" in again.err
        assert again.out == cold.out
        assert record.read_bytes() == good

    @pytest.mark.parametrize("flag", [["--shards", "2"], ["--resume"],
                                      ["--max-shards", "1"]],
                             ids=["shards", "resume", "max-shards"])
    def test_shard_flags_are_rejected(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "c17", "--store", str(tmp_path / "s")]
                 + self.ARGS + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _damaged(payload, damage, missing, mistyped):
    """A result payload that is still a JSON object but lacks the
    ``missing`` field or holds ``mistyped`` as a string."""
    if damage == "empty-object":
        return {}
    if damage == "missing-field":
        return {k: v for k, v in payload.items() if k != missing}
    return dict(payload, **{mistyped: str(payload[mistyped])})


class TestNoAbbreviatedFlags:
    """Only whole option names are accepted: a prefix is an error, not
    a silent guess at another flag."""

    @pytest.mark.parametrize("argv", [
        ["generate", "x.bench", "--gates", "200", "--out", "5"],
        ["age", "c17", "--sto", "S"],
        ["report", "history", "--store", "S", "--lim", "1"],
    ], ids=["generate-out", "age-sto", "report-lim"])
    def test_prefix_is_rejected(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _walk_spans(span):
    yield span
    for child in span.get("children", []):
        yield from _walk_spans(child)


class TestOneLoweringPerCommand:
    """Each command builds one context and passes it down, so the
    circuit is lowered once for timing and once for aging."""

    @pytest.mark.parametrize("argv", [
        ["table4", "c432"],
        ["sleep", "c432"],
        ["paths", "c432", "--aged", "-k", "5"],
    ], ids=["table4", "sleep", "paths-aged"])
    def test_lowers_once(self, argv, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(argv + ["--metrics", str(report)]) == 0
        capsys.readouterr()
        metrics = json.loads(report.read_text())["metrics"]
        for name in ("sta.compiled.lowerings", "aging.plan.lowerings"):
            assert sum(metrics[name]["values"].values()) == 1, name

    def test_age_orders_a_bench_file_once(self, tmp_path, capsys,
                                          monkeypatch):
        # The parse checks for cycles by ordering the gates; the
        # analysis reuses that order.
        from repro.netlist import save_bench
        from repro.netlist.circuit import Circuit
        from repro.netlist.generators import scale_circuit

        path = tmp_path / "g.bench"
        save_bench(scale_circuit(500, seed=1), path)
        computed = []
        real = Circuit.topological_order

        def counted(circuit):
            if circuit._topo_cache is None:
                computed.append(circuit.name)
            return real(circuit)

        monkeypatch.setattr(Circuit, "topological_order", counted)
        assert main(["age", str(path)]) == 0
        capsys.readouterr()
        assert computed == ["g"]


def test_cli_import_leaves_out_the_service_and_process_pools():
    # A command pays for the worker tier and the HTTP service only when
    # it uses them.
    code = ("import sys, repro.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('repro.serve') "
            "or m == 'concurrent.futures.process'))")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestObservabilityFlags:
    """--trace / --metrics / -v on any subcommand, before or after it."""

    def test_age_writes_trace_and_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "report.json"
        assert main(["age", "c17", "--trace", str(trace),
                     "--metrics", str(report)]) == 0
        capsys.readouterr()  # command output, not under test here
        lines = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        assert lines[0]["path"] == "repro.age"
        assert any(line["path"].startswith("repro.age/aging.")
                   for line in lines)
        doc = json.loads(report.read_text())
        assert schema_errors(doc) == []
        assert doc["label"] == "repro age"
        assert doc["meta"]["repro_version"] == __version__
        assert "aging.kernel.calls" in doc["metrics"]

    def test_flags_accepted_before_subcommand(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["--metrics", str(report), "info", "c17"]) == 0
        capsys.readouterr()
        assert schema_errors(json.loads(report.read_text())) == []

    def test_no_flags_means_no_collection(self, capsys):
        from repro import obs

        assert main(["info", "c17"]) == 0
        capsys.readouterr()
        assert not obs.tracing_enabled()

    def test_verbose_configures_repro_logger(self, capsys):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        old_level = root.level
        try:
            assert main(["-vv", "info", "c17"]) == 0
            assert root.level == logging.DEBUG
            added = [h for h in root.handlers if h not in before]
            assert added  # a real stderr handler beyond the NullHandler
        finally:
            for handler in list(root.handlers):
                if handler not in before:
                    root.removeHandler(handler)
            root.setLevel(old_level)

    def test_sweep_report_acceptance(self, tmp_path, capsys):
        # The ISSUE acceptance criterion: one CLI sweep emits a
        # schema-valid RunReport holding spans from the STA, aging, and
        # simulation kernels plus merged per-worker cache stats.
        report = tmp_path / "sweep.json"
        assert main(["sweep", "c17", "c17", "--vectors", "8",
                     "--workers", "2", "--metrics", str(report)]) == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert schema_errors(doc) == []

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span.get("children", []))

        names = {s["name"] for s in walk(doc["spans"])}
        assert "flow.run_sweep" in names
        assert any(n.startswith("sta.compiled.") for n in names)
        assert any(n.startswith("aging.") for n in names)
        assert any(n.startswith("sim.packed.") for n in names)
        assert any(n.startswith("ivc.mlv.") for n in names)
        workers = {s["attributes"]["worker"] for s in walk(doc["spans"])
                   if "worker" in s.get("attributes", {})}
        assert workers == {0, 1}
        [entry] = doc["cache_stats"]  # both c17 workers merged
        assert entry["scope"] == "c17"
        assert entry["hits"] > 0 and entry["misses"] > 0
        assert doc["metrics"]["sta.analyze.engine"]["type"] == "counter"


class TestReportCli:
    """``repro report`` history / diff / timeline, and run recording."""

    @staticmethod
    def _report_file(tmp_path, name, duration):
        from repro.obs import RunReport

        span = {"name": "repro.age", "start": 0.0, "duration": duration,
                "attributes": {}, "children": []}
        path = tmp_path / name
        path.write_text(json.dumps(RunReport("cli", spans=[span]).to_dict()))
        return str(path)

    def test_age_with_store_records_runs(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for _ in range(2):
            assert main(["age", "c17", "--store", store]) == 0
        err = capsys.readouterr().err
        assert err.count("run recorded:") == 2

        # The history lists both, oldest first; --ids is script-friendly.
        assert main(["report", "history", "--store", store, "--ids"]) == 0
        ids = capsys.readouterr().out.split()
        assert len(ids) == 2
        assert main(["report", "history", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "run history" in out and ids[0] in out

        # Cold run vs warm run: ids resolve against the store and the
        # gate passes (wide bands — two live sub-second runs are noise;
        # the strict gate is pinned on fixture reports below).
        assert main(["report", "diff", ids[0], ids[1], "--store", store,
                     "--span-abs", "60"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

        # The store's info view counts the new namespace.
        assert main(["cache", "info", "--store", store]) == 0
        assert "runs" in capsys.readouterr().out

    def test_history_empty_store(self, tmp_path, capsys):
        assert main(["report", "history", "--store",
                     str(tmp_path / "empty")]) == 0
        assert "no recorded runs" in capsys.readouterr().err

    def test_diff_gate_fails_on_inflated_span(self, tmp_path, capsys):
        a = self._report_file(tmp_path, "a.json", 0.1)
        b = self._report_file(tmp_path, "b.json", 5.1)
        assert main(["report", "diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out and "repro.age" in out
        # Same pair inside tolerance: widened bands pass.
        assert main(["report", "diff", a, b, "--span-abs", "10",
                     "--span-rel", "100"]) == 0
        capsys.readouterr()

    def test_diff_json_output(self, tmp_path, capsys):
        a = self._report_file(tmp_path, "a.json", 0.1)
        assert main(["report", "diff", a, a, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["regressions"] == 0
        assert all(e["status"] == "ok" for e in doc["entries"])

    def test_diff_unresolvable_input_exits_2(self, tmp_path, capsys):
        a = self._report_file(tmp_path, "a.json", 0.1)
        assert main(["report", "diff", a, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_timeline_from_metrics_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        out = tmp_path / "trace.json"
        assert main(["age", "c17", "--metrics", str(report)]) == 0
        capsys.readouterr()
        assert main(["report", "timeline", str(report),
                     "--out", str(out)]) == 0
        assert "events)" in capsys.readouterr().err
        trace = json.loads(out.read_text())
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert "repro.age" in names
        lanes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M"}
        assert "main" in lanes

    def test_timeline_stored_run_id(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["age", "c17", "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "history", "--store", store, "--ids"]) == 0
        [run_id] = capsys.readouterr().out.split()
        assert main(["report", "timeline", run_id, "--store", store]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["traceEvents"]

    def test_timeline_bad_input_exits_2(self, tmp_path, capsys):
        assert main(["report", "timeline", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
