"""The four workloads of the end-to-end benchmark (see README.md).

Every timed operation is a real ``repro`` process: a fresh-interpreter
``python -m repro ...`` command, or an HTTP request to a real
``repro serve`` subprocess.  This process is the load generator and
the oracle: it makes the inputs from the seed, times the operations
from outside, and afterwards checks every output against an
in-process reference computation.

A workload object goes through ``setup(rep)`` (timed, repeated),
``ready()``, ``measure(deadline)`` or ``trace(deadline)``,
``finish()``, ``check()`` and ``close()``; ``run.py`` drives it.
"""

import contextlib
import http.client
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "fig05_c432_degradation.json"
LAYERS_PY = HERE / "layers.py"
PY = sys.executable

#: Children import the checkout's own ``src``, whatever is installed.
ENV = dict(os.environ, PYTHONPATH=str(SRC))

#: The cli-iscas rotation: the startup floor (``info c17``), paper-size
#: aging, the MLV search and the Table 4 sweep.
CLI_COMMANDS = (("info", "c17"), ("age", "c432"), ("age", "c7552"),
                ("mlv", "c880"), ("table4", "c432"))

#: A cached serve query repeats at least this many stream slots after
#: its previous occurrence, so with two clients it is almost never
#: still running (a running duplicate would coalesce, not hit).
MIN_REPEAT_GAP = 8

#: Polling interval of ``GET /result`` while a served job runs.
POLL_S = 0.005

#: A command still running after this long is killed and fails, so a
#: hung command cannot hang the run.
CHILD_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One timed operation and whether its output checked out."""

    kind: str
    label: str
    wall_s: float
    ok: bool
    rss_mib: float = 0.0
    stdout: bytes = b""
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Child:
    """A finished child process, timed and measured from outside."""

    stdout: bytes
    stderr: bytes
    code: int
    wall_s: float
    rss_mib: float
    reaped_at: float


def run_child(argv: List[str], scratch: Path) -> Child:
    """Run ``argv`` to completion; wall time and peak RSS via ``wait4``."""
    err_path = scratch / "child.stderr"
    with open(err_path, "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=ENV, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
        reaped_at = time.time()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Child(out, stderr, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 reaped_at)


def repro(*args: str) -> List[str]:
    return [PY, "-m", "repro", *args]


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


# -- in-process oracle ----------------------------------------------------------


def _standby(name: str):
    from repro.sta import ALL_ONE, ALL_ZERO

    return {"worst": ALL_ZERO, "best": ALL_ONE}[name]


def expected_numbers(context, scenario) -> Dict[str, float]:
    """``repro age``'s numbers for one scenario, computed in-process."""
    res = context.aged_delays(scenario.profile(), scenario.lifetime_seconds(),
                              standby=_standby(scenario.standby))
    return {"fresh_delay": res.fresh_delay, "aged_delay": res.aged_delay,
            "degradation": res.relative_degradation,
            "max_shift": res.max_shift}


def expected_age_stdout(bench_path: Path) -> bytes:
    """The exact stdout ``repro age <bench_path>`` must print."""
    from repro.cli import _print_age_report
    from repro.context import AnalysisContext
    from repro.netlist import load_bench
    from repro.serve import AgeScenario

    circuit = load_bench(bench_path)
    scenario = AgeScenario()
    numbers = expected_numbers(AnalysisContext(circuit), scenario)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        _print_age_report(circuit.name, scenario.profile(), scenario.years,
                          scenario.standby, numbers)
    return text.getvalue().encode("utf-8")


def generate_bench(gates: int, seed: int, path: Path) -> bytes:
    """Write the netlist ``repro generate --gates G --seed S`` writes."""
    from repro.netlist import save_bench
    from repro.netlist.generators import scale_circuit

    path.parent.mkdir(parents=True, exist_ok=True)
    save_bench(scale_circuit(gates, seed=seed), path)
    return path.read_bytes()


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# -- layer timings of traced CLI operations ---------------------------------------


def traced_child(args: List[str], scratch: Path):
    """Run ``layers.py -- <args>``; returns ``(child, timings)``."""
    timings_path = scratch / "layers.json"
    timings_path.unlink(missing_ok=True)
    child = run_child([PY, str(LAYERS_PY), "--spawned-at", repr(time.time()),
                       "--timings", str(timings_path), "--", *args], scratch)
    timings = (json.loads(timings_path.read_text("utf-8"))
               if timings_path.exists() else None)
    if timings is not None:
        timings["exit_s"] = child.reaped_at - timings["exited_at"]
    return child, timings


def cli_layers(traced: List[Dict[str, Any]], untraced_s: float,
               traced_s: float) -> Dict[str, float]:
    """Per-layer metrics of traced CLI operations.

    A layer's time is the median, over the operations that called it,
    of the operation's self time in it; counts likewise.  Attribution
    covers interpreter start (spawn to the script's first statement),
    ``import repro.cli``, every layer, and interpreter exit (last
    statement to reap); the rest of the wall time is unattributed.
    """
    out: Dict[str, float] = {}
    names = {name for t in traced for name in t["self_s"]}
    for name in names:
        out[name] = median(t["self_s"][name] for t in traced
                           if t["calls"].get(name))
    counts = {name for t in traced for name in t["counts"]}
    for name in counts - {"store.result_hits"}:
        out[name] = median(t["counts"][name] for t in traced
                           if name in t["counts"])
    hits = sum(t["counts"].get("store.result_hits", 0) for t in traced)
    hydrations = sum(t["calls"].get("bundle.hydrate_s", 0) for t in traced
                     if t["counts"].get("store.result_hits"))
    out["store.hydrations_per_result_hit"] = hydrations / hits if hits else 0.0
    out["exit.teardown_s"] = median(t["exit_s"] for t in traced)
    attributed = sum(t["startup_s"] + t["import_repro_cli_s"] + t["exit_s"]
                     + sum(t["self_s"].values()) for t in traced)
    wall = sum(t["wall_s"] for t in traced)
    out["trace.unattributed_frac"] = 1.0 - attributed / wall
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


# -- workloads --------------------------------------------------------------------


class Workload:
    """Shared plumbing; subclasses define the operations."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.scratch = workdir / "scratch"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.ops: List[Op] = []
        #: Failed checks that belong to no single operation.
        self.problems: List[str] = []
        self.layers: Dict[str, float] = {}
        self.span_s = 0.0

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def ready(self) -> None:
        """Untimed hand-over from the set-up repetitions to measuring."""

    def measure(self, deadline: float) -> None:
        raise NotImplementedError

    def trace(self, deadline: float) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Stop what measuring started (before ``check``)."""

    def check(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process this workload started (idempotent)."""

    @property
    def peak_rss_mib(self) -> float:
        return max((o.rss_mib for o in self.ops), default=0.0)


class CliWorkload(Workload):
    """Fresh-interpreter ``repro`` commands, one unit of work at a time."""

    #: Units a smoke run does instead of filling ``--seconds``.
    smoke_units = 1

    def _unit(self, traced: Optional[list] = None) -> None:
        """One unit of work; through ``layers.py`` when ``traced`` is a list."""
        raise NotImplementedError

    def _run(self, args: List[str], kind: str, label: str,
             traced: Optional[list]):
        if traced is None:
            child, timings = run_child(repro(*args), self.scratch), None
        else:
            child, timings = traced_child(args, self.scratch)
            if timings is not None:
                traced.append(dict(timings, wall_s=child.wall_s))
            kind = "traced-" + kind
        op = Op(kind, label, child.wall_s,
                child.code == 0 and (traced is None or timings is not None),
                child.rss_mib, child.stdout)
        self.ops.append(op)
        return child, op

    def _repeat(self, deadline: float, unit) -> None:
        """Run ``unit`` until the next one would end after ``deadline``."""
        t0 = perf_counter()
        done = 0
        while True:
            unit()
            done += 1
            now = perf_counter()
            if self.smoke:
                if done >= self.smoke_units:
                    break
            elif now + (now - t0) / done > deadline:
                break
        self.span_s = perf_counter() - t0

    def measure(self, deadline):
        self._repeat(deadline, self._unit)

    def trace(self, deadline):
        traced: list = []

        def both():
            self._unit()
            self._unit(traced)

        self._repeat(deadline, both)
        untraced_s = sum(o.wall_s for o in self.ops
                         if not o.kind.startswith("traced"))
        traced_s = sum(o.wall_s for o in self.ops
                       if o.kind.startswith("traced"))
        self.layers.update(cli_layers(traced, untraced_s, traced_s))


class CliIscas(CliWorkload):
    """Fresh-interpreter commands over the paper's circuits."""

    name = "cli-iscas"
    smoke_units = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.rotation = list(CLI_COMMANDS)
        random.Random(seed).shuffle(self.rotation)
        self.reference: Dict[str, bytes] = {}

    def setup(self, rep):
        # One pass of the rotation: warms the page cache and bytecode,
        # and the first pass's stdout is the reference.
        for cmd in self.rotation:
            label = " ".join(cmd)
            child = run_child(repro(*cmd), self.scratch)
            if child.code != 0:
                self.problems.append(f"setup {label} exited {child.code}")
            if rep == 0:
                self.reference[label] = child.stdout
            elif child.stdout != self.reference[label]:
                self.problems.append(f"setup {label}: stdout differs "
                                     "between set-up passes")

    def _unit(self, traced=None):
        for cmd in self.rotation:
            self._run(list(cmd), "cold", " ".join(cmd), traced)

    def check(self):
        from repro.flow.report import pct

        for op in self.ops:
            op.ok = op.ok and op.stdout == self.reference[op.label]
        golden = json.loads(GOLDEN.read_text("utf-8"))["curves"]["330"][-1]
        want = f"degradation    : {pct(golden)}"
        if want not in self.reference["age c432"].decode().splitlines():
            self.problems.append(f"age c432: no {want!r} line (golden)")


class AgeScale(CliWorkload):
    """``repro age`` on a seeded 100k-gate netlist, no store."""

    name = "age-scale"
    gates, smoke_gates = 100_000, 5_000
    smoke_units = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.size = self.smoke_gates if smoke else self.gates
        self.bench: Optional[Path] = None
        self.bench_bytes = b""

    def setup(self, rep):
        # Same file name in every repetition: the stem is the circuit
        # name the command prints.
        path = self.workdir / f"gen{rep}" / "scale.bench"
        data = generate_bench(self.size, self.seed, path)
        if rep == 0:
            self.bench, self.bench_bytes = path, data
        elif data != self.bench_bytes:
            self.problems.append("generated netlist differs between "
                                 "set-up repetitions")

    def _unit(self, traced=None):
        self._run(["age", str(self.bench)], "cold", "age", traced)

    def check(self):
        want = expected_age_stdout(self.bench)
        for op in self.ops:
            op.ok = op.ok and op.stdout == want


class StoreScale(AgeScale):
    """Cold then warm ``repro age --store`` on a seeded 30k-gate netlist."""

    name = "store-scale"
    gates, smoke_gates = 30_000, 3_000
    smoke_units = 1

    def _unit(self, traced=None):
        """Empty store, one cold run, two warm runs."""
        store = self.workdir / "store"
        shutil.rmtree(store, ignore_errors=True)
        for kind in ("cold", "warm", "warm"):
            child, op = self._run(["age", str(self.bench), "--store",
                                   str(store)], kind, kind, traced)
            note = ("result hits=0 misses=1" if kind == "cold"
                    else "result hits=1 misses=0")
            op.ok = op.ok and note.encode() in child.stderr
            if traced is not None and kind == "cold":
                self.layers["bundle.bytes"] = dir_bytes(store / "bundles")

    def check(self):
        super().check()
        # Cold and warm runs of one iteration print identical stdout.
        for i in range(0, len(self.ops), 3):
            cold, *warm = self.ops[i:i + 3]
            for op in warm:
                op.ok = op.ok and op.stdout == cold.stdout


# -- serve-mixed ------------------------------------------------------------------


@dataclass
class Query:
    """One served question: a circuit and an ``AgeScenario`` dict."""

    circuit: str
    scenario: Dict[str, Any]
    key: tuple


def query_stream(seed: int):
    """Endless seeded stream of ``(query, first)`` pairs.

    New queries cycle through the ten ISCAS85 circuits in reshuffled
    rounds (so every circuit is equally represented at any cut), each
    with a fresh scenario.  Each query is asked three times: once cold
    and twice more, each repeat at least :data:`MIN_REPEAT_GAP` slots
    after the previous occurrence; repeats take about two slots in
    three.
    """
    from repro.netlist import iscas85

    rng = random.Random(seed)
    circuits: List[str] = []
    seen = set()
    pending: List[list] = []      # [query, repeats left, last slot]
    slot = 0
    while True:
        eligible = [p for p in pending if slot - p[2] >= MIN_REPEAT_GAP]
        if eligible and rng.random() < 2.0 / 3.0:
            entry = rng.choice(eligible)
            entry[1] -= 1
            entry[2] = slot
            if entry[1] == 0:
                pending.remove(entry)
            yield entry[0], False
        else:
            if not circuits:
                circuits = list(iscas85.NAMES)
                rng.shuffle(circuits)
            circuit = circuits.pop()
            while True:
                scenario = {"ras": rng.choice(("1:9", "1:5", "1:3", "1:1",
                                               "3:1", "5:1", "9:1")),
                            "t_active": 400.0,
                            "t_standby": round(rng.uniform(300.0, 400.0), 1),
                            "years": float(rng.choice((1, 2, 5, 10, 20))),
                            "standby": rng.choice(("worst", "best"))}
                key = (circuit, *sorted(scenario.items()))
                if key not in seen:
                    seen.add(key)
                    break
            query = Query(circuit, scenario, key)
            pending.append([query, 2, slot])
            yield query, True
        slot += 1


class Server:
    """One ``repro serve`` subprocess on its own store."""

    def __init__(self, workdir: Path, rep: int, timeout_s: float = 60.0):
        self.ready_file = workdir / f"ready{rep}.json"
        self.ready_file.unlink(missing_ok=True)
        self.log = open(workdir / f"serve{rep}.log", "wb")
        self.rss_mib = 0.0
        self.proc = subprocess.Popen(
            repro("serve", "--store", str(workdir / f"store{rep}"),
                  "--workers", "2", "--ready-file", str(self.ready_file)),
            stdout=self.log, stderr=subprocess.STDOUT, env=ENV, cwd=ROOT)
        try:
            self._wait_ready(timeout_s)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout_s: float) -> None:
        deadline = perf_counter() + timeout_s
        while True:
            try:
                doc = json.loads(self.ready_file.read_text("utf-8"))
                break
            except (OSError, ValueError):
                if self.proc.poll() is not None or perf_counter() > deadline:
                    raise RuntimeError(f"repro serve did not come up "
                                       f"(see {self.log.name})")
                time.sleep(0.005)
        self.host, self.port = "127.0.0.1", int(doc["port"])
        status, _ = self.call("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        """One JSON request on its own connection: ``(status, doc)``.

        A connection per request, as ``repro submit`` (urllib) does.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body,
                         {"Content-Type": "application/json"} if body else {})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def stop(self, grace_s: float = 30.0) -> float:
        """SIGTERM (the service drains), reap, return peak RSS in MiB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = perf_counter() + grace_s
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if perf_counter() > deadline:
                    self.proc.kill()
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mib = usage.ru_maxrss / 1024.0
        self.log.close()
        return self.rss_mib


class ServeMixed(Workload):
    """Two closed-loop clients against ``repro serve --workers 2``."""

    name = "serve-mixed"
    smoke_requests = 20
    scrape_every = 25

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.servers: List[Server] = []
        self.stream = query_stream(seed)
        self.metrics_doc: Dict[str, Any] = {}

    def setup(self, rep):
        self.servers.append(Server(self.workdir, rep))

    def ready(self):
        for server in self.servers[:-1]:
            server.stop()

    @property
    def server(self) -> Server:
        return self.servers[-1]

    def _request(self, query: Query, first: bool) -> Op:
        body = json.dumps({"circuit": query.circuit,
                           "scenario": query.scenario}).encode("utf-8")
        t0 = perf_counter()
        status, doc = self.server.call("POST", "/submit", body)
        submit_s = perf_counter() - t0
        if status not in (200, 202):
            raise RuntimeError(f"submit answered {status}: {doc}")
        polls = 0
        while True:
            t_fetch = perf_counter()
            status, result = self.server.call("GET",
                                              f"/result/{doc['job_id']}")
            polls += 1
            if status == 200:
                break
            if status != 202 or perf_counter() - t0 > 60.0:
                raise RuntimeError(f"result answered {status}")
            time.sleep(POLL_S)
        done = perf_counter()
        kind = ("cold" if first
                else "cached" if doc.get("cached") else "coalesced")
        return Op(kind, query.circuit, done - t0, True, detail={
            "query": query, "numbers": result["numbers"],
            "submit_s": submit_s, "result_s": done - t_fetch,
            "polls": polls, "t0": t0, "done": done})

    def _load(self, deadline: float, requests: int,
              scrape: bool = False) -> List[Op]:
        """Run both clients until ``deadline`` or ``requests`` issued."""
        lock = threading.Lock()
        ops: List[Op] = []
        issued = [0]
        errors: List[BaseException] = []

        def client(index: int) -> None:
            try:
                while True:
                    with lock:
                        if (issued[0] >= requests if requests
                                else perf_counter() >= deadline):
                            return
                        issued[0] += 1
                        query, first = next(self.stream)
                    try:
                        op = self._request(query, first)
                    except (OSError, http.client.HTTPException,
                            RuntimeError, ValueError) as exc:
                        op = Op("failed", query.circuit, 0.0, False,
                                detail={"query": query, "error": str(exc)})
                    with lock:
                        ops.append(op)
                        scrape_now = (scrape and index == 0
                                      and len(ops) % self.scrape_every == 0)
                    if scrape_now:
                        self.server.call("GET", "/metrics")
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        other = threading.Thread(target=client, args=(1,))
        other.start()
        client(0)
        other.join()
        if errors:
            raise errors[0]
        return ops

    def measure(self, deadline):
        requests = self.smoke_requests if self.smoke else 0
        self.ops = self._load(deadline, requests)
        done = [o for o in self.ops if o.ok]
        self.span_s = (max(o.detail["done"] for o in done)
                       - min(o.detail["t0"] for o in done))

    def trace(self, deadline):
        # First half plain, second half with /metrics scrapes: the
        # difference is the tracing overhead.
        requests = self.smoke_requests // 2 if self.smoke else 0
        middle = perf_counter() + (deadline - perf_counter()) / 2
        plain = self._load(middle, requests)
        traced = self._load(deadline, requests, scrape=True)
        self.ops = plain + traced
        _, self.metrics_doc = self.server.call("GET", "/metrics")
        self.layers = self._serve_layers([o for o in self.ops if o.ok])
        self.layers["trace.overhead_frac"] = (
            median(o.wall_s for o in traced if o.ok)
            / median(o.wall_s for o in plain if o.ok) - 1.0)
        self.layers.update(self._replica_layers())

    def _serve_layers(self, ops: List[Op]) -> Dict[str, float]:
        metrics = self.metrics_doc.get("metrics", {})

        def counter(name):
            return sum(metrics.get(name, {}).get("values", {}).values())

        def mean_ms(name):
            hist = metrics.get(name, {})
            return (1e3 * hist["sum"] / hist["count"]
                    if hist.get("count") else 0.0)

        cold = [o for o in ops if o.kind == "cold"]
        out = {
            "serve.submit_ms_p50": 1e3 * median(o.detail["submit_s"]
                                                for o in ops),
            "serve.result_ms_p50": 1e3 * median(o.detail["result_s"]
                                                for o in ops),
            "serve.polls_per_job": (statistics.fmean(o.detail["polls"]
                                                     for o in cold)
                                    if cold else 0.0),
            "serve.queue_wait_ms_mean": mean_ms(
                "serve.job.queue_wait_seconds"),
            "serve.attempt_ms_mean": mean_ms("serve.job.attempt_seconds"),
            "serve.workers_spawned": counter("serve.workers_spawned"),
            "serve.bundle_builds": counter("serve.bundle_builds"),
            "serve.cache_answers": counter("serve.cache_answers"),
            "serve.coalesced_submits": counter("serve.coalesced_submits"),
        }
        # A cold request is submit, queue wait, the worker's attempt
        # and the final fetch; what is left is scheduler and client
        # polling granularity.  The service histograms give means only,
        # so this compares means.
        if cold:
            attributed = (statistics.fmean(o.detail["submit_s"]
                                           + o.detail["result_s"]
                                           for o in cold)
                          + (out["serve.queue_wait_ms_mean"]
                             + out["serve.attempt_ms_mean"]) / 1e3)
            out["trace.unattributed_frac"] = (
                1.0 - attributed / statistics.fmean(o.wall_s for o in cold))
        return out

    def _replica_layers(self) -> Dict[str, float]:
        """Time, per circuit, the work one cold job costs the service.

        In this process, on a scratch store: the submit path (load and
        fingerprint), the bundle build (context, lowering, snapshot,
        store write), the worker (hydrate, aged delays) and the result
        write/read.  Each layer reports its median over the circuits.
        """
        from layers import LayerClock, gate_count, installed
        from repro.artifacts import ArtifactStore
        from repro.artifacts.fingerprint import circuit_fingerprint
        from repro.context import AnalysisContext
        from repro.flow.parallel import load_circuit
        from repro.netlist import iscas85
        from repro.serve import AgeScenario

        store = ArtifactStore(self.workdir / "replica")
        per_circuit = []
        for name in iscas85.NAMES:
            clock = LayerClock()
            with installed(clock):
                circuit = clock.wrap("netlist.parse_s", load_circuit,
                                     gate_count)(name)
                circuit_fp = clock.wrap("fingerprint.circuit_s",
                                        circuit_fingerprint, None)(circuit)
                bundle = AnalysisContext(circuit,
                                         store=store).save_to_store()
                scenario = AgeScenario()
                numbers = expected_numbers(bundle.hydrate(), scenario)
                store.save_result(circuit_fp, scenario.key(), numbers)
                store.load_result(circuit_fp, scenario.key())
            sizes = sum(p.stat().st_size for p in store.root.glob(
                f"bundles/*/{bundle.bundle_key}.*"))
            per_circuit.append(dict(clock.self_s, **clock.counts,
                                    **{"bundle.bytes": sizes}))
        names = {n for row in per_circuit for n in row}
        names.discard("store.result_hits")
        return {n: median(row[n] for row in per_circuit if n in row)
                for n in names}

    def finish(self):
        t0 = perf_counter()
        self.server.stop()
        if self.layers:
            self.layers["exit.teardown_s"] = perf_counter() - t0

    def check(self):
        from repro.context import AnalysisContext
        from repro.flow.parallel import load_circuit
        from repro.serve import AgeScenario

        contexts: Dict[str, Any] = {}
        expected: Dict[tuple, Dict[str, float]] = {}
        for op in self.ops:
            if not op.ok:
                continue
            query = op.detail["query"]
            if query.key not in expected:
                if query.circuit not in contexts:
                    contexts[query.circuit] = AnalysisContext(
                        load_circuit(query.circuit))
                expected[query.key] = expected_numbers(
                    contexts[query.circuit],
                    AgeScenario.from_dict(query.scenario))
            op.ok = op.detail["numbers"] == expected[query.key]
        if not any(o.kind == "cold" for o in self.ops):
            self.problems.append("no cold request completed")

    def close(self):
        for server in self.servers:
            server.stop()

    @property
    def peak_rss_mib(self) -> float:
        return self.server.rss_mib


WORKLOADS = {w.name: w for w in (CliIscas, AgeScale, StoreScale, ServeMixed)}
