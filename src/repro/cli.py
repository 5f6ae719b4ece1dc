"""Command-line interface: ``python -m repro <command> ...``.

Gives the paper's main analyses a shell-friendly surface:

* ``info``      — netlist statistics and cell mix,
* ``generate``  — emit a seeded synthetic benchmark netlist,
* ``age``       — temperature-aware aged timing of a circuit,
* ``mlv``       — leakage/NBTI co-optimized standby vector search,
* ``sleep``     — sleep-transistor sizing and aged gated timing,
* ``guardband`` — device-level lifetime guard-band,
* ``table1``    — the paper's Table 1 dVth grid,
* ``paths``     — K longest (optionally aged) paths,
* ``table4``    — internal-node-control potential sweep,
* ``sweep``     — co-optimize many circuits, one process per circuit,
* ``cache``     — inspect / warm / clear a persistent artifact store,
* ``serve``     — run the long-running analysis service (HTTP + queue),
* ``submit``    — send one aging query to a running service,
* ``result``    — fetch (and render) a submitted job's numbers,
* ``report``    — run history, report diffing (the perf-regression
  gate), and Chrome/Perfetto trace-timeline export.

Circuits are named by ISCAS85 benchmark (``c432`` ...), bundled netlist
(``c17``), or a ``.bench`` file path.

``age`` and ``sweep`` accept ``--store DIR``: compiled artifacts and
the final numbers (``age``'s four numbers, each ``sweep`` row) persist
in a content-addressed :class:`~repro.artifacts.store.ArtifactStore`,
so a repeated run recomputes nothing.  Store diagnostics go to
stderr; stdout carries only the results and is byte-identical between
cold and warm runs.
With ``--store`` active, ``age``/``sweep`` (and ``serve`` at drain)
also file a run record — the traced RunReport plus host/git/command
identity — into the store's ``runs/`` history, browsable with
``repro report history`` and comparable with ``repro report diff``.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro import __version__, obs
from repro.constants import TEN_YEARS, years
from repro.core import (
    DEFAULT_MODEL,
    WORST_CASE_DEVICE,
    OperatingProfile,
    guard_band,
)
from repro.core.profiles import exact_number
from repro.flow.report import format_table, mv, ns, pct, ua
from repro.netlist import BenchParseError, NetlistSource, read_source
from repro.netlist.circuit import Circuit, CircuitError


@contextmanager
def _circuit_errors(name: str):
    """Turn a bad circuit argument into a one-line ``error:`` exit."""
    try:
        yield
    except (BenchParseError, CircuitError) as exc:
        raise SystemExit(f"error: {name}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def resolve_circuit(name: str,
                    source: Optional[NetlistSource] = None) -> Circuit:
    """Map a CLI circuit argument onto a loaded netlist
    (:func:`repro.netlist.load_circuit`); with ``source``, the netlist
    already read for ``name``, parse that instead of reading again.

    An unknown name or a malformed ``.bench`` file exits with a one-line
    ``error:`` message instead of a traceback.
    """
    with _circuit_errors(name):
        if source is None:
            source = read_source(name)
        return source.parse()


def _resolve(name: str, store):
    """:func:`repro.artifacts.resolve_source` for a CLI argument: the
    same ``error:`` lines as :func:`resolve_circuit`, which runs any
    parse."""
    from repro.artifacts import resolve_source

    with _circuit_errors(name):
        return resolve_source(
            name, store, parse=lambda source: resolve_circuit(name, source))


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ras", default="1:9",
                        help="active:standby ratio (default 1:9)")
    parser.add_argument("--t-active", type=float, default=400.0,
                        help="active temperature in K (default 400)")
    parser.add_argument("--t-standby", type=float, default=330.0,
                        help="standby temperature in K (default 330)")
    parser.add_argument("--years", type=float, default=10.0,
                        help="lifetime horizon in years (default 10)")


def _profile_from(args) -> OperatingProfile:
    """The operating profile of the profile flags; an invalid profile or
    a non-finite or negative ``--years`` exits with a one-line
    ``error:`` message."""
    if not math.isfinite(args.years) or args.years < 0:
        raise SystemExit(f"error: --years must be a finite number >= 0, "
                         f"got {args.years:g}")
    try:
        return OperatingProfile.from_ras(args.ras, t_active=args.t_active,
                                         t_standby=args.t_standby)
    except ValueError as exc:
        raise SystemExit(f"error: invalid operating profile: {exc}") from None


def _search_profile_from(args) -> OperatingProfile:
    """:func:`_profile_from` for the MLV-search commands, which also
    exit with a one-line ``error:`` message, before any work, on fewer
    than two ``--vectors`` or a ``--set-size`` below one."""
    profile = _profile_from(args)
    if args.vectors < 2:
        raise SystemExit(f"error: --vectors must be at least 2, "
                         f"got {args.vectors}")
    if args.set_size < 1:
        raise SystemExit(f"error: --set-size must be at least 1, "
                         f"got {args.set_size}")
    return profile


def _engine_lines() -> List[str]:
    """Availability of each evaluation engine, one line per engine."""
    lines = []
    try:
        import numpy
        from repro.sta.compiled import CompiledTiming  # noqa: F401

        lines.append("compiled STA/aging kernels: available "
                     f"(numpy {numpy.__version__})")
    except ImportError:
        lines.append("compiled STA/aging kernels: unavailable (no numpy)")
    try:
        from repro.sim.packed import PackedSimulator  # noqa: F401

        lines.append("packed bit-parallel simulation: available")
    except ImportError:
        lines.append("packed bit-parallel simulation: unavailable")
    lines.append("scalar oracle paths: available")
    return lines


def cmd_info(args) -> int:
    """``info``: netlist statistics, cell mix, engine availability."""
    circuit = resolve_circuit(args.circuit)
    stats = circuit.stats()
    print(f"{circuit.name}: {stats['inputs']} inputs, "
          f"{stats['outputs']} outputs, {stats['gates']} gates, "
          f"depth {stats['depth']}")
    rows = [[cell, count] for cell, count in circuit.cell_histogram().items()]
    print(format_table(["cell", "count"], rows))
    print(f"repro {__version__}")
    for line in _engine_lines():
        print(line)
    return 0


def cmd_generate(args) -> int:
    """``generate``: emit a seeded synthetic circuit as a ``.bench`` file.

    Construction uses the array-native generator engine, so 10^5-gate
    circuits build in seconds; the same (gates, seed) always produces
    the same file bytes (the fingerprint is printed for verification).
    Without ``--inputs``/``--outputs`` the canonical scale-corpus
    profile applies — identical to the benchmark suite's circuits.

    The reported stats and fingerprint describe the circuit *as
    written*: ``.bench`` has no AOI/OAI keywords, so the exporter
    expands complex cells into exact 2-3 gate AND/OR + NAND/NOR
    decompositions, and every later ``repro`` command sees that
    expanded netlist.
    """
    import math

    from repro.artifacts.fingerprint import circuit_fingerprint
    from repro.netlist import load_bench, save_bench
    from repro.netlist.generators import random_logic, scale_circuit

    if args.inputs is None and args.outputs is None:
        circuit = scale_circuit(args.gates, seed=args.seed, name=args.name)
    else:
        n_inputs = (args.inputs if args.inputs is not None
                    else max(32, int(round(math.sqrt(args.gates)))))
        n_outputs = (args.outputs if args.outputs is not None
                     else max(8, n_inputs // 4))
        name = args.name or f"r{args.gates}s{args.seed}"
        circuit = random_logic(name, n_inputs, n_outputs, args.gates,
                               args.seed,
                               locality=max(64.0, math.sqrt(args.gates)),
                               engine="array")
    out = Path(args.out)
    save_bench(circuit, out)
    on_disk = load_bench(out)
    stats = on_disk.stats()
    print(f"generated      : {circuit.name}")
    print(f"profile        : {stats['inputs']} inputs, "
          f"{stats['outputs']} outputs, {stats['gates']} gates "
          f"(target {args.gates}), depth {stats['depth']}")
    if stats["gates"] != circuit.n_gates():
        print(f"note           : {circuit.n_gates()} cells expanded to "
              f"{stats['gates']} bench gates (AOI/OAI have no .bench "
              "keyword and export as exact decompositions)")
    print(f"seed           : {args.seed}")
    print(f"fingerprint    : {circuit_fingerprint(on_disk)}")
    print(f"wrote          : {out}")
    return 0


def _print_age_report(circuit_name: str, profile: OperatingProfile,
                      years_f: float, standby: str, numbers) -> None:
    """The ``age`` stdout block, shared with ``submit``/``result``.

    One renderer is what makes a served result byte-identical to the
    local ``repro age`` output (the e2e cache-equivalence gate).
    """
    print(f"circuit        : {circuit_name}")
    print(f"scenario       : {profile.header(years_f)}, "
          f"{standby}-case standby")
    print(f"fresh delay    : {ns(numbers['fresh_delay'])} ns")
    print(f"aged delay     : {ns(numbers['aged_delay'])} ns")
    print(f"degradation    : {pct(numbers['degradation'])}")
    print(f"worst gate dVth: {mv(numbers['max_shift'])} mV")


def _store_note(store) -> None:
    """Print the store's hit/miss counters (stderr: diagnostics only)."""
    snap = store.stats.snapshot()
    b = snap.get("bundle", {"hits": 0, "misses": 0})
    r = snap.get("result", {"hits": 0, "misses": 0})
    print(f"store: bundle hits={b['hits']} misses={b['misses']}, "
          f"result hits={r['hits']} misses={r['misses']}", file=sys.stderr)


def cmd_age(args) -> int:
    """``age``: temperature-aware aged timing of one circuit: the
    :class:`~repro.serve.protocol.AgeScenario` query ``repro serve``
    answers, checked before the circuit is read or a store touched.

    With ``--store`` the circuit is resolved through the store's source
    record (:func:`repro.artifacts.resolve_source`) and its result
    record is looked up first, keyed by ``(circuit_fingerprint,
    AgeScenario.key())`` — the lookup ``repro serve`` makes on submit.
    A hit on both prints from the two records alone: the netlist is
    read and hashed but not parsed, and nothing is lowered.  A result
    miss (no record, a damaged one, or one without the four numbers)
    computes on a plain context and saves only the result record: one
    scenario needs neither the packed simulator nor the leakage table,
    and hydrating a stored bundle costs more than the lowering it
    skips, so ``age`` never reads or writes a bundle.  JSON round-trips
    floats exactly, so a warm run's stdout is byte-identical to the
    cold run's.
    """
    from repro.context import AnalysisContext
    from repro.serve.protocol import AgeScenario

    _profile_from(args)  # the flags' one-line errors
    scenario = AgeScenario(ras=args.ras, t_active=args.t_active,
                           t_standby=args.t_standby, years=args.years,
                           standby=args.standby)
    store = source = numbers = None
    if args.store is not None:
        from repro.artifacts import ArtifactStore
        from repro.sta import decode_age_numbers

        store = ArtifactStore(args.store)
        source = _resolve(args.circuit, store)
        numbers = store.load_result(source.circuit_fp, scenario.key(),
                                    decode_age_numbers)
    if numbers is None:
        circuit = (resolve_circuit(args.circuit) if source is None
                   else source.circuit())
        numbers = scenario.compute(AnalysisContext(circuit))
        if store is not None:
            store.save_result(source.circuit_fp, scenario.key(), numbers)
    if store is not None:
        _store_note(store)
    _print_age_report(circuit.name if source is None else source.name,
                      scenario.profile(), scenario.years, scenario.standby,
                      numbers)
    return 0


def cmd_mlv(args) -> int:
    """``mlv``: leakage/NBTI co-optimized standby vector."""
    from repro.flow import AnalysisPlatform
    circuit = resolve_circuit(args.circuit)
    profile = _search_profile_from(args)
    platform = AnalysisPlatform()
    report = platform.co_optimize(circuit, profile, years(args.years),
                                  n_vectors=args.vectors, seed=args.seed,
                                  max_set_size=args.set_size)
    chosen = report.selection.chosen
    bits = "".join(str(b) for b in chosen.bits)
    print(f"circuit            : {circuit.name}")
    print(f"chosen MLV         : {bits}")
    print(f"standby leakage    : {ua(chosen.leakage)} uA "
          f"({pct(report.leakage_reduction)} below expected)")
    print(f"aged degradation   : {pct(report.chosen_degradation)}")
    print(f"MLV set spread     : {pct(report.mlv_delay_spread, 3)} of delay")
    print(f"vectors evaluated  : {report.search.evaluated}")
    return 0


def cmd_sleep(args) -> int:
    """``sleep``: sleep-transistor sizing and aged gated timing."""
    from repro.context import AnalysisContext
    from repro.sleep import (SleepStyle, design_sleep_transistor,
                             gated_lifetime_series, st_vth_shift)
    circuit = resolve_circuit(args.circuit)
    profile = _profile_from(args)
    style = SleepStyle(args.style)
    margin = st_vth_shift(args.vth_st, args.ras) if args.nbti_aware else 0.0
    context = AnalysisContext(circuit)
    design = design_sleep_transistor(circuit, style, args.beta,
                                     vth_st=args.vth_st, nbti_margin=margin,
                                     context=context)
    fresh = context.fresh_delay()
    t0, t_end = gated_lifetime_series(circuit, design, profile,
                                      [0.0, years(args.years)],
                                      context=context)
    print(f"circuit        : {circuit.name}")
    print(f"style          : {style.value}, beta {pct(args.beta, 0)}"
          + (", NBTI-aware sizing" if args.nbti_aware else ""))
    print(f"(W/L)          : {design.aspect_ratio:.0f}")
    print(f"rail drop      : {mv(design.v_st)} mV (design), "
          f"{mv(t_end.v_st)} mV at {args.years:g} years")
    print(f"delay penalty  : {pct(t0.circuit_delay / fresh - 1)} at t=0, "
          f"{pct(t_end.circuit_delay / fresh - 1)} at {args.years:g} years")
    if style.has_header:
        print(f"header dVth    : {mv(t_end.st_delta_vth)} mV")
    return 0


def cmd_guardband(args) -> int:
    """``guardband``: device-level lifetime margin."""
    profile = _profile_from(args)
    gb = guard_band(profile, WORST_CASE_DEVICE, lifetime=years(args.years),
                    vth0=args.vth0)
    print(f"scenario: {profile.header()}, Vth0 {exact_number(args.vth0)} V")
    print(gb.summary())
    return 0


def cmd_paths(args) -> int:
    """``paths``: K longest (optionally aged) paths."""
    from repro.context import AnalysisContext
    from repro.sta import ALL_ZERO, enumerate_paths
    circuit = resolve_circuit(args.circuit)
    context = AnalysisContext(circuit)
    delta = None
    if args.aged:
        profile = _profile_from(args)
        delta = context.gate_shifts(profile, years(args.years),
                                    standby=ALL_ZERO)
    paths = enumerate_paths(circuit, args.k, delta_vth=delta,
                            context=context)
    rows = []
    for i, path in enumerate(paths):
        first, last = path.nodes[0][0], path.nodes[-1][0]
        rows.append([i + 1, ns(path.delay), len(path.gates),
                     f"{first} -> {last}"])
    title = (f"{circuit.name}: {args.k} longest paths"
             + (" (aged)" if args.aged else " (fresh)"))
    print(format_table(["#", "delay (ns)", "gates", "endpoints"], rows,
                       title=title))
    return 0


def cmd_table4(args) -> int:
    """``table4``: internal-node-control potential sweep."""
    from repro.context import AnalysisContext
    from repro.ivc import potential_sweep
    circuit = resolve_circuit(args.circuit)
    rows = potential_sweep(circuit, (330.0, 350.0, 370.0, 400.0),
                           ras=args.ras, t_total=years(args.years),
                           context=AnalysisContext(circuit))
    printable = [[f"{r.t_standby:.0f} K", pct(r.worst_degradation),
                  pct(r.best_degradation), pct(r.potential, 1)]
                 for r in rows]
    ras = OperatingProfile.from_ras(args.ras).ras_label()
    print(format_table(
        ["T_standby", "worst-case", "best-case", "potential"], printable,
        title=f"{circuit.name}: internal-node-control potential "
              f"(RAS {ras}, {exact_number(args.years)} years)"))
    return 0


def cmd_sweep(args) -> int:
    """``sweep``: parallel leakage/NBTI co-optimization over circuits.

    With ``--store`` every row is a result record keyed by
    ``(circuit_fingerprint, scenario_key)``: stored rows print from
    their records (no bundle load, no lowering, no worker), only the
    missing rows run, and each is saved as soon as it and every row
    before it are done.  Re-running a stopped sweep on the same store
    resumes it, and the table is byte-identical to an uninterrupted
    run.
    """
    from repro.flow.parallel import run_co_optimization_sweep
    profile = _search_profile_from(args)
    store = None
    if getattr(args, "store", None):
        from repro.artifacts import ArtifactStore

        store = ArtifactStore(args.store)
    # Every name is resolved (and a bad one exits) before any row runs.
    rows = run_co_optimization_sweep(
        args.circuits, profile, years(args.years),
        n_vectors=args.vectors, max_set_size=args.set_size,
        seed=args.seed, max_workers=args.workers, store=store,
        resolve=_resolve)
    if store is not None:
        _store_note(store)
    printable = [
        [r.name, ns(r.fresh_delay), pct(r.min_degradation),
         pct(r.mlv_diff, 3), pct(r.worst_degradation),
         pct(r.leakage_reduction), r.set_size, r.evaluated]
        for r in rows
    ]
    print(format_table(
        ["circuit", "delay (ns)", "min dDelay", "MLV diff",
         "worst-case", "leak saved", "|MLV set|", "evaluated"],
        printable,
        title=f"co-optimization sweep ({profile.header(args.years)})"))
    return 0


def cmd_cache(args) -> int:
    """``cache``: inspect, pre-warm, or clear an artifact store."""
    from repro.artifacts import ArtifactStore

    store = ArtifactStore(args.store)
    if args.action == "info":
        info = store.info()
        print(f"store          : {info['root']}")
        print(f"schema version : {info['schema_version']}")
        print(f"bundles        : {info['bundles']}")
        print(f"results        : {info['results']}")
        print(f"sources        : {info['sources']}")
        print(f"runs           : {info['runs']}")
        print(f"size           : {info['bytes']} bytes")
        for key in info["bundle_keys"]:
            print(f"  {key}")
        return 0
    if args.action == "warm":
        from repro.context import AnalysisContext

        if not args.circuits:
            raise SystemExit("error: cache warm needs at least one circuit")
        for name in args.circuits:
            circuit = resolve_circuit(name)
            context = AnalysisContext(circuit, store=store)
            bundle = context.save_to_store()
            print(f"{name}: {bundle.bundle_key}")
        _store_note(store)
        return 0
    removed = store.clear()
    print(f"cleared {removed} file(s)")
    return 0


def _http_json(url: str, payload=None, timeout: float = 10.0):
    """One JSON request against the service; ``(status, document)``."""
    import json
    import urllib.error
    import urllib.request

    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            return exc.code, {"error": str(exc)}


def _render_served_result(doc) -> None:
    """Render a ``/result`` document exactly like ``repro age``."""
    from repro.serve import AgeScenario

    job = doc["job"]
    scenario = AgeScenario.from_dict(job["scenario"])
    _print_age_report(job["circuit_name"], scenario.profile(),
                      scenario.years, scenario.standby, doc["numbers"])


def cmd_serve(args) -> int:
    """``serve``: run the long-running analysis service.

    Blocks until SIGTERM/SIGINT, then drains gracefully (running jobs
    get ``--drain-grace`` seconds, then are requeued for the next
    server) and exits 0.
    """
    import json
    import os
    import signal
    import threading

    from repro.artifacts import ArtifactStore
    from repro.serve import ServeConfig, make_server

    config = ServeConfig(
        host=args.host, port=args.port, max_workers=args.workers,
        timeout_s=args.timeout, max_retries=args.retries,
        backoff_s=args.backoff, drain_grace_s=args.drain_grace,
        allow_faults=args.allow_faults)
    store = ArtifactStore(args.store)
    httpd = make_server(store, config)
    service = httpd.service
    recovered = service.start()
    host, port = httpd.server_address[:2]
    url = f"http://{host}:{port}"
    print(f"serving on {url} (store: {store.root}, "
          f"workers: {config.max_workers}, recovered: "
          f"{recovered['recovered']} orphaned / {recovered['queued']} "
          f"queued)", file=sys.stderr)

    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        print(f"signal {signum}: draining", file=sys.stderr)
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server_thread = threading.Thread(target=httpd.serve_forever,
                                     name="repro-serve-http", daemon=True)
    server_thread.start()
    if args.ready_file:
        Path(args.ready_file).write_text(
            json.dumps({"url": url, "port": port, "pid": os.getpid()})
            + "\n", encoding="utf-8")
    stop.wait()
    service.stop(drain=True)
    httpd.shutdown()
    server_thread.join(timeout=10.0)
    counts = service.queue.counts()
    run_id = obs.record_run(store, service.metrics_report(),
                            command="repro serve")
    print(f"drained: {counts['done']} done, {counts['failed']} failed, "
          f"{counts['queued']} requeued", file=sys.stderr)
    print(f"run recorded: {run_id}", file=sys.stderr)
    return 0


def cmd_submit(args) -> int:
    """``submit``: send one aging query to a running service.

    Prints the job id and state; with ``--wait`` polls to completion
    and renders the result exactly like ``repro age``.
    """
    import time as _time

    scenario = {"ras": args.ras, "t_active": args.t_active,
                "t_standby": args.t_standby, "years": args.years,
                "standby": args.standby}
    status, doc = _http_json(f"{args.url}/submit",
                             payload={"circuit": args.circuit,
                                      "scenario": scenario})
    if status not in (200, 202):
        print(f"error: submit failed ({status}): "
              f"{doc.get('error', doc)}", file=sys.stderr)
        return 1
    job_id = doc["job_id"]
    print(f"job   : {job_id}", file=sys.stderr)
    print(f"state : {doc['state']}"
          + (" (cached)" if doc.get("cached") else ""), file=sys.stderr)
    if not args.wait:
        print(job_id)
        return 0
    deadline = _time.monotonic() + args.wait_timeout
    while _time.monotonic() < deadline:
        status, doc = _http_json(f"{args.url}/status/{job_id}")
        if status == 200 and doc["state"] in ("done", "failed"):
            break
        _time.sleep(args.poll)
    else:
        print(f"error: job {job_id} still {doc.get('state', '?')!r} "
              f"after {args.wait_timeout:g}s", file=sys.stderr)
        return 1
    return _fetch_result(args.url, job_id, as_json=False)


def _fetch_result(url: str, job_id: str, *, as_json: bool) -> int:
    import json

    status, doc = _http_json(f"{url}/result/{job_id}")
    if status == 404:
        print(f"error: unknown job {job_id!r}", file=sys.stderr)
        return 2
    if status == 202:
        print(f"job {job_id} is {doc['status']}; try again later",
              file=sys.stderr)
        return 3
    if status != 200:
        print(f"error: job {job_id} failed: "
              f"{json.dumps(doc.get('error'))}", file=sys.stderr)
        return 1
    if as_json:
        print(json.dumps(doc["numbers"], indent=2, sort_keys=True))
    else:
        _render_served_result(doc)
    return 0


def cmd_result(args) -> int:
    """``result``: fetch (and render) one job's numbers.

    Exit codes: 0 done, 1 failed, 2 unknown job, 3 still pending.
    """
    return _fetch_result(args.url, args.job_id, as_json=args.json)


def _report_store(args):
    """The optional artifact store backing ``repro report`` actions."""
    store_dir = getattr(args, "store", None)
    if not store_dir:
        return None
    from repro.artifacts import ArtifactStore

    return ArtifactStore(store_dir)


def cmd_report_history(args) -> int:
    """``report history``: list the run records stored under ``runs/``."""
    store = _report_store(args)
    records = obs.load_history(store)
    if args.limit is not None:
        records = records[-args.limit:]
    if args.ids:
        for record in records:
            print(record.get("run_id", "?"))
        return 0
    if not records:
        print("no recorded runs", file=sys.stderr)
        return 0
    rows = []
    for record in records:
        row = obs.summarize_record(record)
        rows.append([row["run_id"], row["recorded_at"],
                     row["command"] or row["label"],
                     row["host"], row["git_rev"] or "-",
                     f"{row['wall_seconds']:.3f}", row["spans"]])
    print(format_table(
        ["run id", "recorded (UTC)", "command", "host", "git rev",
         "wall (s)", "spans"], rows,
        title=f"run history: {store.root}"))
    return 0


def cmd_report_diff(args) -> int:
    """``report diff``: compare two RunReports under tolerance bands.

    Inputs are file paths, ``-`` (stdin), or (with ``--store``) stored
    run ids / unique id prefixes.  Exit codes: 0 the diff passes, 1 at
    least one regression (the CI gate), 2 an input failed to resolve.
    """
    import json

    store = _report_store(args)
    try:
        doc_a, label_a = obs.resolve_report(args.run_a, store=store)
        doc_b, label_b = obs.resolve_report(args.run_b, store=store)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tolerance = obs.Tolerance(span_rel=args.span_rel,
                              span_abs_s=args.span_abs,
                              fail_on_added=args.fail_on_added)
    diff = obs.diff_reports(doc_a, doc_b, tolerance=tolerance,
                            label_a=label_a, label_b=label_b)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(obs.format_diff(diff, verbose=args.all))
    return 0 if diff.passed else 1


def cmd_report_timeline(args) -> int:
    """``report timeline``: span trace -> Chrome ``trace_event`` JSON.

    Accepts a ``--trace`` JSONL file, a ``--metrics`` RunReport, a
    stored run id (with ``--store``), or ``-`` for stdin; the output
    loads in Perfetto / ``chrome://tracing`` with pool and serve
    workers on their own pid lanes.
    """
    import json

    store = _report_store(args)
    try:
        if (store is not None and args.input != "-"
                and not Path(args.input).exists()):
            report_doc, _ = obs.resolve_report(args.input, store=store)
            trace = obs.convert(json.dumps(report_doc))
        else:
            trace = obs.convert_file(args.input)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(trace, indent=1) + "\n"
    if args.out and args.out != "-":
        Path(args.out).write_text(text, encoding="utf-8")
        events = len(trace.get("traceEvents", []))
        print(f"wrote {args.out} ({events} events)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_table1(args) -> int:
    """``table1``: the paper's Table 1 dVth grid."""
    rows = []
    ras_list = ("9:1", "5:1", "1:1", "1:5", "1:9")
    for tst in (330.0, 350.0, 370.0, 400.0):
        row = [f"{tst:.0f} K"]
        for ras in ras_list:
            profile = OperatingProfile.from_ras(ras, t_standby=tst)
            dv = DEFAULT_MODEL.worst_case_shift(profile, years(args.years),
                                                args.vth0)
            row.append(f"{dv * 1e3:6.2f}")
        rows.append(row)
    print(format_table(["T_standby \\ RAS"] + list(ras_list), rows,
                       title=f"dVth (mV) after {args.years:g} years, "
                             f"T_active = 400 K"))
    return 0


def _add_obs_args(parser: argparse.ArgumentParser, *,
                  suppress: bool = False) -> None:
    """The global observability/verbosity flags.

    Added once to the root parser (real defaults) and once per
    subcommand with ``default=argparse.SUPPRESS`` — an absent
    post-subcommand flag then leaves the root-parsed value alone, so
    both ``repro --trace f age c17`` and ``repro age c17 --trace f``
    work.  The ``-v`` count action *increments* whatever the root
    already counted, so ``repro -v age c17 -v`` means ``-vv``.
    """
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--trace", metavar="FILE",
                        **(kw or {"default": None}),
                        help="write a span trace (JSONL) to FILE")
    parser.add_argument("--metrics", metavar="FILE",
                        **(kw or {"default": None}),
                        help="write a RunReport (JSON) to FILE")
    parser.add_argument("-v", "--verbose", action="count",
                        **(kw or {"default": 0}),
                        help="log progress (-v info, -vv debug)")


def _configure_logging(verbose: int) -> None:
    """Attach a stderr handler to the ``repro`` logger per ``-v`` count."""
    if not verbose:
        return
    level = logging.INFO if verbose == 1 else logging.DEBUG
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(level)


#: Subcommands whose ``--store`` runs are filed into run history.
_RECORDED_COMMANDS = ("age", "sweep")


def _run_observed(args) -> int:
    """Run the selected subcommand, collecting and writing observability.

    With ``--trace`` or ``--metrics``, installs a real tracer (which is
    the collection-active switch for metrics and cache-stats too), runs
    the command under a root ``repro.<command>`` span, and writes the
    requested artifacts; otherwise calls straight through on the no-op
    path.  ``age``/``sweep`` with ``--store`` always collect: their
    RunReport is filed into the store's ``runs/`` history (a stderr
    note only — stdout stays byte-identical to an untraced run).
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    record_dir = (getattr(args, "store", None)
                  if args.command in _RECORDED_COMMANDS else None)
    if not trace_path and not metrics_path and not record_dir:
        return args.func(args)
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    captured: List[dict] = []
    with obs.use_tracer(tracer), obs.use_metrics(registry), \
            obs.cache_scope(captured):
        with obs.span(f"repro.{args.command}"):
            code = args.func(args)
    if trace_path:
        tracer.write_jsonl(trace_path)
    if metrics_path or record_dir:
        report = obs.RunReport(f"repro {args.command}",
                               spans=tracer.span_dicts(),
                               metrics=registry.snapshot(),
                               cache_stats=captured)
        if metrics_path:
            report.write(metrics_path)
        if record_dir and code == 0:
            # A fresh store handle: constructed outside the scope
            # above so its CacheStats never leak into the report.
            from repro.artifacts import ArtifactStore

            run_id = obs.record_run(ArtifactStore(record_dir), report,
                                    command=f"repro {args.command}")
            print(f"run recorded: {run_id}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes only whole option names.

    argparse's default prefix matching would silently read
    ``--out 5`` as ``--outputs 5``; a subparser is built from its
    parent's class, so every subcommand parser is one of these too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = _Parser(
        prog="repro",
        description="Temperature-aware NBTI analysis (Wang et al. "
                    "DATE'07/TDSC'11 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    _add_obs_args(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="netlist statistics")
    p.add_argument("circuit")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("age", help="temperature-aware aged timing")
    p.add_argument("circuit")
    _add_profile_args(p)
    p.add_argument("--standby", choices=("worst", "best"), default="worst",
                   help="bounding standby state (default worst)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="persistent artifact store: hydrate compiled "
                        "bundles and cache the result")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_age)

    p = sub.add_parser("mlv", help="leakage/NBTI co-optimized standby vector")
    p.add_argument("circuit")
    _add_profile_args(p)
    p.add_argument("--vectors", type=int, default=48,
                   help="vectors per search round (default 48)")
    p.add_argument("--set-size", type=int, default=6,
                   help="MLV set size (default 6)")
    p.add_argument("--seed", type=int, default=0)
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_mlv)

    p = sub.add_parser("sleep", help="sleep-transistor sizing + aged timing")
    p.add_argument("circuit")
    _add_profile_args(p)
    p.add_argument("--beta", type=float, default=0.05,
                   help="delay-penalty budget (default 0.05)")
    p.add_argument("--style", choices=[s.value for s in
                                       __import__("repro.sleep",
                                                  fromlist=["SleepStyle"]
                                                  ).SleepStyle],
                   default="header")
    p.add_argument("--vth-st", type=float, default=0.22, dest="vth_st")
    p.add_argument("--nbti-aware", action="store_true",
                   help="apply the eq. 31 end-of-life upsizing")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_sleep)

    p = sub.add_parser("guardband", help="device-level lifetime guard-band")
    _add_profile_args(p)
    p.add_argument("--vth0", type=float, default=0.22)
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_guardband)

    p = sub.add_parser("table1", help="print the paper's Table 1 grid")
    p.add_argument("--years", type=float, default=10.0)
    p.add_argument("--vth0", type=float, default=0.22)
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("paths", help="K longest (optionally aged) paths")
    p.add_argument("circuit")
    p.add_argument("-k", type=int, default=10, help="paths to list")
    p.add_argument("--aged", action="store_true",
                   help="rank by 10-year aged delay")
    _add_profile_args(p)
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("table4", help="internal-node-control potential sweep")
    p.add_argument("circuit")
    p.add_argument("--ras", default="1:9")
    p.add_argument("--years", type=float, default=10.0)
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser("generate",
                       help="emit a seeded synthetic .bench netlist")
    p.add_argument("out", help="output .bench path")
    p.add_argument("--gates", type=int, required=True,
                   help="target gate count (array engine: O(gates))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inputs", type=int, default=None,
                   help="primary inputs (default: scale profile, "
                        "~sqrt(gates))")
    p.add_argument("--outputs", type=int, default=None,
                   help="primary outputs (default: inputs // 4)")
    p.add_argument("--name", default=None,
                   help="circuit name (default: derived from gates/seed)")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "sweep", help="co-optimize many circuits in parallel",
        description="Co-optimize many circuits, one worker process per "
                    "circuit. With --store DIR each row is a result "
                    "record: a re-run on the same store prints stored "
                    "rows from their records and computes only the "
                    "missing ones, so re-running a stopped sweep resumes "
                    "it (the --shards, --resume and --max-shards flags "
                    "are gone). A fully stored sweep prints 'bundle "
                    "hits=0 misses=0, result hits=N misses=0' on stderr; "
                    "its RunReport counts stored rows as result hits in "
                    "the 'store:' cache scope and holds no worker spans "
                    "for them. Without --store nothing is stored and "
                    "every row is computed.")
    p.add_argument("circuits", nargs="+",
                   help="circuits to sweep (one worker process each)")
    _add_profile_args(p)
    p.add_argument("--vectors", type=int, default=48,
                   help="vectors per search round (default 48)")
    p.add_argument("--set-size", type=int, default=6,
                   help="MLV set size (default 6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: one per circuit, "
                        "capped at the CPU count; 1 = serial)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="persistent artifact store: each row is saved as "
                        "a result record as soon as it and every row "
                        "before it are done (a re-run resumes), and the "
                        "shipped compiled bundles persist")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cache",
                       help="inspect/warm/clear a persistent artifact store")
    p.add_argument("action", choices=("info", "warm", "clear"))
    p.add_argument("circuits", nargs="*",
                   help="circuits to pre-warm (for 'warm')")
    p.add_argument("--store", metavar="DIR", required=True,
                   help="artifact store directory")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("serve",
                       help="run the long-running analysis service")
    p.add_argument("--store", metavar="DIR", required=True,
                   help="artifact store backing the job queue and "
                        "result cache")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (default 0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent worker processes (default 2)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-job wall-time limit in seconds "
                        "(default 300)")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per job (default 2)")
    p.add_argument("--backoff", type=float, default=0.05,
                   help="base retry backoff in seconds, doubled per "
                        "attempt (default 0.05)")
    p.add_argument("--drain-grace", type=float, default=5.0,
                   help="seconds running jobs get to finish on "
                        "SIGTERM before requeue (default 5)")
    p.add_argument("--allow-faults", action="store_true",
                   help="honor job-record fault hooks (testing only)")
    p.add_argument("--ready-file", metavar="FILE", default=None,
                   help="write {url, port, pid} JSON here once "
                        "accepting requests")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="send one aging query to a running service")
    p.add_argument("circuit")
    _add_profile_args(p)
    p.add_argument("--standby", choices=("worst", "best"), default="worst",
                   help="bounding standby state (default worst)")
    p.add_argument("--url", required=True,
                   help="service base URL (e.g. http://127.0.0.1:8434)")
    p.add_argument("--wait", action="store_true",
                   help="poll to completion and render the result")
    p.add_argument("--wait-timeout", type=float, default=120.0,
                   help="give up waiting after this many seconds "
                        "(default 120)")
    p.add_argument("--poll", type=float, default=0.2,
                   help="poll interval while waiting (default 0.2s)")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("result",
                       help="fetch (and render) a submitted job's numbers")
    p.add_argument("job_id")
    p.add_argument("--url", required=True,
                   help="service base URL (e.g. http://127.0.0.1:8434)")
    p.add_argument("--json", action="store_true",
                   help="print the raw numbers JSON instead of the "
                        "age report")
    _add_obs_args(p, suppress=True)
    p.set_defaults(func=cmd_result)

    p = sub.add_parser("report",
                       help="run history, report diffing, trace timelines")
    rsub = p.add_subparsers(dest="report_action", required=True)

    rp = rsub.add_parser("history",
                         help="list run records stored under runs/")
    rp.add_argument("--store", metavar="DIR", required=True,
                    help="artifact store holding the run history")
    rp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="show only the newest N runs")
    rp.add_argument("--ids", action="store_true",
                    help="print bare run ids (oldest first)")
    _add_obs_args(rp, suppress=True)
    rp.set_defaults(func=cmd_report_history)

    rp = rsub.add_parser("diff",
                         help="compare two RunReports (the perf gate)")
    rp.add_argument("run_a", help="baseline: file, run id, or '-'")
    rp.add_argument("run_b", help="candidate: file, run id, or '-'")
    rp.add_argument("--store", metavar="DIR", default=None,
                    help="resolve run ids against this store")
    rp.add_argument("--span-rel", type=float, default=0.5,
                    help="relative span slowdown tolerated "
                         "(default 0.5 = +50%%)")
    rp.add_argument("--span-abs", type=float, default=0.02,
                    metavar="SECONDS",
                    help="absolute span slowdown tolerated "
                         "(default 0.02 s)")
    rp.add_argument("--fail-on-added", action="store_true",
                    help="treat spans new in B as regressions too")
    rp.add_argument("--json", action="store_true",
                    help="emit the full diff document as JSON")
    rp.add_argument("--all", action="store_true",
                    help="list unchanged entries too")
    _add_obs_args(rp, suppress=True)
    rp.set_defaults(func=cmd_report_diff)

    rp = rsub.add_parser("timeline",
                         help="span trace -> Chrome trace_event JSON "
                              "(Perfetto)")
    rp.add_argument("input",
                    help="trace JSONL, RunReport JSON, stored run id, "
                         "or '-' for stdin")
    rp.add_argument("-o", "--out", default=None, metavar="FILE",
                    help="output path (default stdout)")
    rp.add_argument("--store", metavar="DIR", default=None,
                    help="resolve run ids against this store")
    _add_obs_args(rp, suppress=True)
    rp.set_defaults(func=cmd_report_timeline)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    try:
        return _run_observed(args)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro report history | head`):
        # stop quietly instead of tracebacking.  Stdout is re-pointed
        # at devnull so interpreter shutdown does not re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
