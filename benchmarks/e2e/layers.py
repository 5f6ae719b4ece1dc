"""Outside-in layer timing of one ``repro`` command.

Run as a script, in a fresh interpreter, exactly where the untraced
benchmark would run ``python -m repro <args>``::

    python benchmarks/e2e/layers.py --spawned-at WALL --timings FILE -- <args>

It imports ``repro.cli``, wraps the public function each layer exposes
(table :data:`LAYERS`) with a self-time clock, and then calls
``repro.cli.main(<args>)`` unchanged.  Stdout is therefore the
command's own output, and the timings follow the command's real call
path in its real order; the benchmark compares that stdout with the
untraced command's.  Nothing under ``src/`` changes: the wrappers live
in this process only.

A wrapped call's *self* time is its wall time minus the wall time of
the wrapped calls nested inside it, so nested layers (``aged_delays``
-> ``gate_shift_vector`` -> ``aging_plan`` -> ``stress_duties`` ->
``probabilities``) are each counted once.

The benchmark also imports this module to time the serve workload's
per-circuit work in its own process (:func:`installed`).
"""

import time

#: Wall clock at the script's first statement: the interpreter's own
#: start-up is this minus the parent's spawn stamp.
_ENTRY_WALL = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402


def gate_count(circuit):
    return {"netlist.gates": circuit.n_gates()}


def _devices(plan):
    return {"aging.kernel_devices": plan.n_devices}


def _vectors(report):
    return {"mlv.vectors_evaluated": report.search.evaluated}


def _result_hit(payload):
    return {"store.result_hits": int(payload is not None)}


#: (module, class or None, attribute, layer, count hook).  A layer may
#: own several functions; a hook turns a call's return value into
#: counts.
LAYERS = (
    ("repro.cli", None, "resolve_circuit", "netlist.parse_s", gate_count),
    ("repro.context", "AnalysisContext", "content_fingerprints",
     "fingerprint.circuit_s", None),
    ("repro.context", "AnalysisContext", "probabilities",
     "context.probabilities_s", None),
    ("repro.context", "AnalysisContext", "stress_duties",
     "context.stress_duties_s", None),
    ("repro.context", "AnalysisContext", "compiled_timing", "sta.lower_s",
     None),
    ("repro.sta.compiled", "CompiledTiming", "surface", "sta.surface_s",
     None),
    ("repro.context", "AnalysisContext", "aging_plan", "aging.plan_s",
     _devices),
    ("repro.context", "AnalysisContext", "gate_shift_vector",
     "aging.gate_shifts_s", None),
    ("repro.artifacts.bundle", "ArtifactBundle", "snapshot",
     "bundle.snapshot_s", None),
    ("repro.artifacts.bundle", "ArtifactBundle", "seed", "bundle.hydrate_s",
     None),
    ("repro.artifacts.store", "ArtifactStore", "save_bundle",
     "store.bundle_save_s", None),
    ("repro.artifacts.store", "ArtifactStore", "load_bundle",
     "store.bundle_load_s", None),
    ("repro.artifacts.store", "ArtifactStore", "save_result",
     "store.result_save_s", None),
    ("repro.artifacts.store", "ArtifactStore", "load_result",
     "store.result_load_s", _result_hit),
    ("repro.obs", None, "record_run", "store.run_record_s", None),
    ("repro.flow", "AnalysisPlatform", "co_optimize", "mlv.search_s",
     _vectors),
    ("repro.ivc", None, "potential_sweep", "ivc.potential_sweep_s", None),
    ("repro.cli", None, "_print_age_report", "cli.render_s", None),
    ("repro.cli", None, "format_table", "cli.render_s", None),
)


class LayerClock:
    """Self time, call count and hook counts per layer."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self._stack = []

    def wrap(self, layer, fn, hook):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested = [0.0]
            self._stack.append(nested)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                self._stack.pop()
                self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                      + took - nested[0])
                self.calls[layer] = self.calls.get(layer, 0) + 1
                if self._stack:
                    self._stack[-1][0] += took
            if hook is not None:
                for name, value in hook(result).items():
                    self.counts[name] = self.counts.get(name, 0) + value
            return result
        return timed

    def snapshot(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


@contextlib.contextmanager
def installed(clock):
    """Wrap every :data:`LAYERS` function with ``clock``; unwrap on exit."""
    undo = []
    try:
        for module_name, owner_name, attr, layer, hook in LAYERS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(clock.wrap(layer, raw.__func__, hook))
            else:
                wrapped = clock.wrap(layer, raw, hook)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
        yield clock
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() just before the spawn")
    parser.add_argument("--timings", required=True,
                        help="write the layer timings (JSON) here")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- then the repro command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    t0 = perf_counter()
    import repro.cli
    import_s = perf_counter() - t0

    clock = LayerClock()
    with installed(clock):
        code = repro.cli.main(command)
    sys.stdout.flush()
    doc = {"startup_s": _ENTRY_WALL - args.spawned_at,
           "import_repro_cli_s": import_s, "exit_code": code,
           **clock.snapshot()}
    doc["exited_at"] = time.time()
    with open(args.timings, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
