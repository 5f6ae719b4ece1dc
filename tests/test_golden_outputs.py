"""Golden regression tests for the figure reproductions and the flows.

The Fig. 5 and Fig. 12 benchmark drivers are the repo's end-to-end
deliverables; these tests pin their exact numerical output (every float,
exact equality) against checked-in series under ``tests/golden/`` so an
accidental model, calibration, or kernel change cannot silently move a
published curve.  The run configurations mirror
``benchmarks/test_fig05_c432_degradation.py`` and
``benchmarks/test_fig12_statistical.py`` verbatim (the benchmark modules
themselves are not importable from the test tree).

Each greedy or Monte-Carlo flow has exactly one implementation, so its
fixture (``flow_*.json``) is what pins it: the flow runs on c17, c432,
c880 and a seeded 200-gate generated netlist, and every field of its
result must come back bit-identical.  ``perf_flows.json`` holds the
configurations the perf harnesses (``benchmarks/test_perf_hotpaths.py``,
``benchmarks/test_perf_aging.py``) check their timed runs against; it
is regenerated here but only round-tripped by tier-1, since its
full-size rows take seconds.

JSON stores floats via ``repr`` round-trip, so ``json.load`` returns the
bit-identical doubles that were dumped — the comparisons below are plain
``==``, never ``approx``.  To regenerate after an *intentional* model
change::

    PYTHONPATH=src python tests/test_golden_outputs.py --regen
"""

import dataclasses
import enum
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cells.leakage import LeakageTable
from repro.constants import TEN_YEARS, years
from repro.context import AnalysisContext
from repro.core import DEFAULT_MODEL, WORST_CASE_DEVICE, OperatingProfile
from repro.flow.dual_vth import assign_dual_vth
from repro.flow.sizing import size_for_aging
from repro.ivc.control_points import greedy_control_points
from repro.ivc.mlv import exhaustive_mlv_search, probability_based_mlv_search
from repro.netlist import iscas85, load_packaged
from repro.netlist.generators import random_logic
from repro.sim.logic import default_library
from repro.sleep import (SleepStyle, design_fine_grain,
                         design_sleep_transistor, gated_lifetime_series)
from repro.sta import ALL_ZERO, AgingAnalyzer
from repro.tech import PTM90
from repro.variation import FIG12_TIMES, VariationModel, statistical_aging

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The operating point every flow fixture (and perf harness) uses.
PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)


def as_json(value):
    """``value`` as plain JSON data, losslessly.

    Dataclasses become field dicts, sets sorted lists, tuples and arrays
    lists, NumPy scalars Python numbers and enums their values, so a
    flow result compares with ``==`` against its loaded fixture.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: as_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): as_json(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(as_json(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [as_json(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, enum.Enum):
        return value.value
    return value


def run_fig05():
    """Exact configuration of benchmarks/test_fig05_c432_degradation.py."""
    times = np.logspace(6, np.log10(TEN_YEARS), 8)
    circuit = iscas85.load("c432")
    analyzer = AgingAnalyzer()
    curves = {}
    for tst in (330.0, 370.0, 400.0):
        profile = OperatingProfile.from_ras("1:9", t_standby=tst)
        curves[tst] = [
            analyzer.aged_timing(circuit, profile, t,
                                 standby=ALL_ZERO).relative_degradation
            for t in times
        ]
    profile = OperatingProfile.from_ras("1:9", t_standby=330.0)
    vth_rel = [DEFAULT_MODEL.delta_vth(profile, WORST_CASE_DEVICE, t, 0.22)
               / PTM90.pmos.vth0 for t in times]
    return {
        "times": [float(t) for t in times],
        "curves": {f"{tst:g}": [float(v) for v in series]
                   for tst, series in curves.items()},
        "vth_rel": [float(v) for v in vth_rel],
    }


def run_fig12():
    """Exact configuration of benchmarks/test_fig12_statistical.py."""
    circuit = iscas85.load("c880")
    profile = OperatingProfile.from_ras("1:9", t_standby=400.0)
    result = statistical_aging(circuit, profile,
                               times=(0.0, years(3.0), TEN_YEARS),
                               n_samples=150,
                               variation=VariationModel(sigma_local=0.010),
                               seed=12)
    return {
        "times": [float(t) for t in result.times],
        "mean": [float(v) for v in result.mean()],
        "std": [float(v) for v in result.std()],
        "lower_3sigma": [float(v) for v in result.lower_3sigma()],
        "upper_3sigma": [float(v) for v in result.upper_3sigma()],
        "delays": [[float(v) for v in row] for row in result.delays],
    }


def corpus():
    """c17, c432, c880 and a seeded 200-gate generated netlist."""
    return [load_packaged("c17"), iscas85.load("c432"),
            iscas85.load("c880"), random_logic("g", 16, 4, 200, seed=11)]


def per_circuit(flow, circuits=None):
    """``{circuit name: as_json(flow(circuit))}`` over the corpus."""
    return {c.name: as_json(flow(c)) for c in circuits or corpus()}


def leakage_table():
    return LeakageTable.build(default_library(), 400.0)


def run_sizing():
    return per_circuit(lambda c: size_for_aging(
        c, PROFILE, context=AnalysisContext(c)))


def run_dual_vth():
    return per_circuit(lambda c: assign_dual_vth(
        c, context=AnalysisContext(c)))


def run_control_points():
    return per_circuit(lambda c: greedy_control_points(
        c, PROFILE, TEN_YEARS, max_points=4))


def run_mlv_search():
    table = leakage_table()
    return per_circuit(lambda c: probability_based_mlv_search(
        c, table, n_vectors=24, seed=5))


def run_mlv_exhaustive():
    table = leakage_table()
    return per_circuit(
        lambda c: exhaustive_mlv_search(c, table),
        [load_packaged("c17"),
         random_logic("ex", n_inputs=7, n_outputs=3, n_gates=25, seed=13)])


def run_statistical():
    variation = VariationModel(sigma_local=0.015, sigma_global=0.005)
    return per_circuit(lambda c: statistical_aging(
        c, PROFILE, times=FIG12_TIMES, n_samples=20, variation=variation,
        seed=8, context=AnalysisContext(c)))


def run_gated_series():
    def flow(c):
        ctx = AnalysisContext(c)
        return {style.value: gated_lifetime_series(
                    c, design_sleep_transistor(c, style, 0.05, context=ctx),
                    PROFILE, FIG12_TIMES, context=ctx)
                for style in SleepStyle}
    return per_circuit(flow)


def run_fine_grain():
    return per_circuit(lambda c: design_fine_grain(
        c, 0.05, context=AnalysisContext(c)))


def run_perf_flows():
    """The perf harnesses' control-point and statistical rows, smoke
    (c432) and full size."""
    def control_points(name, max_points):
        return as_json(greedy_control_points(
            iscas85.load(name), PROFILE, TEN_YEARS, max_points=max_points))

    def statistical(name, n_samples, times):
        circuit = iscas85.load(name)
        return as_json(statistical_aging(
            circuit, PROFILE, times=times, n_samples=n_samples,
            variation=VariationModel(sigma_local=0.015), seed=12,
            context=AnalysisContext(circuit)))

    series = (0.0,) + tuple(np.logspace(np.log10(years(0.25)),
                                        np.log10(TEN_YEARS), 10))
    return {
        "control_points[c432,max_points=4]": control_points("c432", 4),
        "control_points[c880,max_points=6]": control_points("c880", 6),
        "statistical[c432,n=32]": statistical("c432", 32, FIG12_TIMES),
        "statistical[c7552,n=200]": statistical("c7552", 200, series),
    }


RUNNERS = {"fig05_c432_degradation": run_fig05,
           "fig12_statistical": run_fig12,
           "flow_assign_dual_vth": run_dual_vth,
           "flow_design_fine_grain": run_fine_grain,
           "flow_exhaustive_mlv_search": run_mlv_exhaustive,
           "flow_gated_lifetime_series": run_gated_series,
           "flow_greedy_control_points": run_control_points,
           "flow_probability_based_mlv_search": run_mlv_search,
           "flow_size_for_aging": run_sizing,
           "flow_statistical_aging": run_statistical}

#: Regenerated with ``RUNNERS`` but checked by the perf harnesses only.
PERF_RUNNERS = {"perf_flows": run_perf_flows}


def load_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.fail(f"missing golden file {path}; regenerate with "
                    f"'PYTHONPATH=src python tests/test_golden_outputs.py "
                    f"--regen'")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_golden_exact(name):
    """The pipeline reproduces its checked-in output bit-for-bit."""
    got = RUNNERS[name]()
    want = load_golden(name)
    assert got == want, (
        f"{name} drifted from tests/golden/{name}.json — if the model "
        f"change is intentional, regenerate the golden files")


def test_golden_files_round_trip():
    """The checked-in JSON itself survives a dump/load cycle unchanged
    (guards against hand edits that lose the repr round-trip)."""
    for name in list(RUNNERS) + list(PERF_RUNNERS):
        want = load_golden(name)
        assert json.loads(json.dumps(want)) == want


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, runner in {**RUNNERS, **PERF_RUNNERS}.items():
        path = GOLDEN_DIR / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(runner(), fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
