"""The Fig. 6 analysis/optimization platform and extensions (S12)."""

from repro.flow.platform import (
    AnalysisPlatform,
    CoOptimizationReport,
    ScenarioReport,
)
from repro.flow.dual_vth import (
    DualVthResult,
    assign_dual_vth,
    hvt_delay_factor,
    hvt_leakage_factor,
)
from repro.flow.sizing import SizingResult, SizingTimer, size_for_aging
from repro.flow.report import format_table, mv, ns, pct, ua
from repro.flow.parallel import (
    CoOptimizationJob,
    PotentialSweepJob,
    SweepRow,
    load_circuit,
    run_co_optimization_sweep,
    run_potential_sweep,
)

__all__ = [
    "AnalysisPlatform", "CoOptimizationReport", "ScenarioReport",
    "DualVthResult", "assign_dual_vth", "hvt_delay_factor",
    "hvt_leakage_factor",
    "SizingResult", "SizingTimer", "size_for_aging",
    "format_table", "mv", "ns", "pct", "ua",
    "CoOptimizationJob", "PotentialSweepJob", "SweepRow",
    "load_circuit", "run_co_optimization_sweep", "run_potential_sweep",
]
