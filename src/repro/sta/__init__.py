"""Static timing analysis + NBTI-aged timing (S7)."""

from repro.sta.analysis import (
    PO_CAP,
    WIRE_CAP,
    TimingResult,
    analyze,
    gate_loads,
)
from repro.sta.paths import TimingPath, enumerate_paths, path_slack_profile
from repro.sta.degradation import (
    ALL_ONE,
    ALL_ZERO,
    AgedDelaySummary,
    AgedTimingResult,
    AgingAnalyzer,
    decode_age_numbers,
    standby_net_states,
)

__all__ = [
    "PO_CAP", "WIRE_CAP", "TimingResult", "analyze", "gate_loads",
    "TimingPath", "enumerate_paths", "path_slack_profile",
    "ALL_ONE", "ALL_ZERO", "AgedDelaySummary", "AgedTimingResult",
    "AgingAnalyzer", "decode_age_numbers", "standby_net_states",
]
