"""Process variation + statistical aging timing (S11)."""

from repro.variation.sampling import VariationModel
from repro.variation.statistical import (
    FIG12_TIMES,
    StatisticalAgingResult,
    statistical_aging,
)

__all__ = [
    "VariationModel",
    "FIG12_TIMES",
    "StatisticalAgingResult",
    "statistical_aging",
]
