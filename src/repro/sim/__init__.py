"""Logic simulation + signal-probability substrate (S4)."""

from repro.sim.logic import default_library, evaluate, evaluate_batch, outputs_for
from repro.sim.packed import PackedSimulator, pack_matrix, unpack_matrix
from repro.sim.probability import (
    estimate_activity,
    estimate_probabilities,
    propagate_probabilities,
)
from repro.sim.vectors import (
    all_vectors,
    bits_to_vector,
    constant_vector,
    random_vector,
    random_vectors,
    vector_to_bits,
)

__all__ = [
    "default_library", "evaluate", "evaluate_batch", "outputs_for",
    "PackedSimulator", "pack_matrix", "unpack_matrix",
    "estimate_activity", "estimate_probabilities", "propagate_probabilities",
    "all_vectors", "bits_to_vector", "constant_vector",
    "random_vector", "random_vectors", "vector_to_bits",
]
