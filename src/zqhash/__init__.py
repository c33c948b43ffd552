"""Quantum-style hash states over the residues mod q.

Build the standard, shallow, and single-qubit hash constructions on a
small real-amplitude simulator, certify their collision resistance by
exhaustive sweep, and search for good parameter sets. See the `cli`
module or the `zqhash` console script for the command-line surface.
"""
from .analysis import (
    ResistanceReport,
    bias,
    closed_inner_shallow,
    closed_inner_single,
    collision_resistance,
    cosine_sum_check,
    epsilon_of_biased_set,
    shift_normalize,
    simulated_inner,
)
from .hashing import (
    BiasedSet,
    HashForm,
    ParamSet,
    build_hash,
    build_shallow_hash,
    build_single_qubit_hash,
    build_standard_hash,
    derive_biased_set,
    linear_combination,
    separability_defect,
    shallow_hash_circuit,
    single_qubit_hash_circuit,
    standard_hash_circuit,
)
from .search import (
    SearchConfig,
    SearchResult,
    exhaustive_search,
    random_search,
)
from .statevec import (
    GateOp,
    StateVector,
    apply_controlled_ry,
    apply_h,
    apply_ry,
    apply_ucr,
    basis_state,
    inner_product,
    run_circuit,
    zero_state,
)
from .verification import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "BiasedSet",
    "CheckResult",
    "GateOp",
    "HashForm",
    "ParamSet",
    "ResistanceReport",
    "SearchConfig",
    "SearchResult",
    "StateVector",
    "apply_controlled_ry",
    "apply_h",
    "apply_ry",
    "apply_ucr",
    "basis_state",
    "bias",
    "build_hash",
    "build_shallow_hash",
    "build_single_qubit_hash",
    "build_standard_hash",
    "closed_inner_shallow",
    "closed_inner_single",
    "collision_resistance",
    "cosine_sum_check",
    "derive_biased_set",
    "epsilon_of_biased_set",
    "exhaustive_search",
    "inner_product",
    "linear_combination",
    "random_search",
    "run_all_checks",
    "run_circuit",
    "separability_defect",
    "shallow_hash_circuit",
    "shift_normalize",
    "simulated_inner",
    "single_qubit_hash_circuit",
    "standard_hash_circuit",
    "zero_state",
    "__version__",
]
