"""Certainty bounds for projective measurements, mutually unbiased bases, and
a membrane work-extraction cycle relating the two to entropy accounting.

``import finecert`` loads no submodule. A public name (or a submodule such as
``finecert.cycle``) is resolved on first use, which loads only its submodule
and what that imports.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: Public names, by the submodule that defines them.
_EXPORTS = {
    "numerics": (
        "SpectralDecomposition",
        "binary_entropy",
        "check_density_matrix",
        "check_state_vector",
        "hermitian_eig",
        "projector",
        "shannon_entropy",
        "von_neumann_entropy",
    ),
    "mub": (
        "MubFamily",
        "MubVerification",
        "is_prime",
        "mub_family",
        "mub_vector",
        "verify_mub",
    ),
    "qubit": (
        "AverageCertainty",
        "PairCertainty",
        "TriplePauliBound",
        "average_certainty",
        "bloch_to_state",
        "pair_bound",
        "pair_certainty",
        "pauli_eigenbasis",
        "pauli_outcome_projector",
        "spin_projector",
        "spin_up_probability",
        "state_to_bloch",
        "triple_pauli_bound",
    ),
    "bounds": (
        "CertaintyBound",
        "GridSearchResult",
        "HypersphericalAngles",
        "MeasurementEnsemble",
        "all_outcome_pairs_bound",
        "certainty_operator",
        "hyperspherical_state",
        "lhs_value",
        "measurement_ensemble",
        "mub_pair_bound",
        "mub_pair_ensemble",
        "pauli_pair_ensemble",
        "pauli_triple_ensemble",
        "zeta_gridsearch",
        "zeta_spectral",
    ),
    "cycle": (
        "CycleConfig",
        "MembraneLayout",
        "ScanReport",
        "WorkReport",
        "chamber_distribution",
        "component_state",
        "component_states",
        "cycle_config",
        "delta_w",
        "haar_random_basis",
        "scan_bases",
        "singleton_arguments",
        "work_extraction_w1",
        "work_retrieval_w2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return _importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
