"""One NaN/Inf refusal for every caller's array, each with its gate's own message.

``numerics._finite`` converts a caller's array and refuses NaN and +-Inf with
the message the caller hands it. Seven gates go through it: a square matrix
(``as_square_matrix``), a state vector (``check_state_vector``), a cycle's
priors and membrane basis, component states, an ensemble's projectors, and a
MUB family that is not the package's own. The table below pins each gate's
exact message for NaN, +Inf and -Inf, and for an imaginary NaN where the gate
reads complex entries. The three bounds of an ensemble read its certainty
operator through ``as_square_matrix``, so a directly built
``MeasurementEnsemble`` with a non-finite projector entry is refused by each
of them with the matrix message, and without a numpy warning first.
"""

import warnings

import numpy as np
import pytest

from finecert.bounds import (
    EnsembleTerm,
    MeasurementEnsemble,
    lhs_value,
    measurement_ensemble,
    zeta_gridsearch,
    zeta_spectral,
)
from finecert.cycle import component_states, cycle_config, delta_w, work_retrieval_w2
from finecert.mub import MubFamily, mub_family, verify_mub
from finecert.numerics import (
    check_hermitian,
    check_state_vector,
    hermitian_eig,
    projector,
    von_neumann_entropy,
)

REAL_BAD = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
BAD = {**REAL_BAD, "imag-nan": complex(0.0, np.nan)}


def spoiled(a, at, bad) -> np.ndarray:
    """A complex copy of ``a`` with ``bad`` at index ``at``."""
    a = np.array(a, dtype=complex)
    a[at] = bad
    return a


MATRIX = "matrix contains NaN or Inf entries"
STATE = "state contains NaN or Inf entries"
COMPONENTS = "component states contain NaN or Inf entries"

#: gate -> (call on one bad entry, exact message, whether the gate reads complex entries)
GATES = {
    "hermitian_eig": (lambda bad: hermitian_eig(spoiled(np.eye(2) / 2, (1, 0), bad)), MATRIX, True),
    "check_hermitian": (lambda bad: check_hermitian(spoiled(np.eye(2), (0, 0), bad)), MATRIX, True),
    "von_neumann_entropy": (
        lambda bad: von_neumann_entropy(spoiled(np.eye(2) / 2, (1, 1), bad)), MATRIX, True),
    "check_state_vector": (lambda bad: check_state_vector(spoiled([0.0, 1.0], 0, bad)), STATE, True),
    "projector": (lambda bad: projector(spoiled([1.0, 0.0, 0.0], 2, bad)), STATE, True),
    "cycle_config-priors": (
        lambda bad: cycle_config(3, priors=[0.5, bad, 0.5]), "priors contain NaN or Inf entries", False),
    "cycle_config-basis": (
        lambda bad: cycle_config(3, basis=spoiled(np.eye(3), (2, 2), bad)),
        "membrane basis contains NaN or Inf entries", True),
    "delta_w": (
        lambda bad: delta_w(cycle_config(3), spoiled(component_states(3), (1, 0, 1), bad)),
        COMPONENTS, True),
    "work_retrieval_w2": (
        lambda bad: work_retrieval_w2(cycle_config(3), spoiled(component_states(3), (2, 2, 2), bad)),
        COMPONENTS, True),
    "measurement_ensemble": (
        lambda bad: measurement_ensemble([("z0", 1.0, spoiled(np.diag([1.0, 0.0]), (1, 1), bad))]),
        "projector for term 'z0' contains NaN or Inf entries", True),
    "verify_mub": (
        lambda bad: verify_mub(MubFamily(d=3, bases=spoiled(mub_family(3).bases, (2, 1, 0), bad))),
        "family bases contain NaN or Inf entries", True),
}

CASES = [
    pytest.param(gate, bad, id=f"{gate}-{name}")
    for gate, (_, _, is_complex) in GATES.items()
    for name, bad in (BAD if is_complex else REAL_BAD).items()
]


@pytest.mark.parametrize("gate, bad", CASES)
def test_each_gate_refuses_nan_and_inf_with_its_own_message(gate, bad):
    call, message, _ = GATES[gate]
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == message


def raw_ensemble(bad) -> MeasurementEnsemble:
    """A directly built, unvalidated ensemble whose one projector holds ``bad``."""
    proj = spoiled(np.diag([1.0, 0.0]), (1, 1), bad)
    return MeasurementEnsemble(dim=2, terms=(EnsembleTerm("z0", 1.0, proj),))


BOUNDS = {
    "zeta_spectral": zeta_spectral,
    "lhs_value": lambda ens: lhs_value(ens, [1.0, 0.0]),
    "zeta_gridsearch": lambda ens: zeta_gridsearch(ens, 8),
}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
def test_every_bound_reads_its_operator_through_the_matrix_gate(bound, bad):
    with pytest.raises(ValueError) as info:
        BOUNDS[bound](raw_ensemble(bad))
    assert str(info.value) == MATRIX


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
def test_no_bound_warns_before_it_refuses_a_non_finite_operator(bound, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning from the operator's sum fails here
        with pytest.raises(ValueError) as info:
            BOUNDS[bound](raw_ensemble(bad))
    assert str(info.value) == MATRIX


def test_the_grid_checks_its_steps_before_the_operator():
    with pytest.raises(ValueError) as info:
        zeta_gridsearch(raw_ensemble(np.nan), 4)
    assert str(info.value) == "steps_per_angle must be >= 8 (got 4)"
