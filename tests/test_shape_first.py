"""The shape-first rule at the three gates that read a caller's list of floats.

``qubit.check_unit_vector`` (behind ``spin_projector``, ``bloch_to_state``,
``pair_certainty`` and ``spin_up_probability``), ``cycle.cycle_config``'s
priors and ``bounds.hyperspherical_state``'s angles read the entry count of
their input before the float copy is made, as ``check_state_vector`` and
``projector`` do. A wrong count is refused with its message and without a
copy of the whole input: these tests pin both, under tracemalloc, for an
int8 array (whose float copy would take 8 MB) and for a list that holds one.
"""

import tracemalloc

import numpy as np
import pytest

from finecert import bounds, cycle, qubit

MEGABYTE = 1 << 20
N = 10**6
UNIT = [0.0, 0.0, 1.0]


def peak_and_message(call):
    """Tracemalloc peak of one call that must raise ValueError, with its message."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            call()
        return tracemalloc.get_traced_memory()[1], str(info.value)
    finally:
        tracemalloc.stop()


DIRECTION = f"expected a 3-component direction, got {N}"

GATES = {
    "check_unit_vector": (lambda v: qubit.check_unit_vector(v), DIRECTION),
    "spin_projector": (lambda v: qubit.spin_projector(v), DIRECTION),
    "bloch_to_state": (lambda v: qubit.bloch_to_state(v), DIRECTION),
    "pair_certainty": (lambda v: qubit.pair_certainty(UNIT, v), DIRECTION),
    "spin_up_probability": (lambda v: qubit.spin_up_probability(v, UNIT), DIRECTION),
    "cycle_config-priors": (lambda v: cycle.cycle_config(3, priors=v), f"need 3 priors, got {N}"),
    "hyperspherical_state-x": (
        lambda v: bounds.hyperspherical_state(v, [0.5]),
        f"need d-1 moduli angles and d-1 phases, got {N} and 1",
    ),
    "hyperspherical_state-phi": (
        lambda v: bounds.hyperspherical_state([0.5], v),
        f"need d-1 moduli angles and d-1 phases, got 1 and {N}",
    ),
}

INPUTS = {
    "int8-array": lambda: np.zeros(N, dtype=np.int8),
    "list-of-one-array": lambda: [np.zeros(N, dtype=np.int8)],
}


@pytest.mark.parametrize("form", sorted(INPUTS))
@pytest.mark.parametrize("gate", sorted(GATES))
def test_wrong_count_is_refused_before_the_float_copy(gate, form):
    call, message = GATES[gate]
    value = INPUTS[form]()  # built before tracing starts
    peak, got = peak_and_message(lambda: call(value))
    assert got == message
    assert peak < MEGABYTE


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: qubit.check_unit_vector(5.0), "expected a 3-component direction, got 1"),
        (lambda: qubit.check_unit_vector([[1.0, 0.0]]), "expected a 3-component direction, got 2"),
        (lambda: cycle.cycle_config(3, priors=[[0.5, 0.5]]), "need 3 priors, got 2"),
        (lambda: bounds.hyperspherical_state([], []), "need d-1 moduli angles and d-1 phases, got 0 and 0"),
        (lambda: bounds.hyperspherical_state([[0.1, 0.2]], [0.3]),
         "need d-1 moduli angles and d-1 phases, got 2 and 1"),
    ],
    ids=["scalar-direction", "nested-direction", "nested-priors", "no-angles", "nested-angles"],
)
def test_counts_are_the_flattened_sizes(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_inputs_of_the_right_count_take_their_nested_shapes():
    # a nested input of the right entry count is flattened, as before the count came first
    np.testing.assert_array_equal(qubit.check_unit_vector([[0.0], [0.0], [1.0]]), UNIT)
    cfg = cycle.cycle_config(3, priors=[[0.5], [0.25], [0.25]])
    np.testing.assert_array_equal(cfg.priors, [0.5, 0.25, 0.25])
    flat = bounds.hyperspherical_state([0.3, 0.4], [0.5, 0.6])
    assert bounds.hyperspherical_state([[0.3, 0.4]], [[0.5], [0.6]]).tobytes() == flat.tobytes()
