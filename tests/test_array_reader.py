"""One reader of a caller's array shape: ``numerics._shape``.

It reads nested lists and tuples one entry at a time at every level, and a
Python number as ``()`` with no numpy call, so no gate converts a caller's
list to learn its shape. These tests pin that the reader agrees with
``np.shape`` (numpy's own error included, for ragged input and for nesting
deeper than numpy's 64 dimensions), that refusing a 10**6-entry flat list
makes no numpy call per entry at the gates that count a vector, and that a
(2, 1000, 1000) list of lists is refused under 1 MB, with each gate's own
message, at the six gates that read a matrix, a state or a family.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finecert import bounds, cycle, numerics, qubit
from finecert.mub import MubFamily, verify_mub
from finecert.numerics import MAX_DIM, check_state_vector, hermitian_eig, projector

MEGABYTE = 1 << 20
N = 10**6


def nested(shape, leaf=0.0):
    """A list of lists of ``shape``; the rows of each level are one shared list."""
    value = leaf
    for n in reversed(shape):
        value = [value] * n
    return value


def numpy_error(value) -> str:
    with pytest.raises(ValueError) as info:
        np.shape(value)
    return str(info.value)


READABLE = {
    "empty-list": [],
    "empty-tuple": (),
    "empty-rows": [[], []],
    "numbers": [1, 2.0, 3j],
    "bools": [True, False],
    "rows": [[1, 2], [3, 4]],
    "tuple-rows": ([1, 2], (3, 4)),
    "array-and-rows": [np.zeros((2, 3)), [[1, 2, 3], [4, 5, 6]]],
    "numpy-scalars": [[np.float64(1.0)], [np.int8(2)]],
    "0-d-array-and-number": [np.array(1.0), 2.0],
    "int": 5,
    "float": 2.5,
    "complex": 1j,
    "bool": True,
    "float32": np.float32(1.0),
    "array": np.zeros((2, 2)),
    "str": "ab",
    "None": None,
    "64-deep": nested((1,) * 64),
}


@pytest.mark.parametrize("form", READABLE)
def test_the_reader_agrees_with_numpy(form):
    value = READABLE[form]
    assert numerics._shape(value) == np.shape(value)


@pytest.mark.parametrize(
    "value",
    [[[1, 2], [3]], [[1], 2], [[[1, 2]], [[3]]], [[[1, 2], [3]]], [[[0.5]] * 3, [[0.5]] * 2],
     nested((1,) * 65), nested((1,) * 2000)],
    ids=["ragged-rows", "row-and-number", "ragged-deeper", "ragged-inside", "ragged-planes", "65-deep",
         "2000-deep"],
)
def test_ragged_or_too_deep_input_raises_numpys_own_error(value):
    with pytest.raises(ValueError) as info:
        numerics._shape(value)
    assert str(info.value) == numpy_error(value)


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(0, 4), min_size=1, max_size=5),
       leaf=st.sampled_from([0.5, 1, 2j, True, np.float64(0.5)]), tuples=st.booleans())
def test_rectangular_nesting_reads_as_numpy_does(shape, leaf, tuples):
    value = nested(shape, leaf)
    if tuples:
        value = tuple(value)
    assert numerics._shape(value) == np.shape(value)


#: gate -> (call on a flat list of N entries, exact message)
FLAT_GATES = {
    "check_unit_vector": (qubit.check_unit_vector, f"expected a 3-component direction, got {N}"),
    "cycle_config-priors": (lambda v: cycle.cycle_config(3, priors=v), f"need 3 priors, got {N}"),
    "hyperspherical_state-x": (
        lambda v: bounds.hyperspherical_state(v, [0.5]),
        f"need d-1 moduli angles and d-1 phases, got {N} and 1",
    ),
    "check_state_vector": (lambda v: check_state_vector(v, dim=2), f"state has dimension {N}, expected 2"),
    "projector": (projector, f"state dimension={N} exceeds the supported maximum {MAX_DIM}"),
}


@pytest.mark.parametrize("gate", FLAT_GATES)
def test_a_long_flat_list_is_counted_without_a_numpy_call_per_entry(gate):
    call, message = FLAT_GATES[gate]
    with mock.patch("numpy.shape", wraps=np.shape) as spy, pytest.raises(ValueError) as info:
        call([0.5] * N)
    assert str(info.value) == message
    assert spy.call_count < 10


BIG = (2, 1000, 1000)  # a float copy would take 16 MB

#: gate -> (call on a list of lists of shape BIG, exact message)
NESTED_GATES = {
    "verify_mub": (lambda a: verify_mub(MubFamily(d=3, bases=a)),
                   "family bases have shape (2, 1000, 1000), expected (4, 3, 3)"),
    "hermitian_eig": (hermitian_eig, "expected a square matrix, got shape (2, 1000, 1000)"),
    "cycle_config-basis": (lambda a: cycle.cycle_config(3, basis=a),
                           "membrane basis must be 3x3, got (2, 1000, 1000)"),
    "measurement_ensemble": (lambda a: bounds.measurement_ensemble([("a", 1.0, a)]),
                             "projector for term 'a' is not square: (2, 1000, 1000)"),
    "check_state_vector": (lambda a: check_state_vector(a, dim=2), "state has dimension 2000000, expected 2"),
    "projector": (projector, f"state dimension=2000000 exceeds the supported maximum {MAX_DIM}"),
}


@pytest.mark.parametrize("gate", NESTED_GATES)
def test_a_deep_nested_list_is_refused_before_any_of_it_is_converted(gate):
    call, message = NESTED_GATES[gate]
    big = nested(BIG)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            call(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < MEGABYTE
