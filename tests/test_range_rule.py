"""One range rule for every count a caller sets, checked before anything is allocated.

``numerics.check_index(value, name, low, cap)`` is the package's one check that
a count is an integer in [low, cap]. These tests pin its two messages with a
hypothesis property, pin that the membrane layout presets, a layout's plan and
the quadrature panel count go through it before any allocation sized by the
count, and pin that the array boundaries (``numerics.as_square_matrix``,
``bounds.measurement_ensemble``, the basis of ``cycle.cycle_config`` and the
component states of the five cycle entry points) read a caller's shape before
they make its complex copy, as a state vector's size is read before its copy
when a dimension is expected and ``numerics.projector`` counts its vector
before the outer product. A nested list's shape is read an entry at a time,
as ``np.shape`` reports it, so a list of lists is never converted whole.
Component states holding NaN or Inf, or given as a scalar, None or a 0-d
array, are refused where they enter.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finecert import cycle, numerics, qubit
from finecert.bounds import measurement_ensemble
from finecert.cycle import CycleConfig, MembraneLayout, check_layout, component_states, cycle_config
from finecert.numerics import (
    MAX_DIM,
    as_square_matrix,
    check_density_matrix,
    check_hermitian,
    check_index,
    hermitian_eig,
    projector,
    von_neumann_entropy,
)

MEGABYTE = 1 << 20


def peak_and_message(call):
    """Tracemalloc peak of one call that must raise ValueError, with its message."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            call()
        return tracemalloc.get_traced_memory()[1], str(info.value)
    finally:
        tracemalloc.stop()


def finest_groups(d):
    """A valid finest layout over d outcomes, built without the preset's check."""
    return MembraneLayout("finest", tuple(tuple((i,) for i in range(d)) for _ in range(d)))


OVER_DIM = f"d={MAX_DIM + 1} exceeds the supported maximum {MAX_DIM}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MembraneLayout.paper_preset(MAX_DIM + 1), OVER_DIM),
        (lambda: MembraneLayout.symmetric_preset(MAX_DIM + 1), OVER_DIM),
        (lambda: MembraneLayout.finest(MAX_DIM + 1), OVER_DIM),
        (lambda: MembraneLayout.merged(MAX_DIM + 1), OVER_DIM),
        (lambda: MembraneLayout.symmetric_preset(0), "d must be >= 1 (got 0)"),
        (lambda: check_layout(finest_groups(MAX_DIM + 1), MAX_DIM + 1), OVER_DIM),
        (lambda: CycleConfig(MAX_DIM + 1, None, None, finest_groups(MAX_DIM + 1))._plan, OVER_DIM),
        (lambda: qubit.average_certainty(1.0, panels=qubit.MAX_PANELS + 1),
         f"panels={2**20 + 1} exceeds the supported maximum {2**20}"),
        (lambda: next(qubit._average_certainties([1.0], panels=qubit.MAX_PANELS + 1)),
         f"panels={2**20 + 1} exceeds the supported maximum {2**20}"),
        (lambda: qubit.average_certainty(1.0, panels=512), "panels must be >= 1024 (got 512)"),
        (lambda: projector(np.ones(MAX_DIM + 1) / np.sqrt(MAX_DIM + 1)),
         f"state dimension={MAX_DIM + 1} exceeds the supported maximum {MAX_DIM}"),
        (lambda: projector(np.ones(2000) / np.sqrt(2000)),
         f"state dimension=2000 exceeds the supported maximum {MAX_DIM}"),
    ],
    ids=["paper_preset", "symmetric_preset", "finest", "merged", "preset-d-0", "check_layout",
         "direct-config-plan", "average_certainty", "_average_certainties", "panels-below-1024",
         "projector-65", "projector-2000"],
)
def test_each_count_is_refused_at_its_cap_before_any_allocation(call, message):
    peak, got = peak_and_message(call)
    assert got == message
    assert peak < MEGABYTE


def test_counts_at_their_caps_are_accepted():
    assert MembraneLayout.finest(1).groups == (((0,),),)
    for preset in (MembraneLayout.paper_preset, MembraneLayout.symmetric_preset,
                   MembraneLayout.finest, MembraneLayout.merged):
        layout = preset(MAX_DIM)
        assert check_layout(layout, MAX_DIM) is layout
    closed, quadrature = qubit.average_certainty(1.0, panels=qubit.MAX_PANELS)
    assert abs(closed - quadrature) <= 1e-12


OVER_MATRIX = f"matrix dimension 1000 outside [1, {MAX_DIM}]"


@pytest.mark.parametrize(
    "call, message",
    [
        (hermitian_eig, OVER_MATRIX),
        (check_hermitian, OVER_MATRIX),
        (check_density_matrix, OVER_MATRIX),
        (von_neumann_entropy, OVER_MATRIX),
        (lambda a: measurement_ensemble([("a", 1.0, a)]),
         f"projector for term 'a' has dimension 1000, which exceeds the supported maximum {MAX_DIM}"),
        (lambda a: cycle_config(3, basis=a), "membrane basis must be 3x3, got (1000, 1000)"),
        (lambda a: qubit.state_to_bloch(a), "state has dimension 1000000, expected 2"),
    ],
    ids=["hermitian_eig", "check_hermitian", "check_density_matrix", "von_neumann_entropy",
         "measurement_ensemble", "cycle_config-basis", "state_to_bloch"],
)
def test_array_shape_is_checked_before_the_complex_copy(call, message):
    big = np.zeros((1000, 1000))  # one complex copy would take 16 MB
    peak, got = peak_and_message(lambda: call(big))
    assert got == message
    assert peak < MEGABYTE


def test_projector_at_the_dimension_cap_is_accepted():
    v = np.ones(MAX_DIM) / np.sqrt(MAX_DIM)
    p = projector(v)
    assert p.shape == (MAX_DIM, MAX_DIM)
    np.testing.assert_allclose(p, np.full((MAX_DIM, MAX_DIM), 1.0 / MAX_DIM), rtol=1e-14)


#: The entry points that take a caller's component states, each as (config, states) -> result.
COMPONENT_ENTRY_POINTS = {
    "delta_w": cycle.delta_w,
    "chamber_distribution": cycle.chamber_distribution,
    "work_extraction_w1": cycle.work_extraction_w1,
    "work_retrieval_w2": cycle.work_retrieval_w2,
    "singleton_arguments": cycle.singleton_arguments,
}


@pytest.mark.parametrize("entry", COMPONENT_ENTRY_POINTS)
@pytest.mark.parametrize("at", [(0, 0, 0), (1, 2, 2)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_component_states_are_refused_where_they_enter(entry, at, value, part):
    states = [rho.copy() for rho in component_states(3)]
    i, r, c = at
    states[i][r, c] = complex(value, 0.0) if part == "real" else complex(states[i][r, c].real, value)
    with pytest.raises(ValueError) as info:
        COMPONENT_ENTRY_POINTS[entry](cycle_config(3), states)
    assert str(info.value) == "component states contain NaN or Inf entries"


@pytest.mark.parametrize("entry", COMPONENT_ENTRY_POINTS)
@pytest.mark.parametrize("kind", ["list", "ndarray"])
def test_component_state_shape_is_read_before_the_complex_copy(entry, kind):
    cfg = cycle_config(3)
    # one complex copy of the three would take 48 MB
    states = [np.zeros((1000, 1000))] * 3 if kind == "list" else np.zeros((3, 1000, 1000))
    peak, got = peak_and_message(lambda: COMPONENT_ENTRY_POINTS[entry](cfg, states))
    assert got == "component states must be 3x3, got shape (1000, 1000)"
    assert peak < MEGABYTE


@pytest.mark.parametrize(
    "call, message",
    [
        (as_square_matrix, OVER_MATRIX),
        (lambda a: measurement_ensemble([("a", 1.0, a)]),
         f"projector for term 'a' has dimension 1000, which exceeds the supported maximum {MAX_DIM}"),
        (lambda a: cycle_config(3, basis=a), "membrane basis must be 3x3, got (1000, 1000)"),
    ],
    ids=["as_square_matrix", "measurement_ensemble", "cycle_config-basis"],
)
def test_nested_list_shape_is_read_without_converting_it(call, message):
    nested = [[0.0] * 1000 for _ in range(1000)]  # converted whole it would take 8 MB
    peak, got = peak_and_message(lambda: call(nested))
    assert got == message
    assert peak < MEGABYTE


@pytest.mark.parametrize("entry", COMPONENT_ENTRY_POINTS)
def test_nested_list_component_states_are_not_converted(entry):
    cfg = cycle_config(3)
    nested = [[0.0] * 1000 for _ in range(1000)]
    peak, got = peak_and_message(lambda: COMPONENT_ENTRY_POINTS[entry](cfg, [nested] * 3))
    assert got == "component states must be 3x3, got shape (1000, 1000)"
    assert peak < MEGABYTE


@pytest.mark.parametrize(
    "value",
    [
        [[1, 2], [3, 4]],
        ((1.0, 2.0), [3.0, 4.0]),
        [np.zeros(2), [1, 2]],
        [np.zeros((2, 2)), np.ones((2, 2))],
        ["ab", "cd"],
        [],
        [[]],
        5.0,
        [[1, 2], [3]],
        [[1, 2], "ab"],
        [[[1], [2, 3]], [[1], [2, 3]]],
    ],
    ids=["lists", "tuple-of-rows", "mixed-rows", "list-of-arrays", "strings", "empty", "empty-row",
         "scalar", "ragged", "row-and-scalar", "ragged-inside"],
)
def test_shape_reader_agrees_with_numpy(value):
    try:
        expected = np.shape(value)
    except ValueError as exc:  # ragged input keeps numpy's own error
        with pytest.raises(ValueError) as info:
            numerics._shape(value)
        assert str(info.value) == str(exc)
    else:
        assert numerics._shape(value) == expected


def test_ragged_matrix_gets_numpys_error():
    with pytest.raises(ValueError) as numpy_error:
        np.shape([[1.0, 0.0], [0.0]])
    with pytest.raises(ValueError) as info:
        as_square_matrix([[1.0, 0.0], [0.0]])
    assert str(info.value) == str(numpy_error.value)


@pytest.mark.parametrize(
    "entry, value",
    [
        pytest.param(entry, value, id=f"{entry}-{kind}")
        for entry in COMPONENT_ENTRY_POINTS
        for kind, value in (("float", 1.5), ("None", None), ("0-d", np.array(1.0)))
        if not (entry == "delta_w" and value is None)  # there None asks for the standard states
    ],
)
def test_component_states_that_are_no_sequence_are_refused_with_the_count(entry, value):
    with pytest.raises(ValueError) as info:
        COMPONENT_ENTRY_POINTS[entry](cycle_config(3), value)
    assert str(info.value) == f"need 3 component states, got {value!r}"


def test_component_states_may_be_any_iterable_and_a_complex_stack_is_not_copied():
    stack = np.asarray(component_states(3))
    assert cycle._component_stack(stack, 3) is stack
    cfg = cycle_config(3)
    expected = cycle.delta_w(cfg, component_states(3))
    assert cycle.delta_w(cfg, iter(component_states(3))) == expected
    assert cycle.delta_w(cfg, stack) == expected
    assert cycle.work_retrieval_w2(cfg, (rho for rho in stack)) == expected.w2


@pytest.mark.parametrize("entry", ["chamber_distribution", "work_extraction_w1", "singleton_arguments"])
def test_states_that_are_not_density_matrices_are_refused_on_every_probability_path(entry):
    with pytest.raises(ValueError) as info:
        COMPONENT_ENTRY_POINTS[entry](cycle_config(3), [2.0 * np.eye(3)] * 3)
    assert str(info.value) == "chamber weights sum to 3.000000000000, not 1"


@settings(max_examples=200, deadline=None)
@given(low=st.integers(-(2**62), 2**62), span=st.integers(0, 2**62 - 1), data=st.data())
def test_check_index_is_one_range_rule(low, span, data):
    cap = low + span  # both ends and every count between fit an int64
    n = data.draw(st.integers(low, cap))
    for value in (n, np.int64(n)):
        got = check_index(value, "count", low, cap)
        assert got == n and type(got) is int
    with pytest.raises(ValueError) as below:
        check_index(low - 1, "count", low, cap)
    assert str(below.value) == f"count must be >= {low} (got {low - 1})"
    with pytest.raises(ValueError) as above:
        check_index(cap + 1, "count", low, cap)
    assert str(above.value) == f"count={cap + 1} exceeds the supported maximum {cap}"
    with pytest.raises(ValueError) as floating:
        check_index(float(n), "count", low, cap)
    assert str(floating.value) == f"count {float(n)!r} is not an integer"
    # either end may be left open
    assert check_index(low - 1, "count", cap=cap) == low - 1
    assert check_index(cap + 1, "count", low=low) == cap + 1
