"""One range rule for every count a caller sets, checked before anything is allocated.

``numerics.check_index(value, name, low, cap)`` is the package's one check that
a count is an integer in [low, cap]. These tests pin its two messages with a
hypothesis property, pin that the membrane layout presets, a layout's plan and
the quadrature panel count go through it before any allocation sized by the
count, and pin that the three array boundaries (``numerics.as_square_matrix``,
``bounds.measurement_ensemble`` and the basis of ``cycle.cycle_config``) read a
caller's shape before they make its complex copy, as a state vector's size is
read before its copy when a dimension is expected.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finecert import qubit
from finecert.bounds import measurement_ensemble
from finecert.cycle import CycleConfig, MembraneLayout, check_layout, cycle_config
from finecert.numerics import (
    MAX_DIM,
    check_density_matrix,
    check_hermitian,
    check_index,
    hermitian_eig,
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
    ],
    ids=["paper_preset", "symmetric_preset", "finest", "merged", "preset-d-0", "check_layout",
         "direct-config-plan", "average_certainty", "_average_certainties", "panels-below-1024"],
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
