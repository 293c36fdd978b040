import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finecert import mub, qubit
from finecert.numerics import hermitian_eig
from finecert.qubit import (
    average_certainty,
    bloch_to_state,
    pair_bound,
    pair_certainty,
    pauli_eigenbasis,
    pauli_outcome_projector,
    spin_projector,
    spin_up_probability,
    state_to_bloch,
    triple_pauli_bound,
)


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_bloch_to_state_poles_and_equator():
    np.testing.assert_allclose(bloch_to_state([0, 0, 1]), [1, 0], atol=1e-15)
    np.testing.assert_allclose(bloch_to_state([1, 0, 0]), np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(bloch_to_state([0, 0, -1]), [0, 1], atol=1e-12)


def test_bloch_to_state_bisector():
    psi = bloch_to_state(np.array([1, 0, 1]) / np.sqrt(2))
    np.testing.assert_allclose(psi, [np.cos(np.pi / 8), np.sin(np.pi / 8)], atol=1e-12)


def test_bloch_to_state_is_plus_one_eigenvector():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = random_direction(rng)
        psi = bloch_to_state(k)
        op = 2.0 * spin_projector(k) - np.eye(2)  # sigma.k
        np.testing.assert_allclose(op @ psi, psi, atol=1e-10)


def test_bloch_to_state_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        bloch_to_state([1.0, 0.0, 1.0])


def test_state_to_bloch_examples():
    np.testing.assert_allclose(state_to_bloch([1, 0]), [0, 0, 1], atol=1e-15)
    psi = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    np.testing.assert_allclose(state_to_bloch(psi), np.array([1, 0, 1]) / np.sqrt(2), atol=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        state_to_bloch([1, 0, 0])


def test_bloch_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = random_direction(rng)
        np.testing.assert_allclose(state_to_bloch(bloch_to_state(k)), k, atol=1e-10)


def test_spin_up_probability():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    assert spin_up_probability(z, z) == 1.0
    assert spin_up_probability(z, -z) == 0.0
    assert spin_up_probability(x, z) == 0.5


def test_spin_up_probability_matches_overlap():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = random_direction(rng)
        k = random_direction(rng)
        overlap = abs(np.vdot(bloch_to_state(m), bloch_to_state(k))) ** 2
        assert abs(spin_up_probability(m, k) - overlap) <= 1e-10


def test_pair_bound_values():
    assert abs(pair_bound(np.pi / 2) - (1.0 + 1.0 / np.sqrt(2.0))) <= 1e-15
    assert pair_bound(0.0) == 2.0
    assert abs(pair_bound(2.0 * np.pi / 3.0) - 1.5) <= 1e-15
    with pytest.raises(ValueError, match="gamma"):
        pair_bound(-0.1)


def test_pair_bound_at_120_degrees_against_eigensolver():
    # explicit directions at 120 degrees; top eigenvalue of P_m + P_n
    m = np.array([0.0, 0.0, 1.0])
    n = np.array([np.sin(2 * np.pi / 3), 0.0, np.cos(2 * np.pi / 3)])
    top = hermitian_eig(spin_projector(m) + spin_projector(n)).largest
    assert abs(top - pair_bound(2.0 * np.pi / 3.0)) <= 1e-12


def test_pair_certainty_spectral_property():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        m = random_direction(rng)
        n = random_direction(rng)
        res = pair_certainty(m, n)
        top = hermitian_eig(spin_projector(m) + spin_projector(n)).largest
        assert abs(top - res.zeta) <= 1e-9
        assert abs(res.zeta - pair_bound(res.gamma)) <= 1e-12


def test_pair_certainty_maximizer_is_bisector():
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(1000):
        m = random_direction(rng)
        n = random_direction(rng)
        res = pair_certainty(m, n)
        if res.gamma > np.pi - 1e-3:
            continue  # top eigenvalue nearly degenerate, maximizer not unique
        checked += 1
        decomp = hermitian_eig(spin_projector(m) + spin_projector(n))
        bloch = state_to_bloch(decomp.largest_vector)
        np.testing.assert_allclose(bloch, res.maximizer, atol=1e-8)
    assert checked > 900


def test_pair_certainty_degenerate_flag():
    res = pair_certainty([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
    assert res.degenerate
    assert res.maximizer is None
    assert abs(res.zeta - 1.0) <= 1e-12


def test_average_certainty_examples():
    assert average_certainty(0.0).closed_form == 1.0
    res = average_certainty(np.pi / 2)
    assert abs(res.closed_form - (1.0 + 1.0 / np.pi)) <= 1e-15
    assert abs(res.closed_form - res.quadrature) <= 1e-8


def test_average_certainty_quadrature_agreement_on_grid():
    for alpha in np.linspace(0.0, np.pi, 1001):
        closed, quad = average_certainty(float(alpha))
        assert abs(closed - quad) <= 1e-8


def test_average_certainty_argmax():
    grid = np.arange(0.0, np.pi, 1e-3)
    values = 1.0 + np.sin(grid) / np.pi
    assert abs(grid[int(np.argmax(values))] - np.pi / 2) <= 1e-3


def test_average_certainty_validation():
    with pytest.raises(ValueError, match="alpha"):
        average_certainty(3.5)
    with pytest.raises(ValueError, match="panels"):
        average_certainty(1.0, panels=512)
    with pytest.raises(ValueError, match="panels 2048.7 is not an integer"):
        average_certainty(1.0, panels=2048.7)


def test_pauli_outcome_projector_rejects_a_non_integer_outcome():
    with pytest.raises(ValueError, match="outcome 1.9 is not an integer"):
        pauli_outcome_projector("x", 1.9)


def test_average_certainty_returns_python_floats():
    for result in (average_certainty(alpha) for alpha in (0.7, 0.0, np.pi / 2)):
        assert type(result.closed_form) is float
        assert type(result.quadrature) is float


def test_triple_pauli_bound_closed_form():
    res = triple_pauli_bound()
    assert abs(res.zeta - (0.5 + 0.5 / np.sqrt(3.0))) <= 1e-15
    np.testing.assert_allclose(res.maximizer_bloch, np.full(3, 1 / np.sqrt(3)), atol=1e-12)
    assert abs(res.theta - np.arcsin(np.sqrt(2.0 / 3.0))) <= 1e-15
    assert abs(res.phi - np.pi / 4) <= 1e-15


def test_triple_pauli_bound_spectral_cross_check():
    op = (
        pauli_outcome_projector("x", 0)
        + pauli_outcome_projector("y", 0)
        + pauli_outcome_projector("z", 0)
    ) / 3.0
    decomp = hermitian_eig(op)
    res = triple_pauli_bound()
    assert abs(decomp.largest - res.zeta) <= 1e-12
    np.testing.assert_allclose(state_to_bloch(decomp.largest_vector), res.maximizer_bloch, atol=1e-10)


def test_triple_pauli_lhs_at_maximizer():
    res = triple_pauli_bound()
    k = res.maximizer_bloch
    lhs = (
        spin_up_probability([1, 0, 0], k)
        + spin_up_probability([0, 1, 0], k)
        + spin_up_probability([0, 0, 1], k)
    ) / 3.0
    assert abs(lhs - res.zeta) <= 1e-10


def test_pauli_eigenbases_are_orthonormal_and_unbiased():
    bases = [pauli_eigenbasis(a) for a in "xyz"]
    for b in bases:
        np.testing.assert_allclose(b @ b.conj().T, np.eye(2), atol=1e-15)
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = np.abs(bases[i] @ bases[j].conj().T) ** 2
            np.testing.assert_allclose(overlap, np.full((2, 2), 0.5), atol=1e-15)


@pytest.mark.parametrize(
    "direction", [[np.nan, 0.0, 0.0], [1.0, np.nan, 0.0], [np.nan] * 3, [np.inf, 0.0, 0.0]]
)
def test_non_finite_direction_rejected(direction):
    with pytest.raises(ValueError):
        spin_projector(direction)
    with pytest.raises(ValueError):
        pair_certainty(direction, [0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: spin_projector([1.0, 0.0]), "expected a 3-component direction, got 2"),
        (lambda: pauli_outcome_projector("x", 2), r"outcome must be 0 or 1 \(got 2\)"),
    ],
    ids=["direction-length", "outcome"],
)
def test_out_of_range_qubit_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def one_angle_quadrature(alpha, panels):
    """The per-angle Simpson quadrature as it was written before the grid was shared."""
    panels += panels % 2
    theta = np.linspace(0.0, np.pi, panels + 1)
    integrand = (np.cos(theta / 2.0) ** 2 + np.cos((theta - alpha) / 2.0) ** 2) / np.pi
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.pi / panels / 3.0 * np.dot(weights, integrand))


@pytest.mark.parametrize("panels", [1024, 1025, 2048, 4097])
def test_shared_grid_quadrature_has_the_per_angle_bits(panels):
    alphas = np.linspace(0.0, np.pi, 13).tolist()
    qubit._simpson_grid.cache_clear()
    # the first angle builds the grid, the others read it
    for alpha in alphas:
        result = average_certainty(alpha, panels)
        assert result.quadrature == one_angle_quadrature(alpha, panels)
        assert result.closed_form == 1.0 + np.sin(alpha) / np.pi
    assert qubit._simpson_grid.cache_info().misses == 1


def test_shared_grid_checks_every_angle():
    qubit._simpson_grid.cache_clear()
    assert average_certainty(0.5).closed_form == 1.0 + np.sin(0.5) / np.pi
    grid = qubit._simpson_grid(2048)
    with pytest.raises(ValueError, match="alpha=4.0"):
        average_certainty(4.0, panels=4096)
    # refused before a grid of its panel count replaced the kept one
    assert qubit._simpson_grid(2048) is grid
    assert all(not array.flags.writeable for array in grid)


# The Pauli formulas as three constant matrices and a per-axis branch wrote
# them before the axes moved into one table; the table must keep their bytes.
LITERAL_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def literal_eigenbasis(axis):
    s = 1.0 / np.sqrt(2.0)
    if axis == "x":
        return np.array([[s, s], [s, -s]], dtype=complex)
    if axis == "y":
        return np.array([[s, 1j * s], [s, -1j * s]], dtype=complex)
    return np.eye(2, dtype=complex)


def literal_state_to_bloch(a, b):
    return np.array([2.0 * (a.conjugate() * b).real, 2.0 * (a.conjugate() * b).imag,
                     float(abs(a) ** 2 - abs(b) ** 2)])


unit_directions = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: np.array(v) / np.linalg.norm(v))
)


@settings(max_examples=200, deadline=None)
@given(k=unit_directions)
@example(k=np.array([0.0, 0.0, 1.0]))
@example(k=np.array([-0.0, -1.0, -0.0]))
@example(k=np.array([-1.0, 0.0, 0.0]))
def test_spin_projector_keeps_the_literal_formula_bytes(k):
    sx, sy, sz = LITERAL_SIGMA
    expected = 0.5 * (np.eye(2, dtype=complex) + k[0] * sx + k[1] * sy + k[2] * sz)
    got = spin_projector(k)
    assert got.dtype == expected.dtype and got.shape == (2, 2)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(k=unit_directions)
def test_state_to_bloch_keeps_the_literal_formula_bytes(k):
    psi = bloch_to_state(k)
    got = state_to_bloch(psi)
    assert got.tobytes() == literal_state_to_bloch(*psi).tobytes()


@pytest.mark.parametrize(
    "psi", [[1.0, complex(re, im)] for re in (0.0, -0.0) for im in (0.0, -0.0)] + [[complex(0.0, -0.0), 1.0]]
)
def test_state_to_bloch_keeps_the_literal_bytes_of_signed_zeros(psi):
    # bloch_to_state([-0.0, -0.0, 1.0]) is (1, 0.0 - 0.0j), whose <sy> is -0.0 by the literal formula
    psi = np.array(psi, dtype=complex)
    assert state_to_bloch(psi).tobytes() == literal_state_to_bloch(*psi).tobytes()


@pytest.mark.parametrize("axis", ["x", "y", "z", "X", "Y", "Z"])
def test_pauli_eigenbasis_keeps_the_literal_bytes_in_a_fresh_copy(axis):
    expected = literal_eigenbasis(axis.lower())
    got = pauli_eigenbasis(axis)
    assert got.dtype == expected.dtype and got.shape == (2, 2)
    assert got.tobytes() == expected.tobytes()
    for outcome in (0, 1):
        v = expected[outcome]
        assert pauli_outcome_projector(axis, outcome).tobytes() == np.outer(v, v.conj()).tobytes()
    got[:] = 7.0  # a caller may write to what it was given
    assert pauli_eigenbasis(axis).tobytes() == expected.tobytes()


def test_qubit_pair_rows_come_from_the_pauli_table():
    for i, axis in enumerate("zx"):
        for j in (0, 1):
            assert mub._member_rows(2, i, j).tobytes() == literal_eigenbasis(axis)[j].tobytes()
        assert mub._member_rows(2, i, np.arange(2)).tobytes() == literal_eigenbasis(axis).tobytes()


@pytest.mark.parametrize("axis", ["w", "W", "", "xy", 1, None])
def test_unknown_pauli_axis_is_refused(axis):
    shown = axis.lower() if isinstance(axis, str) else axis
    with pytest.raises(ValueError, match=re.escape(f"axis must be one of x, y, z (got {shown!r})")):
        pauli_eigenbasis(axis)
