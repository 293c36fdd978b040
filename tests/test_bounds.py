import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finecert.bounds as bounds_module
from finecert.bounds import (
    all_outcome_pairs_bound,
    certainty_operator,
    hyperspherical_state,
    lhs_value,
    measurement_ensemble,
    mub_pair_bound,
    mub_pair_ensemble,
    pauli_pair_ensemble,
    pauli_triple_ensemble,
    zeta_gridsearch,
    zeta_spectral,
)
from finecert.mub import mub_family
from finecert.numerics import projector
from finecert.qubit import angles_to_state
# collected here too, so this module keeps the test ID
from test_numpy_copies import test_grid_row_sums_pin_numpys_order  # noqa: F401


def eig2x2_charpoly(m):
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_rank_projector(rng, d, rank):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q = np.linalg.qr(z)[0][:, :rank]
    return q @ q.conj().T


def random_ensemble(rng, d, n_terms):
    weights = rng.random(n_terms)
    weights /= weights.sum()
    terms = []
    for t in range(n_terms):
        rank = int(rng.integers(1, d))
        terms.append((f"t{t}", float(weights[t]), random_rank_projector(rng, d, rank)))
    return measurement_ensemble(terms)


# ---------------------------------------------------------------- operator


def test_certainty_operator_single_term():
    p = projector([1.0, 0.0])
    ens = measurement_ensemble([("only", 1.0, p)])
    np.testing.assert_array_equal(certainty_operator(ens), p)


def test_certainty_operator_pauli_pair_spectrum():
    op = certainty_operator(pauli_pair_ensemble("x", "z"))
    expected = np.array([0.5 - 0.5 / np.sqrt(2), 0.5 + 0.5 / np.sqrt(2)])
    np.testing.assert_allclose(eig2x2_charpoly(op), expected, atol=1e-14)


def test_certainty_operator_pauli_triple_top():
    op = certainty_operator(pauli_triple_ensemble())
    assert abs(eig2x2_charpoly(op)[-1] - (0.5 + 0.5 / np.sqrt(3))) <= 1e-14


def test_ensemble_validation():
    p = projector([1.0, 0.0])
    with pytest.raises(ValueError, match="sum"):
        measurement_ensemble([("a", 0.5, p), ("b", 0.4, p)])
    with pytest.raises(ValueError, match="negative weight"):
        measurement_ensemble([("a", -0.5, p), ("b", 1.5, p)])
    with pytest.raises(ValueError, match="idempotent"):
        measurement_ensemble([("a", 1.0, 0.5 * p)])
    with pytest.raises(ValueError, match="mismatch"):
        measurement_ensemble([("a", 0.5, p), ("b", 0.5, projector([1.0, 0.0, 0.0]))])


# ---------------------------------------------------------------- spectral


def test_zeta_spectral_pauli_pair():
    bound = zeta_spectral(pauli_pair_ensemble("x", "z"))
    assert abs(bound.zeta - (0.5 + 0.5 / np.sqrt(2))) <= 1e-12
    np.testing.assert_allclose(
        bound.maximizer, [np.cos(np.pi / 8), np.sin(np.pi / 8)], atol=1e-10
    )
    assert not bound.degenerate


def test_zeta_spectral_mub_pair_d3():
    bound = zeta_spectral(mub_pair_ensemble(3))
    assert abs(bound.zeta - (0.5 + 0.5 / np.sqrt(3))) <= 1e-12


def test_zeta_spectral_orthogonal_outcomes():
    ens = measurement_ensemble(
        [("z:0", 0.5, projector([1.0, 0.0])), ("z:1", 0.5, projector([0.0, 1.0]))]
    )
    bound = zeta_spectral(ens)
    assert abs(bound.zeta - 0.5) <= 1e-14
    assert bound.degenerate  # both eigenvalues are 1/2


def test_lhs_value_at_maximizer_and_reference_states():
    ens = pauli_pair_ensemble("x", "z")
    bound = zeta_spectral(ens)
    assert abs(lhs_value(ens, bound.maximizer) - bound.zeta) <= 1e-10
    assert abs(lhs_value(ens, [1.0, 0.0]) - 0.75) <= 1e-15


def test_lhs_saturating_angles_d3():
    x0 = np.pi / 4 - 0.5 * np.arcsin(1.0 / np.sqrt(3.0))
    psi = hyperspherical_state([x0, np.pi / 4], [0.0, 0.0])
    ens = mub_pair_ensemble(3)
    assert abs(lhs_value(ens, psi) - (0.5 + 0.5 / np.sqrt(3))) <= 1e-9


def test_lhs_never_exceeds_zeta():
    rng = np.random.default_rng(17)
    ens = mub_pair_ensemble(5)
    zeta = zeta_spectral(ens).zeta
    for _ in range(200):
        assert lhs_value(ens, random_state(rng, 5)) <= zeta + 1e-10


def test_maximizer_balances_the_two_probabilities():
    fam = mub_family(3)
    bound = zeta_spectral(mub_pair_ensemble(3))
    p1 = abs(np.vdot(fam.vector("z", 0), bound.maximizer)) ** 2
    p2 = abs(np.vdot(fam.vector(0, 0), bound.maximizer)) ** 2
    assert abs(p1 - p2) <= 1e-9


# ---------------------------------------------------------------- grid search


def test_gridsearch_pauli_pair_matches_spectral():
    ens = pauli_pair_ensemble("x", "z")
    grid = zeta_gridsearch(ens, 721)
    exact = zeta_spectral(ens).zeta
    assert grid.zeta <= exact + 1e-10
    assert exact - grid.zeta <= 1e-5


def test_gridsearch_single_projector():
    # projector grid-aligned at x0 = 0: found exactly, at the smallest angles
    ens = measurement_ensemble([("only", 1.0, projector([1.0, 0.0]))])
    res = zeta_gridsearch(ens, 9)
    assert res.zeta == 1.0
    assert res.angles.x == (0.0,)
    assert res.angles.phi == (0.0,)


def test_gridsearch_deterministic():
    ens = mub_pair_ensemble(3)
    a = zeta_gridsearch(ens, 12)
    b = zeta_gridsearch(ens, 12)
    assert a.zeta == b.zeta
    assert a.angles == b.angles


def test_gridsearch_validation():
    ens = measurement_ensemble([("only", 1.0, projector([1.0, 0.0]))])
    with pytest.raises(ValueError, match="steps_per_angle"):
        zeta_gridsearch(ens, 7)
    big = measurement_ensemble([("only", 1.0, np.eye(6) - 0.0 * np.eye(6))])
    with pytest.raises(ValueError, match="zeta_spectral"):
        zeta_gridsearch(big, 8)


def test_hyperspherical_state_matches_qubit_angles():
    # dim 2: x0 = theta/2, phi_1 = phi
    for theta, phi in [(0.3, 0.0), (1.1, 2.2), (2.9, 5.5)]:
        a = hyperspherical_state([theta / 2], [phi])
        b = angles_to_state(theta, phi)
        np.testing.assert_allclose(a, b, atol=1e-14)
    with pytest.raises(ValueError, match="moduli"):
        hyperspherical_state([2.0], [0.0])
    with pytest.raises(ValueError, match="phases"):
        hyperspherical_state([0.5], [7.0])


def test_spectral_vs_grid_on_random_ensembles():
    rng = np.random.default_rng(29)
    for i in range(200):
        d = 2 + i % 6  # dims 2..7
        ens = random_ensemble(rng, d, int(rng.integers(2, 5)))
        bound = zeta_spectral(ens)
        assert 0.0 <= bound.zeta <= 1.0 + 1e-12
        assert abs(lhs_value(ens, bound.maximizer) - bound.zeta) <= 1e-10
        if d == 2:
            grid = zeta_gridsearch(ens, 721)
            assert grid.zeta <= bound.zeta + 1e-10
            assert bound.zeta - grid.zeta <= 1e-5
        elif d == 3 and i % 3 == 0:
            # coarse grid: the lower-bound property is exact, the gap is only
            # sanity-checked (no sharp resolution claim above dimension 2)
            grid = zeta_gridsearch(ens, 16)
            assert grid.zeta <= bound.zeta + 1e-10
            assert bound.zeta - grid.zeta <= 0.1


# ---------------------------------------------------------------- invariances


def test_zero_weight_term_leaves_zeta_unchanged():
    ens = pauli_pair_ensemble("x", "z")
    padded = measurement_ensemble(
        [(t.label, t.weight, t.projector) for t in ens.terms]
        + [("null", 0.0, projector([0.0, 1.0]))]
    )
    assert zeta_spectral(padded).zeta == zeta_spectral(ens).zeta


def test_swapping_equal_weight_terms_leaves_zeta_unchanged():
    ens = pauli_pair_ensemble("x", "z")
    swapped = measurement_ensemble(
        [(t.label, t.weight, t.projector) for t in reversed(ens.terms)]
    )
    assert zeta_spectral(swapped).zeta == zeta_spectral(ens).zeta
    rng = np.random.default_rng(33)
    terms = [(f"t{i}", 0.25, projector(random_state(rng, 4))) for i in range(4)]
    base = zeta_spectral(measurement_ensemble(terms)).zeta
    for perm in itertools.permutations(range(4)):
        permuted = measurement_ensemble([terms[p] for p in perm])
        assert abs(zeta_spectral(permuted).zeta - base) <= 1e-12


def test_rank1_pair_closed_form():
    # independent oracle: zeta of (|u><u| + |v><v|)/2 is (1 + |<u|v>|)/2
    rng = np.random.default_rng(37)
    for _ in range(500):
        d = int(rng.integers(2, 7))
        u = random_state(rng, d)
        v = random_state(rng, d)
        ens = measurement_ensemble(
            [("u", 0.5, np.outer(u, u.conj())), ("v", 0.5, np.outer(v, v.conj()))]
        )
        closed = 0.5 + 0.5 * abs(np.vdot(u, v))
        assert abs(zeta_spectral(ens).zeta - closed) <= 1e-10


# ---------------------------------------------------------------- pair bounds


def test_mub_pair_bound_values():
    assert abs(mub_pair_bound(2) - 0.8535533905932737) <= 1e-15
    assert abs(mub_pair_bound(3) - 0.7886751345948129) <= 1e-15
    assert abs(mub_pair_bound(5) - 0.7236067977499790) <= 1e-15
    with pytest.raises(ValueError, match="prime"):
        mub_pair_bound(4)


@pytest.mark.parametrize(
    "d, message",
    [
        (67, "d=67 exceeds the supported maximum 64"),
        (9, r"d must be prime \(got 9\)"),
        (5.0, "d 5.0 is not an integer"),
    ],
)
def test_mub_pair_bound_takes_the_one_dimension_rule(d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mub_pair_bound(d)


def test_mub_pair_bound_consistent_with_qubit_geometry():
    from finecert.qubit import pair_bound

    assert abs(pair_bound(np.pi / 2) / 2.0 - mub_pair_bound(2)) <= 1e-12


def test_mub_pair_spectral_cross_check():
    for d in (2, 3, 5, 7, 11, 13):
        assert abs(zeta_spectral(mub_pair_ensemble(d)).zeta - mub_pair_bound(d)) <= 1e-10


def test_all_outcome_pairs_bound_specific():
    assert abs(all_outcome_pairs_bound(3, "z", 2, 1, 2) - mub_pair_bound(3)) <= 1e-10


def test_all_outcome_pairs_bound_exhaustive_d3():
    expected = mub_pair_bound(3)
    labels = ["z", 0, 1, 2]
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            for j1 in range(3):
                for j2 in range(3):
                    zeta = all_outcome_pairs_bound(3, labels[a], labels[b], j1, j2)
                    assert abs(zeta - expected) <= 1e-10


def test_all_outcome_pairs_bound_rejects_same_basis():
    with pytest.raises(ValueError, match="differ"):
        all_outcome_pairs_bound(3, 1, 1, 0, 1)
    with pytest.raises(ValueError, match="differ"):
        mub_pair_ensemble(2, "z", "z")


# ------------------------------------------------------- grid-search row blocks


def _grid_ensembles():
    rng = np.random.default_rng(17)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    random3 = measurement_ensemble(
        [("a", 0.3, projector(q[:, 0])), ("b", 0.7, projector(np.eye(3)[2]))]
    )
    return [
        (pauli_pair_ensemble("x", "z"), 181),
        (measurement_ensemble([("only", 1.0, projector([1.0, 0.0]))]), 9),
        (mub_pair_ensemble(3, "z", 1, 2, 0), 12),
        # exact ties over every row with x0 = 0: the smallest angles must win
        (measurement_ensemble([("only", 1.0, projector([1.0, 0.0, 0.0]))]), 10),
        (random3, 11),
    ]


def test_gridsearch_row_blocks_give_identical_result(monkeypatch):
    import finecert.bounds as bounds_module

    whole = [zeta_gridsearch(ens, steps) for ens, steps in _grid_ensembles()]
    # a cap of one byte still gives blocks of one innermost-axis line; caps
    # from t = 2 (d = 2) and t = 4 (d = 3) on mesh the whole grid as one block
    for t in range(5):
        for (ens, steps), expected in zip(_grid_ensembles(), whole):
            cap = max(1, 16 * ens.dim * steps**t)
            monkeypatch.setattr(bounds_module, "GRID_CHUNK_BYTES", cap)
            expected_t = max(1, min(t, 2 * ens.dim - 2))
            assert bounds_module._grid_trailing_axes(ens.dim, steps) == expected_t
            got = zeta_gridsearch(ens, steps)
            assert got.zeta == expected.zeta
            assert got.angles == expected.angles
            assert got.state.tobytes() == expected.state.tobytes()
            assert (got.steps_per_angle, got.x_step, got.phi_step) == (
                expected.steps_per_angle, expected.x_step, expected.phi_step)
    assert whole[3].angles.x == (0.0, 0.0) and whole[3].angles.phi == (0.0, 0.0)


class _StopScan(Exception):
    pass


def _stop_after_blocks(blocks, seen):
    """A ``_row_sums`` that records each block's values and stops the scan
    after ``blocks`` blocks (never, for None)."""
    row_sums = bounds_module._row_sums

    def recording(prod):
        values = row_sums(prod)
        seen.append(values)
        if blocks is not None and len(seen) >= blocks:
            raise _StopScan
        return values

    return recording


def test_gridsearch_block_plan_bounded_at_d5(monkeypatch):
    # 12 steps at d = 5 passes MAX_GRID_POINTS with 12**7 rows per x0 value;
    # only the first block is planned and built, then the scan is stopped.
    steps, d = 12, 5
    assert steps ** (2 * (d - 1)) <= bounds_module.MAX_GRID_POINTS
    t = bounds_module._grid_trailing_axes(d, steps)
    rows = steps**t
    assert 16 * d * rows <= bounds_module.GRID_CHUNK_BYTES
    assert t < 2 * d - 3

    seen = []
    monkeypatch.setattr(bounds_module, "_row_sums", _stop_after_blocks(1, seen))
    ens = measurement_ensemble([("only", 1.0, projector(np.eye(d)[0]))])
    with pytest.raises(_StopScan):
        zeta_gridsearch(ens, steps)
    assert [len(values) for values in seen] == [rows]


def test_gridsearch_block_spy_sees_every_block(monkeypatch):
    # positive control for the spy above: a whole d = 3, 16-step scan passes
    # it once per block (16 blocks of 16**3 rows) and keeps its result
    ens = mub_pair_ensemble(3, "z", 1, 2, 0)
    expected = zeta_gridsearch(ens, 16)
    seen = []
    monkeypatch.setattr(bounds_module, "_row_sums", _stop_after_blocks(None, seen))
    got = zeta_gridsearch(ens, 16)
    assert [len(values) for values in seen] == [16**3] * 16
    assert got.zeta == expected.zeta == max(float(np.max(v)) for v in seen)
    assert got.angles == expected.angles


@pytest.mark.parametrize("d, steps", [(2, 181), (3, 16), (3, 64), (5, 8)])
def test_gridsearch_working_memory_within_two_chunks(monkeypatch, d, steps):
    # the amplitude tables together fit GRID_CHUNK_BYTES beside the block's
    # arrays; at d = 3, 64 steps tables over every leading axis would take
    # 8 MiB, so they span x1 and the phases and are rebuilt per x0
    ens = measurement_ensemble([("only", 1.0, projector(np.eye(d)[0]))])
    monkeypatch.setattr(bounds_module, "_row_sums", _stop_after_blocks(1, []))
    tracemalloc.start()
    try:
        with pytest.raises(_StopScan):
            zeta_gridsearch(ens, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * bounds_module.GRID_CHUNK_BYTES


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pauli_pair_ensemble("x", "z", (0.7, 1.2)), "outcome 0.7 is not an integer"),
        (lambda: pauli_triple_ensemble((0, 1.0, 1)), "outcome 1.0 is not an integer"),
        (lambda: zeta_gridsearch(pauli_pair_ensemble("x", "z"), 8.9),
         "steps_per_angle 8.9 is not an integer"),
    ],
    ids=["pauli_pair_ensemble", "pauli_triple_ensemble", "zeta_gridsearch"],
)
def test_non_integer_outcomes_and_steps_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: measurement_ensemble([("a", 1.0, np.ones((2, 3)))]),
         r"projector for term 'a' is not square: \(2, 3\)"),
        (lambda: measurement_ensemble([("a", 1.0, np.zeros((0, 0)))]),
         r"projector for term 'a' is empty: \(0, 0\)"),
        (lambda: measurement_ensemble([("a", 1.0, [[1.0, 1.0], [0.0, 0.0]])]),
         "projector for term 'a' not Hermitian: deviation 1.000e\\+00"),
        (lambda: measurement_ensemble([]), "ensemble needs at least one term"),
        (lambda: hyperspherical_state([0.1, 0.2], [0.3]),
         "need d-1 moduli angles and d-1 phases, got 2 and 1"),
        (lambda: zeta_gridsearch(measurement_ensemble([("a", 1.0, [[1.0]])]), 8),
         "grid search needs dimension >= 2"),
        (lambda: zeta_gridsearch(measurement_ensemble([("a", 1.0, projector(np.eye(5)[0]))]), 13),
         "grid of 815730721 points is too large; reduce steps_per_angle"),
        (lambda: pauli_triple_ensemble((0, 0)), "need one outcome for each of the axes x, y, z"),
        (lambda: measurement_ensemble([("a", 1.0, np.outer(np.eye(400)[0], np.eye(400)[0]).astype(complex))]),
         "projector for term 'a' has dimension 400, which exceeds the supported maximum 64"),
        (lambda: zeta_gridsearch(pauli_pair_ensemble("x", "z"), 7), r"steps_per_angle must be >= 8 \(got 7\)"),
    ],
    ids=["not-square", "empty", "not-hermitian", "no-terms", "angle-counts", "grid-dim-1", "grid-too-large",
         "triple-outcomes", "above-max-dim", "grid-steps-below-8"],
)
def test_malformed_ensembles_and_grids_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_oversized_projector_is_rejected_before_any_product():
    # a Hermiticity or idempotency check would allocate at least one n x n temporary
    p = np.outer(np.eye(400)[0], np.eye(400)[0]).astype(complex)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="has dimension 400"):
            measurement_ensemble([("a", 1.0, p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.nbytes


@pytest.mark.parametrize(
    "x, phi",
    [
        ([np.nan], [0.0]),
        ([0.3], [np.nan]),
        ([0.3, np.nan], [0.0, 1.0]),
        ([np.inf], [0.0]),
        ([0.3], [-np.inf]),
        ([0.3], [np.inf]),
    ],
)
def test_hyperspherical_state_rejects_non_finite_angles(x, phi):
    with pytest.raises(ValueError):
        hyperspherical_state(x, phi)


def reference_state(x, phi):
    """The scalar loop ``hyperspherical_state`` ran before it became the
    one-row case of the grid kernel."""
    x = np.asarray(x, dtype=float).reshape(-1)
    phi = np.asarray(phi, dtype=float).reshape(-1)
    d = x.size + 1
    amps = np.empty(d, dtype=complex)
    amps[0] = np.cos(x[0])
    running = 1.0
    for m in range(1, d - 1):
        running *= np.sin(x[m - 1])
        amps[m] = running * np.cos(x[m]) * np.exp(1j * phi[m - 1])
    running *= np.sin(x[d - 2])
    amps[d - 1] = running * np.exp(1j * phi[d - 2])
    return amps


_MODULUS = st.one_of(st.sampled_from([0.0, np.pi / 2.0]), st.floats(0.0, np.pi / 2.0))
_PHASE = st.one_of(st.just(0.0), st.floats(0.0, 2.0 * np.pi, exclude_max=True))
_ANGLES = st.integers(2, 6).flatmap(
    lambda d: st.tuples(
        st.lists(_MODULUS, min_size=d - 1, max_size=d - 1),
        st.lists(_PHASE, min_size=d - 1, max_size=d - 1),
    )
)


@settings(max_examples=300, deadline=None)
@given(_ANGLES)
# a subnormal modulus whose r sin(phi) underflows to -0.0 in the last amplitude
@example(((np.pi / 2.0,) * 3 + (5e-324,), (0.0, 0.0, 0.0, 6.0)))
def test_hyperspherical_state_keeps_the_scalar_loop_bytes(angles):
    x, phi = angles
    got = hyperspherical_state(x, phi)
    assert got.dtype == np.complex128 and got.shape == (len(x) + 1,)
    assert got.tobytes() == reference_state(x, phi).tobytes()


def reference_grid_blocks(ens, steps):
    """Yield each block's leading indices and row values as the grid search
    computed them before it tabulated its amplitude columns: every block
    builds all its rows' amplitudes in C order, and numpy sums the rows."""
    d = ens.dim
    op_t = certainty_operator(ens).T
    x_grid = np.linspace(0.0, np.pi / 2.0, steps)
    phi_grid = 2.0 * np.pi * np.arange(steps) / steps
    cos_x, sin_x, phase = np.cos(x_grid), np.sin(x_grid), np.exp(1j * phi_grid)
    t = bounds_module._grid_trailing_axes(d, steps)
    trailing = list(np.indices((steps,) * t).reshape(t, -1))
    amps = np.empty((steps**t, d), dtype=complex)
    for leading in itertools.product(range(steps), repeat=2 * d - 2 - t):
        index = list(leading) + trailing  # one grid index, or a column of them, per axis
        amps[:, 0] = cos_x[index[0]]
        running = 1.0
        for m in range(1, d):
            running = running * sin_x[index[m - 1]]
            r = running * cos_x[index[m]] if m < d - 1 else running
            p = phase[index[d - 2 + m]]
            amps.real[:, m] = r * p.real - 0.0 * p.imag
            amps.imag[:, m] = r * p.imag + 0.0 * p.real
        yield leading, np.sum(np.conjugate(amps) * (amps @ op_t), axis=1).real


def reference_gridsearch(ens, steps):
    """(zeta, x, phi, state) of the whole scan over ``reference_grid_blocks``."""
    d = ens.dim
    t = bounds_module._grid_trailing_axes(d, steps)
    best_value, best_index = -np.inf, None
    for leading, values in reference_grid_blocks(ens, steps):
        pos = int(np.argmax(values))
        if float(values[pos]) > best_value:
            best_value = float(values[pos])
            best_index = leading + tuple(int(i) for i in np.unravel_index(pos, (steps,) * t))
    x = tuple(float(np.linspace(0.0, np.pi / 2.0, steps)[i]) for i in best_index[: d - 1])
    phi = tuple(float((2.0 * np.pi * np.arange(steps) / steps)[i]) for i in best_index[d - 1 :])
    return best_value, x, phi, reference_state(x, phi)


#: Rows compared per example: whole grids at d = 2 and 3, the first blocks
#: beyond (a d = 5, 8-step grid has 16.8 M rows and takes about a second).
_REFERENCE_ROWS = 1 << 17


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 5),
    steps=st.integers(8, 12),
    n_terms=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    trailing=st.sampled_from([None, 2, 3]),
)
def test_gridsearch_keeps_the_row_by_row_bits(d, steps, n_terms, seed, trailing):
    ens = random_ensemble(np.random.default_rng(seed), d, n_terms)
    # a smaller chunk cap gives fewer trailing axes, narrower tables and
    # tables rebuilt as the outer leading angles move
    cap = bounds_module.GRID_CHUNK_BYTES if trailing is None else 16 * d * steps**trailing
    with mock.patch.object(bounds_module, "GRID_CHUNK_BYTES", cap):
        rows = steps ** bounds_module._grid_trailing_axes(d, steps)
        whole = steps ** (2 * d - 2) <= _REFERENCE_ROWS
        blocks = steps ** (2 * d - 2) // rows if whole else max(1, _REFERENCE_ROWS // rows)
        seen = []
        with mock.patch.object(bounds_module, "_row_sums", _stop_after_blocks(None if whole else blocks, seen)):
            try:
                got = zeta_gridsearch(ens, steps)
            except _StopScan:
                assert not whole
        expected = itertools.islice(reference_grid_blocks(ens, steps), blocks)
        assert [v.tobytes() for v in seen] == [v.tobytes() for _, v in expected]
        if whole:
            zeta, x, phi, state = reference_gridsearch(ens, steps)
            assert (got.zeta, got.angles.x, got.angles.phi) == (zeta, x, phi)
            assert got.state.tobytes() == state.tobytes()


@pytest.mark.parametrize("axes", [("X", "x"), ("z", "Z")])
def test_pauli_pair_axes_differ_after_case_folding(axes):
    with pytest.raises(ValueError) as info:
        pauli_pair_ensemble(*axes)
    assert str(info.value) == "the two Pauli measurements must differ"
    with pytest.raises(ValueError, match=r"axis must be one of x, y, z \(got 1\)"):
        pauli_pair_ensemble(1, "z")
    # the case of an axis names the same measurement, so it gives the same operator
    upper = certainty_operator(pauli_pair_ensemble("X", "z"))
    assert upper.tobytes() == certainty_operator(pauli_pair_ensemble("x", "z")).tobytes()
