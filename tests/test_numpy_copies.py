"""The package's copies of numpy internals, each checked against numpy itself.

Seven functions reproduce numpy's own arithmetic so that their results keep
numpy's bits:

- ``bounds._row_sums`` sums a grid block's columns in the order numpy 2.4
  uses for ``np.sum(prod, axis=1)``;
- ``bounds.zeta_gridsearch`` stores a block's amplitudes a column at a time
  and multiplies them into a C-order product, which keeps the bits of the
  row-major block only while BLAS reads both layouts alike;
- ``sampling._child_states`` derives the seed words of
  ``SeedSequence(seed).spawn(n)[i]`` without building the children;
- ``cycle._histogram`` bins by ``np.histogram``'s documented edge rule;
- ``cycle._outcome_probabilities`` runs one (n d x d) (d x d) GEMM per
  component over a whole stack of bases, which keeps the bits of one d x d
  product per basis only while BLAS computes each element of a tall product
  as it does in a square one;
- ``mub.verify_mub`` runs one (m d x d) (d x d) GEMM per later basis over
  the rows of the earlier bases, a block at a time, into a reused buffer,
  which keeps the bits of one d x d product per pair of bases under the same
  condition;
- ``mub._quadratic_rows`` adds two uint8 index parts into a reused intp
  buffer and gathers the roots with ``take(index, out=..., mode="clip")``
  into a reused (d, d) slot, which gives the values of fancy indexing only
  while clip mode passes an in-range index through unchanged.

Two more pins hold what the package relies on numpy for without copying it:

- ``mub.verify_mub`` trusts the bases that ``mub_family`` returned while they
  and their owner stay read-only, which holds only while numpy refuses to
  make a view of a read-only owner writeable;
- ``numerics._outer`` stands in for ``projector`` on the package's own rows,
  which gives the same bytes only while ``check_state_vector`` passes such a
  row through as it is.

CI runs this module first and stops at the first failure, so a numpy or BLAS
change that moves one of them fails here with a message naming the copy and
the numpy version, before any golden digest does.

``reference_histogram`` is the ``np.histogram`` call that ``_histogram``
replaces, with the same constant-data fallback. The two agree wherever a
bin's width is a normal float; with a subnormal width, ``np.histogram``'s
index arithmetic can miss its own rule, and one such case is pinned below.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finecert import cycle, mub, qubit, sampling
from finecert.numerics import _outer, projector
from test_probability_blocks import components, haar_stack, reference_probabilities

BINS = 20
SEEDS = st.integers(0, 2**32 - 1)


# assertion messages: the copy that failed and the numpy it was checked against
ROW_SUMS = f"bounds._row_sums no longer follows numpy {np.__version__}"
GRID_GEMM = f"bounds.zeta_gridsearch's column-major block no longer has the row-major bits on numpy {np.__version__}"
CHILD_STATES = f"sampling._child_states no longer follows numpy {np.__version__}"
HISTOGRAM = f"cycle._histogram no longer follows numpy {np.__version__}"
PROBABILITIES = f"cycle._outcome_probabilities no longer matches a product per component on numpy {np.__version__}"
OVERLAPS = f"mub.verify_mub's tall overlap product no longer matches a product per pair on numpy {np.__version__}"
GATHER = f"mub._quadratic_rows' clipped take no longer matches fancy indexing on numpy {np.__version__}"
READ_ONLY = f"numpy {np.__version__} lets a view of a read-only owner be made writeable; mub.verify_mub's trust needs it not to"
OUTER = f"numerics._outer no longer gives projector's bytes for the package's own rows on numpy {np.__version__}"


# ---------------------------------------------------------------- bounds._row_sums


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_grid_row_sums_pin_numpys_order(d, rows):
    """``_row_sums`` pins numpy's order of ``np.sum(prod, axis=1)``: left to
    right for d <= 3, pairwise at d = 4 and 5, and +0.0 for a row of -0.0.
    If a numpy release adds a row in another order, this names the dimension
    that moved, where a grid golden only shows that some digest did."""
    from finecert.bounds import _row_sums

    rng = np.random.default_rng(1000 * d + rows)
    parts = np.exp(rng.uniform(-30.0, 30.0, size=(rows, d, 2)))
    parts *= rng.choice([-1.0, 1.0], size=parts.shape)
    zeros = rng.random(size=parts.shape) < 0.3
    parts[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
    if rows > 2:
        parts[1] = -0.0  # every part -0.0
        parts[2, :, 0] = [0.0, -0.0, 0.0, -0.0, -0.0][:d]
    prod = parts[..., 0] + 1j * parts[..., 1]
    assert _row_sums(prod).tobytes() == np.sum(prod, axis=1).real.tobytes(), ROW_SUMS


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("rows", [8, 181, 4096])
def test_grid_gemm_reads_column_major_blocks_with_row_major_bits(d, rows):
    """The grid search's product of a column-major (rows, d) amplitude block
    with the transposed operator, into a C-order output, has the bits of the
    same product of a C-order block, which the grid goldens were recorded
    from."""
    rng = np.random.default_rng(100 * d + rows)
    amps = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op_t = (op + op.conj().T).T
    columns = np.empty((d, rows), dtype=complex)
    columns[...] = amps.T
    got = np.empty((rows, d), dtype=complex)
    np.matmul(columns.T, op_t, out=got)
    assert got.tobytes() == (amps @ op_t).tobytes(), GRID_GEMM


# ---------------------------------------------------------------- sampling._child_states


def numpy_child_states(seed, first, count):
    children = np.random.SeedSequence(seed).spawn(first + count)[first:]
    return np.array([s.generate_state(4, np.uint64) for s in children], dtype=np.uint64).reshape(count, 4)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**200), first=st.integers(0, 300), count=st.integers(1, 40))
def test_child_states_equal_spawned_seed_sequences(seed, first, count):
    got = sampling._child_states(sampling._spawn_prefix(seed), first, count)
    assert got.dtype == np.uint64 and got.shape == (count, 4), CHILD_STATES
    assert np.array_equal(got, numpy_child_states(seed, first, count)), CHILD_STATES


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**128 + 7, 3**100])
def test_child_states_at_word_boundaries(seed):
    prefix = sampling._spawn_prefix(seed)
    whole = sampling._child_states(prefix, 0, 70)
    assert np.array_equal(whole, numpy_child_states(seed, 0, 70)), CHILD_STATES
    split = np.concatenate([sampling._child_states(prefix, 0, 33), sampling._child_states(prefix, 33, 37)])
    assert np.array_equal(split, whole), CHILD_STATES


def test_child_seed_draws_as_default_rng():
    words = sampling._child_states(sampling._spawn_prefix(5), 0, 3)[2]
    derived = np.random.Generator(np.random.PCG64(sampling._child_seed_type()(words)))
    spawned = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[2])
    assert np.array_equal(derived.standard_normal(100), spawned.standard_normal(100)), CHILD_STATES
    assert derived.bit_generator.state == spawned.bit_generator.state, CHILD_STATES


def test_child_seed_holds_only_pcg64_words():
    seed = sampling._child_seed_type()(sampling._child_states(sampling._spawn_prefix(5), 0, 1)[0])
    with pytest.raises(ValueError, match="four uint64 words"):
        seed.generate_state(8, np.uint64)
    with pytest.raises(ValueError, match="four uint64 words"):
        seed.generate_state(4, np.uint32)


# ---------------------------------------------------------------- cycle._histogram


def reference_histogram(values, bins=BINS):
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, bins + 1)
    if np.all(edges[:-1] < edges[1:]):
        return np.histogram(values, bins=bins)
    return np.histogram(values, bins=bins, range=(lo - 0.5, hi + 0.5))


def histogram_outcome(histogram, values):
    """dtype and bytes of the counts and edges, or the message of the ValueError
    raised (the fallback's range of +-1/2 vanishes beside data beyond 2**52)."""
    try:
        with np.errstate(invalid="ignore"):
            counts, edges = histogram(values)
    except ValueError as exc:
        return str(exc)
    return counts.dtype, counts.tobytes(), edges.dtype, edges.tobytes()


def assert_same_histogram(values):
    assert histogram_outcome(cycle._histogram, values) == histogram_outcome(reference_histogram, values), HISTOGRAM


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, size=st.integers(1, 200), exponent=st.integers(-300, 300))
def test_histogram_of_scaled_normal_draws(seed, size, exponent):
    rng = np.random.default_rng(seed)
    assert_same_histogram(rng.standard_normal(size) * 10.0**exponent)


def ulps_apart(base, steps):
    bits = np.array([base]).view(np.int64) + np.array(steps, dtype=np.int64)
    return bits.view(np.float64)


@settings(max_examples=300, deadline=None)
@given(
    base=st.floats(1e-280, 1e300),
    negative=st.booleans(),
    steps=st.lists(st.integers(0, 60), min_size=1, max_size=200),
)
def test_histogram_of_values_a_few_ulps_apart(base, negative, steps):
    # from 1e-280 up, a bin a few ulps wide is a normal float
    assert_same_histogram(ulps_apart(-base if negative else base, steps))


def rule_counts(values, edges):
    """Counts by the rule itself: x goes to the last bin i with edges[i] <= x."""
    counts = np.zeros(BINS, dtype=np.intp)
    for x in values:
        counts[min(max(i for i in range(BINS + 1) if edges[i] <= x), BINS - 1)] += 1
    return counts


@settings(max_examples=300, deadline=None)
@given(
    base=st.floats(-1e300, 1e300, allow_nan=False),
    steps=st.lists(st.integers(0, 60), min_size=1, max_size=200),
)
def test_histogram_bins_by_the_edge_rule(base, steps):
    values = ulps_apart(base, steps)
    edges = np.linspace(values.min(), values.max(), BINS + 1)
    assume(np.all(edges[:-1] < edges[1:]))  # else the constant-data fallback bins
    counts, got_edges = cycle._histogram(values)
    assert got_edges.tobytes() == edges.tobytes(), HISTOGRAM
    assert counts.tobytes() == rule_counts(values, edges).tobytes(), HISTOGRAM


def test_subnormal_bins_follow_the_rule_where_np_histogram_does_not():
    # linspace rounds a subnormal bin width of 1.1 ulps down to 1, so the
    # 20th edge is -3 ulps; np.histogram's one-step index correction stops
    # at bin 18 for that value, while the rule puts it in bin 19
    values = ulps_apart(-0.0, [0, 3, 22])
    counts, edges = cycle._histogram(values)
    assert edges[BINS - 1] == values[1], HISTOGRAM
    assert counts.tolist() == rule_counts(values, edges).tolist() == [1] + [0] * 18 + [2], HISTOGRAM
    assert np.histogram(values, bins=BINS)[0].tolist() == [1] + [0] * 17 + [1, 1], HISTOGRAM


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-1e300, 1e300, allow_nan=False),
    width=st.floats(1e-300, 1e300),
    picks=st.lists(st.integers(0, BINS), min_size=0, max_size=198),
)
def test_histogram_of_values_on_the_edges(lo, width, picks):
    hi = lo + width
    assume(np.isfinite(hi) and hi > lo)
    edges = np.linspace(lo, hi, BINS + 1)
    assert_same_histogram(edges[[0, BINS] + picks])


@pytest.mark.parametrize(
    "values",
    [[np.nan], [0.0, np.nan, 1.0], [np.inf], [-np.inf, 0.0], [0.0, np.inf], [-np.inf, np.inf], [1.0, np.nan, np.inf]],
)
def test_non_finite_values_raise_numpys_message(values):
    message = histogram_outcome(cycle._histogram, np.array(values))
    assert isinstance(message, str) and "not finite" in message, HISTOGRAM
    assert message == histogram_outcome(reference_histogram, np.array(values)), HISTOGRAM


# ---------------------------------------------------------------- cycle._outcome_probabilities


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("d", [3, 31, 61])
def test_stacked_probabilities_keep_the_bytes_of_one_product_per_component(d, kind):
    comps = components(d, kind)
    for n in (1, cycle._chunk_samples(d)):
        bases = haar_stack(d, n, 2)
        got = cycle._outcome_probabilities(bases, comps)
        assert got.tobytes() == reference_probabilities(bases, comps).tobytes(), PROBABILITIES


# ---------------------------------------------------------------- mub.verify_mub


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
@pytest.mark.parametrize("d", [3, 31, 61])
def test_tall_overlap_products_keep_the_bytes_of_one_product_per_pair(d, dtype):
    """Each row block of ``verify_mub``'s product of the earlier bases' rows
    with the adjoint of basis b2, written into a reused buffer, has the bytes
    of each pair's own ``bases[b1] @ bases[b2].conj().T``, for chunks of one
    basis and of a full verification block."""
    if np.dtype(dtype).kind == "c":
        bases = mub.mub_family(d).bases.astype(dtype)
    else:
        bases = np.random.default_rng(d).standard_normal((d + 1, d, d))
    per_block = max(1, mub._VERIFY_BLOCK_BYTES // (d * d * bases.itemsize))
    product = np.empty((per_block * d, d), dtype=dtype)
    for b2 in range(1, d + 1):
        adjoint = bases[b2].conj().T
        for chunk in (1, per_block):
            for lo in range(0, b2, chunk):
                hi = min(lo + chunk, b2)
                tall = product[: (hi - lo) * d]
                np.matmul(bases[lo:hi].reshape(-1, d), adjoint, out=tall)
                for b1 in range(lo, hi):
                    pair = bases[b1] @ bases[b2].conj().T
                    assert tall[(b1 - lo) * d : (b1 - lo + 1) * d].tobytes() == pair.tobytes(), OVERLAPS


# ---------------------------------------------------------------- mub._quadratic_rows


@pytest.mark.parametrize("d", [3, 31, 61])
def test_clipped_take_into_a_reused_slot_equals_fancy_indexing(d):
    """Two uint8 parts summed into a reused intp buffer, then ``take`` with
    ``out=`` and ``mode="clip"`` into each slot of a stack in turn, give the
    bytes of ``table[parts_a + parts_b]`` for every in-range index, whatever
    the buffers held before."""
    rng = np.random.default_rng(d)
    table = mub._roots(d)
    index = np.full((d, d), -1, dtype=np.intp)
    slots = np.full((3, d, d), np.nan, dtype=complex)
    for slot in slots:
        first = rng.integers(1, d + 1, (d, d)).astype(np.uint8)  # as d - (2 j l mod d)
        second = rng.integers(0, d, d).astype(np.uint8)  # as k l^2 mod d
        first[0, 0], second[0] = 1, 0  # the smallest index, 1
        first[1, -1], second[-1] = d, d - 1  # the largest, 2d - 1
        np.add(first, second, out=index)
        assert np.array_equal(index, first.astype(np.intp) + second), GATHER
        table.take(index, out=slot, mode="clip")
        assert slot.tobytes() == table[first.astype(np.intp) + second].tobytes(), GATHER


# ---------------------------------------------------------------- mub.mub_family's read-only bases


def test_a_view_of_a_read_only_owner_cannot_be_made_writeable():
    owner = np.zeros((4, 3, 3), dtype=complex)
    owner.setflags(write=False)
    for view in (owner.view(), owner[1:], owner.view().view(), owner.reshape(4, 9)):
        assert not view.flags.writeable, READ_ONLY
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            view.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
    # the owner itself may be made writeable again, so verify_mub reads its flag too
    owner.setflags(write=True)
    view = owner.view()
    view.setflags(write=False)
    view.setflags(write=True)
    assert view.flags.writeable, READ_ONLY


# ---------------------------------------------------------------- numerics._outer


def own_rows(d):
    """Every row the package builds at d: each member's rows and, at d = 2,
    the rows of all three Pauli axes."""
    members = range(d + 1) if d > 2 else range(2)
    rows = [row for i in members for row in mub._member_rows(d, i, np.arange(d))]
    if d == 2:
        rows += [row for axis in "xyz" for row in qubit._PAULI[axis][1]]
    return rows


@pytest.mark.parametrize("d", [2, 3, 61])
def test_outer_of_an_own_row_has_the_bytes_of_its_projector(d):
    rows = own_rows(d)
    if d > 2:
        rows += list(mub.mub_family(d).bases.reshape(-1, d))  # read-only rows
    for row in rows:
        assert _outer(row).tobytes() == projector(row).tobytes(), OUTER
