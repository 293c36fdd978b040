"""Properties of a scan's summary and of the cycle kernel, over bounded draws.

The histogram of a scan bins against the edges it computes itself, by
numpy's documented rule; ``reference_histogram`` is the ``np.histogram``
call it replaces, with the same constant-data fallback. The two agree
wherever a bin's width is a normal float; with a subnormal width,
``np.histogram``'s index arithmetic can miss its own rule, and one such case
is pinned below. The kernel invariants hold
for every paper-preset scan: the binary-entropy form agrees with W1 - W2, no
singleton argument exceeds the bound, and a counterfactual bound makes the
net work positive exactly when it lies further from 1/2 than zeta does.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finecert import cycle, mub

BINS = 20
SEEDS = st.integers(0, 2**32 - 1)
SCAN_DIMENSIONS = [2] + [p for p in range(3, 32) if mub.is_prime(p)]


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
    assert histogram_outcome(cycle._histogram, values) == histogram_outcome(reference_histogram, values)


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
    assert got_edges.tobytes() == edges.tobytes()
    assert counts.tobytes() == rule_counts(values, edges).tobytes()


def test_subnormal_bins_follow_the_rule_where_np_histogram_does_not():
    # linspace rounds a subnormal bin width of 1.1 ulps down to 1, so the
    # 20th edge is -3 ulps; np.histogram's one-step index correction stops
    # at bin 18 for that value, while the rule puts it in bin 19
    values = ulps_apart(-0.0, [0, 3, 22])
    counts, edges = cycle._histogram(values)
    assert edges[BINS - 1] == values[1]
    assert counts.tolist() == rule_counts(values, edges).tolist() == [1] + [0] * 18 + [2]
    assert np.histogram(values, bins=BINS)[0].tolist() == [1] + [0] * 17 + [1, 1]


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
    assert isinstance(message, str) and "not finite" in message
    assert message == histogram_outcome(reference_histogram, np.array(values))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(SCAN_DIMENSIONS), seed=SEEDS, n_samples=st.integers(1, 40))
def test_paper_preset_scans_keep_the_kernel_invariants(d, seed, n_samples):
    report = cycle.scan_bases(d, n_samples, seed)
    assert report.max_consistency_residual <= 1e-12
    assert report.max_singleton_excess <= 1e-10


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from(SCAN_DIMENSIONS), zeta_cf=st.floats(0.0, 1.0))
def test_counterfactual_work_is_positive_exactly_beyond_zeta(d, zeta_cf):
    zeta = cycle._standard_cycle(d).zeta
    # binary entropy is flat to roundoff at a tie, so near-ties decide nothing
    assume(abs(abs(zeta_cf - 0.5) - abs(zeta - 0.5)) > 1e-9)
    report = cycle.delta_w(cycle.cycle_config(d), counterfactual_zeta=zeta_cf)
    assert (report.counterfactual_delta_w > 0) == (abs(zeta_cf - 0.5) > abs(zeta - 0.5))
