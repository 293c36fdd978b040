"""Properties of a scan's summary and of the cycle kernel, over bounded draws.

The histogram of a scan bins by numpy's documented edge rule, which
``test_numpy_copies`` checks against ``np.histogram``. The kernel invariants
hold for every paper-preset scan: the binary-entropy form agrees with
W1 - W2, no singleton argument exceeds the bound, and a counterfactual bound
makes the net work positive exactly when it lies further from 1/2 than zeta
does.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finecert import cycle, mub
# collected here too, so this module keeps their test IDs
from test_numpy_copies import (  # noqa: F401
    test_histogram_bins_by_the_edge_rule,
    test_histogram_of_scaled_normal_draws,
    test_histogram_of_values_a_few_ulps_apart,
    test_histogram_of_values_on_the_edges,
    test_non_finite_values_raise_numpys_message,
    test_subnormal_bins_follow_the_rule_where_np_histogram_does_not,
)

SEEDS = st.integers(0, 2**32 - 1)
SCAN_DIMENSIONS = [2] + [p for p in range(3, 32) if mub.is_prime(p)]


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
