"""Property checks of the cycle and the pair bound against closed forms.

The finest layout separates every component behind every membrane, so its W1
is the mutual information between component and chamber, and the Holevo
bound caps that by the W2 of the same priors: its net work is never positive,
whatever the priors and the membrane basis. The equal-weight pair of any two
unit vectors has the top eigenvalue (1 + |<u|v>|)/2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from finecert.bounds import measurement_ensemble, zeta_spectral
from finecert.cycle import MembraneLayout, cycle_config, delta_w, haar_random_basis

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 7]), seed=SEEDS, zeros=st.lists(st.booleans(), min_size=7, max_size=7))
def test_finest_layout_never_extracts_net_work(d, seed, zeros):
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(d))
    mask = np.array(zeros[:d])
    mask[rng.integers(d)] = False  # keep at least one component
    priors[mask] = 0.0
    priors /= priors.sum()
    cfg = cycle_config(d, priors=priors, basis=haar_random_basis(d, rng), layout=MembraneLayout.finest(d))
    assert delta_w(cfg).delta_w <= 1e-9


def unit_vector(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(2, 6), seed=SEEDS)
def test_equal_weight_pair_bound_is_half_one_plus_overlap(d, seed):
    rng = np.random.default_rng(seed)
    u, v = unit_vector(rng, d), unit_vector(rng, d)
    ens = measurement_ensemble([("u", 0.5, np.outer(u, u.conj())), ("v", 0.5, np.outer(v, v.conj()))])
    assert abs(zeta_spectral(ens).zeta - (1.0 + abs(np.vdot(u, v))) / 2.0) <= 1e-12
