"""Property checks of the cycle and the pair bound against closed forms.

The finest layout separates every component behind every membrane, so its W1
is the mutual information between component and chamber, and the Holevo
bound caps that by the W2 of the same priors: its net work is never positive,
whatever the priors and the membrane basis. The equal-weight pair of any two
unit vectors has the top eigenvalue (1 + |<u|v>|)/2. Near the computational
basis the symmetric layout's singleton arguments fall in the monotone window
at d >= 5 too, where the net work must not be positive. With the standard
components and uniform priors, any singleton layout's net work is its
binary-entropy form, and no singleton argument exceeds the pair bound.
"""

import numpy as np
import pytest
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


def perturbed_computational_basis(d, eps, rng):
    """Rows of exp(i eps H) for a seeded Hermitian H = (A + A^dag)/2, A complex Gaussian."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


@pytest.mark.parametrize("d", [5, 7, 11, 13])
def test_second_law_holds_in_window_near_the_computational_basis(d):
    # Haar-random bases almost never put every singleton argument of d >= 5 in
    # the window, so a scan there asserts nothing. Small rotations of the
    # computational basis under the symmetric layout do land in it.
    rng = np.random.default_rng(1000 + d)
    layout = MembraneLayout.symmetric_preset(d)
    inside = []
    for eps in (0.0, 0.05, 0.1, 0.2):
        for _ in range(25):
            report = delta_w(cycle_config(d, basis=perturbed_computational_basis(d, eps, rng), layout=layout))
            assert report.consistency_residual <= 1e-9
            assert max(report.singleton_args) <= report.zeta + 1e-10
            if report.in_window:
                inside.append(report.delta_w)
    assert len(inside) > 0
    assert max(inside) <= 1e-9


def random_singleton_cycle(d, seed):
    """delta_w of the standard cycle under uniform priors, a Haar basis and a
    layout whose designated component per outcome is drawn at random, the
    rest merged."""
    rng = np.random.default_rng(seed)
    singles = tuple(int(s) for s in rng.integers(d, size=d))
    groups = tuple((tuple(i for i in range(d) if i != s), (s,)) for s in singles)
    layout = MembraneLayout(name="random", groups=groups, singletons=singles)
    return delta_w(cycle_config(d, basis=haar_random_basis(d, rng), layout=layout))


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 7]), seed=SEEDS)
def test_random_singleton_layout_matches_its_binary_entropy_form(d, seed):
    assert random_singleton_cycle(d, seed).consistency_residual < 1e-12


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 7]), seed=SEEDS)
def test_random_singleton_arguments_stay_below_the_bound(d, seed):
    report = random_singleton_cycle(d, seed)
    assert max(report.singleton_args) <= report.zeta + 1e-12
