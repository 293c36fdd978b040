"""Independent oracles for the cycle's component states and outcome
probabilities, and for the certainty bound beyond the grid oracle's reach.

Each component is rho_i = (|i><i| + |v_i><v_i|)/2 with <i|v_i> of modulus
1/sqrt(d), so its spectrum is (zeta, 1 - zeta, 0, ...) with
zeta = 1/2 + 1/(2 sqrt d), and an outcome probability in a membrane basis is
<e|rho_i|e> = (|<e|i>|^2 + |<e|v_i>|^2)/2. The references below build v_i
from its formula and never call the package's vector construction.

A rank-1 ensemble sum_s p_s |u_s><u_s| = A A^dag, with the columns of A the
vectors sqrt(p_s) u_s, has the nonzero spectrum of A^dag A, the m x m
weighted Gram matrix G_st = sqrt(p_s p_t) <u_s|u_t>. So its certainty bound
is G's top eigenvalue at every d, where the grid oracle stops at d = 5.
"""

import numpy as np
import pytest

from finecert import cycle, mub
from finecert.bounds import measurement_ensemble, zeta_spectral

DIMENSIONS = [2] + [p for p in range(3, 62) if mub.is_prime(p)]


def paired_vectors(d):
    """Rows v_i: the sigma_x eigenvectors at d = 2, else quadratic basis 0,
    v_i[l] = exp(-2 pi i (2 i l mod d) / d) / sqrt(d)."""
    i = np.arange(d)
    if d == 2:
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    exponent = (-2 * np.multiply.outer(i, i)) % d
    return np.exp(2j * np.pi * exponent / d) / np.sqrt(d)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_component_spectrum_is_zeta_one_minus_zeta_and_zeros(d):
    zeta = 0.5 + 0.5 / np.sqrt(d)
    expected = np.zeros(d)
    expected[:2] = zeta, 1.0 - zeta
    spectra = np.linalg.eigvalsh(np.array(cycle.component_states(d)))[:, ::-1]
    assert np.max(np.abs(spectra - expected)) <= 1e-14


@pytest.mark.parametrize("d", DIMENSIONS)
def test_outcome_probabilities_equal_the_rank_2_form(d):
    bases = np.stack([cycle.haar_random_basis(d, np.random.default_rng([d, s])) for s in (0, 1)])
    comps = cycle._component_stack(cycle.component_states(d), d)
    got = cycle._outcome_probabilities(bases, comps)
    # want[k, i, j] = (|<e_kj|i>|^2 + |<e_kj|v_i>|^2) / 2
    on_i = np.abs(bases.swapaxes(-1, -2)) ** 2
    on_v = np.abs(paired_vectors(d) @ bases.conj().swapaxes(-1, -2)) ** 2
    want = (on_i + on_v) / 2.0
    assert got.shape == (2, d, d)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("d", DIMENSIONS)
def test_rank_1_certainty_bound_is_the_top_eigenvalue_of_the_weighted_gram(d):
    rng = np.random.default_rng([d, 2])
    for m in (2, 3, 4):
        for _ in range(3):
            u = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            u /= np.linalg.norm(u, axis=1)[:, None]
            p = rng.dirichlet(np.ones(m))
            ens = measurement_ensemble([(str(s), p[s], np.outer(u[s], u[s].conj())) for s in range(m)])
            root = np.sqrt(p)
            gram = root[:, None] * (u.conj() @ u.T) * root[None, :]
            assert abs(zeta_spectral(ens).zeta - np.linalg.eigvalsh(gram)[-1]) <= 1e-12
