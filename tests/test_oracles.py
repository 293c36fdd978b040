"""Independent oracles for the cycle's component states and outcome probabilities.

Each component is rho_i = (|i><i| + |v_i><v_i|)/2 with <i|v_i> of modulus
1/sqrt(d), so its spectrum is (zeta, 1 - zeta, 0, ...) with
zeta = 1/2 + 1/(2 sqrt d), and an outcome probability in a membrane basis is
<e|rho_i|e> = (|<e|i>|^2 + |<e|v_i>|^2)/2. The references below build v_i
from its formula and never call the package's vector construction.
"""

import numpy as np
import pytest

from finecert import cycle, mub

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
