"""50-digit mpmath references for the cycle's W2 and for top eigenvalues.

The double-precision results are compared with values computed in 50-digit
arithmetic from their closed form (W2) or from the same certainty operator
(the top eigenvalue), so the reference owes nothing to the code under test.
"""

import pytest

from finecert import bounds, mub
from finecert.cycle import cycle_config, delta_w

mpmath = pytest.importorskip("mpmath")

DIMENSIONS = [2] + [p for p in range(3, 62) if mub.is_prime(p)]


def binary_entropy_mp(p):
    return -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))


@pytest.mark.parametrize("d", DIMENSIONS)
def test_w2_equals_log_d_minus_binary_entropy_of_the_bound(d):
    # the uniform mixture of the components is I/d, and each component has
    # eigenvalues zeta and 1 - zeta with zeta = 1/2 + 1/(2 sqrt d)
    with mpmath.workdps(50):
        zeta = mpmath.mpf(1) / 2 + 1 / (2 * mpmath.sqrt(d))
        want = mpmath.log(d, 2) - binary_entropy_mp(zeta)
        got = delta_w(cycle_config(d)).w2
        assert abs(mpmath.mpf(got) - want) <= 1e-13 * abs(want)


ENSEMBLES = {
    "pauli x z": lambda: bounds.pauli_pair_ensemble("x", "z"),
    "pauli triple": lambda: bounds.pauli_triple_ensemble(),
    "d=3 z:0 0:0": lambda: bounds.mub_pair_ensemble(3, "z", 0, 0, 0),
    "d=3 1:0 2:2": lambda: bounds.mub_pair_ensemble(3, 1, 2, 0, 2),
}


@pytest.mark.parametrize("name", ENSEMBLES)
def test_spectral_zeta_equals_the_50_digit_top_eigenvalue(name):
    ens = ENSEMBLES[name]()
    op = bounds.certainty_operator(ens)
    with mpmath.workdps(50):
        values, _ = mpmath.eighe(mpmath.matrix(op.tolist()))
        top = max(values[i] for i in range(ens.dim))
        assert abs(mpmath.mpf(bounds.zeta_spectral(ens).zeta) - top) <= 1e-15
