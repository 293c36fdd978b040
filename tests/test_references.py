"""50-digit mpmath references for the cycle's W2, its binary-entropy work
form and for top eigenvalues.

The double-precision results are compared with values computed in 50-digit
arithmetic from their closed form (W2, the binary-entropy form) or from the
same certainty operator (the top eigenvalue), so the reference owes nothing
to the code under test.
"""

import pytest

from finecert import bounds, mub
from finecert.cycle import MembraneLayout, cycle_config, delta_w

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


#: The paper preset's binary-entropy work at d = 3, 5, 7, 11, to four places.
PAPER_DELTA_W = {3: -0.0849, 5: 0.1807, 7: 0.3477, 11: 0.5344}


@pytest.mark.parametrize("preset", ["paper_preset", "symmetric_preset"])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_binary_entropy_form_equals_the_50_digit_reference(d, preset):
    # in the computational basis the singleton argument of membrane j is
    # <j|rho_i|j> = (delta_ij + 1/d)/2 for its singleton component i, so the
    # form H_b(zeta) - (1/d) sum_j H_b(s_j) has an exact 50-digit value
    layout = getattr(MembraneLayout, preset)(d)
    report = delta_w(cycle_config(d, layout=layout))
    with mpmath.workdps(50):
        zeta = mpmath.mpf(1) / 2 + 1 / (2 * mpmath.sqrt(d))
        s = [(int(i == j) + mpmath.mpf(1) / d) / 2 for j, i in enumerate(layout.singletons)]
        want = binary_entropy_mp(zeta) - mpmath.fsum(binary_entropy_mp(v) for v in s) / d
        assert abs(mpmath.mpf(report.hb_form_delta_w) - want) <= 1e-14
        assert abs(mpmath.mpf(report.delta_w) - want) <= 1e-12
    if preset == "paper_preset" and d in PAPER_DELTA_W:
        assert round(float(want), 4) == PAPER_DELTA_W[d]
