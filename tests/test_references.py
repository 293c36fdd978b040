"""50-digit mpmath references for the cycle's W2, its binary-entropy work
form, top eigenvalues and the qubit spin bound, and the qubit pair bound as
a game's value.

The double-precision results are compared with values computed in 50-digit
arithmetic from their closed form (W2, the binary-entropy form, the spin bound
1/2 + 1/(2 sqrt N) of N orthogonal axes) or from the
same certainty operator (the top eigenvalue), so the reference owes nothing
to the code under test. The two-player games of Oppenheim and Wehner
(Science 330, 1072 (2010)) are built here from Bob's and Alice's spin
observables alone: the CHSH game is worth the Pauli pair's certainty bound,
and the game with Bob's two directions at angle gamma is worth the mean of
the pair bounds at gamma and pi - gamma.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finecert import bounds, mub, qubit
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


@pytest.mark.parametrize("axes", ["xz", "xyz"])
def test_spin_certainty_is_within_half_an_ulp_of_the_50_digit_pauli_bound(axes):
    # 1/2 + 1/(2 sqrt N) for N orthogonal axes; the pair is the average form
    # of pair_bound(pi/2), the triple is triple_pauli_bound's zeta
    directions = [np.eye(3)["xyz".index(a)] for a in axes]
    zeta = qubit._spin_certainty(directions)[0]
    if axes == "xyz":
        assert zeta == qubit.triple_pauli_bound().zeta
    else:
        assert 2.0 * zeta == qubit.pair_certainty(*directions).zeta
    with mpmath.workdps(50):
        want = mpmath.mpf(1) / 2 + 1 / (2 * mpmath.sqrt(len(axes)))
        assert abs(mpmath.mpf(zeta) - want) <= mpmath.mpf(np.spacing(zeta)) / 2


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


def spin(x, z):
    """The spin observable along the unit vector (x, 0, z), as nested lists."""
    return [[z, x], [x, -z]]


def bell_operator(alice, bob):
    """The sum over settings s, t of (-1)^(s t) A_s (x) B_t, as nested lists of
    the entries' own type. A game that is won iff a + b = s t mod 2 is won
    with probability 1/2 + <B>/8."""
    pairs = [(i, k) for i in (0, 1) for k in (0, 1)]
    return [
        [sum((-1) ** (s * t) * alice[s][i][j] * bob[t][k][l] for s in (0, 1) for t in (0, 1)) for j, l in pairs]
        for i, k in pairs
    ]


def chsh_operator(half_root):
    """Bob on z and x, Alice along (z + x)/sqrt 2 and (z - x)/sqrt 2."""
    alice = [spin(half_root, half_root), spin(-half_root, half_root)]
    return bell_operator(alice, [spin(0, 1), spin(1, 0)])


def test_the_chsh_value_is_the_pauli_pair_bound():
    top = np.linalg.eigvalsh(np.array(chsh_operator(1 / np.sqrt(2)), dtype=float))[-1]
    assert 0.5 + top / 8 == bounds.zeta_spectral(bounds.pauli_pair_ensemble("x", "z")).zeta
    with mpmath.workdps(50):
        values, _ = mpmath.eighe(mpmath.matrix(chsh_operator(1 / mpmath.sqrt(2))))
        top = max(values[i] for i in range(4))
        assert abs(mpmath.mpf(1) / 2 + top / 8 - mpmath.cos(mpmath.pi / 8) ** 2) <= mpmath.mpf(10) ** -45


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, np.pi - 0.01))
def test_the_game_with_bob_at_angle_gamma_is_worth_the_pair_bounds(gamma):
    # Bob along m and n in the x-z plane, Alice along (m + n)/|m + n| and
    # (m - n)/|m - n|, on |Phi+>, which steers Bob to the transpose of
    # Alice's projector; a real x-z observable is its own transpose
    m, n = np.array([0.0, 1.0]), np.array([np.sin(gamma), np.cos(gamma)])
    alice = [spin(*(v / np.linalg.norm(v))) for v in (m + n, m - n)]
    bell = np.array(bell_operator(alice, [spin(*m), spin(*n)]), dtype=float)
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    want = (qubit.pair_bound(gamma) + qubit.pair_bound(np.pi - gamma)) / 4
    # no state does better with these measurements
    for value in (0.5 + phi @ bell @ phi / 8, 0.5 + np.linalg.eigvalsh(bell)[-1] / 8):
        assert abs(value - want) <= 1e-15
