"""Byte-level goldens for the grid oracle.

Each digest is the SHA-256 over a group of grids, taken in order, of
``repr((zeta, angles.x, angles.phi))`` followed by ``state.tobytes()``. The
values were recorded before the grid search took its trig functions once per
call and meshed whole grids, so any change to the block plan or the kernel
that moves a last bit, a tie-break or a signed zero fails here. The d = 4
digests were recorded before a block's values were summed column by column
instead of by ``np.sum``; d = 4 is the first dimension where numpy's order of
those sums is not left to right.
"""

import hashlib
import itertools

import numpy as np
import pytest

from finecert.bounds import (
    measurement_ensemble,
    mub_pair_ensemble,
    pauli_pair_ensemble,
    zeta_gridsearch,
)
from finecert.numerics import projector


def _digest(cases):
    h = hashlib.sha256()
    for ens, steps in cases:
        res = zeta_gridsearch(ens, steps)
        h.update(repr((res.zeta, res.angles.x, res.angles.phi)).encode())
        h.update(res.state.tobytes())
    return h.hexdigest()


MUB_GOLDEN = {
    (2, "z", 0): "f17aa4576502cacea497730517b545694b66e21eeee560881e4df04fe1231fc4",
    # basis 0 is sigma_x at d = 2, so this equals the Pauli x z digest below
    (2, 0, "z"): "63e991b48dba0c728624f6e4faaa6494dd5623a5ec4371bac8c8daf9de4aa5c2",
    (3, "z", 0): "c1fd49e08055bd374057e98e7295e389476bd02c5937de4226fec5988d70e28a",
    (3, "z", 1): "4d85e5269d68fb3c1412d1da619ede31c4fecbb144ab9c1d9e3ede8782df918a",
    (3, "z", 2): "d56e7280da2948a9a0543462ec3096bec8b2e79373f13c37094ee878c85d424c",
    (3, 0, "z"): "2170ce498f60ab37434955ecf4a4f1b476311d47f68db9c857bf96bf26e4538c",
    (3, 0, 1): "e8f687965f12d0c9bb84f766c52b816eb9ecb96a6edc9699f2eb89ab402dd9a1",
    (3, 0, 2): "e099b53e68b5b3cda042c36ba63d6fdec206c2d44339431322d9a662f924ec71",
    (3, 1, "z"): "15523c7111cc2cc3fda7b5d46e13a1ee4ff8be7418db093c97cc77f070eea382",
    (3, 1, 0): "6aec45bd63c0460ad5c13aa42438973ed225500c91cbcfde6605a2e8c7d3071f",
    (3, 1, 2): "1a8aabeabcdbf72398cb96b0b5b8d46c2f0035ee3dfef3c68fd2560c5600ed5f",
    (3, 2, "z"): "bb766202b0739aa8f6dd9fe95e4d47ef25228434a482e50bbcc8dd075f02a673",
    (3, 2, 0): "07d20cdbcc27673fa8e3254f1e2d63454b7f9a81ec011aa2485ff40cc85291bb",
    (3, 2, 1): "fbee2de93ddc98151da34c4449283b9f3ed98ccca208afa0401937424eb04e89",
}

#: 181 steps at d = 2 (one block when the whole grid fits), 16 at d = 3.
MUB_STEPS = {2: 181, 3: 16}


@pytest.mark.parametrize("d, k1, k2", sorted(MUB_GOLDEN, key=repr))
def test_mub_pair_grids(d, k1, k2):
    cases = [
        (mub_pair_ensemble(d, k1, k2, j1, j2), MUB_STEPS[d])
        for j1, j2 in itertools.product(range(d), repeat=2)
    ]
    assert _digest(cases) == MUB_GOLDEN[(d, k1, k2)]


PAULI_GOLDEN = {
    ("x", "z"): "63e991b48dba0c728624f6e4faaa6494dd5623a5ec4371bac8c8daf9de4aa5c2",
    ("y", "x"): "378921c7111932a784bb111871d8f7be071974e05b15d98c871dd7c28d1b7e24",
}


@pytest.mark.parametrize("axis1, axis2", sorted(PAULI_GOLDEN))
def test_pauli_pair_grids(axis1, axis2):
    cases = [
        (pauli_pair_ensemble(axis1, axis2, outcomes), 181)
        for outcomes in itertools.product((0, 1), repeat=2)
    ]
    assert _digest(cases) == PAULI_GOLDEN[(axis1, axis2)]


def test_criterion_8_grids():
    # the two grids of acceptance criterion 8
    cases = [(pauli_pair_ensemble("x", "z"), 721), (mub_pair_ensemble(3), 60)]
    assert _digest(cases) == (
        "38f5f03bb69ccc6d67815bb6e32f23a232d1eedb529627c2f9869071304794b2"
    )


def _random_rank1_pair(seed):
    """Two random rank-1 projectors in dimension 4 with weights w and 1 - w."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.uniform(0.2, 0.8)
    return measurement_ensemble([("a", w, projector(v[0])), ("b", 1.0 - w, projector(v[1]))])


def _fourier_pair(j):
    """|0> with Fourier vector j in dimension 4: an unbiased pair with exact zeros."""
    f = np.exp(2j * np.pi * j * np.arange(4) / 4) / 2.0
    return measurement_ensemble([("z:0", 0.5, projector(np.eye(4)[0])), (f"f:{j}", 0.5, projector(f))])


D4_GOLDEN = {
    ("random", 1, 8): "fca2bf656f71092dfb9fc3f245283ba8c5af6a224c364e296b1c5b8d52e5fee1",
    # 10 steps: 1,000 blocks of 1,000 rows
    ("random", 2, 10): "d44b4e0c25a481ca5bcd2dcc5343db3b13914da33d40741cae82bc7be65bf90c",
    ("fourier", 1, 8): "ed1e71eb8fd041ebab763bc69bbf121c6705722a9afcd1bba1538dd63deb391f",
}


@pytest.mark.parametrize("kind, seed, steps", sorted(D4_GOLDEN))
def test_d4_grids(kind, seed, steps):
    ens = _random_rank1_pair(seed) if kind == "random" else _fourier_pair(seed)
    assert _digest([(ens, steps)]) == D4_GOLDEN[(kind, seed, steps)]
