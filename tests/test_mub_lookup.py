"""One exponent rule for every MUB amplitude, and the finiteness check for
every family that ``mub_family`` did not return.

Every quadratic-phase amplitude is entry d + (k l^2 mod d) - (2 j l mod d) of
the doubled roots table, an index that always lies in 1..2d-1. Each entry
point that builds rows (``mub_family``, ``quadratic_basis``, ``mub_vector``
and ``_member_rows``) must give the bytes of ``roots[(k l^2 - 2 j l) % d]``,
the single-period table indexed by the exponent reduced once. A family that
is the package's own up to one non-finite entry in its last place must be
rejected with the finiteness message.
"""

import re
import tracemalloc

import numpy as np
import pytest

from finecert import mub
from finecert.mub import MubFamily, mub_family, verify_mub

ODD_PRIMES = [p for p in range(3, 62) if mub.is_prime(p)]


def reference_bases(d):
    """``roots[(k l^2 - 2 j l) % d]`` for every (k, j, l), from the d roots alone."""
    l = np.arange(d)
    roots = np.exp(2j * np.pi * l / d) / np.sqrt(d)
    k = l[:, None, None]
    return roots[(k * l * l - 2 * np.multiply.outer(l, l)) % d]


@pytest.fixture
def built(monkeypatch):
    """Each set of rows that ``_quadratic_rows`` returns, copied, after checking
    that every index it forms lies in 1..2d-1 (``take``'s "clip" mode would
    hide one that did not)."""
    rows_built = []
    original = mub._quadratic_rows

    def checked(roots, shift, offsets, out=None, index=None):
        d = roots.size // 2
        expected = offsets.astype(np.intp) + shift
        assert expected.min() >= 1 and expected.max() <= 2 * d - 1
        rows = original(roots, shift, offsets, out=out, index=index)
        if index is not None:
            assert np.array_equal(index, expected)
        rows_built.append(rows.copy())
        return rows

    monkeypatch.setattr(mub, "_quadratic_rows", checked)
    return rows_built


@pytest.mark.parametrize("d", ODD_PRIMES)
def test_every_entry_point_looks_up_the_reduced_exponent(built, d):
    roots = mub._roots(d)
    e = np.arange(-d + 1, d)
    assert roots[e + d].tobytes() == roots[e % d].tobytes()
    assert roots[:d].tobytes() == (np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)).tobytes()

    expected = reference_bases(d)
    family = mub_family(d)
    assert family.bases[1:].tobytes() == expected.tobytes()
    assert np.concatenate([b.reshape(-1, d, d) for b in built]).tobytes() == expected.tobytes()
    rows = np.arange(d)
    for k in range(d):
        assert mub.quadratic_basis(d, k).tobytes() == expected[k].tobytes()
        assert mub._member_rows(d, 1 + k, rows).tobytes() == expected[k].tobytes()
        assert mub._member_rows(d, 1 + k, [d - 1, 0]).tobytes() == expected[k, [d - 1, 0]].tobytes()
        for j in range(d):
            assert mub.mub_vector(d, k, j).tobytes() == expected[k, j].tobytes()
            assert mub._member_rows(d, 1 + k, j).tobytes() == expected[k, j].tobytes()

    # basis 0 is the identity, so the whole family is the reference behind it
    assert family.bases.tobytes() == np.concatenate((np.eye(d, dtype=complex)[None], expected)).tobytes()


NON_FINITE = {
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "nan-imaginary": complex(0.0, np.nan),
}


@pytest.mark.parametrize("d", [5, 61])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_a_non_finite_last_entry_is_still_rejected(d, bad):
    # the family is the package's own up to its very last entry
    verify_mub(mub_family(d))  # a kept scan of d must not hide the entry
    bases = mub_family(d).bases.copy()
    bases[-1, -1, -1] = NON_FINITE[bad]
    assert bases.dtype == np.complex128 and bases.flags.c_contiguous
    assert bases.reshape(-1)[:-1].tobytes() == mub_family(d).bases.reshape(-1)[:-1].tobytes()
    with pytest.raises(ValueError, match=f"^{re.escape('family bases contain NaN or Inf entries')}$"):
        verify_mub(MubFamily(d=d, bases=bases))


def tracemalloc_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_building_and_verifying_a_family_hold_no_table_of_bases():
    # an O(d^3) index table, a second family or a kept family would each cost
    # about 1.8 MB or more at d = 61
    family = mub_family(61)
    verify_mub(family)
    assert tracemalloc_peak(lambda: verify_mub(family)) < 128 << 10
    assert tracemalloc_peak(lambda: mub_family(61)) < family.bases.nbytes + (128 << 10)
