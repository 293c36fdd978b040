"""``verify_mub`` scans the package's own family once per d and keeps the result.

A family that ``mub_family`` built is trusted by identity, and the kept scan
is the one its first call made, so a later call must return what a cold call
returns, float for float, at every tolerance. Any other array, whether it has
the family's bits or differs from them by a bit, a dtype or a row order, runs
the full scan and leaves the kept scans alone. ``reference_verify`` (from
``test_verify_blocks``) is the pair-by-pair scan that every report is held to.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from test_verify_blocks import ODD_PRIMES, reference_verify

from finecert import mub
from finecert.mub import MubFamily, mub_family, verify_mub
from finecert.numerics import MAX_DIM


@pytest.fixture(autouse=True)
def cold_scan():
    mub._VERIFIED.clear()
    yield
    mub._VERIFIED.clear()


def matmul_spy():
    """Counts ``np.matmul`` calls, which only the scan makes."""
    return mock.patch.object(np, "matmul", wraps=np.matmul)


def tracemalloc_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", ODD_PRIMES)
def test_warm_equals_cold_equals_the_pair_scan(d):
    family = mub_family(d)
    cold = verify_mub(family)
    assert set(mub._VERIFIED) == {d}
    warm = verify_mub(mub_family(d))  # a fresh built family, trusted in turn
    assert warm == cold == reference_verify(family)


@pytest.mark.parametrize("d", [3, 31])
def test_a_warm_call_runs_no_product(d):
    family = mub_family(d)
    with matmul_spy() as spy:
        verify_mub(family)
        assert spy.call_count > 0
        spy.reset_mock()
        verify_mub(family)
        assert spy.call_count == 0


def nudged(d, b):
    """The family with entry (1, 2) of basis b moved by one ulp."""
    bases = mub_family(d).bases.copy()
    bases[b, 1, 2] = np.nextafter(bases[b, 1, 2].real, 1.0) + 1j * bases[b, 1, 2].imag
    return bases


def swapped(d, b):
    """The family with rows 0 and 1 of basis b swapped."""
    bases = mub_family(d).bases.copy()
    bases[b, [0, 1]] = bases[b, [1, 0]]
    return bases


NEAR_MISSES = {
    "ulp-basis-0": lambda d: nudged(d, 0),
    "ulp-basis-1": lambda d: nudged(d, 1),
    "ulp-last-basis": lambda d: nudged(d, d),
    "complex64": lambda d: mub_family(d).bases.astype(np.complex64),
    "swapped-rows-basis-0": lambda d: swapped(d, 0),
    "swapped-rows-last-basis": lambda d: swapped(d, d),
}


@pytest.mark.parametrize("d", [3, 31])
@pytest.mark.parametrize("near_miss", NEAR_MISSES)
def test_near_misses_run_the_full_scan_and_leave_the_memo_alone(d, near_miss):
    verify_mub(mub_family(d))
    kept = dict(mub._VERIFIED)
    family = MubFamily(d=d, bases=NEAR_MISSES[near_miss](d))
    with matmul_spy() as spy:
        report = verify_mub(family)
    assert spy.call_count > 0
    assert report == reference_verify(family)
    assert mub._VERIFIED.keys() == kept.keys()
    assert all(mub._VERIFIED[key] is kept[key] for key in kept)


@pytest.mark.parametrize("d", [3, 13, 61])
def test_other_layouts_of_the_same_bits_are_scanned(d):
    verify_mub(mub_family(d))
    for bases in (np.asfortranarray(mub_family(d).bases), mub_family(d).bases.real):
        family = MubFamily(d=d, bases=bases)
        with matmul_spy() as spy:
            report = verify_mub(family)
        assert spy.call_count > 0
        assert report == reference_verify(family)
    assert set(mub._VERIFIED) == {d}


@pytest.mark.parametrize("d", [3, 7, 31, 61])
def test_passed_is_decided_again_for_each_tolerance(d):
    family = mub_family(d)
    first = verify_mub(family)
    worst = max(first.max_orthonormality_deviation, first.max_unbiasedness_deviation)
    assert worst > 0.0
    for tol in (worst, np.nextafter(worst, 0.0), 0.0, 1.0):
        warm = verify_mub(family, tol=tol)
        mub._VERIFIED.clear()
        cold = verify_mub(family, tol=tol)
        assert warm == cold == reference_verify(family, tol=tol)
    assert verify_mub(family, tol=worst).passed
    assert not verify_mub(family, tol=np.nextafter(worst, 0.0)).passed


def test_the_memo_holds_at_most_one_scan_per_odd_prime():
    rng = np.random.default_rng(0)
    for d in ODD_PRIMES:
        verify_mub(mub_family(d))
        verify_mub(mub_family(d))
        assert len(mub._VERIFIED) <= 17
    # families of other dimensions, or that merely look like one, are never kept
    for d in (1, 2, 4, 9):
        verify_mub(MubFamily(d=d, bases=rng.standard_normal((d + 1, d, d)) + 0j))
    for d in (3, 5):
        verify_mub(MubFamily(d=d, bases=rng.standard_normal((d + 1, d, d)) + 0j))
    odd_primes = {p for p in range(3, MAX_DIM + 1, 2) if mub.is_prime(p)}
    assert set(mub._VERIFIED) == odd_primes
    assert len(mub._VERIFIED) == 17


def test_a_family_built_another_way_is_scanned():
    d = 11
    bases = np.stack([np.eye(d, dtype=complex)] + [mub.quadratic_basis(d, k) for k in range(d)])
    assert bases.tobytes() == mub_family(d).bases.tobytes()
    verify_mub(mub_family(d))
    kept = mub._VERIFIED[d]
    with matmul_spy() as spy:
        report = verify_mub(MubFamily(d=d, bases=bases))
    assert spy.call_count > 0
    assert report == reference_verify(MubFamily(d=d, bases=bases))
    assert mub._VERIFIED == {d: kept} and mub._VERIFIED[d] is kept


def test_working_memory_of_a_cold_and_a_warm_call():
    family = mub_family(61)
    assert tracemalloc_peak(lambda: verify_mub(family)) < 2 << 20  # the scan
    assert tracemalloc_peak(lambda: verify_mub(family)) < 256 << 10  # the kept scan
