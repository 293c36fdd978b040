"""``verify_mub`` works a block of bases at a time; these tests hold it to the
pair-by-pair scan it replaced.

``reference_verify`` below is that scan: one Gram matrix per basis and one
product per pair of bases, each followed by its own deviation and argmax,
keeping the last basis or pair whose worst entry is >= the worst so far. The
blocked version must return an equal ``MubVerification``, float for float,
for MUB families, tied families, other dtypes and single-entry corruptions,
including blocks small enough that one family spans many of them.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finecert import mub
from finecert.mub import MubFamily, MubVerification, is_prime, mub_family, verify_mub

ODD_PRIMES = [p for p in range(3, 62) if is_prime(p)]


@pytest.fixture(autouse=True)
def cold_scan():
    """Forget every verified family, so that each test here times and checks
    the scan itself, not the record an earlier test left for the package's
    own family of its d."""
    mub._VERIFIED.clear()


def reference_verify(family, tol=1e-10):
    d = family.d
    labels = family.labels
    n_bases = d + 1

    worst_orth = 0.0
    worst_orth_at = (labels[0], 0, 0)
    for b in range(n_bases):
        gram = family.bases[b] @ family.bases[b].conj().T
        dev = np.abs(gram - np.eye(d))
        idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if float(dev[idx]) >= worst_orth:
            worst_orth = float(dev[idx])
            worst_orth_at = (labels[b], int(idx[0]), int(idx[1]))

    worst_unb = 0.0
    worst_unb_at = ((labels[0], 0), (labels[1], 0))
    for b1 in range(n_bases):
        for b2 in range(b1 + 1, n_bases):
            overlap_sq = np.abs(family.bases[b1] @ family.bases[b2].conj().T) ** 2
            dev = np.abs(overlap_sq - 1.0 / d)
            idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
            if float(dev[idx]) >= worst_unb:
                worst_unb = float(dev[idx])
                worst_unb_at = ((labels[b1], int(idx[0])), (labels[b2], int(idx[1])))

    return MubVerification(
        d=d,
        tol=float(tol),
        max_orthonormality_deviation=worst_orth,
        max_unbiasedness_deviation=worst_unb,
        worst_orthonormality=worst_orth_at,
        worst_unbiasedness=worst_unb_at,
        passed=bool(worst_orth <= tol and worst_unb <= tol),
    )


def assert_same_report(family, tol=1e-10):
    got = verify_mub(family, tol=tol)
    want = reference_verify(family, tol=tol)
    assert got == want
    for value in (got.max_orthonormality_deviation, got.max_unbiasedness_deviation):
        assert type(value) is float
    return got


def blocks_of(bases_per_block, d, itemsize=16):
    """Patch the block size so that a block holds ``bases_per_block`` bases
    of ``itemsize``-byte entries."""
    return mock.patch.object(mub, "_VERIFY_BLOCK_BYTES", bases_per_block * d * d * itemsize)


@pytest.mark.parametrize("d", ODD_PRIMES)
def test_mub_families_match_the_pair_scan(d):
    assert assert_same_report(mub_family(d)).passed


@pytest.mark.parametrize("d", [3, 7, 13])
def test_all_computational_family_keeps_the_last_tied_pair(d):
    bases = np.broadcast_to(np.eye(d, dtype=complex), (d + 1, d, d)).copy()
    report = assert_same_report(MubFamily(d=d, bases=bases))
    # every pair ties at 1 - 1/d: the last pair and its first worst entry win
    assert report.worst_unbiasedness == ((d - 2, 0), (d - 1, 0))
    assert report.worst_orthonormality == (d - 1, 0, 0)


@pytest.mark.parametrize("d", [3, 11, 31, 61])
def test_complex64_family_keeps_single_precision_deviations(d):
    family = MubFamily(d=d, bases=mub_family(d).bases.astype(np.complex64))
    report = assert_same_report(family)
    # float32 rounding, not the complex128 family's
    assert report.max_unbiasedness_deviation != verify_mub(mub_family(d)).max_unbiasedness_deviation


@pytest.mark.parametrize("d", [3, 7, 31, 61])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_real_stacks_match_the_pair_scan(d, dtype):
    rng = np.random.default_rng(d)
    assert_same_report(MubFamily(d=d, bases=rng.standard_normal((d + 1, d, d)).astype(dtype)))
    assert_same_report(MubFamily(d=d, bases=mub_family(d).bases.real.astype(dtype)))


@pytest.mark.parametrize("d, seed", [(7, 0), (31, 0), (47, 251)])
def test_orthogonal_real_stacks_keep_the_symmetric_gram_bits(d, seed):
    # Gram deviations at roundoff, where the kernel shows in the bits: for a
    # real basis B.conj() is B itself, and numpy forms B @ B.T as a symmetric
    # product. At (47, 251) with OpenBLAS that gives another worst entry
    # than a general product of B and a copy of B.
    rng = np.random.default_rng(seed)
    orthogonal = np.linalg.qr(rng.standard_normal((d + 1, d, d)))[0]
    assert_same_report(MubFamily(d=d, bases=orthogonal))
    assert_same_report(MubFamily(d=d, bases=orthogonal.astype(np.float32)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d", [5, 7])
def test_overflowing_products_match_the_pair_scan(d):
    # finite entries whose products overflow to inf and NaN
    bases = mub_family(d).bases.copy()
    bases[2] *= 1e200 * (1 + 1j)
    assert_same_report(MubFamily(d=d, bases=bases))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("per_block", [1, 2, 3, 5])
def test_small_blocks_match_the_pair_scan(per_block, dtype):
    d = 7
    bases = mub_family(d).bases.copy()
    bases[3, 2, 4] += 1e-3
    bases[6, 0, 1] -= 1e-3j
    bases = bases.astype(dtype)
    with blocks_of(per_block, d, bases.dtype.itemsize):
        assert mub._VERIFY_BLOCK_BYTES < (d + 1) * d * d * bases.dtype.itemsize
        assert_same_report(MubFamily(d=d, bases=bases))


PERTURBATIONS = st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0]).flatmap(
    lambda size: st.tuples(st.sampled_from([size, -size]), st.sampled_from([0.0, 1.0, -1.0]))
)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    d=st.sampled_from([3, 5, 7, 11]),
    change=PERTURBATIONS,
    twice=st.booleans(),
    per_block=st.sampled_from([None, 1, 2, 3]),
)
def test_single_entry_corruptions_match_the_pair_scan(data, d, change, twice, per_block):
    b = data.draw(st.integers(0, d), label="basis")
    j = data.draw(st.integers(0, d - 1), label="row")
    l = data.draw(st.integers(0, d - 1), label="column")
    real, imag = change
    bases = mub_family(d).bases.copy()
    bases[b, j, l] += real + imag * real * 1j
    if twice:  # the same change one basis later: ties across pairs and blocks
        bases[(b + 1) % (d + 1), j, l] += real + imag * real * 1j
    family = MubFamily(d=d, bases=bases)
    if per_block is None:
        assert_same_report(family)
    else:
        with blocks_of(per_block, d):
            assert_same_report(family)


@pytest.mark.parametrize("d", [31, 61])
def test_working_memory_stays_within_a_few_blocks(d):
    # the d = 61 family alone is 3.5 MiB; its products and deviations are
    # formed a block of 256 KiB at a time
    family = mub_family(d)
    tracemalloc.start()
    try:
        verify_mub(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
