"""``verify_mub`` trusts the read-only family that ``mub_family`` built.

``mub_family`` returns its bases as a read-only view of a read-only owner and
records that view. ``verify_mub`` trusts a recorded view while it and its
owner stay read-only, and keeps its scan; every other array (a copy, a
pickled or replaced family, a view whose owner was made writeable) is
scanned in full, gets the same report and leaves the kept scan alone.
``reference_verify`` (from ``test_verify_blocks``) is the pair-by-pair scan
that every report is held to.
"""

import dataclasses
import gc
import pickle
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from test_verify_blocks import reference_verify

from finecert import mub
from finecert.mub import MubFamily, mub_family, verify_mub


@pytest.fixture(autouse=True)
def cold_scan():
    mub._VERIFIED.clear()
    yield
    mub._VERIFIED.clear()


@contextmanager
def spies():
    """Spies on ``np.matmul`` (only the scan calls it) and ``_quadratic_rows``
    (each basis built)."""
    with (
        mock.patch.object(np, "matmul", wraps=np.matmul) as matmul,
        mock.patch.object(mub, "_quadratic_rows", wraps=mub._quadratic_rows) as rows,
    ):
        yield matmul, rows


@pytest.mark.parametrize("d", [3, 31, 61])
def test_the_bases_and_their_owner_are_read_only(d):
    bases = mub_family(d).bases
    with pytest.raises(ValueError, match="read-only"):
        bases[1, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        bases += 0.0
    with pytest.raises(ValueError, match="WRITEABLE"):
        bases.setflags(write=True)
    assert not bases.base.flags.writeable
    assert not bases.flags.owndata and bases.base.flags.owndata
    assert bases.dtype == np.complex128 and bases.flags.c_contiguous


@pytest.mark.parametrize("d", [3, 31, 61])
def test_a_warm_call_on_a_built_family_builds_no_basis_and_forms_no_product(d):
    family = mub_family(d)
    with spies() as (matmul, rows):
        cold = verify_mub(family)
        # the first call scans, but builds no basis
        assert matmul.call_count > 0
        assert rows.call_count == 0
        matmul.reset_mock()
        warm = verify_mub(family)
        assert (matmul.call_count, rows.call_count) == (0, 0)
    assert warm == cold == reference_verify(family)


def replaced_with_a_new_view(d):
    family = mub_family(d)
    return dataclasses.replace(family, bases=family.bases.view())


def owner_made_writeable(d):
    family = mub_family(d)
    family.bases.base.setflags(write=True)
    return family


def one_ulp_through_the_owner(d):
    family = owner_made_writeable(d)
    owner = family.bases.base
    owner[d, 1, 2] = np.nextafter(owner[d, 1, 2].real, 1.0) + 1j * owner[d, 1, 2].imag
    return family


#: Families with the built bits that are not the recorded, read-only view.
SAME_BITS = {
    "copy": lambda d: MubFamily(d=d, bases=mub_family(d).bases.copy()),
    "pickled": lambda d: pickle.loads(pickle.dumps(mub_family(d))),
    "replaced-with-a-new-view": replaced_with_a_new_view,
    "owner-made-writeable": owner_made_writeable,
}


@pytest.mark.parametrize("d", [3, 31])
@pytest.mark.parametrize("other", SAME_BITS)
def test_other_arrays_with_the_built_bits_are_scanned(d, other):
    verify_mub(mub_family(d))
    kept = mub._VERIFIED[d]
    family = SAME_BITS[other](d)
    assert not mub._is_built(family.bases)
    with spies() as (matmul, rows):
        report = verify_mub(family)
    assert matmul.call_count > 0
    assert rows.call_count == 0
    assert report == reference_verify(family)
    assert mub._VERIFIED == {d: kept} and mub._VERIFIED[d] is kept


@pytest.mark.parametrize("d", [3, 31, 61])
def test_a_copy_gets_the_report_of_the_built_family(d):
    family = mub_family(d)
    copy = MubFamily(d=d, bases=family.bases.copy())
    assert verify_mub(copy).as_dict() == verify_mub(family).as_dict()


@pytest.mark.parametrize("d", [3, 31])
def test_a_write_through_a_writeable_owner_is_scanned(d):
    verify_mub(mub_family(d))
    kept = mub._VERIFIED[d]
    family = one_ulp_through_the_owner(d)
    with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
        report = verify_mub(family)
    assert matmul.call_count > 0
    assert report == reference_verify(family)
    assert mub._VERIFIED == {d: kept}


def test_replacing_nothing_keeps_the_recorded_view():
    # dataclasses.replace without new bases holds the very view, which is still trusted
    family = dataclasses.replace(mub_family(5), d=5)
    assert mub._is_built(family.bases)
    assert verify_mub(family) == reference_verify(family)


def test_the_record_holds_no_family_once_it_is_collected():
    family = mub_family(7)
    key = id(family.bases)
    assert mub._BUILT[key] is family.bases
    verify_mub(family)  # the kept scan holds no reference to the family
    del family
    gc.collect()
    assert key not in mub._BUILT
    before = len(mub._BUILT)
    for d in (3, 5, 7, 11, 61):
        verify_mub(mub_family(d))
    gc.collect()
    assert len(mub._BUILT) == before


@pytest.mark.parametrize("d", [3, 31, 61])
def test_a_warm_call_on_a_built_family_peaks_below_8_kib(d):
    family = mub_family(d)
    verify_mub(family)
    tracemalloc.start()
    try:
        verify_mub(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 10
