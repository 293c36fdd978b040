"""The lookup tables of each d are built once, at import, and kept read-only.

``mub._TABLES[d]`` holds the doubled roots table and the (d, d) uint8 tables
of k l^2 mod d and d - (2 j l mod d) for every odd prime d up to
``MAX_DIM``. Every function that builds rows indexes them, so none of them
builds a table; the rows they return are their own fresh arrays, and a
rejected dimension is refused before any table is read. ``mub_family`` fills its bases from them
a block at a time, with the bytes of a fill one basis at a time.
"""

import numpy as np
import pytest

from finecert import mub
from finecert.numerics import MAX_DIM

ODD_PRIMES = [p for p in range(3, MAX_DIM + 1) if mub.is_prime(p)]


@pytest.fixture
def table_builds(monkeypatch):
    """The names of the table builders, ``_roots`` and ``_phase_terms``, once per call."""
    calls = []
    for name in ("_roots", "_phase_terms"):
        original = getattr(mub, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(mub, name, counting)
    return calls


@pytest.mark.parametrize("d", [3, 31, 61])
def test_each_table_is_read_only_and_holds_its_terms(d):
    roots, shifts, offsets = mub._TABLES[d]
    l = np.arange(d)
    assert roots.tobytes() == np.concatenate((np.exp(2j * np.pi * l / d) / np.sqrt(d),) * 2).tobytes()
    assert shifts.dtype == offsets.dtype == np.uint8
    assert np.array_equal(shifts, np.multiply.outer(l, l * l) % d)
    assert np.array_equal(offsets, d - np.multiply.outer(2 * l, l) % d)
    for table in (roots, shifts, offsets):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_one_entry_per_odd_prime_about_60_kb_in_all():
    assert list(mub._TABLES) == ODD_PRIMES and len(ODD_PRIMES) == 17
    assert sum(table.nbytes for tables in mub._TABLES.values() for table in tables) < 64 << 10
    with pytest.raises(TypeError):
        mub._TABLES[67] = mub._TABLES[61]


def entry_points(d):
    """One call of each function that reads the tables of d."""
    rows = np.arange(d)
    return {
        "mub_family": lambda: mub.mub_family(d),
        "quadratic_basis": lambda: mub.quadratic_basis(d, d - 1),
        "mub_vector": lambda: mub.mub_vector(d, 1, d - 1),
        "_member_rows": lambda: mub._member_rows(d, d, rows),
        "_member_rows one row": lambda: mub._member_rows(d, 2, 0),
    }


@pytest.mark.parametrize("d", [3, 31, 61])
def test_no_entry_point_builds_a_table(table_builds, d):
    for name, call in entry_points(d).items():
        call()
        assert table_builds == [], name


@pytest.mark.parametrize("d", [3, 61])
def test_returned_rows_are_fresh_and_writeable(d):
    tables = mub._TABLES[d]
    calls = entry_points(d)
    family = mub.mub_family(d)
    for name in ("quadratic_basis", "mub_vector", "_member_rows", "_member_rows one row"):
        rows = calls[name]()
        expected = rows.tobytes()
        assert rows.flags.writeable and rows.flags.owndata, name
        assert not any(np.shares_memory(rows, table) for table in tables), name
        rows[...] = np.nan
        assert calls[name]().tobytes() == expected, name
    assert not any(np.shares_memory(family.bases, table) for table in tables)
    assert family.bases.tobytes() == basis_by_basis(d).tobytes()
    assert mub.mub_family(d).bases.tobytes() == family.bases.tobytes()


def test_a_rejected_dimension_is_refused_before_any_table_is_read():
    # a ValueError, not the KeyError of a lookup at an unsupported d
    for d in (4, 2, 1, 0, 67):
        with pytest.raises(ValueError):
            mub.mub_family(d)
    with pytest.raises(ValueError):
        mub.mub_vector(67, 0, 0)
    # nor did a refused call disturb a table: the families filled from them keep their bytes
    for d in (3, 61):
        assert mub.mub_family(d).bases.tobytes() == basis_by_basis(d).tobytes()


@pytest.fixture
def blocks(monkeypatch):
    """(bases filled, index buffer bytes) of each ``_quadratic_rows`` call of a fill."""
    calls = []
    original = mub._quadratic_rows

    def recording(roots, shift, offsets, out=None, index=None):
        calls.append((len(out), index.nbytes))
        return original(roots, shift, offsets, out=out, index=index)

    monkeypatch.setattr(mub, "_quadratic_rows", recording)
    return calls


def basis_by_basis(d):
    """The family filled one basis at a time into its own slot, from the same tables."""
    roots, shifts, offsets = mub._TABLES[d]
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d, dtype=complex)
    index = np.empty((d, d), dtype=np.intp)
    for k in range(d):
        roots.take(np.add(offsets, shifts[k], out=index), out=bases[1 + k], mode="clip")
    return bases


# d = 61 and 31 end on a partial block; d = 19 fits in a single block
@pytest.mark.parametrize("d, sizes", [(61, [2] * 30 + [1]), (31, [8] * 3 + [7]), (19, [19]), (3, [3])])
def test_the_blocked_fill_has_the_bytes_of_a_fill_basis_by_basis(blocks, d, sizes):
    bases = mub.mub_family(d).bases
    assert [size for size, _ in blocks] == sizes
    assert all(0 < nbytes <= mub._FILL_INDEX_BYTES for _, nbytes in blocks)
    assert bases.tobytes() == basis_by_basis(d).tobytes()
