"""Complete sets of mutually unbiased bases in odd prime dimension.

The construction builds, on top of the computational basis (the eigenbasis of
the generalized Pauli shift-phase operator Z with Z|j> = w^j|j>, w = e^{2pi i/d}),
a family of d quadratic-phase bases

    |j, k> = d^{-1/2} * sum_l w^{k l^2 - 2 j l} |l>,   k = 0..d-1,

whose cross-basis squared overlaps all equal 1/d (the quadratic-phase case of
Wootters & Fields, Ann. Phys. 191, 363, 1989). Every amplitude is one entry of
a single table of the d roots w^e / sqrt(d), stored twice over, looked up at
d + (k l^2 mod d) - (2 j l mod d): the exponent as the difference of its two
reduced terms, which lies in 1..2d-1 and needs no modulo of its own. So large
indices never accumulate angle error, and a vector has the same bytes
whichever function builds it. The roots table and the two (d, d) tables of
reduced terms are built once per d, at import, and kept read-only
(``_TABLES``); every function that builds rows indexes them, and a family is
filled from them a block of bases at a time.

For d = 2 the quadratic phase degenerates (the -2jl term vanishes mod 2), so
there is no quadratic family and ``mub_family(2)`` is rejected. The pair of
bases that the pair bound and the membrane cycle use is still defined there:
the sigma_z eigenbasis with the sigma_x eigenbasis in the place of quadratic
basis 0. This module is the one place that makes that choice and that checks a
dimension; :mod:`finecert.bounds` and :mod:`finecert.cycle` ask it for
vectors.

Basis labels used throughout the package: the string ``"z"`` names the
computational basis, integers ``0..d-1`` name the quadratic-phase bases (at
d = 2 only ``"z"`` and 0).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import qubit as _qubit
from .numerics import MAX_DIM, ROUNDOFF_TOL, _finite, _shape, check_index

#: Label of the computational (Z eigenbasis) member of a family.
Z_LABEL = "z"


#: Miller-Rabin bases: the first thirteen primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the first thirteen prime bases.

    The test is exact for n < 3,317,044,064,679,887,385,961,981 (about
    3.3e24), the smallest strong pseudoprime to all thirteen bases; the
    first twelve alone stop at about 3.2e23. Above that bound a True means
    "strong probable prime". Each call takes O(log n) modular
    multiplications, so a huge dimension is checked at once.
    """
    n = int(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_NOT_ODD_PRIME = (
    "d must be an odd prime (got {}); for d=2 use the Pauli eigenbases provided by finecert.qubit"
)


def _check_dim(d: int, qubit: bool = False) -> int:
    """The package's one dimension rule: d as an int if it is a prime up to
    ``numerics.MAX_DIM``, odd unless ``qubit`` (the pair bound and the cycle
    take d = 2, a full family does not). Cheap: run it before O(d^2) work."""
    d = check_index(d, "d")
    if not is_prime(d) or (d == 2 and not qubit):
        raise ValueError(("d must be prime (got {})" if qubit else _NOT_ODD_PRIME).format(d))
    return check_index(d, "d", cap=MAX_DIM)


def _roots(d: int) -> np.ndarray:
    """The amplitudes w^e / sqrt(d) of e = 0..d-1, twice over: entry d + e is
    that of e mod d for every e in -d+1..d-1, so an exponent formed as the
    difference of two reduced terms needs no further reduction."""
    roots = np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)
    return np.concatenate((roots, roots))


def _check_basis_index(d: int, k) -> int:
    k = check_index(k, "basis index")
    if not 0 <= k < d:
        raise ValueError(f"basis index k={k} outside 0..{d - 1}")
    return k


#: dtype of the exponent arithmetic: each product in it, k*l^2 or 2*j*l with
#: k, j, l < d <= MAX_DIM, stays below 2**15, and a family's (d, d) temporaries
#: stay a quarter the size of int64 ones.
_TERM = np.int16


def _phase_terms(d: int, j):
    """The two reduced terms of the exponent k*l^2 - 2*j*l of vector j (an int,
    or a 1-d array of ints for several rows): l^2 mod d and 2*j*l mod d. Neither
    depends on the basis k, so ``_build_tables`` takes them once per d."""
    l = np.arange(d, dtype=_TERM)
    return l * l % d, 2 * np.asarray(j, dtype=_TERM)[..., None] * l % d


def _build_tables(d: int) -> tuple:
    """What ``_quadratic_rows`` reads at d, made read-only: the doubled roots
    table, the (d, d) table of k*l^2 mod d (row k) and that of the offsets
    d - (2*j*l mod d) (row j). Both index parts and their sum, at most
    2d - 1, fit uint8, so each table takes d^2 bytes."""
    square, linear = _phase_terms(d, np.arange(d))
    shifts = np.arange(d, dtype=_TERM)[:, None] * square % d
    tables = _roots(d), shifts.astype(np.uint8), (d - linear).astype(np.uint8)
    for table in tables:
        table.setflags(write=False)
    return tables


def _quadratic_rows(roots: np.ndarray, shift, offsets, out=None, index=None) -> np.ndarray:
    """Rows from the parts of ``_build_tables``: ``offsets`` holds rows j of
    the offsets table and ``shift`` row k of the k*l^2 table, or a (b, 1, d)
    block of its rows for b bases at once; written to ``out`` if given.
    ``index``, if given, is a reused intp buffer of the shape of their sum.
    The index d + (k*l^2 mod d) - (2*j*l mod d) lies in 1..2d-1, where the
    doubled table holds w^(k*l^2 - 2*j*l) / sqrt(d)."""
    index = np.add(offsets, shift, out=index)
    # the index is in range; "clip" lets take write to out unbuffered
    return roots.take(index, out=out, mode="clip")


def _member_rows(d: int, i: int, j) -> np.ndarray:
    """Vector j (an int or a 1-d int array) of family member i: 0 for "z", 1 + k
    for quadratic basis k, the Pauli z and x eigenbases at d = 2; the caller checks d, i, j."""
    if d == 2:
        return _qubit.pauli_eigenbasis("z" if i == 0 else "x")[j]
    if i == 0:
        return np.eye(d, dtype=complex)[j]
    roots, shifts, offsets = _TABLES[d]
    return _quadratic_rows(roots, shifts[i - 1], offsets[j])


def outcome_index(d: int, j) -> int:
    """Validated outcome (vector) index j in 0..d-1."""
    index = check_index(j, "outcome index")
    if not 0 <= index < d:
        if d == 2:  # the qubit pair's message shows j as given
            raise ValueError(f"outcome index {j} outside 0..1")
        raise ValueError(f"outcome index j={index} outside 0..{d - 1}")
    return index


def basis_index(d: int, label) -> int:
    """Position of basis ``label`` in a family: 0 for "z", 1 + k for basis k (0 is sigma_x at d = 2)."""
    if isinstance(label, str) and label.lower() == Z_LABEL:
        return 0
    if d == 2:
        if not isinstance(label, str) and check_index(label, "basis label") == 0:
            return 1
        raise ValueError(f"d=2 supports basis labels 'z' and 0 only (got {label!r})")
    if isinstance(label, str):
        raise ValueError(f"unknown basis label {label!r}; use 'z' or 0..{d - 1}")
    k = check_index(label, "basis label")
    if not 0 <= k < d:
        raise ValueError(f"basis label {k} outside 0..{d - 1}")
    return 1 + k


def mub_vector(d: int, k: int, j: int) -> np.ndarray:
    """Vector j of quadratic-phase basis k in dimension d.

    Every amplitude has modulus 1/sqrt(d); it is the d-th root of unity at
    the exponent k*l^2 - 2*j*l, looked up from its two reduced terms.
    """
    d = _check_dim(d)
    k = _check_basis_index(d, k)
    j = outcome_index(d, j)
    roots, shifts, offsets = _TABLES[d]
    return _quadratic_rows(roots, shifts[k], offsets[j])


def quadratic_basis(d: int, k: int) -> np.ndarray:
    """All d vectors of quadratic-phase basis k, stacked as rows."""
    d = _check_dim(d)
    k = _check_basis_index(d, k)
    roots, shifts, offsets = _TABLES[d]
    return _quadratic_rows(roots, shifts[k], offsets)


@dataclass(frozen=True)
class MubFamily:
    """d+1 orthonormal bases of dimension d with pairwise squared overlap 1/d.

    ``bases[0]`` is the computational basis; ``bases[1 + k]`` is quadratic
    basis ``k``. ``bases[b][j]`` is the j-th vector (a row). The ``bases`` of
    a family that ``mub_family`` built are read-only (see there).
    """

    d: int
    bases: np.ndarray  # shape (d+1, d, d)

    @property
    def labels(self) -> tuple:
        return (Z_LABEL,) + tuple(range(self.d))

    def vector(self, label, j: int) -> np.ndarray:
        j = outcome_index(self.d, j)
        return self.bases[basis_index(self.d, label), j]


#: The bases of every family that ``mub_family`` built and that is still
#: alive, keyed by ``id``; an entry leaves when its array is collected.
_BUILT = weakref.WeakValueDictionary()

#: Bytes of the intp index buffer through which ``mub_family`` fills a block of bases.
_FILL_INDEX_BYTES = 64 * 1024


def mub_family(d: int) -> MubFamily:
    """Computational basis plus the d quadratic-phase bases.

    Filled in place from the tables that ``_TABLES`` holds for d, a block of
    bases at a time: one ``_quadratic_rows`` call per block, through one
    reused intp index buffer of at most ``_FILL_INDEX_BYTES`` (2 bases a
    block at d = 61, 8 at d = 31, the whole family up to d = 19), so
    temporaries stay O(d^2). The owner of the filled array is then made
    read-only, and ``bases`` is a view of it, so a write into ``bases``
    raises and so does ``bases.setflags(write=True)``. That view is
    recorded, and ``verify_mub`` trusts it by identity (see there); a copy
    of it is an ordinary, writeable array.
    """
    d = _check_dim(d)
    owner = np.empty((d + 1, d, d), dtype=complex)
    owner[0] = np.eye(d, dtype=complex)
    roots, shifts, offsets = _TABLES[d]
    block = min(d, max(1, _FILL_INDEX_BYTES // (d * d * np.dtype(np.intp).itemsize)))
    index = np.empty((block, d, d), dtype=np.intp)
    for start in range(0, d, block):
        stop = min(start + block, d)
        out = owner[1 + start : 1 + stop]
        _quadratic_rows(roots, shifts[start:stop, None], offsets, out=out, index=index[: stop - start])
    owner.setflags(write=False)
    bases = owner.view()
    _BUILT[id(bases)] = bases
    return MubFamily(d=d, bases=bases)


@dataclass(frozen=True)
class MubVerification:
    """Exhaustive orthonormality and unbiasedness scan of a family."""

    d: int
    tol: float
    max_orthonormality_deviation: float
    max_unbiasedness_deviation: float
    #: (basis label, j, j') of the worst within-basis Gram deviation.
    worst_orthonormality: tuple
    #: ((label, j), (label', j')) of the worst cross-basis overlap deviation.
    worst_unbiasedness: tuple
    passed: bool

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "tol": self.tol,
            "max_orthonormality_deviation": self.max_orthonormality_deviation,
            "max_unbiasedness_deviation": self.max_unbiasedness_deviation,
            "worst_orthonormality": list(self.worst_orthonormality),
            "worst_unbiasedness": [list(self.worst_unbiasedness[0]), list(self.worst_unbiasedness[1])],
            "passed": self.passed,
        }


#: Bytes of bases in each block of ``verify_mub``; each product it forms, and
#: each deviation of one, covers at most one block.
_VERIFY_BLOCK_BYTES = 256 * 1024


def _last_worst(maxima: np.ndarray):
    """Flat index of the entry that a scan keeping each value >= the worst so
    far (from 0) ends on: the last entry equal to the largest value. NaN
    entries never win; None if every entry is NaN or negative."""
    top = np.fmax.reduce(maxima, axis=None, initial=0.0)
    hits = np.flatnonzero(maxima == top)
    return int(hits[-1]) if hits.size else None


def _check_tol(tol: float) -> None:
    """A verification tolerance is finite and non-negative (no family meets a negative one)."""
    if not np.isfinite(tol):
        raise ValueError(f"tolerance must be finite (got {tol})")
    if tol < 0:
        raise ValueError(f"tolerance must be non-negative (got {tol})")


@dataclass(frozen=True)
class _Scan:
    """The part of a verification that does not depend on ``tol``: each
    table's reported worst deviation with its place, in basis and row
    indices, and each table's maximum, NaN if any of its deviations is NaN,
    which is what ``tol`` is judged against."""

    orth: float
    orth_at: tuple  # (b, j, j')
    unb: float
    unb_at: tuple  # ((b1, j1), (b2, j2))
    orth_top: np.floating
    unb_top: np.floating


#: The scan of the package's own family of each d that a caller has verified,
#: filled from a trusted family after the scan has run once: at most one entry
#: per odd prime up to ``MAX_DIM``, 17 in all.
_VERIFIED: dict = {}


def _is_built(bases) -> bool:
    """Whether ``bases`` is the very array that ``mub_family`` returned, still
    alive, with it and its owner still read-only: then it holds the bits it
    was built with, which are finite and complex128."""
    return _BUILT.get(id(bases)) is bases and not (bases.flags.writeable or bases.base.flags.writeable)


def _scan(bases: np.ndarray, d: int) -> _Scan:
    """The exhaustive scan of ``verify_mub`` over a validated (d+1, d, d) array
    whose dtype is that of its products.

    The bases are taken in blocks of at most ``_VERIFY_BLOCK_BYTES``: one
    stacked product gives the Gram matrices of a block. Then each later
    basis b' meets all earlier bases at once: their rows, stacked as one
    tall (m d x d) matrix a block at a time, are multiplied by the adjoint of
    b' into one reused buffer, and the deviations are formed in place in
    another. Stacking rows leaves each entry's dot product as it is in a
    product of two bases alone, so every deviation has the bits of the
    pair-by-pair scan. Memory beyond the family stays O(block). The reported
    worst entry is the first largest one, in row-major order, of the last
    basis (or pair of bases, in (b, b') order) whose largest deviation ties
    the overall maximum; a NaN deviation is never it.
    """
    n_bases = d + 1
    work = bases.dtype
    block = min(n_bases, max(1, _VERIFY_BLOCK_BYTES // max(1, d * d * work.itemsize)))
    eye = np.eye(d)
    orth_max = np.empty(n_bases)  # gram - eye is promoted to the float64 eye
    orth_arg = np.empty(n_bases, dtype=np.intp)
    # entry (b1, b2) of each table is pair b1 < b2; the rest stay -1, which never wins
    unb_max = np.full((n_bases, n_bases), -1.0, dtype=np.finfo(work).dtype)
    unb_arg = np.zeros((n_bases, n_bases), dtype=np.intp)
    for start in range(0, n_bases, block):
        stop = min(start + block, n_bases)
        # a real block is its own conjugate, so numpy forms its Gram products as symmetric ones
        adjoint = bases[start:stop].conj().swapaxes(-1, -2)
        gram_dev = np.abs(np.matmul(bases[start:stop], adjoint) - eye).reshape(stop - start, d * d)
        orth_arg[start:stop] = gram_dev.argmax(axis=1)
        orth_max[start:stop] = gram_dev.max(axis=1)

    product = np.empty((block * d, d), dtype=work)
    pair_dev = np.empty((block * d, d), dtype=unb_max.dtype)
    firsts = np.arange(block) * (d * d)  # flat offset of each pair's deviations
    for b2 in range(1, n_bases):
        adjoint = bases[b2].conj().T
        for start in range(0, b2, block):
            stop = min(start + block, b2)
            rows = (stop - start) * d
            overlap, dev = product[:rows], pair_dev[:rows]
            np.matmul(bases[start:stop].reshape(rows, d), adjoint, out=overlap)
            np.abs(overlap, out=dev)
            np.square(dev, out=dev)
            np.subtract(dev, 1.0 / d, out=dev)
            np.abs(dev, out=dev)
            # argmax stops at a NaN, so the entry it picks is also the pair's max
            worst = dev.reshape(stop - start, d * d).argmax(axis=1)
            unb_arg[start:stop, b2] = worst
            worst += firsts[: stop - start]
            unb_max[start:stop, b2] = dev.reshape(-1)[worst]

    orth, orth_at = 0.0, (0, 0, 0)
    b = _last_worst(orth_max)
    if b is not None:
        orth, orth_at = float(orth_max[b]), (b, *divmod(int(orth_arg[b]), d))

    unb, unb_at = 0.0, ((0, 0), (1, 0))
    pair = _last_worst(unb_max)
    if pair is not None:
        b1, b2 = divmod(pair, n_bases)
        j1, j2 = divmod(int(unb_arg[b1, b2]), d)
        unb, unb_at = float(unb_max[b1, b2]), ((b1, j1), (b2, j2))

    # max propagates NaN; the -1 fill never exceeds a tolerance
    return _Scan(orth, orth_at, unb, unb_at, orth_max.max(), unb_max.max())


def verify_mub(family: MubFamily, tol: float = ROUNDOFF_TOL) -> MubVerification:
    """Check every within-basis Gram entry and every cross-basis overlap.

    Pass iff the largest |G - I| entry over all bases and the largest
    | |<u|v>|^2 - 1/d | over all cross-basis pairs are both <= tol and no
    deviation is NaN (finite entries whose products overflow). A family
    whose bases are not a (d+1, d, d) array of finite entries, or whose d is
    not an integer of at least 1, is rejected, and so is a negative
    tolerance, which no family could meet. The scan (``_scan``) is O(d^5)
    and works a block of bases at a time in O(block) memory.

    The package's own family is scanned once per process per d. A family
    that ``mub_family`` returned is trusted by identity: its ``bases`` is
    the very read-only view it recorded, still alive, and that view and its
    owner are still read-only, so it holds the bits it was built with. A
    caller who makes the owner writeable, writes through it and makes it
    read-only again is not detected; that takes a deliberate write through
    ``bases.base``. The deviations, worst places and maxima of the first
    scan of a trusted family are kept, and ``passed`` is decided again for
    each ``tol``. Every other array, a copy, a pickled or
    ``dataclasses.replace``d family with new bases or a view whose owner was
    made writeable, is checked for NaN and Inf and scanned in full, and
    gets the report that the trusted family gets. At d = 61 a scan takes
    about 100-150 ms; a later call on a trusted family takes about 5 us at
    any d, with no basis built and no product formed.
    Each CLI command is its own process, so ``finecert mub d --verify``
    always scans.
    """
    _check_tol(tol)
    d = check_index(family.d, "family dimension")
    if d < 1:
        raise ValueError(f"family dimension must be at least 1 (got {d})")
    shape = _shape(family.bases)
    if shape != (d + 1, d, d):
        raise ValueError(f"family bases have shape {shape}, expected {(d + 1, d, d)}")
    bases = np.asarray(family.bases)
    own = _is_built(bases)  # then finite and complex128
    if not own:  # read in the dtype of every product
        bases = _finite(bases, np.result_type(bases, 1.0), "family bases contain NaN or Inf entries")
    scan = _VERIFIED.get(d) if own else None
    if scan is None:
        scan = _scan(bases, d)
        if own:
            _VERIFIED[d] = scan
    labels = family.labels
    b, row, col = scan.orth_at
    (b1, j1), (b2, j2) = scan.unb_at
    return MubVerification(
        d=d,
        tol=float(tol),
        max_orthonormality_deviation=scan.orth,
        max_unbiasedness_deviation=scan.unb,
        worst_orthonormality=(labels[b], row, col),
        worst_unbiasedness=((labels[b1], j1), (labels[b2], j2)),
        # NaN <= tol is False, so a NaN deviation, which is never the worst, fails
        passed=bool(scan.orth_top <= tol and scan.unb_top <= tol),
    )


#: ``_build_tables(d)`` of every odd prime d up to ``MAX_DIM``, about 60 KB in
#: all, built at import in about 0.4 ms. Built lazily, each would be a small
#: long-lived allocation made among a caller's large short-lived ones (the
#: families), where it splits the space they free: a run of families of
#: rising d then needs about one family more of heap. Built last in the
#: module: built before ``_quadratic_rows``, the same tables shifted the heap
#: layout enough to cost ``scan-d31`` about 10 % of its throughput.
_TABLES = MappingProxyType({d: _build_tables(d) for d in range(3, MAX_DIM + 1, 2) if is_prime(d)})
