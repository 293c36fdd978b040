"""Complete sets of mutually unbiased bases in odd prime dimension.

The construction builds, on top of the computational basis (the eigenbasis of
the generalized Pauli shift-phase operator Z with Z|j> = w^j|j>, w = e^{2pi i/d}),
a family of d quadratic-phase bases

    |j, k> = d^{-1/2} * sum_l w^{k l^2 - 2 j l} |l>,   k = 0..d-1,

whose cross-basis squared overlaps all equal 1/d (the quadratic-phase case of
Wootters & Fields, Ann. Phys. 191, 363, 1989). Every amplitude is one entry of
a single table of the d roots w^e / sqrt(d), looked up at the phase exponent
reduced modulo d, so large indices never accumulate angle error and a vector
has the same bytes whichever function builds it.

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

from dataclasses import dataclass

import numpy as np

from . import qubit as _qubit
from .numerics import MAX_DIM, ROUNDOFF_TOL, check_index

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


def computational_basis(d: int) -> np.ndarray:
    """Standard basis of dimension d as rows of the identity, complex dtype."""
    d = _check_dim(d)
    return np.eye(d, dtype=complex)


def _roots(d: int) -> np.ndarray:
    """Entry e is the amplitude w^e / sqrt(d) for a reduced exponent e."""
    return np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)


def _check_basis_index(d: int, k) -> int:
    k = check_index(k, "basis index")
    if not 0 <= k < d:
        raise ValueError(f"basis index k={k} outside 0..{d - 1}")
    return k


def _phase_terms(d: int, j):
    """The two reduced terms of the exponent k*l^2 - 2*j*l of vector j (an int,
    or a 1-d array of ints for several rows): l^2 mod d and 2*j*l mod d. Neither
    depends on the basis k, so a family takes them once."""
    l = np.arange(d)
    return l * l % d, 2 * np.multiply.outer(j, l) % d


def _quadratic_rows(roots: np.ndarray, k: int, terms, out=None) -> np.ndarray:
    """The rows of basis k whose ``_phase_terms`` are ``terms``, written to
    ``out`` if given; the exponent is reduced mod d before the lookup."""
    square, linear = terms
    # the indices are reduced already; "wrap" lets take write to out unbuffered
    return np.take(roots, (k * square - linear) % roots.size, out=out, mode="wrap")


def _member_rows(d: int, i: int, j) -> np.ndarray:
    """Vector j (an int or a 1-d int array) of family member i: 0 for "z", 1 + k
    for quadratic basis k, the Pauli z and x eigenbases at d = 2; the caller checks d, i, j."""
    if d == 2:
        return _qubit.pauli_eigenbasis("z" if i == 0 else "x")[j]
    if i == 0:
        return np.eye(d, dtype=complex)[j]
    return _quadratic_rows(_roots(d), i - 1, _phase_terms(d, j))


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

    Every amplitude has modulus 1/sqrt(d); the exponent k*l^2 - 2*j*l is
    reduced mod d before the d-th root of unity is looked up.
    """
    d = _check_dim(d)
    k = _check_basis_index(d, k)
    j = outcome_index(d, j)
    return _quadratic_rows(_roots(d), k, _phase_terms(d, j))


def quadratic_basis(d: int, k: int) -> np.ndarray:
    """All d vectors of quadratic-phase basis k, stacked as rows."""
    d = _check_dim(d)
    k = _check_basis_index(d, k)
    return _quadratic_rows(_roots(d), k, _phase_terms(d, np.arange(d)))


@dataclass(frozen=True)
class MubFamily:
    """d+1 orthonormal bases of dimension d with pairwise squared overlap 1/d.

    ``bases[0]`` is the computational basis; ``bases[1 + k]`` is quadratic
    basis ``k``. ``bases[b][j]`` is the j-th vector (a row).
    """

    d: int
    bases: np.ndarray  # shape (d+1, d, d)

    @property
    def labels(self) -> tuple:
        return (Z_LABEL,) + tuple(range(self.d))

    def basis_index(self, label) -> int:
        return basis_index(self.d, label)

    def vector(self, label, j: int) -> np.ndarray:
        j = outcome_index(self.d, j)
        return self.bases[self.basis_index(label), j]


def mub_family(d: int) -> MubFamily:
    """Computational basis plus the d quadratic-phase bases.

    Filled one basis at a time, in place, from one roots table and one pair
    of phase terms, so temporaries stay O(d^2).
    """
    d = _check_dim(d)
    roots = _roots(d)
    terms = _phase_terms(d, np.arange(d))
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d, dtype=complex)
    for k in range(d):
        _quadratic_rows(roots, k, terms, out=bases[1 + k])
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


def verify_mub(family: MubFamily, tol: float = ROUNDOFF_TOL) -> MubVerification:
    """Check every within-basis Gram entry and every cross-basis overlap.

    Pass iff the largest |G - I| entry over all bases and the largest
    | |<u|v>|^2 - 1/d | over all cross-basis pairs are both <= tol and no
    deviation is NaN (finite entries whose products overflow). A family
    whose bases are not a (d+1, d, d) array of finite entries, or whose d is
    not an integer of at least 1, is rejected, and so is a negative
    tolerance, which no family could meet.

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
    _check_tol(tol)
    d = check_index(family.d, "family dimension")
    if d < 1:
        raise ValueError(f"family dimension must be at least 1 (got {d})")
    shape = np.shape(family.bases)
    if shape != (d + 1, d, d):
        raise ValueError(f"family bases have shape {shape}, expected {(d + 1, d, d)}")
    if not np.all(np.isfinite(family.bases)):
        raise ValueError("family bases contain NaN or Inf entries")
    labels = family.labels
    n_bases = d + 1
    bases = np.asarray(family.bases)
    work = np.result_type(bases, 1.0)  # the dtype of every product
    bases = bases.astype(work, copy=False)
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

    worst_orth = 0.0
    worst_orth_at = (labels[0], 0, 0)
    b = _last_worst(orth_max)
    if b is not None:
        worst_orth = float(orth_max[b])
        worst_orth_at = (labels[b], *divmod(int(orth_arg[b]), d))

    worst_unb = 0.0
    worst_unb_at = ((labels[0], 0), (labels[1], 0))
    pair = _last_worst(unb_max)
    if pair is not None:
        b1, b2 = divmod(pair, n_bases)
        j1, j2 = divmod(int(unb_arg[b1, b2]), d)
        worst_unb = float(unb_max[b1, b2])
        worst_unb_at = ((labels[b1], j1), (labels[b2], j2))

    return MubVerification(
        d=d,
        tol=float(tol),
        max_orthonormality_deviation=worst_orth,
        max_unbiasedness_deviation=worst_unb,
        worst_orthonormality=worst_orth_at,
        worst_unbiasedness=worst_unb_at,
        # every maximum <= tol, so a NaN deviation, which is never the worst, fails
        passed=bool((orth_max <= tol).all() and (unb_max <= tol).all()),
    )
