"""Dense Hermitian eigenproblems and entropy functions for small complex matrices.

Everything here is a pure function of its arguments; all entropies are in bits
(logarithms base 2). Matrices are plain ``numpy`` arrays; validation helpers
raise ``ValueError`` with the offending deviation so callers can report it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

#: The one dimension cap: of matrices, projectors, layouts and d (``mub._check_dim``).
MAX_DIM = 64

#: Most samples one scan draws (``cycle.scan_bases``): it bounds the result
#: arrays and keeps every substream's spawn key to one uint32 word.
MAX_SCAN_SAMPLES = 10**6

#: The one roundoff allowance for a caller's structured input. It governs six
#: checks: a Hermitian operator, a normalized state, an ensemble projector's
#: Hermiticity and idempotency (``bounds``), a unit direction (``qubit``), an
#: orthonormal membrane basis (``cycle``) and, by default, ``mub.verify_mub``.
ROUNDOFF_TOL = 1e-10

#: A density matrix's Hermiticity and unit-trace tolerance (``_density_spectrum``).
DENSITY_TOL = 1e-12

#: Spectrum values in [EIGENVALUE_FLOOR, 0) are treated as exact zeros when
#: taking logarithms; anything below the floor is a genuinely invalid state.
EIGENVALUE_FLOOR = -1e-10

#: Top-eigenvalue gap below which a maximizer is reported as non-unique.
DEGENERACY_TOL = 1e-9

#: The one sum-to-one tolerance: priors, ensemble and chamber weights, distributions.
PROBABILITY_SUM_TOL = 1e-9


def check_index(value, name: str, low: int | None = None, cap: int | None = None) -> int:
    """The package's one range rule for a count a caller sets: ``value`` as an
    int (an int or a numpy integer, never a float, which ``int()`` would
    truncate) in [``low``, ``cap``], either end optional. It does no other work,
    so callers run it before they allocate anything sized by the count. Anything
    else raises a ValueError naming it."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if low is not None and n < low:
        raise ValueError(f"{name} must be >= {low} (got {n})")
    if cap is not None and n > cap:
        raise ValueError(f"{name}={n} exceeds the supported maximum {cap}")
    return n


def _shape(m, levels: int = 64) -> tuple:
    """``np.shape(m)``, never converting a list or tuple: its entries are read one
    at a time at every level, and a Python number is ``()`` with no numpy call.
    Ragged input, or more than numpy's 64 (``levels``) dimensions, goes to
    ``np.shape`` of the whole for numpy's own error."""
    if isinstance(m, (int, float, complex)):
        return ()
    if not isinstance(m, (list, tuple)) or not levels:
        return np.shape(m)
    if set(map(type, m)) <= {int, float, complex}:  # a flat list, counted in C
        return (len(m),)
    try:
        inner = {_shape(entry, levels - 1) for entry in m}
    except ValueError:
        inner = ()
    if len(inner) == 1 and len(shape := (len(m), *inner.pop())) <= levels:
        return shape
    return np.shape(m)


def _finite(value, dtype, message: str) -> np.ndarray:
    """``value`` as an array of ``dtype``; a NaN or +-Inf entry raises ValueError(message)."""
    a = np.asarray(value, dtype=dtype)
    if not np.isfinite(a).all():
        raise ValueError(message)
    return a


def as_square_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a finite square complex matrix of dimension <= MAX_DIM;
    the shape is checked before the complex copy is made."""
    shape = _shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if shape[0] < 1 or shape[0] > MAX_DIM:
        raise ValueError(f"matrix dimension {shape[0]} outside [1, {MAX_DIM}]")
    return _finite(m, complex, "matrix contains NaN or Inf entries")


def hermiticity_deviation(m) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    a = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def check_hermitian(m) -> np.ndarray:
    """``m`` as a square complex matrix, Hermitian within ``ROUNDOFF_TOL``."""
    a = as_square_matrix(m)
    dev = hermiticity_deviation(a)
    if dev > ROUNDOFF_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e} > {ROUNDOFF_TOL:.1e}")
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvectors as columns.

    When eigenvalues are (nearly) degenerate the individual vectors inside the
    degenerate cluster are an arbitrary orthonormal choice; only the spanned
    subspace and the extremal eigenvalues are meaningful to consumers.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def largest(self) -> float:
        return float(self.values[-1])

    @property
    def largest_vector(self) -> np.ndarray:
        return self.vectors[:, -1]


def hermitian_eig(m) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix, deterministically for identical input.

    Parameters
    ----------
    m : array_like
        Square complex matrix, Hermitian to within ``ROUNDOFF_TOL``.

    Returns
    -------
    SpectralDecomposition
        Ascending real eigenvalues and orthonormal eigenvector columns.
    """
    a = check_hermitian(m)
    # Symmetrize so roundoff asymmetry below the tolerance cannot leak into
    # the solver; keeps output identical for inputs that compare equal.
    a = 0.5 * (a + a.conj().T)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        off = float(np.max(np.abs(a - np.diag(np.diag(a)))))
        raise ValueError(
            f"eigensolver failed to converge (off-diagonal residual {off:.3e}): {exc}"
        ) from exc
    return SpectralDecomposition(values=values, vectors=vectors)


def _check_orthonormal(basis: np.ndarray) -> np.ndarray:
    """The basis (rows), if max |B B^dag - I| <= ``ROUNDOFF_TOL``; NaN fails."""
    deviation = float(np.abs(basis @ basis.conj().T - np.eye(len(basis))).max())
    if not deviation <= ROUNDOFF_TOL:
        raise ValueError(f"membrane basis not orthonormal: deviation {deviation:.3e}")
    return basis


def fix_global_phase(psi: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first amplitude of modulus above 1e-12 is real >= 0."""
    for a in psi:
        if abs(a) > 1e-12:
            return psi * (a.conjugate() / abs(a))
    return psi


def check_state_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate a normalized complex state vector: | ||v|| - 1 | <= ``ROUNDOFF_TOL``."""
    if dim is not None and (size := math.prod(_shape(v))) != dim:
        raise ValueError(f"state has dimension {size}, expected {dim}")
    a = _finite(v, complex, "state contains NaN or Inf entries").reshape(-1)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > ROUNDOFF_TOL:
        raise ValueError(f"state is not normalized: ||v|| = {norm:.12f}")
    return a


def projector(v) -> np.ndarray:
    """Rank-1 projector |v><v| of a normalized state vector of at most ``MAX_DIM`` entries."""
    check_index(math.prod(_shape(v)), "state dimension", cap=MAX_DIM)
    return _outer(check_state_vector(v))


def _outer(a: np.ndarray) -> np.ndarray:
    """|a><a| of a 1-d complex row, unchecked: ``projector`` after its checks,
    and the package's own rows, which are finite and normalized as built."""
    return np.outer(a, a.conj())


def _density_spectrum(rho) -> tuple:
    """Validated density matrix and its ascending eigenvalues (one eigvalsh)."""
    a = as_square_matrix(rho)
    dev = hermiticity_deviation(a)
    if dev > DENSITY_TOL:
        raise ValueError(f"density matrix not Hermitian: deviation {dev:.3e}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValueError(f"density matrix trace {tr:.12f} != 1")
    lam = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    if float(lam.min()) < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {float(lam.min()):.3e}")
    return a, lam


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    return _density_spectrum(rho)[0]


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability distribution, with 0*log0 = 0."""
    a = np.asarray(p, dtype=float).reshape(-1)
    if a.size == 0:
        raise ValueError("empty probability list")
    if float(a.min()) < 0.0:
        raise ValueError(f"negative probability {float(a.min()):.3e}")
    total = float(a.sum())
    if not abs(total - 1.0) <= PROBABILITY_SUM_TOL:  # NaN-safe: a NaN entry gives a NaN sum
        raise ValueError(f"probabilities sum to {total:.12f}, not 1")
    positive = a[a > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def binary_entropy(p: float) -> float:
    """Entropy in bits of the two-outcome distribution (p, 1-p)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy argument {p} outside [0, 1]")
    return shannon_entropy(np.array([p, 1.0 - p]))


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density matrix's eigenvalue spectrum.

    Eigenvalues in [-1e-10, 0) are numerical noise around zero and are
    clamped before the logarithm.
    """
    lam = _density_spectrum(rho)[1]
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum()) if lam.size else 0.0
