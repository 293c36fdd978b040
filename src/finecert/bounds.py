"""Certainty bounds for weighted combinations of projective-measurement outcomes.

For an ensemble of measurements t chosen with probability p(t), each with one
selected outcome projector P_t, the largest achievable value of
sum_t p(t) <psi|P_t|psi> over all states is the top eigenvalue of the weighted
projector sum A = sum_t p(t) P_t, attained at its top eigenvector. That
spectral route is the primary path; an exhaustive hyperspherical grid search
over pure states is kept as an independent oracle for small dimensions.

For a pair of rank-1 outcomes drawn from two mutually unbiased bases with
equal weights, the bound has the closed form 1/2 + 1/(2 sqrt d): the top
eigenvalue of (|u><u| + |v><v|)/2 is (1 + |<u|v>|)/2 and cross-basis overlap
moduli are 1/sqrt(d). The spectral evaluation reproduces it for every
cross-basis outcome pair, which is what makes the closed form exact rather
than an estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import mub as _mub
from . import qubit as _qubit
from .numerics import (
    DEGENERACY_TOL,
    MAX_DIM,
    PROBABILITY_SUM_TOL,
    ROUNDOFF_TOL,
    _shape,
    check_index,
    check_state_vector,
    fix_global_phase,
    hermitian_eig,
    hermiticity_deviation,
    projector,
)

#: Hard cap on grid-search size, about a minute of vectorized evaluation.
MAX_GRID_POINTS = 500_000_000
MAX_GRID_DIM = 5


@dataclass(frozen=True)
class EnsembleTerm:
    label: str
    weight: float
    projector: np.ndarray


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Weighted selected-outcome projectors, one per measurement choice."""

    dim: int
    terms: tuple


def measurement_ensemble(terms) -> MeasurementEnsemble:
    """Validate and freeze (label, weight, projector) triples into an ensemble.

    Weights must be >= 0 and sum to 1 within ``PROBABILITY_SUM_TOL``; every
    projector must be at most ``MAX_DIM``-dimensional, checked before any
    copy or product, and Hermitian and idempotent within ``ROUNDOFF_TOL`` (rank
    above 1 is allowed, which coarse-grains several outcomes into one).
    """
    packed = []
    dim = None
    for label, weight, proj in terms:
        weight = float(weight)
        if not np.isfinite(weight):
            raise ValueError(f"non-finite weight {weight} for term {label!r}")
        if weight < 0.0:
            raise ValueError(f"negative weight {weight} for term {label!r}")
        shape = _shape(proj)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"projector for term {label!r} is not square: {shape}")
        if shape[0] == 0:
            raise ValueError(f"projector for term {label!r} is empty: {shape}")
        if shape[0] > MAX_DIM:
            raise ValueError(
                f"projector for term {label!r} has dimension {shape[0]},"
                f" which exceeds the supported maximum {MAX_DIM}"
            )
        p = np.asarray(proj, dtype=complex)
        if not np.all(np.isfinite(p)):
            raise ValueError(f"projector for term {label!r} contains NaN or Inf entries")
        if dim is None:
            dim = p.shape[0]
        elif p.shape[0] != dim:
            raise ValueError(
                f"dimension mismatch: term {label!r} is {p.shape[0]}-dimensional, expected {dim}"
            )
        dev = hermiticity_deviation(p)
        if dev > ROUNDOFF_TOL:
            raise ValueError(f"projector for term {label!r} not Hermitian: deviation {dev:.3e}")
        idem = float(np.max(np.abs(p @ p - p)))
        if idem > ROUNDOFF_TOL:
            raise ValueError(f"projector for term {label!r} not idempotent: deviation {idem:.3e}")
        packed.append(EnsembleTerm(label=str(label), weight=weight, projector=p))
    if not packed:
        raise ValueError("ensemble needs at least one term")
    total = sum(t.weight for t in packed)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise ValueError(f"weights sum to {total:.12f}, not 1")
    return MeasurementEnsemble(dim=int(dim), terms=tuple(packed))


def certainty_operator(ens: MeasurementEnsemble) -> np.ndarray:
    """Weighted projector sum; Hermitian, PSD, top eigenvalue <= 1.

    Accumulated in term order so that appending a zero-weight term leaves the
    result bitwise unchanged.
    """
    op = np.zeros((ens.dim, ens.dim), dtype=complex)
    for term in ens.terms:
        op += term.weight * term.projector
    return op


@dataclass(frozen=True)
class CertaintyBound:
    """Top eigenvalue of the certainty operator with its maximizing state."""

    zeta: float
    maximizer: np.ndarray
    #: Distance to the second eigenvalue (inf for dimension 1).
    gap: float
    #: True when the top eigenvalue is degenerate within 1e-9, in which case
    #: the maximizer is one arbitrary vector of the top eigenspace.
    degenerate: bool


def zeta_spectral(ens: MeasurementEnsemble) -> CertaintyBound:
    """Exact certainty bound via the top eigenpair of the weighted projector sum."""
    decomp = hermitian_eig(certainty_operator(ens))
    zeta = decomp.largest
    gap = float(decomp.values[-1] - decomp.values[-2]) if ens.dim > 1 else float("inf")
    return CertaintyBound(
        zeta=zeta,
        maximizer=fix_global_phase(decomp.largest_vector),
        gap=gap,
        degenerate=bool(gap < DEGENERACY_TOL),
    )


def lhs_value(ens: MeasurementEnsemble, psi) -> float:
    """Weighted outcome probability sum for one state, in [0, 1]."""
    psi = check_state_vector(psi, dim=ens.dim)
    op = certainty_operator(ens)
    return float(np.real(psi.conj() @ op @ psi))


@dataclass(frozen=True)
class HypersphericalAngles:
    """Pure-state angles: moduli from x_i in [0, pi/2], phases in [0, 2 pi)."""

    x: tuple
    phi: tuple


def hyperspherical_state(x, phi) -> np.ndarray:
    """Amplitudes (cos x0, e^{i phi_1} sin x0 cos x1, ..., e^{i phi_{d-1}} sin x0..sin x_{d-2})."""
    # the counts come before the float copies are made
    if (nx := math.prod(_shape(x))) != (nphi := math.prod(_shape(phi))) or nx < 1:
        raise ValueError(f"need d-1 moduli angles and d-1 phases, got {nx} and {nphi}")
    x = np.asarray(x, dtype=float).reshape(-1)
    phi = np.asarray(phi, dtype=float).reshape(-1)
    # written as "not inside" so that NaN angles are rejected too
    if not (np.all(x >= 0.0) and np.all(x <= np.pi / 2.0 + 1e-12)):
        raise ValueError("moduli angles must lie in [0, pi/2]")
    if not (np.all(phi >= 0.0) and np.all(phi < 2.0 * np.pi)):
        raise ValueError("phases must lie in [0, 2 pi)")
    return np.array(_grid_amplitudes(list(zip(np.cos(x), np.sin(x))), np.exp(1j * phi)))


@dataclass(frozen=True)
class GridSearchResult:
    """Best weighted probability sum found by an exhaustive angle scan.

    The value is a true state evaluation, hence never above the exact bound.
    For dimension 2 the scan error is quadratic in the step around the
    maximum; higher dimensions report the steps without a sharp error claim.
    """

    zeta: float
    angles: HypersphericalAngles
    state: np.ndarray
    steps_per_angle: int
    x_step: float
    phi_step: float


#: Amplitude bytes of one grid-search block, and of the amplitude tables
#: together. A grid that fits is one block; a larger one loops over its
#: leading angles, so memory stays bounded whatever the grid size. The cap
#: keeps a block's arrays in cache: at 4 MiB the d = 3, 16-step grid is one
#: block of 65,536 rows (3.1 MB of amplitudes) and ran about 2x slower
#: (16.5 vs 8.4 ms) than at 2 MiB, where it takes 16 blocks of 4,096 rows.
GRID_CHUNK_BYTES = 1 << 21


def _grid_trailing_axes(d: int, steps: int) -> int:
    """Number t of trailing grid axes meshed into one block of steps**t rows.

    The largest t, up to all 2d-2 axes (the whole grid as one block), whose
    (rows, d) complex amplitudes fit GRID_CHUNK_BYTES, and at least 1. A block
    therefore never has a single row: a one-row product takes BLAS's
    matrix-vector path, whose roundoff differs from the matrix product's, and
    the tie-break would then depend on the block size.
    """
    t = 1
    while t < 2 * d - 2 and 16 * d * steps ** (t + 1) <= GRID_CHUNK_BYTES:
        t += 1
    return t


def _grid_table_axes(d: int, steps: int, t: int) -> int:
    """Number s >= t of trailing grid axes the amplitude tables span.

    The grid axes are x_0..x_{d-2}, then phi_1..phi_{d-1}. Column 0 depends
    on x_0, column m on x_0..x_m (x_0..x_{d-2} for the last one) and phi_m;
    a table spans the axes it depends on among the last s. The largest s,
    up to all 2d-2 axes, whose d complex tables together fit
    GRID_CHUNK_BYTES, and at least t, where each table is at most a block's
    column.
    """
    depends = [(0,)] + [tuple(range(min(m, d - 2) + 1)) + (d - 2 + m,) for m in range(1, d)]

    def table_bytes(s):
        first = 2 * d - 2 - s
        return sum(16 * steps ** sum(a >= first for a in axes) for axes in depends)

    s = t
    while s < 2 * d - 2 and table_bytes(s + 1) <= GRID_CHUNK_BYTES:
        s += 1
    return s


def _grid_amplitudes(x_trig, phases) -> list:
    """The d hyperspherical amplitude columns, each on the axes it depends on.

    ``x_trig[m]`` is (cos x_m, sin x_m) and ``phases[m - 1]`` is e^{i phi_m}:
    scalars for one state, or arrays that broadcast against each other, one
    grid axis each. Column 0 is cos x_0 and column m is e^{i phi_m} sin x_0
    ... sin x_{m-1} cos x_m (the last one without a cosine). Each entry takes
    the same operations in the same order whatever the shapes, so a table
    entry has the bits of a one-state evaluation.
    """
    d = len(phases) + 1
    cols = [np.asarray(x_trig[0][0], dtype=complex)]
    running = 1.0
    for m in range(1, d):
        running = running * x_trig[m - 1][1]
        r = running * x_trig[m][0] if m < d - 1 else running
        phase = phases[m - 1]
        col = np.empty(np.broadcast_shapes(np.shape(r), np.shape(phase)), dtype=complex)
        # r e^{i phi} term by term, as the scalar product with r + 0i rounds it: numpy's
        # array product may fuse r sin(phi) + 0 cos(phi) and keep an underflowed -0.0
        np.subtract(np.multiply(r, phase.real, out=col.real), 0.0 * phase.imag, out=col.real)
        np.add(np.multiply(r, phase.imag, out=col.imag), 0.0 * phase.real, out=col.imag)
        cols.append(col)
    return cols


def _row_sums(prod: np.ndarray) -> np.ndarray:
    """``np.sum(prod, axis=1).real`` of an (n, d) complex block, d <= MAX_GRID_DIM,
    bit for bit, added a column at a time.

    Complex addition works part by part, so adding the real parts in numpy's
    order gives numpy's real part. numpy 2.4 adds a row left to right for
    d <= 3, as (p0 + p1) + (p2 + p3) at d = 4, and as that plus p4 at d = 5;
    a row of -0.0 sums to +0.0. A test pins this order against ``np.sum``.
    """
    p = prod.real
    d = p.shape[1]
    values = p[:, 0] + p[:, 1]
    if d >= 4:
        values += p[:, 2] + p[:, 3]
    for m in range(4 if d >= 4 else 2, d):
        values += p[:, m]
    values += 0.0  # turns only -0.0 into +0.0
    return values


def zeta_gridsearch(ens: MeasurementEnsemble, steps_per_angle: int) -> GridSearchResult:
    """Exhaustive scan over the hyperspherical angle grid (independent oracle).

    Scans all combinations of d-1 moduli angles over [0, pi/2] (endpoints
    included) and d-1 phases over [0, 2 pi) with ``steps_per_angle`` values
    each. Deterministic: on ties the lexicographically smallest angle tuple
    wins. Intended for cross-checking the spectral path in dimension <= 5.

    Each amplitude column is tabulated on the grid axes it depends on
    (``_grid_amplitudes``), with the bits of a row-by-row evaluation. Rows
    are evaluated in blocks of at most ``GRID_CHUNK_BYTES`` of amplitudes
    (one innermost-axis line at the least, the whole grid when it fits), and
    a block copies its columns out of the tables at its leading indices. The
    tables together also fit ``GRID_CHUNK_BYTES``: where the full span would
    not, they span the trailing axes and as many leading ones as fit
    (``_grid_table_axes``) and are rebuilt when an outer leading index
    moves, so memory stays O(block) whatever the grid. A block's values, the
    real parts of its rows' sums of conj(psi) * (A psi), are added a column
    at a time in numpy's own order (``_row_sums``): the real part of a
    complex sum depends on the real parts alone, so this has the bits of
    ``np.sum(prod, axis=1).real`` without numpy's reduction loop per row.
    """
    d = ens.dim
    if d > MAX_GRID_DIM:
        raise ValueError(
            f"grid search supports dimension <= {MAX_GRID_DIM} (got {d}); use zeta_spectral"
        )
    if d < 2:
        raise ValueError("grid search needs dimension >= 2")
    steps = check_index(steps_per_angle, "steps_per_angle", low=8)
    total = steps ** (2 * (d - 1))
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid of {total} points is too large; reduce steps_per_angle")

    op_t = certainty_operator(ens).T
    x_grid = np.linspace(0.0, np.pi / 2.0, steps)
    phi_grid = 2.0 * np.pi * np.arange(steps) / steps
    cos_x, sin_x, phase = np.cos(x_grid), np.sin(x_grid), np.exp(1j * phi_grid)
    axes = 2 * d - 2
    t = _grid_trailing_axes(d, steps)
    outer = axes - _grid_table_axes(d, steps, t)  # leading axes fixed in the tables
    block = (steps,) * t
    # The amplitudes are stored a column at a time, so that a column is one
    # contiguous copy out of its table. The GEMM reads that layout with the
    # bits of a row-major copy (a test compares every row's value against
    # the row-major evaluation) and writes its product in C order.
    columns = np.empty((d,) + block, dtype=complex)
    amps = columns.reshape(d, -1).T
    prod = np.empty(amps.shape, dtype=complex)

    def on_axis(values, a, fixed):
        """``values`` along grid axis a; a fixed axis keeps its one value."""
        if a < outer:
            values = values[fixed[a] : fixed[a] + 1]
        return values.reshape((1,) * a + (-1,) + (1,) * (axes - 1 - a))

    best_value = -np.inf
    best_index = None
    # The loops run over the leading angles (x0 first) in lexicographic
    # order; the C-order rows preserve it over the trailing axes, and only a
    # strictly larger value replaces the best, so argmax picks the
    # lexicographically smallest angle tuple on exact ties.
    for fixed in itertools.product(range(steps), repeat=outer):
        tables = _grid_amplitudes(
            [(on_axis(cos_x, a, fixed), on_axis(sin_x, a, fixed)) for a in range(d - 1)],
            [on_axis(phase, d - 1 + a, fixed) for a in range(d - 1)],
        )
        for inner in itertools.product(range(steps), repeat=axes - t - outer):
            leading = fixed + inner
            for m, table in enumerate(tables):  # an axis of length 1 is fixed or unused
                columns[m] = table[tuple(i if n > 1 else 0 for i, n in zip(leading, table.shape))]
            np.matmul(amps, op_t, out=prod)
            # conjugated in place: the next block rewrites every entry
            np.multiply(np.conjugate(amps, out=amps), prod, out=prod)
            values = _row_sums(prod)
            pos = int(np.argmax(values))
            if float(values[pos]) > best_value:
                best_value = float(values[pos])
                best_index = leading + tuple(int(i) for i in np.unravel_index(pos, block))

    angles = HypersphericalAngles(
        x=tuple(float(x_grid[i]) for i in best_index[: d - 1]),
        phi=tuple(float(phi_grid[i]) for i in best_index[d - 1 :]),
    )
    return GridSearchResult(
        zeta=best_value,
        angles=angles,
        state=hyperspherical_state(angles.x, angles.phi),
        steps_per_angle=steps,
        x_step=float(x_grid[1] - x_grid[0]),
        phi_step=float(phi_grid[1] - phi_grid[0]),
    )


def pauli_pair_ensemble(axis1: str = "x", axis2: str = "z", outcomes=(0, 0)) -> MeasurementEnsemble:
    """Equal-weight qubit ensemble of one outcome from each of two Pauli bases."""
    if _qubit._check_axis(axis1) == _qubit._check_axis(axis2):  # compared case-folded
        raise ValueError("the two Pauli measurements must differ")
    return _pauli_ensemble((axis1, axis2), outcomes)


def pauli_triple_ensemble(outcomes=(0, 0, 0)) -> MeasurementEnsemble:
    """Equal-weight qubit ensemble of one outcome from each Pauli basis."""
    return _pauli_ensemble("xyz", outcomes)


def _pauli_ensemble(axes, outcomes) -> MeasurementEnsemble:
    """Equal-weight ensemble of outcome o of each Pauli axis, labelled "axis:o" as given."""
    outcomes = [check_index(o, "outcome") for o in outcomes]
    if len(outcomes) != len(axes):
        raise ValueError(f"need one outcome for each of the axes {', '.join(axes)}")
    terms = [(f"{a}:{o}", _qubit.pauli_outcome_projector(a, o)) for a, o in zip(axes, outcomes)]
    return _equal_ensemble(2, terms)


def mub_pair_ensemble(d: int, k1="z", k2=0, j1: int = 0, j2: int = 0) -> MeasurementEnsemble:
    """Equal-weight ensemble of outcome j1 of basis k1 and outcome j2 of basis k2.

    Labels: "z" for the computational basis, 0..d-1 for the quadratic-phase
    bases; :mod:`finecert.mub` owns their meaning, d = 2 included (where the
    pair is sigma_z with sigma_x). Only the two requested vectors are built.
    """
    d = _mub._check_dim(d, qubit=True)
    i1, i2 = _mub.basis_index(d, k1), _mub.basis_index(d, k2)
    if i1 == i2:
        raise ValueError("the two bases must differ; same-basis outcomes are "
                         "either identical or orthogonal and carry no pair bound")
    p1 = projector(_mub._member_rows(d, i1, _mub.outcome_index(d, j1)))
    p2 = projector(_mub._member_rows(d, i2, _mub.outcome_index(d, j2)))
    return _equal_ensemble(d, [(f"{k1}:{int(j1)}", p1), (f"{k2}:{int(j2)}", p2)])


def _equal_ensemble(d: int, terms) -> MeasurementEnsemble:
    """The equal-weight ensemble of (label, projector) terms, each the ``projector``
    of a row that :mod:`finecert.mub` or :mod:`finecert.qubit` built.
    ``measurement_ensemble`` would accept it as it stands, so its O(d^3)
    Hermiticity and idempotency checks are skipped."""
    weight = 1.0 / len(terms)
    return MeasurementEnsemble(d, tuple(EnsembleTerm(label, weight, p) for label, p in terms))


def mub_pair_bound(d: int) -> float:
    """Closed-form equal-weight pair bound 1/2 + 1/(2 sqrt d) for prime d (up to 64)."""
    d = _mub._check_dim(d, qubit=True)
    return float(0.5 + 0.5 / np.sqrt(d))


def all_outcome_pairs_bound(d: int, k1, k2, j1: int, j2: int) -> float:
    """Spectral pair bound for any cross-basis outcome pair; equals
    1/2 + 1/(2 sqrt d) for every choice of distinct bases and outcomes."""
    return zeta_spectral(mub_pair_ensemble(d, k1, k2, j1, j2)).zeta
