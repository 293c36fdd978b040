"""Bloch-sphere geometry of qubit spin measurements and their certainty bounds.

A pure qubit state is identified with the unit vector k for which it is the
+1 eigenstate of sigma.k. Spin-up probabilities, the two-direction certainty
bound 1 + cos(gamma/2), the semi-plane average certainty 1 + sin(alpha)/pi,
and the equal-weight three-Pauli bound 1/2 + 1/(2 sqrt 3) all reduce to this
geometry. The two- and three-direction bounds are one closed form: for +1
outcomes along directions with mean v, the average of the up-probabilities is
at most 1/2 + |v|/2 (``_spin_certainty``). ``pair_bound`` and
``pair_certainty`` report twice that, the sum of two probabilities, and
``triple_pauli_bound`` reports the average. Every function is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .numerics import (DEGENERACY_TOL, ROUNDOFF_TOL, _outer, _shape, check_index, check_state_vector,
                       fix_global_phase)

#: The Pauli axes, read-only: name -> (matrix, rows = its (+1, -1) eigenvectors, outcomes 0 and 1).
_S = 1.0 / np.sqrt(2.0)
_PAULI = MappingProxyType(dict(zip("xyz", np.array([
    [[[0.0, 1.0], [1.0, 0.0]], [[_S, _S], [_S, -_S]]],
    [[[0.0, -1.0j], [1.0j, 0.0]], [[_S, 1j * _S], [_S, -1j * _S]]],
    [[[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]]],
], dtype=complex))))
for _entry in _PAULI.values():
    _entry.setflags(write=False)


def check_unit_vector(k) -> np.ndarray:
    """``k`` as a 3-component direction of norm 1 within ``ROUNDOFF_TOL``."""
    if (size := math.prod(_shape(k))) != 3:  # before the float copy is made
        raise ValueError(f"expected a 3-component direction, got {size}")
    a = np.asarray(k, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(a))
    if not abs(norm - 1.0) <= ROUNDOFF_TOL:  # NaN-safe: a NaN entry gives a NaN norm
        raise ValueError(f"direction is not a unit vector: norm {norm:.12f}")
    return a


def bloch_to_state(k) -> np.ndarray:
    """The +1 eigenstate of sigma.k, phase-fixed."""
    k = check_unit_vector(k)
    theta = np.arctan2(np.hypot(k[0], k[1]), k[2])
    phi = np.arctan2(k[1], k[0])
    psi = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    return fix_global_phase(psi)


def state_to_bloch(psi) -> np.ndarray:
    """Pauli expectation values (<sx>, <sy>, <sz>) of a 2-dimensional state."""
    psi = check_state_vector(psi, dim=2)
    a, b = psi
    cross = a.conjugate() * b
    # each part doubled alone: 2.0 * cross would multiply by 2 + 0j and turn a -0.0 part into +0.0
    return np.array([2.0 * cross.real, 2.0 * cross.imag, float(abs(a) ** 2 - abs(b) ** 2)])


def spin_projector(k) -> np.ndarray:
    """Projector onto the +1 eigenstate of sigma.k: (I + sigma.k)/2."""
    k = check_unit_vector(k)
    sx, sy, sz = (_PAULI[axis][0] for axis in "xyz")
    return 0.5 * (np.eye(2, dtype=complex) + k[0] * sx + k[1] * sy + k[2] * sz)


def _check_axis(axis) -> str:
    """A Pauli axis name, x, y or z in either case, folded to lower case."""
    if not isinstance(axis, str) or (axis := axis.lower()) not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z (got {axis!r})")
    return axis


def pauli_eigenbasis(axis: str) -> np.ndarray:
    """Rows (outcome 0, outcome 1) = (+1, -1) eigenvectors of the Pauli on ``axis``, copied."""
    return _PAULI[_check_axis(axis)][1].copy()


def pauli_outcome_projector(axis: str, outcome: int) -> np.ndarray:
    """Projector of eigenvector ``outcome`` (0 -> +1, 1 -> -1) of a Pauli."""
    outcome = check_index(outcome, "outcome")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1 (got {outcome})")
    return _outer(_PAULI[_check_axis(axis)][1][outcome])


def spin_up_probability(m, k) -> float:
    """Probability (1 + m.k)/2 of the +1 outcome along m on the state with Bloch vector k."""
    m = check_unit_vector(m)
    k = check_unit_vector(k)
    return 0.5 * (1.0 + float(np.dot(m, k)))


def pair_bound(gamma: float) -> float:
    """Largest value of p(up along m) + p(up along n) over all states,
    for directions separated by angle gamma: 1 + cos(gamma/2).

    Defined continuously on [0, pi]; at gamma = pi the maximizer is
    non-unique (the top eigenvalue degenerates to 1 on a full circle). It is
    reported degenerate once |m + n| = 2 cos(gamma/2) falls below
    ``DEGENERACY_TOL``, i.e. for gamma within about 1e-9 of pi.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma <= np.pi:
        raise ValueError(f"gamma={gamma} outside [0, pi]")
    return 1.0 + float(np.cos(gamma / 2.0))


def _degenerate_pair(length: float) -> bool:
    """Whether directions m, n with |m + n| = ``length`` = 2 cos(gamma/2) have
    no unique maximizer: they are antipodal within ``DEGENERACY_TOL``."""
    return bool(length < DEGENERACY_TOL)


@dataclass(frozen=True)
class PairCertainty:
    """Certainty bound for a pair of spin directions with its maximizer."""

    zeta: float
    gamma: float
    #: Bloch vector of the maximizing state, None when degenerate.
    maximizer: np.ndarray | None
    degenerate: bool


def _spin_certainty(directions) -> tuple:
    """Closed form for an equal-weight ensemble of +1 outcomes along the rows
    of ``directions``, unit vectors already checked (a -1 outcome along n is
    the +1 outcome along -n).

    The projector sum over N rows is N I/2 + (N v).sigma/2 for v the mean of
    the rows, so the average of the N up-probabilities is at most
    zeta = 1/2 + |v|/2, attained along v. Returns (zeta, |v|, v/|v| or None,
    degenerate), degenerate when ``_degenerate_pair`` finds the gap N |v| of
    the projector sum below ``DEGENERACY_TOL``; for a pair that gap is |m + n|.
    """
    rows = np.asarray(directions, dtype=float)
    mean = rows.mean(axis=0)
    length = float(np.linalg.norm(mean))
    degenerate = _degenerate_pair(len(rows) * length)
    return 0.5 + 0.5 * length, length, None if degenerate else mean / length, degenerate


def pair_certainty(m, n) -> PairCertainty:
    """Bound and maximizing direction for spin measurements along m and n.

    The sum of the two up-probabilities is 1 + (m+n).k/2, so the maximum
    1 + |m+n|/2, twice the average ``_spin_certainty`` returns, is attained
    when k points along the bisector of m and n.
    """
    zeta, length, maximizer, degenerate = _spin_certainty((check_unit_vector(m), check_unit_vector(n)))
    # |m+n|/2 = cos(gamma/2); recover gamma stably from the half-angle.
    gamma = 2.0 * float(np.arccos(np.clip(length, 0.0, 1.0)))
    return PairCertainty(zeta=2.0 * zeta, gamma=gamma, maximizer=maximizer, degenerate=degenerate)


class AverageCertainty(NamedTuple):
    closed_form: float
    quadrature: float


#: Simpson panels of the semi-plane quadrature unless a caller passes another count.
_PANELS = 2048
#: Most panels a caller may ask for; at the cap one call peaks near 42 MB, and
#: its 24 MB grid is kept until a call at another panel count replaces it.
MAX_PANELS = 2**20


@functools.lru_cache(maxsize=1)
def _simpson_grid(panels: int) -> tuple:
    """Read-only theta grid of ``panels`` (even) Simpson panels on [0, pi],
    the fixed measurement's cos^2(theta/2) on it and the Simpson weights.
    One entry is kept: a call at another panel count replaces it, so the
    cache never holds more than one grid."""
    theta = np.linspace(0.0, np.pi, panels + 1)
    fixed = np.cos(theta / 2.0) ** 2
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    for array in (theta, fixed, weights):
        array.setflags(write=False)
    return theta, fixed, weights


def average_certainty(alpha: float, panels: int = _PANELS) -> AverageCertainty:
    """Average over the x-z semi-plane of the two-measurement certainty sum.

    One measurement is fixed along z, the other at angle alpha from it; the
    state angle theta sweeps [0, pi] with uniform weight (this deliberately is
    the planar average, not a spherical one). Returns the closed form
    1 + sin(alpha)/pi together with a composite-Simpson quadrature of the
    integrand; the two agree to well below 1e-8 for the default panel count.
    An odd panel count is rounded up to the next even one. The grid of the
    last panel count used is kept (``_simpson_grid``), so a sweep over
    angles builds it once.
    """
    panels = check_index(panels, "panels", 1024, MAX_PANELS)
    panels += panels % 2
    alpha = float(alpha)
    if not 0.0 <= alpha <= np.pi:
        raise ValueError(f"alpha={alpha} outside [0, pi]")
    theta, fixed, weights = _simpson_grid(panels)
    integrand = (fixed + np.cos((theta - alpha) / 2.0) ** 2) / np.pi
    quadrature = float(np.pi / panels / 3.0 * np.dot(weights, integrand))
    return AverageCertainty(closed_form=float(1.0 + np.sin(alpha) / np.pi), quadrature=quadrature)


@dataclass(frozen=True)
class TriplePauliBound:
    """Equal-weight certainty bound for the three Pauli measurements."""

    zeta: float
    theta: float
    phi: float
    maximizer_bloch: np.ndarray


def triple_pauli_bound() -> TriplePauliBound:
    """Bound 1/2 + 1/(2 sqrt 3) for averaging the three +1 Pauli outcomes.

    The maximizing state sits on the body diagonal (1,1,1)/sqrt(3), i.e.
    theta = arcsin(sqrt(2/3)), phi = pi/4. The weighted projector sum is
    I/2 + sigma.(1,1,1)/6, whose top eigenvalue is the returned bound.
    """
    zeta, _, maximizer, _ = _spin_certainty(np.eye(3))
    theta = float(np.arcsin(np.sqrt(2.0 / 3.0)))
    return TriplePauliBound(
        zeta=zeta,
        theta=theta,
        phi=float(np.pi / 4.0),
        maximizer_bloch=maximizer,
    )
