"""Bloch-sphere geometry of qubit spin measurements and their certainty bounds.

A pure qubit state is identified with the unit vector k for which it is the
+1 eigenstate of sigma.k. Spin-up probabilities, the two-direction certainty
bound 1 + cos(gamma/2), the semi-plane average certainty 1 + sin(alpha)/pi,
and the equal-weight three-Pauli bound 1/2 + 1/(2 sqrt 3) all reduce to this
geometry. Every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .numerics import (DEGENERACY_TOL, ROUNDOFF_TOL, _shape, check_index, check_state_vector,
                       fix_global_phase, projector)

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
    cross = 2.0 * (a.conjugate() * b)
    return np.array([cross.real, cross.imag, float(abs(a) ** 2 - abs(b) ** 2)])


def angles_to_state(theta: float, phi: float) -> np.ndarray:
    """State cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    theta = float(theta)
    phi = float(phi)
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta={theta} outside [0, pi]")
    if not 0.0 <= phi < 2.0 * np.pi:
        raise ValueError(f"phi={phi} outside [0, 2 pi)")
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


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
    return projector(pauli_eigenbasis(axis)[outcome])


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


def pair_certainty(m, n) -> PairCertainty:
    """Bound and maximizing direction for spin measurements along m and n.

    The sum of the two up-probabilities is 1 + (m+n).k/2, so the maximum
    1 + |m+n|/2 is attained when k points along the bisector of m and n.
    """
    m = check_unit_vector(m)
    n = check_unit_vector(n)
    bisector = m + n
    length = float(np.linalg.norm(bisector))
    # |m+n| = 2 cos(gamma/2); recover gamma stably from the half-angle.
    gamma = 2.0 * float(np.arccos(np.clip(length / 2.0, 0.0, 1.0)))
    degenerate = _degenerate_pair(length)
    return PairCertainty(
        zeta=1.0 + length / 2.0,
        gamma=gamma,
        maximizer=None if degenerate else bisector / length,
        degenerate=degenerate,
    )


class AverageCertainty(NamedTuple):
    closed_form: float
    quadrature: float


#: Simpson panels of the semi-plane quadrature unless a caller passes another count.
_PANELS = 2048
#: Most panels a caller may ask for; at the cap one call peaks near 42 MB.
MAX_PANELS = 2**20


def average_certainty(alpha: float, panels: int = _PANELS) -> AverageCertainty:
    """Average over the x-z semi-plane of the two-measurement certainty sum.

    One measurement is fixed along z, the other at angle alpha from it; the
    state angle theta sweeps [0, pi] with uniform weight (this deliberately is
    the planar average, not a spherical one). Returns the closed form
    1 + sin(alpha)/pi together with a composite-Simpson quadrature of the
    integrand; the two agree to well below 1e-8 for the default panel count.
    """
    return next(_average_certainties([alpha], panels))


def _average_certainties(alphas, panels: int = _PANELS):
    """``average_certainty`` of each angle in turn, with the theta grid, the
    fixed measurement's cos^2(theta/2) and the Simpson weights built once."""
    panels = check_index(panels, "panels", 1024, MAX_PANELS)
    if panels % 2:
        panels += 1
    theta = np.linspace(0.0, np.pi, panels + 1)
    fixed = np.cos(theta / 2.0) ** 2
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = np.pi / panels
    for alpha in alphas:
        alpha = float(alpha)
        if not 0.0 <= alpha <= np.pi:
            raise ValueError(f"alpha={alpha} outside [0, pi]")
        integrand = (fixed + np.cos((theta - alpha) / 2.0) ** 2) / np.pi
        quadrature = float(h / 3.0 * np.dot(weights, integrand))
        closed_form = float(1.0 + np.sin(alpha) / np.pi)
        yield AverageCertainty(closed_form=closed_form, quadrature=quadrature)


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
    zeta = 0.5 + 0.5 / np.sqrt(3.0)
    theta = float(np.arcsin(np.sqrt(2.0 / 3.0)))
    return TriplePauliBound(
        zeta=float(zeta),
        theta=theta,
        phi=float(np.pi / 4.0),
        maximizer_bloch=np.full(3, 1.0 / np.sqrt(3.0)),
    )
