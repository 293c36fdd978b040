"""Bloch-sphere geometry of qubit spin measurements and their certainty bounds.

A pure qubit state is identified with the unit vector k for which it is the
+1 eigenstate of sigma.k. Spin-up probabilities, the two-direction certainty
bound 1 + cos(gamma/2), the semi-plane average certainty 1 + sin(alpha)/pi,
and the equal-weight three-Pauli bound 1/2 + 1/(2 sqrt 3) all reduce to this
geometry. Every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import DEGENERACY_TOL, check_state_vector, fix_global_phase

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI_AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}

UNIT_TOL = 1e-10


def check_unit_vector(k) -> np.ndarray:
    a = np.asarray(k, dtype=float).reshape(-1)
    if a.shape[0] != 3:
        raise ValueError(f"expected a 3-component direction, got {a.shape[0]}")
    norm = float(np.linalg.norm(a))
    if not abs(norm - 1.0) <= UNIT_TOL:  # NaN-safe: a NaN entry gives a NaN norm
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
    return np.array(
        [
            2.0 * (a.conjugate() * b).real,
            2.0 * (a.conjugate() * b).imag,
            float(abs(a) ** 2 - abs(b) ** 2),
        ]
    )


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
    return 0.5 * (np.eye(2, dtype=complex) + k[0] * SIGMA_X + k[1] * SIGMA_Y + k[2] * SIGMA_Z)


def pauli_eigenbasis(axis: str) -> np.ndarray:
    """Rows (outcome 0, outcome 1) = (+1, -1) eigenvectors of the Pauli on ``axis``."""
    axis = axis.lower()
    if axis not in PAULI_AXES:
        raise ValueError(f"axis must be one of x, y, z (got {axis!r})")
    s = 1.0 / np.sqrt(2.0)
    if axis == "x":
        return np.array([[s, s], [s, -s]], dtype=complex)
    if axis == "y":
        return np.array([[s, 1j * s], [s, -1j * s]], dtype=complex)
    return np.eye(2, dtype=complex)


def pauli_outcome_projector(axis: str, outcome: int) -> np.ndarray:
    """Projector of eigenvector ``outcome`` (0 -> +1, 1 -> -1) of a Pauli."""
    outcome = int(outcome)
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1 (got {outcome})")
    v = pauli_eigenbasis(axis)[outcome]
    return np.outer(v, v.conj())


def spin_up_probability(m, k) -> float:
    """Probability (1 + m.k)/2 of the +1 outcome along m on the state with Bloch vector k."""
    m = check_unit_vector(m)
    k = check_unit_vector(k)
    return 0.5 * (1.0 + float(np.dot(m, k)))


def pair_bound(gamma: float) -> float:
    """Largest value of p(up along m) + p(up along n) over all states,
    for directions separated by angle gamma: 1 + cos(gamma/2).

    Defined continuously on [0, pi]; at gamma = pi the maximizer is
    non-unique (the top eigenvalue degenerates to 1 on a full circle).
    """
    gamma = float(gamma)
    if not 0.0 <= gamma <= np.pi:
        raise ValueError(f"gamma={gamma} outside [0, pi]")
    return 1.0 + float(np.cos(gamma / 2.0))


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
    degenerate = length < DEGENERACY_TOL
    return PairCertainty(
        zeta=1.0 + length / 2.0,
        gamma=gamma,
        maximizer=None if degenerate else bisector / length,
        degenerate=degenerate,
    )


class AverageCertainty(NamedTuple):
    closed_form: float
    quadrature: float


def average_certainty(alpha: float, panels: int = 2048) -> AverageCertainty:
    """Average over the x-z semi-plane of the two-measurement certainty sum.

    One measurement is fixed along z, the other at angle alpha from it; the
    state angle theta sweeps [0, pi] with uniform weight (this deliberately is
    the planar average, not a spherical one). Returns the closed form
    1 + sin(alpha)/pi together with a composite-Simpson quadrature of the
    integrand; the two agree to well below 1e-8 for the default panel count.
    """
    return next(_average_certainties([alpha], panels))


def _average_certainties(alphas, panels: int = 2048):
    """``average_certainty`` of each angle in turn, with the theta grid, the
    fixed measurement's cos^2(theta/2) and the Simpson weights built once."""
    panels = int(panels)
    if panels < 1024:
        raise ValueError(f"need at least 1024 panels (got {panels})")
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
        yield AverageCertainty(closed_form=1.0 + np.sin(alpha) / np.pi, quadrature=quadrature)


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
