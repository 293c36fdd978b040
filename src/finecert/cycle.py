"""Membrane work-extraction cycle tying the pair certainty bound to entropy accounting.

The cycle mixes d component states rho_i = (|i><i| + |i,0><i,0|)/2, one per
outcome i: the certainty operator (:mod:`finecert.bounds`) of the equal-weight
pair of outcome i of the computational basis and of quadratic-phase basis 0
(the sigma_x eigenbasis for d=2). :mod:`finecert.mub` owns that pairing and
the dimension check; this module asks it for the paired rows. Mixing through
semi-transparent membranes, one per vector of an orthonormal membrane basis
{e_j}, extracts

    W1 = H(priors) + H(outcome distribution) - H(chamber distribution),

while the reversible return path costs W2 = S(rho_avg) - sum_i p_i S(rho_i)
(all entropies in bits). A membrane layout assigns, per outcome j, a partition
of the component indices into chamber groups; the bookkeeping above reproduces
the per-chamber q log q terms for any layout.

Each chamber C belongs to one outcome J, so H(C) = H(J) + H(C|J) and, with
p the priors, W1 = H(p) - H(C|J). The finest layout gives W1 = I(i; J) for
component i, which the Holevo bound caps by chi = W2, so delta_w <= 0; the
merged layout gives W1 = H(p), so delta_w = H(p) - chi >= 0.

For the standard components, uniform priors and a singleton-style layout (one
designated component per outcome, the rest merged), W1 - W2 collapses to

    delta_w = H_b(zeta) - (1/d) sum_j H_b(s_j),    zeta = 1/2 + 1/(2 sqrt d),

where s_j is the singleton component's expectation at membrane j, the
equal-weight two-basis combination that zeta, the standard components' bound,
caps. When every s_j lies in the window [1 - zeta, zeta], H_b(s_j) >=
H_b(zeta) and so delta_w <= 0; samples outside it are reported, not asserted.
That implication holds only where zeta is the components' own bound, so other
components get no zeta, window, binary-entropy form or counterfactual. An
explicitly labeled counterfactual mode substitutes a hypothetical bound for
every s_j to show that a higher achievable bound would make delta_w positive.

A single cycle and a scan over random membrane bases run through the same
batched kernel; a scan streams its samples through it in fixed-size chunks
and reduces their per-sample results once. The standard cycle of each d
(uniform priors, the standard component stack, W2, zeta, the paper layout and
its plan) is one read-only record, built once; a layout, basis or component
states of the caller's own are checked once, where they enter.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import mub as _mub
from .bounds import _equal_ensemble, certainty_operator, mub_pair_bound
from .numerics import (
    MAX_DIM,
    MAX_SCAN_SAMPLES,
    PROBABILITY_SUM_TOL,
    ROUNDOFF_TOL,
    _shape,
    binary_entropy,
    check_index,
    projector,
    shannon_entropy,
    von_neumann_entropy,
)

UNIFORM_TOL = 1e-12
#: Slack used when classifying singleton arguments against the bound.
WINDOW_SLACK = 1e-10
#: Bins of a scan's net-work histogram.
_HISTOGRAM_BINS = 20


def component_state(d: int, i: int) -> np.ndarray:
    """Component i alone: the certainty operator of the equal-weight pair
    (z:i, 0:i), the bytes of ``component_states(d)[i]``.

    Eigenvalues are ((1 +- 1/sqrt d)/2, 0, ..., 0), so every component has
    entropy H_b(1/2 + 1/(2 sqrt d)).
    """
    d = _mub._check_dim(d, qubit=True)
    i = check_index(i, "component index")
    if not 0 <= i < d:
        raise ValueError(f"component index {i} outside 0..{d - 1}")
    return _pair_operators(d, [i])[0]


def component_states(d: int) -> list:
    """All d component states: state i is the certainty operator of the
    equal-weight pair (z:i, 0:i), (|i><i| + |v_i><v_i|)/2."""
    return _pair_operators(_mub._check_dim(d, qubit=True), np.arange(d))


def _pair_operators(d: int, outcomes) -> list:
    """``certainty_operator`` of the pair (z:i, 0:i) for each outcome i, from the
    ``projector`` of each row; the rows, taken once, are ``mub``'s own and so
    skip the ensemble check."""
    rows = zip(outcomes, _mub._member_rows(d, 0, outcomes), _mub._member_rows(d, 1, outcomes))
    return [
        certainty_operator(_equal_ensemble(d, [(f"z:{i}", projector(u)), (f"0:{i}", projector(v))]))
        for i, u, v in rows
    ]


@dataclass(frozen=True)
class MembraneLayout:
    """Per-outcome partition of component indices into chamber groups.

    ``groups[j]`` lists the chamber groups formed behind membrane j;
    ``singletons[j]``, when set, designates the component whose expectation
    enters the binary-entropy form of the work difference.
    """

    name: str
    groups: tuple
    singletons: tuple | None = None

    @classmethod
    def paper_preset(cls, d: int) -> "MembraneLayout":
        """One singleton per outcome: component 0 for all but the last
        membrane, component d-1 for the last; remaining components merged."""
        d = check_index(d, "d", 1, MAX_DIM)
        singles = tuple([0] * (d - 1) + [d - 1])
        return cls._from_singletons("paper", d, singles)

    @classmethod
    def symmetric_preset(cls, d: int) -> "MembraneLayout":
        """Singleton component j at membrane j, remaining components merged."""
        d = check_index(d, "d", 1, MAX_DIM)
        return cls._from_singletons("symmetric", d, tuple(range(d)))

    @classmethod
    def finest(cls, d: int) -> "MembraneLayout":
        d = check_index(d, "d", 1, MAX_DIM)
        per_outcome = tuple((i,) for i in range(d))
        return cls(name="finest", groups=tuple(per_outcome for _ in range(d)), singletons=None)

    @classmethod
    def merged(cls, d: int) -> "MembraneLayout":
        d = check_index(d, "d", 1, MAX_DIM)
        everything = (tuple(range(d)),)
        return cls(name="merged", groups=tuple(everything for _ in range(d)), singletons=None)

    @classmethod
    def _from_singletons(cls, name: str, d: int, singles: tuple) -> "MembraneLayout":
        groups = tuple((tuple(range(s)) + tuple(range(s + 1, d)), (s,)) for s in singles)
        return cls(name=name, groups=groups, singletons=singles)


def check_layout(layout: MembraneLayout, d: int) -> MembraneLayout:
    _layout_plan(layout, d)
    return layout


@dataclass(frozen=True)
class CycleConfig:
    d: int
    priors: np.ndarray
    basis: np.ndarray  # rows are the membrane states e_j
    layout: MembraneLayout

    @functools.cached_property
    def _plan(self) -> _LayoutPlan:
        """The checked layout plan, set by ``cycle_config`` or built on first use. It
        is not a field, so a copy made by ``dataclasses.replace`` builds its own."""
        return _layout_plan(self.layout, self.d)


def _check_orthonormal(basis: np.ndarray) -> np.ndarray:
    """The basis (rows), if max |B B^dag - I| <= ``ROUNDOFF_TOL``; NaN fails."""
    deviation = float(np.abs(basis @ basis.conj().T - np.eye(len(basis))).max())
    if not deviation <= ROUNDOFF_TOL:
        raise ValueError(f"membrane basis not orthonormal: deviation {deviation:.3e}")
    return basis


def _first_failure(ok: np.ndarray):
    """Index of the first False entry (NaN checks count as False), or None."""
    if ok.all():
        return None
    return int(np.flatnonzero(~ok)[0])


def cycle_config(d: int, priors=None, basis=None, layout: MembraneLayout | None = None) -> CycleConfig:
    """Validated cycle configuration; defaults are uniform priors, the computational
    membrane basis, and the paper preset with its checked plan from the standard
    cycle of d that scans use. A basis or layout the caller passes is checked here, once."""
    d = _mub._check_dim(d, qubit=True)
    if priors is not None and (size := math.prod(_shape(priors))) != d:  # before the float copy
        raise ValueError(f"need {d} priors, got {size}")
    priors = np.full(d, 1.0 / d) if priors is None else np.asarray(priors, dtype=float).reshape(-1)
    if not np.all(np.isfinite(priors)):
        raise ValueError("priors contain NaN or Inf entries")
    if float(priors.min()) < 0.0:
        raise ValueError(f"negative prior {float(priors.min()):.3e}")
    if not abs(float(priors.sum()) - 1.0) <= PROBABILITY_SUM_TOL:
        raise ValueError(f"priors sum to {float(priors.sum()):.12f}, not 1")
    if basis is None:
        basis = np.eye(d, dtype=complex)
    else:
        if (shape := _shape(basis)) != (d, d):  # before the complex copy is made
            raise ValueError(f"membrane basis must be {d}x{d}, got {shape}")
        basis = np.asarray(basis, dtype=complex)
        if not np.all(np.isfinite(basis)):
            raise ValueError("membrane basis contains NaN or Inf entries")
        _check_orthonormal(basis)
    if layout is None:
        standard = _standard_cycle(d)
        layout, plan = standard.layout, standard.plan
    else:
        plan = _layout_plan(layout, d)
    cfg = CycleConfig(d=d, priors=priors, basis=basis, layout=layout)
    object.__setattr__(cfg, "_plan", plan)  # fills the frozen config's cached plan
    return cfg


# ------------------------------------------------------------ batched kernel
#
# Every cycle evaluation, single or scanned, runs through the helpers below on
# a stack of membrane bases of shape (n, d, d). What does not depend on the
# basis (priors, validated components, W2, zeta, H(priors), H_b(zeta), the
# checked layout plan) is one ``_Cycle`` record, built before the stack is
# evaluated. The standard cycle of each d is built once and kept read-only; a
# scan or configuration with a layout of its own copies it with that layout
# and plan swapped in.


@dataclass(frozen=True)
class _LayoutPlan:
    """A checked layout as index arrays over the flattened (i, j) grid."""

    chambers: tuple  # ((outcome j, group), ...) in layout order
    members: np.ndarray  # flat indices i*d + j of every chamber's components, chamber by chamber
    starts: np.ndarray  # offset of each non-empty chamber in ``members``
    filled: np.ndarray  # chamber has at least one component
    singletons: np.ndarray | None


def _layout_plan(layout: MembraneLayout, d: int) -> _LayoutPlan:
    """Check a layout and turn it into index arrays, in one pass over its groups;
    d is checked first, so nothing of size d^2 is built for an oversized one."""
    d = check_index(d, "d", 1, MAX_DIM)
    if len(layout.groups) != d:
        raise ValueError(f"layout covers {len(layout.groups)} outcomes, expected {d}")
    chambers = []
    for j, outcome_groups in enumerate(layout.groups):
        chambers.extend(
            (j, tuple(check_index(i, "layout member") for i in group)) for group in outcome_groups
        )
    sizes = np.array([len(group) for _, group in chambers], dtype=np.intp)
    flat_i = np.fromiter(
        (i for _, group in chambers for i in group), dtype=np.intp, count=int(sizes.sum())
    )
    flat_j = np.repeat(np.array([j for j, _ in chambers], dtype=np.intp), sizes)
    # every outcome's groups hold each of 0..d-1 exactly once
    in_range = (flat_i >= 0) & (flat_i < d)
    counts = np.bincount(flat_j[in_range] * d + flat_i[in_range], minlength=d * d).reshape(d, d)
    stray = np.bincount(flat_j[~in_range], minlength=d)
    bad = _first_failure(np.all(counts == 1, axis=1) & (stray == 0))
    if bad is not None:
        raise ValueError(f"groups for outcome {bad} do not partition 0..{d - 1}: {layout.groups[bad]}")
    singles = None
    if layout.singletons is not None:
        if len(layout.singletons) != d:
            raise ValueError("need one designated singleton per outcome")
        singleton_groups = {(j, group[0]) for j, group in chambers if len(group) == 1}
        for j, s in enumerate(layout.singletons):
            if (j, check_index(s, "layout member")) not in singleton_groups:
                raise ValueError(f"designated singleton {s} is not a group of outcome {j}")
        singles = np.array([int(s) for s in layout.singletons])
    members = flat_i * d + flat_j
    starts = (np.cumsum(sizes) - sizes)[sizes > 0]
    return _LayoutPlan(tuple(chambers), members, starts, sizes > 0, singles)


def _component_stack(components, d: int) -> np.ndarray:
    """d component states (an ndarray or any iterable) as one finite (d, d, d)
    complex stack; each state's shape is read before anything is copied."""
    try:
        states = iter(components)
    except TypeError:  # a scalar, None or a 0-d array
        raise ValueError(f"need {d} component states, got {components!r}") from None
    components = components if isinstance(components, np.ndarray) else list(states)
    if len(components) != d:
        raise ValueError(f"need {d} component states, got {len(components)}")
    for shape in map(_shape, components):
        if shape != (d, d):
            raise ValueError(f"component states must be {d}x{d}, got shape {shape}")
    comps = np.asarray(components, dtype=complex)
    if not np.isfinite(comps).all():
        raise ValueError("component states contain NaN or Inf entries")
    return comps


#: Bytes of the (n, m, d, d) complex product that ``_outcome_probabilities``
#: forms for one block of m components.
_PROBABILITY_BLOCK_BYTES = 256 * 1024


def _outcome_probabilities(bases: np.ndarray, components: np.ndarray) -> np.ndarray:
    """probs[k, i, j] = <e_j| rho_i |e_j> in basis k, clamped against roundoff
    below zero.

    The conjugated bases are stacked row on row into one (n d, d) matrix, so
    each component costs one (n d x d) (d x d) GEMM over the whole stack. The
    components go through in blocks, as many as keep the product within
    ``_PROBABILITY_BLOCK_BYTES`` (at least one), so memory stays at O(n d^2).
    Stacking rows leaves each element's dot product as it was, and each row
    is summed alone, so the bits are those of one product per basis and
    component.
    """
    n, d = bases.shape[0], bases.shape[1]
    probs = np.empty((n, len(components), d))
    lhs = bases.conj().reshape(n * d, d)
    block = max(1, _PROBABILITY_BLOCK_BYTES // (16 * n * d * d))
    for lo in range(0, len(components), block):
        prod = np.matmul(lhs, components[lo : lo + block]).reshape(-1, n, d, d)
        prod *= bases
        probs[:, lo : lo + block] = prod.sum(axis=-1).real.swapaxes(0, 1)
    return np.clip(probs, 0.0, 1.0, out=probs)


def _chamber_weights(probs: np.ndarray, priors: np.ndarray, plan: _LayoutPlan) -> np.ndarray:
    """Chamber weights per basis, shape (n, chambers); each sums
    p_i <e_j|rho_i|e_j> over its group in group order. Their sum is the
    kernel's one distribution check: with probabilities clipped to [0, 1] and
    priors checked where they enter, the outcome distribution (the same terms
    by j) and (s, 1 - s) pass whenever the weights do."""
    weighted = (priors[:, None] * probs).reshape(probs.shape[0], -1)
    weights = np.zeros((probs.shape[0], len(plan.chambers)))
    weights[:, plan.filled] = np.add.reduceat(weighted[:, plan.members], plan.starts, axis=1)
    total = weights.sum(axis=1)
    bad = _first_failure(np.abs(total - 1.0) <= PROBABILITY_SUM_TOL)
    if bad is not None:
        raise ValueError(f"chamber weights sum to {total[bad]:.12f}, not 1")
    return weights


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each distribution along the last axis."""
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def _w1(probs: np.ndarray, priors: np.ndarray, h_priors: float, plan: _LayoutPlan) -> np.ndarray:
    outcome_dist = priors @ probs
    chamber_weights = _chamber_weights(probs, priors, plan)
    return h_priors + _row_entropies(outcome_dist) - _row_entropies(chamber_weights)


def _w2(priors: np.ndarray, components) -> float:
    rho_avg = sum(p * rho for p, rho in zip(priors, components))
    return von_neumann_entropy(rho_avg) - float(
        sum(p * von_neumann_entropy(rho) for p, rho in zip(priors, components))
    )


def _singleton_args(probs: np.ndarray, plan: _LayoutPlan) -> np.ndarray:
    return probs[:, plan.singletons, np.arange(probs.shape[2])]


@dataclass(frozen=True)
class _Cycle:
    """The basis-independent part of a cycle, validated and computed once.
    zeta is the standard components' bound: for others it is None, and so is
    all judged against it (window, singleton excess, binary-entropy form)."""

    priors: np.ndarray
    components: np.ndarray
    w2: float
    zeta: float | None
    #: H(priors) and H_b(zeta), in bits.
    h_priors: float
    hb_zeta: float | None
    #: The priors are uniform to ``UNIFORM_TOL``.
    uniform: bool
    layout: MembraneLayout
    plan: _LayoutPlan

    @property
    def hb_applies(self) -> bool:
        """The binary-entropy form applies (standard components, uniform priors, singletons)."""
        return self.zeta is not None and self.uniform and self.plan.singletons is not None


@dataclass(frozen=True)
class _CycleBatch:
    """Per-basis results of the kernel. Singleton fields are None without
    singletons, ``in_window``/``singleton_excess`` also without zeta, and
    ``hb_form``/``residual`` where the binary-entropy form does not apply."""

    w1: np.ndarray
    delta_w: np.ndarray
    singleton_args: np.ndarray | None
    in_window: np.ndarray | None
    #: max_j s_j - zeta per basis; positive values would breach the bound.
    singleton_excess: np.ndarray | None
    hb_form: np.ndarray | None
    residual: np.ndarray | None


def _cycle(
    d: int, priors: np.ndarray, components, layout: MembraneLayout, plan: _LayoutPlan
) -> _Cycle:
    """A cycle from checked priors and a checked layout plan: validates the
    components and computes W2 and H(priors), and zeta and H_b(zeta) when the
    components are the standard stack, itself or byte for byte (state 0 first)."""
    comps = _component_stack(components, d)
    stack = _standard_stack(_mub._check_dim(d, qubit=True))
    standard = comps is stack or (
        comps[0].tobytes() == stack[0].tobytes() and comps.tobytes() == stack.tobytes()
    )
    zeta = mub_pair_bound(d) if standard else None
    return _Cycle(
        priors=priors,
        components=comps,
        w2=_w2(priors, comps),
        zeta=zeta,
        h_priors=shannon_entropy(priors),
        hb_zeta=None if zeta is None else binary_entropy(zeta),
        uniform=bool(np.max(np.abs(priors - 1.0 / d)) <= UNIFORM_TOL),
        layout=layout,
        plan=plan,
    )


@functools.lru_cache(maxsize=None)
def _standard_stack(d: int) -> np.ndarray:
    """The read-only (d, d, d) stack of ``component_states(d)``, built once per
    d: the standard record holds it, and ``_cycle`` recognises a caller's stack
    by it without building that record. The caller checks d: the memo takes 3.0 for 3."""
    stack = np.array(component_states(d))  # checked where the record is built
    stack.setflags(write=False)
    return stack


@functools.lru_cache(maxsize=None)
def _standard_cycle(d: int) -> _Cycle:
    """The standard cycle of d: uniform priors, the standard components and
    the paper preset.

    d is checked first: a directly built config's d reaches here unchecked.
    Only d = 2 and odd primes up to ``MAX_DIM`` have components, so
    the memo holds at most 18 records; every array in a record is read-only
    and its layout is frozen.
    """
    d = _mub._check_dim(d, qubit=True)
    layout = MembraneLayout.paper_preset(d)
    plan = _layout_plan(layout, d)
    cycle = _cycle(d, np.full(d, 1.0 / d), _standard_stack(d), layout, plan)
    for array in (cycle.priors, plan.members, plan.starts, plan.filled, plan.singletons):
        array.setflags(write=False)
    return cycle


def _cycle_kernel(cycle: _Cycle, bases: np.ndarray) -> _CycleBatch:
    """Evaluate the cycle on a stack of membrane bases of shape (n, d, d)."""
    probs = _outcome_probabilities(bases, cycle.components)
    w1 = _w1(probs, cycle.priors, cycle.h_priors, cycle.plan)
    delta = w1 - cycle.w2
    s = in_window = excess = hb_form = residual = None
    if cycle.plan.singletons is not None:
        s = _singleton_args(probs, cycle.plan)
        zeta = cycle.zeta
        if zeta is not None:
            in_window = ((s >= 1.0 - zeta) & (s <= zeta + WINDOW_SLACK)).all(axis=1)
            excess = s.max(axis=1) - zeta
        if cycle.hb_applies:
            hb = _row_entropies(np.stack([s, 1.0 - s], axis=-1))  # s is clipped into [0, 1]
            hb_form = cycle.hb_zeta - hb.sum(axis=1) / hb.shape[1]  # the bits of hb.mean(axis=1)
            residual = np.abs(delta - hb_form)
    return _CycleBatch(
        w1=w1,
        delta_w=delta,
        singleton_args=s,
        in_window=in_window,
        singleton_excess=excess,
        hb_form=hb_form,
        residual=residual,
    )


# ------------------------------------------------------------ public entry points


def _config_probabilities(cfg: CycleConfig, components) -> tuple:
    """Checked layout plan and outcome probabilities (a stack of one) of a configuration."""
    return cfg._plan, _outcome_probabilities(cfg.basis[None], _component_stack(components, cfg.d))


def chamber_distribution(cfg: CycleConfig, components) -> list:
    """Equilibrium chamber weights [(outcome j, group, weight), ...].

    Each weight is sum_{i in group} p_i <e_j|rho_i|e_j>; across all outcomes
    and groups the weights sum to 1.
    """
    plan, probs = _config_probabilities(cfg, components)
    weights = _chamber_weights(probs, cfg.priors, plan)[0]
    return [(j, group, float(w)) for (j, group), w in zip(plan.chambers, weights)]


def work_extraction_w1(cfg: CycleConfig, components) -> float:
    """Work extracted by the mixing path (in bits, per-particle prefactor omitted):
    H(priors) + H(outcome distribution of the average state) - H(chambers)."""
    plan, probs = _config_probabilities(cfg, components)
    return float(_w1(probs, cfg.priors, shannon_entropy(cfg.priors), plan)[0])


def work_retrieval_w2(cfg: CycleConfig, components) -> float:
    """Work required by the reversible return path:
    S(average state) - sum_i p_i S(rho_i), in bits."""
    return _w2(cfg.priors, _component_stack(components, cfg.d))


def singleton_arguments(cfg: CycleConfig, components) -> np.ndarray:
    """s_j = <e_j| rho_single(j) |e_j> for the layout's designated singletons.

    For the standard components this is the equal-weight combination of the
    two paired-basis outcome probabilities of the pure state |e_j>, the
    quantity capped by the pair certainty bound.
    """
    if cfg.layout.singletons is None:
        raise ValueError(f"layout {cfg.layout.name!r} designates no singleton components")
    plan, probs = _config_probabilities(cfg, components)
    _chamber_weights(probs, cfg.priors, plan)  # the distribution check of its two siblings
    return _singleton_args(probs, plan)[0]


def _report_dict(report) -> dict:
    """A report's fields in order, tuples as lists: ``layout_name`` is keyed
    "layout", and ``histogram_counts``/``histogram_edges`` nest under "histogram"."""
    out = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        value = list(value) if isinstance(value, tuple) else value
        if field.name.startswith("histogram_"):
            out.setdefault("histogram", {})[field.name.removeprefix("histogram_")] = value
        else:
            out["layout" if field.name == "layout_name" else field.name] = value
    return out


@dataclass(frozen=True)
class WorkReport:
    """Work bookkeeping of one cycle, with the binary-entropy cross-check.

    ``consistency_residual`` is |(w1 - w2) - hb_form_delta_w| and is always
    reported when the binary-entropy form applies (the standard components,
    uniform priors and a singleton-style layout). ``in_window`` records
    whether every singleton argument lies in [1 - zeta, zeta], the interval
    on which the second-law comparison is monotone. zeta is the standard
    components' bound: for other components it, ``in_window`` and the
    binary-entropy form are None. Counterfactual fields are populated only in
    the explicitly requested what-if mode and never describe a physical cycle.
    """

    d: int
    w1: float
    w2: float
    delta_w: float
    zeta: float | None
    layout_name: str
    singleton_args: tuple | None = None
    hb_form_delta_w: float | None = None
    consistency_residual: float | None = None
    in_window: bool | None = None
    counterfactual: bool = False
    counterfactual_zeta: float | None = None
    counterfactual_delta_w: float | None = None

    def as_dict(self) -> dict:
        return _report_dict(self)


def delta_w(cfg: CycleConfig, components=None, counterfactual_zeta: float | None = None) -> WorkReport:
    """Net work of the full cycle, with the binary-entropy form when it applies.

    The raw value w1 - w2 is computed for any configuration. The
    binary-entropy form (and the counterfactual mode, which substitutes the
    hypothetical bound for every singleton argument) additionally needs the
    standard components, uniform priors and a layout that designates
    singleton components.
    """
    standard = None if components is not None else _standard_cycle(cfg.d)
    if standard is not None and cfg.priors.tobytes() == standard.priors.tobytes():
        # the bytes that _cycle would build, with this configuration's layout
        cycle = dataclasses.replace(standard, layout=cfg.layout, plan=cfg._plan)
    else:
        components = standard.components if components is None else components
        cycle = _cycle(cfg.d, cfg.priors, components, cfg.layout, cfg._plan)
    if counterfactual_zeta is not None and not cycle.hb_applies:
        needs = "uniform priors and a layout with designated singletons"
        if cycle.zeta is None:
            needs = "the standard components"
        raise ValueError(f"the binary-entropy form needs {needs}; "
                         "cannot evaluate a counterfactual bound here")
    batch = _cycle_kernel(cycle, cfg.basis[None])

    def first(values, cast):
        return None if values is None else cast(values[0])

    cf_delta = None
    if counterfactual_zeta is not None:
        cf_delta = cycle.hb_zeta - binary_entropy(float(counterfactual_zeta))

    return WorkReport(
        d=cfg.d,
        w1=float(batch.w1[0]),
        w2=cycle.w2,
        delta_w=float(batch.delta_w[0]),
        zeta=cycle.zeta,
        layout_name=cfg.layout.name,
        singleton_args=first(batch.singleton_args, lambda s: tuple(float(v) for v in s)),
        hb_form_delta_w=first(batch.hb_form, float),
        consistency_residual=first(batch.residual, float),
        in_window=first(batch.in_window, bool),
        counterfactual=counterfactual_zeta is not None,
        counterfactual_zeta=None if counterfactual_zeta is None else float(counterfactual_zeta),
        counterfactual_delta_w=cf_delta,
    )


def _bases_from_normals(g: np.ndarray) -> np.ndarray:
    """The Haar-random bases (rows) of a stack of normals g[k] = (real, imaginary)
    parts, shape (n, 2, d, d): the complex stack is formed once, and one stacked
    QR follows, with the R-diagonal phases folded back in."""
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return (q * (diag / np.abs(diag))[:, None, :]).swapaxes(-1, -2)


def haar_random_basis(d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis (rows) drawn uniformly: QR of a complex Gaussian
    matrix with the R-diagonal phases folded back in. d runs from 1 to
    ``MAX_DIM`` and is checked before anything is allocated."""
    d = check_index(d, "d", 1, MAX_DIM)
    return _check_orthonormal(_bases_from_normals(rng.standard_normal((1, 2, d, d)))[0])


@dataclass(frozen=True)
class ScanReport:
    """Summary of cycle evaluations over seeded random membrane bases."""

    d: int
    seed: int
    n_samples: int
    layout_name: str
    zeta: float
    delta_w_min: float
    delta_w_max: float
    delta_w_mean: float
    histogram_counts: tuple
    histogram_edges: tuple
    max_consistency_residual: float
    #: Largest s_j - zeta over all samples; positive values would breach the bound.
    max_singleton_excess: float
    n_in_window: int
    in_window_delta_w_max: float | None
    #: Samples where some s_j < 1 - zeta (outside the monotone-comparison window).
    outside_window_indices: tuple
    per_sample_delta_w: tuple | None = None

    def as_dict(self) -> dict:
        return _report_dict(self)


# ------------------------------------------------------------ per-sample substreams
#
# Sample i of a scan with seed s draws from
# default_rng(SeedSequence(s).spawn(n)[i]). That child mixes the words of s
# (padded to four, as a spawn key is present) before its key word i, so its
# pool at that point is the pool of SeedSequence(s), and all of SeedSequence's
# hash constants run independently of the data. Only two steps of the child
# depend on i: mixing in the key word, and the eight hashes of
# generate_state(4, uint64) that PCG64 seeds from. ``_spawn_prefix`` takes the
# shared pool from numpy once per seed; ``_child_states`` runs the other two
# for a whole range of children as uint32 array operations, which wrap modulo
# 2**32 as SeedSequence's C code does.

_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_chain(start: int, mult: int, count: int) -> np.ndarray:
    """start, start*mult, ..., start*mult**count modulo 2**32."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)


#: generate_state's constants for its eight words: the XOR before and the multiplier after.
_STATE_HASH = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_WORDS)
_STATE_POOL_WORD = np.arange(2 * _POOL_WORDS) % _POOL_WORDS


@functools.lru_cache(maxsize=None)
def _key_hashes(hashes: int) -> np.ndarray:
    """Read-only hash constants of the four key-word hashes that follow
    ``hashes`` earlier ones, shape (5,)."""
    chain = _hash_chain(_INIT_A, _MULT_A, hashes + _POOL_WORDS)[hashes:]
    chain.setflags(write=False)
    return chain


def _spawn_prefix(seed: int) -> tuple:
    """What every spawned child of ``seed`` shares, as uint32 arrays: its pool
    scaled by the mix multiplier, (4,), and the hash constants of the four
    key-word hashes, (5,). The pool is numpy's ``SeedSequence(seed).pool``;
    mixing the seed's words took 16 hashes, plus 4 per word beyond the fourth,
    so the constants depend only on the seed's word count."""
    hashes = 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - _POOL_WORDS)
    scaled_pool = np.random.SeedSequence(seed).pool * np.uint32(_MIX_MULT_L)
    return scaled_pool, _key_hashes(hashes)


def _child_states(prefix: tuple, first: int, count: int) -> np.ndarray:
    """PCG64 seed words of children first..first+count-1, shape (count, 4) uint64:
    row k equals ``SeedSequence(seed).spawn(first + count)[first + k]
    .generate_state(4, np.uint64)``. Keys must fit one uint32 word."""
    scaled_pool, h = prefix
    keys = np.arange(first, first + count, dtype=np.uint32)
    hashed = (keys[:, None] ^ h[:-1]) * h[1:]
    hashed ^= hashed >> np.uint32(16)
    pool = scaled_pool - np.uint32(_MIX_MULT_R) * hashed
    pool ^= pool >> np.uint32(16)
    state = (pool[:, _STATE_POOL_WORD] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    state ^= state >> np.uint32(16)
    # generate_state pairs its words little-endian into uint64
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _child_seed_type() -> type:
    """The seed type PCG64 takes in place of a spawned SeedSequence: it holds
    one row of ``_child_states``. Built on first use, so that importing the
    package does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class ChildSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_WORDS or dtype is not np.uint64:
                raise ValueError("a derived child seed holds exactly four uint64 words")
            return self.words

    return ChildSeed


#: Membrane-basis storage per scan chunk. A scan evaluates its samples in
#: chunks of this many bytes of d x d complex bases, so its working memory
#: does not grow with the number of samples.
SCAN_CHUNK_BYTES = 1 << 20


def _chunk_samples(d: int) -> int:
    return max(1, SCAN_CHUNK_BYTES // (16 * d * d))


def _scan_seed(seed) -> int:
    """A scan seed: an int or a numpy integer, never negative."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer (got {seed!r})")
    return value


def _histogram(values: np.ndarray):
    """``np.histogram(values, _HISTOGRAM_BINS)``, with its constant-data range
    (min - 1/2, max + 1/2) also used when the spread is too small for
    finite-width bins. The merged layout's net work is basis-independent, so
    its scan spread is roundoff; NaN and Inf take that branch too. Callers
    pass net work, |delta_w| <= log2 d, where that range is exact; magnitudes
    of 2**52 and up are outside the contract ("Too many bins for data range").

    With finite-width bins, each value is counted against the edges by
    numpy's documented rule: bin i holds edges[i] <= x < edges[i + 1], and
    the last bin also holds its right edge. ``np.histogram`` computes the
    same counts, except where a subnormal bin width leaves the rounded edges
    more than a bin off its index arithmetic; there the rule holds here.
    """
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, _HISTOGRAM_BINS + 1)
    if np.all(edges[:-1] < edges[1:]):
        index = np.minimum(np.searchsorted(edges, values, side="right") - 1, _HISTOGRAM_BINS - 1)
        return np.bincount(index, minlength=_HISTOGRAM_BINS), edges
    return np.histogram(values, bins=_HISTOGRAM_BINS, range=(lo - 0.5, hi + 0.5))


def scan_bases(
    d: int,
    n_samples: int,
    seed: int,
    layout: MembraneLayout | None = None,
    keep_samples: bool = False,
) -> ScanReport:
    """Evaluate the cycle on seeded Haar-random membrane bases.

    Deterministic for a given seed (a non-negative integer): sample i draws
    from ``default_rng(SeedSequence(seed).spawn(n_samples)[i])``, so the
    report does not depend on evaluation order. Those substreams are derived
    bit for bit, a chunk at a time in one vectorized pass, without building
    the spawned SeedSequences; each sample's generator draws its normals
    straight into the chunk's buffer, and one stacked QR turns the chunk into
    bases. Samples run through the batched kernel in chunks of
    ``SCAN_CHUNK_BYTES``; at most ``MAX_SCAN_SAMPLES`` are drawn,
    and their count must be an integer. The default layout, the paper
    preset, comes with the standard cycle of d, built once; a layout the
    caller passes is checked on each call.
    """
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer (got {n_samples!r})") from None
    n_samples = check_index(n_samples, "n_samples", 1, MAX_SCAN_SAMPLES)
    seed = _scan_seed(seed)
    d = _mub._check_dim(d, qubit=True)
    cycle = _standard_cycle(d)
    if layout is not None:
        cycle = dataclasses.replace(cycle, layout=layout, plan=_layout_plan(layout, d))

    prefix = _spawn_prefix(seed)
    # PCG64 reads its seed words once, in its constructor, so one holder
    # serves every sample; each generator is dropped after its one draw
    child_seed = _child_seed_type()(None)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    chunk = _chunk_samples(d)
    normals = np.empty((min(chunk, n_samples), 2, d, d))
    singles = cycle.plan.singletons is not None  # then window, excess and residual are all set
    deltas, excess, residual = np.empty((3, n_samples))
    in_window = np.zeros(n_samples, dtype=bool)
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        g = normals[: stop - start]
        for k, words in enumerate(_child_states(prefix, start, stop - start)):
            child_seed.words = words
            generator(pcg64(child_seed)).standard_normal(out=g[k])
        batch = _cycle_kernel(cycle, _bases_from_normals(g))
        deltas[start:stop] = batch.delta_w
        if singles:
            in_window[start:stop] = batch.in_window
            excess[start:stop] = batch.singleton_excess
            residual[start:stop] = batch.residual
    inside = deltas[in_window]
    counts, edges = _histogram(deltas)
    return ScanReport(
        d=d,
        seed=seed,
        n_samples=n_samples,
        layout_name=cycle.layout.name,
        zeta=cycle.zeta,
        delta_w_min=float(deltas.min()),
        delta_w_max=float(deltas.max()),
        delta_w_mean=float(deltas.sum() / n_samples),  # the bits of deltas.mean()
        histogram_counts=tuple(counts.tolist()),
        histogram_edges=tuple(edges.tolist()),
        max_consistency_residual=float(residual.max()) if singles else 0.0,
        max_singleton_excess=float(excess.max()) if singles else 0.0,
        n_in_window=int(inside.size),
        in_window_delta_w_max=float(inside.max()) if inside.size else None,
        outside_window_indices=tuple(np.flatnonzero(~in_window).tolist()) if singles else (),
        per_sample_delta_w=tuple(deltas.tolist()) if keep_samples else None,
    )
