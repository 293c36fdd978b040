"""The standard cycle of each dimension, and the layout plan.

``_standard_cycle(d)`` is one read-only record per d: uniform priors, the
component stack, W2, zeta, the paper layout and its plan. Scans, default
configurations and default ``delta_w`` calls take it. These tests check that
a cold and a warm record give the same report, that the record equals a
fresh build and cannot be changed from outside, that it is neither rebuilt
nor re-planned where it is taken, that its component stack is built once and
recognises a caller's standard states without building them, and that the
one-pass layout plan gives the arrays and error messages recorded from the
earlier two-pass ``check_layout``/``_layout_plan``.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from finecert import cycle, mub
from finecert.bounds import mub_pair_bound
from finecert.cycle import MembraneLayout, check_layout, component_states, scan_bases

LAYOUTS = ("paper_preset", "symmetric_preset", "finest", "merged")
DIMENSIONS = [2] + [p for p in range(3, 62) if mub.is_prime(p)]


@pytest.mark.parametrize("d, n", [(2, 9), (3, 40), (31, 70)])
@pytest.mark.parametrize("factory", LAYOUTS)
def test_cold_memo_scan_equals_warm_memo_scan(d, n, factory):
    layout = getattr(MembraneLayout, factory)(d)
    cycle._standard_cycle.cache_clear()
    cold = scan_bases(d, n, 17, layout=layout, keep_samples=True).as_dict()
    assert cycle._standard_cycle.cache_info().currsize == 1
    warm = scan_bases(d, n, 17, layout=layout, keep_samples=True).as_dict()
    assert cycle._standard_cycle.cache_info().hits >= 1
    assert warm == cold


def record_arrays(record):
    plan = record.plan
    return [record.priors, record.components, plan.members, plan.starts, plan.filled, plan.singletons]


def test_memo_arrays_are_read_only():
    record = cycle._standard_cycle(5)
    assert isinstance(record.w2, float) and isinstance(record.zeta, float)
    assert record.uniform is True and record.hb_applies is True
    for array in record_arrays(record):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.w2 = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.layout.groups = ()


def test_memo_matches_per_call_parts():
    record = cycle._standard_cycle(7)
    cfg = cycle.cycle_config(7)
    assert record.priors.tobytes() == cfg.priors.tobytes()
    assert record.components.tobytes() == np.asarray(component_states(7)).tobytes()
    assert record.w2 == cycle.work_retrieval_w2(cfg, component_states(7))
    assert record.zeta == mub_pair_bound(7)


def test_mutating_component_states_does_not_change_a_later_scan():
    cycle._standard_cycle.cache_clear()
    before = scan_bases(3, 20, 4, keep_samples=True).as_dict()
    states = component_states(3)
    states[0][:] = 0.0
    states[1] = np.eye(3)
    cycle._standard_cycle.cache_clear()
    states = component_states(3)
    states[2] *= 2.0
    assert scan_bases(3, 20, 4, keep_samples=True).as_dict() == before


@pytest.mark.parametrize("d", [4, 67, 1])
def test_memo_does_not_cache_failures(d):
    cycle._standard_cycle.cache_clear()
    with pytest.raises(ValueError):
        scan_bases(d, 3, 0)
    with pytest.raises(ValueError):
        cycle.cycle_config(d)
    assert cycle._standard_cycle.cache_info().currsize == 0


# Messages recorded from the two-pass check_layout.
MALFORMED = [
    (
        MembraneLayout("x", (((0, 1, 2),),) * 2),
        "layout covers 2 outcomes, expected 3",
    ),
    (
        MembraneLayout("x", (((0, 1),),) * 3),
        "groups for outcome 0 do not partition 0..2: ((0, 1),)",
    ),
    (
        MembraneLayout("x", (((0, 1, 1, 2),),) * 3),
        "groups for outcome 0 do not partition 0..2: ((0, 1, 1, 2),)",
    ),
    (
        MembraneLayout("x", (((0, 0), (1,)),) * 3),
        "groups for outcome 0 do not partition 0..2: ((0, 0), (1,))",
    ),
    (
        MembraneLayout("x", (((0, 1, 3),),) * 3),
        "groups for outcome 0 do not partition 0..2: ((0, 1, 3),)",
    ),
    (
        MembraneLayout("x", (((0, 1, -1),),) * 3),
        "groups for outcome 0 do not partition 0..2: ((0, 1, -1),)",
    ),
    (
        MembraneLayout("x", (((0, 1), (2,)),) * 3, singletons=(0, 2, 2)),
        "designated singleton 0 is not a group of outcome 0",
    ),
    (
        MembraneLayout("x", (((0, 1), (2,)),) * 3, singletons=(2, 2, 5)),
        "designated singleton 5 is not a group of outcome 2",
    ),
    (
        MembraneLayout("x", (((0, 1), (2,)),) * 3, singletons=(2, 2, -1)),
        "designated singleton -1 is not a group of outcome 2",
    ),
    (
        MembraneLayout("x", (((0, 1), (2,)),) * 3, singletons=(2, 2)),
        "need one designated singleton per outcome",
    ),
    (
        # a partition failure at outcome 1 is reported before a singleton failure at outcome 0
        MembraneLayout("x", (((0, 1), (2,)), ((0,), (1, 1)), ((0, 1), (2,))), singletons=(1, 2, 2)),
        "groups for outcome 1 do not partition 0..2: ((0,), (1, 1))",
    ),
]


@pytest.mark.parametrize("layout, message", MALFORMED)
def test_check_layout_messages_unchanged(layout, message):
    with pytest.raises(ValueError) as info:
        check_layout(layout, 3)
    assert str(info.value) == message


def test_check_layout_accepts_empty_groups_and_returns_layout():
    layout = MembraneLayout("x", (((0, 1, 2),), ((0, 1), (2,)), ((1, 2), (), (0,))))
    assert check_layout(layout, 3) is layout
    plan = cycle._layout_plan(layout, 3)
    assert plan.filled.tolist() == [True, True, True, True, False, True]


# SHA-256 of repr((chambers, members, starts, filled, singletons)) as lists,
# recorded from the earlier two-pass plan construction.
PLAN_GOLDEN = {
    (2, "paper_preset"): "9efaa91bd7f26d24d894bd0f276e61393e42de88b42df6131c708d556f5ed369",
    (2, "symmetric_preset"): "9efaa91bd7f26d24d894bd0f276e61393e42de88b42df6131c708d556f5ed369",
    (2, "finest"): "b0fcf937a12f739dbb9e01575f8c3faa27ad1fc06156b1edda5fffda03a4b5e5",
    (2, "merged"): "88cb1a4eda48649ea81956c7df71309988df9bdfff2dd429815b7476e88c6a94",
    (3, "paper_preset"): "73149424f992850deecd8732a2ef3696f2bddabffb86bae3cdb90bbfca82db9d",
    (3, "symmetric_preset"): "c361750f8d29c8ea1c885bfdadc002c97e767208f66816528ab43317b4f21c37",
    (3, "finest"): "f8bb8ce61c4cb9975d2dc4ceb9473f5a4efb6dd23baac5d155531e1bde08b5b8",
    (3, "merged"): "4d8819def75edf876ac5b2c1ec64123fd950312a3e079a7dcecf35a2a372001b",
    (31, "paper_preset"): "11bf0d7f7b1cee8e6cae9941c66e496a729d555ed589ea64e2400188f960471d",
    (31, "symmetric_preset"): "135fe8147f4c632c6b52b7ac44d53c46c64a3c5768e02cc2bdfa9e3eee571735",
    (31, "finest"): "903cbb0d50f9951a2b41bc6c138a26f909f656c354bfbdbd54bca072b2a59cd8",
    (31, "merged"): "3e7b36bf330658118c215807216366504f6a88b3fa892af7a6e9eec5ecb6f316",
}


def reference_plan(layout, d):
    """The plan as the earlier two-pass construction defined it."""
    chambers = tuple(
        (j, tuple(int(i) for i in group))
        for j, outcome_groups in enumerate(layout.groups)
        for group in outcome_groups
    )
    sizes = np.array([len(group) for _, group in chambers])
    members = [i * d + j for j, group in chambers for i in group]
    starts = (np.cumsum(sizes) - sizes)[sizes > 0]
    singles = None if layout.singletons is None else [int(s) for s in layout.singletons]
    return chambers, members, starts.tolist(), (sizes > 0).tolist(), singles


@pytest.mark.parametrize("d, factory", sorted(PLAN_GOLDEN))
def test_layout_plan_unchanged(d, factory):
    layout = getattr(MembraneLayout, factory)(d)
    plan = cycle._layout_plan(layout, d)
    fields = (
        plan.chambers,
        plan.members.tolist(),
        plan.starts.tolist(),
        plan.filled.tolist(),
        None if plan.singletons is None else plan.singletons.tolist(),
    )
    assert fields == reference_plan(layout, d)
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == PLAN_GOLDEN[(d, factory)]
    assert plan.members.dtype == np.intp and plan.starts.dtype == np.intp
    assert plan.filled.dtype == bool
    assert plan.singletons is None or plan.singletons.dtype == np.array([0]).dtype


@pytest.mark.parametrize("d", DIMENSIONS)
def test_paper_plan_memo_equals_a_fresh_plan_and_is_read_only(d):
    record = cycle._standard_cycle(d)
    layout = MembraneLayout.paper_preset(d)
    plan = cycle._layout_plan(layout, d)
    fresh = cycle._cycle(d, np.full(d, 1.0 / d), component_states(d), layout, plan)
    assert record.layout == layout and record.plan.chambers == fresh.plan.chambers
    assert (record.w2, record.zeta, record.uniform) == (fresh.w2, fresh.zeta, fresh.uniform)
    for got, want in zip(record_arrays(record), record_arrays(fresh)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert cycle._standard_cycle(d) is record


def test_default_layout_scans_reuse_the_plan(monkeypatch):
    cycle._standard_cycle.cache_clear()
    default = scan_bases(5, 6, 3, keep_samples=True)

    def no_plan(*args):
        raise AssertionError("the default layout or cycle was built again")

    monkeypatch.setattr(cycle, "_layout_plan", no_plan)
    monkeypatch.setattr(cycle, "_cycle", no_plan)
    assert scan_bases(5, 6, 3, keep_samples=True) == default
    assert cycle._standard_cycle.cache_info().currsize == 1


def test_given_layouts_are_checked_on_every_call(monkeypatch):
    cycle._standard_cycle(3)
    calls = []
    plan = cycle._layout_plan

    def counted_plan(layout, d):
        calls.append(layout)
        return plan(layout, d)

    monkeypatch.setattr(cycle, "_layout_plan", counted_plan)
    paper = MembraneLayout.paper_preset(3)
    assert scan_bases(3, 4, 1, layout=paper) == scan_bases(3, 4, 1)
    memo = cycle._standard_cycle(3).layout
    assert scan_bases(3, 4, 1, layout=memo) == scan_bases(3, 4, 1)
    listed = MembraneLayout("paper", [[list(g) for g in groups] for groups in paper.groups])
    assert scan_bases(3, 4, 1, layout=listed).delta_w_mean == scan_bases(3, 4, 1).delta_w_mean
    floats = MembraneLayout("paper", tuple(((1.0, 2.0), (0.0,)) for _ in range(3)))
    with pytest.raises(ValueError, match="layout member 1.0 is not an integer"):
        scan_bases(3, 4, 1, layout=floats)
    assert [id(layout) for layout in calls] == [id(paper), id(memo), id(listed), id(floats)]


def forbid_replanning(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the default layout or cycle was built or planned again")

    monkeypatch.setattr(cycle, "_layout_plan", forbidden)
    monkeypatch.setattr(cycle, "_cycle", forbidden)
    monkeypatch.setattr(MembraneLayout, "paper_preset", classmethod(forbidden))


@pytest.mark.parametrize("d", [2, 3, 31])
def test_default_config_takes_the_memoized_preset_and_plan(monkeypatch, d):
    fresh = cycle.delta_w(cycle.cycle_config(d, layout=MembraneLayout.paper_preset(d))).as_dict()
    record = cycle._standard_cycle(d)
    forbid_replanning(monkeypatch)
    cfg = cycle.cycle_config(d)
    assert cfg.layout is record.layout and cfg._plan is record.plan
    assert cycle.delta_w(cfg).as_dict() == fresh


def test_cli_paper_layout_takes_the_memo(monkeypatch, capsys):
    from finecert.cli import main

    argv = ["cycle", "--d", "5", "--layout", "paper"]
    assert main(argv) == 0 and main(argv + ["--samples", "4"]) == 0
    expected = capsys.readouterr().out
    forbid_replanning(monkeypatch)
    assert main(argv) == 0 and main(argv + ["--samples", "4"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("d", DIMENSIONS)
def test_default_delta_w_takes_the_memo_with_the_same_bytes(monkeypatch, d):
    cfg = cycle.cycle_config(d)
    fresh = cycle.delta_w(cfg, components=component_states(d)).as_dict()  # built per call
    cycle._standard_cycle(d)

    def forbidden(*args):
        raise AssertionError("the standard cycle parts were built again")

    monkeypatch.setattr(cycle, "_cycle", forbidden)
    assert cycle.delta_w(cfg).as_dict() == fresh


def test_delta_w_builds_parts_when_priors_or_components_differ(monkeypatch):
    built = []
    build = cycle._cycle
    cycle._standard_cycle(5)

    def counted(d, priors, components, layout, plan):
        built.append(priors.tobytes())
        return build(d, priors, components, layout, plan)

    monkeypatch.setattr(cycle, "_cycle", counted)
    uniform = np.full(5, 0.2)
    nudged = uniform.copy()
    nudged[0] = np.nextafter(0.2, 1.0)  # uniform to the tolerance, not to the byte
    cycle.delta_w(cycle.cycle_config(5, priors=nudged))
    cycle.delta_w(cycle.cycle_config(5), components=component_states(5))
    cycle.delta_w(cycle.cycle_config(5, priors=[0.1, 0.2, 0.3, 0.2, 0.2]))
    assert len(built) == 3 and built[0] == nudged.tobytes() and built[1] == uniform.tobytes()
    cycle.delta_w(cycle.cycle_config(5, priors=[0.2] * 5), counterfactual_zeta=0.9)
    assert len(built) == 3


@pytest.mark.parametrize("d", [2, 3, 31])
def test_cold_standard_cycle_builds_the_standard_stack_once(monkeypatch, d):
    cycle._standard_cycle.cache_clear()
    cycle._standard_stack.cache_clear()
    built = []
    build = cycle.component_states

    def counted(d):
        built.append(d)
        return build(d)

    monkeypatch.setattr(cycle, "component_states", counted)
    record = cycle._standard_cycle(d)
    assert built == [d]
    assert record.components is cycle._standard_stack(d)
    assert record.components.tobytes() == np.asarray(build(d)).tobytes()


@pytest.mark.parametrize("d", [2, 3, 31, 61])
def test_warm_delta_w_recognises_given_standard_states_without_building_them(monkeypatch, d):
    cfg = cycle.cycle_config(d)
    comps = component_states(d)
    expected = cycle.delta_w(cfg).as_dict()
    cycle._standard_cycle(d)

    def forbidden(*args):
        raise AssertionError("the standard component states were built again")

    monkeypatch.setattr(cycle, "component_states", forbidden)
    monkeypatch.setattr(cycle, "_pair_operators", forbidden)
    assert cycle.delta_w(cfg, components=comps).as_dict() == expected
    nudged = [rho.copy() for rho in comps]
    nudged[-1][0, 0] = np.nextafter(nudged[-1][0, 0].real, 1.0)  # state 0 agrees, the stack does not
    assert cycle.delta_w(cfg, components=nudged).zeta is None


def test_delta_w_with_given_components_does_not_build_the_record():
    cycle._standard_cycle.cache_clear()
    cfg = cycle.cycle_config(5, layout=MembraneLayout.finest(5))
    cycle.delta_w(cfg, components=component_states(5))
    assert cycle._standard_cycle.cache_info().currsize == 0
