"""One owner per decision: the dimension check and d = 2 live in ``mub``, and a
cycle configuration builds its layout plan once.

These tests pin that an unsupported d is rejected before any O(d^2) work,
that a non-integer d is rejected at every entry point rather than truncated,
that a configuration's checked plan is built once and never carried stale
into a copy, that layout members must be integers, and that component i of
the cycle is the certainty operator of the pair ensemble (z:i, 0:i) byte for
byte, d = 2 included, and is built by that operator from ``projector``. They
also pin that ``bound --gamma`` decides degeneracy with ``qubit``'s predicate
and that ``mub --tol`` and ``verify_mub`` default to ``numerics.ROUNDOFF_TOL``.
"""

import dataclasses
import inspect
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from finecert import cycle, qubit
from finecert.bounds import certainty_operator, mub_pair_bound, mub_pair_ensemble, pauli_pair_ensemble
from finecert.cli import build_parser, main
from finecert.cycle import (
    CycleConfig,
    MembraneLayout,
    chamber_distribution,
    check_layout,
    component_states,
    cycle_config,
    delta_w,
    haar_random_basis,
    scan_bases,
    singleton_arguments,
    work_extraction_w1,
)
from finecert.mub import mub_family, verify_mub
from finecert.numerics import ROUNDOFF_TOL

OVERSIZED = "d=1009 exceeds the supported maximum 64"


def peak_bytes(fn):
    """Peak traced allocation of one call of fn, with its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def raises_message(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: scan_bases(1009, 3, 0),
        lambda: cycle_config(1009),
        lambda: delta_w(
            CycleConfig(d=1009, priors=np.ones(1), basis=np.eye(1), layout=MembraneLayout.finest(1))
        ),
    ],
    ids=["scan_bases", "cycle_config", "delta_w-direct-config"],
)
def test_oversized_d_is_rejected_before_any_quadratic_work(call):
    peak, message = peak_bytes(lambda: raises_message(call))
    assert message == OVERSIZED
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cycle", "--d", "1009", "--basis", "random"], OVERSIZED),
        (["cycle", "--d", "4000", "--samples", "5"], "d must be prime (got 4000)"),
    ],
)
def test_cli_cycle_rejects_d_before_building_a_preset(capsys, argv, message):
    peak, code = peak_bytes(lambda: main(argv))
    assert code == 3
    assert capsys.readouterr().err == f"finecert cycle: {message}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call, d, prime",
    [
        (cycle_config, 5.5, 5),
        (lambda d: scan_bases(d, 2, 0), 3.7, 3),
        (mub_family, 7.9, 7),
        (mub_pair_ensemble, 5.9, 5),
        (mub_pair_bound, 5.5, 5),
        (mub_pair_bound, "5", 5),
        (lambda d: check_layout(MembraneLayout.paper_preset(3), d), 3.0, 3),
        (lambda d: haar_random_basis(d, np.random.default_rng(0)), 3.5, 3),
        (MembraneLayout.paper_preset, 5.5, 5),
        (MembraneLayout.symmetric_preset, 5.5, 5),
        (MembraneLayout.finest, 5.5, 5),
        (MembraneLayout.merged, 5.5, 5),
    ],
    ids=[
        "cycle_config",
        "scan_bases",
        "mub_family",
        "mub_pair_ensemble",
        "mub_pair_bound",
        "mub_pair_bound-text",
        "check_layout",
        "haar_random_basis",
        "paper_preset",
        "symmetric_preset",
        "finest",
        "merged",
    ],
)
def test_non_integer_d_is_rejected_and_numpy_integers_pass(call, d, prime):
    assert raises_message(lambda: call(d)) == f"d {d!r} is not an integer"
    call(np.int64(prime))


def count_plans(monkeypatch):
    calls = []
    build = cycle._layout_plan

    def counting(layout, d):
        calls.append(layout.name)
        return build(layout, d)

    monkeypatch.setattr(cycle, "_layout_plan", counting)
    return calls


@pytest.mark.parametrize("d, factory", [(61, "finest"), (5, "finest"), (5, "symmetric_preset")])
def test_config_builds_its_layout_plan_once(monkeypatch, d, factory):
    cycle._standard_cycle.cache_clear()
    calls = count_plans(monkeypatch)
    layout = getattr(MembraneLayout, factory)(d)
    cfg = cycle_config(d, layout=layout)
    assert calls == [layout.name]
    comps = component_states(d)
    delta_w(cfg)
    chamber_distribution(cfg, comps)
    work_extraction_w1(cfg, comps)
    if layout.singletons is None:
        with pytest.raises(ValueError, match="designates no singleton"):
            singleton_arguments(cfg, comps)
    else:
        singleton_arguments(cfg, comps)
    # the one other plan is the paper preset of the standard record, built by
    # the first default delta_w for its components and W2
    assert calls == [layout.name, "paper"]
    assert cycle._standard_cycle.cache_info().currsize == 1


def test_replaced_layout_gets_its_own_plan():
    d = 5
    cfg = cycle_config(d)
    delta_w(cfg)  # the paper preset's plan is now cached on cfg
    finest = MembraneLayout.finest(d)
    replaced = dataclasses.replace(cfg, layout=finest)
    assert delta_w(replaced).as_dict() == delta_w(cycle_config(d, layout=finest)).as_dict()
    assert chamber_distribution(replaced, component_states(d)) == chamber_distribution(
        cycle_config(d, layout=finest), component_states(d)
    )


def test_directly_built_config_checks_its_layout_on_first_use():
    bad = MembraneLayout("x", (((0, 1),),) * 3)
    expected = raises_message(lambda: check_layout(bad, 3))
    cfg = CycleConfig(d=3, priors=np.full(3, 1.0 / 3.0), basis=np.eye(3, dtype=complex), layout=bad)
    assert raises_message(lambda: delta_w(cfg)) == expected
    assert raises_message(lambda: chamber_distribution(cfg, component_states(3))) == expected


@pytest.mark.parametrize(
    "layout, value",
    [
        (MembraneLayout("x", (((0.5, 1, 2.9),),) * 3), 0.5),
        (MembraneLayout("x", (((0, 1), (2.0,)),) * 3), 2.0),
        (MembraneLayout("x", (((0, 1), ("2",)),) * 3), "2"),
        (MembraneLayout("x", (((0, 1), (2,)),) * 3, singletons=(2.7, 2, 2)), 2.7),
        (MembraneLayout("x", (((0, 1), (2,)),) * 3, singletons=(2, np.float64(2.0), 2)), np.float64(2.0)),
    ],
)
def test_layout_members_must_be_integers(layout, value):
    assert raises_message(lambda: check_layout(layout, 3)) == f"layout member {value!r} is not an integer"


def test_layout_accepts_numpy_integers():
    d = 5
    plain = MembraneLayout.symmetric_preset(d)
    as_numpy = MembraneLayout(
        "symmetric",
        tuple(tuple(np.array(g, dtype=np.int64) for g in groups) for groups in plain.groups),
        tuple(np.int32(s) for s in plain.singletons),
    )
    a, b = cycle._layout_plan(plain, d), cycle._layout_plan(as_numpy, d)
    assert a.chambers == b.chambers
    for field in ("members", "starts", "filled", "singletons"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31, 61])
def test_component_is_the_pair_certainty_operator(d):
    for i, rho in enumerate(component_states(d)):
        op = certainty_operator(mub_pair_ensemble(d, "z", 0, i, i))
        assert rho.tobytes() == op.tobytes()
        if d == 2:
            assert rho.tobytes() == certainty_operator(pauli_pair_ensemble("z", "x", (i, i))).tobytes()


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("d", [2, 3, 31])
def test_components_are_built_by_the_certainty_operator_from_projectors(monkeypatch, d):
    expected = [rho.tobytes() for rho in component_states(d)]
    operators = count_calls(monkeypatch, cycle, "certainty_operator")
    projectors = count_calls(monkeypatch, cycle, "_outer")
    assert [rho.tobytes() for rho in component_states(d)] == expected
    assert (len(operators), len(projectors)) == (d, 2 * d)
    # one component alone builds one operator
    assert cycle.component_state(d, d - 1).tobytes() == expected[-1]
    assert (len(operators), len(projectors)) == (d + 1, 2 * d + 2)


@pytest.mark.parametrize(
    "gamma",
    [np.pi / 2, np.pi - 2e-9, np.pi - 1e-10, np.pi - 1e-13, np.pi],
    ids=["pi/2", "pi-2e-9", "pi-1e-10", "pi-1e-13", "pi"],
)
def test_bound_gamma_decides_degeneracy_as_pair_certainty(capsys, gamma):
    assert main(["bound", "--gamma", repr(gamma)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    m = np.array([0.0, 0.0, 1.0])
    n = np.array([np.sin(gamma), 0.0, np.cos(gamma)])
    assert payload["degenerate"] is qubit.pair_certainty(m, n).degenerate
    zeta = qubit.pair_bound(gamma)
    assert payload["zeta"] == zeta
    assert payload["weighted_zeta"] == zeta / 2.0


def test_pair_certainty_and_bound_gamma_share_one_predicate(capsys):
    with mock.patch.object(qubit, "_degenerate_pair", wraps=qubit._degenerate_pair) as spy:
        qubit.pair_certainty([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        assert main(["bound", "--gamma", "1"]) == 0
    capsys.readouterr()
    assert spy.call_count == 2


def test_verification_tolerance_has_one_default():
    parsed = build_parser().parse_args(["mub", "3"]).tol
    assert inspect.signature(verify_mub).parameters["tol"].default == parsed == ROUNDOFF_TOL
