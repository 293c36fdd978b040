"""One builder for the ensembles of the package's own rows.

``mub_pair_ensemble``, the cycle's components and the two Pauli builders make
their equal-weight ensembles without ``measurement_ensemble``'s checks, from
rows that ``mub`` and ``qubit`` built. These tests pin that each gives, term
by term, what the checked path gives for the same (label, weight, projector)
triples, down to the bytes of every projector and certainty operator, and
that both Pauli builders count their outcomes against their axes with one
message.
"""

import itertools

import pytest

from finecert import bounds, mub, qubit
from finecert.bounds import (
    certainty_operator,
    measurement_ensemble,
    mub_pair_ensemble,
    pauli_pair_ensemble,
    pauli_triple_ensemble,
)
from finecert.cycle import component_states
from finecert.numerics import projector

OUTCOME_PAIRS = list(itertools.product((0, 1), repeat=2))


def assert_same_ensemble(ens, reference):
    assert type(ens.dim) is int and ens.dim == reference.dim
    assert len(ens.terms) == len(reference.terms)
    for term, expected in zip(ens.terms, reference.terms):
        assert type(term.label) is str and term.label == expected.label
        assert type(term.weight) is float and term.weight == expected.weight
        assert term.projector.dtype == expected.projector.dtype
        assert term.projector.shape == expected.projector.shape
        assert term.projector.tobytes() == expected.projector.tobytes()
    assert certainty_operator(ens).tobytes() == certainty_operator(reference).tobytes()


def pauli_terms(axes, outcomes):
    weight = 1.0 / len(axes)
    return [(f"{a}:{o}", weight, qubit.pauli_outcome_projector(a, o)) for a, o in zip(axes, outcomes)]


@pytest.mark.parametrize("axes", list(itertools.permutations("xyz", 2)) + [("X", "z")], ids="".join)
def test_pauli_pair_matches_the_checked_path(axes):
    for outcomes in OUTCOME_PAIRS:
        ens = pauli_pair_ensemble(*axes, outcomes)
        assert_same_ensemble(ens, measurement_ensemble(pauli_terms(axes, outcomes)))
        assert [t.label for t in ens.terms] == [f"{a}:{o}" for a, o in zip(axes, outcomes)]


def test_pauli_triple_matches_the_checked_path():
    for outcomes in itertools.product((0, 1), repeat=3):
        ens = pauli_triple_ensemble(outcomes)
        assert_same_ensemble(ens, measurement_ensemble(pauli_terms("xyz", outcomes)))
        assert all(t.weight == 1.0 / 3.0 for t in ens.terms)


def pair_vector(d, label, j):
    """Vector j of basis ``label``: the family's row, or at d = 2 the Pauli z or x eigenvector."""
    if d == 2:
        return qubit.pauli_eigenbasis("z" if label == "z" else "x")[j]
    return mub.mub_family(d).vector(label, j)


@pytest.mark.parametrize("d", [2, 3, 5, 13, 61])
def test_mub_pair_matches_the_checked_path(d):
    # a bounded sample: every ordered pair of four labels at three outcome pairs
    labels = ["z", 0] if d == 2 else ["z", 0, d // 2, d - 1]
    outcomes = [(0, 0), (1, d - 1), (d - 1, d // 2)]
    for (k1, k2), (j1, j2) in itertools.product(itertools.permutations(labels, 2), outcomes):
        reference = measurement_ensemble(
            [(f"{k}:{j}", 0.5, projector(pair_vector(d, k, j))) for k, j in ((k1, j1), (k2, j2))]
        )
        assert_same_ensemble(mub_pair_ensemble(d, k1, k2, j1, j2), reference)


@pytest.mark.parametrize("d", [2, 3, 7, 31])
def test_components_match_the_checked_path(d):
    for i, rho in enumerate(component_states(d)):
        reference = measurement_ensemble(
            [(f"{k}:{i}", 0.5, projector(pair_vector(d, k, i))) for k in ("z", 0)]
        )
        assert rho.tobytes() == certainty_operator(reference).tobytes()


def test_no_builder_of_the_package_calls_the_checked_path(monkeypatch):
    calls = []
    monkeypatch.setattr(bounds, "measurement_ensemble", lambda terms: calls.append(terms))
    pauli_pair_ensemble("y", "x", (1, 0))
    pauli_triple_ensemble((1, 0, 1))
    mub_pair_ensemble(5, 1, 3, 2, 4)
    component_states(3)
    assert calls == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pauli_pair_ensemble("x", "z", (0,)), "need one outcome for each of the axes x, z"),
        (lambda: pauli_pair_ensemble("x", "z", (0, 1, 1)), "need one outcome for each of the axes x, z"),
        (lambda: pauli_pair_ensemble("Y", "z", ()), "need one outcome for each of the axes Y, z"),
        (lambda: pauli_triple_ensemble((0, 1)), "need one outcome for each of the axes x, y, z"),
        (lambda: pauli_triple_ensemble((0, 1, 1, 0)), "need one outcome for each of the axes x, y, z"),
        # the pair's axes are compared first, then each outcome is read, then their count
        (lambda: pauli_pair_ensemble("x", "X", (0,)), "the two Pauli measurements must differ"),
        (lambda: pauli_pair_ensemble("x", "z", (0, 0.5, 1)), "outcome 0.5 is not an integer"),
        (lambda: pauli_pair_ensemble("x", "z", (0, 2)), "outcome must be 0 or 1 (got 2)"),
    ],
    ids=["pair-one", "pair-three", "pair-none-as-given", "triple-two", "triple-four",
         "pair-same-axis-first", "pair-integers-before-count", "pair-outcome-range"],
)
def test_both_pauli_builders_count_outcomes_against_their_axes(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

