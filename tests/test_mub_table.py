"""The roots-of-unity construction against per-vector references.

Every MUB amplitude is looked up in one table of d-th roots; these tests pin
that the bytes equal the per-vector evaluation of the quadratic phase, that
pair ensembles built from two vectors equal those cut from a whole family,
and that every label and outcome error keeps its message.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finecert import bounds, cycle, mub
from finecert.cli import main

ODD_PRIMES = [p for p in range(3, 62) if mub.is_prime(p)]


def reference_vector(d, k, j):
    """Vector j of quadratic basis k, evaluated on its own with plain numpy."""
    l = np.arange(d)
    exponent = (k * l * l - 2 * j * l) % d
    return np.exp(2j * np.pi * exponent / d) / np.sqrt(d)


@pytest.mark.parametrize("d", ODD_PRIMES)
def test_family_bytes_equal_per_vector_reference(d):
    expected = np.empty((d + 1, d, d), dtype=complex)
    expected[0] = np.eye(d, dtype=complex)
    for k in range(d):
        for j in range(d):
            expected[1 + k, j] = reference_vector(d, k, j)
    assert mub.mub_family(d).bases.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [3, 31, 61])
def test_vector_and_basis_bytes_equal_family_rows(d):
    bases = mub.mub_family(d).bases
    for k in (0, 1, d - 1):
        assert mub.quadratic_basis(d, k).tobytes() == bases[1 + k].tobytes()
        for j in (0, d // 2, d - 1):
            assert mub.mub_vector(d, k, j).tobytes() == bases[1 + k, j].tobytes()


@st.composite
def pair_choices(draw):
    d = draw(st.sampled_from(ODD_PRIMES))
    labels = ["z"] + list(range(d))
    a, b = draw(st.lists(st.integers(0, d), min_size=2, max_size=2, unique=True))
    j1, j2 = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    return d, labels[a], labels[b], j1, j2


@settings(max_examples=60, deadline=None)
@given(pair_choices())
def test_pair_ensemble_projectors_equal_family_outer_products(choice):
    d, k1, k2, j1, j2 = choice
    family = mub.mub_family(d)
    ens = bounds.mub_pair_ensemble(d, k1, k2, j1, j2)
    for term, (k, j) in zip(ens.terms, ((k1, j1), (k2, j2))):
        v = family.vector(k, j)
        assert term.label == f"{k}:{j}"
        assert term.weight == 0.5
        assert term.projector.tobytes() == np.outer(v, v.conj()).tobytes()


SAME = ("the two bases must differ; same-basis outcomes are either identical "
        "or orthogonal and carry no pair bound")
PRIME_MSG = "d must be prime (got {})"

#: (arguments of mub_pair_ensemble, message), recorded before the pair vectors
#: stopped being cut from a whole family.
PAIR_ERRORS = [
    ((5, "w", 0, 0, 0), "unknown basis label 'w'; use 'z' or 0..4"),
    ((5, "z", "y", 0, 0), "unknown basis label 'y'; use 'z' or 0..4"),
    ((5, 5, 0, 0, 0), "basis label 5 outside 0..4"),
    ((5, "z", -1, 0, 0), "basis label -1 outside 0..4"),
    ((5, "z", "z", 0, 0), SAME),
    ((5, 2, 2, 0, 0), SAME),
    ((5, "Z", "z", 0, 0), SAME),
    ((5, 1, 1, 9, 0), SAME),
    ((5, "z", 0, 5, 0), "outcome index j=5 outside 0..4"),
    ((5, "z", 0, 0, -1), "outcome index j=-1 outside 0..4"),
    ((5, 7, 7, 9, 9), "basis label 7 outside 0..4"),
    ((5, "z", 0, 7, 8), "outcome index j=7 outside 0..4"),
    ((4, "z", 0, 0, 0), PRIME_MSG.format(4)),
    ((1, "z", 0, 0, 0), PRIME_MSG.format(1)),
    ((67, "z", 0, 0, 0), "d=67 exceeds the supported maximum 64"),
    ((2, "z", 1, 0, 0), "d=2 supports basis labels 'z' and 0 only (got 1)"),
    ((2, "z", "z", 0, 0), SAME),
    ((2, "z", 0, 2, 0), "outcome index 2 outside 0..1"),
    # recorded later, when d = 2 text labels and a non-prime d got these messages
    ((2, "z", "x", 0, 0), "d=2 supports basis labels 'z' and 0 only (got 'x')"),
    ((2, "x", 0, 0, 0), "d=2 supports basis labels 'z' and 0 only (got 'x')"),
    ((2, "z", "0", 0, 0), "d=2 supports basis labels 'z' and 0 only (got '0')"),
    ((9, "z", 0, 0, 0), PRIME_MSG.format(9)),
    # recorded when float labels and outcomes stopped being truncated by int()
    ((5, "z", 2.9, 0, 1.5), "basis label 2.9 is not an integer"),
    ((5, 2.0, "z", 0, 0), "basis label 2.0 is not an integer"),
    ((5, "z", 2, 0, 1.5), "outcome index 1.5 is not an integer"),
    ((5, "z", 2, 3.0, 0), "outcome index 3.0 is not an integer"),
    ((2, "z", 0.0, 0, 0), "basis label 0.0 is not an integer"),
    ((2, "z", 0, 0, 1.0), "outcome index 1.0 is not an integer"),
]

#: (label, outcome, message) of MubFamily.vector at d = 5.
VECTOR_ERRORS = [
    ("q", 0, "unknown basis label 'q'; use 'z' or 0..4"),
    (5, 0, "basis label 5 outside 0..4"),
    (-1, 0, "basis label -1 outside 0..4"),
    (0, 5, "outcome index j=5 outside 0..4"),
    ("z", -1, "outcome index j=-1 outside 0..4"),
    (9, 9, "outcome index j=9 outside 0..4"),
    (2.7, 0, "basis label 2.7 is not an integer"),
    (2, 1.2, "outcome index 1.2 is not an integer"),
    ("z", 0.0, "outcome index 0.0 is not an integer"),
]


@pytest.mark.parametrize("args, message", PAIR_ERRORS)
def test_pair_ensemble_error_messages_unchanged(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bounds.mub_pair_ensemble(*args)


@pytest.mark.parametrize("label, j, message", VECTOR_ERRORS)
def test_family_vector_error_messages_unchanged(label, j, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mub.mub_family(5).vector(label, j)


def test_quadratic_basis_validates_d_and_k():
    with pytest.raises(ValueError, match="odd prime"):
        mub.quadratic_basis(9, 0)
    with pytest.raises(ValueError, match="exceeds"):
        mub.quadratic_basis(67, 0)
    with pytest.raises(ValueError, match=re.escape("basis index k=5 outside 0..4")):
        mub.quadratic_basis(5, 5)


def test_float_indices_are_rejected_and_numpy_integers_pass():
    with pytest.raises(ValueError, match=re.escape("basis index 2.7 is not an integer")):
        mub.mub_vector(5, 2.7, 1.2)
    with pytest.raises(ValueError, match=re.escape("outcome index 1.2 is not an integer")):
        mub.mub_vector(5, 2, 1.2)
    with pytest.raises(ValueError, match=re.escape("basis index 1.0 is not an integer")):
        mub.quadratic_basis(5, 1.0)
    assert mub.mub_vector(5, np.int64(2), np.int16(1)).tobytes() == mub.mub_vector(5, 2, 1).tobytes()
    ens = bounds.mub_pair_ensemble(5, np.int32(1), np.int64(2), np.uint8(3), np.int8(4))
    assert [t.label for t in ens.terms] == ["1:3", "2:4"]
    qubit = bounds.mub_pair_ensemble(2, "z", np.int64(0), 0, np.int64(1))
    assert [t.label for t in qubit.terms] == ["z:0", "0:1"]


@pytest.mark.parametrize("d", [2, 3, 5, 31, 61])
def test_component_states_equal_per_vector_construction(d):
    for i, rho in enumerate(cycle.component_states(d)):
        v = np.array([1.0, 1.0 - 2.0 * i]) / np.sqrt(2.0) if d == 2 else reference_vector(d, 0, i)
        expected = np.zeros((d, d), dtype=complex)
        expected[i, i] = 0.5
        expected += 0.5 * np.outer(v, v.conj())
        assert rho.tobytes() == expected.tobytes()
        assert rho.tobytes() == cycle.component_state(d, i).tobytes()


def test_component_states_rejects_non_prime():
    for d in (0, 1, 4, 9):
        with pytest.raises(ValueError, match="prime"):
            cycle.component_states(d)


#: SHA-256 of the CLI's stdout, recorded before the roots table was introduced.
CLI_GOLDEN = {
    ("mub", "61", "--verify"): "184981bf8be77d2272379a117808254d99c22ab3c5b55614b923af588a01fa8a",
    ("bound", "--d", "61"): "6231e70e38f86169e86f7c41f05e7b6bd50da6155a8fe0ff2ae29e4009e16657",
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden_hash(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[argv]
