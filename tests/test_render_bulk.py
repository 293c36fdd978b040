"""The bulk rendering of float and complex arrays against the list path.

`render_json` renders a float or complex `np.ndarray` by formatting each
distinct value once; these tests pin that the bytes equal those of rendering
the nested Python lists one float at a time (complex entries as [re, im]
lists), that non-finite values keep the list path's message, and that the
CLI's stdout is unchanged.
"""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finecert.cli import main, matrix_pairs, render_json, state_pairs

SPECIAL = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e16,
    1e17,
    -1e-30,
    1e30,
    0.1,
    1 / 3,
    sys.float_info.max,
    -sys.float_info.max,
]

FLOATS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-30, 30)),
)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)


def complex_pairs(c):
    """The nested [re, im] lists that complex array c stands for."""
    return np.stack((c.real, c.imag), axis=-1).tolist()


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, SHAPES, elements=FLOATS))
def test_real_array_matches_list_path(a):
    assert render_json(a) == render_json(a.tolist())
    assert render_json(a.T) == render_json(a.T.tolist())


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.float16, np.float32, np.longdouble]),
        SHAPES,
        elements={"allow_nan": False, "allow_infinity": False},
    )
)
def test_other_float_widths_match_list_path(a):
    assert render_json(a) == render_json(a.tolist())


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.complex128, SHAPES, elements=st.builds(complex, FLOATS, FLOATS)))
def test_complex_array_matches_pair_lists(c):
    assert render_json(c) == render_json(complex_pairs(c))
    assert render_json(c.T) == render_json(complex_pairs(c.T))


def test_complex_array_matches_pair_helpers():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    m[0, 0] = complex(-0.0, -0.0)
    m[1] = m[0]
    assert render_json(m) == render_json(matrix_pairs(m))
    assert render_json(m[2]) == render_json(state_pairs(m[2]))
    assert render_json(m.astype(np.complex64)) == render_json(matrix_pairs(m.astype(np.complex64)))


def test_empty_and_zero_dimensional_arrays():
    assert render_json(np.zeros((0,))) == "[]"
    assert render_json(np.zeros((2, 0, 3))) == "[[], []]"
    assert render_json(np.array(-0.0)) == "0"
    assert render_json(np.array(complex(0.5, -0.0))) == "[0.5, 0]"
    assert render_json(np.zeros((1, 0), dtype=complex)) == "[[]]"


def message(value):
    with pytest.raises(ValueError) as info:
        render_json(value)
    return str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [(0, 0), (1, 2), (2, 1)])
def test_non_finite_real_keeps_list_message(bad, index):
    a = np.arange(9.0).reshape(3, 3)
    a[index] = bad
    assert message(a) == message(a.tolist())
    assert "cannot be serialized" in message(a)


@pytest.mark.parametrize(
    "rows, first",
    [
        ([[1.0, -np.inf], [np.nan, np.inf]], "-inf"),
        ([[1.0, np.nan], [-np.inf, np.inf]], "nan"),
        ([[np.inf, 0.0], [-np.inf, np.nan]], "inf"),
    ],
)
def test_first_non_finite_value_in_c_order_is_reported(rows, first):
    a = np.array(rows)
    assert message(a) == message(rows) == f"non-finite value {first} cannot be serialized"


@pytest.mark.parametrize(
    "entries",
    [
        [complex(1, 0), complex(np.nan, 0)],
        [complex(1, np.inf), complex(np.nan, 0)],
        [complex(2, 3), complex(-np.inf, np.nan)],
        [complex(np.nan, -np.inf)],
        [complex(0, np.nan), complex(-np.inf, 0)],
    ],
)
def test_non_finite_complex_reports_real_part_first(entries):
    c = np.array(entries)
    assert message(c) == message(state_pairs(c))


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1, -2], [3, 4]]),
        np.array([0, 255], dtype=np.uint8),
        np.array([2**63 - 1], dtype=np.int64),
        np.array(7),
        np.array([[True, False]]),
        np.zeros((0, 2), dtype=int),
    ],
)
def test_int_and_bool_arrays_unchanged(a):
    assert render_json(a) == render_json(a.tolist())


def test_int_and_bool_arrays_render_as_json():
    assert render_json(np.array([[1, -2], [3, 4]])) == "[[1, -2], [3, 4]]"
    assert render_json(np.array([True, False])) == "[true, false]"


#: SHA-256 of the CLI's stdout, recorded before arrays were rendered in bulk.
CLI_GOLDEN = {
    ("mub", "3"): "ae40f41562ee3c86e39cbc00961a261e1ad2a560f2ff44a59dee769cea9b21d4",
    ("mub", "7"): "8c3d5d5d1553006c3c77c1d5597ff04f27eed151d35d51ebfcbfddf2035194a8",
    ("mub", "7", "--verify"): "29c8afae892b87ee1af6551d812a1a041631650fe2299e3b797a874809954ad0",
    ("bound", "--pauli-triple"): "6ac03553397ff0eafd674f72f75195155b9af7d2b6fde43afb3ecab276deff36",
    ("bound", "--pauli-pair", "x", "z"): (
        "ce7ebc34398b0b6cfe1f075e83730836d93b9d81f5053cb70a826153b7f8800f"
    ),
    ("bound", "--d", "7", "--bases", "1", "3", "--outcomes", "2", "5"): (
        "9505db4bbc1a124bc9ba9ce5edbb74a61564c2845f23e1a423c94b5a4947b454"
    ),
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden_hash(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[argv]
