"""`render_json` against the recursive renderer it replaced.

`render_json` builds its output as one list of pieces and emits one piece per
array element. The renderer below is the one it replaced, copied verbatim:
every level rendered to its own string and joined into its parent's. On
nested payloads of dicts, lists, tuples, arrays and scalars both must give
the same bytes, or fail with the same message.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finecert import cli


# ---- the reference: the recursive renderer, copied verbatim --------------------


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".17g")


def _render_array(a: np.ndarray) -> str:
    """The bytes of ``render_json(a.tolist())``, complex entries as [re, im] lists."""
    is_complex = a.dtype.kind == "c"
    flat = np.ascontiguousarray(a, dtype=np.complex128 if is_complex else np.float64).reshape(-1)
    parts = flat.view(np.float64)  # C order, real part before imaginary part
    bad = parts[~np.isfinite(parts)]
    if bad.size:
        _format_float(float(bad[0]))  # raises the list path's message
    values, inverse = np.unique(flat, return_inverse=True)  # -0.0 == 0.0: one entry, "0"
    if is_complex:
        table = [f"[{_format_float(z.real)}, {_format_float(z.imag)}]" for z in values.tolist()]
    else:
        table = [_format_float(x) for x in values.tolist()]
    cells = np.array(table, dtype=object)[inverse].reshape(a.shape)
    while cells.ndim:
        *outer, n = cells.shape
        rows = cells.reshape(math.prod(outer), n).tolist()
        cells = np.array(["[" + ", ".join(row) + "]" for row in rows], dtype=object)
        cells = cells.reshape(outer)
    return cells.item()


def render_json(value) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Float and complex arrays are rendered in bulk (complex entries as [re, im]
    lists); other arrays go through ``tolist()``.
    """
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return _render_array(value)
        return render_json(value.tolist())
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    raise ValueError(f"cannot serialize {type(value).__name__} value {value!r}")


# ---- payloads --------------------------------------------------------------------

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 0.1, 1 / 3, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# zero-size axes, trailing axes of length 1 and 0-d arrays all occur
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


def view(a, how):
    """``a`` as given, transposed, or reversed along its first axis."""
    if how == "transposed":
        return a.T
    if how == "reversed" and a.ndim:
        return a[::-1]
    return a


def with_non_finite(a, bad, at):
    """``a`` with one entry replaced by a NaN or infinity (if it has any)."""
    a = a.copy()
    if a.size:
        a.flat[at % a.size] = bad
    return a


FLOAT_ARRAYS = hnp.arrays(np.float64, SHAPES, elements=FLOATS)
COMPLEX_ARRAYS = hnp.arrays(np.complex128, SHAPES, elements=st.builds(complex, FLOATS, FLOATS))
ARRAYS = st.builds(
    view,
    st.one_of(
        FLOAT_ARRAYS,
        COMPLEX_ARRAYS,
        hnp.arrays(np.float32, SHAPES, elements={"allow_nan": False, "allow_infinity": False}),
        hnp.arrays(np.int64, SHAPES),
        hnp.arrays(np.bool_, SHAPES),
        st.builds(with_non_finite, st.one_of(FLOAT_ARRAYS, COMPLEX_ARRAYS), NON_FINITE, st.integers(0, 80)),
    ),
    st.sampled_from(["as given", "transposed", "reversed"]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    st.text(),  # quotes, backslashes, control characters and non-ASCII need escapes
    FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    NON_FINITE,
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


def outcome(render, value):
    try:
        return render(value)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_render_json_matches_the_recursive_renderer(payload):
    assert outcome(cli.render_json, payload) == outcome(render_json, payload)


def test_mub_family_payload_matches_the_recursive_renderer():
    from finecert.mub import mub_family, verify_mub

    family = mub_family(7)
    payload = {"bases": family.bases, "verification": verify_mub(family).as_dict()}
    result = {"command": "mub", "payload": payload, "status": "ok"}
    assert cli.render_json(result) == render_json(result)
