"""README's library quickstart, run as written.

The python block under "Library quickstart" runs statement by statement. An
expression statement followed by a comment states its value, and the value
must read as that comment does: True or False exactly, a number rounded to
the digits shown (cut off there when the digits end in "..."), and a tuple
or list element by element.
"""

import ast
import os

import numpy as np
import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

#: The values the quickstart's comments state, in order.
STATED = [
    "True",
    "0.8535533905932737",
    "[0.7071, 0.0, 0.7071]",
    "3.1e-05",
    "(-0.08486..., False)",
    "0.0",
    "+0.1807",
    "-0.1205",
    "1.0e-15",
]


def quickstart() -> str:
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_quickstart(source: str) -> list:
    """Run ``source`` one statement at a time; return (code, stated text, value)
    for each expression statement that a comment follows on its last line."""
    lines = source.splitlines()
    namespace = {}
    stated = []
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        if isinstance(node, ast.Expr) and comment.startswith("#"):
            value = eval(compile(ast.Expression(node.value), README, "eval"), namespace)
            stated.append((ast.get_source_segment(source, node), comment[1:].strip(), value))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), README, "exec"), namespace)
    return stated


def reads_as(shown: str, value) -> bool:
    if shown[0] in "([":
        parts = [part.strip() for part in shown[1:-1].split(",")]
        return len(parts) == len(value) and all(map(reads_as, parts, value))
    if shown in ("True", "False"):
        return isinstance(value, (bool, np.bool_)) and bool(value) == (shown == "True")
    if shown.endswith("..."):
        return repr(float(value)).startswith(shown[:-3])
    mantissa, exponent, _ = shown.partition("e")
    style = f"{'+' if shown[0] == '+' else ''}.{len(mantissa.partition('.')[2])}{'e' if exponent else 'f'}"
    return format(float(value), style) == shown


@pytest.mark.parametrize(
    "shown, value, expected",
    [
        ("True", True, True),
        ("True", 1, False),
        ("False", np.bool_(False), True),
        ("0.8535533905932737", 0.8535533905932737, True),
        ("0.8535533905932737", 0.8535533905932738, False),
        ("3.1e-05", 3.106e-05, True),
        ("3.1e-05", 3.16e-05, False),
        ("1.0e-15", 9.992e-16, True),
        ("1.0e-15", 1.1e-15, False),
        ("+0.1807", 0.18071, True),
        ("+0.1807", -0.18071, False),
        ("-0.1205", -0.12046, True),
        ("-0.1205", -0.1204, False),
        ("0.0", 0.0, True),
        ("0.0", 0.06, False),
        ("(-0.08486..., False)", (-0.084863, False), True),
        ("(-0.08486..., False)", (-0.084869, True), False),
        ("(-0.08486..., False)", (-0.08487, False), False),
        ("[0.7071, 0.0, 0.7071]", np.array([0.70710678, 0.0, 0.70710678]), True),
        ("[0.7071, 0.0, 0.7071]", np.array([0.70710678, 0.0]), False),
    ],
)
def test_a_value_reads_as_its_comment_to_the_digits_shown(shown, value, expected):
    assert reads_as(shown, value) is expected


def test_quickstart_runs_and_every_stated_value_holds():
    stated = run_quickstart(quickstart())
    assert [shown for _, shown, _ in stated] == STATED
    assert [(code, shown, value) for code, shown, value in stated if not reads_as(shown, value)] == []
