"""The CLI's exit-code contract, as a property over its argument grammar.

Hypothesis draws a subcommand with typed option values, well formed or not:
NaN, infinities, -0.0, negatives, huge seeds and dimensions, option lists
of the wrong length, unknown labels. ``cli.main`` runs in-process. Whatever
the arguments, it must end with exit status 0 (a payload on stdout), 2 (a
usage error from argparse) or 3 (one ``finecert <cmd>: `` line on stderr),
and no other exception may escape. Dimensions stay at or below 13 where
they are valid, and scans stay a few samples long, so a run takes seconds.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finecert.cli import main

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 1e-10, 0.5, 1.0, 1e308]),
    st.floats(-10.0, 10.0),
)
PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
DIMS = st.one_of(PRIMES, st.integers(-2, 13), st.sampled_from([64, 65, 67, 2**61 - 1, 10**30]))
COUNTS = st.one_of(st.integers(-1, 6), st.sampled_from([10**6 + 1, 10**12]))
SEEDS = st.one_of(st.integers(-3, 2**32), st.sampled_from([2**64, 2**200]))
#: A rarely given option: most draws leave it out, so more of them run.
RARELY = st.sampled_from([False, False, False, True])
LABELS = st.sampled_from(["z", "Z", "0", "1", "2", "12", "-1", "x", "1.5"])
AXES = st.sampled_from(["x", "y", "z", "X", "w", ""])


def option(name, value):
    # --name=value keeps a value such as -inf from reading as an option
    return [f"{name}={value}"]


def listed(name, values):
    return [name, *map(str, values)]


@st.composite
def mub_argv(draw):
    argv = ["mub", str(draw(DIMS))]
    if draw(st.booleans()):
        argv.append("--verify")
    if draw(st.booleans()):
        argv += option("--tol", draw(FLOATS))
    return argv


@st.composite
def bound_argv(draw):
    argv = ["bound"]
    mode = draw(st.sampled_from(["d", "pauli-pair", "pauli-triple", "gamma"]))
    if mode == "d":
        argv += option("--d", draw(DIMS))
    elif mode == "pauli-pair":
        argv += ["--pauli-pair", draw(AXES), draw(AXES)]
    elif mode == "pauli-triple":
        argv.append("--pauli-triple")
    elif mode == "gamma":
        argv += option("--gamma", draw(FLOATS))
    if draw(RARELY):
        argv += listed("--bases", draw(st.lists(LABELS, min_size=2, max_size=2)))
    if draw(RARELY):
        argv += listed("--outcomes", draw(st.lists(st.integers(-1, 13), max_size=4)))
    return argv


@st.composite
def scan_alpha_argv(draw):
    steps = draw(st.one_of(st.integers(-2, 40), st.sampled_from([10**5 + 1, 10**20])))
    argv = ["scan-alpha", *option("--steps", steps)]
    if draw(st.booleans()):
        argv.append("--csv")
    return argv


@st.composite
def cycle_argv(draw):
    argv = ["cycle", *option("--d", draw(DIMS))]
    basis = draw(st.sampled_from([None, "computational", "random", "random", "haar"]))
    if basis is not None:
        argv += option("--basis", basis)
    for name, values in (("--seed", SEEDS), ("--samples", COUNTS)):
        if draw(st.booleans()):
            argv += option(name, draw(values))
    if draw(st.booleans()):
        argv += option("--layout", draw(st.sampled_from(["paper", "symmetric", "symmetric", "ring"])))
    if draw(RARELY):
        argv += listed("--priors", draw(st.lists(FLOATS, max_size=4)))
    if draw(RARELY):
        argv += option("--counterfactual-zeta", draw(FLOATS))
    if draw(RARELY):
        argv.append("--per-sample")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(mub_argv(), bound_argv(), scan_alpha_argv(), cycle_argv()))
def test_every_argv_exits_0_2_or_3_with_its_documented_output(argv):
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 3:
        assert out == ""
        assert err.startswith(f"finecert {argv[0]}: ") and err.count("\n") == 1, (argv, err)
    elif code == 2:
        assert out == ""
    elif argv[0] == "scan-alpha" and "--csv" in argv:
        header, *rows = out.rstrip("\n").split("\n")
        assert header == "alpha,closed_form,quadrature"
        assert rows and all(all(map(math.isfinite, map(float, row.split(",")))) for row in rows)
        assert [len(row.split(",")) for row in rows] == [3] * len(rows)
    else:
        doc = json.loads(out, parse_constant=reject_constant)
        assert doc["status"] == "ok" and doc["command"] == argv[0]
