"""The four CLI outputs that CI pins by digest agree in value on every OpenBLAS kernel.

The byte goldens hold on the kernel they were recorded with (OpenBLAS's
SkylakeX kernel, numpy's AVX-512 loops); another kernel rounds its GEMMs
differently and moves the last bits. What the goldens stand for holds on
every kernel, and this module checks it: each command runs in a child
process on the default kernel and under each ``OPENBLAS_CORETYPE`` whose
loaded core, read in the child, differs from every core already run
(OpenBLAS falls back without a word to another core for a type it will not
run on the CPU: on the AVX-512 AMD EPYC where the bounds below were
measured, it loads SkylakeX for Cooperlake and SapphireRapids, and Haswell
for Zen). Every number must agree with the reference:

- an O(1) value within ``ULPS`` units in the last place of the reference;
  the worst measured across the Katmai, Nehalem, Sandybridge and Haswell
  kernels was 32, on the cycle's delta W and histogram edges;
- a value that is itself roundoff (``ROUNDOFF_FIELDS``) within the absolute
  ``ROUNDOFF_FLOOR``; the worst measured was 8 eps, on the cycle's
  ``max_consistency_residual``;
- ``UNCOMPARED`` fields, the positions of a roundoff maximum, not at all:
  the kernel moves them (``mub 61 --verify``'s worst orthonormality entry
  is basis 50, row 60 on SkylakeX and basis 47, row 13 on Haswell).

Counts and indices must be equal (128 ulps of an integer below 2^45 is
less than 1), and so must every string, flag and null. The reference of
the three short commands is their recorded stdout; that of ``mub 61
--verify``, 10 MB, is the run on the default kernel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent

ULPS = 128
ROUNDOFF_FLOOR = 16 * np.finfo(float).eps
ROUNDOFF_FIELDS = {"max_orthonormality_deviation", "max_unbiasedness_deviation", "max_consistency_residual"}
UNCOMPARED = {"worst_orthonormality", "worst_unbiasedness"}

#: Each kernel of OpenBLAS 0.3.31's x86-64 build, and three types that fall back to one of them.
CORETYPES = ("Katmai", "Nehalem", "Sandybridge", "Haswell", "SkylakeX", "Cooperlake", "SapphireRapids", "Zen")

MUB = ("mub", "61", "--verify")

#: stdout on the recorded kernel, the bytes whose sha256 CI pins.
RECORDED = {
    ("bound", "--pauli-triple"): (
        '{"command": "bound", "parameters": {"mode": "pauli-triple", "outcomes": [0, 0, 0]}, "payload": '
        '{"zeta": 0.78867513459481264, "closed_form": 0.78867513459481287, "gap": 0.57735026918962573, '
        '"degenerate": false, "maximizer": [[0.88807383397711537, 0], [0.32505758367186793, '
        '0.32505758367186804]], "maximizer_bloch": [0.57735026918962551, 0.57735026918962562, '
        '0.57735026918962618]}, "provenance": "spectral; closed-form cross-check", "status": "ok"}'
    ),
    ("bound", "--pauli-pair", "x", "z"): (
        '{"command": "bound", "parameters": {"mode": "pauli-pair", "axes": ["x", "z"], "outcomes": [0, 0]}, '
        '"payload": {"zeta": 0.85355339059327373, "closed_form": 0.85355339059327373, "gap": '
        '0.70710678118654746, "degenerate": false, "maximizer": [[0.92387953251128674, 0], '
        '[0.38268343236508973, 0]], "maximizer_bloch": [0.70710678118654746, 0, 0.70710678118654746]}, '
        '"provenance": "spectral; closed-form cross-check", "status": "ok"}'
    ),
    ("cycle", "--d", "31", "--samples", "3", "--seed", "1", "--per-sample"): (
        '{"command": "cycle", "parameters": {"d": 31, "basis": "computational", "seed": 1, "samples": 3, '
        '"layout": "paper", "priors": null, "counterfactual_zeta": null, "per_sample": true}, "payload": '
        '{"d": 31, "seed": 1, "n_samples": 3, "layout": "paper", "zeta": 0.58980265101338747, "delta_w_min": '
        '0.77632574928799158, "delta_w_max": 0.78497615399755905, "delta_w_mean": 0.78119903775163524, '
        '"histogram": {"counts": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1], "edges": '
        '[0.77632574928799158, 0.77675826952346994, 0.77719078975894829, 0.77762330999442675, '
        '0.7780558302299051, 0.77848835046538345, 0.7789208707008618, 0.77935339093634015, '
        '0.77978591117181861, 0.78021843140729696, 0.78065095164277531, 0.78108347187825367, '
        '0.78151599211373202, 0.78194851234921048, 0.78238103258468883, 0.78281355282016718, '
        '0.78324607305564553, 0.78367859329112388, 0.78411111352660234, 0.78454363376208069, '
        '0.78497615399755905]}, "max_consistency_residual": 1.5210055437364645e-14, "max_singleton_excess": '
        '-0.44160386036915827, "n_in_window": 0, "in_window_delta_w_max": null, "outside_window_indices": [0,'
        ' 1, 2], "per_sample_delta_w": [0.77632574928799158, 0.7822952099693552, 0.78497615399755905]}, '
        '"provenance": "numerical scan", "status": "ok"}'
    ),
}

#: Prints the loaded core; unless that is one of the cores named in argv[2:],
#: then runs the commands in argv[1] and prints each one's stdout.
CHILD = """
import contextlib, io, json, sys
from blas_kernel import openblas_core
core = openblas_core()
print(core)
if core not in sys.argv[2:]:
    from finecert.cli import main
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        sys.stdout.write(out.getvalue())
"""


def run(coretype, skip):
    """The core loaded under ``coretype`` (None: the default), and the stdout
    of each command unless that core is in ``skip``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]),
               OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    commands = [MUB, *RECORDED]
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands), *skip],
                         env=env, capture_output=True, text=True, check=True).stdout
    core, *texts = out.split("\n")[:-1]
    return core, dict(zip(commands, texts))


def fields(value, path=()):
    """(key path, leaf) pairs of a parsed payload, each list of numbers as one float array."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from fields(item, (*path, key))
    elif isinstance(value, list) and (array := np.asarray(value)).dtype.kind in "iuf":
        yield path, array.astype(float)
    elif isinstance(value, list):
        for item in value:
            yield from fields(item, path)
    else:
        yield path, value


def differences(got: str, want: list) -> list:
    """The fields of the text ``got`` that leave their bound around the ``fields`` of ``want``."""
    found = []
    for (path, a), (key, b) in zip(fields(json.loads(got)), want, strict=True):
        assert path == key
        if path[-1] in UNCOMPARED:
            continue
        if isinstance(b, (int, float, np.ndarray)) and not isinstance(b, bool):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            bound = ROUNDOFF_FLOOR if path[-1] in ROUNDOFF_FIELDS else ULPS * np.spacing(np.abs(b))
            ok = a.shape == b.shape and bool(np.all(np.abs(a - b) <= bound))
        else:
            ok = type(a) is type(b) and a == b
        if not ok:
            found.append(("/".join(path), a, b))
    return found


def test_every_kernel_agrees_with_the_reference_values():
    core, default = run(None, [])
    runs = {core: default}
    for coretype in CORETYPES:
        core, texts = run(coretype, sorted(runs))
        if core not in runs:
            runs[core] = texts
    wanted = {**default, **RECORDED}
    reference = {command: list(fields(json.loads(text))) for command, text in wanted.items()}
    for core, texts in runs.items():
        for command, text in texts.items():
            if text != wanted[command]:  # the same bytes agree
                assert differences(text, reference[command]) == [], (core, command)
