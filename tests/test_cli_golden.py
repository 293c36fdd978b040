"""SHA-256 of stdout for the CLI commands that the other golden tables leave out.

The digests were recorded before the package began loading its submodules on
first use and before ``scan-alpha`` built its quadrature grid once per call;
the three ``cycle`` runs with non-uniform priors or the symmetric layout were
recorded before the standard cycle of each d became one record. Each of
these changes must leave every byte of these outputs as it was.
"""

import hashlib

import pytest

from finecert.cli import main

CLI_GOLDEN = {
    ("scan-alpha", "--steps", "1001", "--csv"): (
        "4f8a2375ab8d6f8621c6a0de8c44197aea1aac4c94324a2f7edadde835ebf140"
    ),
    ("scan-alpha", "--steps", "7"): (
        "bc2b07bdb10a0cb52bf271dbe7797e8a49c4002b00ca119f0ec3db8e4355dd1a"
    ),
    ("cycle", "--d", "31"): "64d090bc81a247f329ac03d676fb313df71e2b7d01cc302c27022ad308fe06c3",
    ("cycle", "--d", "3", "--basis", "random", "--samples", "20", "--seed", "5"): (
        "f568643b052380206c6438a49d0217254a8293aaeaba90a225ea46d3ed548688"
    ),
    ("cycle", "--d", "3", "--priors", "0.5", "0.25", "0.25"): (
        "e9376ce1fd77a48ad417e778b6c076fade60ed6574f59d0fb0f2ffbb71e44233"
    ),
    ("cycle", "--d", "5", "--layout", "symmetric", "--samples", "4", "--per-sample"): (
        "9890a6f4b30dc9a41c681e762d8edf1a0b616f1fdbcd842d6064e55b94191812"
    ),
    ("cycle", "--d", "7", "--layout", "symmetric"): (
        "8cb76db027a6754c3b5387b352a5c0e271cd62b581cffb565cbe942de036a211"
    ),
    # single random-basis runs, recorded while the generator was still seeded
    # through an explicit SeedSequence
    ("cycle", "--d", "3", "--basis", "random", "--seed", "42"): (
        "23515438a0dd422939ce6ab905bab954f49d7dcea12ecfb45372dfdc65b07397"
    ),
    ("cycle", "--d", "31", "--basis", "random", "--seed", "7", "--layout", "symmetric"): (
        "6aea3871f32ab50d1b176fd2d77770575a5eb5bf7b044cd8b6a5ab951adf1349"
    ),
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden_hash(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[argv]


#: The scan-d31 operation, whose residual depends on memory layout at d >= 13;
#: recorded before the sampler left ``cycle``.
SCAN_D31 = ("cycle", "--d", "31", "--samples", "3", "--seed", "1", "--per-sample")


def test_scan_d31_output_matches_golden_hash(capsys):
    assert main(list(SCAN_D31)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9f63aa61cf8caad60395af3ae80d2ea2876cf971ac6c71288e7a3dcaaf4cb1f1"
    )
