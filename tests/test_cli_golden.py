"""SHA-256 of stdout for the CLI commands that the other golden tables leave out.

The digests were recorded before the package began loading its submodules on
first use and before ``scan-alpha`` built its quadrature grid once per call;
both changes must leave every byte of these outputs as it was.
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
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden_hash(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[argv]
