"""SHA-256 of stdout for the Pauli ``bound`` runs that no other golden table covers.

The digests were recorded while the two Pauli ensembles were still built
through ``measurement_ensemble``'s checked path, before they became one label
map over the package's equal-weight builder; the label map must leave every
byte of these outputs as it was. ``bound --pauli-triple`` and
``bound --pauli-pair x z`` are pinned in ``tests/test_render_bulk.py``.
"""

import hashlib

import pytest

from finecert.cli import main

CLI_GOLDEN = {
    ("bound", "--pauli-pair", "y", "x", "--outcomes", "1", "0"): (
        "2300f9e6cc94b34c8cf37c84ad7e3202d7757ffcd0defc839255cd116b4a5867"
    ),
    ("bound", "--pauli-pair", "z", "y"): (
        "ce28876f0ce0d4b4fc7c9a5575e2222dd47be132c034589c069bad586c15092d"
    ),
    ("bound", "--pauli-triple", "--outcomes", "1", "0", "1"): (
        "253a1fa591a29aeef7c36486ea4225edf0b2a17b0c7daa294955af40537fcd6f"
    ),
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden_hash(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[argv]
