import json
import time

import numpy as np
import pytest

from finecert.cli import MAX_ALPHA_STEPS, main, render_json
from finecert.cycle import MAX_SCAN_SAMPLES
from finecert.numerics import MAX_DIM


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mub_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "mub", "3", "--verify", "--tol", "1e-10")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["labels"] == ["z", "0", "1", "2"]
    assert len(doc["payload"]["bases"]) == 4
    assert doc["payload"]["verification"]["passed"] is True
    # amplitudes are [re, im] pairs
    amp = doc["payload"]["bases"][1][0][0]
    assert isinstance(amp, list) and len(amp) == 2


def test_mub_rejects_non_odd_prime(capsys):
    code, out, err = run_cli(capsys, "mub", "4")
    assert code == 3
    assert out == ""
    assert "d must be an odd prime" in err


def test_mub_emits_all_bases(capsys):
    code, out, _ = run_cli(capsys, "mub", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["payload"]["bases"]) == 6


def test_bound_pauli_pair(capsys):
    code, out, _ = run_cli(capsys, "bound", "--pauli-pair", "x", "z")
    assert code == 0
    doc = json.loads(out)
    zeta = doc["payload"]["zeta"]
    assert zeta == 0.5 + 0.5 / np.sqrt(2.0)  # 17 significant digits round-trip
    np.testing.assert_allclose(
        doc["payload"]["maximizer_bloch"], np.array([1, 0, 1]) / np.sqrt(2), atol=1e-9
    )


def test_bound_mub_pair_d7(capsys):
    code, out, _ = run_cli(capsys, "bound", "--d", "7")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["payload"]["zeta"] - (0.5 + 0.5 / np.sqrt(7))) <= 1e-10
    assert abs(doc["payload"]["zeta"] - doc["payload"]["closed_form"]) <= 1e-10


def test_bound_pauli_triple(capsys):
    code, out, _ = run_cli(capsys, "bound", "--pauli-triple")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["payload"]["zeta"] - (0.5 + 0.5 / np.sqrt(3))) <= 1e-12
    np.testing.assert_allclose(
        doc["payload"]["maximizer_bloch"], np.full(3, 1 / np.sqrt(3)), atol=1e-9
    )


def test_bound_gamma(capsys):
    code, out, _ = run_cli(capsys, "bound", "--gamma", str(np.pi / 2))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["payload"]["zeta"] - (1 + 1 / np.sqrt(2))) <= 1e-12


def test_bound_conflicting_modes_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bound", "--d", "3", "--pauli-triple"])
    assert info.value.code == 2


def test_bound_bad_dimension(capsys):
    code, _, err = run_cli(capsys, "bound", "--d", "6")
    assert code == 3
    assert "prime" in err


def test_scan_alpha_grid(capsys):
    code, out, _ = run_cli(capsys, "scan-alpha", "--steps", "5")
    assert code == 0
    doc = json.loads(out)
    rows = doc["payload"]["rows"]
    alphas = [r[0] for r in rows]
    np.testing.assert_allclose(alphas, [0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi], atol=1e-15)
    mid = rows[2]
    assert abs(mid[1] - (1 + 1 / np.pi)) <= 1e-12
    assert doc["payload"]["max_abs_difference"] <= 1e-8


def test_scan_alpha_csv(capsys):
    code, out, _ = run_cli(capsys, "scan-alpha", "--steps", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,closed_form,quadrature"
    assert len(lines) == 4


def test_scan_alpha_caps_steps_before_building_rows(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    code, out, err = run_cli(capsys, "scan-alpha", "--steps", str(MAX_ALPHA_STEPS + 1))
    assert code == 3 and out == ""
    assert err == f"finecert scan-alpha: --steps must be <= {MAX_ALPHA_STEPS} (got {MAX_ALPHA_STEPS + 1})\n"
    code, out, err = run_cli(capsys, "scan-alpha", "--steps", "1")
    assert code == 3 and out == ""
    assert err == "finecert scan-alpha: --steps must be >= 2 (got 1)\n"


def test_cycle_computational(capsys):
    code, out, _ = run_cli(capsys, "cycle", "--d", "3", "--basis", "computational")
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["delta_w"] < 0.0
    assert payload["consistency_residual"] <= 1e-9
    assert payload["counterfactual"] is False


def test_cycle_scan(capsys):
    code, out, _ = run_cli(capsys, "cycle", "--d", "3", "--samples", "1000", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["n_samples"] == 1000
    assert payload["max_consistency_residual"] <= 1e-9
    assert payload["max_singleton_excess"] <= 1e-10


def test_cycle_counterfactual(capsys):
    code, out, _ = run_cli(capsys, "cycle", "--d", "3", "--counterfactual-zeta", "0.9")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["counterfactual"] is True
    assert payload["counterfactual_delta_w"] > 0.0


def test_cycle_nonuniform_priors_counterfactual_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "cycle", "--d", "3", "--priors", "0.5", "0.3", "0.2", "--counterfactual-zeta", "0.9",
    )
    assert code == 3
    assert "uniform priors" in err


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "cycle", "--d", "3", "--basis", "random", "--seed", "11")
    second = run_cli(capsys, "cycle", "--d", "3", "--basis", "random", "--seed", "11")
    assert first == second
    third = run_cli(capsys, "cycle", "--d", "3", "--basis", "random", "--seed", "12")
    assert third[1] != first[1]


def test_json_round_trip_stability(capsys):
    for argv in (
        ["bound", "--pauli-pair", "x", "z"],
        ["mub", "3", "--verify"],
        ["cycle", "--d", "5", "--basis", "random", "--seed", "3"],
        ["scan-alpha", "--steps", "7"],
    ):
        _, out, _ = run_cli(capsys, *argv)
        parsed = json.loads(out)
        assert json.loads(render_json(parsed)) == parsed


def test_render_json_formats():
    assert render_json({"a": 1, "b": None, "c": True}) == '{"a": 1, "b": null, "c": true}'
    assert render_json(0.5) == "0.5"
    assert render_json([1.0, -0.0]) == "[1, 0]"
    value = 0.1234567890123456789
    assert json.loads(render_json(value)) == value
    with pytest.raises(ValueError, match=r"^cannot serialize set value \{1\}$"):
        render_json({"a": {1}})


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_mub_non_finite_tolerance_is_invalid_parameter(capsys, tol):
    code, out, err = run_cli(capsys, "mub", "3", "--verify", "--tol", tol)
    assert code == 3
    assert out == ""
    assert "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cycle_non_positive_samples_is_invalid_parameter(capsys, samples):
    code, out, err = run_cli(capsys, "cycle", "--d", "3", "--samples", samples)
    assert code == 3
    assert out == ""
    assert "--samples" in err
    assert "Traceback" not in err


def test_mub_negative_tolerance_is_invalid_parameter(capsys):
    code, out, err = run_cli(capsys, "mub", "3", "--verify", "--tol", "-1")
    assert code == 3
    assert out == ""
    assert "non-negative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol, message", [
    ("-1", "tolerance must be non-negative (got -1.0)"),
    ("nan", "tolerance must be finite (got nan)"),
    ("inf", "tolerance must be finite (got inf)"),
])
def test_mub_tolerance_is_checked_without_verify(capsys, tol, message):
    code, out, err = run_cli(capsys, "mub", "3", "--tol", tol)
    assert code == 3
    assert out == ""
    assert err == f"finecert mub: {message}\n"


# an option that the run does not read is rejected, not ignored
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--per-sample"], "--per-sample applies to a scan (--samples above 1), not a single cycle"),
        (["--samples", "1", "--per-sample"],
         "--per-sample applies to a scan (--samples above 1), not a single cycle"),
        (["--samples", "4", "--basis", "computational"],
         "--basis computational applies to a single cycle, not a scan"),
    ],
    ids=["single-per-sample", "one-sample-per-sample", "scan-computational"],
)
def test_cycle_rejects_options_the_run_does_not_read(capsys, argv, message):
    code, out, err = run_cli(capsys, "cycle", "--d", "3", *argv)
    assert code == 3
    assert out == ""
    assert err == f"finecert cycle: {message}\n"


def test_cycle_scan_echoes_its_basis(capsys):
    # a scan draws the same random bases either way; given no --basis it
    # echoes the single run's default label
    docs = []
    for argv in ([], ["--basis", "random"]):
        code, out, _ = run_cli(capsys, "cycle", "--d", "3", "--samples", "4", "--seed", "5", *argv)
        assert code == 0
        docs.append(json.loads(out))
    assert [doc["parameters"]["basis"] for doc in docs] == ["computational", "random"]
    assert docs[0]["payload"] == docs[1]["payload"]


# the seed is checked for the computational basis too, which draws nothing
@pytest.mark.parametrize(
    "samples, basis",
    [("1", "random"), ("4", "random"), ("1", "computational")],
    ids=["1", "4", "1-computational"],
)
def test_negative_seed_has_one_message_for_single_runs_and_scans(capsys, samples, basis):
    code, out, err = run_cli(
        capsys, "cycle", "--d", "3", "--basis", basis, "--seed", "-1", "--samples", samples
    )
    assert code == 3
    assert out == ""
    assert err == "finecert cycle: seed must be a non-negative integer (got -1)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--pauli-triple", "--outcomes", "0", "0"], "--pauli-triple takes exactly three outcomes"),
        (["--pauli-pair", "x", "z", "--outcomes", "0"], "--pauli-pair takes exactly two outcomes"),
        (["--d", "5", "--outcomes", "1", "2", "3"], "--d mode takes exactly two outcomes"),
        (["--d", "1"], "d must be prime (got 1)"),
        (["--d", "4"], "d must be prime (got 4)"),
        (["--d", "3", "--bases", "x", "0"], "unknown basis label 'x'; use 'z' or 0..2"),
        (["--d", "2", "--bases", "z", "x"], "d=2 supports basis labels 'z' and 0 only (got 'x')"),
        (["--d", "9"], "d must be prime (got 9)"),
        # an option that the mode does not read is rejected, not ignored
        (["--gamma", "1", "--outcomes", "7"], "--gamma takes no --outcomes"),
        (["--gamma", "1", "--bases", "0", "1"], "--bases applies to --d mode only"),
        (["--pauli-triple", "--bases", "z", "0"], "--bases applies to --d mode only"),
        (["--pauli-pair", "x", "z", "--bases", "z", "0"], "--bases applies to --d mode only"),
    ],
)
def test_bound_error_messages(capsys, argv, message):
    # the ensemble is checked before the closed form, so --d is checked by mub,
    # which takes d = 2 here and gives a non-prime d the cycle's message
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 3
    assert out == ""
    assert err == f"finecert bound: {message}\n"


def test_bound_pauli_pair_of_one_axis_in_two_cases_is_rejected(capsys):
    code, out, err = run_cli(capsys, "bound", "--pauli-pair", "X", "x")
    assert code == 3
    assert out == ""
    assert err == "finecert bound: the two Pauli measurements must differ\n"


def help_text(capsys, *command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping


@pytest.mark.parametrize(
    "command, phrase",
    [
        (["mub"], f"odd prime dimension, at most {MAX_DIM}"),
        (["bound"], f"unbiased-basis pair in prime dimension d, at most {MAX_DIM}"),
        (["cycle"], f"prime dimension, at most {MAX_DIM}"),
        (["cycle"], f"number of random bases, at most {MAX_SCAN_SAMPLES}"),
    ],
    ids=["mub-d", "bound-d", "cycle-d", "cycle-samples"],
)
def test_help_names_each_cap(capsys, command, phrase):
    assert phrase in help_text(capsys, *command)


@pytest.mark.parametrize(
    "argv",
    [
        ["mub", str(MAX_DIM + 1), "--verify"],
        ["bound", "--d", str(MAX_DIM + 1)],
        ["cycle", "--d", str(MAX_DIM + 1), "--samples", "4"],
        ["cycle", "--d", "3", "--samples", str(MAX_SCAN_SAMPLES + 1)],
    ],
    ids=["mub-d", "bound-d", "cycle-d", "cycle-samples"],
)
def test_one_past_each_cap_exits_3_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith(f"finecert {argv[0]}: ") and err.count("\n") == 1
