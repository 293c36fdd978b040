"""A scan's per-sample substreams, derived in bulk, and the checks before a scan.

``scan_bases`` derives the PCG64 seed words of sample i without building
``SeedSequence(seed).spawn(n)[i]``; ``test_numpy_copies`` pins those words
to numpy's own. These tests pin the membrane bases a cold scan draws to
``haar_random_basis`` fed from numpy's spawned generators, and check that a
bad sample count, a bad seed or a huge prime dimension is rejected before
any work.
"""

import time
import tracemalloc

import numpy as np
import pytest

from finecert import cycle
from finecert.cli import main
from finecert.cycle import (
    MAX_SCAN_SAMPLES,
    MembraneLayout,
    cycle_config,
    delta_w,
    haar_random_basis,
    scan_bases,
)
from finecert.mub import _check_dim, is_prime
# collected here too, so this module keeps their test IDs
from test_numpy_copies import (  # noqa: F401
    test_child_seed_draws_as_default_rng,
    test_child_seed_holds_only_pcg64_words,
    test_child_states_at_word_boundaries,
    test_child_states_equal_spawned_seed_sequences,
)

TOL = 1e-12
MERSENNE_61 = 2**61 - 1


# ---------------------------------------------------------------- substreams


def scan_with_bases(monkeypatch, d, n, seed, layout):
    """A cold scan, with every stack of membrane bases it evaluates."""
    stacks = []
    kernel = cycle._cycle_kernel

    def spy(cyc, bases):
        stacks.append(bases.copy())
        return kernel(cyc, bases)

    cycle._standard_cycle.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(cycle, "_cycle_kernel", spy)
        report = scan_bases(d, n, seed, layout=layout, keep_samples=True)
    return report, stacks


@pytest.mark.parametrize(
    "d, n, seed, factory",
    [
        (2, 40, 3, "paper_preset"),
        (3, 64, 2**40 + 1, "symmetric_preset"),
        (3, 50, 0, "finest"),
        (31, 3, 7, "paper_preset"),
        (31, cycle._chunk_samples(31) + 2, 2**70, "symmetric_preset"),
        # five and six seed words: more than 16 hashes before the key word
        (3, 20, 2**128 + 5, "paper_preset"),
        (5, 12, 2**160 + 1, "symmetric_preset"),
    ],
)
def test_cold_scan_equals_numpy_spawned_reference(monkeypatch, d, n, seed, factory):
    layout = getattr(MembraneLayout, factory)(d)
    report, stacks = scan_with_bases(monkeypatch, d, n, seed, layout)
    assert len(stacks) == -(-n // cycle._chunk_samples(d))
    streams = np.random.SeedSequence(seed).spawn(n)
    reference = [haar_random_basis(d, np.random.default_rng(s)) for s in streams]
    assert np.array_equal(np.concatenate(stacks), np.stack(reference))
    singles = [delta_w(cycle_config(d, basis=basis, layout=layout)) for basis in reference]
    np.testing.assert_allclose(report.per_sample_delta_w, [r.delta_w for r in singles], rtol=0.0, atol=TOL)
    if layout.singletons is not None:
        assert report.outside_window_indices == tuple(k for k, r in enumerate(singles) if not r.in_window)
    assert report.seed == seed and type(report.seed) is int


def test_numpy_integer_seed_gives_the_int_seed_report():
    assert scan_bases(3, 5, np.uint64(9), keep_samples=True) == scan_bases(3, 5, 9, keep_samples=True)


# ---------------------------------------------------------------- scan arguments


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_cap_is_checked_before_any_allocation():
    message = f"n_samples=1000000000000 exceeds the supported maximum {MAX_SCAN_SAMPLES}"

    def call():
        with pytest.raises(ValueError, match=message):
            scan_bases(3, 10**12, 0)

    assert peak_bytes(call) < 1 << 20
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        scan_bases(3, MAX_SCAN_SAMPLES + 1, 0)


def forbid_samples(monkeypatch):
    """Make turning drawn normals into bases, which every scan chunk does, fail."""

    def no_bases(g):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(cycle, "_bases_from_normals", no_bases)


def test_sample_spy_fires_on_a_valid_scan(monkeypatch):
    forbid_samples(monkeypatch)
    with pytest.raises(AssertionError, match="a sample was drawn"):
        scan_bases(3, 4, 0)


@pytest.mark.parametrize("seed", [None, -1, -(2**70), 1.5, 2.0, "3", [1, 2]])
def test_bad_seed_is_rejected_before_any_sample(monkeypatch, seed):
    forbid_samples(monkeypatch)
    with pytest.raises(ValueError, match=r"seed must be a non-negative integer \(got "):
        scan_bases(3, 4, seed)


@pytest.mark.parametrize("n_samples", [2.9, 3.0, "3", None])
def test_non_integer_sample_count_is_rejected_not_truncated(monkeypatch, n_samples):
    forbid_samples(monkeypatch)
    with pytest.raises(ValueError) as info:
        scan_bases(3, n_samples, 0)
    assert str(info.value) == f"n_samples must be an integer (got {n_samples!r})"


def test_numpy_integer_sample_count_gives_the_int_count_report():
    report = scan_bases(3, np.int64(5), 9, keep_samples=True)
    assert report == scan_bases(3, 5, 9, keep_samples=True)
    assert type(report.n_samples) is int


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "1000000000000"], "n_samples=1000000000000 exceeds the supported maximum 1000000"),
        (["--samples", "4", "--seed", "-1"], "seed must be a non-negative integer (got -1)"),
        (["--samples", "4", "--counterfactual-zeta", "0.9"],
         "--counterfactual-zeta applies to a single cycle, not a scan"),
        (["--samples", "4", "--priors", "0.5", "0.25", "0.25"], "the basis scan uses uniform priors"),
    ],
)
def test_cli_scan_rejects_bad_samples_and_seed(capsys, argv, message):
    assert main(["cycle", "--d", "3", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"finecert cycle: {message}\n"


# ---------------------------------------------------------------- primality


def trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_equals_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the first nine prime bases
        318665857834031151167461,  # strong pseudoprime to the first twelve prime bases
        MERSENNE_61 * (2**31 - 1),
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [MERSENNE_61, 2**89 - 1, 2**107 - 1, 1000000007])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def expected_dim_message(d, qubit):
    if not trial_division(d) or (d == 2 and not qubit):
        if qubit:
            return f"d must be prime (got {d})"
        return f"d must be an odd prime (got {d}); for d=2 use the Pauli eigenbases provided by finecert.qubit"
    if d > 64:
        return f"d={d} exceeds the supported maximum 64"
    return None


@pytest.mark.parametrize("qubit", [False, True])
def test_dimension_messages_unchanged(qubit):
    for d in range(-5, 400):
        want = expected_dim_message(d, qubit)
        if want is None:
            assert _check_dim(d, qubit=qubit) == d
        else:
            with pytest.raises(ValueError) as info:
                _check_dim(d, qubit=qubit)
            assert str(info.value) == want


@pytest.mark.parametrize("command", [["mub", str(MERSENNE_61)], ["cycle", "--d", str(MERSENNE_61)]])
def test_cli_rejects_a_huge_prime_dimension_at_once(capsys, command):
    start = time.perf_counter()
    assert main(command) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"finecert {command[0]}: d={MERSENNE_61} exceeds the supported maximum 64\n"
