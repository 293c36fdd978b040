import numpy as np
import pytest

from finecert.numerics import (
    binary_entropy,
    check_density_matrix,
    hermitian_eig,
    projector,
    shannon_entropy,
    von_neumann_entropy,
)


def random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (z + z.conj().T)


def eig2x2_charpoly(m):
    """Independent 2x2 oracle: roots of the characteristic polynomial."""
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


def test_eig_identity():
    decomp = hermitian_eig(np.eye(3))
    np.testing.assert_allclose(decomp.values, [1.0, 1.0, 1.0], atol=1e-14)


def test_eig_sigma_x():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    decomp = hermitian_eig(sx)
    np.testing.assert_allclose(decomp.values, [-1.0, 1.0], atol=1e-14)


def test_eig_two_state_mixture_matches_charpoly_oracle():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    m = 0.5 * (projector([1.0, 0.0]) + projector(plus))
    expected = eig2x2_charpoly(m)
    # closed form (1 +- |<0|+>|)/2 = 0.5 -+ 1/(2 sqrt 2)
    np.testing.assert_allclose(expected, [0.1464466094067262, 0.8535533905932737], atol=1e-15)
    np.testing.assert_allclose(hermitian_eig(m).values, expected, atol=1e-12)


def test_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(bad)


def test_eig_rejects_oversized():
    with pytest.raises(ValueError, match="dimension"):
        hermitian_eig(np.eye(65))


def test_eig_reports_a_solver_that_does_not_converge(monkeypatch, capsys):
    from finecert.cli import main

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(ValueError) as info:
        hermitian_eig(np.eye(3))
    assert str(info.value) == (
        "eigensolver failed to converge (off-diagonal residual 0.000e+00): "
        "Eigenvalues did not converge"
    )
    assert main(["bound", "--d", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("finecert bound: eigensolver failed to converge (off-diagonal residual ")
    assert err.endswith("): Eigenvalues did not converge\n") and err.count("\n") == 1


def test_eig_deterministic():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 6)
    a = hermitian_eig(m)
    b = hermitian_eig(m.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eigenpair_residuals_and_trace():
    rng = np.random.default_rng(123)
    for _ in range(100):
        d = int(rng.integers(2, 14))
        m = random_hermitian(rng, d)
        decomp = hermitian_eig(m)
        assert np.all(np.diff(decomp.values) >= 0.0)
        residual = m @ decomp.vectors - decomp.vectors * decomp.values
        assert float(np.max(np.abs(residual))) <= 1e-9
        assert abs(float(np.trace(m).real) - float(decomp.values.sum())) <= 1e-9
        gram = decomp.vectors.conj().T @ decomp.vectors
        assert float(np.max(np.abs(gram - np.eye(d)))) <= 1e-10
        reconstructed = (decomp.vectors * decomp.values) @ decomp.vectors.conj().T
        assert float(np.max(np.abs(reconstructed - m))) <= 1e-10


def test_shannon_entropy_examples():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(shannon_entropy([1 / 3] * 3) - np.log2(3.0)) <= 1e-15
    p = 0.5 + 0.5 / np.sqrt(2.0)
    # direct evaluation of -sum p log2 p (the value is frozen from it)
    direct = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    assert shannon_entropy([p, 1 - p]) == direct
    assert abs(direct - 0.6008760366928562) <= 1e-15


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(ValueError, match="negative"):
        shannon_entropy([-0.1, 1.1])
    with pytest.raises(ValueError, match="sum"):
        shannon_entropy([0.5, 0.4])


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    p = 0.5 + 0.5 / np.sqrt(3.0)
    direct = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    assert abs(binary_entropy(p) - direct) == 0.0
    assert abs(direct - 0.7440075512490014) <= 1e-15
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(1.2)


def test_binary_entropy_matches_shannon_exactly():
    for p in np.linspace(0.0, 1.0, 101):
        assert binary_entropy(float(p)) == shannon_entropy([float(p), 1.0 - float(p)])


def test_binary_entropy_symmetry():
    for p in np.linspace(0.0, 0.5, 51):
        assert abs(binary_entropy(float(p)) - binary_entropy(1.0 - float(p))) <= 1e-15


def test_von_neumann_entropy_examples():
    assert von_neumann_entropy(projector([0.0, 1.0, 0.0])) <= 1e-12
    for d in (2, 3, 5):
        assert abs(von_neumann_entropy(np.eye(d) / d) - np.log2(d)) <= 1e-12
    # equal mixture of |0> and the uniform-amplitude state in d=3: the
    # spectrum of a two-pure-state mixture is ((1 +- |overlap|)/2, 0)
    u = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
    rho = 0.5 * (projector([1.0, 0.0, 0.0]) + projector(u))
    overlap = 1.0 / np.sqrt(3.0)
    expected = binary_entropy(0.5 + overlap / 2.0)
    assert abs(von_neumann_entropy(rho) - expected) <= 1e-12
    np.testing.assert_allclose(
        hermitian_eig(rho).values,
        [0.0, 0.5 - overlap / 2.0, 0.5 + overlap / 2.0],
        atol=1e-12,
    )


def test_von_neumann_entropy_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        lam = rng.random(d)
        lam /= lam.sum()
        u = hermitian_eig(random_hermitian(rng, d)).vectors
        rho = (u * lam) @ u.conj().T
        s0 = von_neumann_entropy(rho)
        v = hermitian_eig(random_hermitian(rng, d)).vectors
        assert abs(von_neumann_entropy(v @ rho @ v.conj().T) - s0) <= 1e-9


def test_projector_examples():
    np.testing.assert_allclose(projector([1.0, 0.0]), np.diag([1.0, 0.0]), atol=1e-15)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(projector(plus), np.full((2, 2), 0.5), atol=1e-15)
    # uniform-amplitude state in d=3: every entry of the projector has modulus 1/3
    w = np.exp(2j * np.pi / 3.0)
    v = np.array([1.0, w, w * w]) / np.sqrt(3.0)
    p = projector(v)
    np.testing.assert_allclose(np.abs(p), np.full((3, 3), 1.0 / 3.0), atol=1e-14)
    assert float(np.max(np.abs(p @ p - p))) <= 1e-10
    assert abs(float(np.trace(p).real) - 1.0) <= 1e-12


def test_projector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        projector([1.0, 1.0])


def test_density_matrix_validation():
    check_density_matrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_density_matrix(np.diag([1.5, -0.5]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hermitian_eig(np.ones((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
        (lambda: projector([np.nan, 1.0]), "state contains NaN or Inf entries"),
        (lambda: shannon_entropy([]), "empty probability list"),
    ],
    ids=["not-square", "non-finite-state", "empty-distribution"],
)
def test_malformed_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("p", [[np.nan], [np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]])
def test_shannon_entropy_rejects_non_finite_probabilities(p):
    with pytest.raises(ValueError):
        shannon_entropy(p)
