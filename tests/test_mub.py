import re

import numpy as np
import pytest

from finecert.mub import (
    MubFamily,
    basis_index,
    is_prime,
    mub_family,
    mub_vector,
    quadratic_basis,
    verify_mub,
)
from finecert.mub import _phase_terms


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    for n in range(64):
        assert is_prime(n) == (n in primes)


def test_computational_basis_examples():
    b3 = mub_family(3).bases[0]
    np.testing.assert_array_equal(b3[0], [1, 0, 0])
    b5 = mub_family(5).bases[0]
    np.testing.assert_array_equal(b5[4], [0, 0, 0, 0, 1])


def test_z_eigenvalue_of_basis_states():
    # Z = diag(w^0, ..., w^{d-1}) has the computational vectors as eigenvectors
    d = 3
    w = np.exp(2j * np.pi / d)
    z = np.diag([w**j for j in range(d)])
    b = mub_family(d).bases[0]
    for j in range(d):
        np.testing.assert_allclose(z @ b[j], (w**j) * b[j], atol=1e-15)


def test_mub_family_rejects_non_odd_prime():
    for d in (2, 4, 9, 15):
        with pytest.raises(ValueError, match="odd prime"):
            mub_family(d)


def test_mub_vector_uniform_case():
    np.testing.assert_allclose(mub_vector(3, 0, 0), np.full(3, 1 / np.sqrt(3)), atol=1e-15)


def test_mub_vector_hand_evaluated_exponents():
    # k=0, j=1, d=3: exponents -2l mod 3 are (0, 1, 2), i.e. (1, w, w^2)/sqrt(3)
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(
        mub_vector(3, 0, 1), np.array([1, w, w**2]) / np.sqrt(3), atol=1e-15
    )


def test_mub_vector_normalized_and_flat():
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = int(rng.choice([3, 5, 7, 11, 13]))
        k = int(rng.integers(d))
        j = int(rng.integers(d))
        v = mub_vector(d, k, j)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        np.testing.assert_allclose(np.abs(v), np.full(d, 1 / np.sqrt(d)), atol=1e-12)


def test_mub_vector_bitwise_deterministic():
    a = mub_vector(7, 4, 2)
    b = mub_vector(7, 4, 2)
    assert np.array_equal(a, b)


def test_mub_vector_rejects_out_of_range():
    with pytest.raises(ValueError, match="k="):
        mub_vector(3, 3, 0)
    with pytest.raises(ValueError, match="j="):
        mub_vector(3, 0, -1)


SUPPORTED_ODD_PRIMES = [d for d in range(3, 65) if is_prime(d)]


@pytest.mark.parametrize("d", SUPPORTED_ODD_PRIMES)
def test_family_basis_and_vector_use_the_unreduced_exponent_formula(d):
    # the exponent k*l^2 - 2*j*l reduced once, as a full (j, l) table, and the
    # roots looked up by fancy indexing: the family, a basis and a vector agree
    l = np.arange(d)
    roots = np.exp(2j * np.pi * l / d) / np.sqrt(d)
    fam = mub_family(d)
    for k in range(d):
        expected = roots[(k * l * l - 2 * np.multiply.outer(l, l)) % d]
        assert fam.bases[1 + k].tobytes() == expected.tobytes()
        assert quadratic_basis(d, k).tobytes() == expected.tobytes()
        assert mub_vector(d, k, d - 1).tobytes() == expected[d - 1].tobytes()


def test_quadratic_family_is_unbiased_in_exact_integer_arithmetic():
    # An integer oracle for verify_mub. Vector j of basis k has amplitudes
    # w^(k l^2 - 2 j l) / sqrt(d), so <e_kj|e_k'j'> = (1/d) sum_l w^(e_l) with
    # e_l = (dk l^2 - 2 dj l) mod d, dk = k' - k, dj = j' - j, and its squared
    # modulus is (1/d^2) sum_t N(t) w^t, N(t) = #{(l, m): e_l - e_m = t mod d}.
    # For prime d the only rational relation among the d-th roots of unity is
    # 1 + w + ... + w^(d-1) = 0, so that is 1/d iff N(t) = N(0) - d for every
    # t != 0, and 0 (orthogonal vectors) iff N is constant.
    for d in SUPPORTED_ODD_PRIMES:
        square, linear = _phase_terms(d, np.arange(d))  # l^2 and 2 dj l, mod d
        rows = (np.arange(d) * d)[:, None]
        shift = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d  # (t, v) -> v - t
        for dk in range(d):
            e = (dk * square - linear) % d  # e[dj, l]
            count = np.bincount((e + rows).ravel(), minlength=d * d).reshape(d, d)
            n = np.einsum("jv,jtv->jt", count, count[:, shift])  # n[dj, t] = N(t)
            assert n.sum() == d**3
            if dk:
                assert (n[:, 1:] == n[:, :1] - d).all(), (d, dk)
            else:
                assert n[0, 0] == d * d and (n[1:] == d).all(), d


def test_family_shape_and_labels():
    fam = mub_family(3)
    assert fam.bases.shape == (4, 3, 3)
    assert fam.labels == ("z", 0, 1, 2)
    assert mub_family(5).bases.shape == (6, 5, 5)


def test_family_rejects_qubit_dimension_with_guidance():
    with pytest.raises(ValueError, match="qubit"):
        mub_family(2)


def test_each_basis_is_unitary():
    for d in (3, 5, 7):
        fam = mub_family(d)
        for b in fam.bases:
            u = b.T  # columns are the basis vectors
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_verify_mub_passes(d):
    report = verify_mub(mub_family(d), tol=1e-10)
    assert report.passed
    assert report.max_orthonormality_deviation <= 1e-10
    assert report.max_unbiasedness_deviation <= 1e-10


def test_verify_mub_large_dimension_example():
    assert verify_mub(mub_family(13), tol=1e-9).passed


def test_verify_mub_locates_corruption():
    fam = mub_family(3)
    bases = fam.bases.copy()
    # replace one vector of quadratic basis 0 by |0>
    bases[1, 1] = np.array([1.0, 0.0, 0.0])
    report = verify_mub(MubFamily(d=3, bases=bases), tol=1e-10)
    assert not report.passed
    assert report.max_orthonormality_deviation > 1e-10
    assert report.worst_orthonormality[0] == 0  # label of quadratic basis 0
    assert report.max_unbiasedness_deviation > 1e-10


def test_basis_lookup_labels():
    fam = mub_family(5)
    np.testing.assert_array_equal(fam.bases[basis_index(5, "z")], fam.bases[0])
    np.testing.assert_array_equal(fam.bases[basis_index(5, 2)], fam.bases[3])
    np.testing.assert_array_equal(fam.vector(0, 3), mub_vector(5, 0, 3))
    with pytest.raises(ValueError, match="label"):
        fam.bases[basis_index(5, "w")]
    with pytest.raises(ValueError, match="label"):
        fam.bases[basis_index(5, 5)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_verify_mub_rejects_one_non_finite_entry(bad):
    bases = mub_family(5).bases.copy()
    bases[2, 3, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        verify_mub(MubFamily(d=5, bases=bases))


def test_verify_mub_rejects_all_nan_basis():
    bases = mub_family(5).bases.copy()
    bases[0] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        verify_mub(MubFamily(d=5, bases=bases))


@pytest.mark.parametrize("shape", [(5, 5, 5), (6, 5, 4), (6, 25), (7, 5, 5)])
def test_verify_mub_rejects_wrong_shape(shape):
    bases = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError, match="shape"):
        verify_mub(MubFamily(d=5, bases=bases))


def test_verify_mub_rejects_an_empty_dimension():
    # the shape matches (d + 1, d, d), but there is no entry to take a maximum of
    with pytest.raises(ValueError, match=r"^family dimension must be at least 1 \(got 0\)$"):
        verify_mub(MubFamily(0, np.zeros((1, 0, 0))))


@pytest.mark.parametrize("d", [3.0, np.float64(3.0), "3"])
def test_verify_mub_rejects_a_dimension_that_is_not_an_integer(d):
    # a float d matches the shape (4, 3, 3), but is no dimension
    with pytest.raises(ValueError, match=f"^family dimension {re.escape(repr(d))} is not an integer$"):
        verify_mub(MubFamily(d, mub_family(3).bases))


@pytest.mark.parametrize("tol", [-1.0, -1e-300])
def test_verify_mub_rejects_negative_tolerance(tol):
    with pytest.raises(ValueError, match="non-negative"):
        verify_mub(mub_family(3), tol=tol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_mub_fails_a_family_whose_deviations_overflow_to_nan():
    # finite entries whose products are NaN: no deviation is reported as the
    # worst, yet the family must not pass
    family = MubFamily(5, mub_family(5).bases * 1e200 * (1 + 1j))
    report = verify_mub(family)
    assert report.passed is False
    assert report.max_orthonormality_deviation == 0.0
    assert report.max_unbiasedness_deviation == 0.0
