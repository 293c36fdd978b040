"""The outcome probabilities of a stack of bases, pinned byte for byte to one
product per component.

``_outcome_probabilities`` stacks the conjugated bases row on row into one
(n d, d) matrix and takes the components in blocks. Each block is one
matmul, which numpy runs as one (n d x d) (d x d) GEMM per component; each
element of it is the dot product that a d x d product per basis computes.
The reference below is that per-component loop, kept as it was before the
blocks; every case must match it in every byte.
"""

import numpy as np
import pytest

from finecert import cycle, mub, sampling

DIMENSIONS = [2] + [p for p in range(3, 62) if mub.is_prime(p)]


def reference_probabilities(bases, components):
    """probs[k, i, j] = <e_j| rho_i |e_j>, one batched product per component."""
    probs = np.empty((bases.shape[0], len(components), bases.shape[1]))
    conj = bases.conj()
    for i, rho in enumerate(components):
        probs[:, i, :] = np.real(((conj @ rho) * bases).sum(axis=-1))
    return np.clip(probs, 0.0, 1.0, out=probs)


def haar_stack(d, n, seed):
    rng = np.random.default_rng([d, n, seed])
    return sampling._bases_from_normals(rng.standard_normal((n, 2, d, d)))


def random_density_matrices(d, seed):
    rng = np.random.default_rng([d, seed, 1])
    a = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def components(d, kind):
    if kind == "standard":
        return cycle._standard_cycle(d).components
    return random_density_matrices(d, 0)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_blocks_match_one_product_per_component(d, kind):
    comps = components(d, kind)
    for n in (1, 2, 3, 5, cycle._chunk_samples(d)):
        bases = haar_stack(d, n, 0)
        assert_same_bytes(cycle._outcome_probabilities(bases, comps), reference_probabilities(bases, comps))


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("per_block", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_small_budgets_split_the_components(monkeypatch, d, per_block, kind):
    comps = components(d, kind)
    for n in (1, 2, 3):
        bases = haar_stack(d, n, 1)
        monkeypatch.setattr(cycle, "_PROBABILITY_BLOCK_BYTES", 16 * n * d * d * per_block)
        blocks = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            blocks.append(len(b))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        got = cycle._outcome_probabilities(bases, comps)
        monkeypatch.setattr(np, "matmul", matmul)
        assert blocks == [min(per_block, d - lo) for lo in range(0, d, per_block)]
        assert_same_bytes(got, reference_probabilities(bases, comps))

