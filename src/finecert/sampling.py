"""Haar-random membrane bases: the one module that decides how a random basis is
drawn (seed words, generators, the QR phase fix); ``numpy.random`` loads on first use."""

from __future__ import annotations

import functools
import operator

import numpy as np

from .numerics import MAX_DIM, _check_orthonormal, check_index


def _bases_from_normals(g: np.ndarray) -> np.ndarray:
    """The Haar-random bases (rows) of a stack of normals g[k] = (real, imaginary)
    parts, shape (n, 2, d, d): the complex stack is formed once, and one stacked
    QR follows, with the R-diagonal phases folded into Q in place. The rows come
    back C-ordered, so a caller reads each basis, and reshapes the stack, without
    a strided pass or a copy."""
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    q *= (diag / np.abs(diag))[:, None, :]
    return np.ascontiguousarray(q.swapaxes(-1, -2))


def haar_random_basis(d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis (rows) drawn uniformly: QR of a complex Gaussian
    matrix with the R-diagonal phases folded back in. d runs from 1 to
    ``MAX_DIM`` and is checked before anything is allocated."""
    d = check_index(d, "d", 1, MAX_DIM)
    return _check_orthonormal(_bases_from_normals(rng.standard_normal((1, 2, d, d)))[0])


# ------------------------------------------------------------ per-sample substreams
#
# Sample i of a scan with seed s draws from
# default_rng(SeedSequence(s).spawn(n)[i]). That child mixes the words of s
# (padded to four, as a spawn key is present) before its key word i, so its
# pool at that point is the pool of SeedSequence(s), and all of SeedSequence's
# hash constants run independently of the data. Only two steps of the child
# depend on i: mixing in the key word, and the eight hashes of
# generate_state(4, uint64) that PCG64 seeds from. ``_spawn_prefix`` takes the
# shared pool from numpy once per seed; ``_child_states`` runs the other two
# for a whole range of children as uint32 array operations, which wrap modulo
# 2**32 as SeedSequence's C code does.

_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_chain(start: int, mult: int, count: int) -> np.ndarray:
    """start, start*mult, ..., start*mult**count modulo 2**32."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)


#: generate_state's constants for its eight words: the XOR before and the multiplier after.
_STATE_HASH = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_WORDS)
_STATE_POOL_WORD = np.arange(2 * _POOL_WORDS) % _POOL_WORDS


@functools.lru_cache(maxsize=None)
def _key_hashes(hashes: int) -> np.ndarray:
    """Read-only hash constants of the four key-word hashes that follow
    ``hashes`` earlier ones, shape (5,)."""
    chain = _hash_chain(_INIT_A, _MULT_A, hashes + _POOL_WORDS)[hashes:]
    chain.setflags(write=False)
    return chain


def _spawn_prefix(seed: int) -> tuple:
    """What every spawned child of ``seed`` shares, as uint32 arrays: its pool
    scaled by the mix multiplier, (4,), and the hash constants of the four
    key-word hashes, (5,). The pool is numpy's ``SeedSequence(seed).pool``;
    mixing the seed's words took 16 hashes, plus 4 per word beyond the fourth,
    so the constants depend only on the seed's word count."""
    hashes = 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - _POOL_WORDS)
    scaled_pool = np.random.SeedSequence(seed).pool * np.uint32(_MIX_MULT_L)
    return scaled_pool, _key_hashes(hashes)


def _child_states(prefix: tuple, first: int, count: int) -> np.ndarray:
    """PCG64 seed words of children first..first+count-1, shape (count, 4) uint64:
    row k equals ``SeedSequence(seed).spawn(first + count)[first + k]
    .generate_state(4, np.uint64)``. Keys must fit one uint32 word."""
    scaled_pool, h = prefix
    keys = np.arange(first, first + count, dtype=np.uint32)
    hashed = (keys[:, None] ^ h[:-1]) * h[1:]
    hashed ^= hashed >> np.uint32(16)
    pool = scaled_pool - np.uint32(_MIX_MULT_R) * hashed
    pool ^= pool >> np.uint32(16)
    state = (pool[:, _STATE_POOL_WORD] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    state ^= state >> np.uint32(16)
    # generate_state pairs its words little-endian into uint64
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _child_seed_type() -> type:
    """The seed type PCG64 takes in place of a spawned SeedSequence: it holds
    one row of ``_child_states``. Built on first use, so that importing the
    package does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class ChildSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_WORDS or dtype is not np.uint64:
                raise ValueError("a derived child seed holds exactly four uint64 words")
            return self.words

    return ChildSeed


def _scan_seed(seed) -> int:
    """A scan seed: an int or a numpy integer, never negative."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer (got {seed!r})")
    return value


def draw(d: int, seed: int, first: int, count: int) -> np.ndarray:
    """The (count, d, d) bases (rows) of scan samples first .. first + count - 1 of
    ``seed``: sample i draws from ``default_rng(SeedSequence(seed).spawn(n)[i])``
    for any n above i. The caller checks d, the seed and the sample range."""
    normals = np.empty((count, 2, d, d))
    # PCG64 reads its seed words in its constructor, so one holder serves all samples
    child_seed = _child_seed_type()(None)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for k, words in enumerate(_child_states(_spawn_prefix(seed), first, count)):
        child_seed.words = words
        generator(pcg64(child_seed)).standard_normal(out=normals[k])
    return _bases_from_normals(normals)
