"""Shared numerical primitives: vector/matrix norms and reproducible RNG streams.

All vectors and matrices are complex numpy arrays.  The inner product
convention is <u, v> = sum_j conj(u_j) v_j (np.vdot order).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice

import numpy as np

__all__ = [
    "CapacityError",
    "NumericalError",
    "lq_norm",
    "schatten_norm",
    "operator_norm",
    "SeededRng",
]


class CapacityError(RuntimeError):
    """A requested computation exceeds the documented enumeration/search budget."""


class NumericalError(RuntimeError):
    """A computation failed to reach its documented accuracy."""


def lq_norm(x, q: float) -> float:
    """l_q norm of a vector, q in [1, inf].

    q = math.inf is an explicit branch (max modulus), not a large-float
    approximation.  Moduli are rescaled by their maximum before powering so
    that large q does not overflow.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("lq_norm expects a vector; use schatten_norm for matrices")
    if x.size == 0:
        raise ValueError("lq_norm of an empty vector is undefined here")
    if q != math.inf and q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    mags = np.abs(x)
    top = float(mags.max())
    if q == math.inf or top == 0.0:
        return top
    return top * float(np.sum((mags / top) ** q)) ** (1.0 / q)


def schatten_norm(a, q: float) -> float:
    """Schatten-q norm: l_q norm of the singular value vector."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("schatten_norm expects a matrix")
    sv = np.linalg.svd(a, compute_uv=False)
    return lq_norm(sv.astype(complex), q)


def operator_norm(a) -> float:
    """Largest singular value, via a deterministic dense decomposition."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("operator_norm expects a matrix")
    return float(np.linalg.svd(a, compute_uv=False)[0])


# Child streams are derived this many indices at a time, so a derivation holds
# a bounded number of state words however many children are drawn from it.
_CHUNK = 4096

# numpy's SeedSequence (NEP 19, after O'Neill's seed_seq_fe): a 4-word uint32
# pool that absorbs entropy words through a hash whose multiplier advances on
# every use, and an output hash over the pool for generate_state.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL = 4


def _powers(h: int, mult: int, count: int) -> np.ndarray:
    """h, h*mult, ..., h*mult^count modulo 2^32, as uint32."""
    out = [h]
    for _ in range(count):
        out.append(out[-1] * mult % 2**32)
    return np.array(out, dtype=np.uint32)


# The hash constants of generate_state(4, np.uint64), which reads the pool
# twice round as 8 uint32 words.
_STATE_HASH = _powers(_INIT_B, _MULT_B, 2 * _POOL)


# uint32 arithmetic on arrays wraps modulo 2^32 exactly as SeedSequence's C
# code does.
def _hashmix(value, h, h_next):
    value = (value ^ h) * h_next
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _XSHIFT)


def _index_words(indices) -> np.ndarray:
    """Spawn-key indices as uint32 words; each must fit one word, so that
    distinct keys stay distinct once flattened into words."""
    idx = [int(i) for i in indices]
    bad = [i for i in idx if not 0 <= i < 2**32]
    if bad:
        raise ValueError(f"stream index must lie in [0, 2^32); got {bad[0]}")
    return np.array(idx, dtype=np.uint32)


def _absorb(pool: np.ndarray, h: int, words: np.ndarray):
    """Mix each of ``words`` into its own copy of ``pool``: SeedSequence's step
    for an entropy word past the pool size, which mixes the word into each
    pool word with the next hash constant.  Returns one pool per word as the
    rows of an (n, 4) array, and the hash constant that follows."""
    hs = _powers(h, _MULT_A, _POOL)
    return _mix(pool, _hashmix(words[:, None], hs[:-1], hs[1:])), int(hs[-1])


def _state_words(pools: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of each row of the (n, 4) ``pools``: 8
    uint32 words per row, paired little-endian into 4 uint64 words."""
    half = _hashmix(np.concatenate([pools, pools], axis=1), _STATE_HASH[:-1], _STATE_HASH[1:])
    return half.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@lru_cache(maxsize=1)
def _words_seed_sequence():
    # Built on first use, because importing numpy.random costs about 15 ms
    # that importing riplab should not pay.
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeedSequence(ISeedSequence):
        # Hands PCG64 its four precomputed seeding words, the only state it
        # asks for.
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return WordsSeedSequence


def _derive(seed: int, key: tuple, pool: np.ndarray, h: int, indices):
    """The one stream derivation: lazily yield the SeededRng on ``key + (i,)``
    for each i of ``indices``, in order, from the parent's ``pool`` and hash
    constant ``h``, one vectorised pass per chunk of _CHUNK indices."""
    it = iter(indices)
    while chunk := list(islice(it, _CHUNK)):
        idx = _index_words(chunk)
        pools, child_h = _absorb(pool, h, idx)
        words, seed_seq = _state_words(pools), _words_seed_sequence()
        for j, index in enumerate(idx.tolist()):
            rng = SeededRng.__new__(SeededRng)
            rng.seed, rng.spawn_key = seed, (*key, index)
            rng._pool, rng._hash = pools[j], child_h
            rng._gen = np.random.Generator(np.random.PCG64(seed_seq(words[j])))
            yield rng


class SeededRng:
    """Reproducible random source addressed by (seed, spawn key).

    ``SeededRng(seed, stream)`` is a root on the spawn key ``(stream,)``, and
    ``stream(i)`` derives a child on the parent's key followed by ``i``.  Two
    instances with the same seed and key yield bit-identical draw sequences;
    distinct keys give independent sequences, so a child replays neither its
    parent, nor a sibling, nor a root.  Per-trial children are conventionally
    indexed by trial, so that serial and parallel execution orders agree.

    A root is seeded by numpy's ``SeedSequence(seed, spawn_key=key)`` itself.
    ``streams(indices)`` yields the children of many indices at once: their
    seeding words come from one vectorised pass per chunk of indices over
    the parent's SeedSequence pool, and each child owns its own PCG64, so
    drawing from one advances no other.  A child is seeded with exactly the
    words that ``SeedSequence(seed, spawn_key=key).generate_state(4,
    np.uint64)`` gives, which the tests use as the oracle, so its draws equal
    those of a ``Generator(PCG64(SeedSequence(...)))`` bit for bit.
    """

    def __init__(self, seed: int, stream: int = 0, parent_key: tuple = ()):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer; got {seed}")
        self.seed = seed
        self.spawn_key = tuple(_index_words((*parent_key, stream)).tolist())
        seq = np.random.SeedSequence(seed, spawn_key=self.spawn_key)
        # Children continue SeedSequence's hash from where the root's entropy
        # left it, 4 steps per entropy word: the seed's words zero-padded to
        # the pool size, then the spawn key.
        n_words = max(_POOL, (seed.bit_length() + 31) // 32) + len(self.spawn_key)
        self._pool, self._hash = seq.pool, _INIT_A * pow(_MULT_A, 4 * n_words, 2**32) % 2**32
        self._gen = np.random.Generator(np.random.PCG64(seq))

    @property
    def stream_index(self) -> int:
        return self.spawn_key[-1]

    def stream(self, index: int) -> "SeededRng":
        """Child source on the spawn key ``self.spawn_key + (index,)``."""
        return next(self.streams((index,)))

    def streams(self, indices):
        """Lazily yield ``stream(i)`` for each i of ``indices``, in order.

        Indices may be unsorted, strided or repeated; a repeated index yields
        a fresh child that replays the same draws.  An index outside
        [0, 2^32) raises ValueError when its chunk is derived.
        """
        return _derive(self.seed, self.spawn_key, self._pool, self._hash, indices)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    # -- draw helpers ------------------------------------------------------

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def complex_normal(self, size=None):
        """Standard complex Gaussian: E|z|^2 = 1."""
        re = self._gen.standard_normal(size)
        im = self._gen.standard_normal(size)
        return (re + 1j * im) / math.sqrt(2.0)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def rademacher(self, size):
        return 2 * self._gen.integers(0, 2, size) - 1

    def unit_phases(self, size):
        return np.exp(2j * np.pi * self._gen.uniform(0.0, 1.0, size))

    def choice_no_replace(self, n: int, k: int):
        return self._gen.choice(n, size=k, replace=False)
