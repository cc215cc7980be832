"""Shared numerical primitives: vector/matrix norms, reproducible RNG streams
and the BLAS thread pin of the command line.

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
    "as_count",
    "as_counts",
    "SeededRng",
    "pin_blas_threads",
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
    if not q >= 1:
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


def as_count(value, name: str, least: int = 1) -> int:
    """value as a Python int, once it is of an integer type, not bool, and at
    least ``least``: int() would truncate 2.7 to 2 and read True as 1.
    Anything else raises a ValueError that names ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer; got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def as_counts(values, name: str) -> list:
    """A non-empty list of counts, each at least 1, as Python ints."""
    counts = [as_count(value, name) for value in values]
    if not counts:
        raise ValueError(f"at least one {name}")
    return counts


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
    """Spawn-key indices as uint32 words; each must be an integer that fits
    one word, so that distinct keys stay distinct once flattened into words."""
    idx = list(indices)
    # One check of the types present: int() would truncate 2.7 and replay
    # index 2, and True would be index 1.
    ints = all(t is not bool and issubclass(t, (int, np.integer)) for t in set(map(type, idx)))
    if not ints or idx and not 0 <= min(idx) <= max(idx) < 2**32:
        bad = next(i for i in idx if type(i) is bool or not isinstance(i, (int, np.integer))
                   or not 0 <= i < 2**32)
        raise ValueError(f"stream index must be an integer in [0, 2^32); got {bad!r}")
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


def _child_words(pool: np.ndarray, h: int, indices: list) -> tuple:
    """The shared step of every child derivation, for the children on the
    parent's key followed by each of ``indices``: their uint32 index words,
    their (B, 4) pools and hash constant, and their (B, 4) uint64 PCG64
    seeding words, from the parent's ``pool`` and hash constant ``h``."""
    idx = _index_words(indices)
    pools, child_h = _absorb(pool, h, idx)
    return idx, pools, child_h, _state_words(pools)


def _derive(seed: int, key: tuple, pool: np.ndarray, h: int, indices):
    """The one stream derivation: lazily yield the SeededRng on ``key + (i,)``
    for each i of ``indices``, in order, one vectorised pass per chunk of
    _CHUNK indices."""
    it, seed_seq = iter(indices), _words_seed_sequence()
    while chunk := list(islice(it, _CHUNK)):
        idx, pools, child_h, words = _child_words(pool, h, chunk)
        for j, index in enumerate(idx.tolist()):
            rng = SeededRng.__new__(SeededRng)
            rng.seed, rng.spawn_key = seed, (*key, index)
            rng._pool, rng._hash = pools[j], child_h
            rng._gen = np.random.Generator(np.random.PCG64(seed_seq(words[j])))
            yield rng


# numpy's PCG64 (O'Neill, "PCG", HMC-CS-2014-0905) on 128-bit values held as
# (hi, lo) pairs of uint64 arrays.  Every operand is a uint64 array or scalar,
# so numpy 1.x neither promotes to float64 nor warns on the wrap-around.
_U64 = np.uint64
_ONE, _32, _58, _63, _64 = _U64(1), _U64(32), _U64(58), _U64(63), _U64(64)
_LO32, _TWO32 = _U64(2**32 - 1), _U64(2**32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Generator.choice(n, k, replace=False) runs Floyd's algorithm up to this n;
# above it numpy may switch to a tail shuffle.
_FLOYD_MAX_N = 10_000
# Rows of one sorted_supports block: enough to spread the per-column numpy
# calls of Floyd's loop, few enough that the block's membership bitmap
# (256 n bytes) stays near the cache.
_SUPPORT_ROWS = 256
# Entries of one tile of PCG64 outputs or bounded draws (64 KB): numpy
# temporaries much larger than this cost more in page faults than they save
# in calls.
_TILE = 2**13


def _mulhi(a, b):
    # High words of the 128-bit products a * b, from 32-bit halves (Hacker's
    # Delight, mulhu); no partial sum exceeds 2^64 - 2^32.
    a0, a1, b0, b1 = a & _LO32, a >> _32, b & _LO32, b >> _32
    t = a1 * b0 + ((a0 * b0) >> _32)
    w = (t & _LO32) + a0 * b1
    return a1 * b1 + (t >> _32) + (w >> _32)


def _mul128(a, b):
    (ah, al), (bh, bl) = a, b
    return _mulhi(al, bl) + al * bh + ah * bl, al * bl


def _add128(a, b):
    (ah, al), (bh, bl) = a, b
    lo = al + bl
    return ah + bh + (lo < al), lo


@lru_cache(maxsize=16)
def _pcg_jumps(count: int) -> np.ndarray:
    """A (4, count) uint64 array whose column t - 1 holds the hi and lo words
    of A^(t+1), then of 1 + A + ... + A^t, mod 2^128, for t = 1..count and
    A the PCG64 multiplier.  Seeding steps 0 to inc, adds initstate and
    steps again, and output t steps once more and reads the new state, so
    the state behind output t is A^(t+1) (initstate + inc) +
    (1 + A + ... + A^t) inc."""
    power, total, table = _PCG_MULT, 1, []
    for _ in range(count):
        total, power = (total + power) % 2**128, power * _PCG_MULT % 2**128
        table.append((power >> 64, power % 2**64, total >> 64, total % 2**64))
    table = np.array(table, dtype=_U64).reshape(count, 4).T
    table.flags.writeable = False
    return table


def _pcg64_outputs(words: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """Outputs of the PCG64 seeded with each row of the (B, 4) uint64
    ``words``, one column per column of ``jumps`` (columns of _pcg_jumps):
    initstate is w0 w1 and the increment (w2 w3) << 1 | 1, and an output
    is XSL-RR of the stepped state, rotr64(hi ^ lo, hi >> 58)."""
    w0, w1, w2, w3 = (words[:, i, None] for i in range(4))
    inc = ((w2 << _ONE) | (w3 >> _63), (w3 << _ONE) | _ONE)
    p_hi, p_lo, q_hi, q_lo = jumps
    hi, lo = _add128(_mul128((p_hi, p_lo), _add128((w0, w1), inc)), _mul128((q_hi, q_lo), inc))
    mixed, rot = hi ^ lo, hi >> _58
    return (mixed >> rot) | (mixed << ((_64 - rot) & _63))


def _lemire(u32: np.ndarray, span: np.ndarray) -> tuple:
    """Lemire's bounded draws (ACM TOMACS 29, 2019) in [0, span) from uint32
    draws, one span per column, and where each is rejected: with
    m = u32 span, the draw is m >> 32 unless m mod 2^32 <
    (2^32 - span) mod span, where numpy draws again."""
    m = u32 * span
    return m >> _32, (m & _LO32) < (_TWO32 - span) % span


def _floyd_sorted(words: np.ndarray, n: int, k: int) -> tuple:
    """Sorted Generator.choice(n, k, replace=False) of the PCG64 seeded with
    each row of ``words``, for n <= _FLOYD_MAX_N, and a flag per row: True
    where a Lemire draw was rejected, which this pass does not draw again.

    Floyd's algorithm takes j = n - k .. n - 1 and, for j > 0, a draw v in
    [0, j] by _lemire; then it adds v, or j if v is already in the set.  A
    uint32 draw is the low half of a fresh 64-bit output, then its high half.
    numpy shuffles the set afterwards, which sorting undoes.  Row r's set
    is the bitmap taken[r n : (r + 1) n], and the draws come in tiles of
    at most _TILE entries.
    """
    rows, first = len(words), max(n - k, 1)
    offsets = np.arange(rows) * n
    taken = np.zeros(rows * n, dtype=bool)
    # Row c of chosen: the bitmap position each row adds for j = n - k + c.
    chosen = np.empty((k, rows), dtype=np.intp)
    if k == n:
        taken[offsets] = True  # j = 0 adds 0 without a draw
        chosen[0] = offsets
    rejected = np.zeros(rows, dtype=bool)
    jumps = _pcg_jumps((n - first + 1) // 2)
    outs = max(1, _TILE // (2 * rows))
    for t in range(0, jumps.shape[1], outs):
        j0 = first + 2 * t
        span = np.arange(j0 + 1, min(j0 + 2 * outs, n) + 1, dtype=_U64)
        draws = _pcg64_outputs(words, jumps[:, t:t + outs]).astype("<u8", copy=False)
        v, reject = _lemire(draws.view("<u4")[:, :len(span)], span)
        rejected |= reject.any(axis=1)
        # Row c: the bitmap positions of the draws for j = j0 + c.
        picks = v.T.astype(np.intp, order="C") + offsets
        for j, pick in zip(range(j0, n), picks):
            add = chosen[j - n + k]
            np.copyto(add, np.where(taken[pick], offsets + j, pick))
            taken[add] = True
    return np.sort(chosen.T - offsets[:, None], axis=1), rejected


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
    ``sorted_supports(indices, n, k)`` draws the sorted k-subsets of many
    children at once from those same words, with no child generator, and
    equals each child's own ``choice_no_replace`` bit for bit.
    """

    def __init__(self, seed: int, stream: int = 0):
        # Only integer types, not bool: int() would truncate 2.7 to seed 2.
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer; got {seed}")
        seed = int(seed)
        self.seed = seed
        self.spawn_key = tuple(_index_words((stream,)).tolist())
        seq = np.random.SeedSequence(seed, spawn_key=self.spawn_key)
        # Children continue SeedSequence's hash from where the root's entropy
        # left it, 4 steps per entropy word: the seed's words zero-padded to
        # the pool size, then the spawn key.
        n_words = max(_POOL, (seed.bit_length() + 31) // 32) + len(self.spawn_key)
        self._pool, self._hash = seq.pool, _INIT_A * pow(_MULT_A, 4 * n_words, 2**32) % 2**32
        self._gen = np.random.Generator(np.random.PCG64(seq))

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

    def choice_no_replace(self, n: int, k: int):
        return self._gen.choice(n, size=k, replace=False)

    # -- batched draws -----------------------------------------------------

    def sorted_supports(self, indices, n: int, k: int) -> np.ndarray:
        """A (len(indices), k) int array whose row r equals
        ``np.sort(self.stream(indices[r]).choice_no_replace(n, k))`` bit for
        bit, for 1 <= k <= n.

        No child generator is built: the children's seeding words come from
        the shared derivation step, and one vectorised pass per block of up
        to 256 rows, however few, runs their PCG64 outputs, Lemire's bounded
        draws and Floyd's algorithm, as ``choice`` does in C.  The
        per-stream ``choice`` draws only
          * a row whose Lemire draw would be rejected (probability below
            n / 2^32 per row);
          * every row when n > 10,000, where numpy may sample by a tail
            shuffle.
        """
        indices = list(indices)
        n, k = as_count(n, "n", least=0), as_count(k, "k", least=0)
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, n]; got k={k}, n={n}")
        out = np.empty((len(indices), k), dtype=np.intp)
        redo = []
        for lo in range(0, len(indices), _SUPPORT_ROWS):
            rows = np.arange(lo, min(lo + _SUPPORT_ROWS, len(indices)))
            if n > _FLOYD_MAX_N:
                redo.extend(rows)
                continue
            *_, words = _child_words(self._pool, self._hash, indices[lo:lo + len(rows)])
            out[rows], rejected = _floyd_sorted(words, n, k)
            redo.extend(rows[rejected])
        for r, stream in zip(redo, self.streams(indices[r] for r in redo)):
            out[r] = np.sort(stream.choice_no_replace(n, k))
        return out


# Thread-count setters of the OpenBLAS builds that numpy wheels bundle:
# scipy-openblas (numpy >= 2), the 64-bit-integer build of older wheels, and
# a 32-bit-integer build.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


@lru_cache(maxsize=None)
def _blas_setter():
    """The thread-count setter of the OpenBLAS in numpy's ``numpy.libs``, or
    None when numpy runs another BLAS (MKL, Accelerate, a system library)."""
    # Imported here, so that only a CLI run pays for the lookup, not an import.
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(np.__file__))),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread for the rest of the process.
    Without a bundled OpenBLAS, nothing changes.

    The command line calls this first.  Its products are at most a few
    hundred columns wide, where a second thread saves little, and an idle
    OpenBLAS worker spin-waits on its core after each threaded call.  The
    tests check that reports are byte-identical at one and two threads.
    Code that imports riplab as a library keeps numpy's default.
    """
    setter = _blas_setter()
    if setter is not None:
        setter(1)
