"""Tests for the shared numeric primitives."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riplab
from riplab import cli, infdim, numerics
from riplab.numerics import (
    CapacityError,
    NumericalError,
    SeededRng,
    lq_norm,
    operator_norm,
    schatten_norm,
)

SEED = 20260816


class TestLqNorm:
    def test_pythagorean(self):
        assert lq_norm([3, 4], 2) == pytest.approx(5.0, abs=1e-12)

    def test_sup_norm(self):
        assert lq_norm([1, 1, 1, 1], math.inf) == pytest.approx(1.0, abs=1e-15)

    def test_sum_of_moduli(self):
        assert lq_norm([1, -2j, 2], 1) == pytest.approx(5.0, abs=1e-12)

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            lq_norm([1.0, 2.0], 0.5)

    def test_homogeneous(self):
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        for q in (1.0, 1.5, 2.0, 3.0, 7.0, math.inf):
            for c in (0.0, 2.0, -3.5, 1j, 0.25 - 0.75j):
                np.testing.assert_allclose(
                    lq_norm(c * x, q), abs(c) * lq_norm(x, q), rtol=1e-12
                )

    def test_monotone_in_q(self):
        rng = np.random.default_rng(SEED + 1)
        qs = [1.0, 1.3, 2.0, 4.0, 16.0, math.inf]
        for _ in range(20):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            values = [lq_norm(x, q) for q in qs]
            for lo, hi in zip(values, values[1:]):
                assert lo >= hi - 1e-12

    def test_extreme_magnitudes_do_not_overflow(self):
        # powering is rescaled by the max modulus
        x = np.array([1e200, 2e200, 0.0])
        expected = 2e200 * (17.0 / 16.0) ** 0.25
        assert lq_norm(x, 4) == pytest.approx(expected, rel=1e-12)


class TestSchattenNorm:
    def test_identity_frobenius(self):
        assert schatten_norm(np.eye(3), 2) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_diag_sup(self):
        assert schatten_norm(np.diag([2.0, 1.0]), math.inf) == pytest.approx(2.0)

    def test_trace_norm_from_constructed_svd(self):
        rng = np.random.default_rng(SEED + 2)
        sv = np.sort(rng.uniform(0.5, 3.0, size=4))[::-1]
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        a = u @ np.diag(sv) @ v.conj().T
        np.testing.assert_allclose(schatten_norm(a, 1), sv.sum(), rtol=1e-10)

    def test_matches_frobenius(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(10):
            a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            np.testing.assert_allclose(
                schatten_norm(a, 2), np.linalg.norm(a), rtol=1e-10
            )

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.9)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(SEED + 4)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u *= 2.0 / np.linalg.norm(u)
        v *= 2.0 / np.linalg.norm(v)
        np.testing.assert_allclose(operator_norm(np.outer(u, v.conj())), 4.0, rtol=1e-10)

    def test_hermitian_matches_extreme_eigenvalue(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(10):
            b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = (b + b.conj().T) / 2
            expected = np.abs(np.linalg.eigvalsh(h)).max()
            np.testing.assert_allclose(operator_norm(h), expected, rtol=1e-10)

    def test_sandwiched_by_frobenius(self):
        rng = np.random.default_rng(SEED + 6)
        for _ in range(10):
            a = rng.standard_normal((8, 8))
            op = operator_norm(a)
            fro = schatten_norm(a, 2)
            rank = np.linalg.matrix_rank(a)
            assert op <= fro + 1e-10
            assert fro <= math.sqrt(rank) * op + 1e-10


class TestSeededRng:
    def test_bit_identical_repetition(self):
        a = SeededRng(SEED).standard_normal(100)
        b = SeededRng(SEED).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent_of_creation_order(self):
        root = SeededRng(SEED)
        early = root.stream(3).standard_normal(8)
        again = SeededRng(SEED).stream(3).standard_normal(8)
        np.testing.assert_array_equal(early, again)

    def test_distinct_streams_differ(self):
        root = SeededRng(SEED)
        a = root.stream(0).standard_normal(16)
        b = root.stream(1).standard_normal(16)
        assert np.abs(a - b).max() > 1e-6

    def test_child_differs_from_root_and_siblings(self):
        # Before hierarchical keys SeededRng(s, 1).stream(0) replayed SeededRng(s, 0).
        draws = {
            "root0": SeededRng(SEED, 0),
            "root1": SeededRng(SEED, 1),
            "root1.child0": SeededRng(SEED, 1).stream(0),
            "root1.child1": SeededRng(SEED, 1).stream(1),
            "root0.child1": SeededRng(SEED).stream(1),
            "root1.child0.child0": SeededRng(SEED, 1).stream(0).stream(0),
        }
        samples = {name: rng.standard_normal(16) for name, rng in draws.items()}
        for (a, x), (b, y) in itertools.combinations(samples.items(), 2):
            assert np.abs(x - y).max() > 1e-6, (a, b)

    def test_spawn_key_extends_parent_key(self):
        root = SeededRng(SEED, 4)
        assert root.spawn_key == (4,)
        assert root.stream(2).spawn_key == (4, 2)
        assert root.stream(2).stream(7).spawn_key == (4, 2, 7)

    def test_child_index_must_fit_one_word(self):
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match="stream index"):
                SeededRng(SEED).stream(bad)

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, np.bool_(False), np.float64(1.0)])
    def test_index_must_be_an_integer(self, bad):
        # int() would truncate 2.7 and replay stream(2); True would be stream(1).
        with pytest.raises(ValueError, match="stream index"):
            SeededRng(SEED).stream(bad)
        with pytest.raises(ValueError, match="stream index"):
            SeededRng(SEED, bad)
        with pytest.raises(ValueError, match="stream index"):
            next(SeededRng(SEED).streams([0, bad, 1]))

    @pytest.mark.parametrize("index", [np.int64(3), np.uint32(3), np.int8(3)])
    def test_numpy_integer_index_accepted(self, index):
        assert SeededRng(SEED).stream(index).spawn_key == (0, 3)
        assert SeededRng(SEED, index).uniform() == SeededRng(SEED, 3).uniform()

    def test_complex_normal_is_unit_variance(self):
        z = SeededRng(SEED).complex_normal(200000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_rademacher_values(self):
        r = SeededRng(SEED).rademacher(1000)
        assert set(np.unique(r)) == {-1, 1}

    def test_choice_no_replace(self):
        idx = SeededRng(SEED).choice_no_replace(20, 8)
        assert len(set(idx.tolist())) == 8
        assert idx.min() >= 0 and idx.max() < 20




def _words(rng: SeededRng) -> np.ndarray:
    """The four uint64 words the source's PCG64 was seeded with."""
    return rng.generator.bit_generator.seed_seq.generate_state(4, np.uint64)


def _keyed(seed: int, key: tuple) -> SeededRng:
    """The source on ``key``: the root on key[0], then one child per entry."""
    rng = SeededRng(seed, key[0])
    for index in key[1:]:
        rng = rng.stream(index)
    return rng


def _oracle_words(seed: int, key: tuple) -> np.ndarray:
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


_WORD = st.integers(0, 2**32 - 1)
# Small and large indices mixed, so that lists repeat entries as well as
# spanning the whole word range.
_INDEX = st.one_of(st.integers(0, 6), _WORD)


class TestStreamDerivation:
    """Every source is seeded with SeedSequence's words for its (seed, key)."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**160 - 1),
           key=st.lists(_WORD, min_size=1, max_size=3).map(tuple),
           indices=st.lists(_INDEX, min_size=1, max_size=11),
           chunk=st.integers(1, 4))
    @example(seed=2**140 + 2**64 + 3, key=(7, 0, 2**32 - 1),
             indices=list(range(5, 40, 7)), chunk=2)
    @example(seed=0, key=(0,), indices=[4, 4, 1, 4, 2**32 - 1, 0], chunk=4)
    @example(seed=2**32, key=(9500,), indices=[9, 3, 1, 0, 2], chunk=1)
    # Seeds of 4, 5 and 1 words: where the root's entropy starts to outgrow
    # the pool, and where it is zero-padded to fill it.
    @example(seed=2**96, key=(3,), indices=[0, 2**32 - 1], chunk=1)
    @example(seed=2**96, key=(1, 2**32 - 1, 0), indices=[6, 0], chunk=2)
    @example(seed=2**128, key=(0,), indices=[1, 1, 5], chunk=2)
    @example(seed=2**128, key=(5, 6, 7), indices=[2**31, 0], chunk=1)
    @example(seed=2**32 - 1, key=(2,), indices=[0, 3], chunk=4)
    @example(seed=2**32 - 1, key=(0, 0, 8), indices=[4, 2**32 - 1, 1], chunk=3)
    def test_words_equal_seed_sequence(self, seed, key, indices, chunk):
        parent = _keyed(seed, key)
        np.testing.assert_array_equal(_words(parent), _oracle_words(seed, key))
        with mock.patch.object(numerics, "_CHUNK", chunk):
            children = list(parent.streams(indices))
        assert [c.spawn_key for c in children] == [(*key, i) for i in indices]
        for child, i in zip(children, indices):
            np.testing.assert_array_equal(_words(child), _oracle_words(seed, (*key, i)))
        # A batched child derives its own children from its own pool.
        np.testing.assert_array_equal(_words(children[-1].stream(3)),
                                      _oracle_words(seed, (*key, indices[-1], 3)))

    def test_draws_equal_seed_sequence_generator(self):
        for seed, key in ((SEED, (0,)), (2**70 + 1, (4, 2)), (5, (1, 2, 3))):
            ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
            got = _keyed(seed, key).standard_normal(64)
            np.testing.assert_array_equal(got, ref.standard_normal(64))

    @pytest.mark.parametrize("draw", [
        lambda r: r.standard_normal(7),
        lambda r: r.complex_normal(5),
        lambda r: r.uniform(-1.0, 2.0, 6),
        lambda r: r.integers(0, 100, 9),
        lambda r: r.rademacher(8),
        lambda r: r.standard_normal((3, 2, 4)),  # a block of sample_sparse's shape
        lambda r: r.choice_no_replace(20, 5),
        lambda r: r.generator.choice([8.0, 16.0, 32.0], 3),
        lambda r: r.generator.permutation(12),
    ])
    def test_batched_children_draw_like_single_children(self, draw):
        parent = SeededRng(SEED, 3).stream(1)
        indices = [5, 0, 5, 2**31, 17]
        with mock.patch.object(numerics, "_CHUNK", 2):
            batched = [draw(child) for child in parent.streams(indices)]
        for got, i in zip(batched, indices, strict=True):
            np.testing.assert_array_equal(got, draw(parent.stream(i)))

    def test_children_advance_independently(self):
        parent = SeededRng(SEED, 2)
        a, b, again = parent.streams([0, 1, 0])
        a.standard_normal(1000)
        np.testing.assert_array_equal(b.standard_normal(8), parent.stream(1).standard_normal(8))
        np.testing.assert_array_equal(again.standard_normal(8),
                                      parent.stream(0).standard_normal(8))
        np.testing.assert_array_equal(parent.standard_normal(8),
                                      SeededRng(SEED, 2).standard_normal(8))

    def test_children_are_derived_lazily(self):
        # Only the first chunk is derived before the first child is drawn, so
        # an index past the word range only raises once its chunk is reached.
        with mock.patch.object(numerics, "_CHUNK", 2):
            children = SeededRng(SEED).streams(range(2**32 - 2, 2**32 + 1))
            assert next(children).spawn_key == (0, 2**32 - 2)
            next(children)
            with pytest.raises(ValueError, match="stream index"):
                next(children)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            SeededRng(-1)

    @pytest.mark.parametrize("seed", [2.7, 2.0, -0.5, True, False])
    def test_non_integral_seed_raises(self, seed):
        # int() would truncate 2.7 and silently replay SeededRng(2), and True
        # would be seed 1.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SeededRng(seed)

    @pytest.mark.parametrize("seed", [np.int64(SEED), np.uint32(SEED), np.int8(5)])
    def test_numpy_integer_seed_accepted(self, seed):
        rng = SeededRng(seed)
        assert rng.seed == int(seed) and type(rng.seed) is int
        assert rng.uniform() == SeededRng(int(seed)).uniform()


def _per_stream_supports(parent: SeededRng, indices, n: int, k: int) -> np.ndarray:
    """The oracle of sorted_supports: each child's own choice, sorted."""
    rows = [np.sort(child.choice_no_replace(n, k)) for child in parent.streams(indices)]
    return np.array(rows, dtype=np.intp).reshape(len(rows), k)


# (seed, index, N, k) whose one Lemire draw, for j = N - 1 = 9713, is
# rejected: numpy draws again and picks 5014 where the first draw gives
# 8892.  Found by scanning _floyd_sorted's rejection flags over the children
# of SeededRng(0).
_REJECTED = (0, 603099, 9714, 1)


class TestSortedSupports:
    """sorted_supports equals the per-stream choice, sorted, bit for bit."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**96), key=st.lists(_WORD, min_size=1, max_size=2).map(tuple),
           n=st.integers(1, 300), k=st.integers(1, 300),
           indices=st.lists(_INDEX, min_size=1, max_size=9))
    @example(seed=0, key=(0,), n=1, k=1, indices=[0])
    @example(seed=5, key=(3, 1), n=64, k=64, indices=[*range(7)])
    @example(seed=2**70, key=(2,), n=300, k=299, indices=[2**32 - 1, 4])
    def test_floyd_pass_equals_choice(self, seed, key, n, k, indices):
        # The vectorised pass itself, on every row, whatever the block size;
        # k = N draws nothing for j = 0, which adds 0.
        k = min(k, n)
        parent = _keyed(seed, key)
        *_, words = numerics._child_words(parent._pool, parent._hash, indices)
        got, rejected = numerics._floyd_sorted(words, n, k)
        assert not rejected.any()
        np.testing.assert_array_equal(got, _per_stream_supports(parent, indices, n, k))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**64), n=st.integers(1, 300), k=st.integers(1, 40),
           start=st.integers(0, 2**32 - 1200), stride=st.integers(1, 3),
           count=st.integers(1, 600))
    def test_strided_indices(self, seed, n, k, start, stride, count):
        k = min(k, n)
        parent = SeededRng(seed, 2)
        indices = range(start, start + stride * count, stride)
        np.testing.assert_array_equal(parent.sorted_supports(indices, n, k),
                                      _per_stream_supports(parent, indices, n, k))

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (40, 1), (40, 40), (256, 8)])
    def test_repeated_indices(self, n, k):
        parent = SeededRng(SEED, 4).stream(9)
        indices = [3, 3, 0, 2**32 - 1, 7, 3] * 50
        got = parent.sorted_supports(indices, n, k)
        np.testing.assert_array_equal(got, _per_stream_supports(parent, indices, n, k))
        np.testing.assert_array_equal(got[0], got[1])

    # Even a block of 1 row, or of 2 (k + 8) - 1 rows, takes the vectorised
    # pass and builds no child generator.
    @pytest.mark.parametrize("k,rows", [(4, 1), (4, 23), (8, 1), (8, 31)])
    def test_small_blocks_take_the_vectorised_pass(self, k, rows):
        parent = SeededRng(SEED, 7)
        with mock.patch.object(SeededRng, "choice_no_replace", side_effect=AssertionError):
            got = parent.sorted_supports(range(rows), 256, k)
        np.testing.assert_array_equal(got, _per_stream_supports(parent, range(rows), 256, k))

    def test_indices_crossing_the_derivation_chunk(self):
        parent = SeededRng(SEED, 5)
        indices = range(numerics._CHUNK + 300)
        np.testing.assert_array_equal(parent.sorted_supports(indices, 48, 3),
                                      _per_stream_supports(parent, indices, 48, 3))

    def test_large_n_falls_back_to_choice(self):
        parent = SeededRng(SEED, 6)
        with mock.patch.object(numerics, "_floyd_sorted", side_effect=AssertionError):
            got = parent.sorted_supports(range(30), 10_001, 3)
        np.testing.assert_array_equal(got, _per_stream_supports(parent, range(30), 10_001, 3))

    def test_rejected_lemire_draw_falls_back_to_choice(self):
        seed, index, n, k = _REJECTED
        parent = SeededRng(seed)
        *_, words = numerics._child_words(parent._pool, parent._hash, [index])
        unrejected, rejected = numerics._floyd_sorted(words, n, k)
        expected = _per_stream_supports(parent, [index], n, k)
        assert rejected.tolist() == [True]
        assert unrejected.tolist() != expected.tolist()
        indices = [index, *range(5)]
        got = parent.sorted_supports(indices, n, k)
        np.testing.assert_array_equal(got, _per_stream_supports(parent, indices, n, k))
        assert got[0].tolist() == [5014]

    @pytest.mark.parametrize("span", [3, 641, 9713, 9999])
    def test_lemire_rejects_below_the_threshold(self, span):
        # For odd span, u32 = r / span mod 2^32 puts m mod 2^32 at r exactly,
        # so each r is tested at the edge of the rejection zone
        # [0, (2^32 - span) mod span).
        threshold = (2**32 - span) % span
        leftovers = sorted({0, max(threshold - 1, 0), threshold, span - 1, 2**32 - 1})
        u32 = np.array([r * pow(span, -1, 2**32) % 2**32 for r in leftovers], dtype=np.uint32)
        v, rejected = numerics._lemire(u32, np.full(len(u32), span, dtype=np.uint64))
        assert rejected.tolist() == [r < threshold for r in leftovers]
        assert v.tolist() == [int(u) * span >> 32 for u in u32.tolist()]

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 6), (0, 0)])
    def test_k_outside_one_to_n_rejected(self, n, k):
        with pytest.raises(ValueError, match="k must lie in"):
            SeededRng(SEED).sorted_supports(range(3), n, k)


class TestErrors:
    def test_error_hierarchy(self):
        assert issubclass(CapacityError, RuntimeError)
        assert issubclass(NumericalError, RuntimeError)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rows_alone(x, m):
    """Each row of x @ m taken on its own, padded with a zero row: numpy sends
    a one-row product to zgemv, which rounds differently from zgemm."""
    return np.stack([(np.stack([row, np.zeros_like(row)]) @ m)[0] for row in x])


class TestRowIndependentGemm:
    # rip's ascent takes one x @ defect.T over its whole block of rows and
    # relies on each row of that zgemm being computed apart from the others.

    @settings(max_examples=60)
    @given(st.sampled_from([8, 16, 31, 64, 128]), st.integers(2, 300), st.booleans(),
           st.integers(0, 2**32 - 1), st.data())
    def test_row_equals_its_product_alone_and_in_any_block(self, n, rows, transposed, seed,
                                                           data):
        rng = np.random.default_rng(seed)
        x, m = _complex(rng, rows, n), _complex(rng, n, n)
        m = m.T if transposed else m
        whole = x @ m
        assert whole.tobytes() == _rows_alone(x, m).tobytes()
        lo = data.draw(st.integers(0, rows - 2))
        hi = data.draw(st.integers(lo + 2, rows))
        assert (x[lo:hi] @ m).tobytes() == whole[lo:hi].tobytes()

    # 700 x 64 x 64 is large enough for OpenBLAS to split it between threads.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_are_independent_at_one_and_two_threads(self, openblas, threads):
        get, put = openblas
        rng = np.random.default_rng(SEED)
        x, m = _complex(rng, 700, 64), _complex(rng, 64, 64).T
        put(1)
        alone = _rows_alone(x, m)
        put(threads)
        if get() != threads:
            pytest.skip(f"OpenBLAS cannot run {threads} threads here")
        for lo, hi in ((0, 700), (1, 700), (7, 300), (0, 100), (1, 3)):
            assert (x[lo:hi] @ m).tobytes() == alone[lo:hi].tobytes()


class TestPrefixSumCells:
    # infdim.rip_experiment takes each trial's exponential sums once, as
    # sequential prefix sums over max(m) translates, and reads every cell from
    # its m - 1 column with real elementwise arithmetic.

    # The two infdim-scan requests of the benchmark: N = 64 with L = 4 and
    # N = 128 with L = 8, both modes, gamma = 1/16, m = 16, 64, 256, 1024.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n_cut,block_len", [(64, 4), (128, 8)])
    def test_benchmark_cells_equal_single_m_runs(self, openblas, threads, n_cut, block_len):
        get, put = openblas
        put(threads)
        if get() != threads:
            pytest.skip(f"OpenBLAS cannot run {threads} threads here")
        bump = infdim.from_bumps(16.0, [0.0], [1.0], 4 * n_cut)
        schemes = [infdim.make_block_instrument(n_cut, block_len),
                   infdim.make_block_instrument(n_cut, block_len, "rademacher",
                                                SeededRng(SEED, 9999))]
        m_list = [16, 64, 256, 1024]
        grid = infdim.rip_experiment(bump, schemes, m_list, 3, SeededRng(SEED)).deviations
        for scheme, scheme_devs in zip(schemes, grid):
            for m, cell in zip(m_list, scheme_devs):
                single = infdim.rip_experiment(bump, [scheme], [m], 3, SeededRng(SEED))
                assert cell.tobytes() == single.deviations[0, 0].tobytes(), m


class TestBlasPin:
    def test_cli_run_leaves_one_thread(self, openblas, tmp_path):
        get, put = openblas
        put(2)
        assert cli.main(["table1", "--s", "2", "--n", "3", "--d", "4",
                         "--out", str(tmp_path / "t1")]) == 0
        assert get() == 1

    # The mrip sketch is the benchmark's 64-wide ascent, and the rip-scan Gram
    # at m = 256 is 256 wide, large enough for OpenBLAS to split it.
    @pytest.mark.parametrize("argv", [
        ("mrip", "--N", "64", "--m", "256", "--s", "2", "--q", "1", "--delta", "0.3",
         "--trials", "8", "--ascent", "10"),
        ("rip-scan", "--eta", "decaying", "--alpha", "0.25", "--N", "256", "--Neta", "64",
         "--k", "4", "--m", "32,256", "--trials", "50"),
        ("rosenthal", "--variant", "shiftmod", "--N", "32", "--d", "4", "--M", "64,256",
         "--trials", "5"),
    ], ids=["mrip", "rip-scan", "rosenthal"])
    def test_reports_are_byte_identical_at_one_and_two_threads(self, openblas, tmp_path,
                                                                 monkeypatch, argv):
        get, put = openblas
        monkeypatch.setattr(cli, "pin_blas_threads", lambda: None)
        reports = {}
        for threads in (1, 2):
            put(threads)
            if get() != threads:
                pytest.skip(f"OpenBLAS cannot run {threads} threads here")
            assert cli.main([*argv, "--out", str(tmp_path / f"t{threads}")]) == 0
            assert get() == threads
            reports[threads] = {path.suffix: path.read_bytes()
                                for path in tmp_path.glob(f"t{threads}.*")}
        assert reports[1] and reports[1] == reports[2]

    def test_numpy_without_bundled_openblas_is_left_alone(self, tmp_path, monkeypatch):
        # As with MKL or Accelerate: no numpy.libs beside numpy, so no setter.
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert numerics._blas_setter.__wrapped__() is None

    def test_import_and_parser_leave_blas_alone(self):
        # Importing riplab and building the parser must not look the library
        # up: the benchmark times both, and library users keep numpy's default.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(riplab.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
        code = ("import riplab.cli, riplab.rip; riplab.cli.build_parser(); "
                "print(riplab.numerics._blas_setter.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"
