"""Tests for the shared numeric primitives."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riplab import numerics
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
        np.testing.assert_array_equal(
            root.stream(2).standard_normal(8),
            SeededRng(SEED, 2, parent_key=(4,)).standard_normal(8),
        )

    def test_child_index_must_fit_one_word(self):
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match="stream index"):
                SeededRng(SEED).stream(bad)

    def test_complex_normal_is_unit_variance(self):
        z = SeededRng(SEED).complex_normal(200000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_rademacher_values(self):
        r = SeededRng(SEED).rademacher(1000)
        assert set(np.unique(r)) == {-1, 1}

    def test_unit_phases_modulus(self):
        p = SeededRng(SEED).unit_phases(500)
        np.testing.assert_allclose(np.abs(p), 1.0, atol=1e-12)

    def test_choice_no_replace(self):
        idx = SeededRng(SEED).choice_no_replace(20, 8)
        assert len(set(idx.tolist())) == 8
        assert idx.min() >= 0 and idx.max() < 20




def _words(rng: SeededRng) -> np.ndarray:
    """The four uint64 words the source's PCG64 was seeded with."""
    return rng.generator.bit_generator.seed_seq.generate_state(4, np.uint64)


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
        parent = SeededRng(seed, key[-1], key[:-1])
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
            got = SeededRng(seed, key[-1], key[:-1]).standard_normal(64)
            np.testing.assert_array_equal(got, ref.standard_normal(64))

    @pytest.mark.parametrize("draw", [
        lambda r: r.standard_normal(7),
        lambda r: r.complex_normal(5),
        lambda r: r.uniform(-1.0, 2.0, 6),
        lambda r: r.integers(0, 100, 9),
        lambda r: r.rademacher(8),
        lambda r: r.unit_phases(4),
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

    def test_parent_key_entries_must_fit_one_word(self):
        with pytest.raises(ValueError, match="stream index"):
            SeededRng(SEED, 0, parent_key=(2**32,))


class TestErrors:
    def test_error_hierarchy(self):
        assert issubclass(CapacityError, RuntimeError)
        assert issubclass(NumericalError, RuntimeError)
