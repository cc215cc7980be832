"""Tests for sparsity models, witness draws, and the sparsity-parameter optimizer."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riplab.instruments import (
    make_decaying_window,
    make_flat,
    make_scaled_identity,
    make_schatten_decay,
)
from riplab.numerics import SeededRng, lq_norm
from riplab.sparsity import (
    Canonical,
    LqCap,
    max_sparsity_level,
    optimize_sparsity_parameter,
    sample_sparse,
    sparsity_level,
    sparsity_parameter_value,
    witness_support_size,
)

SEED = 5150


class TestSparsityLevel:
    def test_basis_vector(self):
        e1 = np.zeros(8)
        e1[0] = 1.0
        assert sparsity_level(e1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_flat_k_sparse(self):
        for k in (1, 3, 7):
            x = np.zeros(16, dtype=complex)
            x[:k] = np.exp(1j * np.linspace(0, 2, k))
            assert sparsity_level(x, 1) == pytest.approx(k, rel=1e-12)

    def test_equal_singular_values_matrix(self):
        rng = np.random.default_rng(SEED)
        r = 3
        u, _ = np.linalg.qr(rng.standard_normal((6, r)))
        v, _ = np.linalg.qr(rng.standard_normal((6, r)))
        a = u @ v.T
        assert sparsity_level(a, 1) == pytest.approx(r, rel=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sparsity_level(np.zeros(4), 1)

    def test_bounded_by_max_level(self):
        rng = SeededRng(SEED)
        for q in (1.0, 1.25, 1.5, 1.9):
            bound = max_sparsity_level(q, 24)
            for trial in range(20):
                x = rng.stream(trial).complex_normal(24)
                assert sparsity_level(x, q) <= bound * (1 + 1e-12)

    def test_all_ones_attains_max_level(self):
        for q, n in ((1.0, 16), (4.0 / 3.0, 256), (1.7, 31)):
            np.testing.assert_allclose(
                sparsity_level(np.ones(n), q), max_sparsity_level(q, n), rtol=1e-12
            )


class TestMaxSparsityLevel:
    def test_l1_equals_dimension(self):
        assert max_sparsity_level(1, 16) == pytest.approx(16.0)

    def test_q_two_limit(self):
        assert max_sparsity_level(2, 100) == pytest.approx(1.0)

    def test_four_thirds(self):
        assert max_sparsity_level(4.0 / 3.0, 256) == pytest.approx(16.0, rel=1e-12)

    def test_matches_flat_support_brute_force(self):
        q, n = 1.4, 64
        levels = [j ** (2.0 / q - 1.0) for j in range(1, n + 1)]
        assert max_sparsity_level(q, n) == pytest.approx(max(levels), rel=1e-12)


class TestWitnessSupportSize:
    def test_integral_cases(self):
        assert witness_support_size(1.0, 4.0, 16) == 4
        assert witness_support_size(1.0, 3.5, 16) == 3
        assert witness_support_size(4.0 / 3.0, 2.0, 64) == 4

    def test_clamped_to_ambient(self):
        assert witness_support_size(1.0, 100.0, 8) == 8

    def test_q_two_everything(self):
        assert witness_support_size(2.0, 1.0, 12) == 12

    def test_exponent_overflow_caps_at_ambient(self):
        # 2^(1 / (2/1.999 - 1)) = 2^1999 overflows a float; the cap is N.
        assert witness_support_size(1.999, 2.0, 64) == 64


_CAPS = st.sampled_from([LqCap(1.0, 1.0), LqCap(1.0, 2.5), LqCap(1.25, 2.0),
                         LqCap(4.0 / 3.0, 3.0), LqCap(1.7, 1.5), LqCap(2.0, 1.0)])


class TestSampleSparse:
    def test_lqcap_meets_level_constraint(self):
        for x in sample_sparse(LqCap(1.0, 4.0), 32, 10, SeededRng(SEED + 3)):
            assert lq_norm(x, 1) <= 2.0 * np.linalg.norm(x) * (1 + 1e-12)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60)
    @given(_CAPS, st.integers(1, 40), st.integers(0, 12), st.integers(0, 2**16))
    def test_rows_are_flat_unit_witnesses(self, model, ambient, count, seed):
        block = sample_sparse(model, ambient, count, SeededRng(seed))
        assert block.shape == (count, ambient)
        j = witness_support_size(model.q, model.s, ambient)
        for x in block:
            moduli = np.abs(x[x != 0])
            assert moduli.size == j
            np.testing.assert_allclose(moduli, 1.0 / math.sqrt(j), rtol=1e-15)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60)
    @given(_CAPS, st.integers(1, 40), st.integers(0, 12), st.integers(0, 12),
           st.integers(0, 2**16))
    def test_fewer_rows_are_a_prefix(self, model, ambient, fewer, extra, seed):
        head = sample_sparse(model, ambient, fewer, SeededRng(seed))
        block = sample_sparse(model, ambient, fewer + extra, SeededRng(seed))
        assert [v.hex() for v in head.view(float).ravel()] == \
            [v.hex() for v in block[:fewer].view(float).ravel()]

    def test_supports_and_phases_are_uniform(self):
        # 28,000 witnesses on j = 2 of N = 8 coordinates: each of the C(8, 2)
        # = 28 supports expects 1,000 hits, sigma = sqrt(28000 p (1 - p)) at
        # p = 1/28.  The 56,000 phases average to 0 within 5 / sqrt(56000).
        block = sample_sparse(LqCap(1.0, 2.0), 8, 28_000, SeededRng(SEED + 4))
        rows, cols = np.nonzero(block)
        supports = cols.reshape(-1, 2)
        counts = np.zeros((8, 8), dtype=int)
        np.add.at(counts, (supports[:, 0], supports[:, 1]), 1)
        hits = counts[np.triu_indices(8, 1)]
        sigma = math.sqrt(28_000 * (1 / 28) * (27 / 28))
        assert hits.sum() == 28_000
        assert np.all(np.abs(hits - 1_000) <= 5 * sigma), hits
        phases = block[rows, cols] * math.sqrt(2)
        assert abs(phases.mean()) <= 5 / math.sqrt(phases.size)

    def test_canonical_model_rejected(self):
        # Canonical models are measured through their supports, not witnesses.
        with pytest.raises(TypeError, match="LqCap"):
            sample_sparse(Canonical(2), 8, 1, SeededRng(SEED))


class TestSparsityParameter:
    def test_flat_r1_curve_increases(self):
        # (2/3) ln(N / r) = 1.85 < 2: f rises from q' = 2, so the minimum is the endpoint.
        inst = make_flat(16)
        values = [sparsity_parameter_value(inst, 1.0, q) for q in np.geomspace(2.0, 128.0, 60)]
        assert all(a < b for a, b in zip(values, values[1:]))
        opt = optimize_sparsity_parameter(inst, 1.0)
        assert (opt.q_opt, opt.value, opt.gain) == (2.0, values[0], 1.0)

    def test_flat_large_matches_direct_evaluation(self):
        opt = optimize_sparsity_parameter(make_flat(1024), 16.0)
        q = opt.q_opt
        assert q == pytest.approx((2.0 / 3.0) * math.log(1024 / 16.0), rel=1e-9)
        direct = q**3 * 16.0 ** (1.0 - 2.0 / q) * 1024.0 ** (2.0 / q)
        assert opt.value == pytest.approx(direct, rel=1e-12)
        assert opt.gain == pytest.approx(8.0 * 1024 / direct, rel=1e-12)

    def test_window_curve_shape(self):
        # at this window size the cubic prefactor dominates: the curve rises
        # from q' = 2, so the minimum is the endpoint f(2) = 8 ||eta||_2^2
        inst = make_decaying_window(256, 64, 0.25)
        f25 = sparsity_parameter_value(inst, 8.0, 2.5)
        f4 = sparsity_parameter_value(inst, 8.0, 4.0)
        f64 = sparsity_parameter_value(inst, 8.0, 64.0)
        assert f25 < f4 < f64
        opt = optimize_sparsity_parameter(inst, 8.0)
        assert (opt.q_opt, opt.gain) == (2.0, 1.0)
        assert opt.value == pytest.approx(2048.0, rel=1e-9)

    def test_optimizer_never_worse_than_fixed_points(self):
        inst = make_flat(1024)
        opt = optimize_sparsity_parameter(inst, 16.0)
        for q in (2.0, 1.0 + math.log(1024), 64.0, 1e6):
            assert opt.value <= sparsity_parameter_value(inst, 16.0, q)
        assert opt.gain > 1.0

    def test_curve_is_finite(self):
        inst = make_decaying_window(64, 16, 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [sparsity_parameter_value(inst, 4.0, q) for q in np.geomspace(2, 1e8, 80)]
            opt = optimize_sparsity_parameter(inst, 4.0)
        assert np.all(np.isfinite(values))
        assert all(math.isfinite(x) for x in (opt.q_opt, opt.value, opt.gain))

    def test_matrix_instrument_uses_schatten_norms(self):
        from riplab.instruments import make_scaled_identity

        inst = make_scaled_identity(4)
        # f(q') = (q')^3 r^(1 - 2/q') n^(1 + 2/q') for the scaled identity
        val = sparsity_parameter_value(inst, 2.0, 4.0)
        assert val == pytest.approx(64.0 * 2.0 ** 0.5 * 4.0 ** 1.5, rel=1e-12)

    @pytest.mark.parametrize("q_prime", [1.999, math.inf, math.nan])
    def test_value_needs_q_prime_in_two_to_infinity(self, q_prime):
        with pytest.raises(ValueError, match=r"q' must lie in \[2, inf\)"):
            sparsity_parameter_value(make_flat(4), 2.0, q_prime)

    def test_value_at_two_is_the_baseline(self):
        # f(2) = 8 ||eta||_2^2 = 8 * size, whatever r is.
        inst = make_decaying_window(256, 64, 0.25)
        for r in (1e-300, 1.0, 1e6):
            assert sparsity_parameter_value(inst, r, 2.0) == pytest.approx(2048.0, rel=1e-9)


# For these instruments log f(1/u) = -3 log u + (1 - 2u) log r + 2u log D + const
# (D = N, or n for the scaled identity), minimized at q' = max(2, (2/3) ln(D / r)):
# flat N = 256 at r = 8 gives 2.310491, and N = 16 at r = 1e-300 gives 462.365.
_CLOSED_FORM_R = (1e-300, 1e-100, 1e-10, 1e-3, 1.0, 8.0, 1e3, 1e6)


class TestExactMinimizer:
    @pytest.mark.parametrize("make,size", [(make_flat, 16), (make_flat, 256),
                                           (make_flat, 4096), (make_scaled_identity, 2),
                                           (make_scaled_identity, 8)],
                             ids=["flat16", "flat256", "flat4096", "identity2", "identity8"])
    @pytest.mark.parametrize("r", _CLOSED_FORM_R, ids=[f"r{r:g}" for r in _CLOSED_FORM_R])
    def test_closed_form(self, make, size, r):
        opt = optimize_sparsity_parameter(make(size), r)
        q_closed = max(2.0, (2.0 / 3.0) * math.log(size / r))
        assert abs(1.0 / opt.q_opt - 1.0 / q_closed) <= 1e-9
        assert (opt.q_opt == 2.0) == (opt.gain == 1.0) == (q_closed == 2.0)

    def test_minimizer_just_inside_the_endpoint(self):
        # r = N e^(-3.015) puts the closed-form minimizer at q' = 2.01, where
        # the gain over q' = 2 is only about 1 + 2e-5.
        opt = optimize_sparsity_parameter(make_flat(256), 256 * math.exp(-3.015))
        assert abs(1.0 / opt.q_opt - 1.0 / 2.01) <= 1e-9
        assert 1.0 < opt.gain < 1.0001

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_value_is_below_the_objective_everywhere(self, data):
        kind = data.draw(st.sampled_from(["decaying", "schatten-decay", "flat"]))
        if kind == "decaying":
            n = data.draw(st.integers(1, 300))
            inst = make_decaying_window(n, data.draw(st.integers(1, n)),
                                        data.draw(st.floats(0.01, 0.49)))
        elif kind == "schatten-decay":
            inst = make_schatten_decay(data.draw(st.integers(1, 8)),
                                       data.draw(st.floats(0.01, 0.49)),
                                       SeededRng(data.draw(st.integers(0, 2**32 - 1))))
        else:
            inst = make_flat(data.draw(st.integers(1, 512)))
        r = 10.0 ** data.draw(st.floats(-300.0, 6.0))
        randoms = data.draw(st.lists(st.floats(2.0, 1e4), min_size=1, max_size=20))
        grid = 1.0 / np.linspace(0.0, 0.5, 2001)[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = optimize_sparsity_parameter(inst, r)
            values = [sparsity_parameter_value(inst, r, float(q)) for q in [*grid, *randoms]]
        assert opt.value <= min(values) * (1.0 + 1e-12)
        assert opt.value == sparsity_parameter_value(inst, r, opt.q_opt)
        assert (opt.q_opt == 2.0) == (opt.gain == 1.0)
        assert opt.gain >= 1.0
