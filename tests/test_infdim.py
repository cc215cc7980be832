"""Tests for the function-space sampling module.

Reference values for the bump profile come from scipy.integrate.quad, which
is independent of the FFT-based quadrature used by the library.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from riplab import infdim
from riplab.infdim import (
    BlockInstrument,
    FourierFunction,
    block_measure,
    covering_dyadic_level,
    differentiate,
    dyadic_block_frequencies,
    dyadic_measure,
    evaluate,
    from_bumps,
    lq_norm_function,
    make_block_instrument,
    rip_experiment,
    smooth_sparse_membership,
    standard_bump,
    time_sample_measure,
    truncation_level,
    values_on_grid,
    weighted_seminorm,
)
from riplab.numerics import SeededRng

SEED = 47203
_T_VALUE = st.floats(-10.0, 10.0, allow_nan=False)


def _profile(x: float) -> float:
    if abs(x) >= 0.5:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - 4.0 * x * x))


def _profile_deriv(x: float) -> float:
    if abs(x) >= 0.5:
        return 0.0
    base = _profile(x)
    if base == 0.0:
        return 0.0
    return base * (-8.0 * x) / (1.0 - 4.0 * x * x) ** 2


def _profile_lp(p: float) -> float:
    val, _ = quad(lambda x: _profile(x) ** p, -0.5, 0.5, limit=200,
                  epsabs=1e-13, epsrel=1e-13)
    return val ** (1.0 / p)


PHI_L1 = _profile_lp(1.0)
PHI_L2 = _profile_lp(2.0)
PHI_L4 = _profile_lp(4.0)
DPHI_L2 = math.sqrt(quad(lambda x: _profile_deriv(x) ** 2, -0.5, 0.5,
                         limit=200, epsabs=1e-13, epsrel=1e-13)[0])
# The support-threshold estimate undercounts by the deterministic fraction of
# the bump interval where the profile stays above 1e-8 of its peak.
SUPPORT_VISIBLE = 0.97386


def psi(k: int, n_big: int) -> FourierFunction:
    coeffs = np.zeros(2 * n_big, dtype=complex)
    coeffs[k + n_big] = 1.0
    return FourierFunction(coeffs, n_big)


def circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def draw_centers(stream: SeededRng, count: int, t_scale: float) -> list:
    centers = []
    while len(centers) < count:
        c = float(stream.uniform(0.0, 1.0))
        if all(circ_dist(c, o) > 1.2 / t_scale for o in centers):
            centers.append(c)
    return centers


def random_bumps(stream: SeededRng, t_scale: float, count: int, n_big: int):
    """Random disjoint bump superposition; returns (function, amplitudes)."""
    centers = draw_centers(stream, count, t_scale)
    moduli = stream.uniform(0.5, 2.0, count)
    phases = np.exp(2j * np.pi * stream.uniform(0.0, 1.0, count))
    amps = moduli * phases
    return from_bumps(t_scale, centers, amps, n_big), amps


def drop_dc(f: FourierFunction) -> FourierFunction:
    coeffs = f.coeffs.copy()
    coeffs[f.n_big] = 0.0
    return FourierFunction(coeffs, f.n_big)


def random_poly(stream: SeededRng, n_big: int, dc_free: bool = False) -> FourierFunction:
    coeffs = stream.complex_normal(2 * n_big)
    f = FourierFunction(coeffs, n_big)
    return drop_dc(f) if dc_free else f


class TestFourierFunction:
    def test_coefficient_lookup(self):
        f = psi(3, 8)
        assert f.coeff(3) == 1.0 + 0j
        assert f.coeff(-8) == 0.0
        assert f.frequencies[0] == -8 and f.frequencies[-1] == 7

    def test_out_of_band_lookup_rejected(self):
        f = psi(0, 4)
        with pytest.raises(ValueError):
            f.coeff(4)
        with pytest.raises(ValueError):
            f.coeff(-5)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            FourierFunction(np.zeros(7), 4)
        with pytest.raises(ValueError):
            FourierFunction(np.zeros(2), 0)

    def test_parseval_against_grid_average(self):
        rng = SeededRng(SEED)
        f = random_poly(rng, 32)
        vals = values_on_grid(f, 4 * f.n_big)
        grid_l2 = math.sqrt(float(np.mean(np.abs(vals) ** 2)))
        assert abs(grid_l2 - f.l2_norm()) <= 1e-12 * f.l2_norm()

    def test_evaluate_matches_grid(self):
        rng = SeededRng(SEED + 1)
        f = random_poly(rng, 16)
        m = 64
        vals = values_on_grid(f, m)
        ts = np.arange(m) / m
        direct = evaluate(f, ts)
        assert np.max(np.abs(vals - direct)) <= 1e-12 * f.l2_norm()

    def test_pure_mode_evaluation(self):
        assert abs(evaluate(psi(1, 4), 0.25) - 1j) <= 1e-12

    def test_grid_must_cover_band(self):
        with pytest.raises(ValueError):
            values_on_grid(psi(0, 8), 8)


class TestBumps:
    def test_profile_peak_and_support(self):
        assert standard_bump(np.array([0.0]))[0] == 1.0
        vals = standard_bump(np.array([-0.5, 0.5, 0.7]))
        assert np.all(vals == 0.0)

    def test_single_bump_support_fraction(self):
        t_scale = 16.0
        f = from_bumps(t_scale, [0.37], [1.0], 2048)
        vals = np.abs(values_on_grid(f, 8 * f.n_big))
        gamma = float(np.mean(vals > 1e-8 * vals.max()))
        cell = 1.0 / (8 * f.n_big)
        assert gamma <= 1.0 / t_scale + cell + 1e-12
        assert gamma >= SUPPORT_VISIBLE / t_scale - 2 * cell

    def test_norm_and_derivative_identities(self):
        """Dilation laws for disjoint superpositions over a parameter sweep.

        For f(t) = sum_j a_j T phi(T(t - c_j)) with disjoint supports:
          L_p norm   = ||phi||_p * T^(1-1/p) * (sum |a_j|^p)^(1/p)
          derivative ||Df||_2 / ||f||_2 = (||phi'||_2 / ||phi||_2) * T / (2 pi)
        """
        rng = SeededRng(SEED + 2)
        targets = {1.0: PHI_L1, 2.0: PHI_L2, 4.0: PHI_L4}
        for t_scale in (8.0, 16.0, 32.0):
            for count in (1, 2, 4):
                stream = rng.stream(int(t_scale) * 10 + count)
                n_big = int(64 * t_scale)
                f, amps = random_bumps(stream, t_scale, count, n_big)
                for p, phi_p in targets.items():
                    expected = (
                        phi_p
                        * t_scale ** (1.0 - 1.0 / p)
                        * float(np.sum(np.abs(amps) ** p)) ** (1.0 / p)
                    )
                    got = lq_norm_function(f, p)
                    assert abs(got - expected) <= 1e-6 * expected, (t_scale, count, p)
                ratio = differentiate(f).l2_norm() / f.l2_norm()
                expected = (DPHI_L2 / PHI_L2) * t_scale / (2.0 * math.pi)
                assert abs(ratio - expected) <= 1e-6 * expected

    def test_multi_bump_support_fraction(self):
        f, _ = random_bumps(SeededRng(SEED + 3), 16.0, 3, 2048)
        vals = np.abs(values_on_grid(f, 8 * f.n_big))
        gamma = float(np.mean(vals > 1e-8 * vals.max()))
        cell = 1.0 / (8 * f.n_big)
        assert gamma <= 3.0 / 16.0 + 3 * cell + 1e-12
        assert gamma >= SUPPORT_VISIBLE * 3.0 / 16.0 - 6 * cell

    def test_center_collision_rejected(self):
        with pytest.raises(ValueError):
            from_bumps(16.0, [0.2, 0.25], [1.0, 1.0], 256)

    def test_wraparound_overlap_rejected(self):
        with pytest.raises(ValueError):
            from_bumps(16.0, [0.005, 0.995], [1.0, 1.0], 256)

    def test_scale_must_exceed_one(self):
        with pytest.raises(ValueError):
            from_bumps(1.0, [0.5], [1.0], 64)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            from_bumps(8.0, [0.1, 0.5], [1.0], 64)

    @pytest.mark.parametrize("change,match", [
        ({"t_scale": math.nan}, "T must be finite"),
        ({"t_scale": math.inf}, "T must be finite"),
        ({"centers": [math.nan]}, "centers must be finite"),
        ({"centers": [-math.inf]}, "centers must be finite"),
        ({"amplitudes": [math.nan]}, "amplitudes must be finite"),
        ({"amplitudes": [complex(1.0, math.inf)]}, "amplitudes must be finite"),
    ])
    def test_non_finite_input_rejected(self, change, match):
        args = {"t_scale": 8.0, "centers": [0.3], "amplitudes": [1.0], "n_big": 64, **change}
        with pytest.raises(ValueError, match=match):
            from_bumps(**args)

    @settings(max_examples=200)
    @given(t_scale=st.floats(1.0, 40.0, exclude_min=True),
           n_big=st.sampled_from([1, 2, 3, 4, 8, 16, 64]),
           centers=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
           amp=st.complex_numbers(max_magnitude=4.0))
    # T = 2 on 16 nodes puts both window ends exactly on nodes; a T just
    # above 1 has a window of the whole grid; -0.01 wraps below node 0.
    @example(t_scale=2.0, centers=[0.25], n_big=2, amp=1.0)
    @example(t_scale=1.0 + 2**-40, centers=[0.7], n_big=2, amp=1j)
    @example(t_scale=8.0, centers=[-0.01, 0.5], n_big=1, amp=2.0)
    def test_windowed_synthesis_equals_the_whole_grid(self, t_scale, n_big, centers, amp):
        # Each bump is added on its support window only; the coefficients
        # must equal a sum of every bump over all 8 n_big nodes bit for bit,
        # down to few nodes per bump width, where every node counts.
        assume(all(circ_dist(a, b) > 1.0 / t_scale
                   for i, a in enumerate(centers) for b in centers[i + 1:]))
        amplitudes = [amp * (j + 1) for j in range(len(centers))]
        m_quad = 8 * n_big
        t = np.arange(m_quad) / m_quad
        vals = np.zeros(m_quad, dtype=complex)
        for c, a in zip(np.asarray(centers) % 1.0, np.asarray(amplitudes, dtype=complex)):
            vals += a * t_scale * standard_bump(t_scale * ((t - c + 0.5) % 1.0 - 0.5))
        expected = (np.fft.fft(vals) / m_quad)[np.arange(-n_big, n_big) % m_quad]
        got = from_bumps(t_scale, centers, amplitudes, n_big).coeffs
        assert got.tobytes() == expected.tobytes()


class TestShiftAndDerivative:
    def test_shift_moves_evaluation_point(self):
        f = random_poly(SeededRng(SEED + 6), 16)
        t, x = 0.271, 0.644
        g = FourierFunction(f.coeffs * np.exp(-2j * np.pi * f.frequencies * t), f.n_big)
        assert abs(evaluate(g, x) - evaluate(f, x - t)) <= 1e-10 * f.l2_norm()

    def test_seminorms_are_shift_invariant(self):
        f = random_poly(SeededRng(SEED + 7), 32)
        g = FourierFunction(f.coeffs * np.exp(-2j * np.pi * f.frequencies * 0.377), f.n_big)
        a = weighted_seminorm(f, 16)
        b = weighted_seminorm(g, 16)
        assert abs(a - b) <= 1e-12 * max(a, 1.0)

    def test_first_mode_is_derivative_fixed_point(self):
        f = psi(1, 8)
        g = differentiate(f)
        assert np.allclose(g.coeffs, f.coeffs, rtol=0, atol=0)

    def test_antiderivative_inverts_derivative(self):
        f = random_poly(SeededRng(SEED + 8), 32, dc_free=True)
        g = differentiate(differentiate(f), "antiderivative")
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-14 * f.l2_norm()

    def test_inverse_square_norm_of_derivative(self):
        # With the normalized derivative, the 1 / max(k^2, 1) weights undo it.
        f = random_poly(SeededRng(SEED + 9), 64, dc_free=True)
        d = differentiate(f)
        w = 1.0 / np.maximum(d.frequencies.astype(float) ** 2, 1.0)
        lhs = math.sqrt(float(np.sum(w * np.abs(d.coeffs) ** 2)))
        assert abs(lhs - f.l2_norm()) <= 1e-12 * f.l2_norm()

    def test_antiderivative_requires_dc_free(self):
        with pytest.raises(ValueError):
            differentiate(psi(0, 4), "antiderivative")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            differentiate(psi(1, 4), "gradient")


class TestWeightsAndNorms:
    def test_truncated_out_of_band_mode(self):
        assert weighted_seminorm(psi(67, 128), 64) == 0.0

    def test_truncated_dc_mode(self):
        assert weighted_seminorm(psi(0, 128), 64) == 1.0

    def test_truncated_window_is_half_open(self):
        norms = [weighted_seminorm(psi(k, 8), 4) for k in range(-8, 8)]
        assert norms == [1.0 if -4 <= k < 4 else 0.0 for k in range(-8, 8)]

    def test_cutoff_beyond_band_rejected(self):
        with pytest.raises(ValueError, match="exceeds the carrier band"):
            weighted_seminorm(psi(0, 8), 16)

    def test_pure_modes_have_unit_lq_norm(self):
        for q in (1.0, 1.5, 2.0, 4.0, math.inf):
            got = lq_norm_function(psi(5, 16), q)
            assert abs(got - 1.0) <= 1e-12, q

    def test_dc_plus_first_mode_l2(self):
        coeffs = np.zeros(32, dtype=complex)
        coeffs[16] = 1.0
        coeffs[17] = 1.0
        f = FourierFunction(coeffs, 16)
        assert abs(lq_norm_function(f, 2.0) - math.sqrt(2.0)) <= 1e-12

    def test_quadrature_matches_parseval(self):
        rng = SeededRng(SEED + 10)
        for trial in range(5):
            f = random_poly(rng.stream(trial), 128)
            got = lq_norm_function(f, 2.0)
            assert abs(got - f.l2_norm()) <= 1e-8 * f.l2_norm()

    def test_sup_norm_on_grid(self):
        f = random_poly(SeededRng(SEED + 11), 16)
        vals = np.abs(values_on_grid(f, 8 * f.n_big))
        assert abs(lq_norm_function(f, math.inf) - vals.max()) <= 1e-12

    def test_lq_domain(self):
        with pytest.raises(ValueError):
            lq_norm_function(psi(0, 4), 0.5)


class TestMembership:
    def test_dc_mode_is_flat(self):
        rep = smooth_sparse_membership(psi(0, 16), 1.0, 1.0)
        assert rep["measured_rho"] == 0.0
        assert rep["measured_gamma"] == 1.0
        assert rep["member"]

    def test_single_bump_profile_constants(self):
        t_scale = 16.0
        f = from_bumps(t_scale, [0.37], [1.0], 2048)
        rep = smooth_sparse_membership(f, 1e9, 1.0)
        cell = 1.0 / (8 * f.n_big)
        assert rep["measured_gamma"] <= 1.0 / t_scale + cell + 1e-12
        assert rep["measured_gamma"] >= SUPPORT_VISIBLE / t_scale - 2 * cell
        expected_rho = t_scale * DPHI_L2 / PHI_L2
        assert abs(rep["measured_rho"] - expected_rho) <= 1e-6 * expected_rho

    def test_member_flags(self):
        # Support thresholding needs the wide carrier band (128x the dilation)
        # or truncation ripple leaks past the 1e-8 cutoff.
        f = from_bumps(8.0, [0.5], [1.0], 1024)
        rho = 8.0 * DPHI_L2 / PHI_L2
        assert smooth_sparse_membership(f, 1.05 * rho, 0.2)["member"]
        assert not smooth_sparse_membership(f, 0.95 * rho, 0.2)["member"]
        assert not smooth_sparse_membership(f, 1.05 * rho, 0.1)["member"]

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            smooth_sparse_membership(FourierFunction(np.zeros(8), 4), 1.0, 1.0)

    def test_parameter_domains(self):
        f = psi(0, 4)
        with pytest.raises(ValueError):
            smooth_sparse_membership(f, 0.0, 1.0)
        with pytest.raises(ValueError):
            smooth_sparse_membership(f, 1.0, 1.5)

    def test_smooth_support_norm_comparison(self):
        """Members with derivative ratio <= N/2 obey the band-seminorm bound.

        ||f||_Lq <= sqrt((1 + 4 rho^2/N^2) gamma^(2/q-1)) * ||f||_2,w with the
        window [-N, N), using the measured rho and gamma.
        """
        n_cut = 64
        rng = SeededRng(SEED + 12)
        for trial in range(12):
            stream = rng.stream(trial)
            count = int(stream.integers(1, 3))
            f, _ = random_bumps(stream, 8.0, count, 1024)
            rep = smooth_sparse_membership(f, 1e9, 1.0)
            rho, gamma = rep["measured_rho"], rep["measured_gamma"]
            assert rho <= n_cut / 2
            base = weighted_seminorm(f, n_cut)
            for q in (1.25, 1.5, 2.0):
                lhs = lq_norm_function(f, q)
                rhs = math.sqrt(
                    (1.0 + 4.0 * rho**2 / n_cut**2) * gamma ** (2.0 / q - 1.0)
                ) * base
                assert lhs <= rhs * (1 + 1e-9), (trial, q)


class TestBlockMeasurements:
    def test_frequency_grid_tiles_window(self):
        inst = make_block_instrument(8, 4)
        grid = inst.frequency_grid()
        assert grid.shape == (inst.n_blocks, inst.block_len) == (4, 4)
        assert np.array_equal(np.sort(grid.ravel()), np.arange(-8, 8))
        np.testing.assert_array_equal(inst.signs, np.ones(4))

    def test_block_length_must_divide_window(self):
        with pytest.raises(ValueError):
            make_block_instrument(8, 3)
        with pytest.raises(ValueError):
            BlockInstrument(8, np.ones(3))

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            make_block_instrument(8, 4, "rademacher")
        with pytest.raises(ValueError):
            make_block_instrument(8, 4, "scrambled")
        with pytest.raises(ValueError):
            BlockInstrument(8, np.array([1.0, 2.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            BlockInstrument(8, np.ones((2, 2)))
        with pytest.raises(ValueError):
            BlockInstrument(8, np.ones(0))

    def test_one_hot_deterministic(self):
        inst = make_block_instrument(8, 4)
        k0 = 3
        out = block_measure(psi(k0, 32), inst, 0.0)
        expected = np.zeros(4, dtype=complex)
        expected[(k0 + 8) // 4] = 1.0
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_one_hot_rademacher_sign(self):
        inst = make_block_instrument(8, 4, "rademacher", SeededRng(SEED + 13))
        k0 = -6
        out = block_measure(psi(k0, 32), inst, 0.0)
        l, j = (k0 + 8) // 4, (k0 + 8) % 4
        expected = np.zeros(4, dtype=complex)
        expected[l] = inst.signs[j]
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_translation_phase(self):
        inst = make_block_instrument(8, 4)
        k0, t = 5, 0.3
        out = block_measure(psi(k0, 32), inst, t)
        phase = np.exp(-2j * np.pi * k0 * t)
        assert abs(out[(k0 + 8) // 4] - phase) <= 1e-12

    def test_unit_blocks_return_coefficient_window(self):
        f = random_poly(SeededRng(SEED + 14), 16)
        inst = make_block_instrument(4, 1)
        out = block_measure(f, inst, 0.0)
        assert np.allclose(out, f.coeffs[12:20], rtol=0, atol=1e-15)

    def test_shared_sign_pattern_across_blocks(self):
        inst = make_block_instrument(4, 2, "rademacher", SeededRng(SEED + 15))
        flat = FourierFunction(np.ones(16, dtype=complex), 8)
        out = block_measure(flat, inst, 0.0)
        expected = inst.signs.sum()
        assert np.allclose(out, expected, rtol=0, atol=1e-14)

    def test_grid_average_recovers_window_seminorm(self):
        rng = SeededRng(SEED + 16)
        f = random_poly(rng, 64)
        ts = np.arange(4 * f.n_big) / (4 * f.n_big)
        for block_len in (1, 4, 8):
            for mode in ("deterministic", "rademacher"):
                inst_rng = rng.stream(block_len)
                inst = (
                    make_block_instrument(16, block_len)
                    if mode == "deterministic"
                    else make_block_instrument(16, block_len, mode, inst_rng)
                )
                vals = block_measure(f, inst, ts)
                mean_energy = float(np.mean(np.sum(np.abs(vals) ** 2, axis=1)))
                target = weighted_seminorm(f, 16) ** 2
                assert abs(mean_energy - target) <= 1e-10 * target, (block_len, mode)

    def test_band_must_cover_window(self):
        inst = make_block_instrument(16, 4)
        with pytest.raises(ValueError):
            block_measure(psi(0, 8), inst, 0.0)

    def test_vectorized_translates(self):
        f = random_poly(SeededRng(SEED + 17), 16)
        inst = make_block_instrument(8, 2)
        out = block_measure(f, inst, np.array([0.0, 0.25, 0.5]))
        assert out.shape == (3, 8)
        single = block_measure(f, inst, 0.25)
        assert np.allclose(out[1], single, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("mode", ["deterministic", "rademacher"])
    def test_scheme_energy_drops_only_the_unit_phase(self, mode):
        # The energy at t is g(0) + 2 Re sum_D g(D) exp(-2 pi i D t) in the
        # lags g of the block coefficients: block_measure's block-start phase
        # has modulus 1, so it drops out of the energy.
        rng = SeededRng(SEED + 18)
        f = random_poly(rng, 64)
        inst = make_block_instrument(32, 4, mode, rng.stream(1))
        ts = np.concatenate([rng.uniform(-3.0, 4.0, 200), [0.0, 0.5, 1.0]])
        g = infdim._lags(infdim._block_coeffs(f, inst))
        waves = np.exp(-2j * np.pi * np.outer(ts % 1.0, np.arange(1, 4)))
        energy = g[0].real + 2.0 * np.real(waves @ g[1:])
        expected = np.sum(np.abs(block_measure(f, inst, ts)) ** 2, axis=1)
        np.testing.assert_allclose(energy, expected, rtol=1e-13, atol=0)

    @settings(max_examples=60)
    @given(n_cut=st.integers(1, 256), divisor=st.integers(0, 63),
           mode=st.sampled_from(["deterministic", "rademacher"]), extra_band=st.integers(0, 8),
           top_block=st.booleans(), seed=st.integers(0, 2**16),
           ts=st.one_of(_T_VALUE, st.lists(_T_VALUE, min_size=1, max_size=4)))
    # At t = 9.699248 the unreduced phase of k = 255 is 2.4e-12 off.
    @example(n_cut=256, divisor=0, mode="deterministic", extra_band=0, top_block=True, seed=0,
             ts=9.699248)
    def test_matches_written_out_sum(self, n_cut, divisor, mode, extra_band, top_block,
                                     seed, ts):
        divisors = [b for b in range(1, 2 * n_cut + 1) if (2 * n_cut) % b == 0]
        block_len = divisors[divisor % len(divisors)]
        n_big = n_cut + extra_band
        stream = SeededRng(seed)
        if top_block:
            # Unit coefficients on the highest block: every phase error of
            # that block adds up in one component.
            coeffs = np.zeros(2 * n_big, dtype=complex)
            coeffs[n_big + n_cut - block_len:n_big + n_cut] = 1.0
            f = FourierFunction(coeffs, n_big)
        else:
            f = random_poly(stream, n_big)
        s = stream.rademacher(block_len) if mode == "rademacher" else np.ones(block_len)
        inst = BlockInstrument(n_cut, s)

        def phase(k, t):
            # exp(-2 pi i k t) with k t reduced mod 1 exactly, so the
            # reference keeps full accuracy for t far outside [0, 1).
            return cmath.exp(-2j * math.pi * float(Fraction(t) * k % 1))

        # Block l holds k = -n_cut + l L + j, j < L, each with its sign s_j.
        expected = np.array([[
            sum(s[j] * phase(k, t) * f.coeff(k)
                for j, k in enumerate(range(-n_cut + l * block_len, -n_cut + (l + 1) * block_len)))
            for l in range(inst.n_blocks)] for t in np.atleast_1d(ts)])
        if np.ndim(ts) == 0:
            expected = expected[0]
        out = block_measure(f, inst, ts)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * float(np.abs(f.coeffs).sum())


class TestTimeSampling:
    def test_first_mode_quarter_turn(self):
        assert abs(time_sample_measure(psi(1, 8), 0.25) - 1j) <= 1e-12

    def test_dc_rejected(self):
        coeffs = np.zeros(16, dtype=complex)
        coeffs[8] = 1.0
        coeffs[9] = 1.0
        with pytest.raises(ValueError):
            time_sample_measure(FourierFunction(coeffs, 8), 0.1)

    def test_harmonic_route_recovers_point_values(self):
        """Summing coeff_j / j of the translated derivative telescopes back to
        point evaluation, for bands up to 512."""
        rng = SeededRng(SEED + 18)
        for n_big in (64, 512):
            g = random_poly(rng.stream(n_big), n_big, dc_free=True)
            scale = g.l2_norm()
            for t in rng.stream(n_big + 1).uniform(0.0, 1.0, 5):
                d = differentiate(FourierFunction(
                    g.coeffs * np.exp(2j * np.pi * g.frequencies * t), g.n_big))
                k = d.frequencies.astype(float)
                nz = k != 0
                harmonic = np.sum(d.coeffs[nz] / k[nz])
                direct = time_sample_measure(g, float(t))
                assert abs(harmonic - direct) <= 1e-10 * scale
                assert abs(direct - evaluate(g, float(t))) <= 1e-10 * scale

    def test_grid_average_recovers_energy(self):
        g = random_poly(SeededRng(SEED + 19), 64, dc_free=True)
        ts = np.arange(4 * g.n_big) / (4 * g.n_big)
        mean_energy = float(np.mean(np.abs(time_sample_measure(g, ts)) ** 2))
        target = g.l2_norm() ** 2
        assert abs(mean_energy - target) <= 1e-10 * target

    def test_monte_carlo_energy_error_scale(self):
        """Empirical energy error stays within 3/sqrt(m) times the fourth-moment
        ratio of the sampled function."""
        rng = SeededRng(SEED + 20)
        f, _ = random_bumps(rng.stream(0), 8.0, 2, 256)
        g = drop_dc(f)
        g = FourierFunction(g.coeffs * (1.0 / g.l2_norm()), g.n_big)
        r4 = lq_norm_function(g, 4.0) / lq_norm_function(g, 2.0)
        m = 4096
        errs = []
        for rep in range(9):
            ts = rng.stream(rep + 1).uniform(0.0, 1.0, m)
            est = float(np.mean(np.abs(time_sample_measure(g, ts)) ** 2))
            errs.append(abs(est - 1.0))
        assert np.median(errs) <= 3.0 / math.sqrt(m) * r4**4


class TestDyadicBlocks:
    def test_level_frequencies(self):
        assert np.array_equal(dyadic_block_frequencies(0, 16), [0])
        assert np.array_equal(dyadic_block_frequencies(1, 16), [-1, 1])
        assert np.array_equal(dyadic_block_frequencies(2, 16), [-2, 2])
        assert np.array_equal(dyadic_block_frequencies(3, 16), [-4, -3, 3, 4])
        assert np.array_equal(
            dyadic_block_frequencies(4, 16), [-8, -7, -6, -5, 5, 6, 7, 8]
        )

    def test_level_clipping_at_band_edge(self):
        assert np.array_equal(dyadic_block_frequencies(3, 4), [-4, -3, 3])
        with pytest.raises(ValueError):
            dyadic_block_frequencies(-1, 8)

    def test_levels_tile_band(self):
        for n_big in (1, 2, 3, 4, 7, 8, 16, 100):
            cover = covering_dyadic_level(n_big)
            seen = np.concatenate(
                [dyadic_block_frequencies(l, n_big) for l in range(cover + 1)]
            )
            assert np.array_equal(np.sort(seen), np.arange(-n_big, n_big)), n_big

    def test_second_mode_skips_third_octave(self):
        assert dyadic_measure(psi(2, 16), 0.3, 3) == 0.0

    def test_fourth_mode_hits_third_octave(self):
        assert abs(dyadic_measure(psi(4, 16), 0.0, 3) - 1.0) <= 1e-15

    def test_dc_block(self):
        assert dyadic_measure(psi(0, 8), 0.7, 0) == 1.0

    def test_octaves_telescope_to_point_evaluation(self):
        rng = SeededRng(SEED + 21)
        g = random_poly(rng, 32)
        cover = covering_dyadic_level(g.n_big)
        for t in rng.uniform(0.0, 1.0, 4):
            total = sum(dyadic_measure(g, float(t), l) for l in range(cover + 1))
            assert abs(total - evaluate(g, -float(t))) <= 1e-12 * g.l2_norm()

    def test_level_values_match_direct_sums(self):
        rng = SeededRng(SEED + 22)
        g = random_poly(rng, 16)
        t = 0.431
        for level in range(covering_dyadic_level(16) + 1):
            ks = dyadic_block_frequencies(level, 16)
            direct = np.sum(np.exp(-2j * np.pi * ks * t) * g.coeffs[ks + 16])
            assert abs(dyadic_measure(g, t, level) - direct) <= 1e-13 * g.l2_norm()
        # The level past the cover has no frequency inside the band.
        beyond = covering_dyadic_level(16) + 1
        assert dyadic_block_frequencies(beyond, 16).size == 0
        scalar = dyadic_measure(g, t, beyond)
        assert isinstance(scalar, complex) and scalar == 0j
        out = dyadic_measure(g, np.array([0.1, 0.2, 0.3]), beyond)
        assert out.shape == (3,) and not out.any()

    def test_grid_average_recovers_energy(self):
        g = random_poly(SeededRng(SEED + 23), 64, dc_free=True)
        cover = covering_dyadic_level(g.n_big)
        ts = np.arange(4 * g.n_big) / (4 * g.n_big)
        acc = np.zeros(ts.shape)
        for level in range(cover + 1):
            acc += np.abs(dyadic_measure(g, ts, level)) ** 2
        target = g.l2_norm() ** 2
        assert abs(float(acc.mean()) - target) <= 1e-10 * target


def octave_tails(g: FourierFunction):
    """Per-cutoff tail energies of the octave decomposition.

    Returns (max_tail, mean_tail) arrays indexed by the cutoff level; entry
    l0 sums |octave component|^2 over levels above l0, maximized respectively
    averaged over a 4 N_big translation grid.
    """
    cover = covering_dyadic_level(g.n_big)
    m = 4 * g.n_big
    ts = np.arange(m) / m
    per_level = np.array(
        [np.abs(dyadic_measure(g, ts, l)) ** 2 for l in range(cover + 1)]
    )
    tails = np.cumsum(per_level[::-1], axis=0)[::-1]
    tails = np.vstack([tails[1:], np.zeros((1, m))])
    return tails.max(axis=1), tails.mean(axis=1)


class TestTruncationBudget:
    def test_unit_budget(self):
        assert truncation_level(2.0, 1.0, 1.0, 0.5) == 1

    def test_five_level_budget(self):
        assert truncation_level(2.0, 4.0, 0.25, 1.0) == 5

    def test_four_level_budget(self):
        assert truncation_level(2.0, 4.0, 0.5, 1.0) == 4

    def test_generous_budget_floors_at_one(self):
        assert truncation_level(2.0, 1.0, 100.0, 1.0) == 1

    def test_smaller_q_needs_more_levels(self):
        assert truncation_level(1.5, 4.0, 0.25, 1.0) >= truncation_level(
            2.0, 4.0, 0.25, 1.0
        )

    def test_monotone_in_budget(self):
        levels = [truncation_level(2.0, 2.0, d, 1.0) for d in (1.0, 0.5, 0.1, 0.01)]
        assert levels == sorted(levels)

    def test_domains(self):
        with pytest.raises(ValueError):
            truncation_level(1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            truncation_level(2.5, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            truncation_level(2.0, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            truncation_level(2.0, 1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            truncation_level(2.0, 1.0, 0.5, 0.0)

    def test_underflowing_budget_raises(self):
        with pytest.raises(ValueError, match="underflows to 0"):
            truncation_level(2.0, 1e300, 1e-300, 1e300)

    def test_subnormal_budget_has_a_finite_level(self):
        # delta / (2 c2 s) = 5e-311 is subnormal: its reciprocal overflows,
        # its logarithm does not.
        assert truncation_level(2.0, 1e10, 1e-300, 1.0) == 1031

    def test_calibrated_tail_meets_budget(self):
        """Calibrate the tail constant on one batch of smooth functions, then
        check the returned level keeps fresh tails below half the budget."""
        rng = SeededRng(SEED + 24)

        def sample(i):
            f, _ = random_bumps(rng.stream(i), 8.0, 1, 256)
            return drop_dc(f)

        c2 = 0.0
        for i in range(5):
            g = sample(i)
            max_tail, _ = octave_tails(g)
            energy = g.l2_norm() ** 2
            for l0 in range(1, 7):
                c2 = max(c2, max_tail[l0] * 2.0**l0 / energy)
        delta = 2.0
        l0 = truncation_level(2.0, 1.0, delta, c2)
        assert 1 <= l0 < covering_dyadic_level(256)
        for i in range(5, 15):
            g = sample(i)
            max_tail, _ = octave_tails(g)
            assert max_tail[l0] <= delta / 2.0 * g.l2_norm() ** 2, i

    def test_tails_shrink_geometrically(self):
        f, _ = random_bumps(SeededRng(SEED + 25), 8.0, 1, 256)
        g = drop_dc(f)
        max_tail, mean_tail = octave_tails(g)
        assert np.all(np.diff(max_tail) <= 1e-15)
        assert np.all(np.diff(mean_tail) <= 1e-15)
        ratio = mean_tail[3] / mean_tail[2]
        floor = 1e-18 * g.l2_norm() ** 2
        for l0 in range(2, len(mean_tail)):
            if mean_tail[l0] < floor:
                break
            envelope = mean_tail[2] * ratio ** (l0 - 2)
            assert mean_tail[l0] <= 4.0 * envelope, l0


class TestTranslationExperiment:
    def test_dc_mode_unit_blocks_has_zero_deviation(self):
        inst = make_block_instrument(1, 1)
        grid = rip_experiment(psi(0, 4), [inst], [7], 3, SeededRng(SEED + 26))
        assert grid.deviations.shape == (1, 1, 3)
        assert not grid.deviations.any()
        assert grid.details == {"trials": 3}

    def test_deterministic_given_seed(self):
        f, _ = random_bumps(SeededRng(SEED + 28, 1), 8.0, 2, 256)
        inst = make_block_instrument(64, 4, "rademacher", SeededRng(SEED + 28, 7))
        a = rip_experiment(f, [inst], [16], 4, SeededRng(SEED + 28))
        b = rip_experiment(f, [inst], [16], 4, SeededRng(SEED + 28))
        np.testing.assert_array_equal(a.deviations, b.deviations)

    def test_deviation_median_decreases_with_samples(self):
        f, _ = random_bumps(SeededRng(SEED + 1, 1), 8.0, 2, 256)
        inst = make_block_instrument(64, 4)
        medians = []
        for m in (8, 64, 512):
            grid = rip_experiment(f, [inst], [m], 20, SeededRng(SEED + 1))
            medians.append(float(np.median(grid.deviations[0, 0])))
        assert medians[0] > medians[1] > medians[2]

    def test_signed_blocks_beat_plain_blocks_on_bumps(self):
        """With narrow bumps and short blocks, Rademacher signs concentrate the
        translation average faster than unsigned block sums."""
        det_medians, rad_medians = [], []
        for seed in range(20):
            f, _ = random_bumps(SeededRng(SEED + seed, 1), 16.0, 1, 128)
            det_inst = make_block_instrument(32, 4)
            rad_inst = make_block_instrument(32, 4, "rademacher", SeededRng(SEED + seed, 7))
            det = rip_experiment(f, [det_inst], [32], 5, SeededRng(SEED + seed))
            rad = rip_experiment(f, [rad_inst], [32], 5, SeededRng(SEED + seed))
            det_medians.append(np.median(det.deviations[0, 0]))
            rad_medians.append(np.median(rad.deviations[0, 0]))
        assert np.median(rad_medians) <= np.median(det_medians)

    @settings(max_examples=25)
    @given(names=st.lists(st.sampled_from(["det", "rad", "rad2"]), min_size=1, max_size=3),
           m_list=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           trials=st.integers(1, 3), seed=st.integers(0, 2**16))
    # m = 1 reads the first column of each trial's prefix sums and the
    # repeated m reads one column twice; the two schemes take 3 and 1 lags.
    @example(names=["det", "rad2"], m_list=[1, 40, 1], trials=3, seed=0)
    def test_grid_equals_single_cells(self, names, m_list, trials, seed):
        # Unsorted and repeated m, and block schemes that share or differ in L.
        build = {
            "det": lambda: make_block_instrument(8, 4),
            "rad": lambda: make_block_instrument(8, 4, "rademacher", SeededRng(seed, 7)),
            "rad2": lambda: make_block_instrument(8, 2, "rademacher", SeededRng(seed, 8)),
        }
        schemes = [build[name]() for name in names]
        f, _ = random_bumps(SeededRng(seed, 1), 8.0, 2, 32)
        grid = rip_experiment(f, schemes, m_list, trials, SeededRng(seed)).deviations
        assert grid.shape == (len(schemes), len(m_list), trials)
        for scheme, scheme_devs in zip(schemes, grid):
            for m, cell in zip(m_list, scheme_devs):
                single = rip_experiment(f, [scheme], [m], trials, SeededRng(seed))
                assert cell.tobytes() == single.deviations[0, 0].tobytes()

    @settings(max_examples=40)
    @given(block_len=st.sampled_from([1, 2, 4, 8]),
           mode=st.sampled_from(["deterministic", "rademacher"]),
           ms=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           trials=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_cells_equal_block_measure_energies(self, block_len, mode, ms, trials, seed):
        # The lag form against the written-out mean of block_measure energies,
        # with m = 1 and a repeated m in every list.
        m_list = [ms[0], 1, *ms]
        f, _ = random_bumps(SeededRng(seed, 1), 8.0, 2, 64)
        inst = make_block_instrument(16, block_len, mode, SeededRng(seed, 7))
        grid = rip_experiment(f, [inst], m_list, trials, SeededRng(seed)).deviations
        norm_sq = weighted_seminorm(f, 16) ** 2
        for t in range(trials):
            ts = SeededRng(seed).stream(t).uniform(0.0, 1.0, max(m_list))
            energy = np.sum(np.abs(block_measure(f, inst, ts)) ** 2, axis=1)
            for j, m in enumerate(m_list):
                expected = abs(energy[:m].mean() / norm_sq - 1.0)
                assert abs(grid[0, j, t] - expected) <= 1e-12, (m, t)

    @pytest.mark.parametrize("mode", ["deterministic", "rademacher"])
    def test_draw_layout(self, mode):
        # Trial t's translates are stream(t).uniform(0, 1, max(m)), and the
        # stream gives nothing else; each cell is |mean energy - 1| of the
        # first m of them, from the public block_measure and seminorm.
        children = []

        class Recording(SeededRng):
            def streams(self, indices):
                for child in super().streams(indices):
                    children.append(child)
                    yield child

        seed, m_list, trials = SEED + 32, [5, 17, 3], 4
        f, _ = random_bumps(SeededRng(seed, 1), 8.0, 2, 64)
        inst = make_block_instrument(16, 4, mode, SeededRng(seed, 7))
        grid = rip_experiment(f, [inst], m_list, trials, Recording(seed)).deviations
        norm = weighted_seminorm(f, 16)
        for t in range(trials):
            fresh = SeededRng(seed).stream(t)
            ts = fresh.uniform(0.0, 1.0, max(m_list))
            for j, m in enumerate(m_list):
                energy = np.sum(np.abs(block_measure(f, inst, ts[:m]) / norm) ** 2, axis=1)
                assert grid[0, j, t] == pytest.approx(abs(energy.mean() - 1.0), rel=0,
                                                      abs=1e-12)
            assert children[t].uniform() == fresh.uniform()
        assert len(children) == trials

    @settings(max_examples=40)
    @given(t_scale=st.sampled_from([2.5, 4.0, 8.0, 16.0]), n_cut=st.sampled_from([64, 128]),
           block_len=st.sampled_from([1, 2, 4, 8]),
           mode=st.sampled_from(["deterministic", "rademacher"]),
           center=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**16))
    def test_bump_centre_only_shifts_the_translates(self, t_scale, n_cut, block_len, mode,
                                                    center, seed):
        # The centre c of a bump under translates t measures as the bump at 0
        # under t + c, so rip_experiment needs no centre draw.  The cutoffs
        # keep from_bumps' quadrature unaliased: at T = 32, N = 64 the gap
        # grows to 3e-7.
        stream = SeededRng(seed)
        inst = make_block_instrument(n_cut, block_len, mode, stream.stream(0))
        ts = stream.stream(1).uniform(0.0, 1.0, 32)
        moved = from_bumps(t_scale, [center], [1.0], 4 * n_cut)
        still = from_bumps(t_scale, [0.0], [1.0], 4 * n_cut)
        norm = weighted_seminorm(still, n_cut)
        assert weighted_seminorm(moved, n_cut) == pytest.approx(norm, rel=1e-12, abs=0)
        energy = np.sum(np.abs(block_measure(moved, inst, ts)) ** 2, axis=1)
        shifted = np.sum(np.abs(block_measure(still, inst, ts + center)) ** 2, axis=1)
        # Relative to the window energy, the scale rip_experiment divides by.
        assert np.max(np.abs(energy - shifted)) <= 1e-10 * norm**2

    def test_zero_function_rejected(self):
        inst = make_block_instrument(1, 1)
        with pytest.raises(ValueError, match="below 1e-8"):
            rip_experiment(FourierFunction(np.zeros(8), 4), [inst], [3], 1,
                           SeededRng(SEED + 30))

    def test_narrow_carrier_rejected(self):
        inst = make_block_instrument(2, 1)
        with pytest.raises(ValueError):
            rip_experiment(psi(0, 4), [inst], [3], 1, SeededRng(SEED + 31))

    def test_parameter_domains(self):
        inst = make_block_instrument(1, 1)
        with pytest.raises(ValueError):
            rip_experiment(psi(0, 4), [inst], [0], 1, SeededRng(SEED))
        with pytest.raises(ValueError):
            rip_experiment(psi(0, 4), [inst], [1], 0, SeededRng(SEED))
