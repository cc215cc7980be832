"""Tests for sparsity models, witnesses, and the sparsity-parameter optimizer."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riplab.instruments import make_decaying_window, make_flat
from riplab.numerics import SeededRng, lq_norm
from riplab.sparsity import (
    Canonical,
    LqCap,
    max_sparsity_level,
    optimize_sparsity_parameter,
    project_witness,
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


class TestSampleSparse:
    def test_canonical_support_and_norm(self):
        rng = SeededRng(SEED + 1)
        for trial in range(10):
            x = sample_sparse(Canonical(5), 20, rng.stream(trial))
            assert np.count_nonzero(x) == 5
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_canonical_full_support_is_dense(self):
        x = sample_sparse(Canonical(8), 8, SeededRng(SEED + 2))
        assert np.count_nonzero(x) == 8

    def test_lqcap_meets_level_constraint(self):
        x = sample_sparse(LqCap(1.0, 4.0), 32, SeededRng(SEED + 3))
        assert lq_norm(x, 1) <= 2.0 * np.linalg.norm(x) * (1 + 1e-12)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            sample_sparse(Canonical(9), 8, SeededRng(SEED))


class TestProjectWitness:
    def test_canonical_keeps_top_entries(self):
        z = np.array([0.1, -3.0, 0.2 + 0.2j, 2.0, 0.05])
        w = project_witness(Canonical(2), z)
        assert np.count_nonzero(w) == 2
        assert abs(w[1]) > 0 and abs(w[3]) > 0
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_lqcap_flat_modulus_keeps_phases(self):
        z = np.array([3.0 * np.exp(1j * 0.3), -1.0, 0.25j, 2.0 * np.exp(-1j * 1.1)])
        w = project_witness(LqCap(1.0, 2.0), z)
        nz = w[np.abs(w) > 0]
        assert nz.size == 2
        np.testing.assert_allclose(np.abs(nz), np.abs(nz[0]), rtol=1e-12)
        # phases of the two largest entries survive
        assert np.angle(w[0]) == pytest.approx(0.3, abs=1e-12)
        assert np.angle(w[3]) == pytest.approx(-1.1, abs=1e-12)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _reference_flat_projection(model, z: np.ndarray) -> np.ndarray:
    """The single-vector top-support projection, written out for Canonical and LqCap."""
    n = z.size
    if isinstance(model, Canonical):
        j = min(model.k, n)
    else:
        j = witness_support_size(model.q, model.s, n)
    keep = np.argpartition(np.abs(z), n - j)[n - j:]
    x = np.zeros(n, dtype=complex)
    if isinstance(model, Canonical):
        x[keep] = z[keep]
        return x / np.linalg.norm(x)
    mags = np.abs(z[keep])
    x[keep] = np.where(mags > 0, z[keep] / np.where(mags > 0, mags, 1.0), 1.0) / math.sqrt(j)
    return x


# Small integers give zero moduli and ties (1, -1, 1j, -1j share a modulus).
_ENTRIES = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, -1j, 1 + 1j, -1 - 1j, 2 + 0j]),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
)


@st.composite
def _model_and_block(draw):
    ambient = draw(st.integers(1, 12))
    if draw(st.booleans()):
        model = Canonical(draw(st.integers(1, ambient + 2)))
    else:
        model = LqCap(draw(st.sampled_from([1.0, 1.25, 4.0 / 3.0, 1.7, 1.999, 2.0])),
                      draw(st.floats(1.0, 12.0)))
    rows = draw(st.integers(1, 5))
    z = draw(hnp.arrays(complex, (rows, ambient), elements=_ENTRIES))
    assume(np.all(np.any(z, axis=1)))
    return model, z


class TestProjectWitnessBlocks:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.filter_too_much])
    @given(_model_and_block())
    def test_block_rows_equal_single_vector_calls(self, case):
        model, z = case
        block = project_witness(model, z)
        assert block.shape == z.shape
        for row, expected_input in zip(block, z):
            single = project_witness(model, expected_input)
            np.testing.assert_array_equal(_bits(row), _bits(single))
            reference = _reference_flat_projection(model, expected_input)
            np.testing.assert_array_equal(_bits(row), _bits(reference))

    def test_block_with_a_zero_row_rejected(self):
        z = np.ones((3, 4), dtype=complex)
        z[1] = 0
        with pytest.raises(ValueError, match="zero vector"):
            project_witness(LqCap(1.0, 2.0), z)


class TestSparsityParameter:
    def test_flat_r1_curve_increases(self):
        curve = optimize_sparsity_parameter(make_flat(16), 1.0, points=60)
        finite = [v for q, v in zip(curve.q_grid, curve.values) if math.isfinite(q)]
        assert all(a <= b + 1e-9 for a, b in zip(finite, finite[1:]))
        assert curve.q_opt == pytest.approx(2.001, rel=1e-12)

    def test_flat_large_matches_direct_evaluation(self):
        curve = optimize_sparsity_parameter(make_flat(1024), 16.0)
        qs = np.array([q for q in curve.q_grid if math.isfinite(q)])
        direct = qs ** 3 * 16.0 ** (1.0 - 2.0 / qs) * 1024.0 ** (2.0 / qs)
        np.testing.assert_allclose(
            [v for q, v in zip(curve.q_grid, curve.values) if math.isfinite(q)],
            direct,
            rtol=1e-12,
        )
        assert curve.value == pytest.approx(
            min(direct.min(), curve.values[-1]), rel=1e-12
        )

    def test_window_curve_shape(self):
        # at this window size the cubic prefactor dominates: the curve rises
        # from the left grid edge, so the optimizer lands near q' = 2
        inst = make_decaying_window(256, 64, 0.25)
        f25 = sparsity_parameter_value(inst, 8.0, 2.5)
        f4 = sparsity_parameter_value(inst, 8.0, 4.0)
        f64 = sparsity_parameter_value(inst, 8.0, 64.0)
        assert f25 < f4 < f64
        curve = optimize_sparsity_parameter(inst, 8.0)
        assert curve.value <= f25
        assert curve.q_opt < 2.5

    def test_optimizer_never_worse_than_fixed_points(self):
        inst = make_flat(1024)
        curve = optimize_sparsity_parameter(inst, 16.0)
        proxy = 1.0 + math.log(1024)
        assert curve.value <= sparsity_parameter_value(inst, 16.0, proxy) + 1e-9
        # the capped infinity candidate participates in the minimum
        assert curve.value <= curve.values[-1] + 1e-9
        assert math.isinf(curve.q_grid[-1])

    def test_curve_is_finite(self):
        inst = make_decaying_window(64, 16, 0.4)
        curve = optimize_sparsity_parameter(inst, 4.0, points=80)
        assert np.all(np.isfinite(curve.values))

    def test_matrix_instrument_uses_schatten_norms(self):
        from riplab.instruments import make_scaled_identity

        inst = make_scaled_identity(4)
        # f(q') = (q')^3 r^(1 - 2/q') n^(1 + 2/q') for the scaled identity
        val = sparsity_parameter_value(inst, 2.0, 4.0)
        assert val == pytest.approx(64.0 * 2.0 ** 0.5 * 4.0 ** 1.5, rel=1e-12)