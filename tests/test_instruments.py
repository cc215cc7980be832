"""Tests for instrument construction and normalization."""

import math

import numpy as np
import pytest

from riplab.instruments import (
    Instrument,
    instrument_norm,
    make_decaying_window,
    make_flat,
    make_scaled_identity,
    make_schatten_decay,
)
from riplab.numerics import SeededRng, schatten_norm

SEED = 8451


class TestFlat:
    def test_small(self):
        np.testing.assert_array_equal(make_flat(4).payload, np.ones(4))
        np.testing.assert_array_equal(make_flat(1).payload, np.ones(1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_flat(0)

    def test_lq_norm_closed_form(self):
        inst = make_flat(1024)
        for q in (2.5, 4.0, 8.0, 64.0):
            np.testing.assert_allclose(
                instrument_norm(inst, q), 1024 ** (1.0 / q), rtol=1e-12
            )


class TestDecayingWindow:
    def test_single_tap(self):
        np.testing.assert_allclose(
            make_decaying_window(4, 1, 0.25).payload, [2.0, 0.0, 0.0, 0.0], atol=1e-14
        )

    def test_two_tap_normalization(self):
        inst = make_decaying_window(4, 2, 0.25)
        c = 2.0 / math.sqrt(1.0 + 2.0 ** -0.5)
        np.testing.assert_allclose(inst.payload[:2], [c, c * 2.0 ** -0.25], rtol=1e-12)
        assert np.linalg.norm(inst.payload) ** 2 == pytest.approx(4.0, abs=1e-12)

    def test_norm_constraint(self):
        inst = make_decaying_window(64, 16, 0.4)
        assert np.linalg.norm(inst.payload) == pytest.approx(8.0, abs=1e-10)

    def test_magnitudes_non_increasing_then_zero(self):
        inst = make_decaying_window(32, 10, 0.3)
        mags = np.abs(inst.payload)
        assert np.all(np.diff(mags[:10]) <= 1e-14)
        np.testing.assert_allclose(mags[10:], 0.0, atol=1e-14)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            make_decaying_window(8, 4, 0.7)
        with pytest.raises(ValueError):
            make_decaying_window(8, 4, 0.0)
        with pytest.raises(ValueError):
            make_decaying_window(8, 9, 0.25)


class TestScaledIdentity:
    def test_small(self):
        inst = make_scaled_identity(2)
        np.testing.assert_allclose(inst.payload, math.sqrt(2) * np.eye(2), atol=1e-14)
        assert schatten_norm(inst.payload, 2) == pytest.approx(2.0, abs=1e-12)

    def test_schatten_powers(self):
        # ||eta||_{S_q'}^2 = n^(1 + 2/q') for the sqrt(n)-scaled identity
        inst3 = make_scaled_identity(3)
        assert instrument_norm(inst3, math.inf) ** 2 == pytest.approx(3.0, rel=1e-12)
        inst4 = make_scaled_identity(4)
        assert instrument_norm(inst4, 2) ** 2 == pytest.approx(16.0, rel=1e-12)
        for q in (2.5, 6.0):
            assert instrument_norm(inst4, q) ** 2 == pytest.approx(
                4.0 ** (1.0 + 2.0 / q), rel=1e-12
            )


class TestSchattenDecay:
    def test_normalization_and_decay_law(self):
        inst = make_schatten_decay(8, 0.4, SeededRng(SEED))
        sv = np.linalg.svd(inst.payload, compute_uv=False)
        assert schatten_norm(inst.payload, 2) == pytest.approx(8.0, rel=1e-9)
        assert sv[0] / sv[7] == pytest.approx(8.0 ** 0.4, rel=1e-8)

    def test_two_by_two_constant(self):
        inst = make_schatten_decay(2, 0.25, SeededRng(SEED + 1))
        sv = np.linalg.svd(inst.payload, compute_uv=False)
        c = math.sqrt(4.0 / (1.0 + 2.0 ** -0.5))
        np.testing.assert_allclose(sv, [c, c * 2.0 ** -0.25], rtol=1e-8)

    def test_prescribed_decay_recovered_by_svd(self):
        inst = make_schatten_decay(6, 0.3, SeededRng(SEED + 2))
        sv = np.linalg.svd(inst.payload, compute_uv=False)
        j = np.arange(1, 7)
        ref = j ** -0.3
        ref *= 6.0 / np.linalg.norm(ref)
        np.testing.assert_allclose(sv, ref, atol=1e-8)

    def test_deterministic_in_seed(self):
        a = make_schatten_decay(5, 0.25, SeededRng(SEED + 3)).payload
        b = make_schatten_decay(5, 0.25, SeededRng(SEED + 3)).payload
        np.testing.assert_array_equal(a, b)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            make_schatten_decay(4, 0.5, SeededRng(SEED))


class TestNormalizationInvariants:
    def test_vector_instruments(self):
        for inst in (make_flat(17), make_decaying_window(23, 9, 0.45)):
            n = inst.payload.shape[0]
            assert abs(np.linalg.norm(inst.payload) - math.sqrt(n)) <= 1e-10 * math.sqrt(n)

    def test_matrix_instruments(self):
        for inst in (make_scaled_identity(5), make_schatten_decay(5, 0.2, SeededRng(SEED + 4))):
            assert abs(schatten_norm(inst.payload, 2) - 5.0) <= 1e-10 * 5.0

    @pytest.mark.parametrize("payload", [np.ones(16), math.sqrt(4) * np.eye(4)],
                             ids=["vector", "matrix"])
    def test_one_tolerance_for_vectors_and_matrices(self, payload):
        Instrument("ok", payload * (1 + 5e-11))
        with pytest.raises(ValueError, match=r"sqrt\(size\)"):
            Instrument("off", payload * (1 + 5e-10))

    def test_custom_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            Instrument("custom", np.ones(4) * 3.0)

    def test_custom_accepts_valid_vector(self):
        inst = Instrument("custom", np.ones(4))
        assert inst.kind == "custom"

