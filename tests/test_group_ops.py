"""Tests for group actions, sampled ensembles, isotropy, and moment deviation."""

import itertools
import math

import numpy as np
import pytest

from riplab.group_ops import (
    DoubleQft,
    ShiftMod,
    SignShift,
    apply_group,
    apply_group_adjoint,
    compose_gaussian,
    enumerate_group,
    gaussian_ensemble,
    isotropy_defect,
    rosenthal_deviation,
    sample_ensemble,
    sample_group_element,
)
from riplab.instruments import (
    make_decaying_window,
    make_flat,
    make_scaled_identity,
    make_schatten_decay,
)
from riplab.numerics import CapacityError, SeededRng

SEED = 90210


class TestShiftModAction:
    def test_identity_element(self):
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        np.testing.assert_array_equal(apply_group(ShiftMod(0, 0, 4), x), x)

    def test_two_point_shift(self):
        # cyclic shift moves entry l to entry l+1
        out = apply_group(ShiftMod(0, 1, 2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [2.0, 1.0], atol=1e-15)

    def test_two_point_modulation(self):
        # modulation phases are indexed l = 1..N, so entry 0 flips sign
        out = apply_group(ShiftMod(1, 0, 2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [-1.0, 2.0], atol=1e-14)

    def test_isometry(self):
        rng = SeededRng(SEED)
        x = rng.complex_normal(8)
        for _ in range(20):
            g = sample_group_element("shiftmod", 8, rng)
            np.testing.assert_allclose(
                np.linalg.norm(apply_group(g, x)), np.linalg.norm(x), rtol=1e-12
            )

    def test_adjoint_inverts(self):
        rng = SeededRng(SEED + 1)
        x = rng.complex_normal(6)
        for _ in range(10):
            g = sample_group_element("shiftmod", 6, rng)
            np.testing.assert_allclose(
                apply_group_adjoint(g, apply_group(g, x)), x, atol=1e-12
            )

    def test_composition_up_to_phase(self):
        # sigma(t1,k1) sigma(t2,k2) agrees with sigma(t1+t2, k1+k2) up to a
        # global unimodular phase, so matched inner products agree in modulus
        rng = SeededRng(SEED + 2)
        x = rng.complex_normal(8)
        y = rng.complex_normal(8)
        for _ in range(25):
            t1, k1, t2, k2 = rng.integers(0, 8, size=4)
            g1 = ShiftMod(int(t1), int(k1), 8)
            g2 = ShiftMod(int(t2), int(k2), 8)
            comp = ShiftMod(int(t1 + t2), int(k1 + k2), 8)
            lhs = np.vdot(y, apply_group(g1, apply_group(g2, x)))
            rhs = np.vdot(y, apply_group(comp, x))
            assert abs(abs(lhs) - abs(rhs)) <= 1e-10


class TestOtherActions:
    def test_signshift_order_of_operations(self):
        # signs first, then cyclic shift
        g = SignShift((1, -1, 1, -1), 1)
        out = apply_group(g, np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out, [-4.0, 1.0, -2.0, 3.0], atol=1e-15)

    def test_doubleqft_isometry_and_adjoint(self):
        rng = SeededRng(SEED + 3)
        a = rng.complex_normal((3, 3))
        for _ in range(20):
            g = sample_group_element("doubleqft", 3, rng)
            out = apply_group(g, a)
            np.testing.assert_allclose(
                np.linalg.norm(out), np.linalg.norm(a), rtol=1e-12
            )
            np.testing.assert_allclose(apply_group_adjoint(g, out), a, atol=1e-12)

    def test_doubleqft_accepts_flat_input(self):
        rng = SeededRng(SEED + 4)
        a = rng.complex_normal((3, 3))
        g = DoubleQft(1, 2, 0, 1, 3)
        np.testing.assert_allclose(
            apply_group(g, a.ravel()), apply_group(g, a).ravel(), atol=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_group(ShiftMod(1, 1, 4), np.ones(5))


class TestGroupEnumeration:
    def test_shiftmod_order(self):
        assert sum(1 for _ in enumerate_group("shiftmod", 5)) == 25

    def test_doubleqft_order(self):
        assert sum(1 for _ in enumerate_group("doubleqft", 2)) == 16

    def test_signshift_order(self):
        assert sum(1 for _ in enumerate_group("signshift", 3)) == 24

    def test_exhaustive_second_moment_is_isotropic(self):
        # group-averaged |<sigma(g) eta, x>|^2 equals ||x||^2 exactly
        inst = make_decaying_window(6, 3, 0.3)
        rng = SeededRng(SEED + 5)
        x = rng.complex_normal(6)
        total = 0.0
        count = 0
        for g in enumerate_group("shiftmod", 6):
            total += abs(np.vdot(apply_group(g, inst.payload), x)) ** 2
            count += 1
        np.testing.assert_allclose(total / count, np.linalg.norm(x) ** 2, rtol=1e-12)


class TestSampleEnsemble:
    def test_flat_rows_have_constant_modulus(self):
        ens = sample_ensemble(make_flat(4), "shiftmod", 2, "none", SeededRng(SEED))
        np.testing.assert_allclose(np.abs(ens.rows), 1.0 / math.sqrt(2), rtol=1e-12)

    def test_same_seed_is_bit_identical(self):
        a = sample_ensemble(make_flat(8), "shiftmod", 5, "random_sign", SeededRng(SEED))
        b = sample_ensemble(make_flat(8), "shiftmod", 5, "random_sign", SeededRng(SEED))
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_provenance_regenerates_rows(self):
        inst = make_decaying_window(6, 4, 0.3)
        ens = sample_ensemble(inst, "shiftmod", 7, "none", SeededRng(SEED + 6))
        for j, record in enumerate(ens.provenance["elements"]):
            kind, t, k = record
            assert kind == "shiftmod"
            v = apply_group(ShiftMod(t, k, 6), inst.payload)
            np.testing.assert_allclose(
                ens.rows[j], np.conj(v) / math.sqrt(7), atol=1e-14
            )

    def test_random_sign_shares_one_pattern(self):
        inst = make_decaying_window(6, 4, 0.3)
        ens = sample_ensemble(inst, "shiftmod", 9, "random_sign", SeededRng(SEED + 7))
        eps = np.array(ens.provenance["shared_sign"], dtype=float)
        assert eps.shape == (6,) and set(np.unique(eps)) <= {-1.0, 1.0}
        for j, (kind, t, k) in enumerate(ens.provenance["elements"]):
            v = eps * apply_group(ShiftMod(t, k, 6), inst.payload)
            np.testing.assert_allclose(ens.rows[j], np.conj(v) / 3.0, atol=1e-14)

    def test_absorbed_draws_fresh_pairs(self):
        inst = make_decaying_window(8, 5, 0.3)
        ens = sample_ensemble(inst, "shiftmod", 6, "absorbed", SeededRng(SEED + 8))
        recs = ens.provenance["absorbed_signs"]
        assert len(recs) == 6
        for j, ((kind, t, k), (eps, shift)) in enumerate(
            zip(ens.provenance["elements"], recs)
        ):
            v = apply_group(ShiftMod(t, k, 8), inst.payload)
            v = np.roll(np.array(eps) * v, shift)
            np.testing.assert_allclose(
                ens.rows[j], np.conj(v) / math.sqrt(6), atol=1e-14
            )

    def test_absorbed_equals_sign_then_shift_exhaustively(self):
        # over the full (group element, sign pattern, shift) cube the absorbed
        # row set coincides with applying a sign-shift element on top
        inst = make_decaying_window(3, 2, 0.3)
        eta = inst.payload
        direct = []
        via_group = []
        for t, k in itertools.product(range(3), repeat=2):
            v = apply_group(ShiftMod(t, k, 3), eta)
            for eps in itertools.product((-1, 1), repeat=3):
                for shift in range(3):
                    direct.append(np.roll(np.array(eps) * v, shift))
                    via_group.append(apply_group(SignShift(eps, shift), v))
        direct = sorted(np.round(np.concatenate(direct), 9).view(float).tolist())
        via_group = sorted(np.round(np.concatenate(via_group), 9).view(float).tolist())
        assert direct == via_group

    def test_absorbed_rejected_for_matrices(self):
        inst = make_scaled_identity(2)
        with pytest.raises(ValueError):
            sample_ensemble(inst, "doubleqft", 3, "absorbed", SeededRng(SEED))

    def test_variant_instrument_mismatch(self):
        with pytest.raises(ValueError):
            sample_ensemble(make_flat(4), "doubleqft", 2, "none", SeededRng(SEED))
        with pytest.raises(ValueError):
            sample_ensemble(make_scaled_identity(2), "shiftmod", 2, "none", SeededRng(SEED))


class TestGaussianStage:
    def test_identity_hook_keeps_measurements(self):
        ens = sample_ensemble(make_flat(6), "shiftmod", 4, "none", SeededRng(SEED + 9))
        composed = compose_gaussian(ens, 4, SeededRng(SEED + 10), identity_stage=True)
        x = SeededRng(SEED + 11).complex_normal(6)
        np.testing.assert_allclose(composed.apply(x), ens.apply(x), atol=1e-14)

    def test_composed_shape(self):
        ens = sample_ensemble(make_flat(6), "shiftmod", 12, "none", SeededRng(SEED + 12))
        composed = compose_gaussian(ens, 3, SeededRng(SEED + 13))
        assert composed.effective_operator().shape == (3, 6)
        assert composed.m == 3

    def test_stage_preserves_energy_on_average(self):
        # E ||Xi y||^2 = ||y||^2 for the N(0, 1/m_out) stage
        ens = sample_ensemble(make_flat(16), "shiftmod", 16, "none", SeededRng(SEED + 14))
        x = SeededRng(SEED + 15).complex_normal(16)
        y_sq = np.linalg.norm(ens.apply(x)) ** 2
        draws = 400
        vals = np.empty(draws)
        for i in range(draws):
            composed = compose_gaussian(ens, 8, SeededRng(SEED + 16).stream(i))
            vals[i] = np.linalg.norm(composed.apply(x)) ** 2
        sigma = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - y_sq) <= 3.0 * sigma

    def test_provenance_records_spawn_path(self):
        rng = SeededRng(SEED + 20, 3).stream(5)
        ens = sample_ensemble(make_flat(6), "shiftmod", 4, "none", SeededRng(SEED + 20))
        composed = compose_gaussian(ens, 2, rng)
        gauss = gaussian_ensemble(5, 3, rng.stream(1))
        assert ens.provenance["spawn_key"] == [0]
        assert composed.provenance["gaussian_stage"]["spawn_key"] == [3, 5]
        assert gauss.provenance["spawn_key"] == [3, 5, 1]
        replay = SeededRng(gauss.provenance["seed"], 1, parent_key=(3, 5))
        np.testing.assert_array_equal(gauss.rows, gaussian_ensemble(5, 3, replay).rows)

    def test_double_stage_rejected(self):
        ens = gaussian_ensemble(4, 4, SeededRng(SEED + 17))
        once = compose_gaussian(ens, 2, SeededRng(SEED + 18))
        with pytest.raises(ValueError):
            compose_gaussian(once, 2, SeededRng(SEED + 19))


class TestIsotropyDefect:
    def test_flat_shiftmod(self):
        assert isotropy_defect(make_flat(4), "shiftmod") <= 1e-12

    def test_decaying_shiftmod(self):
        assert isotropy_defect(make_decaying_window(8, 4, 0.3), "shiftmod") <= 1e-12

    def test_scaled_identity_doubleqft(self):
        assert isotropy_defect(make_scaled_identity(2), "doubleqft") <= 1e-12

    def test_schatten_decay_doubleqft(self):
        inst = make_schatten_decay(3, 0.25, SeededRng(SEED + 20))
        assert isotropy_defect(inst, "doubleqft") <= 1e-12

    def test_flat_signshift(self):
        assert isotropy_defect(make_flat(6), "signshift") <= 1e-12

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            isotropy_defect(make_flat(32), "shiftmod")


class TestRosenthalDeviation:
    def test_identity_u_gives_zero(self):
        u = np.eye(8, dtype=complex)
        records = rosenthal_deviation(u, "shiftmod", [4, 16], 5, SeededRng(SEED + 21))
        for rec in records:
            assert rec["median"] <= 1e-12
            assert rec["mean"] <= 1e-12

    def test_selector_median_decreases(self):
        u = np.zeros((4, 16), dtype=complex)
        u[np.arange(4), np.arange(4)] = 2.0  # tr(u* u) = 16
        records = rosenthal_deviation(
            u, "shiftmod", [8, 64, 512], 20, SeededRng(SEED + 22)
        )
        medians = [rec["median"] for rec in records]
        assert medians[0] > medians[1] > medians[2]

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            rosenthal_deviation(np.ones((2, 8)), "shiftmod", [4], 3, SeededRng(SEED))

    def test_single_sample_deviation_is_conjugation_invariant(self):
        # sigma(g) is unitary, so || sigma(g)* u*u sigma(g) - I || equals
        # || u*u - I || for every g; at M=1 all trials must hit it exactly.
        # This pins the Gram fast paths down to unitary conjugation.
        u_vec = np.zeros((2, 6), dtype=complex)
        u_vec[np.arange(2), np.arange(2)] = math.sqrt(3.0)  # tr(u* u) = 6
        expected_vec = 2.0  # opnorm(3 P - I)
        for variant in ("shiftmod", "signshift"):
            records = rosenthal_deviation(u_vec, variant, [1], 6, SeededRng(SEED + 24))
            np.testing.assert_allclose(records[0]["deviations"], expected_vec, rtol=1e-10)

        u_mat = np.zeros((2, 4), dtype=complex)
        u_mat[np.arange(2), np.arange(2)] = math.sqrt(2.0)  # tr(u* u) = 4
        records = rosenthal_deviation(u_mat, "doubleqft", [1], 6, SeededRng(SEED + 25))
        np.testing.assert_allclose(records[0]["deviations"], 1.0, rtol=1e-10)

    def test_doubleqft_variant_runs(self):
        n = 2
        u = np.eye(n * n, dtype=complex) * 1.0  # tr = 4 = N
        records = rosenthal_deviation(u, "doubleqft", [4, 32], 6, SeededRng(SEED + 25))
        assert records[0]["median"] >= records[1]["median"] - 1e-9
