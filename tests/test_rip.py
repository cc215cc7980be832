"""Tests for isometry-defect estimation, multilevel checks, distance lemmas,
Gaussian widths, and measurement-count predictions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riplab import rip
from riplab.group_ops import gaussian_ensemble, sample_ensemble
from riplab.instruments import make_flat
from riplab.numerics import CapacityError, SeededRng, operator_norm
from riplab.rip import (
    Close,
    Separated,
    calibrate_mrip_distortion,
    classify_separation,
    distance_bound_check,
    empirical_rip,
    exact_rip_canonical,
    gaussian_width,
    gordon_m,
    implicit_m,
    mrip_check,
    table1_counts,
)
from riplab.sparsity import (
    Canonical,
    LowRank,
    LqCap,
    TensorRank,
    project_witness,
    sample_sparse,
    witness_support_size,
)

SEED = 31137


class TestExactRip:
    def test_identity_is_isometric(self):
        a = np.eye(8)
        for k in (1, 2, 4, 8):
            assert exact_rip_canonical(a, k).delta_hat <= 1e-14

    def test_scaled_identity(self):
        assert exact_rip_canonical(math.sqrt(2) * np.eye(6), 1).delta_hat == pytest.approx(1.0, abs=1e-12)

    def test_flat_shiftmod_rows_are_unit_modulus(self):
        for seed in range(5):
            for m in (3, 7, 12):
                ens = sample_ensemble(make_flat(12), "shiftmod", m, "none", SeededRng(seed))
                assert exact_rip_canonical(ens, 1).delta_hat <= 1e-12

    def test_non_decreasing_in_k(self):
        ens = gaussian_ensemble(10, 6, SeededRng(SEED))
        deltas = [exact_rip_canonical(ens, k).delta_hat for k in (1, 2, 3, 4)]
        for lo, hi in zip(deltas, deltas[1:]):
            assert hi >= lo - 1e-12

    def test_matches_brute_force_supports(self):
        ens = gaussian_ensemble(7, 5, SeededRng(SEED + 1))
        a = ens.effective_operator()
        k = 3
        best = 0.0
        for support in itertools.combinations(range(7), k):
            sub = a[:, support]
            best = max(best, operator_norm(sub.conj().T @ sub - np.eye(k)))
        assert exact_rip_canonical(ens, k).delta_hat == pytest.approx(best, rel=1e-10)

    def test_scaling_has_no_hidden_normalization(self):
        ens = gaussian_ensemble(6, 4, SeededRng(SEED + 2))
        a = ens.effective_operator()
        c = 1.7
        report = exact_rip_canonical(c * a, 2)
        best = 0.0
        for support in itertools.combinations(range(6), 2):
            sub = a[:, support]
            best = max(best, operator_norm(c * c * sub.conj().T @ sub - np.eye(2)))
        assert report.delta_hat == pytest.approx(best, rel=1e-10)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            exact_rip_canonical(np.eye(64), 8)


def reference_support_defect(gram, supports):
    """Per-support loop: the largest |eigenvalue| of gram[S, S] - I."""
    delta = 0.0
    for support in supports:
        w = np.linalg.eigvalsh(gram[np.ix_(support, support)] - np.eye(len(support)))
        delta = max(delta, abs(float(w[0])), abs(float(w[-1])))
    return delta


class TestSupportDefects:
    """The pruned kernel against a per-support loop, bit for bit.

    The chunk is shrunk to 7 supports so every run spans several chunks and
    most end on a partial one.
    """

    @staticmethod
    def operator(seed, m, n, complex_entries):
        g = np.random.default_rng(seed)
        a = g.standard_normal((m, n))
        if complex_entries:
            a = a + 1j * g.standard_normal((m, n))
        return a / math.sqrt(m)

    @staticmethod
    def library_gram(a):
        # The estimators take every operator as complex, real ones included.
        a = a.astype(complex)
        return a.conj().T @ a

    @settings(max_examples=40)
    @given(st.integers(2, 9), st.integers(1, 5), st.integers(1, 12), st.booleans(),
           st.integers(0, 2**16))
    def test_direct_real_and_complex_grams(self, n, k, m, complex_entries, seed):
        k = min(k, n)
        a = self.operator(seed, m, n, complex_entries)
        gram = a.conj().T @ a
        g = np.random.default_rng(seed)
        # 30 draws from at most C(9, 4) = 126 supports, so most runs repeat one.
        sampled = [sorted(g.choice(n, size=k, replace=False).tolist()) for _ in range(30)]
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counting_eigvalsh(x):
            calls.append(x.shape[0])
            return eigvalsh(x)

        for supports in (list(itertools.combinations(range(n), k)), sampled):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rip, "_SUPPORT_CHUNK", 7)
                mp.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
                got, evaluated = rip._max_defect(gram, iter(supports), k)
            assert got == reference_support_defect(gram, supports)
            assert evaluated == sum(calls) and 1 <= evaluated <= len(supports)
            assert max(calls) <= 7
        assert rip._max_defect(gram, [], k) == (0.0, 0)

    @settings(max_examples=30)
    @given(st.integers(3, 9), st.integers(1, 4), st.integers(1, 12), st.booleans(),
           st.integers(0, 2**16))
    def test_exact_rip_canonical(self, n, k, m, complex_entries, seed):
        k = min(k, n)
        a = self.operator(seed, m, n, complex_entries)
        expected = reference_support_defect(self.library_gram(a),
                                            itertools.combinations(range(n), k))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rip, "_SUPPORT_CHUNK", 7)
            assert exact_rip_canonical(a, k).delta_hat == expected

    @settings(max_examples=30)
    @given(st.integers(3, 9), st.integers(1, 4), st.integers(1, 12), st.booleans(),
           st.integers(0, 60), st.integers(0, 2**16))
    def test_empirical_rip_exhaustive_and_sampled(self, n, k, m, complex_entries, extra,
                                                  seed):
        # trials = C(n, k) + extra enumerates; the reference also takes the
        # remaining trials' draws, which repeat enumerated supports and so
        # cannot move the maximum.  trials < C(n, k) samples every support.
        k = min(k, n)
        a = self.operator(seed, m, n, complex_entries)
        gram = self.library_gram(a)
        n_supports = math.comb(n, k)
        for trials in (n_supports + extra, max(1, n_supports - 1 - extra)):
            exhaustive = trials >= n_supports
            listed = list(itertools.combinations(range(n), k)) if exhaustive else []
            drawn = range(n_supports, trials) if exhaustive else range(trials)
            listed += [np.sort(SeededRng(seed, 1).stream(trial).choice_no_replace(n, k))
                       for trial in drawn]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rip, "_SUPPORT_CHUNK", 7)
                report = empirical_rip(a, Canonical(k), trials, rng=SeededRng(seed, 1))
            assert report.delta_hat == reference_support_defect(gram, listed)
            assert report.details["exhaustive"] is exhaustive
            assert 1 <= report.details["evaluated"] <= min(trials, n_supports)


    @staticmethod
    def tied_operator(seed, m, n, complex_entries, kind):
        """Operators whose Grams tie: +/-1 (or +/-1, +/-i) entries, repeated
        columns, or the identity, where every Frobenius bound is 0."""
        if kind == "identity":
            return np.eye(n)
        if kind == "gaussian":
            return TestSupportDefects.operator(seed, m, n, complex_entries)
        g = np.random.default_rng(seed)
        units = np.array([1, -1, 1j, -1j]) if complex_entries else np.array([1.0, -1.0])
        a = g.choice(units, size=(m, n))
        if kind == "repeated":
            a = a[:, np.arange(n) % max(1, n // 2)]
        return a / math.sqrt(m)

    @settings(max_examples=80)
    @given(n=st.integers(1, 9), k=st.integers(1, 9), m=st.integers(1, 12),
           complex_entries=st.booleans(),
           kind=st.sampled_from(["gaussian", "signs", "repeated", "identity"]),
           seed=st.integers(0, 2**16))
    @example(n=7, k=1, m=5, complex_entries=True, kind="gaussian", seed=1)
    @example(n=7, k=7, m=5, complex_entries=False, kind="gaussian", seed=2)
    @example(n=8, k=8, m=3, complex_entries=True, kind="signs", seed=3)
    @example(n=8, k=1, m=4, complex_entries=False, kind="repeated", seed=4)
    @example(n=6, k=3, m=6, complex_entries=False, kind="identity", seed=0)
    def test_pruned_enumeration_matches_unpruned(self, n, k, m, complex_entries, kind, seed):
        # The chunk is shrunk to 7 supports so pruning runs across several
        # chunks and partial batches.
        k = min(k, n)
        gram = self.library_gram(self.tied_operator(seed, m, n, complex_entries, kind))
        every = list(itertools.combinations(range(n), k))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rip, "_SUPPORT_CHUNK", 7)
            got, evaluated = rip._max_defect(gram, every, k)
        assert got.hex() == reference_support_defect(gram, every).hex()
        assert 1 <= evaluated <= math.comb(n, k)


class TestEmpiricalRip:
    def test_identity_all_models(self):
        a = np.eye(16)
        rng = SeededRng(SEED + 3)
        for model in (Canonical(3), LqCap(1.0, 4.0), LowRank(2), TensorRank(2, 4, 2)):
            report = empirical_rip(a, model, 10, 20, rng=rng)
            assert report.delta_hat <= 1e-10

    def test_exhaustive_branch_draws_nothing(self, monkeypatch):
        calls = []
        stream = SeededRng.stream
        monkeypatch.setattr(SeededRng, "stream",
                            lambda self, index: calls.append(index) or stream(self, index))
        ens = gaussian_ensemble(6, 4, SeededRng(SEED))
        # C(6, 2) = 15 supports, 40 trials: 25 trials are left after enumeration.
        report = empirical_rip(ens, Canonical(2), 40, rng=SeededRng(SEED, 1))
        assert report.details["exhaustive"] and calls == []

    def test_exhaustive_trials_match_exact(self):
        for seed in range(4):
            ens = gaussian_ensemble(10, 6, SeededRng(seed))
            exact = exact_rip_canonical(ens, 2).delta_hat
            # C(10, 2) = 45 supports, trial budget covers them all
            emp = empirical_rip(ens, Canonical(2), 45, rng=SeededRng(seed, 1))
            assert emp.delta_hat == pytest.approx(exact, abs=1e-10)
            assert emp.method == "exact_enumeration"

    def test_monte_carlo_is_lower_bound(self):
        ens = gaussian_ensemble(12, 8, SeededRng(SEED + 4))
        exact = exact_rip_canonical(ens, 3).delta_hat
        emp = empirical_rip(ens, Canonical(3), 30, rng=SeededRng(SEED + 5))
        assert emp.delta_hat <= exact + 1e-10

    def test_non_decreasing_in_trials(self):
        ens = gaussian_ensemble(16, 8, SeededRng(SEED + 6))
        model = LqCap(1.0, 3.0)
        d_small = empirical_rip(ens, model, 5, 25, rng=SeededRng(SEED + 7)).delta_hat
        d_large = empirical_rip(ens, model, 40, 25, rng=SeededRng(SEED + 7)).delta_hat
        assert d_large >= d_small - 1e-12

    def test_ascent_improves_or_matches_raw_sampling(self):
        ens = gaussian_ensemble(16, 8, SeededRng(SEED + 8))
        model = LowRank(1)
        d_raw = empirical_rip(ens, model, 20, 0, rng=SeededRng(SEED + 9)).delta_hat
        d_ref = empirical_rip(ens, model, 20, 40, rng=SeededRng(SEED + 9)).delta_hat
        assert d_ref >= d_raw - 1e-12


def reference_ascent(a, model, trials, ascent_steps, rng):
    """Per-trial, per-sign, per-vector projected power ascent.

    Returns the estimate, the row-steps up to each ascent's first exact fixed
    point, and how many ascents stopped on a vanishing step.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[1]
    defect = a.conj().T @ a - np.eye(n)
    shift = operator_norm(defect)

    def form(x):
        return abs(float(np.real(np.vdot(x, defect @ x))))

    delta, steps, vanished = 0.0, 0, 0
    for trial in range(trials):
        x0 = sample_sparse(model, n, rng.stream(trial))
        best = form(x0)
        for sign in (+1.0, -1.0):
            x, fixed = x0, False
            for _ in range(ascent_steps):
                y = sign * (defect @ x) + shift * x
                if not np.any(y):
                    vanished += 1
                    break
                nxt = project_witness(model, y)
                steps += 0 if fixed else 1
                fixed = fixed or np.array_equal(nxt.view(np.uint64), x.view(np.uint64))
                x = nxt
            best = max(best, form(x))
        delta = max(delta, best)
    return delta, steps, vanished


class TestBlockAscent:
    @settings(max_examples=40)
    @given(
        st.sampled_from([LqCap(1.0, 1.0), LqCap(1.0, 3.0), LqCap(1.5, 2.0), LowRank(1),
                         LowRank(2)]),
        st.integers(1, 12),
        st.integers(0, 8),
        st.integers(0, 2**16),
    )
    def test_matches_per_trial_reference(self, model, trials, steps, seed):
        a = gaussian_ensemble(16, 12, SeededRng(seed)).effective_operator()
        report = empirical_rip(a, model, trials, steps, rng=SeededRng(seed, 1))
        delta, iterations, _ = reference_ascent(a, model, trials, steps, SeededRng(seed, 1))
        assert report.delta_hat.hex() == delta.hex()
        assert report.details["ascent_iterations"] == iterations

    def test_vanishing_steps_stop_their_rows_only(self):
        # Columns 8..15 are annihilated, so defect = diag(0, ..., -1, ...) and
        # shift = 1: an upward step from a witness on those columns vanishes.
        a = np.diag(np.r_[np.ones(8), np.zeros(8)])
        model = LqCap(1.0, 1.0)
        report = empirical_rip(a, model, 16, 5, rng=SeededRng(SEED + 20))
        delta, iterations, vanished = reference_ascent(a, model, 16, 5, SeededRng(SEED + 20))
        assert 0 < vanished < 16
        assert report.delta_hat.hex() == delta.hex()
        assert report.details["ascent_iterations"] == iterations

    def test_canonical_reports_no_ascent(self):
        ens = gaussian_ensemble(10, 6, SeededRng(SEED + 21))
        for trials in (5, 45):
            report = empirical_rip(ens, Canonical(2), trials, 30, rng=SeededRng(SEED + 22))
            assert report.details["ascent_iterations"] == 0

    def test_fixed_points_stop_early(self):
        ens = gaussian_ensemble(64, 256, SeededRng(SEED + 23))
        report = empirical_rip(ens, LqCap(1.0, 1.0), 20, 50, rng=SeededRng(SEED + 24))
        assert 0 < report.details["ascent_iterations"] < 2 * 20 * 50
        assert report.details["trials"] == 20


class TestMripCheck:
    def test_identity_passes_any_delta(self):
        report = mrip_check(np.eye(16), 1.0, 1.0, 1e-6, 10, 10, SeededRng(SEED + 10))
        assert report.details["all_pass"]

    def test_level_range_arithmetic(self):
        report = mrip_check(np.eye(16), 1.0, 1.0, 0.5, 2, 2, SeededRng(SEED + 11))
        assert [lv["level"] for lv in report.levels] == [0, 1, 2, 3, 4]

    def test_level_range_with_fractional_start(self):
        report = mrip_check(np.eye(32), 1.0, 2.0, 0.5, 2, 2, SeededRng(SEED + 12))
        assert [lv["level"] for lv in report.levels] == [-1, 0, 1, 2, 3, 4]

    def test_threshold_formula(self):
        delta = 0.3
        report = mrip_check(np.eye(16), 1.0, 1.0, delta, 2, 2, SeededRng(SEED + 13))
        for lv in report.levels:
            expected = max(2 ** (lv["level"] / 2) * delta, 2 ** lv["level"] * delta ** 2)
            assert lv["threshold"] == pytest.approx(expected, rel=1e-12)

    def test_extra_level_factor_loosens_thresholds(self):
        delta = 0.3
        loose = mrip_check(np.eye(16), 1.0, 1.0, delta, 2, 2, SeededRng(SEED + 14),
                           extra_level_factor=True)
        for lv in loose.levels:
            expected = 2 ** (lv["level"] / 2) * max(
                2 ** (lv["level"] / 2) * delta, 2 ** lv["level"] * delta ** 2
            )
            assert lv["threshold"] == pytest.approx(expected, rel=1e-12)

    def test_calibrated_delta_passes_itself(self):
        # the calibrated distortion is exactly the smallest passing delta for
        # the sups the calibration observed; re-running with the same seed
        # reproduces those sups, so the check must pass at that delta
        ens = gaussian_ensemble(32, 128, SeededRng(SEED + 15))
        delta, records = calibrate_mrip_distortion(ens, 1.0, 2.0, 10, 20, SeededRng(SEED + 16))
        report = mrip_check(ens, 1.0, 2.0, delta, 10, 20, SeededRng(SEED + 16))
        assert report.details["all_pass"]
        shrunk = mrip_check(ens, 1.0, 2.0, delta * 0.98, 10, 20, SeededRng(SEED + 16))
        assert not shrunk.details["all_pass"]

    def test_invalid_sparsity_rejected(self):
        with pytest.raises(ValueError):
            mrip_check(np.eye(8), 1.0, 0.5, 0.5, 2, 2, SeededRng(SEED))
        with pytest.raises(ValueError):
            mrip_check(np.eye(8), 1.0, 9.0, 0.5, 2, 2, SeededRng(SEED))


class TestDistanceBound:
    def test_isometric_operator_always_passes(self):
        rng = SeededRng(SEED + 17)
        x = rng.complex_normal(8)
        y = rng.complex_normal(8)
        res = distance_bound_check(np.eye(8), x, y, 2.0, 0.3, 1.0)
        assert res["observed"] <= 1e-12
        assert res["passed"]

    def test_reduces_to_plain_rip_for_one_sided_pair(self):
        ens = gaussian_ensemble(16, 64, SeededRng(SEED + 18))
        x = SeededRng(SEED + 19).complex_normal(16)
        x /= np.linalg.norm(x)
        res = distance_bound_check(ens, x, np.zeros(16), 16.0, 0.5, 1.0)
        a = ens.effective_operator()
        observed = abs(np.linalg.norm(a @ x) ** 2 - 1.0)
        assert res["observed"] == pytest.approx(observed, rel=1e-12)

    def test_equal_pair_rejected(self):
        x = np.ones(4) / 2.0
        with pytest.raises(ValueError):
            distance_bound_check(np.eye(4), x, x, 1.0, 0.5, 1.0)

    def test_refined_bound_reported_when_hypothesis_holds(self):
        # a canonical 1-sparse difference has ||h||_1 = ||h||_2, so the
        # refined-branch hypothesis holds easily at s=4
        x = np.zeros(8, dtype=complex)
        y = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y[0] = 0.9
        res = distance_bound_check(np.eye(8), x, y, 4.0, 0.1, 1.0)
        assert res["refined_applies"]
        assert res["refined_passed"]
        assert res["refined_bound"] >= res["observed"]


class TestClassifySeparation:
    def test_identical_pair_is_close(self):
        x = np.zeros(6, dtype=complex)
        x[1] = 1.0
        verdict = classify_separation(np.eye(6), x, x, 0.25)
        assert isinstance(verdict, Close)
        assert verdict.radius == pytest.approx(2.0, rel=1e-12)

    def test_orthogonal_pair_is_separated_with_valid_sandwich(self):
        x = np.zeros(6, dtype=complex)
        y = np.zeros(6, dtype=complex)
        x[0] = 1.0
        y[1] = 1.0
        verdict = classify_separation(np.eye(6), x, y, 0.1)
        assert isinstance(verdict, Separated)
        true_sq = 2.0
        assert verdict.lower <= true_sq <= verdict.upper
        np.testing.assert_allclose(verdict.lower, (1 - 2 ** -0.5) * 2.0, rtol=1e-12)
        np.testing.assert_allclose(verdict.upper, (1 + 2 ** -0.5) * 2.0, rtol=1e-12)

    def test_sandwich_tightens_as_delta_shrinks(self):
        x = np.zeros(6, dtype=complex)
        y = np.zeros(6, dtype=complex)
        x[0] = 1.0
        y[1] = 1.0
        widths = []
        for delta in (0.2, 0.05, 0.01):
            verdict = classify_separation(np.eye(6), x, y, delta)
            assert isinstance(verdict, Separated)
            widths.append(verdict.upper - verdict.lower)
        # measured value fixed; the window is a fixed multiple of it, while
        # the close radius shrinks; the separation threshold keeps dropping
        assert all(w == pytest.approx(widths[0], rel=1e-12) for w in widths)

    def test_alpha_domain_guard(self):
        x = np.zeros(4, dtype=complex)
        y = np.zeros(4, dtype=complex)
        x[0] = 1.0
        y[1] = 1.0
        with pytest.raises(ValueError):
            classify_separation(np.eye(4), x, y, 0.1, alpha=4.0)

    def test_custom_alpha_factors(self):
        x = np.zeros(4, dtype=complex)
        y = np.zeros(4, dtype=complex)
        x[0] = 1.0
        y[1] = 1.0
        alpha = 6.0
        verdict = classify_separation(np.eye(4), x, y, 0.1, alpha=alpha)
        assert isinstance(verdict, Separated)
        spread = 2 * math.sqrt(2) / math.sqrt(alpha * (alpha - 2 * math.sqrt(2)))
        np.testing.assert_allclose(verdict.lower, (1 - spread) * 2.0, rtol=1e-12)
        np.testing.assert_allclose(verdict.upper, (1 + spread) * 2.0, rtol=1e-12)

    def test_non_unit_inputs_rejected(self):
        with pytest.raises(ValueError):
            classify_separation(np.eye(4), np.ones(4), np.ones(4) / 2.0, 0.1)


class TestGaussianWidth:
    def test_full_support_matches_chi_mean(self):
        n = 16
        stats = gaussian_width(Canonical(n), n, 4000, SeededRng(SEED + 20))
        exact = math.sqrt(2) * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2))
        assert abs(stats["mean"] - exact) <= 3 * stats["stderr"]

    def test_one_sparse_matches_brute_force(self):
        stats = gaussian_width(Canonical(1), 16, 4000, SeededRng(SEED + 21))
        rng = np.random.default_rng(SEED)
        acc = 0.0
        draws = 0
        for _ in range(10):
            block = rng.standard_normal((100000, 16))
            acc += np.abs(block).max(axis=1).sum()
            draws += 100000
        brute = acc / draws
        assert abs(stats["mean"] - brute) <= 3 * stats["stderr"] + 0.01

    def test_deterministic(self):
        a = gaussian_width(Canonical(2), 12, 50, SeededRng(SEED + 22))
        b = gaussian_width(Canonical(2), 12, 50, SeededRng(SEED + 22))
        assert a["mean"] == b["mean"]

    def test_low_rank_full_equals_frobenius_width(self):
        # rank-n model on n x n matrices: sup is the full Frobenius norm
        n = 4
        stats = gaussian_width(LowRank(n), n * n, 2000, SeededRng(SEED + 23))
        dim = n * n
        exact = math.sqrt(2) * math.exp(math.lgamma((dim + 1) / 2) - math.lgamma(dim / 2))
        assert abs(stats["mean"] - exact) <= 3 * stats["stderr"]

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            gaussian_width(Canonical(1), 8, 1, SeededRng(SEED))

    @pytest.mark.parametrize("q,s", [(1.0, 1.0), (1.0, 2.5), (1.25, 2.0), (1.5, 1.5),
                                     (1.5, 8.0), (2.0, 1.0)])
    def test_lqcap_draw_is_the_best_flat_witness(self, q, s):
        # The q-cap witnesses are flat: unit-modulus phases / sqrt(j) on j <=
        # j_max coordinates.  Against a real draw the best phases are its signs.
        n = 7
        j_max = witness_support_size(q, s, n)
        for stream in SeededRng(SEED + 24).streams(range(20)):
            xi = stream.standard_normal(n)
            best = 0.0
            for j in range(1, j_max + 1):
                for support in itertools.combinations(range(n), j):
                    x = np.zeros(n)
                    x[list(support)] = np.sign(xi[list(support)]) / math.sqrt(j)
                    best = max(best, abs(float(x @ xi)))
            assert abs(rip._width_one_draw(LqCap(q, s), xi) - best) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rank_one_tensor_draw_stays_below_top_singular_value(self, n):
        # An order-2 elementary tensor is a unit rank-1 matrix, so its greedy
        # witness cannot beat the exact rank-1 supremum, the top singular value.
        for stream in SeededRng(SEED + 25, n).streams(range(20)):
            xi = stream.standard_normal(n * n)
            greedy = rip._width_one_draw(TensorRank(1, n, 2), xi)
            exact = rip._width_one_draw(LowRank(1), xi)
            assert greedy <= exact + 1e-12


class TestPredictM:
    """The closed-form measurement counts, one function per formula."""

    def test_gordon_arithmetic(self):
        assert gordon_m(3.0, 1.0, 2.0) == 9

    def test_gordon_domain(self):
        with pytest.raises(ValueError):
            gordon_m(3.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            gordon_m(3.0, 0.5, 2.5)
        with pytest.raises(ValueError):
            gordon_m(-1.0, 0.5, 0.5)

    def test_table1_ratios(self):
        counts = table1_counts(2, 4, 3)
        assert counts["gauss"] == 24
        assert counts["group"] == counts["gauss"] * 4 * 3
        assert counts["group_sign"] == counts["gauss"] * 3 * 3

    def test_implicit_matches_monotone_scan(self):
        m = implicit_m(10.0, 0.5)
        grid = np.arange(1, m + 1000, dtype=float)
        ok = grid >= 40.0 * (1.0 + np.log(grid)) ** 3
        smallest = int(grid[np.argmax(ok)])
        assert ok.any()
        assert m == smallest

    def test_implicit_capacity(self):
        with pytest.raises(CapacityError):
            implicit_m(1e12, 1e-4)
