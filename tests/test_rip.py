"""Tests for isometry-defect estimation, multilevel checks, distance lemmas,
Gaussian widths, and measurement-count predictions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riplab import rip, sparsity
from riplab.group_ops import MeasurementEnsemble, gaussian_ensemble, sample_ensemble
from riplab.instruments import make_flat
from riplab.numerics import CapacityError, NumericalError, SeededRng, operator_norm
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
from riplab.sparsity import Canonical, LqCap, witness_support_size

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
        a = ens.rows
        k = 3
        best = 0.0
        for support in itertools.combinations(range(7), k):
            sub = a[:, support]
            best = max(best, operator_norm(sub.conj().T @ sub - np.eye(k)))
        assert exact_rip_canonical(ens, k).delta_hat == pytest.approx(best, rel=1e-10)

    def test_scaling_has_no_hidden_normalization(self):
        ens = gaussian_ensemble(6, 4, SeededRng(SEED + 2))
        a = ens.rows
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


class TestDefect:
    """_defect(a) is A^* A - np.eye(N) bit for bit, A taken as complex.

    Entries are signed zeros or a few finite values, and some columns are
    zeroed with either sign, so zeros of both signs reach the Gram.
    """

    @staticmethod
    def operator(seed, m, n, complex_entries):
        g = np.random.default_rng(seed)
        values = [0.0, -0.0, 1.5, -2.0, 0.25]
        a = np.zeros((m, n), dtype=complex if complex_entries else float)
        a.real = g.choice(values, size=(m, n))
        if complex_entries:
            a.imag = g.choice(values, size=(m, n))
        a[:, g.random(n) < 0.3] *= g.choice([0.0, -0.0])
        return a

    @settings(max_examples=100)
    @given(m=st.integers(1, 8), n=st.integers(1, 9), complex_entries=st.booleans(),
           ensemble=st.booleans(), seed=st.integers(0, 2**16))
    @example(m=5, n=6, complex_entries=True, ensemble=False, seed=0)
    @example(m=2, n=6, complex_entries=False, ensemble=True, seed=1)
    def test_equals_gram_minus_identity(self, m, n, complex_entries, ensemble, seed):
        a = self.operator(seed, m, n, complex_entries)
        eff = a.astype(complex)
        expected = eff.conj().T @ eff - np.eye(n)
        defect = rip._defect(MeasurementEnsemble(eff) if ensemble else a)
        assert defect.dtype == expected.dtype and defect.shape == expected.shape
        assert np.array_equal(defect.view(np.uint64), expected.view(np.uint64))


class TestSupportDefects:
    """The pruned kernel, given D = G - I, against a per-support loop on the
    Gram G, bit for bit.

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
                got, evaluated = rip._max_defect(gram - np.eye(n), iter(supports), k)
            assert got == reference_support_defect(gram, supports)
            assert evaluated == sum(calls) and 1 <= evaluated <= len(supports)
            assert max(calls) <= 7
        assert rip._max_defect(gram - np.eye(n), [], k) == (0.0, 0)

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
            listed += [np.sort(SeededRng(seed, 1).stream(trial).choice(n, k, replace=False))
                       for trial in drawn]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rip, "_SUPPORT_CHUNK", 7)
                report = empirical_rip(a, Canonical(k), trials, rng=SeededRng(seed, 1))
            assert report.delta_hat == reference_support_defect(gram, listed)
            assert report.side == ("exact" if exhaustive else "lower")
            assert 1 <= report.details["evaluated"] <= min(trials, n_supports)

    @settings(max_examples=25)
    @given(n=st.integers(12, 64), k=st.integers(1, 8), m=st.integers(1, 24),
           complex_entries=st.booleans(), trials=st.integers(1, 600),
           chunk=st.sampled_from([7, rip._SUPPORT_CHUNK]), seed=st.integers(0, 2**16))
    def test_sampled_report_equals_per_stream_supports(self, n, k, m, complex_entries,
                                                       trials, chunk, seed):
        # Every trial's support drawn at once against each trial stream's own
        # sorted choice, through the same kernel: the same maximum to the bit
        # and the same supports sent to eigvalsh.
        trials = min(trials, math.comb(n, k) - 1)
        a = self.operator(seed, m, n, complex_entries)
        supports = [np.sort(stream.choice(n, k, replace=False)).tolist()
                    for stream in SeededRng(seed, 1).streams(range(trials))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rip, "_SUPPORT_CHUNK", chunk)
            delta, evaluated = rip._max_defect(self.library_gram(a) - np.eye(n), supports, k)
            report = empirical_rip(a, Canonical(k), trials, rng=SeededRng(seed, 1))
        assert report.delta_hat.hex() == delta.hex()
        assert report.details == {"trials": trials, "supports": trials,
                                  "evaluated": evaluated}


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
            got, evaluated = rip._max_defect(gram - np.eye(n), every, k)
        assert got.hex() == reference_support_defect(gram, every).hex()
        assert 1 <= evaluated <= math.comb(n, k)


class TestCanonicalBody:
    """exact_rip_canonical and empirical_rip with a budget that covers every
    support are one computation: only ``trials`` differs."""

    @settings(max_examples=40)
    @given(n=st.integers(1, 9), k=st.integers(1, 9), m=st.integers(1, 12),
           complex_entries=st.booleans(), extra=st.integers(0, 40),
           seed=st.integers(0, 2**16))
    def test_exact_equals_exhaustive_empirical(self, n, k, m, complex_entries, extra, seed):
        k = min(k, n)
        a = TestSupportDefects.operator(seed, m, n, complex_entries)
        trials = math.comb(n, k) + extra
        exact = exact_rip_canonical(a, k)
        emp = empirical_rip(a, Canonical(k), trials, rng=SeededRng(seed))
        assert exact.delta_hat.hex() == emp.delta_hat.hex()
        assert exact.side == emp.side == "exact"
        assert exact.upper.hex() == emp.upper.hex() == emp.delta_hat.hex()
        assert ({**exact.details, "trials": trials} == emp.details
                and exact.details["trials"] == 0)
        assert emp.details["supports"] == math.comb(n, k)

    def test_k_above_n_same_message(self):
        with pytest.raises(ValueError) as exact:
            exact_rip_canonical(np.eye(4), 5)
        with pytest.raises(ValueError) as emp:
            empirical_rip(np.eye(4), Canonical(5), 10, rng=SeededRng(SEED))
        assert str(exact.value) == str(emp.value) == "k=5 exceeds ambient dimension 4"


def ascend(a, model, trials, steps, rng):
    """rip._ascend on the defect form of ``a``, as the dyadic levels run it."""
    return rip._ascend(model, rip._defect(a), trials, steps, rng)


class TestEmpiricalRip:
    def test_identity_all_models(self):
        a = np.eye(16)
        rng = SeededRng(SEED + 3)
        assert empirical_rip(a, Canonical(3), 10, rng=rng).delta_hat <= 1e-10
        for model in (LqCap(1.0, 4.0), LqCap(1.5, 2.0), LqCap(2.0, 1.0)):
            assert ascend(a, model, 10, 20, rng) <= 1e-10

    def test_q_caps_rejected_before_any_stream(self, monkeypatch):
        # Every stream, root or child, is built by SeededRng.__init__; the
        # q-cap levels of mrip_check show that the probe sees one.
        ens = gaussian_ensemble(8, 4, SeededRng(SEED))
        rng = SeededRng(SEED, 1)
        calls = []
        init = SeededRng.__init__
        monkeypatch.setattr(SeededRng, "__init__",
                            lambda self, *args: calls.append(args) or init(self, *args))
        with pytest.raises(TypeError, match="expected a Canonical model; got LqCap"):
            empirical_rip(ens, LqCap(1.0, 2.0), 3, rng=rng)
        assert calls == []
        mrip_check(ens, 1.0, 2.0, 0.5, 3, 2, rng)
        assert calls

    def test_exhaustive_branch_draws_nothing(self, monkeypatch):
        calls = []
        stream = SeededRng.stream
        monkeypatch.setattr(SeededRng, "stream",
                            lambda self, index: calls.append(index) or stream(self, index))
        ens = gaussian_ensemble(6, 4, SeededRng(SEED))
        # C(6, 2) = 15 supports, 40 trials: 25 trials are left after enumeration.
        report = empirical_rip(ens, Canonical(2), 40, rng=SeededRng(SEED, 1))
        assert report.side == "exact" and calls == []

    def test_exhaustive_trials_match_exact(self):
        for seed in range(4):
            ens = gaussian_ensemble(10, 6, SeededRng(seed))
            exact = exact_rip_canonical(ens, 2).delta_hat
            # C(10, 2) = 45 supports, trial budget covers them all
            emp = empirical_rip(ens, Canonical(2), 45, rng=SeededRng(seed, 1))
            assert emp.delta_hat == pytest.approx(exact, abs=1e-10)
            assert emp.side == "exact"

    def test_monte_carlo_is_lower_bound(self):
        ens = gaussian_ensemble(12, 8, SeededRng(SEED + 4))
        exact = exact_rip_canonical(ens, 3).delta_hat
        emp = empirical_rip(ens, Canonical(3), 30, rng=SeededRng(SEED + 5))
        assert emp.delta_hat <= exact + 1e-10

    def test_non_decreasing_in_trials(self):
        ens = gaussian_ensemble(16, 8, SeededRng(SEED + 6))
        model = LqCap(1.0, 3.0)
        d_small = ascend(ens, model, 5, 25, SeededRng(SEED + 7))
        d_large = ascend(ens, model, 40, 25, SeededRng(SEED + 7))
        assert d_large >= d_small - 1e-12

    def test_ascent_improves_or_matches_raw_sampling(self):
        ens = gaussian_ensemble(16, 8, SeededRng(SEED + 8))
        model = LqCap(1.25, 2.0)
        d_raw = ascend(ens, model, 20, 0, SeededRng(SEED + 9))
        d_ref = ascend(ens, model, 20, 40, SeededRng(SEED + 9))
        assert d_ref >= d_raw - 1e-12


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _flat(model: LqCap, z: np.ndarray) -> np.ndarray:
    """sparsity._flat_witness of the (B, N) block z at the cap's support size."""
    return sparsity._flat_witness(z, np.abs(z),
                                  witness_support_size(model.q, model.s, z.shape[1]))


def _reference_flat_projection(model: LqCap, z: np.ndarray) -> np.ndarray:
    """The single-vector flat-witness projection, written out."""
    n = z.size
    j = witness_support_size(model.q, model.s, n)
    keep = np.argpartition(np.abs(z), n - j)[n - j:]
    x = np.zeros(n, dtype=complex)
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
    model = LqCap(draw(st.sampled_from([1.0, 1.25, 4.0 / 3.0, 1.7, 1.999, 2.0])),
                  draw(st.floats(1.0, 12.0)))
    rows = draw(st.integers(1, 5))
    return model, draw(hnp.arrays(complex, (rows, ambient), elements=_ENTRIES))


class TestFlatWitness:
    def test_lqcap_flat_modulus_keeps_phases(self):
        z = np.array([3.0 * np.exp(1j * 0.3), -1.0, 0.25j, 2.0 * np.exp(-1j * 1.1)])
        (w,) = _flat(LqCap(1.0, 2.0), z[None, :])
        nz = w[np.abs(w) > 0]
        assert nz.size == 2
        np.testing.assert_allclose(np.abs(nz), np.abs(nz[0]), rtol=1e-12)
        # phases of the two largest entries survive
        assert np.angle(w[0]) == pytest.approx(0.3, abs=1e-12)
        assert np.angle(w[3]) == pytest.approx(-1.1, abs=1e-12)


class TestFlatWitnessBlocks:
    # Zero rows included: the ascent projects a row whose step vanishes, and
    # the kernel gives every zero entry phase 1.
    @settings(max_examples=300)
    @given(_model_and_block())
    def test_block_rows_equal_single_vector_calls(self, case):
        model, z = case
        block = _flat(model, z)
        assert block.shape == z.shape
        for row, expected_input in zip(block, z):
            (single,) = _flat(model, expected_input[None, :])
            np.testing.assert_array_equal(_bits(row), _bits(single))
            reference = _reference_flat_projection(model, expected_input)
            np.testing.assert_array_equal(_bits(row), _bits(reference))

    # At j = N the kernel keeps every coordinate, so it is checked against
    # the keep-everything construction directly.
    # _ENTRIES makes exact zeros, which take phase 1.
    @settings(max_examples=200)
    @given(st.integers(1, 12).flatmap(
        lambda n: hnp.arrays(complex, st.tuples(st.integers(1, 5), st.just(n)),
                             elements=_ENTRIES)))
    @example(np.array([[0, 2j, 0, -2], [0, 0, 0, 0], [1j, -1j, 0, 0.25]], dtype=complex))
    def test_keeping_every_coordinate_is_the_explicit_construction(self, z):
        n = z.shape[1]
        mags = np.abs(z)
        expected = np.where(mags > 0, z / np.where(mags > 0, mags, 1.0), 1.0) / math.sqrt(n)
        np.testing.assert_array_equal(_bits(sparsity._flat_witness(z, mags, n)),
                                      _bits(expected))
        # Every q = 2 cap has j = N.
        for s in (1.0, 3.5):
            np.testing.assert_array_equal(_bits(_flat(LqCap(2.0, s), z)), _bits(expected))


def reference_ascent(a, model, trials, ascent_steps, rng):
    """Per-trial, per-sign, per-vector projected power ascent, projected by
    the written-out _reference_flat_projection rather than the library's
    kernel, from the projections of complex Gaussian rows drawn as
    sample_sparse draws them.

    Returns the largest |form| over every iterate of both signs.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[1]
    defect = a.conj().T @ a - np.eye(n)
    parts = rng.standard_normal((trials, 2, n))
    delta = 0.0
    for re, im in parts:
        x0 = _reference_flat_projection(model, re + 1j * im)
        for descend in (False, True):
            x = x0
            for step in range(ascent_steps + 1):
                # A row of a zgemm alone: padded with a zero row, as numpy
                # sends a one-row product to zgemv, which rounds differently.
                y = (np.stack([x, np.zeros_like(x)]) @ defect.T)[0]
                delta = max(delta, abs(float(np.real(np.sum(x.conj() * y)))))
                if step < ascent_steps:
                    x = _reference_flat_projection(model, -y if descend else y)
    return delta


@st.composite
def _small_cap_ascent(draw):
    n, m = draw(st.integers(2, 12)), draw(st.integers(1, 24))
    q = draw(st.sampled_from([1.0, 1.25, 1.5, 1.75]))
    model = LqCap(q, draw(st.floats(1.0, sparsity.max_sparsity_level(q, n))))
    return n, m, model, draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


class TestBlockAscent:
    @settings(max_examples=40)
    @given(
        st.sampled_from([LqCap(1.0, 1.0), LqCap(1.0, 3.0), LqCap(1.5, 2.0), LqCap(1.25, 2.5),
                         LqCap(2.0, 1.0)]),
        st.integers(1, 12),
        st.integers(0, 8),
        st.integers(0, 2**16),
    )
    def test_matches_per_trial_reference(self, model, trials, steps, seed):
        a = gaussian_ensemble(16, 12, SeededRng(seed)).rows
        got = ascend(a, model, trials, steps, SeededRng(seed, 1))
        delta = reference_ascent(a, model, trials, steps, SeededRng(seed, 1))
        assert got.hex() == delta.hex()

    # The benchmark's mrip operator: N = 64, m = 256, q = 1, every dyadic cap.
    @pytest.mark.parametrize("s", [1, 4, 16, 64])
    def test_matches_reference_at_benchmark_size(self, openblas, s):
        get, put = openblas
        a = gaussian_ensemble(64, 256, SeededRng(SEED + 25)).rows
        model = LqCap(1.0, float(s))
        for threads in (1, 2):
            put(threads)
            if get() != threads:
                pytest.skip(f"OpenBLAS cannot run {threads} threads here")
            got = ascend(a, model, 20, 50, SeededRng(SEED + 26))
            delta = reference_ascent(a, model, 20, 50, SeededRng(SEED + 26))
            assert got.hex() == delta.hex()

    # Small operators, where rounding can leave a later iterate's form an ulp
    # below an earlier one's.  The value is a maximum over the iterates of
    # fewer steps and more, so it cannot fall as steps grow.
    @settings(max_examples=60)
    @given(_small_cap_ascent())
    def test_non_decreasing_in_steps(self, case):
        n, m, model, trials, seed = case
        a = gaussian_ensemble(n, m, SeededRng(seed)).rows
        values = [ascend(a, model, trials, steps, SeededRng(seed, 1)) for steps in range(25)]
        assert values == sorted(values), [v.hex() for v in values]


class TestReportContract:
    # Every estimate states its side and the same three cost counts.  The
    # operator has C(6, 2) = 15 supports: 10 trials draw, 40 enumerate.
    @pytest.mark.parametrize("estimate,side,trials,supports", [
        (lambda a: exact_rip_canonical(a, 2), "exact", 0, 15),
        (lambda a: empirical_rip(a, Canonical(2), 10, rng=SeededRng(SEED, 1)), "lower", 10, 10),
        (lambda a: empirical_rip(a, Canonical(2), 40, rng=SeededRng(SEED, 1)), "exact", 40, 15),
    ], ids=["exact", "drawn", "enumerated"])
    def test_side_and_cost_keys(self, estimate, side, trials, supports):
        a = gaussian_ensemble(6, 4, SeededRng(SEED + 40)).rows
        report = estimate(a)
        assert report.side == side
        assert report.details.keys() == {"trials", "supports", "evaluated"}
        assert (report.details["trials"], report.details["supports"]) == (trials, supports)
        assert 1 <= report.details["evaluated"] <= supports
        if side == "exact":
            assert report.delta_hat.hex() == exact_rip_canonical(a, 2).delta_hat.hex()
            assert report.upper.hex() == report.delta_hat.hex()
        else:
            assert report.upper is None

    # Every side claim against the truth at N <= 10.  An exact report equals
    # enumeration to the bit and is its own upper bound; a lower one never
    # exceeds enumeration and has none.  The budgets fall short of C(N, k),
    # unless one support is all there is, and cover it.
    @settings(max_examples=60)
    @given(n=st.integers(1, 10), k=st.integers(1, 10), m=st.integers(1, 12),
           complex_entries=st.booleans(), short=st.integers(1, 40), extra=st.integers(0, 40),
           seed=st.integers(0, 2**16))
    def test_canonical_sides_are_honest(self, n, k, m, complex_entries, short, extra, seed):
        k = 1 + (k - 1) % n
        a = TestSupportDefects.operator(seed, m, n, complex_entries)
        truth = reference_support_defect(TestSupportDefects.library_gram(a),
                                         itertools.combinations(range(n), k))
        n_supports = math.comb(n, k)
        reports = [exact_rip_canonical(a, k)] + [
            empirical_rip(a, Canonical(k), trials, rng=SeededRng(seed, 1))
            for trials in (max(1, n_supports - short), n_supports + extra)]
        for report in reports:
            if report.side == "exact":
                assert report.delta_hat.hex() == report.upper.hex() == truth.hex()
            else:
                assert report.side == "lower" and report.upper is None
                assert report.delta_hat <= truth

    # Every level's claim at N <= 10: an exact level equals the closed form
    # of a cap that is the sphere (||D||_2) or holds only 1-sparse vectors
    # (max |D_ii|); a lower one never exceeds ||D||_2.  The calibrated delta
    # is exact only when every level is.
    @settings(max_examples=60)
    @given(n=st.integers(1, 10), m=st.integers(1, 16),
           q=st.sampled_from([1.0, 1.25, 1.5, 2.0]), s_frac=st.floats(0.0, 1.0),
           trials=st.integers(1, 3), steps=st.integers(0, 4), seed=st.integers(0, 2**16))
    def test_level_sides_are_honest(self, n, m, q, s_frac, trials, steps, seed):
        smax = sparsity.max_sparsity_level(q, n)
        s = 1.0 + s_frac * (smax - 1.0)
        a = gaussian_ensemble(n, m, SeededRng(seed)).rows
        defect = a.conj().T @ a - np.eye(n)
        norm = operator_norm(defect)
        _, levels = mrip_check(a, q, s, 0.5, trials, steps, SeededRng(seed, 1))
        for lv in levels:
            if lv["side"] == "exact":
                if lv["sparsity"] >= smax:
                    closed = norm
                else:
                    assert lv["sparsity"] == 1.0
                    closed = float(np.abs(defect.diagonal().real).max())
                assert lv["observed"].hex() == closed.hex()
            else:
                assert lv["side"] == "lower"
                assert lv["observed"] <= norm
        _, records = calibrate_mrip_distortion(a, q, s, trials, steps, SeededRng(seed, 1))
        assert [r["side"] for r in records] == [lv["side"] for lv in levels]
        every_exact = all(lv["side"] == "exact" for lv in levels)
        assert rip.calibrated_side(records) == ("exact" if every_exact else "lower")


class TestMripCheck:
    def test_identity_passes_any_delta(self):
        all_pass, _ = mrip_check(np.eye(16), 1.0, 1.0, 1e-6, 10, 10, SeededRng(SEED + 10))
        assert all_pass

    def test_level_range_arithmetic(self):
        _, levels = mrip_check(np.eye(16), 1.0, 1.0, 0.5, 2, 2, SeededRng(SEED + 11))
        assert [lv["level"] for lv in levels] == [0, 1, 2, 3, 4]

    def test_level_range_with_fractional_start(self):
        _, levels = mrip_check(np.eye(32), 1.0, 2.0, 0.5, 2, 2, SeededRng(SEED + 12))
        assert [lv["level"] for lv in levels] == [-1, 0, 1, 2, 3, 4]

    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_level_range_starts_at_the_first_nonempty_cap(self, s):
        # The lowest level has 2^l s in [1, 2): below 1 the cap is empty.
        _, levels = mrip_check(np.eye(64), 1.0, s, 0.5, 2, 2, SeededRng(SEED + 12))
        assert 1.0 <= levels[0]["sparsity"] < 2.0
        assert levels[-1]["sparsity"] >= 64.0

    def test_threshold_formula(self):
        delta = 0.3
        _, levels = mrip_check(np.eye(16), 1.0, 1.0, delta, 2, 2, SeededRng(SEED + 13))
        for lv in levels:
            expected = max(2 ** (lv["level"] / 2) * delta, 2 ** lv["level"] * delta ** 2)
            assert lv["threshold"] == pytest.approx(expected, rel=1e-12)

    def test_extra_level_factor_loosens_thresholds(self):
        delta = 0.3
        _, loose = mrip_check(np.eye(16), 1.0, 1.0, delta, 2, 2, SeededRng(SEED + 14),
                              extra_level_factor=True)
        for lv in loose:
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
        all_pass, levels = mrip_check(ens, 1.0, 2.0, delta, 10, 20, SeededRng(SEED + 16))
        assert all_pass
        assert [r["side"] for r in records] == [lv["side"] for lv in levels]
        shrunk, _ = mrip_check(ens, 1.0, 2.0, delta * 0.98, 10, 20, SeededRng(SEED + 16))
        assert not shrunk

    def test_levels_equal_empirical_rip_on_their_streams(self):
        # The levels share one defect form.  The end levels read it in closed
        # form: sparsity 1 holds only 1-sparse vectors and sparsity N = 32
        # (q = 1) the whole sphere.  Each level between must read the ascent
        # at its cap on the i-th stream from a form of its own.
        ens = gaussian_ensemble(32, 128, SeededRng(SEED + 15))
        defect = ens.rows.conj().T @ ens.rows - np.eye(32)
        _, levels = mrip_check(ens, 1.0, 2.0, 0.3, 6, 10, SeededRng(SEED + 16))
        assert [lv["sparsity"] for lv in levels] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        first, *middle, last = levels
        assert first["side"] == last["side"] == "exact"
        assert first["observed"].hex() == np.abs(defect.diagonal().real).max().hex()
        assert last["observed"].hex() == operator_norm(defect).hex()
        for i, lv in enumerate(middle, 1):
            delta = ascend(ens, LqCap(1.0, lv["sparsity"]), 6, 10, SeededRng(SEED + 16).stream(i))
            assert lv["side"] == "lower"
            assert lv["observed"].hex() == delta.hex()

    def test_one_coordinate_witnesses_read_the_largest_diagonal(self):
        # At q = 1 every sparsity in [1, 2) has witness support size 1.  Above
        # sparsity 1 the cap also holds vectors that are not 1-sparse, so 1.5
        # reads max |D_ii| as a lower bound, which a 1-sparse ascent cannot beat.
        ens = gaussian_ensemble(32, 128, SeededRng(SEED + 15))
        defect = ens.rows.conj().T @ ens.rows - np.eye(32)
        _, levels = mrip_check(ens, 1.0, 1.5, 0.3, 6, 10, SeededRng(SEED + 16))
        assert (levels[0]["sparsity"], levels[0]["side"]) == (1.5, "lower")
        assert levels[0]["observed"].hex() == np.abs(defect.diagonal().real).max().hex()
        ascent = ascend(ens, LqCap(1.0, 1.5), 6, 10, SeededRng(SEED + 16).stream(0))
        assert ascent <= levels[0]["observed"]

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mrip_check(np.eye(8), 1.0, 1.0, 0.5, 0, 2, SeededRng(SEED))

    def test_negative_ascent_steps_rejected(self):
        with pytest.raises(ValueError, match="ascent_steps must be >= 0"):
            mrip_check(np.eye(8), 1.0, 1.0, 0.5, 2, -4, SeededRng(SEED))
        with pytest.raises(ValueError, match="ascent_steps must be >= 0"):
            calibrate_mrip_distortion(np.eye(8), 1.0, 1.0, 2, -4, SeededRng(SEED))

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
        a = ens.rows
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
        # At k = N the width is E ||g||_2 = sqrt(2) Gamma((N + 1) / 2) / Gamma(N / 2).
        for n in (1, 2, 16, 64, 256, 1024):
            exact = math.sqrt(2) * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2))
            assert gaussian_width(Canonical(n), n)["mean"] == pytest.approx(exact, rel=1e-6)

    # Monte Carlo oracle: 10^5 draws from one generator, in blocks of 10^4.
    @pytest.mark.parametrize("n, k", [(64, 4), (256, 8), (64, 1)])
    def test_matches_monte_carlo(self, n, k):
        rng = np.random.default_rng(SEED)
        sups = np.concatenate([
            np.linalg.norm(np.partition(np.abs(rng.standard_normal((10_000, n))), n - k,
                                        axis=1)[:, n - k:], axis=1)
            for _ in range(10)])
        stderr = sups.std(ddof=1) / math.sqrt(sups.size)
        assert abs(gaussian_width(Canonical(k), n)["mean"] - sups.mean()) <= 4 * stderr

    def test_one_sparse_matches_brute_force(self):
        # E max_i |g_i| = int_0^inf 1 - (1 - Q(x))^N dx, on a fine midpoint grid.
        n = 16
        x = (np.arange(200_000) + 0.5) * 1e-4
        q = np.array([math.erfc(v / math.sqrt(2)) for v in x])
        brute = float(-np.expm1(n * np.log1p(-q)).sum() * 1e-4)
        assert gaussian_width(Canonical(1), n)["mean"] == pytest.approx(brute, rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 1024).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
    @example((1, 1))
    @example((1024, 1024))
    @example((1024, 1))
    def test_resolved_and_non_decreasing(self, nk):
        n, k = nk
        width = gaussian_width(Canonical(k), n)
        assert width["error"] <= 1e-6 * width["mean"]
        if k < n:
            assert gaussian_width(Canonical(k + 1), n)["mean"] >= width["mean"]
        assert gaussian_width(Canonical(k), n + 1)["mean"] >= width["mean"]

    def test_deterministic(self):
        assert gaussian_width(Canonical(2), 12) == gaussian_width(Canonical(2), 12)

    def test_unresolved_width_raises(self, monkeypatch):
        # The half-panel rule is 6e-9 of the width away at N = 64, k = 4.
        monkeypatch.setattr(rip, "_WIDTH_TOL", 1e-12)
        with pytest.raises(NumericalError, match="Gaussian width at k=4, N=64"):
            gaussian_width(Canonical(4), 64)

    def test_k_above_ambient_rejected_before_any_stream(self):
        with pytest.raises(ValueError, match="k=9 exceeds ambient dimension 8"):
            gaussian_width(Canonical(9), 8)

    def test_other_models_rejected_before_any_stream(self):
        with pytest.raises(TypeError, match="Canonical"):
            gaussian_width(LqCap(1.0, 2.0), 8)


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
