"""Tests for group actions, sampled ensembles, isotropy, and moment deviation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riplab.group_ops as go
from riplab.group_ops import (
    draw_elements,
    enumerate_group,
    isotropy_defect,
    monomial,
    rosenthal_deviation,
    sample_ensemble,
)
from riplab.instruments import (
    Instrument,
    make_decaying_window,
    make_flat,
    make_scaled_identity,
    make_schatten_decay,
)
from riplab.numerics import CapacityError, SeededRng, operator_norm

SEED = 90210


def _act(variant, n, row, x):
    """sigma(g) x for the one element with parameters ``row``."""
    return monomial(variant, n, [row]).apply(x)[0]


def _per_row_elements(variant: str, n: int, rng: SeededRng) -> list:
    """One element's parameters, drawn as separate calls in parameter order."""
    if variant == "signshift":
        return [*rng.rademacher(n).tolist(), int(rng.integers(0, n))]
    return rng.integers(0, n, 2 if variant == "shiftmod" else 4).tolist()


class TestShiftModAction:
    def test_identity_element(self):
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        np.testing.assert_array_equal(_act("shiftmod", 4, (0, 0), x), x)

    def test_two_point_shift(self):
        # cyclic shift moves entry l to entry l+1
        out = _act("shiftmod", 2, (0, 1), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [2.0, 1.0], atol=1e-15)

    def test_two_point_modulation(self):
        # modulation phases are indexed l = 1..N, so entry 0 flips sign
        out = _act("shiftmod", 2, (1, 0), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [-1.0, 2.0], atol=1e-14)

    def test_isometry(self):
        rng = SeededRng(SEED)
        x = rng.complex_normal(8)
        for row in draw_elements("shiftmod", 8, 20, rng):
            np.testing.assert_allclose(
                np.linalg.norm(_act("shiftmod", 8, row, x)), np.linalg.norm(x), rtol=1e-12
            )

    def test_composition_up_to_phase(self):
        # sigma(t1,k1) sigma(t2,k2) agrees with sigma(t1+t2, k1+k2) up to a
        # global unimodular phase, so matched inner products agree in modulus
        rng = SeededRng(SEED + 2)
        x = rng.complex_normal(8)
        y = rng.complex_normal(8)
        for _ in range(25):
            t1, k1, t2, k2 = rng.integers(0, 8, size=4)
            lhs = np.vdot(y, _act("shiftmod", 8, (t1, k1), _act("shiftmod", 8, (t2, k2), x)))
            rhs = np.vdot(y, _act("shiftmod", 8, (t1 + t2, k1 + k2), x))
            assert abs(abs(lhs) - abs(rhs)) <= 1e-10


class TestOtherActions:
    def test_signshift_order_of_operations(self):
        # signs first, then cyclic shift
        out = _act("signshift", 4, (1, -1, 1, -1, 1), np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out, [-4.0, 1.0, -2.0, 3.0], atol=1e-15)

    def test_signshift_signs_must_be_exactly_unit(self):
        # Float +/-1 signs are accepted and the shift is taken mod n.
        exact = monomial("signshift", 2, [[1, -1, 1]])
        loose = monomial("signshift", 2, np.array([[1.0, -1.0, 3.0]]))
        np.testing.assert_array_equal(loose.perm, exact.perm)
        np.testing.assert_array_equal(loose.phase, exact.phase)
        for bad in ((1.5, -1.0), (1, 0), (1, -2)):
            with pytest.raises(ValueError):
                monomial("signshift", 2, [[*bad, 0]])
        with pytest.raises(ValueError):
            monomial("signshift", 0, [[0]])

    def test_doubleqft_isometry(self):
        rng = SeededRng(SEED + 3)
        a = rng.complex_normal(9)
        for row in draw_elements("doubleqft", 3, 20, rng):
            out = _act("doubleqft", 3, row, a)
            np.testing.assert_allclose(
                np.linalg.norm(out), np.linalg.norm(a), rtol=1e-12
            )

    def test_doubleqft_accepts_flat_input(self):
        # The action on the row-major flattening is Mod^k Shift^j a
        # (Shift^j')^* Mod^(-k') on the matrix, and a matrix is rejected.
        a = SeededRng(SEED + 4).complex_normal((3, 3))
        k, j, kp, jp = 1, 2, 0, 1
        mod = np.exp(2j * np.pi * np.arange(1, 4) / 3)
        expected = mod[:, None] ** k * np.roll(np.roll(a, j, 0), jp, 1) * np.conj(mod) ** kp
        out = _act("doubleqft", 3, (k, j, kp, jp), a.ravel())
        np.testing.assert_allclose(out.reshape(3, 3), expected, atol=1e-14)
        with pytest.raises(ValueError):
            _act("doubleqft", 3, (k, j, kp, jp), a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _act("shiftmod", 4, (1, 1), np.ones(5))


class TestGroupEnumeration:
    def test_shiftmod_order(self):
        assert enumerate_group("shiftmod", 5).shape == (25, 2)

    def test_doubleqft_order(self):
        assert enumerate_group("doubleqft", 2).shape == (16, 4)

    def test_signshift_order(self):
        assert enumerate_group("signshift", 3).shape == (24, 4)

    @pytest.mark.parametrize("variant", ["shiftmod", "doubleqft", "signshift"])
    def test_rows_are_the_whole_group_in_lexicographic_order(self, variant):
        for n in range(1, 5):
            rows = enumerate_group(variant, n).tolist()
            order = {"shiftmod": n**2, "doubleqft": n**4, "signshift": 2**n * n}[variant]
            assert len(rows) == len({tuple(row) for row in rows}) == order
            assert rows == sorted(rows)
            # Every row is an element: signs are +/-1 and the rest lie in [0, n).
            signs = n if variant == "signshift" else 0
            assert all(abs(e) == 1 for row in rows for e in row[:signs])
            assert all(0 <= e < n for row in rows for e in row[signs:])

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((("shiftmod", 6), ("doubleqft", 3), ("signshift", 5))),
           st.data())
    def test_elements_are_distinct_monomials(self, variant_cap, data):
        variant, cap = variant_cap
        n = data.draw(st.integers(1, cap))
        order = {"shiftmod": n * n, "doubleqft": n ** 4, "signshift": 2 ** n * n}[variant]
        op = monomial(variant, n, enumerate_group(variant, n))
        phase = np.round(op.phase, 9) + 0.0  # + 0.0 folds -0.0 into 0.0
        distinct = {(p.tobytes(), f.tobytes()) for p, f in zip(op.perm, phase)}
        assert len(op.perm) == len(distinct) == order

    def test_exhaustive_second_moment_is_isotropic(self):
        # group-averaged |<sigma(g) eta, x>|^2 equals ||x||^2 exactly
        inst = make_decaying_window(6, 3, 0.3)
        rng = SeededRng(SEED + 5)
        x = rng.complex_normal(6)
        total = 0.0
        count = 0
        for row in enumerate_group("shiftmod", 6):
            total += abs(np.vdot(_act("shiftmod", 6, row, inst.payload), x)) ** 2
            count += 1
        np.testing.assert_allclose(total / count, np.linalg.norm(x) ** 2, rtol=1e-12)


class TestSampleEnsemble:
    def test_flat_rows_have_constant_modulus(self):
        ens = sample_ensemble(make_flat(4), "shiftmod", 2, "none", SeededRng(SEED))
        np.testing.assert_allclose(np.abs(ens.rows), 1.0 / math.sqrt(2), rtol=1e-12)

    def test_same_seed_is_bit_identical(self):
        a = sample_ensemble(make_flat(8), "shiftmod", 5, "random", SeededRng(SEED))
        b = sample_ensemble(make_flat(8), "shiftmod", 5, "random", SeededRng(SEED))
        np.testing.assert_array_equal(a.rows, b.rows)

    # The tests below replay each row's draws from a fresh SeededRng of the
    # same seed, which is all it takes to regenerate an ensemble.
    def test_replayed_draws_regenerate_rows(self):
        inst = make_decaying_window(6, 4, 0.3)
        ens = sample_ensemble(inst, "shiftmod", 7, "none", SeededRng(SEED + 6))
        replay = SeededRng(SEED + 6)
        for j in range(7):
            v = _act("shiftmod", 6, _per_row_elements("shiftmod", 6, replay), inst.payload)
            np.testing.assert_allclose(
                ens.rows[j], np.conj(v) / math.sqrt(7), atol=1e-14
            )

    def test_random_sign_shares_one_pattern(self):
        inst = make_decaying_window(6, 4, 0.3)
        ens = sample_ensemble(inst, "shiftmod", 9, "random", SeededRng(SEED + 7))
        replay = SeededRng(SEED + 7)
        eps = replay.rademacher(6).astype(float)
        for j in range(9):
            v = eps * _act("shiftmod", 6, _per_row_elements("shiftmod", 6, replay), inst.payload)
            np.testing.assert_allclose(ens.rows[j], np.conj(v) / 3.0, atol=1e-14)

    def test_absorbed_draws_fresh_pairs(self):
        inst = make_decaying_window(8, 5, 0.3)
        ens = sample_ensemble(inst, "shiftmod", 6, "absorbed", SeededRng(SEED + 8))
        replay = SeededRng(SEED + 8)
        for j in range(6):
            v = _act("shiftmod", 8, _per_row_elements("shiftmod", 8, replay), inst.payload)
            *eps, shift = _per_row_elements("signshift", 8, replay)
            v = np.roll(np.array(eps) * v, shift)
            np.testing.assert_allclose(
                ens.rows[j], np.conj(v) / math.sqrt(6), atol=1e-14
            )

    def test_absorbed_equals_sign_then_shift_exhaustively(self):
        # over the full (group element, sign pattern, shift) cube the absorbed
        # row set coincides with applying a sign-shift element on top
        inst = make_decaying_window(3, 2, 0.3)
        eta = inst.payload
        signshift = monomial("signshift", 3, enumerate_group("signshift", 3))
        direct = []
        via_group = []
        for t, k in itertools.product(range(3), repeat=2):
            v = _act("shiftmod", 3, (t, k), eta)
            for eps in itertools.product((-1, 1), repeat=3):
                for shift in range(3):
                    direct.append(np.roll(np.array(eps) * v, shift))
            via_group.append(signshift.apply(v).ravel())
        direct = sorted(np.round(np.concatenate(direct), 9).view(float).tolist())
        via_group = sorted(np.round(np.concatenate(via_group), 9).view(float).tolist())
        assert direct == via_group

    def test_absorbed_rejected_for_matrices(self):
        inst = make_scaled_identity(2)
        with pytest.raises(ValueError):
            sample_ensemble(inst, "doubleqft", 3, "absorbed", SeededRng(SEED))

    def test_unknown_sign_mode_rejected(self):
        with pytest.raises(ValueError, match="sign_mode"):
            sample_ensemble(make_flat(4), "shiftmod", 2, "rademacher", SeededRng(SEED))

    def test_variant_instrument_mismatch(self):
        with pytest.raises(ValueError):
            sample_ensemble(make_flat(4), "doubleqft", 2, "none", SeededRng(SEED))
        with pytest.raises(ValueError):
            sample_ensemble(make_scaled_identity(2), "shiftmod", 2, "none", SeededRng(SEED))


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

    @pytest.mark.parametrize("variant", ["shiftmod", "doubleqft", "signshift"])
    def test_equals_the_explicit_orbit_formula(self, variant):
        # The orbit Gram over the whole group, divided by |G|, minus a dense
        # identity, for a real and a complex instrument at every side up to
        # the cap.
        for n in range(1, go._ISOTROPY_CAPS[variant] + 1):
            if variant == "doubleqft":
                insts = [make_scaled_identity(n), make_schatten_decay(n, 0.25, SeededRng(n))]
            else:
                z = SeededRng(SEED + 26, n).complex_normal(n)
                insts = [make_decaying_window(n, max(1, n // 2), 0.25),
                         Instrument("random", z * math.sqrt(n) / np.linalg.norm(z))]
            for inst in insts:
                group = enumerate_group(variant, n)
                orbit = monomial(variant, n, group).apply(inst.payload.ravel())
                avg = orbit.T @ np.conj(orbit) / len(group)
                expected = operator_norm(avg - np.eye(inst.ambient_dim))
                assert isotropy_defect(inst, variant).hex() == expected.hex()


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

    def test_empty_m_list_rejected(self):
        with pytest.raises(ValueError, match="at least one M"):
            rosenthal_deviation(np.eye(8, dtype=complex), "shiftmod", [], 3, SeededRng(SEED))

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


# -- monomial form against dense references ----------------------------------


def _shift_matrix(n):
    # Cyclic shift built from basis vectors: e_l -> e_{l+1}.
    s = np.zeros((n, n))
    for l in range(n):
        s[(l + 1) % n, l] = 1.0
    return s


def _mod_matrix(n):
    # Modulation: e_l -> exp(2 pi i l / n) e_l for l = 1..n.
    return np.diag(np.exp(2j * np.pi * np.arange(1, n + 1) / n))


def _dense(variant, n, row):
    """The unitary of one group element, from the definitions alone."""
    power = np.linalg.matrix_power
    if variant == "shiftmod":
        t, k = row
        return power(_mod_matrix(n), t % n) @ power(_shift_matrix(n), k % n)
    if variant == "signshift":
        return power(_shift_matrix(n), row[n] % n) @ np.diag(row[:n])
    k, j, kp, jp = (int(p) % n for p in row)
    left = power(_mod_matrix(n), k) @ power(_shift_matrix(n), j)
    right = power(_shift_matrix(n), jp).T @ power(_mod_matrix(n).conj(), kp)
    # Row-major vec(L a R) = (L kron R^T) vec(a).
    return np.kron(left, right.T)


def _product(variant, n, r1, r2):
    """Parameters of an element whose action equals sigma(r1) sigma(r2) up
    to a phase."""
    if variant == "signshift":
        # diag(eps1) Shift^s2 = Shift^s2 diag(eps1 read s2 places ahead).
        return [*(np.roll(r1[:n], -r2[n]) * r2[:n]), r1[n] + r2[n]]
    return list(np.add(r1, r2))


_PARAM = st.integers(-20, 20)


@st.composite
def _group_batch(draw, min_size=1, max_size=5):
    """A variant, its side n, a (B, p) parameter array and an input."""
    variant = draw(st.sampled_from(("shiftmod", "signshift", "doubleqft")))
    n = draw(st.integers(1, 4 if variant == "doubleqft" else 9))
    size = draw(st.integers(min_size, max_size))
    rows = []
    for _ in range(size):
        if variant == "signshift":
            signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
            rows.append([*signs, draw(_PARAM)])
        else:
            rows.append([draw(_PARAM) for _ in range(2 if variant == "shiftmod" else 4)])
    dim = n * n if variant == "doubleqft" else n
    x = SeededRng(draw(st.integers(0, 2**16))).complex_normal(dim)
    return variant, n, np.array(rows), x


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestMonomialForm:
    @settings(max_examples=150)
    @given(_group_batch(max_size=1))
    def test_apply_matches_dense(self, case):
        variant, n, (row,), x = case
        dense = _dense(variant, n, row)
        op = monomial(variant, n, [row])
        np.testing.assert_allclose(op.apply(x)[0], dense @ x, atol=1e-12)
        # The same matrix, read off basis vectors through the monomial form.
        basis = np.eye(op.dim, dtype=complex)
        from_basis = np.stack([op.apply(e)[0] for e in basis], axis=1)
        np.testing.assert_allclose(from_basis, dense, atol=1e-12)

    @settings(max_examples=150)
    @given(_group_batch(max_size=1))
    def test_permutation_with_unit_phases_is_an_isometry(self, case):
        variant, n, params, x = case
        op = monomial(variant, n, params)
        assert sorted(op.perm[0]) == list(range(op.dim))
        np.testing.assert_allclose(np.abs(op.phase), 1.0, rtol=1e-14)
        y = op.apply(x)[0]
        np.testing.assert_allclose(np.linalg.norm(y), np.linalg.norm(x), rtol=1e-12)

    @settings(max_examples=150)
    @given(_group_batch(min_size=2, max_size=2))
    def test_composition_up_to_phase(self, case):
        variant, n, (r1, r2), x = case
        r12 = _product(variant, n, r1, r2)
        composed = _act(variant, n, r1, _act(variant, n, r2, x))
        direct = _act(variant, n, r12, x)
        dense_ratio = (_dense(variant, n, r1) @ _dense(variant, n, r2)) @ np.linalg.inv(
            _dense(variant, n, r12))
        phase = dense_ratio[0, 0]
        np.testing.assert_allclose(dense_ratio, phase * np.eye(len(x)), atol=1e-12)
        assert abs(abs(phase) - 1.0) <= 1e-12
        np.testing.assert_allclose(composed, phase * direct, atol=1e-12)

    @settings(max_examples=150)
    @given(_group_batch(max_size=6))
    def test_batch_rows_equal_single_element_calls(self, case):
        variant, n, params, x = case
        batch = monomial(variant, n, params)
        block = SeededRng(len(params)).complex_normal((len(params), batch.dim))
        orbit, mapped = batch.apply(x), batch.apply(block)
        for b, row in enumerate(params):
            single = monomial(variant, n, [row])
            np.testing.assert_array_equal(_bits(orbit[b]), _bits(single.apply(x)[0]))
            np.testing.assert_array_equal(_bits(mapped[b]), _bits(single.apply(block[b])[0]))

    def test_mixed_or_empty_batches_rejected(self):
        bad_batches = [
            ("shiftmod", 4, np.empty((0, 2), dtype=int)),  # empty
            ("shiftmod", 4, [1, 1]),  # not a (B, p) array
            ("shiftmod", 4, [[1, 1, 1, 1, 0]]),  # a signshift row
            ("signshift", 4, [[1, 1, 1, 1, 1, 0]]),  # a signshift row over side 5
            ("shiftmod", 4, [[0.5, 1]]),  # not an integer
            ("shiftmod", 0, [[0, 0]]),  # no side
            ("rotation", 4, [[1, 1]]),  # no such group
        ]
        for variant, n, params in bad_batches:
            with pytest.raises(ValueError):
                monomial(variant, n, params)
        with pytest.raises(ValueError):  # rows of two groups do not form an array
            monomial("shiftmod", 4, [[1, 1], [1, 1, 1, 1, 0]])
        with pytest.raises(ValueError):
            monomial("shiftmod", 4, [[1, 1]]).apply(np.ones(5))


def _old_rows(inst, variant, m, mode, rng):
    """Vector-instrument ensemble rows as the per-row np.roll formula built them."""
    eta = inst.payload
    n = dim = eta.size
    shared = rng.rademacher(dim) if mode == "random" else None
    rows = np.empty((m, dim), dtype=complex)
    for j in range(m):
        if variant == "shiftmod":
            t, k = rng.integers(0, n, 2)
            v = np.roll(eta, int(k)) * np.exp(2j * np.pi * int(t) * np.arange(1, n + 1) / n)
        else:
            signs = rng.rademacher(n)
            v = np.roll(signs * eta, int(rng.integers(0, n)))
        if mode == "random":
            v = shared * v
        elif mode == "absorbed":
            eps = rng.rademacher(dim)
            v = np.roll(eps * v, int(rng.integers(0, dim)))
        rows[j] = np.conj(v)
    rows /= math.sqrt(m)
    return rows


class TestBatchedDraws:
    """One integers call with per-column bounds draws what the per-row calls
    drew and leaves the stream where they left it."""

    @settings(max_examples=60)
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**16))
    def test_signshift_elements_equal_per_row_draws(self, n, m, seed):
        rng, ref = SeededRng(seed), SeededRng(seed)
        got = draw_elements("signshift", n, m, rng)
        assert got.tolist() == [_per_row_elements("signshift", n, ref) for _ in range(m)]
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    @settings(max_examples=80)
    @given(st.sampled_from(("shiftmod", "signshift", "doubleqft")),
           st.sampled_from(("none", "random", "absorbed")),
           st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**16))
    def test_ensemble_draws_equal_per_row_draws(self, variant, mode, n, m, seed):
        matrix = variant == "doubleqft"
        if matrix and mode == "absorbed":
            mode = "none"  # absorbed signs are for vector instruments only
        z = SeededRng(seed, 1).complex_normal((n, n) if matrix else n)
        inst = Instrument("random", z * math.sqrt(z.size) / np.linalg.norm(z))
        dim = z.size
        rng, ref = SeededRng(seed), SeededRng(seed)
        rows = sample_ensemble(inst, variant, m, mode, rng).rows
        shared = ref.rademacher(dim) if mode == "random" else None
        expected = np.empty((m, dim), dtype=complex)
        for j in range(m):
            v = _act(variant, n, _per_row_elements(variant, n, ref), inst.payload.ravel())
            if mode == "random":
                v = shared * v
            elif mode == "absorbed":
                v = _act("signshift", dim, _per_row_elements("signshift", dim, ref), v)
            expected[j] = np.conj(v) / math.sqrt(m)
        np.testing.assert_array_equal(rows, expected)
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


class TestEnsembleRowsBitIdentical:
    @settings(max_examples=120)
    @given(
        st.sampled_from(("shiftmod", "signshift")),
        st.sampled_from(("none", "random", "absorbed")),
        st.integers(1, 300),
        st.integers(1, 24),
        st.integers(0, 2**16),
    )
    def test_rows_equal_the_roll_formula(self, variant, mode, n, m, seed):
        z = SeededRng(seed, 1).complex_normal(n)
        inst = Instrument("random", z * math.sqrt(n) / np.linalg.norm(z))
        ens = sample_ensemble(inst, variant, m, mode, SeededRng(seed))
        expected = _old_rows(inst, variant, m, mode, SeededRng(seed))
        np.testing.assert_array_equal(ens.rows, expected)
        np.testing.assert_array_equal(_bits(ens.rows), _bits(expected))

    @settings(max_examples=60)
    @given(
        st.sampled_from(("none", "random")),
        st.integers(1, 12),
        st.integers(1, 24),
        st.integers(0, 2**16),
    )
    def test_doubleqft_rows_equal_the_matrix_formula(self, mode, n, m, seed):
        # Row j is conj(mod^k . roll(roll(a, j, 0), jp, 1) . conj(mod^kp)),
        # with the diagonal phases multiplied together before they meet a.
        z = SeededRng(seed, 1).complex_normal((n, n))
        inst = Instrument("random", z * n / np.linalg.norm(z))
        ens = sample_ensemble(inst, "doubleqft", m, mode, SeededRng(seed))
        rng = SeededRng(seed)
        shared = rng.rademacher(n * n) if mode == "random" else None
        expected = np.empty((m, n * n), dtype=complex)
        for row in range(m):
            k, j, kp, jp = rng.integers(0, n, 4)
            mod_k = np.exp(2j * np.pi * int(k) * np.arange(1, n + 1) / n)
            mod_kp = np.exp(2j * np.pi * int(kp) * np.arange(1, n + 1) / n)
            rolled = np.roll(np.roll(inst.payload, int(j), 0), int(jp), 1)
            v = (rolled * (mod_k[:, None] * np.conj(mod_kp)[None, :])).ravel()
            if mode == "random":
                v = shared * v
            expected[row] = np.conj(v)
        expected /= math.sqrt(m)
        np.testing.assert_array_equal(_bits(ens.rows), _bits(expected))


_PREFIX_M_LISTS = st.lists(st.integers(1, 24), min_size=1, max_size=5)


class TestEnsemblePrefixes:
    """The ensembles of one many-m draw equal single-m draws from a fresh
    SeededRng of the same seed, bit for bit, whatever the order of m_list."""

    @settings(max_examples=150)
    @given(st.sampled_from(("shiftmod", "signshift", "doubleqft")),
           st.sampled_from(("none", "random", "absorbed")),
           st.sampled_from(("decaying", "scaled-identity", "schatten-decay")),
           st.sampled_from((1, 2, 3, 5, 12, 24, 37)), _PREFIX_M_LISTS, st.integers(0, 2**32 - 1))
    def test_each_ensemble_equals_its_single_m_draw(self, variant, mode, eta, n, m_list, seed):
        matrix = variant == "doubleqft"
        if matrix:
            n = min(n, 6)
            mode = "none" if mode == "absorbed" else mode
            eta = "schatten-decay" if eta == "decaying" else eta
        else:
            eta = "decaying"

        def build(rng):
            # schatten-decay draws its frames from the ensemble's stream first.
            if eta == "schatten-decay":
                return make_schatten_decay(n, 0.25, rng)
            if eta == "scaled-identity":
                return make_scaled_identity(n)
            return make_decaying_window(n, max(1, n // 2), 0.25)

        rng = SeededRng(seed)
        ensembles = list(go.sample_ensembles(build(rng), variant, m_list, mode, rng))
        assert len(ensembles) == len(m_list)
        for m, ens in zip(m_list, ensembles):
            fresh = SeededRng(seed)
            single = sample_ensemble(build(fresh), variant, m, mode, fresh)
            assert ens.rows.shape == single.rows.shape
            assert (_bits(ens.rows) == _bits(single.rows)).all()

    @settings(max_examples=60)
    @given(st.sampled_from((1, 3, 12, 24, 64)), _PREFIX_M_LISTS, st.integers(0, 2**32 - 1))
    def test_gaussian_ensembles_equal_single_m_draws(self, dim, m_list, seed):
        ensembles = list(go.gaussian_ensembles(dim, m_list, SeededRng(seed)))
        assert len(ensembles) == len(m_list)
        for m, ens in zip(m_list, ensembles):
            single = go.gaussian_ensemble(dim, m, SeededRng(seed))
            assert ens.rows.shape == single.rows.shape
            assert (_bits(ens.rows) == _bits(single.rows)).all()

    # The prefixes rest on numpy drawing per-column bounded integers one after
    # another.  A bound just above 2^31 rejects about half of its 32-bit
    # Lemire draws, and each rejection consumes one more word of the stream.
    @settings(max_examples=60)
    @given(st.lists(st.sampled_from((2, 3, 12, 24, 2**31 + 1, 2**32 - 5)), min_size=1,
                    max_size=6),
           st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_bounded_draws_fill_in_order(self, bounds, m, extra, seed):
        whole = SeededRng(seed).integers(0, bounds, (m + extra, len(bounds)))
        part = SeededRng(seed).integers(0, bounds, (m, len(bounds)))
        assert part.tobytes() == whole[:m].tobytes()

    def test_checks_run_at_the_call(self):
        inst = make_flat(4)
        with pytest.raises(ValueError, match="at least one m"):
            go.sample_ensembles(inst, "shiftmod", [], "none", SeededRng(SEED))
        with pytest.raises(ValueError, match="m must be >= 1"):
            go.sample_ensembles(inst, "shiftmod", [3, 0], "none", SeededRng(SEED))
        with pytest.raises(ValueError, match="sign_mode"):
            go.sample_ensembles(inst, "shiftmod", [3], "rademacher", SeededRng(SEED))
        with pytest.raises(ValueError):
            go.gaussian_ensembles(4, [2, 0], SeededRng(SEED))


def _reference_deviations(u, variant, m_list, trials, rng):
    """Moment deviations from an explicit sum of S W S^* over dense unitaries,
    W = u^* u.  Trial t replays its one draw of max(m_list) elements from
    stream t, element by element, and M averages the first M of them."""
    n = u.shape[1]
    side = math.isqrt(n) if variant == "doubleqft" else n
    w = u.conj().T @ u
    out = [[] for _ in m_list]
    for trial in range(trials):
        stream = rng.stream(trial)
        rows = [_per_row_elements(variant, side, stream) for _ in range(max(m_list))]
        dense = [_dense(variant, side, row) for row in rows]
        for devs, m in zip(out, m_list):
            total = sum(s @ w @ s.conj().T for s in dense[:m])
            devs.append(np.linalg.norm(total / m - np.eye(n), 2))
    return out


# Scan budgets: None keeps the defaults, an int sets the Gram block's
# entries, and a (block, run) pair also sets the entries of the monomial built
# for a run of blocks.  (1, 20) gives runs of 3 elements at N = 6, 4 at N = 5
# and 2 at N = 9, and (40, 120) runs of 12 to 24 elements: run boundaries fall
# inside the M and, for (1, 20), at the end of M = 3 or M = 40.
_BUDGETS = [None, 1, 40, pytest.param((1, 20), id="1-run20"),
            pytest.param((40, 120), id="40-run120")]


def _set_budgets(monkeypatch, budgets):
    if budgets is None:
        return
    block, run = budgets if isinstance(budgets, tuple) else (budgets, None)
    monkeypatch.setattr(go, "_GRAM_CHUNK_ENTRIES", block)
    if run is not None:
        monkeypatch.setattr(go, "_MONOMIAL_RUN_ENTRIES", run)


class TestRosenthalDenseReference:
    @pytest.mark.parametrize("chunk_entries", _BUDGETS)
    @pytest.mark.parametrize("variant,n", [("shiftmod", 6), ("signshift", 5), ("doubleqft", 9)])
    def test_matches_explicit_conjugation_sum(self, variant, n, chunk_entries, monkeypatch):
        _set_budgets(monkeypatch, chunk_entries)
        m_list = [3, 17, 1, 3]
        for d in range(1, n + 1):
            u = SeededRng(SEED + 30, d).complex_normal((d, n))
            u *= math.sqrt(n) / np.linalg.norm(u)
            records = rosenthal_deviation(u, variant, m_list, 2, SeededRng(SEED + 31, d))
            expected = _reference_deviations(u, variant, m_list, 2, SeededRng(SEED + 31, d))
            assert [rec["M"] for rec in records] == m_list
            for rec, devs in zip(records, expected):
                np.testing.assert_allclose(rec["deviations"], devs, rtol=0, atol=1e-12)


class TestRosenthalPrefixes:
    """Every M of one scan reads a prefix of each trial's one draw, bit for
    bit what a scan of that M alone gives."""

    @settings(max_examples=60)
    @given(st.sampled_from(("shiftmod", "signshift", "doubleqft")), st.integers(1, 12),
           st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_draws_are_prefixes_of_larger_draws(self, variant, n, m, extra, seed):
        whole = draw_elements(variant, n, m + extra, SeededRng(seed))
        part = draw_elements(variant, n, m, SeededRng(seed))
        assert part.tobytes() == whole[:m].tobytes()

    @pytest.mark.parametrize("chunk_entries", _BUDGETS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("variant,n", [("shiftmod", 6), ("signshift", 5), ("doubleqft", 9)])
    def test_records_equal_single_m_runs(self, variant, n, d, chunk_entries, monkeypatch):
        # 40 entries put block boundaries inside and at the ends of the M.
        _set_budgets(monkeypatch, chunk_entries)
        u = SeededRng(SEED + 32, d).complex_normal((d, n))
        u *= math.sqrt(n) / np.linalg.norm(u)
        m_list = [17, 1, 3, 17, 40]
        records = rosenthal_deviation(u, variant, m_list, 3, SeededRng(SEED + 33))
        assert [rec["M"] for rec in records] == m_list
        for rec in records:
            (single,) = rosenthal_deviation(u, variant, [rec["M"]], 3, SeededRng(SEED + 33))
            hexes = [[v.hex() for v in r["deviations"]] + [r["median"].hex(), r["mean"].hex()]
                     for r in (rec, single)]
            assert hexes[0] == hexes[1]

    @pytest.mark.parametrize("variant,n,d", [("shiftmod", 32, 4), ("signshift", 32, 4),
                                             ("doubleqft", 16, 4), ("shiftmod", 8, 1)])
    def test_monomials_stay_within_the_run_budget(self, variant, n, d, monkeypatch):
        built = []

        def recording(*args):
            g = monomial(*args)
            built.append(g.perm.size)
            return g

        monkeypatch.setattr(go, "monomial", recording)
        u = np.zeros((d, n), dtype=complex)
        u[np.arange(d), np.arange(d)] = math.sqrt(n / d)
        m_list = [1, 700, 5000]
        records = rosenthal_deviation(u, variant, m_list, 2, SeededRng(SEED + 34))
        assert [rec["M"] for rec in records] == m_list
        assert max(built) <= go._MONOMIAL_RUN_ENTRIES
        # Every element of each trial's draw is built once.
        assert sum(built) == 2 * max(m_list) * n
