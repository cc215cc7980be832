"""Acceptance suite: fifteen quantitative gates, one verdict line each.

Every test prints ``AC## PASS/FAIL: <measured summary>`` before asserting,
so a red gate still reports its numbers (run ``pytest -s`` to see the lines
for passing gates too; failures show them in the captured-output section).

Two gates encode documented rate claims that desk-scale measurement misses
and are expected red rather than weakened: criterion 5's first clause (the
q' = 1/alpha optimum is asymptotic in the window length; at N = 256 the
cubic prefactor dominates) and criterion 9 (the quadratic-deviation
measurement count at delta = 0.5 undercounts by the 2*eps + eps^2
norm-to-quadratic conversion; exact enumeration confirms the true constant
exceeds the gate at the predicted m). Their docstrings carry the measured
evidence.
"""

import math

import numpy as np
from scipy.integrate import quad

from riplab import group_ops as go
from riplab import rip
from riplab import sparsity as sp
from riplab.infdim import (
    FourierFunction,
    block_measure,
    covering_dyadic_level,
    differentiate,
    dyadic_measure,
    evaluate,
    from_bumps,
    lq_norm_function,
    make_block_instrument,
    rip_experiment,
    smooth_sparse_membership,
    time_sample_measure,
    truncation_level,
    weighted_seminorm,
)
from riplab.instruments import (
    make_decaying_window,
    make_flat,
    make_scaled_identity,
    make_schatten_decay,
)
from riplab.numerics import SeededRng
from riplab.sparsity import optimize_sparsity_parameter, sparsity_parameter_value


def _verdict(num: int, ok: bool, msg: str) -> bool:
    print(f"AC{num:02d} {'PASS' if ok else 'FAIL'}: {msg}")
    return ok


# -- independent quadrature oracle for the bump profile -----------------------

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


PHI_LP = {1.0: _profile_lp(1.0), 2.0: _profile_lp(2.0), 4.0: _profile_lp(4.0)}
DPHI_L2 = math.sqrt(quad(lambda x: _profile_deriv(x) ** 2, -0.5, 0.5,
                         limit=200, epsabs=1e-13, epsrel=1e-13)[0])
# Fraction of the bump interval where the profile clears a 1e-8 relative
# threshold; support estimates undercount by exactly this deterministic factor.
SUPPORT_VISIBLE = 0.97386


def _random_poly(rng, n_big: int, dc_free: bool = False) -> FourierFunction:
    coeffs = rng.uniform(-1.0, 1.0, 2 * n_big) + 1j * rng.uniform(-1.0, 1.0, 2 * n_big)
    if dc_free:
        coeffs[n_big] = 0.0
    return FourierFunction(coeffs, n_big)


def _octave_tails(g: FourierFunction):
    """(max-over-t, mean-over-t) cumulative tail energies per cutoff level."""
    cover = covering_dyadic_level(g.n_big)
    m = 4 * g.n_big
    ts = np.arange(m) / m
    per_level = np.array(
        [np.abs(dyadic_measure(g, ts, l)) ** 2 for l in range(cover + 1)]
    )
    tails = np.cumsum(per_level[::-1], axis=0)[::-1]
    tails = np.vstack([tails[1:], np.zeros((1, m))])
    return tails.max(axis=1), tails.mean(axis=1)


class TestAcceptance:
    def test_criterion_01_isotropy_exactness(self):
        worst = 0.0
        for n in (4, 8, 16):
            for inst in (make_flat(n), make_decaying_window(n, n // 2, 0.25)):
                worst = max(worst, go.isotropy_defect(inst, "shiftmod"))
        rng = SeededRng(11)
        for n in (2, 3):
            for inst in (make_scaled_identity(n), make_schatten_decay(n, 0.25, rng)):
                worst = max(worst, go.isotropy_defect(inst, "doubleqft"))
        assert _verdict(1, worst <= 1e-12,
                        f"worst isotropy defect {worst:.2e} over 10 instruments")

    def test_criterion_02_unit_modulus_rows(self):
        worst = 0.0
        for seed in range(20):
            for m in (1, 3, 7, 12):
                ens = go.sample_ensemble(make_flat(16), "shiftmod", m, "none",
                                         SeededRng(seed))
                worst = max(worst, rip.exact_rip_canonical(ens, 1).delta_hat)
        assert _verdict(2, worst <= 1e-12,
                        f"worst k=1 defect {worst:.2e} over 20 seeds x 4 sizes")

    def test_criterion_03_oracle_equivalence(self):
        worst = 0.0
        exhaustive = True
        for seed in range(10):
            ens = go.gaussian_ensemble(12, 6, SeededRng(seed))
            emp = rip.empirical_rip(ens, sp.Canonical(2), 66, rng=SeededRng(seed, 1))
            ex = rip.exact_rip_canonical(ens, 2)
            exhaustive = exhaustive and emp.side == "exact"
            worst = max(worst, abs(emp.delta_hat - ex.delta_hat))
        assert _verdict(3, exhaustive and worst <= 1e-10,
                        f"exhaustive sampling matched enumeration to {worst:.2e}")

    def test_criterion_04_rip_scaling_trend(self):
        inst = make_decaying_window(256, 64, 0.25)
        ms = (32, 64, 128, 256)
        med = {}
        for k in (2, 4, 8):
            for m in ms:
                vals = []
                for seed in range(20):
                    ens = go.sample_ensemble(inst, "shiftmod", m, "none",
                                             SeededRng(seed))
                    rep = rip.empirical_rip(ens, sp.Canonical(k), 200,
                                            rng=SeededRng(seed, 1))
                    vals.append(rep.delta_hat)
                med[(k, m)] = float(np.median(vals))
        decreasing = all(
            med[(k, ms[i])] > med[(k, ms[i + 1])]
            for k in (2, 4, 8) for i in range(len(ms) - 1)
        )

        def first_m(k):
            for m in ms:
                if med[(k, m)] <= 0.5:
                    return m
            return 1 << 30

        stars = [first_m(k) for k in (2, 4, 8)]
        ok = decreasing and stars == sorted(stars)
        summary = "; ".join(
            f"k={k}: " + ",".join(f"{med[(k, m)]:.3f}" for m in ms)
            for k in (2, 4, 8)
        )
        assert _verdict(4, ok, f"medians {summary}; m* per k {stars}")

    def test_criterion_05_sparsity_optimizer_consistency(self):
        """First clause is expected red: the q' = 1/alpha rule is asymptotic
        in the window length. At N=256, N_eta=64, r=8 the exact objective
        gives f(4) = 6912.2 against min(f(2.5), f(64)) = 2745.7, a structural
        factor 2.5 that no rescaling of the window removes (the ratio is
        scale-invariant and grows with r); the window's exact minimizer is the
        endpoint q' = 2, with value 2048 = 8 N. The second clause compares the
        exact minimum of the flat instrument (1981.9 at q' = 2.3105) with the
        proxy f(1 + ln N), so it holds whenever the minimizer is exact."""
        inst = make_decaying_window(256, 64, 0.25)
        f40 = sparsity_parameter_value(inst, 8.0, 4.0)
        f25 = sparsity_parameter_value(inst, 8.0, 2.5)
        f64 = sparsity_parameter_value(inst, 8.0, 64.0)
        clause1 = f40 <= min(f25, f64)
        flat = make_flat(256)
        opt = optimize_sparsity_parameter(flat, 8.0)
        proxy = sparsity_parameter_value(flat, 8.0, 1.0 + math.log(256))
        clause2 = opt.value <= proxy
        assert _verdict(
            5, clause1 and clause2,
            f"f(4)={f40:.1f} vs min(f(2.5),f(64))={min(f25, f64):.1f} "
            f"(claimed optimum {'holds' if clause1 else 'fails'}); "
            f"flat minimizer {opt.value:.1f} <= proxy {proxy:.1f}: {clause2}")

    def test_criterion_06_distance_preservation(self):
        ens = go.gaussian_ensemble(64, 256, SeededRng(20260816))
        delta, levels = rip.calibrate_mrip_distortion(ens, 1.0, 2.0, 50, 50,
                                                      SeededRng(20260816, 1))
        assert 0.0 < delta < 1.0
        assert levels
        pair_rng = SeededRng(20260816, 2)
        fails = 0
        for i in range(1000):
            stream = pair_rng.stream(i)
            x, y = sp.sample_sparse(sp.LqCap(1.0, 2.0), 64, 2, stream)
            rep = rip.distance_bound_check(ens, x, y, 2.0, delta, 1.0)
            if not rep["passed"] or (rep["refined_applies"]
                                     and not rep["refined_passed"]):
                fails += 1
        assert _verdict(6, fails == 0,
                        f"calibrated delta {delta:.4f}; {fails}/1000 pair "
                        "bound violations")

    def test_criterion_07_separation_classification(self):
        ens = go.gaussian_ensemble(64, 256, SeededRng(20260816))
        delta, _ = rip.calibrate_mrip_distortion(ens, 1.0, 2.0, 50, 50,
                                                 SeededRng(20260816, 1))
        pair_rng = SeededRng(20260816, 2)
        separated = close = violations = 0
        for i in range(1000):
            stream = pair_rng.stream(10_000 + i)
            x, y = sp.sample_sparse(sp.LqCap(1.0, 2.0), 64, 2, stream)
            x = x / np.linalg.norm(x)
            if i % 2 == 0:
                y = y / np.linalg.norm(y)
            else:
                y = -x
            verdict = rip.classify_separation(ens, x, y, delta)
            true_sq = float(np.linalg.norm(x - y) ** 2)
            if isinstance(verdict, rip.Separated):
                separated += 1
                if not (verdict.lower <= true_sq <= verdict.upper):
                    violations += 1
            else:
                close += 1
                if math.sqrt(true_sq) > verdict.radius + 1e-12:
                    violations += 1
        ok = violations == 0 and separated + close == 1000
        assert _verdict(7, ok,
                        f"{separated} separated / {close} close, "
                        f"{violations} violations")

    def test_criterion_08_rosenthal_rate(self):
        u = np.zeros((4, 32), dtype=complex)
        for i in range(4):
            u[i, 8 * i] = 1.0
        u *= math.sqrt(32 / 4)
        sizes = [64, 256, 1024]
        res = go.rosenthal_deviation(u, "shiftmod", sizes, 50, SeededRng(314))
        meds = [r["median"] for r in res]
        slope = float(np.polyfit(np.log(sizes), np.log(meds), 1)[0])
        assert _verdict(8, -0.65 <= slope <= -0.35,
                        f"medians {[round(v, 4) for v in meds]}, "
                        f"log-log slope {slope:.3f} (gate [-0.65, -0.35])")

    def test_criterion_09_gordon_measurement_count(self):
        """Expected red: the count formula is stated for the quadratic
        deviation with coefficient 1, but the mesh argument controls the norm
        deviation; converting costs 2*eps + eps^2 (~4.6x in m at delta=0.5).
        Exact enumeration over all C(64,4) supports at the predicted m=191
        gives true deltas 0.49-0.82 (median 0.60) and meets the target on
        only 1 of the 100 draws, so the gate genuinely fails at the predicted
        m. The sampled-support estimator reports a median 0.73 of the true
        value (draws 0 and 1: 0.47 and 0.46 against 0.59 and 0.62); that
        underestimate keeps the observed rate near 84/100 against the 85
        gate. The norm-deviation reading passes with the same data (implied
        norm deviations 0.24-0.35, all below 0.5). The width, 4.446319, is a
        quadrature and draws nothing."""
        seed = 20260816
        width = rip.gaussian_width(sp.Canonical(4), 64)
        m = rip.gordon_m(width["mean"], 0.5, 0.1)
        successes = 0
        for draw in range(100):
            ens = go.gaussian_ensemble(64, m, SeededRng(seed, 9000 + draw))
            rep = rip.empirical_rip(ens, sp.Canonical(4), 200,
                                    rng=SeededRng(seed, 9500 + draw))
            successes += rep.delta_hat <= 0.5
        assert _verdict(9, successes >= 85,
                        f"width {width['mean']:.6f}, m={m}, delta_hat <= 0.5 "
                        f"in {successes}/100 draws (gate 85)")

    def test_criterion_10_tensor_count_ratios(self):
        ok = True
        parts = []
        for s, n, d in ((2, 3, 4), (1, 1, 1), (3, 5, 2), (2, 2, 3)):
            counts = rip.table1_counts(s, n, d)
            ok = ok and counts["gauss"] == s * n * d
            ok = ok and counts["group"] == counts["gauss"] * n * d
            ok = ok and counts["group_sign"] == counts["gauss"] * d * d
            parts.append(f"({s},{n},{d})->{counts['gauss']}/{counts['group']}"
                         f"/{counts['group_sign']}")
        assert _verdict(10, ok, "group/gauss = n*d and sign/gauss = d^2 exact: "
                        + ", ".join(parts))

    def test_criterion_11_bump_identities(self):
        rng = SeededRng(90210)
        worst_norm = worst_rho = 0.0
        support_ok = 0
        for cfg in range(20):
            stream = rng.stream(cfg)
            t_scale = float([8.0, 16.0, 32.0][int(stream.integers(0, 3))])
            count = int([1, 2, 4][int(stream.integers(0, 3))])
            while True:
                centers = np.sort(stream.uniform(0.0, 1.0, count))
                if count == 1:
                    break
                gaps = np.diff(np.concatenate([centers, [centers[0] + 1.0]]))
                if gaps.min() > 1.2 / t_scale:
                    break
            amps = (stream.uniform(0.5, 2.0, count)
                    * np.exp(2j * np.pi * stream.uniform(0.0, 1.0, count)))
            f = from_bumps(t_scale, centers, amps, int(64 * t_scale))
            for p, phi_p in PHI_LP.items():
                target = (phi_p * t_scale ** (1.0 - 1.0 / p)
                          * float(np.sum(np.abs(amps) ** p)) ** (1.0 / p))
                worst_norm = max(worst_norm,
                                 abs(lq_norm_function(f, p) - target) / target)
            target_rho = t_scale * DPHI_L2 / PHI_LP[2.0]
            measured_rho = (2.0 * math.pi * differentiate(f).l2_norm()
                            / f.l2_norm())
            worst_rho = max(worst_rho,
                            abs(measured_rho - target_rho) / target_rho)
            # Support fraction needs the wider carrier band to resolve the
            # 1e-8 threshold crossing.
            n_supp = int(128 * t_scale)
            fs = from_bumps(t_scale, centers, amps, n_supp)
            rep = smooth_sparse_membership(fs, 2.0 * target_rho, 1.0)
            cell = 1.0 / (8.0 * n_supp)
            lo = SUPPORT_VISIBLE * count / t_scale - count * cell
            hi = count / t_scale + count * cell
            support_ok += lo <= rep["measured_gamma"] <= hi
        ok = worst_norm <= 1e-6 and worst_rho <= 1e-6 and support_ok == 20
        assert _verdict(11, ok,
                        f"support fraction in window {support_ok}/20; worst "
                        f"L_p error {worst_norm:.2e}; worst smoothness-ratio "
                        f"error {worst_rho:.2e}")

    def test_criterion_12_time_sampling_identity(self):
        rng = SeededRng(61001)
        worst = 0.0
        for i in range(100):
            stream = rng.stream(i)
            g = _random_poly(stream, 256, dc_free=True)
            scale = g.l2_norm()
            for t in stream.uniform(0.0, 1.0, 3):
                err = abs(time_sample_measure(g, float(t))
                          - evaluate(g, float(t))) / scale
                worst = max(worst, err)
        assert _verdict(12, worst <= 1e-10,
                        f"worst sample-vs-evaluation error {worst:.2e} over "
                        "100 polynomials x 3 points")

    def test_criterion_13_block_scheme_unbiasedness(self):
        rng = SeededRng(61002)
        f = _random_poly(rng, 256)
        ts = np.arange(4 * f.n_big) / (4 * f.n_big)
        target = weighted_seminorm(f, 64) ** 2
        worst = 0.0
        for block_len in (1, 4, 8):
            for mode in ("deterministic", "rademacher"):
                inst = (make_block_instrument(64, block_len)
                        if mode == "deterministic"
                        else make_block_instrument(64, block_len, mode,
                                                   rng.stream(block_len)))
                vals = block_measure(f, inst, ts)
                mean_energy = float(np.mean(np.sum(np.abs(vals) ** 2, axis=1)))
                worst = max(worst, abs(mean_energy - target) / target)
        assert _verdict(13, worst <= 1e-10,
                        f"worst grid-average energy error {worst:.2e} over "
                        "L in {1,4,8} x 2 modes")

    def test_criterion_14_dyadic_truncation(self):
        rng = SeededRng(61003)

        def draw_pair(stream, n_big=512):
            c = float(stream.uniform(0.0, 1.0))
            a = complex(np.exp(2j * np.pi * float(stream.uniform(0.0, 1.0))))
            f = from_bumps(8.0, [c], [a], n_big)
            coeffs = f.coeffs.copy()
            coeffs[n_big] = 0.0
            f = FourierFunction(coeffs, n_big)
            return f, differentiate(f, "antiderivative")

        c2 = 0.0
        for i in range(5):
            f, g = draw_pair(rng.stream(i))
            max_tail, _ = _octave_tails(f)
            energy = g.l2_norm() ** 2
            for level in range(1, 8):
                c2 = max(c2, max_tail[level] * 2.0 ** level / energy)
        # Budget placed between octaves so the returned level sits mid-band.
        delta = 0.1875 * c2
        l0 = truncation_level(2.0, 1.0, delta, c2)
        cover = covering_dyadic_level(512)
        level_ok = 1 <= l0 < cover
        fresh_ok = 0
        for i in range(5, 15):
            f, g = draw_pair(rng.stream(i))
            max_tail, _ = _octave_tails(f)
            fresh_ok += max_tail[l0] <= delta / 2.0 * g.l2_norm() ** 2
        f, _ = draw_pair(rng.stream(99))
        _, mean_tail = _octave_tails(f)
        floor = 1e-18 * f.l2_norm() ** 2
        envelope_ok = True
        for level in range(2, len(mean_tail)):
            if mean_tail[level] < floor:
                break
            envelope = mean_tail[2] * 0.5 ** (level - 2)
            envelope_ok = envelope_ok and mean_tail[level] <= 4.0 * envelope
        ok = level_ok and fresh_ok == 10 and envelope_ok
        assert _verdict(14, ok,
                        f"C2={c2:.1f}, l0={l0} (covering {cover}), fresh tails "
                        f"within budget {fresh_ok}/10, geometric envelope "
                        f"within factor 4: {envelope_ok}")

    def test_criterion_15_infinite_dimensional_scan(self):
        # The energy ignores a bump's centre, which only shifts the uniform
        # translates, and its global phase, so one fixed bump stands for all.
        bump16 = from_bumps(16.0, [0.0], [1.0], 256)
        det_inst = make_block_instrument(64, 4)
        medians = []
        for m in (16, 64, 256):
            devs = rip_experiment(bump16, [det_inst], [m], 20, SeededRng(555)).deviations
            medians.append(float(np.median(devs[0, 0])))
        decreasing = medians[0] > medians[1] > medians[2]
        det_meds, rad_meds = [], []
        for seed in range(20):
            rad_inst = make_block_instrument(64, 4, "rademacher",
                                             SeededRng(555 + seed, 7))
            det = rip_experiment(bump16, [det_inst], [64], 5, SeededRng(555 + seed))
            rad = rip_experiment(bump16, [rad_inst], [64], 5, SeededRng(555 + seed))
            det_meds.append(float(np.median(det.deviations[0, 0])))
            rad_meds.append(float(np.median(rad.deviations[0, 0])))
        det_med = float(np.median(det_meds))
        rad_med = float(np.median(rad_meds))
        ok = decreasing and rad_med <= det_med
        assert _verdict(15, ok,
                        f"m-scan medians {[round(v, 4) for v in medians]}; "
                        f"paired medians rademacher {rad_med:.4f} <= "
                        f"deterministic {det_med:.4f}: {rad_med <= det_med}")
