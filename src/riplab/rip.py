"""Restricted-isometry estimation and its downstream consequences.

The central quantity for an operator A and a signal model D is

    delta(A, D) = sup { | ||A x||_2^2 - 1 | : x in D, ||x||_2 = 1 },

estimated exactly (support enumeration for canonical sparsity) or from below
(sampled supports, or sampled witnesses with ascent refinement); computing it
is NP-hard, so a sampled value only bounds it, and each RipReport states its
side.  Each estimator has one kernel: _max_defect, the Frobenius-pruned
maximum over any stream of canonical supports, enumerated or sampled, and
_ascend, projected power ascent toward both signed extremes as one block.
On top of that sit the multilevel check, sketched-distance bounds, a pairwise
separation classifier, Gaussian mean width and the closed-form counts
gordon_m, implicit_m, table1_counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .numerics import CapacityError, SeededRng, lq_norm, operator_norm
from .sparsity import (
    Canonical,
    LqCap,
    SparsityModel,
    max_sparsity_level,
    project_witness,
    sample_sparse,
    witness_support_size,
)

__all__ = [
    "RipReport",
    "Separated",
    "Close",
    "exact_rip_canonical",
    "empirical_rip",
    "mrip_check",
    "calibrate_mrip_distortion",
    "distance_bound_check",
    "classify_separation",
    "separation_constants",
    "gaussian_width",
    "gordon_m",
    "implicit_m",
    "table1_counts",
]

_ENUM_CAP = 10**6
_SEARCH_CAP = 2**30
# Supports per chunk of _max_defect.  Supports larger than k = 4 shrink the
# chunk so a (B, k, k) sub-Gram stack never holds more entries than 8192
# 4 x 4 blocks (2 MB complex).
_SUPPORT_CHUNK = 8192
# Relative widening of the Frobenius bound in pruned enumeration.  It covers
# the rounding of the bound's sum and of eigvalsh (a few k^2 ulps) many times
# over, and costs a negligible share of the pruning.
_PRUNE_MARGIN = 1e-6


@dataclass(frozen=True)
class RipReport:
    """A sided isometry-defect estimate and its cost.

    ``side`` is "exact" when every support was enumerated and "lower" when
    the value is a maximum over drawn supports or witnesses.  ``details``
    holds the same four counts on every report: ``trials``; ``supports``,
    C(N, k) when supports are enumerated, ``trials`` when they are drawn and
    0 for ascent; ``evaluated``, the supports that reached eigvalsh; and
    ``ascent_iterations``, the ascent row-steps run.
    """

    delta_hat: float
    side: str
    model: str
    m: int
    details: dict


def _effective(a) -> np.ndarray:
    if isinstance(a, np.ndarray):
        if a.ndim != 2:
            raise ValueError("operator must be a 2-d array")
        return a.astype(complex)
    return np.asarray(a.rows, dtype=complex)


def _chunk_size(k: int) -> int:
    return max(1, min(_SUPPORT_CHUNK, _SUPPORT_CHUNK * 16 // (k * k)))


def _max_defect(gram: np.ndarray, supports, k: int) -> tuple[float, int]:
    """Largest |eigenvalue| of gram[S, S] - I over an iterable of k-supports S
    (k increasing indices each; a support may recur), and how many supports
    reached eigvalsh.  No supports give (0.0, 0).

    ||G_S - I||_2 <= ||G_S - I||_F, and
    ||G_S - I||_F^2 = sum_i |G_ii - 1|^2 + 2 sum_{i<j} |G_ji|^2 is summed
    from |G - I|^2 (its lower triangle, the one eigvalsh reads) without
    gathering sub-Gram blocks.  A support reaches eigvalsh only if its bound,
    widened by a relative rounding margin, reaches the running maximum, so
    the maximum is taken over a superset of the argmax.  The supports stream
    in chunks, so at most one chunk is held at a time; each chunk goes to
    eigvalsh in descending bound order, in batches of doubling size, so the
    maximum rises before most of the chunk is tested.  A batched eigvalsh
    runs the same LAPACK routine on each matrix as a call on that matrix
    alone, so the result equals a per-support loop bit for bit.
    """
    n = gram.shape[0]
    sq = np.abs(gram - np.eye(n)) ** 2
    size = _chunk_size(k)
    it = iter(supports)
    delta, evaluated = 0.0, 0
    while (flat := np.fromiter(chain.from_iterable(islice(it, size)), dtype=np.intp)).size:
        idx = flat.reshape(-1, k)
        fro2 = sq[idx, idx].sum(axis=1)
        for j in range(1, k):
            for i in range(j):
                fro2 += 2.0 * sq[idx[:, j], idx[:, i]]
        bound = fro2 * (1.0 + _PRUNE_MARGIN)
        order = np.argsort(bound)[::-1]
        start, batch = 0, 1
        while start < order.size and bound[order[start]] >= delta * delta:
            take = order[start:start + batch]
            rows = idx[take[bound[take] >= delta * delta]]
            w = np.linalg.eigvalsh(gram[rows[:, :, None], rows[:, None, :]] - np.eye(k))
            delta = max(delta, float(np.maximum(-w[:, 0], w[:, -1]).max()))
            evaluated += len(rows)
            start, batch = start + batch, 2 * batch
    return delta, evaluated


def exact_rip_canonical(a, k: int) -> RipReport:
    """Exact isometry defect over all k-element supports.

    Enumerates every support, so C(N, k) must not exceed 10^6, through
    _max_defect: memory stays at one chunk of at most 8192 supports, and the
    Frobenius pruning leaves the unpruned maximum bit for bit.  Nothing is
    drawn, so ``details["trials"]`` is 0.
    """
    eff = _effective(a)
    m, n = eff.shape
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, N]; got {k}")
    n_supports = math.comb(n, k)
    if n_supports > _ENUM_CAP:
        raise CapacityError(
            f"C({n}, {k}) = {n_supports} supports exceed the enumeration cap {_ENUM_CAP}"
        )
    gram = eff.conj().T @ eff
    delta, evaluated = _max_defect(gram, combinations(range(n), k), k)
    return RipReport(delta, "exact", repr(Canonical(k)), m,
                     {"trials": 0, "supports": n_supports, "evaluated": evaluated,
                      "ascent_iterations": 0})


def empirical_rip(
    a,
    model: SparsityModel,
    trials: int,
    ascent_steps: int = 50,
    *,
    rng: SeededRng,
) -> RipReport:
    """Estimate of the isometry defect over a signal model, from below unless
    every support is enumerated.

    Canonical models take the largest per-support extreme eigenvalue over
    one support per trial, drawn in trial order; if the trial budget covers
    every support the supports are enumerated instead, nothing is drawn (a
    drawn support would repeat an enumerated one), and the report is
    exact_rip_canonical's value with side "exact".  Both go through
    exact_rip_canonical's pruned kernel, so a sampled maximum is the unpruned
    one bit for bit.
    ``ascent_steps`` is unused for canonical models.
    q-cap models refine sampled witnesses by projected power ascent on the
    defect quadratic form, both signs of every trial as one block; a row
    stops early when its iterate vanishes under the step (as every row does
    when the defect is 0) or repeats bit for bit, which changes no result.

    Each trial draws its witness from its own RNG stream, so the estimate is
    a running maximum over per-trial streams and is non-decreasing in
    ``trials`` for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eff = _effective(a)
    m, n = eff.shape
    gram = eff.conj().T @ eff

    if isinstance(model, Canonical):
        k = model.k
        if k > n:
            raise ValueError(f"k={k} exceeds ambient dimension {n}")
        n_supports = math.comb(n, k)
        exhaustive = n_supports <= trials and n_supports <= _ENUM_CAP
        supports = (combinations(range(n), k) if exhaustive else
                    (np.sort(stream.choice_no_replace(n, k)).tolist()
                     for stream in rng.streams(range(trials))))
        delta, evaluated = _max_defect(gram, supports, k)
        return RipReport(delta, "exact" if exhaustive else "lower", repr(model), m,
                         {"trials": trials, "supports": n_supports if exhaustive else trials,
                          "evaluated": evaluated, "ascent_iterations": 0})

    defect = gram - np.eye(n)
    shift = operator_norm(defect)

    def form(x: np.ndarray) -> float:
        return abs(float(np.real(np.vdot(x, defect @ x))))

    x0 = np.stack([sample_sparse(model, n, stream) for stream in rng.streams(range(trials))])
    # Projected power ascent toward each signed extreme of the form: the
    # first copy of the trials climbs, the second descends.
    signs = np.repeat([1.0, -1.0], trials)[:, None]
    x, steps = _ascend(model, defect, shift, signs, np.concatenate([x0, x0]), ascent_steps)
    delta = max(map(form, chain(x0, x)))

    return RipReport(delta, "lower", repr(model), m,
                     {"trials": trials, "supports": 0, "evaluated": 0,
                      "ascent_iterations": steps})


def _ascend(model: SparsityModel, defect: np.ndarray, shift: float, signs: np.ndarray,
            x0: np.ndarray, steps: int) -> tuple:
    """Run up to ``steps`` iterations x <- P(sign defect x + shift x) on every row
    of x0, with that row's sign from the (B, 1) column ``signs`` of +-1.

    Returns the final rows and the number of row-steps run.  The broadcast
    product applies the same gemv to each row as ``defect @ x`` does, and a
    product with +-1 is exact, so every row is bit-identical to an ascent run
    on that row alone.
    """
    x = x0.copy()
    live = np.arange(len(x))
    run = 0
    for _ in range(steps):
        cur = x[live]
        y = signs[live] * (defect @ cur[:, :, None])[:, :, 0] + shift * cur
        moving = np.any(y, axis=1)
        live, cur = live[moving], cur[moving]
        if live.size == 0:
            break
        nxt = project_witness(model, y[moving])
        x[live] = nxt
        run += live.size
        # A row that repeats bit for bit is at a fixed point: every later step
        # would reproduce it.
        live = live[np.any(nxt.view(np.uint64) != cur.view(np.uint64), axis=1)]
    return x, run


# -- multilevel check ---------------------------------------------------------


def _level_range(q: float, s: float, n: int) -> range:
    smax = max_sparsity_level(q, n)
    if not (1.0 <= s <= smax * (1 + 1e-12)):
        raise ValueError(f"s must lie in [1, s_max={smax:.6g}]; got {s}")
    # The lowest level is the first with sparsity 2^l s >= 1; it holds every 1-sparse vector.
    lo = math.ceil(round(-math.log2(s), 12))
    hi = math.ceil(round(math.log2(smax / s), 12))
    return range(lo, hi + 1)


def _level_threshold(level: int, delta: float, extra_level_factor: bool) -> float:
    base = max(2.0 ** (level / 2.0) * delta, 2.0**level * delta**2)
    if extra_level_factor:
        base *= 2.0 ** (level / 2.0)
    return base


def _dyadic_levels(a, q: float, s: float, trials: int, ascent_steps: int, rng: SeededRng):
    """Yield (level, sparsity, observed) for each dyadic level of the q-cap
    model: sparsity is 2^l s and observed the empirical_rip lower bound of
    level l.  The i-th level of the range draws its trials from
    ``rng.stream(i)``, so every caller sees the same estimates for one ``rng``.
    """
    levels = _level_range(q, s, _effective(a).shape[1])
    # Indexed by position, not by level: levels can be negative.
    for level, stream in zip(levels, rng.streams(range(len(levels)))):
        sigma = 2.0**level * s
        report = empirical_rip(a, LqCap(q, sigma), trials, ascent_steps, rng=stream)
        yield level, sigma, report.delta_hat


def mrip_check(
    a,
    q: float,
    s: float,
    delta: float,
    trials: int,
    ascent_steps: int,
    rng: SeededRng,
    extra_level_factor: bool = False,
):
    """Multilevel restricted-isometry check over dyadic sparsity levels.
    Returns (all_pass, level records).

    Level l carries the q-cap model at sparsity 2^l s and must stay below
    max(2^(l/2) delta, 2^l delta^2); ``extra_level_factor`` multiplies the
    threshold by another 2^(l/2) for the looser definitional variant.
    Per-level estimates are empirical lower bounds of the true suprema; the
    i-th level of the range draws its trials from ``rng.stream(i)``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    levels = []
    for level, sigma, observed in _dyadic_levels(a, q, s, trials, ascent_steps, rng):
        threshold = _level_threshold(level, delta, extra_level_factor)
        levels.append({"level": level, "sparsity": sigma, "observed": observed,
                       "threshold": threshold, "passed": bool(observed <= threshold)})
    return all(lv["passed"] for lv in levels), levels


def calibrate_mrip_distortion(
    a,
    q: float,
    s: float,
    trials: int,
    ascent_steps: int,
    rng: SeededRng,
):
    """Smallest delta for which every dyadic level meets its threshold,
    given the empirical per-level suprema.  Returns (delta, level records).

    Level l passes iff delta >= 2^(-l/2) min(o_l, sqrt(o_l)) for observed o_l.
    Levels come from the same _dyadic_levels as mrip_check, so both see the
    same per-level estimates for the same ``rng``.
    """
    records = []
    delta = 0.0
    for level, sigma, o in _dyadic_levels(a, q, s, trials, ascent_steps, rng):
        need = 2.0 ** (-level / 2.0) * min(o, math.sqrt(o)) if o > 0 else 0.0
        delta = max(delta, need)
        records.append({"level": level, "sparsity": sigma, "observed": o, "delta_needed": need})
    return delta, records


# -- distance preservation and pair classification ---------------------------


def distance_bound_check(a, x, y, s: float, delta: float, q: float) -> dict:
    """Check the sketched-distance bound for one pair h = x - y.

    observed = | ||A h||^2 - ||h||^2 | must stay below
    max(sqrt(2) delta ||h||_q ||h||_2 / sqrt(s), 2 delta^2 ||h||_q^2 / s).

    When the pair is flat enough that ||h||_q <= sqrt(s) ||h||_2 /
    (2 sqrt(2) delta), the refined alternative
    min(||h||_2^2 / 2, sqrt(2) delta (||x||+||y||) ||h||_2) is also
    evaluated.  The factor 2 is the paper's 1 + eps at eps = 1.
    """
    if delta <= 0 or s <= 0:
        raise ValueError("delta and s must be positive")
    eff = _effective(a)
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    h = x - y
    h2 = float(np.linalg.norm(h))
    if h2 == 0:
        raise ValueError("x and y must differ")
    hq = lq_norm(h, q)
    observed = abs(float(np.linalg.norm(eff @ h) ** 2) - h2**2)
    bound = max(
        math.sqrt(2.0) * delta * hq * h2 / math.sqrt(s),
        2.0 * delta**2 * hq**2 / s,
    )
    result = {
        "observed": observed,
        "bound": bound,
        "passed": bool(observed <= bound),
        "h_norm": h2,
        "h_q_norm": hq,
    }
    refined_applies = hq <= math.sqrt(s) * h2 / (math.sqrt(2.0) * 2.0 * delta)
    result["refined_applies"] = bool(refined_applies)
    if refined_applies:
        xn = float(np.linalg.norm(x))
        yn = float(np.linalg.norm(y))
        refined = min(h2**2 / 2.0, math.sqrt(2.0) * delta * (xn + yn) * h2)
        result["refined_bound"] = refined
        result["refined_passed"] = bool(observed <= refined)
    return result


@dataclass(frozen=True)
class Separated:
    """The measured gap sandwiches the true squared distance."""

    lower: float
    upper: float
    measured_sq: float


@dataclass(frozen=True)
class Close:
    """The pair is indistinguishable beyond the stated radius."""

    radius: float
    measured_sq: float


def separation_constants(alpha: float | None = None) -> tuple:
    """Factors (c, spread, r) of classify_separation for threshold factor alpha.

    Default: c = 4 sqrt(2), spread = 1/sqrt(2), r = 8.  A custom
    alpha > 2 sqrt(2) gives c = alpha and spread
    2 sqrt(2)/sqrt(alpha (alpha - 2 sqrt(2))); alpha values for which the
    lower sandwich factor 1 - spread is not positive are rejected.
    """
    if alpha is None:
        return 4.0 * math.sqrt(2.0), 1.0 / math.sqrt(2.0), 8.0
    root8 = 2.0 * math.sqrt(2.0)
    if alpha <= root8:
        raise ValueError(f"alpha must exceed 2 sqrt(2); got {alpha}")
    gap_product = alpha * (alpha - root8)
    if gap_product <= 8.0:
        raise ValueError(
            f"alpha={alpha} makes the lower sandwich factor non-positive "
            f"(need alpha (alpha - 2 sqrt(2)) > 8, got {gap_product:.6g})"
        )
    # r is the smallest beta with alpha^2 <= beta (beta - 2 sqrt(2)).
    return alpha, root8 / math.sqrt(gap_product), math.sqrt(2.0) + math.sqrt(2.0 + alpha**2)


def classify_separation(a, x, y, delta: float, alpha: float | None = None):
    """Classify a unit-norm pair from its measured gap ||Ax - Ay||_2.

    With (c, spread, r) = separation_constants(alpha), gap >= c delta yields
    Separated with sandwich factors 1 -+ spread; otherwise Close with radius
    r delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    for name, v in (("x", x), ("y", y)):
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"{name} must be unit-norm to 1e-8; got {nrm:.12g}")
    c, spread, r = separation_constants(alpha)
    threshold = c * delta
    radius = r * delta

    eff = _effective(a)
    gap_sq = float(np.linalg.norm(eff @ (x - y)) ** 2)
    if math.sqrt(gap_sq) >= threshold:
        return Separated(lower=(1.0 - spread) * gap_sq,
                         upper=(1.0 + spread) * gap_sq,
                         measured_sq=gap_sq)
    return Close(radius=radius, measured_sq=gap_sq)


# -- Gaussian mean width ------------------------------------------------------


def _width_one_draw(model: SparsityModel, xi: np.ndarray) -> float:
    n = xi.size
    if isinstance(model, Canonical):
        k = min(model.k, n)
        mags = np.abs(xi)
        top = np.partition(mags, n - k)[n - k:]
        return float(np.linalg.norm(top))
    if isinstance(model, LqCap):
        j_max = witness_support_size(model.q, model.s, n)
        mags = np.sort(np.abs(xi))[::-1]
        cums = np.cumsum(mags[:j_max])
        j = np.arange(1, j_max + 1, dtype=float)
        return float(np.max(cums / np.sqrt(j)))
    raise TypeError(f"unknown sparsity model {type(model).__name__}")


def gaussian_width(model: SparsityModel, ambient: int, trials: int, rng: SeededRng) -> dict:
    """Monte Carlo Gaussian mean width of the model's unit-sphere section.

    The supremum over the model is evaluated in closed form per draw: the
    norm of the k largest moduli for Canonical(k), the best flat witness for
    a q-cap.  Returns the ``mean`` of the per-draw suprema and its ``stderr``.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2 for a standard error")
    sups = np.empty(trials)
    for trial, stream in enumerate(rng.streams(range(trials))):
        xi = stream.standard_normal(ambient)
        sups[trial] = _width_one_draw(model, xi)
    return {
        "mean": float(sups.mean()),
        "stderr": float(sups.std(ddof=1) / math.sqrt(trials)),
    }


# -- measurement-count predictions --------------------------------------------


def gordon_m(width: float, delta: float, zeta: float) -> int:
    """Gordon's count ceil(delta^-2 (width + sqrt(2 ln(2/zeta)))^2)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not (0.0 < zeta <= 2.0):
        raise ValueError("zeta must lie in (0, 2]")
    if width < 0:
        raise ValueError("width must be non-negative")
    return int(math.ceil((width + math.sqrt(2.0 * math.log(2.0 / zeta))) ** 2 / delta**2))


def implicit_m(sp: float, delta: float) -> int:
    """Smallest m with m >= delta^-2 (1 + ln m)^3 sp (monotone search,
    capacity-capped at 2^30)."""
    if sp <= 0 or delta <= 0:
        raise ValueError("sp and delta must be positive")
    coeff = sp / delta**2

    def satisfied(m: int) -> bool:
        return m >= coeff * (1.0 + math.log(m)) ** 3

    hi = 1
    while not satisfied(hi):
        hi *= 2
        if hi > _SEARCH_CAP:
            raise CapacityError(f"no m <= {_SEARCH_CAP} satisfies the implicit bound")
    lo = hi // 2
    while lo + 1 < hi:  # invariant: lo unsatisfied (or 0), hi satisfied
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def table1_counts(s: int, n: int, d: int) -> dict:
    """Counts for rank-s order-d tensors over C^n under plain Gaussian, group,
    and sign-augmented group measurements."""
    if min(s, n, d) < 1:
        raise ValueError("s, n, d must all be >= 1")
    return {
        "gauss": s * n * d,
        "group": s * n**2 * d**2,
        "group_sign": s * n * d**3,
    }
