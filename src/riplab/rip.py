"""Restricted-isometry estimation and its downstream consequences.

The central quantity for an operator A and a signal model M is

    delta(A, M) = sup { | x^* D x | : x in M, ||x||_2 = 1 },  D = A^* A - I,

estimated exactly (support enumeration for canonical sparsity, closed forms
at the end levels of a q-cap) or from below (sampled supports, or sampled
witnesses with ascent refinement); computing it is NP-hard, so a sampled
value only bounds it.  Each estimate keeps the proven upper bound behind it,
its own value where nothing was left unsearched and None otherwise, and one
rule, _side, turns that into its side: exact or lower.  Every estimator
reads one operator form, D from _defect, and has one body with one kernel
on it:

* canonical models: _canonical_rip, behind exact_rip_canonical and
  empirical_rip, with _max_defect, the Frobenius-pruned maximum over any
  stream of supports, enumerated or sampled;
* q-caps: _dyadic_levels, behind the multilevel check and its calibration.
  Its two end levels are exact in closed form (||D||_2 for the whole
  sphere, max |D_ii| for 1-sparse witnesses); the levels between run
  _ascend, projected power ascent toward both signed extremes as one block,
  from one block of sample_sparse starts, each step projected by the same
  flat-witness kernel, sparsity._flat_witness, and each level reading the
  running maximum of its forms.

Beside them sit sketched-distance bounds, a pairwise separation classifier,
the Gaussian mean width of a canonical model (a deterministic quadrature over
the k-th largest modulus and a Laplace variable, with no draw), and the
closed-form counts gordon_m, implicit_m, table1_counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .numerics import CapacityError, NumericalError, SeededRng, as_count, lq_norm, operator_norm
from .sparsity import (Canonical, LqCap, _flat_witness, max_sparsity_level, sample_sparse,
                       witness_support_size)

__all__ = [
    "RipReport",
    "Separated",
    "Close",
    "exact_rip_canonical",
    "empirical_rip",
    "mrip_check",
    "calibrate_mrip_distortion",
    "calibrated_side",
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
# gaussian_width's quadrature: panels on the logit and log-t axes, the fall of
# the Beta log-density where the logit axis stops, the span of t E X that the
# log-t axis covers, and the relative error above which it raises.
_WIDTH_PANELS = (12, 20)
_WIDTH_DROP = 40.0
_WIDTH_T_SPAN = (1e-6, 1e10)
_WIDTH_TOL = 1e-6
_SQRT_HALF = math.sqrt(0.5)
_TINY = np.finfo(float).tiny


def _side(*uppers) -> str:
    """The one side rule: the side of an estimate, from the proven upper
    bounds of the parts it is built from.  It is exact when every part has
    one and a lower bound while any part has none (None).  Each upper bound
    so far is its part's own value, proven because nothing was left
    unsearched, and every estimate grows with its parts."""
    return "lower" if any(upper is None for upper in uppers) else "exact"


@dataclass(frozen=True)
class RipReport:
    """A sided isometry-defect estimate and its cost.

    ``upper`` is a proven upper bound on the defect: ``delta_hat`` itself
    when every support was enumerated, and None when the value is a maximum
    over drawn supports.  ``side`` follows from it by _side: exact or lower.
    ``details`` holds the same three counts on every report: ``trials``;
    ``supports``, C(N, k) when supports are enumerated and ``trials`` when
    they are drawn; and ``evaluated``, the supports that reached eigvalsh.
    """

    delta_hat: float
    upper: float | None
    details: dict

    @property
    def side(self) -> str:
        return _side(self.upper)


def _effective(a) -> np.ndarray:
    if isinstance(a, np.ndarray):
        if a.ndim != 2:
            raise ValueError("operator must be a 2-d array")
        return a.astype(complex)
    return np.asarray(a.rows, dtype=complex)


def _defect(a) -> np.ndarray:
    """D = A^* A - I for a 2-d array or an ensemble's ``rows``, taken as
    complex.  Subtracting 1 on the diagonal in place equals subtracting a
    dense identity bit for bit."""
    eff = _effective(a)
    defect = eff.conj().T @ eff
    defect.flat[::len(defect) + 1] -= 1.0
    return defect


def _chunk_size(k: int) -> int:
    return max(1, min(_SUPPORT_CHUNK, _SUPPORT_CHUNK * 16 // (k * k)))


def _support_chunks(supports, size: int, k: int):
    """(B, k) index arrays of at most ``size`` supports each, in order:
    slices of a (T, k) array, or runs of an iterable of supports."""
    if isinstance(supports, np.ndarray):
        yield from (supports[lo:lo + size] for lo in range(0, len(supports), size))
        return
    it = iter(supports)
    while (flat := np.fromiter(chain.from_iterable(islice(it, size)), dtype=np.intp)).size:
        yield flat.reshape(-1, k)


def _max_defect(defect: np.ndarray, supports, k: int) -> tuple[float, int]:
    """Largest |eigenvalue| of defect[S, S] over k-supports S (k increasing
    indices each; a support may recur), given as an iterable or as the rows
    of a (T, k) array, and how many supports reached eigvalsh.  No supports
    give (0.0, 0).

    ||D_S||_2 <= ||D_S||_F, and ||D_S||_F^2 = sum_i |D_ii|^2 +
    2 sum_{i>j} |D_ij|^2 over the lower triangle, the one eigvalsh reads,
    is summed from |D|^2 one index pair at a time, which is faster than
    gathering (B, k, k) sub-blocks.  A support reaches eigvalsh only if its
    bound, widened by a relative rounding margin, reaches the running
    maximum, so the maximum is taken over a superset of the argmax.  The
    supports go in chunks, so at most one chunk of an iterable is held at a
    time; each chunk goes to eigvalsh in descending bound order, in batches
    of doubling size, so the maximum rises before most of the chunk is
    tested.  A batched eigvalsh runs the same LAPACK routine on each matrix
    as a call on that matrix alone, so the result equals a per-support loop
    bit for bit.
    """
    sq = np.abs(defect) ** 2
    delta, evaluated = 0.0, 0
    for idx in _support_chunks(supports, _chunk_size(k), k):
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
            w = np.linalg.eigvalsh(defect[rows[:, :, None], rows[:, None, :]])
            delta = max(delta, float(np.maximum(-w[:, 0], w[:, -1]).max()))
            evaluated += len(rows)
            start, batch = start + batch, 2 * batch
    return delta, evaluated


def _canonical_rip(a, model: Canonical, trials: int, rng: SeededRng | None) -> RipReport:
    """The isometry defect over the k-supports of ``model``: the one body of
    exact_rip_canonical (no ``rng``) and canonical empirical_rip.

    Every support is enumerated when there is no ``rng`` or when
    C(N, k) <= min(trials, 10^6), and more than 10^6 raise CapacityError.
    Otherwise ``rng.sorted_supports`` draws one support per trial at once,
    row t equal to the sorted ``choice(n, k, replace=False)`` of
    ``rng.stream(t)`` bit for bit.  Either way the pruned _max_defect
    returns the unpruned maximum bit for bit.  An enumeration proves its
    maximum, so the report's ``upper`` is the value itself; drawn supports
    leave it None.
    """
    defect = _defect(a)
    n, k = model.check_ambient(len(defect)), model.k
    n_supports = math.comb(n, k)
    exhaustive = rng is None or n_supports <= min(trials, _ENUM_CAP)
    if exhaustive and n_supports > _ENUM_CAP:
        raise CapacityError(
            f"C({n}, {k}) = {n_supports} supports exceed the enumeration cap {_ENUM_CAP}"
        )
    supports = (combinations(range(n), k) if exhaustive else
                rng.sorted_supports(range(trials), n, k))
    delta, evaluated = _max_defect(defect, supports, k)
    return RipReport(delta, delta if exhaustive else None,
                     {"trials": trials, "supports": n_supports if exhaustive else trials,
                      "evaluated": evaluated})


def exact_rip_canonical(a, k: int) -> RipReport:
    """Exact isometry defect over all C(N, k) <= 10^6 k-element supports,
    enumerated by _canonical_rip.  Nothing is drawn, so ``details["trials"]``
    is 0."""
    return _canonical_rip(a, Canonical(k), 0, None)


def empirical_rip(a, model: Canonical, trials: int, *, rng: SeededRng) -> RipReport:
    """Estimate of the isometry defect over a canonical model, from below
    unless every support is enumerated.

    It runs exact_rip_canonical's body, _canonical_rip, with one drawn
    support per trial.  If the budget covers every support they are
    enumerated instead, nothing is drawn (a drawn support would repeat an
    enumerated one), and the report is exact_rip_canonical's.  Each trial
    draws its support from its own RNG stream, so the estimate is a running
    maximum over per-trial streams and is non-decreasing in ``trials`` for a
    fixed seed.  q-caps are measured through their dyadic levels
    (mrip_check); any other model raises TypeError.
    """
    if not isinstance(model, Canonical):
        raise TypeError(f"expected a Canonical model; got {type(model).__name__}")
    return _canonical_rip(a, model, as_count(trials, "trials"), rng)


def _ascend(model: LqCap, defect: np.ndarray, trials: int, steps: int,
            rng: SeededRng) -> float:
    """Projected power ascent on the form x^* defect x from one witness per
    trial: row t of one ``sample_sparse(model, N, trials, rng)`` block.

    Both signs of every trial run as one block of 2 * trials rows: the first
    copy climbs and the second descends, by ``steps`` iterations
    x <- P(sign defect x), with P the _flat_witness of the cap's witness
    support size (the truncated power method).  Returns the running maximum
    of |form| over every iterate, x_0 through x_steps, so the value is
    non-decreasing in ``steps``.

    Each of the steps + 1 products of the whole block with defect.T gives
    every row's form; between products the descending half is negated and
    the block projected.  The block has at least two rows, and OpenBLAS
    computes each row of a zgemm apart from the other rows, so every row is
    bit-identical to an ascent run on that row alone.  A fixed point repeats
    its form, and a row whose step vanishes still projects to a feasible
    witness, so neither needs a stop.
    """
    n = defect.shape[0]
    j = witness_support_size(model.q, model.s, n)
    x0 = sample_sparse(model, n, trials, rng)
    x = np.concatenate([x0, x0])
    best = 0.0
    for step in range(steps + 1):
        y = x @ defect.T
        best = max(best, float(np.abs((x.conj() * y).sum(axis=1).real).max()))
        if step < steps:
            np.negative(y[trials:], out=y[trials:])
            x = _flat_witness(y, np.abs(y), j)
    return best


# -- multilevel check ---------------------------------------------------------


def _level_threshold(level: int, delta: float, extra_level_factor: bool) -> float:
    base = max(2.0 ** (level / 2.0) * delta, 2.0**level * delta**2)
    if extra_level_factor:
        base *= 2.0 ** (level / 2.0)
    return base


def _dyadic_levels(a, q: float, s: float, trials: int, ascent_steps: int, rng: SeededRng):
    """Yield (record, upper) for each dyadic level of the q-cap model: the
    record holds ``level``, ``sparsity`` 2^l s, ``observed``, the defect at
    the cap LqCap(q, 2^l s), and its ``side``; upper is the proven upper
    bound behind that side, or None.

    The two end levels have closed forms.  A cap with 2^l s >=
    max_sparsity_level(q, N) is the whole sphere, so it reads ||D||_2,
    exactly.  A cap whose witness support size is 1 reads max_i |D_ii|, the
    exact maximum over 1-sparse witnesses; it is exact when 2^l s = 1, where
    the cap holds only 1-sparse vectors, and a lower bound otherwise.  Every
    other level reads the _ascend lower bound.  The i-th level of the range
    draws its trials from ``rng.stream(i)``, so every caller sees the same
    estimates for one ``rng``.  The defect form is computed once for all
    levels.
    """
    trials = as_count(trials, "trials")
    ascent_steps = as_count(ascent_steps, "ascent_steps", least=0)
    defect = _defect(a)
    n = LqCap(q, s).check_ambient(len(defect))
    smax = max_sparsity_level(q, n)
    # The lowest level is the first with sparsity 2^l s >= 1; it holds every 1-sparse vector.
    lowest = math.ceil(round(-math.log2(s), 12))
    levels = range(lowest, math.ceil(round(math.log2(smax / s), 12)) + 1)
    norm = operator_norm(defect)
    # D is Hermitian, so the form of a 1-sparse witness is the real D_ii.
    diag = float(np.abs(defect.diagonal().real).max())
    # Indexed by position, not by level: levels can be negative.
    for level, stream in zip(levels, rng.streams(range(len(levels)))):
        sigma = 2.0**level * s
        if sigma >= smax:
            observed = upper = norm
        elif witness_support_size(q, sigma, n) == 1:
            observed, upper = diag, diag if sigma == 1.0 else None
        else:
            observed = _ascend(LqCap(q, sigma), defect, trials, ascent_steps, stream)
            upper = None
        record = {"level": level, "sparsity": sigma, "observed": observed, "side": _side(upper)}
        yield record, upper


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
    Each level is the record of _dyadic_levels, whose ``side`` says whether
    its estimate is the exact supremum (the two closed-form end levels) or a
    lower bound, with ``threshold`` and ``passed`` added; the i-th level of
    the range draws its trials from ``rng.stream(i)``.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    levels = []
    for record, _ in _dyadic_levels(a, q, s, trials, ascent_steps, rng):
        threshold = _level_threshold(record["level"], delta, extra_level_factor)
        levels.append(record | {"threshold": threshold, "passed": record["observed"] <= threshold})
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
    given the per-level estimates.  Returns (delta, level records).

    Level l passes iff delta >= 2^(-l/2) min(o_l, sqrt(o_l)) for observed o_l.
    Levels come from the same _dyadic_levels as mrip_check, so both see the
    same per-level estimates, with the same ``side``, for the same ``rng``;
    each record adds the level's ``upper`` bound (None when it has none) and
    its ``delta_needed``.  delta grows with every o_l, so calibrated_side
    of the records is its side.
    """
    records = []
    delta = 0.0
    for record, upper in _dyadic_levels(a, q, s, trials, ascent_steps, rng):
        o = record["observed"]
        need = 2.0 ** (-record["level"] / 2.0) * min(o, math.sqrt(o)) if o > 0 else 0.0
        delta = max(delta, need)
        records.append(record | {"upper": upper, "delta_needed": need})
    return delta, records


def calibrated_side(records) -> str:
    """The side of calibrate_mrip_distortion's delta, given its level
    records: exact only when every level is."""
    return _side(*(record["upper"] for record in records))


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
    if not (delta > 0 and s > 0):
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
    lower sandwich factor 1 - spread is not positive, or r is out of double
    range, are rejected.
    """
    if alpha is None:
        return 4.0 * math.sqrt(2.0), 1.0 / math.sqrt(2.0), 8.0
    root8 = 2.0 * math.sqrt(2.0)
    if not alpha > root8:
        raise ValueError(f"alpha must exceed 2 sqrt(2); got {alpha}")
    gap_product = alpha * (alpha - root8)
    if not gap_product > 8.0:
        raise ValueError(
            f"alpha={alpha} makes the lower sandwich factor non-positive "
            f"(need alpha (alpha - 2 sqrt(2)) > 8, got {gap_product:.6g})"
        )
    # r is the smallest beta with alpha^2 <= beta (beta - 2 sqrt(2)).
    r = _finite(lambda: math.sqrt(2.0) + math.sqrt(2.0 + alpha**2),
                f"r = sqrt(2) + sqrt(2 + alpha^2) at alpha={alpha:g}")
    return alpha, root8 / math.sqrt(gap_product), r


def classify_separation(a, x, y, delta: float, alpha: float | None = None):
    """Classify a unit-norm pair from its measured gap ||Ax - Ay||_2.

    With (c, spread, r) = separation_constants(alpha), gap >= c delta yields
    Separated with sandwich factors 1 -+ spread; otherwise Close with radius
    r delta.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    for name, v in (("x", x), ("y", y)):
        nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= 1e-8:
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


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1],
    from the eigenvectors of the Legendre Jacobi matrix (Golub-Welsch)."""
    j = np.arange(1.0, order)
    off = j / np.sqrt(4.0 * j * j - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


def _panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Nodes and weights of the 8-point rule on each panel between edges.
    nodes, weights = _gauss_legendre(8)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + nodes)).ravel(), (half * weights).ravel()


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _bisect(below, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Per entry, the point in [lo, hi] where the monotone predicate below(x)
    # turns false; 60 halvings bring any bracket here to a few ulps.
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = below(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return 0.5 * (lo + hi)


def _logit_beta(y, k: int, n: int):
    # Log-density of y = logit(p) for p ~ Beta(k, n - k + 1).
    log_b = math.lgamma(k) + math.lgamma(n - k + 1) - math.lgamma(n + 1)
    return -k * np.logaddexp(0.0, -y) - (n - k + 1) * np.logaddexp(0.0, y) - log_b


def _width_rule(k: int, n: int, panels_y: int, panels_t: int) -> float:
    # E sqrt(X) on panels_y panels of the logit axis, graded toward the mode
    # of its Beta density and ending where that log-density has fallen by
    # _WIDTH_DROP, and panels_t panels of log t, with the two tails of the
    # t integral added in closed form.
    mode = math.log(k / (n - k + 1))
    # Bisection brackets: bounding each side of the concave log-density by its
    # asymptote (log-slope k on the left, n - k + 1 on the right) shows the
    # drop exceeds _WIDTH_DROP this far from the mode.
    reach = np.array([1.0 + _WIDTH_DROP / k + math.log((n + 1) / (n - k + 1)),
                      1.0 + _WIDTH_DROP / (n - k + 1) + math.log((n + 1) / k)])
    side = np.array([-1.0, 1.0])
    top = _logit_beta(mode, k, n)
    reach = _bisect(lambda d: top - _logit_beta(mode + side * d, k, n) < _WIDTH_DROP,
                    np.zeros(2), reach)
    grade = np.linspace(0.0, 1.0, panels_y // 2 + 1) ** 2
    y, wy = _panels(np.concatenate([mode - reach[0] * grade[::-1], mode + reach[1] * grade[1:]]))
    log_p = -np.logaddexp(0.0, -y)
    p = np.exp(log_p)
    # u = Q^{-1}(p); Q(38) is still a positive subnormal, so [0, 38] brackets every p.
    u = _bisect(lambda v: _erfc(v * _SQRT_HALF) > p, np.zeros_like(y), np.full_like(y, 38.0))
    wy = wy * np.exp(_logit_beta(y, k, n))
    # E[X | u] = u^2 + (k - 1) E[g^2 | |g| > u], and E[g^2 | |g| > u] = 1 + 2 u phi(u) / Q(u).
    mean_x = wy @ (u * u + (k - 1) * (1.0 + u * math.sqrt(2.0 / math.pi)
                                      * np.exp(-0.5 * u * u - log_p)))
    lo, hi = _WIDTH_T_SPAN
    tau, wt = _panels(np.linspace(math.log(lo / mean_x), math.log(hi / mean_x), panels_t + 1))
    t = np.exp(tau)
    s = np.sqrt(1.0 + 2.0 * t)
    # log of E[e^{-t g^2} | |g| > u] = Q(u s) / (s Q(u)).  An erfc that
    # underflows is floored at the smallest normal double: k = 1 then
    # multiplies a finite log by 0, and k >= 2 still gets a factor of 0.
    log_r = (np.log(np.maximum(_erfc(np.multiply.outer(u, s) * _SQRT_HALF), _TINY))
             - np.log(s) - log_p[:, None])
    one_minus = -np.expm1(-np.multiply.outer(u * u, t) + (k - 1) * log_r)
    body = wy @ one_minus @ (wt / np.sqrt(t))
    # The t integral's tails in closed form: below t = lo / E X its 1 - L(t)
    # is t E X up to O(t^2), and above hi / E X it is 1 up to
    # L(t) <= E e^{-t g_1^2} = (1 + 2t)^(-1/2).
    tails = 2.0 * math.sqrt(mean_x) * (math.sqrt(lo) + 1.0 / math.sqrt(hi))
    return float((body + tails) / (2.0 * math.sqrt(math.pi)))


def gaussian_width(model: Canonical, ambient: int) -> dict:
    """Gaussian mean width E sup <g, x> of the unit k-sparse vectors, by quadrature.

    The supremum is the norm of the k largest moduli of g ~ N(0, I_N), so the
    width is E sqrt(X), X the sum of their squares.  With
    sqrt(x) = (1 / (2 sqrt(pi))) int_0^inf (1 - e^{-tx}) t^{-3/2} dt it needs
    L(t) = E e^{-tX}.  Given the k-th largest modulus u, the k - 1 above it
    are half-normals conditioned to exceed u, so with Q(u) = erfc(u / sqrt 2)

        L(t) = E_u e^{-t u^2} [Q(u sqrt(1 + 2t)) / (sqrt(1 + 2t) Q(u))]^(k-1),

    and p = Q(u) is Beta(k, N - k + 1).  The double integral runs over
    logit(p) and log t, on composite 8-point Gauss-Legendre panels
    (12 x 20); u(p) comes from bisection on math.erfc, and no draw is made.
    Returns the width ``mean`` and its ``error``, the distance to the same
    rule on half the panels per axis; an error above 1e-6 of the width
    raises NumericalError.
    """
    if not isinstance(model, Canonical):
        raise TypeError(f"expected a Canonical model; got {type(model).__name__}")
    ambient = model.check_ambient(ambient)
    panels_y, panels_t = _WIDTH_PANELS
    mean = _width_rule(model.k, ambient, panels_y, panels_t)
    error = abs(mean - _width_rule(model.k, ambient, panels_y // 2, panels_t // 2))
    if error > _WIDTH_TOL * mean:
        raise NumericalError(f"the Gaussian width at k={model.k}, N={ambient} is only "
                             f"resolved to {error:.3g}")
    return {"mean": mean, "error": error}


# -- measurement-count predictions --------------------------------------------


def gordon_m(width: float, delta: float, zeta: float) -> int:
    """Gordon's count ceil(delta^-2 (width + sqrt(2 ln(2/zeta)))^2).  A count
    out of double range (a tiny delta or zeta) raises ValueError."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not (0.0 < zeta <= 2.0):
        raise ValueError("zeta must lie in (0, 2]")
    if not width >= 0:
        raise ValueError("width must be non-negative")
    count = _finite(lambda: (width + math.sqrt(2.0 * math.log(2.0 / zeta))) ** 2 / delta**2,
                    f"Gordon's count at width={width:g}, delta={delta:g}, zeta={zeta:g}")
    return int(math.ceil(count))


def _finite(compute, what: str) -> float:
    # compute(), or a ValueError naming what when it overflows, divides by a
    # value that underflowed to 0, or comes out infinite.
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} is out of double range")
    return value


def implicit_m(sp: float, delta: float) -> int:
    """Smallest m with m >= delta^-2 (1 + ln m)^3 sp (monotone search,
    capacity-capped at 2^30)."""
    if not (sp > 0 and delta > 0):
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
    s, n, d = map(as_count, (s, n, d), ("s", "n", "d"))
    return {
        "gauss": s * n * d,
        "group": s * n**2 * d**2,
        "group_sign": s * n * d**3,
    }
