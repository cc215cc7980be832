"""Function-space sampling experiments on the unit circle.

Functions are trigonometric polynomials carried by their Fourier
coefficients on k in [-N_big, N_big).  The derivative here is the
*normalized* one, acting as coeff_k -> k coeff_k; the physical derivative is
2 pi times that.  With this convention the harmonic-weight identities behind
time sampling and the dyadic octaves hold exactly: summing coeff_k / k blocks
of the derivative of g telescopes back to point evaluation of g.

rip_experiment measures one fixed function with a list of
BlockInstruments: d contiguous frequency blocks of length L covering [-N, N),
summed with one +/-1 pattern (all ones for deterministic blocks, Rademacher
otherwise), and normalized by the window seminorm of [-N, N).  Its mean
energy over m translates t is a trigonometric polynomial of degree L - 1,
g(0) + 2 Re sum_{D=1}^{L-1} g(D) S_m(D): the lags g(D) of the signed block
coefficients against the exponential sums S_m(D) = (1/m) sum_t exp(-2 pi i D t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, as_count, as_counts

__all__ = [
    "FourierFunction",
    "standard_bump",
    "from_bumps",
    "evaluate",
    "values_on_grid",
    "differentiate",
    "weighted_seminorm",
    "quadrature_moduli",
    "grid_lq_norm",
    "support_fraction",
    "lq_norm_function",
    "smooth_sparse_membership",
    "BlockInstrument",
    "make_block_instrument",
    "block_measure",
    "time_sample_measure",
    "dyadic_block_frequencies",
    "dyadic_measure",
    "covering_dyadic_level",
    "truncation_level",
    "DeviationGrid",
    "rip_experiment",
]

_DC_TOL = 1e-10
# Quadrature grids take M = _OVERSAMPLE * n_big nodes.  How well they resolve
# a bump of width 1/T depends on the nodes per width, M / T, not on n_big:
# from_bumps' coefficients are off by about 3e-4 of the largest one at
# M / T = 16, 2e-7 at 64 and below 4e-16 from 512 on.
_OVERSAMPLE = 8


@dataclass(frozen=True, eq=False)
class FourierFunction:
    """Trigonometric polynomial with coefficients on k in [-n_big, n_big).

    coeffs[i] is the coefficient of exp(2 pi i k t) for k = i - n_big.
    """

    coeffs: np.ndarray
    n_big: int

    def __post_init__(self):
        c, n_big = np.asarray(self.coeffs, dtype=complex), as_count(self.n_big, "n_big")
        if c.shape != (2 * n_big,):
            raise ValueError(f"expected {2 * n_big} coefficients, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n_big", n_big)

    def coeff(self, k: int) -> complex:
        if not (-self.n_big <= k < self.n_big):
            raise ValueError(f"frequency {k} outside [-{self.n_big}, {self.n_big})")
        return complex(self.coeffs[k + self.n_big])

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(-self.n_big, self.n_big)

    def l2_norm(self) -> float:
        """L2 norm on the circle (Parseval)."""
        return float(np.linalg.norm(self.coeffs))


# -- construction --------------------------------------------------------------


def standard_bump(x) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - 4 x^2)) supported on |x| < 1/2."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 0.5
    xi = x[inside]
    with np.errstate(over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - 4.0 * xi**2))
    return out


def _circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def from_bumps(
    t_scale: float,
    centers,
    amplitudes,
    n_big: int,
) -> FourierFunction:
    """Superposition sum_j a_j T phi(T (t - c_j)) of the standard bump phi,
    as a trigonometric polynomial.

    The dilated bumps have width 1/T, so centers must keep pairwise circular
    distance strictly above 1/T (this also rules out overlap across the wrap).
    T, the centers and the amplitudes must be finite.

    Coefficients come from an FFT of the values at M = 8 n_big uniform
    nodes.  Each bump is added only on the nodes of its support window,
    taken mod M and never more than the whole grid once; elsewhere it is an
    exact 0, so the values equal a sum over the whole grid bit for bit.  The
    quadrature error is set by the nodes per bump width, M / T (see
    _OVERSAMPLE), so narrow bumps on a small carrier are aliased.
    """
    if not math.isfinite(t_scale):
        raise ValueError(f"the dilation T must be finite; got {t_scale}")
    n_big = as_count(n_big, "n_big")
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
    if not np.isfinite(centers).all():
        raise ValueError("bump centers must be finite")
    if not np.isfinite(amplitudes).all():
        raise ValueError("bump amplitudes must be finite")
    centers = centers % 1.0
    if centers.shape != amplitudes.shape:
        raise ValueError("centers and amplitudes must have matching lengths")
    if centers.size < 1:
        raise ValueError("at least one bump is required")
    if t_scale <= 1.0:
        raise ValueError("the dilation T must exceed 1 so a bump fits the circle")
    for i in range(centers.size):
        for j in range(i + 1, centers.size):
            if _circular_distance(centers[i], centers[j]) <= 1.0 / t_scale:
                raise ValueError(
                    f"bump centers {centers[i]:.6g} and {centers[j]:.6g} are closer "
                    f"than the bump width 1/T = {1.0 / t_scale:.6g}"
                )

    m_quad = _OVERSAMPLE * n_big
    half = 0.5 / t_scale
    vals = np.zeros(m_quad, dtype=complex)
    for c, a in zip(centers, amplitudes):
        # The nodes i/M strictly inside (c - 1/(2T), c + 1/(2T)).  Rounding
        # can move an end by one node only where the profile underflows to 0.
        lo = math.floor(m_quad * (c - half)) + 1
        hi = math.ceil(m_quad * (c + half))
        nodes = np.arange(lo, min(hi, lo + m_quad)) % m_quad
        u = (nodes / m_quad - c + 0.5) % 1.0 - 0.5
        vals[nodes] += a * t_scale * standard_bump(t_scale * u)
    spectrum = np.fft.fft(vals) / m_quad
    k = np.arange(-n_big, n_big)
    return FourierFunction(spectrum[k % m_quad], n_big)


# -- pointwise and norm operations ---------------------------------------------


def evaluate(f: FourierFunction, t):
    """Pointwise synthesis sum_k c_k exp(2 pi i k t); t scalar or array."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    phases = np.exp(2j * np.pi * np.outer(t_arr, f.frequencies))
    out = phases @ f.coeffs
    return complex(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def values_on_grid(f: FourierFunction, m_grid: int) -> np.ndarray:
    """Values at t = i/m_grid via zero-padded FFT synthesis."""
    # A grid below the coefficient band 2 n_big would alias.
    m_grid = as_count(m_grid, "m_grid", least=2 * f.n_big)
    spectrum = np.zeros(m_grid, dtype=complex)
    k = f.frequencies
    spectrum[k % m_grid] = f.coeffs
    return np.fft.ifft(spectrum) * m_grid


def differentiate(f: FourierFunction, mode: str = "derivative") -> FourierFunction:
    """Normalized derivative (coeff_k -> k coeff_k) or its inverse.

    The antiderivative divides by k and requires a DC-free input; its own DC
    coefficient is fixed to zero.  Physical derivatives are 2 pi times the
    normalized one.
    """
    k = f.frequencies.astype(float)
    if mode == "derivative":
        return FourierFunction(f.coeffs * k, f.n_big)
    if mode == "antiderivative":
        _require_dc_free(f, "antiderivative requires a DC-free function")
        out = np.zeros_like(f.coeffs)
        nz = k != 0
        out[nz] = f.coeffs[nz] / k[nz]
        return FourierFunction(out, f.n_big)
    raise ValueError(f"mode must be 'derivative' or 'antiderivative'; got {mode!r}")


def _require_dc_free(f: FourierFunction, message: str) -> None:
    # The DC coefficient must vanish relative to the largest coefficient.
    if abs(f.coeff(0)) > _DC_TOL * max(1.0, float(np.abs(f.coeffs).max())):
        raise ValueError(message)


def weighted_seminorm(f: FourierFunction, n_cut: int) -> float:
    """Window seminorm sqrt(sum_k w_k |c_k|^2), w the 0/1 mask of the frequency
    window [-n_cut, n_cut) over the carrier band [-n_big, n_big)."""
    if as_count(n_cut, "n_cut", least=0) > f.n_big:
        raise ValueError(f"cutoff {n_cut} exceeds the carrier band {f.n_big}")
    k = f.frequencies
    w = ((k >= -n_cut) & (k < n_cut)).astype(float)
    return float(math.sqrt(float(np.sum(w * np.abs(f.coeffs) ** 2))))


def quadrature_moduli(f: FourierFunction) -> np.ndarray:
    """|f| at the 8 n_big uniform quadrature nodes t = i / (8 n_big)."""
    return np.abs(values_on_grid(f, _OVERSAMPLE * f.n_big))


def grid_lq_norm(moduli: np.ndarray, q: float) -> float:
    """L_q(0, 1) norm by the uniform-grid quadrature of node moduli |f(t_i)|."""
    if q == math.inf:
        return float(moduli.max())
    return float(np.mean(moduli**q) ** (1.0 / q))


def support_fraction(moduli: np.ndarray) -> float:
    """Fraction of nodes where |f| exceeds 1e-8 times its maximum."""
    return float(np.mean(moduli > 1e-8 * moduli.max()))


def lq_norm_function(f: FourierFunction, q: float) -> float:
    """L_q(0, 1) norm by uniform-grid quadrature with 8 n_big nodes.

    For q = 2, 4 and 6, |f|^q is a trigonometric polynomial the grid
    integrates exactly, up to rounding.  For other q the error depends on
    how smooth |f|^q is, not on n_big: q = 1 on cos(2 pi 3 t) at n_big = 4
    is off by 3e-3.
    """
    if not q >= 1:
        raise ValueError("q must be >= 1")
    return grid_lq_norm(quadrature_moduli(f), q)


def smooth_sparse_membership(
    f: FourierFunction,
    rho_max: float,
    gamma_max: float,
) -> dict:
    """Check membership in the smoothness/support model
    { ||f'||_L2 <= rho ||f||_L2,  lambda(supp f) <= gamma }.

    measured_rho uses the physical derivative (2 pi times the normalized
    one); measured_gamma is the fraction of quadrature nodes where |f|
    exceeds 1e-8 times its maximum.
    """
    if not (rho_max > 0 and 0 < gamma_max <= 1):
        raise ValueError("need rho_max > 0 and gamma_max in (0, 1]")
    l2 = f.l2_norm()
    if l2 < 1e-14:
        raise ValueError("membership is undefined for the zero function")
    deriv = differentiate(f, "derivative")
    measured_rho = 2.0 * math.pi * deriv.l2_norm() / l2
    measured_gamma = support_fraction(quadrature_moduli(f))
    return {
        "member": bool(measured_rho <= rho_max and measured_gamma <= gamma_max),
        "measured_rho": measured_rho,
        "measured_gamma": measured_gamma,
    }


# -- measurement schemes --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockInstrument:
    """d contiguous frequency blocks of length L tiling [-n_cut, n_cut).

    Every block sums its frequencies with the same +/-1 pattern ``signs`` of
    length L: all ones for deterministic blocks, Rademacher for random ones.
    """

    n_cut: int
    signs: np.ndarray

    def __post_init__(self):
        s, n_cut = np.asarray(self.signs, dtype=float), as_count(self.n_cut, "n_cut")
        if s.ndim != 1 or not s.size or not np.all(np.abs(s) == 1):
            raise ValueError("block signs must be a non-empty +/-1 vector")
        if (2 * n_cut) % s.size != 0:
            raise ValueError(f"block length {s.size} must divide 2 N = {2 * n_cut}")
        object.__setattr__(self, "signs", s)
        object.__setattr__(self, "n_cut", n_cut)

    @property
    def block_len(self) -> int:
        return int(self.signs.size)

    @property
    def n_blocks(self) -> int:
        return 2 * self.n_cut // self.block_len

    def frequency_grid(self) -> np.ndarray:
        """(d, L) array; row l holds the frequencies of block l."""
        return (-self.n_cut + np.arange(2 * self.n_cut)).reshape(self.n_blocks, self.block_len)


def make_block_instrument(
    n_cut: int,
    block_len: int,
    mode: str = "deterministic",
    rng: SeededRng | None = None,
) -> BlockInstrument:
    """Unit signs for deterministic blocks; one Rademacher pattern from ``rng`` otherwise."""
    block_len = as_count(block_len, "block_len")
    if mode == "deterministic":
        return BlockInstrument(n_cut, np.ones(block_len))
    if mode != "rademacher":
        raise ValueError("mode must be 'deterministic' or 'rademacher'")
    if rng is None:
        raise ValueError("rademacher blocks need an RNG for the sign pattern")
    return BlockInstrument(n_cut, rng.rademacher(block_len))


def _block_coeffs(f: FourierFunction, inst: BlockInstrument) -> np.ndarray:
    # (d, L) signed coefficients s_j fhat(k_{l,j}) of the blocks.
    if inst.n_cut > f.n_big:
        raise ValueError("function band does not cover the instrument window")
    return f.coeffs[inst.frequency_grid() + f.n_big] * inst.signs


def _in_block_phases(block_len: int, t_arr: np.ndarray):
    # The (m, 1) turns -2 pi i (t mod 1) of the 1-D translates t_arr and the
    # (m, L) in-block phases exp(-2 pi i j t).
    turns = -2j * np.pi * (t_arr[:, None] % 1.0)
    return turns, np.exp(turns * np.arange(block_len))


def block_measure(f: FourierFunction, inst: BlockInstrument, t):
    """Measurement vector of the translate of f by t; one entry per block.

    Component l is sum_j s_j exp(-2 pi i k_{l,j} t) fhat(k_{l,j}).
    Scalar t gives shape (d,); an array of m translates gives (m, d).

    Block l holds the frequencies k_{l,j} = k_{l,0} + j, so component l
    factors as exp(-2 pi i k_{l,0} t) sum_j s_j fhat(k_{l,j}) exp(-2 pi i j t):
    an (m, d) exponential of the block starts times the (m, L) @ (L, d)
    product of the in-block offsets with the signed coefficients.  Integer
    frequencies make every phase 1-periodic in t, so t is reduced mod 1
    first; this keeps the phase arguments, and their rounding, small for t
    far outside [0, 1) and changes nothing for t inside it.
    """
    turns, phases = _in_block_phases(inst.block_len, np.atleast_1d(np.asarray(t, dtype=float)))
    out = np.exp(turns * inst.frequency_grid()[:, 0]) * (phases @ _block_coeffs(f, inst).T)
    return out[0] if np.asarray(t).ndim == 0 else out


def time_sample_measure(g: FourierFunction, t):
    """Point evaluation g(t) for DC-free g; the scalar sampling functional."""
    _require_dc_free(g, "time sampling requires a DC-free function")
    return evaluate(g, t)


def dyadic_block_frequencies(level: int, n_big: int) -> np.ndarray:
    """Frequencies of dyadic level l: 2^(l-2) < |k| <= 2^(l-1) (level 0 is DC).

    Level 1 is exactly {-1, +1}.  Frequencies outside the carrier band are
    dropped.
    """
    level = as_count(level, "level", least=0)
    if level == 0:
        return np.array([0])
    lo = 2.0 ** (level - 2)
    hi = 2 ** (level - 1)
    mags = np.arange(math.floor(lo) + 1, hi + 1)
    mags = mags[mags > lo]
    ks = np.concatenate([-mags[::-1], mags])
    return ks[(ks >= -n_big) & (ks < n_big)]


def dyadic_measure(g: FourierFunction, t, level: int):
    """Octave-l component of the translate of g: sum over the level's
    frequencies of exp(-2 pi i k t) ghat(k).

    This equals the harmonic-weight functional applied to the translated
    normalized derivative of g, so summing over all levels recovers point
    evaluation.
    """
    ks = dyadic_block_frequencies(level, g.n_big)
    c = g.coeffs[ks + g.n_big]
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.exp(-2j * np.pi * np.outer(t_arr, ks)) @ c
    return complex(out[0]) if np.asarray(t).ndim == 0 else out


def covering_dyadic_level(n_big: int) -> int:
    """Smallest level whose blocks reach every |k| < n_big."""
    return int(math.ceil(math.log2(max(2, n_big)))) + 1


def truncation_level(q: float, s: float, delta: float, c2: float) -> int:
    """Smallest l0 >= 1 with 2^(-2 l0 / q') <= delta / (2 c2 s), q' dual to q.

    This is the level beyond which the dyadic tail provably stays below
    delta/2 once the tail constant c2 is known.
    """
    if not (1.0 < q <= 2.0):
        raise ValueError("q must lie in (1, 2]")
    if not (s > 0 and delta > 0 and c2 > 0):
        raise ValueError("s, delta, c2 must be positive")
    q_dual = q / (q - 1.0)
    ratio = delta / (2.0 * c2 * s)
    if ratio >= 1.0:
        return 1
    if ratio == 0.0:
        raise ValueError(f"delta / (2 C2 s) = {delta:g} / (2 * {c2:g} * {s:g}) "
                         "underflows to 0 in double precision")
    return max(1, int(math.ceil(round(-q_dual / 2.0 * math.log2(ratio), 12))))


# -- the sampling experiment -----------------------------------------------------


def _lags(coeffs: np.ndarray) -> np.ndarray:
    # g(D) = sum_{l, j} c_{l, j + D} conj(c_{l, j}) of the (d, L) coefficients
    # c for D = 0, ..., L - 1: the sums of the subdiagonals of c^T conj(c).
    block_len = coeffs.shape[1]
    return np.array([np.vdot(coeffs[:, :block_len - lag], coeffs[:, lag:])
                     for lag in range(block_len)])


def _prefix_sums(ts: np.ndarray, n_lags: int) -> np.ndarray:
    # The (2, n_lags, len(ts)) sequential prefix sums over ts of cos(2 pi D t)
    # and sin(2 pi D t), row D - 1 for lag D.  One complex exp per translate
    # gives lag 1, and lag D is the real rotation of lag D - 1 by lag 1.  Every
    # step is elementwise in t and cumsum adds in order, so the first m
    # columns equal the sums over ts[:m] bit for bit.
    unit = np.exp(2j * np.pi * ts)
    waves = np.empty((2, n_lags, ts.size))
    cos, sin = waves
    if n_lags:
        cos[0], sin[0] = unit.real, unit.imag
    for row in range(1, n_lags):
        cos[row] = cos[row - 1] * cos[0] - sin[row - 1] * sin[0]
        sin[row] = sin[row - 1] * cos[0] + cos[row - 1] * sin[0]
    return np.cumsum(waves, axis=2)


@dataclass(frozen=True, eq=False)
class DeviationGrid:
    """Translation-average deviations of rip_experiment.

    ``deviations[i, j, t]`` is |average energy - 1| of the function under
    scheme i over the first m_list[j] translates of trial t.  ``details``
    holds ``trials``.
    """

    deviations: np.ndarray
    details: dict


def rip_experiment(
    f: FourierFunction,
    schemes: list[BlockInstrument],
    m_list: list[int],
    trials: int,
    rng: SeededRng,
) -> DeviationGrid:
    """Translation-average deviations of block instruments over translate
    counts, as an (S, M, trials) grid in the given scheme and m orders.

    Each cell is the deviation of f under one draw of translates, not a
    uniform isometry constant (a supremum over the function class for fixed
    translates), and has no side.  Moving f is the same as shifting the
    uniform translates, so one fixed f stands for all its translates.

    Each scheme normalizes f by its window seminorm, which must reach 1e-8.
    Trial t draws ``rng.stream(t).uniform(0.0, 1.0, max(m_list))`` and
    nothing else; the cell records |average energy - 1| over the first m of
    those translates, in the lag form of the module docstring: the lags of
    the scheme's normalized signed coefficients, which take no draw, against
    the exponential sums of the first m translates.  Each trial takes its
    sums once, as sequential prefix sums over all max(m_list) translates, and
    a cell reads its m - 1 column with real elementwise arithmetic, so every
    cell equals a run of rip_experiment on that scheme and m alone.
    """
    schemes, m_list = list(schemes), as_counts(m_list, "m")
    trials = as_count(trials, "trials")
    if not schemes:
        raise ValueError("at least one scheme")
    if f.n_big < 4 * max(inst.n_cut for inst in schemes):
        raise ValueError("carrier band must be at least 4x the scheme cutoff")
    lags = []
    for inst in schemes:
        norm = weighted_seminorm(f, inst.n_cut)
        if not norm >= 1e-8:
            raise ValueError(f"window seminorm {norm:.3g} is below 1e-8")
        lags.append(_lags(_block_coeffs(f, inst) * (1.0 / norm)))
    n_lags = max(inst.block_len for inst in schemes) - 1
    cols, counts = np.array(m_list) - 1, np.array(m_list, dtype=float)[:, None]
    sums = np.empty((2, n_lags, len(m_list), trials))
    for trial, stream in enumerate(rng.streams(range(trials))):
        sums[..., trial] = _prefix_sums(stream.uniform(0.0, 1.0, max(m_list)), n_lags)[..., cols]
    means = sums / counts
    devs = np.empty((len(schemes), len(m_list), trials))
    for i, g in enumerate(lags):
        # Row 0 is g(0) - 1 and row D is 2 Re g(D) S_m(D); cumsum adds the rows
        # in order, so a cell rounds as a grid of that one cell does.
        lag, n = g[1:, None, None], g.size - 1
        terms = np.empty((g.size, len(m_list), trials))
        terms[0] = g[0].real - 1.0
        terms[1:] = 2.0 * (lag.real * means[0, :n] + lag.imag * means[1, :n])
        devs[i] = np.abs(np.cumsum(terms, axis=0)[-1])
    return DeviationGrid(devs, {"trials": trials})
