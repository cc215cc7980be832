"""Sparsity models and the instrument-dependent sparsity parameter.

A model describes a set of unit-norm signals in C^N:

* ``Canonical(k)`` -- at most k nonzero coordinates.
* ``LqCap(q, s)``  -- ||x||_q <= sqrt(s) ||x||_2 (1 <= q <= 2).

Canonical models are measured through their supports, which rip enumerates
or draws, and q-caps through flat witnesses, all made by one kernel,
``_flat_witness``: ``sample_sparse`` applies it to Gaussian rows for the
starts of rip's ascent and for the sketched pairs, and rip applies it at
every ascent step.

``optimize_sparsity_parameter`` finds the exact minimum over q' >= 2 of the
instrument-dependent objective and its gain over the q' = 2 baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instruments import Instrument, instrument_norm
from .numerics import NumericalError, SeededRng, as_count, lq_norm, schatten_norm

__all__ = [
    "Canonical",
    "LqCap",
    "sparsity_level",
    "max_sparsity_level",
    "witness_support_size",
    "sample_sparse",
    "SparsityOptimum",
    "sparsity_parameter_value",
    "optimize_sparsity_parameter",
]


@dataclass(frozen=True)
class Canonical:
    k: int

    def __post_init__(self):
        # 2.5 or nan would fail deep in math.comb.
        object.__setattr__(self, "k", as_count(self.k, "k"))

    def check_ambient(self, n: int) -> int:
        """n as an int, once C^n holds a k-support."""
        n = as_count(n, "ambient")
        if self.k > n:
            raise ValueError(f"k={self.k} exceeds ambient dimension {n}")
        return n


def _check_cap(q: float, s: float | None = None) -> None:
    # The ranges of an l_q cap: 1 <= q <= 2 and, when s is given, s >= 1.
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2]; got {q}")
    if s is not None and not s >= 1.0:
        raise ValueError(f"the l_q cap is empty for s < 1, so no witness exists; got s={s}")


@dataclass(frozen=True)
class LqCap:
    q: float
    s: float

    def __post_init__(self):
        _check_cap(self.q, self.s)

    def check_ambient(self, n: int) -> int:
        """n as an int, once the cap's s is at most max_sparsity_level(q, n):
        a larger s would cap nothing."""
        n = as_count(n, "ambient")
        smax = max_sparsity_level(self.q, n)
        if not self.s <= smax * (1 + 1e-12):
            raise ValueError(f"s must lie in [1, s_max={smax:.6g}]; got {self.s}")
        return n


def sparsity_level(x, q: float) -> float:
    """(||x||_q / ||x||_2)^2 for vectors, the Schatten analogue for matrices.

    This is the smallest s for which x belongs to the q-cap model.
    """
    x = np.asarray(x)
    if not np.any(x):
        raise ValueError("sparsity level of the zero vector is undefined")
    if x.ndim == 2:
        return (schatten_norm(x, q) / schatten_norm(x, 2)) ** 2
    return (lq_norm(x, q) / lq_norm(x, 2)) ** 2


def max_sparsity_level(q: float, n: int) -> float:
    """Largest attainable level in ambient dimension N: N^(2/q - 1)."""
    _check_cap(q)
    return float(as_count(n, "N")) ** (2.0 / q - 1.0)


def witness_support_size(q: float, s: float, n: int) -> int:
    """Largest support size j with j^(2/q - 1) <= s, capped at N.

    A flat-modulus vector on j coordinates has sparsity level exactly
    j^(2/q - 1), so this is the extremal flat witness for the q-cap.
    """
    _check_cap(q, s)
    n = as_count(n, "N")
    if q == 2.0:
        return n
    expo = 1.0 / (2.0 / q - 1.0)
    # Past 2N the cap is N anyway, and s^expo can overflow a float near q = 2.
    if expo * math.log2(s) >= math.log2(n) + 1:
        return n
    return max(1, min(n, int(math.floor(s**expo))))


def _flat_witness(z: np.ndarray, moduli: np.ndarray, j: int) -> np.ndarray:
    """The flat witness of each row of the (B, N) block z: the phases of its
    j largest moduli over sqrt(j), zero elsewhere; a zero entry has phase 1.
    ``moduli`` is np.abs(z), which the caller may already hold."""
    b, n = z.shape
    # One flat index into the C-ordered block serves both gathers and the scatter.
    keep = np.argpartition(moduli, n - j, axis=1)[:, n - j:] + n * np.arange(b)[:, None]
    mags = moduli.ravel()[keep]
    phases = np.divide(z.ravel()[keep], mags, out=np.ones(keep.shape, complex), where=mags > 0)
    x = np.zeros(z.shape, complex)
    x.ravel()[keep] = phases / math.sqrt(j)
    return x


def sample_sparse(model: LqCap, ambient: int, count: int, rng: SeededRng) -> np.ndarray:
    """A (count, ambient) block of random flat witnesses of the q-cap: the
    _flat_witness of a block of i.i.d. complex Gaussian rows, on
    j = witness_support_size(q, s, ambient) coordinates.

    The j largest moduli of such a row are a uniform j-subset and their
    phases are independent and uniform.  Row t holds the real parts, then
    the imaginary parts, of normals 2 t N to 2 (t + 1) N of ``rng``, so a
    draw of r rows is the first r rows of a larger one.
    """
    if not isinstance(model, LqCap):
        raise TypeError(f"expected an LqCap model; got {type(model).__name__}")
    ambient, count = as_count(ambient, "ambient"), as_count(count, "count", least=0)
    # Not rng.complex_normal: it draws every real part before any imaginary
    # part, so its rows would depend on count.
    parts = rng.standard_normal((count, 2, ambient))
    z = parts[:, 0] + 1j * parts[:, 1]
    return _flat_witness(z, np.abs(z), witness_support_size(model.q, model.s, ambient))


# -- the instrument-dependent sparsity parameter -----------------------------

_U_TOL = 1e-12  # the bisection stops once its bracket on u = 1/q' is this narrow


@dataclass(frozen=True)
class SparsityOptimum:
    """Exact minimum of the objective over q' >= 2 and its gain f(2) / value
    over the q' = 2 baseline; gain is exactly 1.0 iff q_opt is exactly 2.0."""

    q_opt: float
    value: float
    gain: float


def sparsity_parameter_value(inst: Instrument, r: float, q_prime: float) -> float:
    """Objective (q')^3 r^(1 - 2/q') ||eta||_{q'}^2 at one exponent q' in [2, inf)."""
    if not r > 0:
        raise ValueError("r must be positive")
    if not (2.0 <= q_prime < math.inf):
        raise ValueError(f"q' must lie in [2, inf); got {q_prime}")
    return q_prime**3 * r ** (1.0 - 2.0 / q_prime) * instrument_norm(inst, q_prime) ** 2


def optimize_sparsity_parameter(inst: Instrument, r: float) -> SparsityOptimum:
    """Minimize the objective f exactly over q' in [2, inf).

    log f(1/u) = -3 log u + (1 - 2u) log r + 2 log ||eta||_{1/u} is strictly
    convex in u (power means are log-convex: Hardy, Littlewood & Polya), so
    bisection on the sign of its slope finds the one minimizer.  The slope of
    log ||eta||_{1/u} is the entropy of the weights |eta_i|^(1/u) / sum_j
    |eta_j|^(1/u).  For u below u_lo = (min(r, 1) ||eta||_inf^2 / f(2))^(1/3),
    f(1/u) >= u^-3 min(r, 1) ||eta||_inf^2 > f(2), so the search runs over
    [u_lo, 1/2], and a minimizer that does not beat f(2) is reported as q' = 2.
    """
    f2 = sparsity_parameter_value(inst, r, 2.0)
    eta = inst.payload
    mags = np.linalg.svd(eta, compute_uv=False) if inst.is_matrix else np.abs(eta)
    top = float(mags.max())
    log_mags, log_r = np.log(mags[mags > 0] / top), math.log(r)

    def slope(u: float) -> float:
        x = log_mags / u
        weights = np.exp(x)
        total = float(weights.sum())
        return -3.0 / u - 2.0 * log_r + 2.0 * (math.log(total) - float(weights @ x) / total)

    lo, hi = (min(r, 1.0) * top**2 / f2) ** (1.0 / 3.0), 0.5
    while hi - lo > _U_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    value = sparsity_parameter_value(inst, r, 1.0 / hi)
    gain = f2 / value
    if math.isinf(gain):
        raise NumericalError(f"the gain over q' = 2 overflows a float at r={r}")
    if gain <= 1.0:
        return SparsityOptimum(q_opt=2.0, value=f2, gain=1.0)
    return SparsityOptimum(q_opt=1.0 / hi, value=value, gain=gain)
