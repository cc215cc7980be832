"""Sparsity models and the instrument-dependent sparsity parameter.

A model describes a set of unit-norm signals in C^N:

* ``Canonical(k)`` -- at most k nonzero coordinates.
* ``LqCap(q, s)``  -- ||x||_q <= sqrt(s) ||x||_2 (1 <= q <= 2).

``sample_sparse`` draws witnesses from either model and ``project_witness``
maps a vector back onto one; the projected ascent in rip uses both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instruments import Instrument, instrument_norm
from .numerics import SeededRng, lq_norm, schatten_norm

__all__ = [
    "Canonical",
    "LqCap",
    "SparsityModel",
    "sparsity_level",
    "max_sparsity_level",
    "witness_support_size",
    "sample_sparse",
    "project_witness",
    "SparsityCurve",
    "sparsity_parameter_value",
    "optimize_sparsity_parameter",
]


@dataclass(frozen=True)
class Canonical:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class LqCap:
    q: float
    s: float

    def __post_init__(self):
        if not (1.0 <= self.q <= 2.0):
            raise ValueError(f"q must lie in [1, 2]; got {self.q}")
        if self.s < 1.0:
            raise ValueError(f"the l_q cap is empty for s < 1; got s={self.s}")


SparsityModel = Canonical | LqCap


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
    if not (1.0 <= q <= 2.0):
        raise ValueError(f"q must lie in [1, 2]; got {q}")
    if n < 1:
        raise ValueError("N must be >= 1")
    return float(n) ** (2.0 / q - 1.0)


def witness_support_size(q: float, s: float, n: int) -> int:
    """Largest support size j with j^(2/q - 1) <= s, capped at N.

    A flat-modulus vector on j coordinates has sparsity level exactly
    j^(2/q - 1), so this is the extremal flat witness for the q-cap.
    """
    if s < 1.0:
        raise ValueError("no witness exists for s < 1")
    if q == 2.0:
        return n
    expo = 1.0 / (2.0 / q - 1.0)
    # Past 2N the cap is N anyway, and s^expo can overflow a float near q = 2.
    if expo * math.log2(s) >= math.log2(n) + 1:
        return n
    return max(1, min(n, int(math.floor(s**expo))))


def _unit(x: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(x)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return x / nrm


def sample_sparse(model: SparsityModel, ambient: int, rng: SeededRng) -> np.ndarray:
    """Random unit-norm member of the model's witness family in C^ambient."""
    if isinstance(model, Canonical):
        if model.k > ambient:
            raise ValueError(f"k={model.k} exceeds ambient dimension {ambient}")
        support = rng.choice_no_replace(ambient, model.k)
        x = np.zeros(ambient, dtype=complex)
        x[support] = rng.complex_normal(model.k)
        return _unit(x)

    if isinstance(model, LqCap):
        j = witness_support_size(model.q, model.s, ambient)
        support = rng.choice_no_replace(ambient, j)
        x = np.zeros(ambient, dtype=complex)
        x[support] = rng.unit_phases(j) / math.sqrt(j)
        return x

    raise TypeError(f"unknown sparsity model {type(model).__name__}")


# -- witness projections (used by the ascent refinement in rip) -------------


def _top_support(z: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest moduli in each row of z."""
    n = z.shape[1]
    return np.argpartition(np.abs(z), n - k, axis=1)[:, n - k:]


def project_witness(model: SparsityModel, z) -> np.ndarray:
    """Map an arbitrary vector to a nearby unit member of the witness family.

    ``z`` is one vector or a ``(B, N)`` block of rows; the ambient dimension
    N is read off ``z``.  A block returns a ``(B, N)`` block whose row i is
    bit-identical to the projection of ``z[i]`` on its own.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 2:
        return _project_rows(model, z)
    return _project_rows(model, z.ravel()[None, :])[0]


def _project_rows(model: SparsityModel, z: np.ndarray) -> np.ndarray:
    ambient = z.shape[1]
    if not np.all(np.any(z, axis=1)):
        raise ValueError("cannot project the zero vector")

    if isinstance(model, Canonical):
        keep = _top_support(z, min(model.k, ambient))
        x = np.zeros_like(z)
        np.put_along_axis(x, keep, np.take_along_axis(z, keep, axis=1), axis=1)
        # Row by row: a norm along axis 1 sums in another order than the 1-D norm.
        return np.array([_unit(row) for row in x]).reshape(z.shape)

    if isinstance(model, LqCap):
        j = witness_support_size(model.q, model.s, ambient)
        keep = _top_support(z, j)
        kept = np.take_along_axis(z, keep, axis=1)
        mags = np.abs(kept)
        phases = np.where(mags > 0, kept / np.where(mags > 0, mags, 1.0), 1.0)
        x = np.zeros_like(z)
        np.put_along_axis(x, keep, phases / math.sqrt(j), axis=1)
        return x

    raise TypeError(f"unknown sparsity model {type(model).__name__}")


# -- the instrument-dependent sparsity parameter -----------------------------


@dataclass(frozen=True)
class SparsityCurve:
    """Objective values q' |-> (q')^3 r^(1 - 2/q') ||eta||_{q'}^2 on a grid."""

    q_grid: tuple
    values: tuple
    q_opt: float
    value: float


def sparsity_parameter_value(inst: Instrument, r: float, q_prime: float) -> float:
    """Objective at a single exponent q' in (2, inf)."""
    if r <= 0:
        raise ValueError("r must be positive")
    if not (q_prime > 2.0):
        raise ValueError(f"q' must exceed 2; got {q_prime}")
    if q_prime == math.inf:
        raise ValueError("evaluate the capped infinity entry via optimize_sparsity_parameter")
    return q_prime**3 * r ** (1.0 - 2.0 / q_prime) * instrument_norm(inst, q_prime) ** 2


def optimize_sparsity_parameter(
    inst: Instrument,
    r: float,
    q_min: float = 2.001,
    q_max: float = 128.0,
    points: int = 200,
) -> SparsityCurve:
    """Minimize the sparsity-parameter objective over a log-spaced grid.

    The grid covers (2, q_max] and ends with an infinity entry, which uses the
    limiting norm ||eta||_inf with the cubic factor capped at q_max^3 (the
    literal limit diverges, so the entry is reported as a capped candidate only).
    Ties resolve to the smaller exponent.
    """
    if not (2.0 < q_min < q_max):
        raise ValueError("need 2 < q_min < q_max")
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    grid = list(np.geomspace(q_min, q_max, points))
    values = [sparsity_parameter_value(inst, r, q) for q in grid]
    grid.append(math.inf)
    values.append(q_max**3 * float(r) * instrument_norm(inst, math.inf) ** 2)
    best = int(np.argmin(values))  # argmin takes the first hit: smaller q' wins ties
    return SparsityCurve(
        q_grid=tuple(float(q) for q in grid),
        values=tuple(float(v) for v in values),
        q_opt=float(grid[best]),
        value=float(values[best]),
    )
