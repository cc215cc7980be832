"""Measurement instruments: the fixed vector (or matrix) each group orbit moves.

Normalization convention, enforced at construction to relative tolerance
1e-10: ||eta||_F = sqrt(eta.size), i.e. ||eta||_2 = sqrt(N) for a vector in
C^N and ||eta||_S2 = n for a matrix in C^{n,n}.

This makes the associated group averages isotropic, which is what every
downstream estimator assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, as_count, lq_norm, schatten_norm

__all__ = [
    "Instrument",
    "make_flat",
    "make_decaying_window",
    "make_scaled_identity",
    "make_schatten_decay",
    "instrument_norm",
]

_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Instrument:
    kind: str
    payload: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.payload, dtype=complex)
        object.__setattr__(self, "payload", p)
        if p.ndim not in (1, 2) or p.ndim == 2 and p.shape[0] != p.shape[1]:
            raise ValueError("instrument payload must be a vector or a square matrix")
        if p.size < 1:
            raise ValueError("instrument payload must be non-empty")
        norm, target = float(np.linalg.norm(p)), math.sqrt(p.size)
        if not abs(norm - target) <= _TOL * target:
            raise ValueError(f"instrument must satisfy ||eta||_F = sqrt(size); "
                             f"got {norm:.12g} for size {p.size}")

    @property
    def is_matrix(self) -> bool:
        return self.payload.ndim == 2

    @property
    def ambient_dim(self) -> int:
        """Dimension of the space measurements live in (n^2 for matrices)."""
        return int(self.payload.size)


def make_flat(n: int) -> Instrument:
    """All-ones vector of length N; the maximally spread instrument."""
    return Instrument("flat", np.ones(as_count(n, "N"), dtype=complex))


def make_decaying_window(n: int, n_window: int, alpha: float) -> Instrument:
    """Polynomially decaying window: entry j (1-based) is c * j^(-alpha) for
    j <= n_window and 0 beyond, with c chosen so ||eta||_2 = sqrt(N).

    Requires 0 < alpha < 1/2 and 1 <= n_window <= N.
    """
    n, n_window = as_count(n, "N"), as_count(n_window, "window length")
    if n_window > n:
        raise ValueError(f"window length must lie in [1, N]; got {n_window} for N={n}")
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"decay exponent must lie in (0, 1/2); got {alpha}")
    j = np.arange(1, n_window + 1, dtype=float)
    profile = j ** (-alpha)
    c = math.sqrt(n / float(np.sum(profile**2)))
    payload = np.zeros(n, dtype=complex)
    payload[:n_window] = c * profile
    return Instrument("decaying_window", payload)


def make_scaled_identity(n: int) -> Instrument:
    """sqrt(n) * Id_n, the flat matrix instrument (all singular values equal)."""
    n = as_count(n, "n")
    return Instrument("scaled_identity", math.sqrt(n) * np.eye(n, dtype=complex))


def _haar_unitary(n: int, rng: SeededRng) -> np.ndarray:
    # QR of a complex Ginibre matrix; fixing the R-diagonal phases makes Q Haar.
    g = rng.complex_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def make_schatten_decay(n: int, alpha: float, rng: SeededRng) -> Instrument:
    """Random matrix with singular values c * j^(-alpha), j = 1..n, scaled so
    ||eta||_S2 = n.  Singular vector frames are Haar unitaries.
    """
    n = as_count(n, "n")
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"decay exponent must lie in (0, 1/2); got {alpha}")
    j = np.arange(1, n + 1, dtype=float)
    sv = j ** (-alpha)
    sv *= n / math.sqrt(float(np.sum(sv**2)))
    u = _haar_unitary(n, rng)
    v = _haar_unitary(n, rng)
    payload = (u * sv) @ v.conj().T
    return Instrument("schatten_decay", payload)


def instrument_norm(inst: Instrument, q: float) -> float:
    """l_q norm for vector instruments, Schatten-q norm for matrix ones."""
    if inst.is_matrix:
        return schatten_norm(inst.payload, q)
    return lq_norm(inst.payload, q)

