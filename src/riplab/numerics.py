"""Shared numerical primitives: vector/matrix norms and reproducible RNG streams.

All vectors and matrices are complex numpy arrays.  The inner product
convention is <u, v> = sum_j conj(u_j) v_j (np.vdot order).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CapacityError",
    "NumericalError",
    "lq_norm",
    "schatten_norm",
    "operator_norm",
    "SeededRng",
]


class CapacityError(RuntimeError):
    """A requested computation exceeds the documented enumeration/search budget."""


class NumericalError(RuntimeError):
    """A computation failed to reach its documented accuracy."""


def lq_norm(x, q: float) -> float:
    """l_q norm of a vector, q in [1, inf].

    q = math.inf is an explicit branch (max modulus), not a large-float
    approximation.  Moduli are rescaled by their maximum before powering so
    that large q does not overflow.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("lq_norm expects a vector; use schatten_norm for matrices")
    if x.size == 0:
        raise ValueError("lq_norm of an empty vector is undefined here")
    if q != math.inf and q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    mags = np.abs(x)
    top = float(mags.max())
    if q == math.inf or top == 0.0:
        return top
    return top * float(np.sum((mags / top) ** q)) ** (1.0 / q)


def schatten_norm(a, q: float) -> float:
    """Schatten-q norm: l_q norm of the singular value vector."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("schatten_norm expects a matrix")
    sv = np.linalg.svd(a, compute_uv=False)
    return lq_norm(sv.astype(complex), q)


def operator_norm(a) -> float:
    """Largest singular value, via a deterministic dense decomposition."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ValueError("operator_norm expects a matrix")
    return float(np.linalg.svd(a, compute_uv=False)[0])


class SeededRng:
    """Reproducible random source addressed by (seed, spawn key).

    ``SeededRng(seed, stream)`` is a root on the spawn key ``(stream,)``, and
    ``stream(i)`` derives a child on the parent's key followed by ``i``.  Two
    instances with the same seed and key yield bit-identical draw sequences;
    distinct keys give independent sequences, so a child replays neither its
    parent, nor a sibling, nor a root.  Per-trial children are conventionally
    indexed by trial, so that serial and parallel execution orders agree.
    """

    def __init__(self, seed: int, stream: int = 0, parent_key: tuple = ()):
        self.seed = int(seed)
        self.stream_index = int(stream)
        # One 32-bit word per index keeps distinct keys distinct once
        # SeedSequence flattens them into words.
        if not 0 <= self.stream_index < 2**32:
            raise ValueError(f"stream index must lie in [0, 2^32); got {stream}")
        self.spawn_key = (*parent_key, self.stream_index)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def stream(self, index: int) -> "SeededRng":
        """Child source on the spawn key ``self.spawn_key + (index,)``."""
        return SeededRng(self.seed, index, self.spawn_key)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    # -- draw helpers ------------------------------------------------------

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def complex_normal(self, size=None):
        """Standard complex Gaussian: E|z|^2 = 1."""
        re = self._gen.standard_normal(size)
        im = self._gen.standard_normal(size)
        return (re + 1j * im) / math.sqrt(2.0)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def rademacher(self, size):
        return 2 * self._gen.integers(0, 2, size) - 1

    def unit_phases(self, size):
        return np.exp(2j * np.pi * self._gen.uniform(0.0, 1.0, size))

    def choice_no_replace(self, n: int, k: int):
        return self._gen.choice(n, size=k, replace=False)
