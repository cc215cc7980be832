"""Group actions and the measurement ensembles they generate.

Three unitary representations are supported:

* ``shiftmod``  -- Z_N x Z_N acting on C^N by modulation^t . shift^k.
* ``doubleqft`` -- Z_n^4 acting on n x n matrices by
                   a |-> Mod^k Shift^j a (Shift^j')^* Mod^(-k').
* ``signshift`` -- {-1,1}^N x| Z_N acting on C^N by entrywise signs
                   followed by a cyclic shift.

Index convention: the modulation acts on basis vector e_l (l = 1..N) as
multiplication by exp(2 pi i l / N); a cyclic shift sends e_l to e_{l+1}.
Only global phases depend on this choice and every reported statistic is
phase-invariant.

A measurement row for instrument eta and group element g is the functional
x |-> <sigma(g) eta, x>, scaled by 1/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional, Union

import numpy as np

from .instruments import Instrument
from .numerics import CapacityError, SeededRng, operator_norm

__all__ = [
    "ShiftMod",
    "DoubleQft",
    "SignShift",
    "GroupElement",
    "apply_group",
    "apply_group_adjoint",
    "enumerate_group",
    "sample_group_element",
    "MeasurementEnsemble",
    "sample_ensemble",
    "gaussian_ensemble",
    "compose_gaussian",
    "isotropy_defect",
    "rosenthal_deviation",
]


# -- group elements ---------------------------------------------------------


@dataclass(frozen=True)
class ShiftMod:
    """Modulation^t . Shift^k on C^N."""

    t: int
    k: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        object.__setattr__(self, "t", self.t % self.n)
        object.__setattr__(self, "k", self.k % self.n)


@dataclass(frozen=True)
class DoubleQft:
    """Mod^k Shift^j . (Shift^j')^* Mod^(-k') acting on n x n matrices."""

    k: int
    j: int
    kp: int
    jp: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix side must be >= 1")
        for name in ("k", "j", "kp", "jp"):
            object.__setattr__(self, name, getattr(self, name) % self.n)


@dataclass(frozen=True)
class SignShift:
    """Entrywise signs followed by a cyclic shift on C^N."""

    signs: tuple
    shift: int

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if not signs or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be a non-empty +/-1 tuple")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "shift", self.shift % len(signs))

    @property
    def n(self) -> int:
        return len(self.signs)


GroupElement = Union[ShiftMod, DoubleQft, SignShift]


def _mod_phases(n: int, t: int) -> np.ndarray:
    # exp(2 pi i t l / n) at 1-based index l.
    return np.exp(2j * np.pi * t * np.arange(1, n + 1) / n)


def apply_group(g: GroupElement, x) -> np.ndarray:
    """Apply sigma(g) to x.  DoubleQft accepts an n x n matrix or its
    row-major flattening and returns the same shape it was given."""
    x = np.asarray(x, dtype=complex)
    if isinstance(g, ShiftMod):
        if x.shape != (g.n,):
            raise ValueError(f"expected vector of length {g.n}")
        return np.roll(x, g.k) * _mod_phases(g.n, g.t)
    if isinstance(g, SignShift):
        if x.shape != (g.n,):
            raise ValueError(f"expected vector of length {g.n}")
        return np.roll(np.asarray(g.signs) * x, g.shift)
    if isinstance(g, DoubleQft):
        n = g.n
        flat = x.ndim == 1
        a = x.reshape(n, n) if flat else x
        if a.shape != (n, n):
            raise ValueError(f"expected {n} x {n} matrix (or its flattening)")
        out = np.roll(a, (g.j, g.jp), axis=(0, 1))
        out = out * _mod_phases(n, g.k)[:, None]
        out = out * np.conj(_mod_phases(n, g.kp))[None, :]
        return out.ravel() if flat else out
    raise TypeError(f"unknown group element {type(g).__name__}")


def apply_group_adjoint(g: GroupElement, x) -> np.ndarray:
    """Apply sigma(g)^* (the inverse, up to a global phase)."""
    x = np.asarray(x, dtype=complex)
    if isinstance(g, ShiftMod):
        return np.roll(x * np.conj(_mod_phases(g.n, g.t)), -g.k)
    if isinstance(g, SignShift):
        return np.asarray(g.signs) * np.roll(x, -g.shift)
    if isinstance(g, DoubleQft):
        n = g.n
        flat = x.ndim == 1
        a = x.reshape(n, n) if flat else x
        out = a * np.conj(_mod_phases(n, g.k))[:, None]
        out = np.roll(out, -g.j, axis=0)
        out = out * _mod_phases(n, g.kp)[None, :]
        out = np.roll(out, -g.jp, axis=1)
        return out.ravel() if flat else out
    raise TypeError(f"unknown group element {type(g).__name__}")


def enumerate_group(variant: str, n: int) -> Iterator[GroupElement]:
    """Yield every element of the chosen group over dimension n."""
    if variant == "shiftmod":
        for t in range(n):
            for k in range(n):
                yield ShiftMod(t, k, n)
    elif variant == "doubleqft":
        for k, j, kp, jp in product(range(n), repeat=4):
            yield DoubleQft(k, j, kp, jp, n)
    elif variant == "signshift":
        for signs in product((-1, 1), repeat=n):
            for shift in range(n):
                yield SignShift(signs, shift)
    else:
        raise ValueError(f"unknown group variant {variant!r}")


def sample_group_element(variant: str, n: int, rng: SeededRng) -> GroupElement:
    if variant == "shiftmod":
        t, k = rng.integers(0, n, 2)
        return ShiftMod(int(t), int(k), n)
    if variant == "doubleqft":
        k, j, kp, jp = rng.integers(0, n, 4)
        return DoubleQft(int(k), int(j), int(kp), int(jp), n)
    if variant == "signshift":
        signs = tuple(int(s) for s in rng.rademacher(n))
        return SignShift(signs, int(rng.integers(0, n)))
    raise ValueError(f"unknown group variant {variant!r}")


def _element_record(g: GroupElement):
    if isinstance(g, ShiftMod):
        return ["shiftmod", g.t, g.k]
    if isinstance(g, DoubleQft):
        return ["doubleqft", g.k, g.j, g.kp, g.jp]
    return ["signshift", list(g.signs), g.shift]


# -- ensembles --------------------------------------------------------------


@dataclass
class MeasurementEnsemble:
    """m measurement functionals over C^dim, optionally composed with a
    Gaussian reduction stage.

    ``rows[j]`` stores conj(sigma(g_j) eta) / sqrt(m), so application is a
    plain matrix product.
    """

    rows: np.ndarray
    provenance: dict = field(default_factory=dict)
    gaussian_stage: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    @property
    def m(self) -> int:
        op = self.effective_operator()
        return int(op.shape[0])

    def effective_operator(self) -> np.ndarray:
        if self.gaussian_stage is None:
            return self.rows
        return self.gaussian_stage @ self.rows

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex).ravel()
        if x.size != self.dim:
            raise ValueError(f"expected input of dimension {self.dim}")
        return self.effective_operator() @ x


_SIGN_MODES = ("none", "random_sign", "absorbed")


def sample_ensemble(
    inst: Instrument,
    variant: str,
    m: int,
    sign_mode: str | None = "none",
    rng: SeededRng | None = None,
) -> MeasurementEnsemble:
    """Draw m i.i.d. group elements and build the scaled measurement rows.

    sign_mode:
      "none"        -- rows are sigma(g_j) eta as-is.
      "random_sign" -- one Rademacher diagonal, shared by all rows.
      "absorbed"    -- a fresh (signs, shift) pair per row, i.e. each row is
                       additionally hit by an independent element of the sign
                       x shift group (vector instruments only).
    """
    if rng is None:
        raise ValueError("an explicit SeededRng is required")
    if m < 1:
        raise ValueError("m must be >= 1")
    mode = "none" if sign_mode is None else str(sign_mode)
    if mode not in _SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {_SIGN_MODES}; got {sign_mode!r}")

    if variant == "doubleqft":
        if not inst.is_matrix:
            raise ValueError("doubleqft requires a matrix instrument")
        n = inst.payload.shape[0]
        if mode == "absorbed":
            raise ValueError("absorbed signs are defined for vector instruments only")
    else:
        if inst.is_matrix:
            raise ValueError(f"variant {variant!r} requires a vector instrument")
        n = inst.payload.shape[0]

    dim = inst.ambient_dim
    rows = np.empty((m, dim), dtype=complex)
    elements = []
    prov: dict = {
        "variant": variant,
        "sign_mode": mode,
        "m": int(m),
        "instrument_kind": inst.kind,
        "instrument_params": dict(inst.params),
        "seed": rng.seed,
        "stream": rng.stream_index,
        "spawn_key": list(rng.spawn_key),
    }

    shared_sign = None
    if mode == "random_sign":
        shared_sign = rng.rademacher(dim)
        prov["shared_sign"] = [int(s) for s in shared_sign]

    absorbed = []
    for j in range(m):
        g = sample_group_element(variant, n, rng)
        elements.append(_element_record(g))
        v = apply_group(g, inst.payload)
        v = np.asarray(v).ravel()
        if mode == "random_sign":
            v = shared_sign * v
        elif mode == "absorbed":
            eps = rng.rademacher(dim)
            shift = int(rng.integers(0, dim))
            v = np.roll(eps * v, shift)
            absorbed.append([[int(s) for s in eps], shift])
        rows[j] = np.conj(v)
    rows /= math.sqrt(m)

    prov["elements"] = elements
    if absorbed:
        prov["absorbed_signs"] = absorbed
    return MeasurementEnsemble(rows=rows, provenance=prov)


def gaussian_ensemble(dim: int, m: int, rng: SeededRng) -> MeasurementEnsemble:
    """Plain Gaussian comparison ensemble: real N(0, 1/m) rows."""
    if m < 1 or dim < 1:
        raise ValueError("m and dim must be >= 1")
    rows = rng.standard_normal((m, dim)) / math.sqrt(m)
    prov = {"variant": "gaussian", "m": int(m), "dim": int(dim),
            "seed": rng.seed, "stream": rng.stream_index, "spawn_key": list(rng.spawn_key)}
    return MeasurementEnsemble(rows=rows.astype(complex), provenance=prov)


def compose_gaussian(
    ens: MeasurementEnsemble,
    m_out: int,
    rng: SeededRng,
    identity_stage: bool = False,
) -> MeasurementEnsemble:
    """Append a Gaussian reduction: effective operator becomes Xi . A with Xi
    an m_out x m matrix of N(0, 1/m_out) entries.

    identity_stage=True installs Xi = Id (requires m_out == m); this is a
    test hook that keeps the measurement values unchanged.
    """
    m_in = ens.rows.shape[0]
    if ens.gaussian_stage is not None:
        raise ValueError("ensemble already carries a Gaussian stage")
    if m_out < 1:
        raise ValueError("m_out must be >= 1")
    if identity_stage:
        if m_out != m_in:
            raise ValueError("identity stage requires m_out == m")
        stage = np.eye(m_in)
    else:
        stage = rng.standard_normal((m_out, m_in)) / math.sqrt(m_out)
    prov = dict(ens.provenance)
    prov["gaussian_stage"] = {"m_out": int(m_out), "identity": bool(identity_stage),
                              "seed": rng.seed, "stream": rng.stream_index,
                              "spawn_key": list(rng.spawn_key)}
    return MeasurementEnsemble(rows=ens.rows, provenance=prov, gaussian_stage=stage)


# -- isotropy and moment deviation ------------------------------------------

_ISOTROPY_CAPS = {"shiftmod": 16, "doubleqft": 4, "signshift": 8}


def isotropy_defect(inst: Instrument, variant: str) -> float:
    """Operator-norm distance between the exact group average
    (1/|G|) sum_g sigma(g)^* eta eta^* sigma(g) and the identity.

    The group is enumerated exhaustively, so the dimension caps are hard:
    N <= 16 for shiftmod, n <= 4 for doubleqft, N <= 8 for signshift.
    """
    if variant not in _ISOTROPY_CAPS:
        raise ValueError(f"unknown group variant {variant!r}")
    if variant == "doubleqft":
        if not inst.is_matrix:
            raise ValueError("doubleqft requires a matrix instrument")
        n = inst.payload.shape[0]
        order = n**4
    else:
        if inst.is_matrix:
            raise ValueError(f"variant {variant!r} requires a vector instrument")
        n = inst.payload.shape[0]
        order = n * n if variant == "shiftmod" else (2**n) * n
    cap = _ISOTROPY_CAPS[variant]
    if n > cap:
        raise CapacityError(
            f"isotropy_defect enumerates the full group; {variant} is capped at {cap} (got {n})"
        )

    dim = inst.ambient_dim
    orbit = np.empty((order, dim), dtype=complex)
    for i, g in enumerate(enumerate_group(variant, n)):
        orbit[i] = np.asarray(apply_group(g, inst.payload)).ravel()
    # (1/|G|) sum_g v_g v_g^*; closure under inverses makes the adjoint
    # orientation of the definition give the same sum.
    avg = orbit.T @ np.conj(orbit) / order
    return operator_norm(avg - np.eye(dim))


def _conjugated_gram_shiftmod(w: np.ndarray, t: int, k: int, phase_table: np.ndarray) -> np.ndarray:
    rolled = np.roll(w, (-k, -k), axis=(0, 1))
    return rolled * phase_table[t]


def rosenthal_deviation(
    u,
    variant: str,
    m_list,
    trials: int,
    rng: SeededRng,
) -> list[dict]:
    """Empirical second-moment deviation of a compression u under random
    group conjugation: for each M, the operator norm of
    (1/M) sum_j sigma(g_j)^* u^* u sigma(g_j) - Id, over independent trials.

    u is d x N with tr(u^* u) = N (the isotropic scaling).  Returns one record
    per M with the raw deviations plus their median and mean.  Trials use
    per-trial RNG streams, so results do not depend on execution order.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError("u must be a d x N matrix")
    d, n = u.shape
    tr = float(np.linalg.norm(u) ** 2)
    if abs(tr - n) > 1e-8 * n:
        raise ValueError(f"u must satisfy tr(u^* u) = N; got {tr:.12g} for N={n}")
    m_list = [int(m) for m in m_list]
    if any(m < 1 for m in m_list) or trials < 1:
        raise ValueError("all M and trials must be >= 1")

    w = u.conj().T @ u
    eye = np.eye(n)

    if variant == "shiftmod":
        diff = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        phase_table = roots[(np.arange(n)[:, None, None] * diff[None, :, :]) % n]

        def accumulate(stream: SeededRng, m: int) -> np.ndarray:
            ts = stream.integers(0, n, m)
            ks = stream.integers(0, n, m)
            acc = np.zeros((n, n), dtype=complex)
            for t, k in zip(ts, ks):
                acc += _conjugated_gram_shiftmod(w, int(t), int(k), phase_table)
            return acc

    elif variant == "signshift":

        def accumulate(stream: SeededRng, m: int) -> np.ndarray:
            acc = np.zeros((n, n), dtype=complex)
            for _ in range(m):
                eps = stream.rademacher(n).astype(float)
                shift = int(stream.integers(0, n))
                rolled = np.roll(w, (-shift, -shift), axis=(0, 1))
                acc += rolled * np.outer(eps, eps)
            return acc

    elif variant == "doubleqft":
        side = math.isqrt(n)
        if side * side != n:
            raise ValueError("doubleqft requires N to be a perfect square (matrix side^2)")

        def accumulate(stream: SeededRng, m: int) -> np.ndarray:
            # S^H W S computed column-by-column: first W S (rows hit from the
            # right), then S^H applied to each column.
            acc = np.zeros((n, n), dtype=complex)
            for _ in range(m):
                g = sample_group_element("doubleqft", side, stream)
                tmp = np.empty((n, n), dtype=complex)
                for r in range(n):
                    tmp[r, :] = np.conj(apply_group_adjoint(g, np.conj(w[r, :])))
                for c in range(n):
                    tmp[:, c] = apply_group_adjoint(g, np.ascontiguousarray(tmp[:, c]))
                acc += tmp
            return acc

    else:
        raise ValueError(f"unknown group variant {variant!r}")

    results = []
    for mi, m in enumerate(m_list):
        devs = np.empty(trials)
        for trial in range(trials):
            stream = rng.stream(trial * len(m_list) + mi)
            acc = accumulate(stream, m)
            devs[trial] = operator_norm(acc / m - eye)
        results.append(
            {
                "M": m,
                "median": float(np.median(devs)),
                "mean": float(devs.mean()),
                "deviations": devs.tolist(),
            }
        )
    return results
