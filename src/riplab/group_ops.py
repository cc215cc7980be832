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

All three are monomial unitaries: a coordinate permutation times
unit-modulus phases (doubleqft on the row-major flattening of its n x n
matrices).  ``monomial`` turns a batch of B elements into one ``Monomial``
of (B, dim) index and phase arrays, so sigma(g) x is ``x[perm] * phase``,
and every group action here (``apply_group``, ensemble rows, isotropy
orbits, the moment-deviation scan) is a gather through that one form.

A measurement row for instrument eta and group element g is the functional
x |-> <sigma(g) eta, x>, scaled by 1/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
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
    "Monomial",
    "monomial",
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
    "group_side",
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
        signs = tuple(self.signs)
        # Check the values before converting them, so 1.5 is not truncated to 1.
        if not signs or not set(signs) <= {1, -1}:
            raise ValueError("signs must be a non-empty +/-1 tuple")
        object.__setattr__(self, "signs", tuple(map(int, signs)))
        object.__setattr__(self, "shift", self.shift % len(signs))

    @property
    def n(self) -> int:
        return len(self.signs)


GroupElement = Union[ShiftMod, DoubleQft, SignShift]
_VARIANTS = ("shiftmod", "doubleqft", "signshift")


# -- monomial form ----------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """A batch of B monomial unitaries on C^dim.

    Element b maps x to ``x[perm[b]] * phase[b]``: a coordinate gather
    followed by unit-modulus phases.  Its adjoint, which is also its
    inverse, gathers by the inverse permutation and multiplies by the
    conjugate phases taken at that inverse.
    """

    perm: np.ndarray  # (B, dim) gather indices
    phase: np.ndarray  # (B, dim) unit-modulus complex

    @property
    def dim(self) -> int:
        return int(self.perm.shape[1])

    def apply(self, x) -> np.ndarray:
        """A (dim,) vector gives its (B, dim) orbit; a (B, dim) block is
        mapped row by row, row b by element b."""
        x = np.asarray(x, dtype=complex)
        if x.shape == (self.dim,):
            return x[self.perm] * self.phase
        if x.shape == self.perm.shape:
            return np.take_along_axis(x, self.perm, axis=1) * self.phase
        raise ValueError(f"expected shape ({self.dim},) or {self.perm.shape}; got {x.shape}")

    def adjoint(self) -> Monomial:
        inv = np.empty_like(self.perm)
        np.put_along_axis(inv, self.perm, np.broadcast_to(np.arange(self.dim), inv.shape), axis=1)
        return Monomial(inv, np.conj(np.take_along_axis(self.phase, inv, axis=1)))


def _mod_phases(n: int, t) -> np.ndarray:
    # exp(2 pi i t l / n) at 1-based index l, one row per entry of t; each
    # distinct t is evaluated once.
    values, rows = np.unique(np.asarray(t), return_inverse=True)
    return np.exp(2j * np.pi * values[:, None] * np.arange(1, n + 1) / n)[rows]


def _cyclic(n: int, shift) -> np.ndarray:
    # Gather indices of cyclic shifts: row b moves entry l to l + shift[b].
    return (np.arange(n) - np.asarray(shift)[:, None]) % n


def _shiftmod_batch(t, k, n: int) -> Monomial:
    return Monomial(_cyclic(n, k), _mod_phases(n, t))


def _signshift_batch(signs, shift) -> Monomial:
    signs = np.asarray(signs)
    perm = _cyclic(signs.shape[1], shift)
    return Monomial(perm, np.take_along_axis(signs, perm, axis=1).astype(complex))


def _doubleqft_batch(k, j, kp, jp, n: int) -> Monomial:
    # Row-major flattening: entry (r, c) of the image of a is
    # a[r - j, c - jp] * mod^k[r] * conj(mod^kp[c]).
    perm = _cyclic(n, j)[:, :, None] * n + _cyclic(n, jp)[:, None, :]
    phase = _mod_phases(n, k)[:, :, None] * np.conj(_mod_phases(n, kp))[:, None, :]
    return Monomial(perm.reshape(-1, n * n), phase.reshape(-1, n * n))


def monomial(elements) -> Monomial:
    """The (perm, phase) batch of a non-empty sequence of elements of one
    group over one dimension.  DoubleQft acts on row-major flattenings."""
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one group element")
    kind = type(elements[0])
    if kind not in (ShiftMod, DoubleQft, SignShift):
        raise TypeError(f"unknown group element {kind.__name__}")
    n = elements[0].n
    if any(type(g) is not kind or g.n != n for g in elements):
        raise ValueError("elements must come from one group over one dimension")
    if kind is ShiftMod:
        return _shiftmod_batch([g.t for g in elements], [g.k for g in elements], n)
    if kind is DoubleQft:
        return _doubleqft_batch(*np.array([(g.k, g.j, g.kp, g.jp) for g in elements]).T, n)
    return _signshift_batch([g.signs for g in elements], [g.shift for g in elements])


def _apply_one(op: Monomial, g: GroupElement, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    shapes = ((g.n * g.n,), (g.n, g.n)) if isinstance(g, DoubleQft) else ((g.n,),)
    if x.shape not in shapes:
        raise ValueError(f"expected input of shape {' or '.join(map(str, shapes))}; got {x.shape}")
    return op.apply(x.ravel())[0].reshape(x.shape)


def apply_group(g: GroupElement, x) -> np.ndarray:
    """Apply sigma(g) to x.  DoubleQft accepts an n x n matrix or its
    row-major flattening and returns the same shape it was given."""
    return _apply_one(monomial([g]), g, x)


def apply_group_adjoint(g: GroupElement, x) -> np.ndarray:
    """Apply sigma(g)^*, the inverse of sigma(g)."""
    return _apply_one(monomial([g]).adjoint(), g, x)


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
        signs = tuple(rng.rademacher(n).tolist())
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

    n = group_side(inst, variant)
    if mode == "absorbed" and inst.is_matrix:
        raise ValueError("absorbed signs are defined for vector instruments only")

    dim = inst.ambient_dim
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

    # Draws stay per row, in row order; the rows themselves are one gather.
    group, signs, shifts = [], [], []
    for _ in range(m):
        group.append(sample_group_element(variant, n, rng))
        if mode == "absorbed":
            signs.append(rng.rademacher(dim))
            shifts.append(int(rng.integers(0, dim)))
    rows = monomial(group).apply(inst.payload.ravel())
    if mode == "random_sign":
        rows = shared_sign * rows
    elif mode == "absorbed":
        rows = _signshift_batch(signs, shifts).apply(rows)
        prov["absorbed_signs"] = [[eps.tolist(), shift]
                                  for eps, shift in zip(signs, shifts)]
    rows = np.conj(rows)
    rows /= math.sqrt(m)

    prov["elements"] = [_element_record(g) for g in group]
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

# Complex entries of one gathered block of the moment-deviation scan
# (256 KB); larger blocks only add their temporaries to the peak memory.
_GRAM_CHUNK_ENTRIES = 1 << 14


def isotropy_defect(inst: Instrument, variant: str) -> float:
    """Operator-norm distance between the exact group average
    (1/|G|) sum_g sigma(g)^* eta eta^* sigma(g) and the identity.

    The group is enumerated exhaustively, so the dimension caps are hard:
    N <= 16 for shiftmod, n <= 4 for doubleqft, N <= 8 for signshift.
    """
    n = group_side(inst, variant)
    cap = _ISOTROPY_CAPS[variant]
    if n > cap:
        raise CapacityError(
            f"isotropy_defect enumerates the full group; {variant} is capped at {cap} (got {n})"
        )

    orbit = monomial(enumerate_group(variant, n)).apply(inst.payload.ravel())
    # (1/|G|) sum_g v_g v_g^*; closure under inverses makes the adjoint
    # orientation of the definition give the same sum.
    avg = orbit.T @ np.conj(orbit) / len(orbit)
    return operator_norm(avg - np.eye(inst.ambient_dim))


def _scan_draws(variant: str, n: int, m: int, rng: SeededRng):
    # The parameters of m elements, and a function that builds the monomial
    # of any slice of them.  The draw order is sample_group_element's, except
    # that shiftmod draws all m modulations, then all m shifts.
    if variant == "shiftmod":
        t = rng.integers(0, n, m)
        return partial(_shiftmod_batch, n=n), (t, rng.integers(0, n, m))
    if variant == "signshift":
        draws = [(rng.rademacher(n), rng.integers(0, n)) for _ in range(m)]
        return _signshift_batch, (np.array([eps for eps, _ in draws]),
                                  np.array([k for _, k in draws]))
    if variant == "doubleqft":
        params = np.array([rng.integers(0, n, 4) for _ in range(m)])
        return partial(_doubleqft_batch, n=n), tuple(params.T)
    raise ValueError(f"unknown group variant {variant!r}")


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

    The sum is the Gram matrix V^* V of the stacked d x N blocks
    V_j = u sigma(g_j).  Each block is a gather of u's columns times phases,
    so a trial costs one gather and one matrix product per chunk of
    elements.  A chunk holds at most 2^14 complex entries of V (one element
    per chunk when d N exceeds that), and its monomials are built from the
    trial's drawn parameters chunk by chunk, so memory stays bounded in M.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError("u must be a d x N matrix")
    d, n = u.shape
    tr = float(np.linalg.norm(u) ** 2)
    if abs(tr - n) > 1e-8 * n:
        raise ValueError(f"u must satisfy tr(u^* u) = N; got {tr:.12g} for N={n}")
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise ValueError("m_list needs at least one M")
    if any(m < 1 for m in m_list) or trials < 1:
        raise ValueError("all M and trials must be >= 1")
    side = n
    if variant == "doubleqft":
        side = math.isqrt(n)
        if side * side != n:
            raise ValueError("doubleqft requires N to be a perfect square (matrix side^2)")

    eye = np.eye(n)
    chunk = max(1, _GRAM_CHUNK_ENTRIES // (d * n))
    results = []
    for mi, m in enumerate(m_list):
        devs = np.empty(trials)
        streams = rng.streams(trial * len(m_list) + mi for trial in range(trials))
        for trial, stream in enumerate(streams):
            build, params = _scan_draws(variant, side, m, stream)
            acc = np.zeros((n, n), dtype=complex)
            for lo in range(0, m, chunk):
                # Column c of u sigma(g) is u[:, inv[c]] times the conjugate
                # adjoint phase at c, where inv is the adjoint's gather.
                adj = build(*(p[lo:lo + chunk] for p in params)).adjoint()
                v = u[:, adj.perm]
                v *= np.conj(adj.phase)
                v = v.reshape(-1, n)
                acc += v.conj().T @ v
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


def group_side(inst: Instrument, variant: str) -> int:
    """The group's dimension parameter for an instrument: the vector length,
    or the matrix side for doubleqft.  Raises ValueError for an unknown
    variant or one that does not fit the instrument."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown group variant {variant!r}")
    if variant == "doubleqft" and not inst.is_matrix:
        raise ValueError("doubleqft requires a matrix instrument")
    if variant != "doubleqft" and inst.is_matrix:
        raise ValueError(f"variant {variant!r} requires a vector instrument")
    return int(inst.payload.shape[0])
