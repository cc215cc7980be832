"""Group actions and the measurement ensembles they generate.

Three unitary representations are supported:

* ``shiftmod``  -- Z_N x Z_N acting on C^N by modulation^t . shift^k.
* ``doubleqft`` -- Z_n^4 acting on n x n matrices by
                   a |-> Mod^k Shift^j a (Shift^j')^* Mod^(-k').
* ``signshift`` -- {-1,1}^N x| Z_N acting on C^N by entrywise signs
                   followed by a cyclic shift.

A batch of B elements of one group over side n is a (B, p) integer array of
their parameters, one row per element:

* shiftmod:  ``(t, k)``;
* doubleqft: ``(k, j, kp, jp)``;
* signshift: ``(eps_1, ..., eps_n, shift)`` with each eps = +/-1.

Index convention: the modulation acts on basis vector e_l (l = 1..N) as
multiplication by exp(2 pi i l / N); a cyclic shift sends e_l to e_{l+1}.
Only global phases depend on this choice and every reported statistic is
phase-invariant.

All three are monomial unitaries: a coordinate permutation times
unit-modulus phases (doubleqft on the row-major flattening of its n x n
matrices).  ``monomial(variant, n, params)`` turns a parameter batch into
one ``Monomial`` of (B, dim) index and phase arrays, so sigma(g) x is
``x[perm] * phase``, and every group action here (ensemble rows, isotropy
orbits, the moment-deviation scan) is a gather through that one form.

A measurement row for instrument eta and group element g is the functional
x |-> <sigma(g) eta, x>, scaled by 1/sqrt(m).  ``sample_ensemble`` takes the
CLI's sign modes by name: none, random (one shared diagonal) or absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .instruments import Instrument
from .numerics import CapacityError, SeededRng, operator_norm

__all__ = [
    "Monomial",
    "monomial",
    "enumerate_group",
    "draw_elements",
    "MeasurementEnsemble",
    "sample_ensemble",
    "gaussian_ensemble",
    "isotropy_defect",
    "rosenthal_deviation",
    "group_side",
]

_VARIANTS = ("shiftmod", "doubleqft", "signshift")


# -- monomial form ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
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


def _width(variant: str, n: int) -> int:
    # Parameters per element of the chosen group over side n.
    if variant not in _VARIANTS:
        raise ValueError(f"unknown group variant {variant!r}")
    return {"shiftmod": 2, "doubleqft": 4, "signshift": n + 1}[variant]


def _mod_phases(n: int, t) -> np.ndarray:
    # exp(2 pi i t l / n) at 1-based index l, one row per entry of t; each
    # distinct t mod n is evaluated once.
    values, rows = np.unique(t % n, return_inverse=True)
    return np.exp(2j * np.pi * values[:, None] * np.arange(1, n + 1) / n)[rows]


def _cyclic(n: int, shift) -> np.ndarray:
    # Gather indices of cyclic shifts: row b moves entry l to l + shift[b].
    return (np.arange(n) - shift[:, None]) % n


def monomial(variant: str, n: int, params) -> Monomial:
    """The (perm, phase) batch of the elements whose parameters are the rows
    of ``params``, a non-empty (B, p) integer array, in the chosen group
    over side n.  doubleqft acts on row-major flattenings of n x n matrices.
    """
    if n < 1:
        raise ValueError("group side must be >= 1")
    width = _width(variant, n)
    params = np.asarray(params)
    if params.ndim != 2 or params.shape[1] != width or not len(params):
        raise ValueError(f"{variant} over side {n} needs a non-empty (B, {width}) "
                         f"parameter array; got shape {params.shape}")
    # Check the signs before converting, so 1.5 is not truncated to 1.
    if variant == "signshift":
        signs = params[:, :n]
        if not ((signs == 1) | (signs == -1)).all():
            raise ValueError("signs must be +/-1")
    ints = params.astype(np.int64, copy=False)
    if not np.array_equal(ints, params):
        raise ValueError("group parameters must be integers")
    if variant == "shiftmod":
        return Monomial(_cyclic(n, ints[:, 1]), _mod_phases(n, ints[:, 0]))
    if variant == "signshift":
        perm = _cyclic(n, ints[:, n])
        return Monomial(perm, np.take_along_axis(ints[:, :n], perm, axis=1).astype(complex))
    # Row-major flattening: entry (r, c) of the image of a is
    # a[r - j, c - jp] * mod^k[r] * conj(mod^kp[c]).
    k, j, kp, jp = ints.T
    perm = _cyclic(n, j)[:, :, None] * n + _cyclic(n, jp)[:, None, :]
    phase = _mod_phases(n, k)[:, :, None] * np.conj(_mod_phases(n, kp))[:, None, :]
    return Monomial(perm.reshape(-1, n * n), phase.reshape(-1, n * n))


def enumerate_group(variant: str, n: int) -> np.ndarray:
    """The (|G|, p) parameter array of every element of the chosen group over
    side n, rows in lexicographic order."""
    if variant == "signshift":
        return np.array(list(product(*[(-1, 1)] * n, range(n))))
    return np.array(list(product(range(n), repeat=_width(variant, n))))


def draw_elements(variant: str, n: int, m: int, rng: SeededRng) -> np.ndarray:
    """The (m, p) parameter array of m independent uniform elements of the
    chosen group over side n.

    The draw order is part of every report: shiftmod draws all m
    modulations, then all m shifts; doubleqft draws element by element;
    signshift draws each element's signs, then its shift.
    """
    if variant == "shiftmod":
        return rng.integers(0, n, (2, m)).T
    if variant == "doubleqft":
        return rng.integers(0, n, (m, 4))
    if variant == "signshift":
        params = np.empty((m, n + 1), dtype=np.int64)
        for row in params:
            row[:n] = rng.rademacher(n)
            row[n] = rng.integers(0, n)
        return params
    raise ValueError(f"unknown group variant {variant!r}")


# -- ensembles --------------------------------------------------------------


@dataclass
class MeasurementEnsemble:
    """m measurement functionals over C^dim.

    ``rows[j]`` stores conj(sigma(g_j) eta) / sqrt(m), so application is a
    plain matrix product.
    """

    rows: np.ndarray
    provenance: dict = field(default_factory=dict)

    # perfbench/sweep.py is the only caller of this alias of rows.
    def effective_operator(self) -> np.ndarray:
        return self.rows


_SIGN_MODES = ("none", "random", "absorbed")


def sample_ensemble(
    inst: Instrument,
    variant: str,
    m: int,
    sign_mode: str,
    rng: SeededRng,
) -> MeasurementEnsemble:
    """Draw m i.i.d. group elements and build the scaled measurement rows.

    sign_mode:
      "none"     -- rows are sigma(g_j) eta as-is.
      "random"   -- one Rademacher diagonal, shared by all rows.
      "absorbed" -- a fresh (signs, shift) pair per row, i.e. each row is
                    additionally hit by an independent element of the sign
                    x shift group (vector instruments only).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if sign_mode not in _SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {_SIGN_MODES}; got {sign_mode!r}")

    n = group_side(variant, inst.ambient_dim, inst.is_matrix)
    if sign_mode == "absorbed" and inst.is_matrix:
        raise ValueError("absorbed signs are defined for vector instruments only")

    dim = inst.ambient_dim
    prov: dict = {
        "variant": variant,
        "sign_mode": sign_mode,
        "seed": rng.seed,
        "spawn_key": list(rng.spawn_key),
    }

    shared_sign = None
    if sign_mode == "random":
        shared_sign = rng.rademacher(dim)
        prov["shared_sign"] = [int(s) for s in shared_sign]

    # Draws go row by row: each row's element, then its absorbed
    # (signs, shift) pair, a signshift element over dim.  The rows
    # themselves are one gather.
    elements, absorbed = [], []
    for _ in range(m):
        elements.append(draw_elements(variant, n, 1, rng))
        if sign_mode == "absorbed":
            absorbed.append(draw_elements("signshift", dim, 1, rng))
    params = np.concatenate(elements)
    rows = monomial(variant, n, params).apply(inst.payload.ravel())
    if sign_mode == "random":
        rows = shared_sign * rows
    elif sign_mode == "absorbed":
        absorbed = np.concatenate(absorbed)
        rows = monomial("signshift", dim, absorbed).apply(rows)
        prov["absorbed_signs"] = absorbed.tolist()
    rows = np.conj(rows)
    rows /= math.sqrt(m)

    prov["elements"] = params.tolist()
    return MeasurementEnsemble(rows=rows, provenance=prov)


def gaussian_ensemble(dim: int, m: int, rng: SeededRng) -> MeasurementEnsemble:
    """Plain Gaussian comparison ensemble: real N(0, 1/m) rows."""
    if m < 1 or dim < 1:
        raise ValueError("m and dim must be >= 1")
    rows = rng.standard_normal((m, dim)) / math.sqrt(m)
    prov = {"variant": "gaussian", "seed": rng.seed, "spawn_key": list(rng.spawn_key)}
    return MeasurementEnsemble(rows=rows.astype(complex), provenance=prov)


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
    n = group_side(variant, inst.ambient_dim, inst.is_matrix)
    cap = _ISOTROPY_CAPS[variant]
    if n > cap:
        raise CapacityError(
            f"isotropy_defect enumerates the full group; {variant} is capped at {cap} (got {n})"
        )

    orbit = monomial(variant, n, enumerate_group(variant, n)).apply(inst.payload.ravel())
    # (1/|G|) sum_g v_g v_g^*; closure under inverses makes the adjoint
    # orientation of the definition give the same sum.
    avg = orbit.T @ np.conj(orbit) / len(orbit)
    return operator_norm(avg - np.eye(inst.ambient_dim))


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
    Each trial draws its elements with ``draw_elements``.
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
    side = group_side(variant, n)

    eye = np.eye(n)
    chunk = max(1, _GRAM_CHUNK_ENTRIES // (d * n))
    results = []
    for mi, m in enumerate(m_list):
        devs = np.empty(trials)
        streams = rng.streams(trial * len(m_list) + mi for trial in range(trials))
        for trial, stream in enumerate(streams):
            params = draw_elements(variant, side, m, stream)
            acc = np.zeros((n, n), dtype=complex)
            for lo in range(0, m, chunk):
                # Column c of u sigma(g) is u[:, inv[c]] times the conjugate
                # adjoint phase at c, where inv is the adjoint's gather.
                adj = monomial(variant, side, params[lo:lo + chunk]).adjoint()
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


def group_side(variant: str, dim: int, matrix: bool | None = None) -> int:
    """The side n of the chosen group acting on C^dim: dim itself, or the
    matrix side sqrt(dim) for doubleqft, which acts on flattened n x n
    matrices.  ``matrix`` says whether the inputs are matrices, where that
    is known (an instrument's ``is_matrix``).  Raises ValueError for an
    unknown variant, one that does not fit the inputs, or a doubleqft dim
    that is not a perfect square."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown group variant {variant!r}")
    if matrix is not None and matrix != (variant == "doubleqft"):
        raise ValueError("doubleqft requires a matrix instrument" if variant == "doubleqft"
                         else f"variant {variant!r} requires a vector instrument")
    if variant != "doubleqft":
        return dim
    side = math.isqrt(dim)
    if side * side != dim:
        raise ValueError("doubleqft requires N to be a perfect square (matrix side^2)")
    return side
