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
``x[perm] * phase``.  Ensemble rows, isotropy orbits and the blocks of the
moment-deviation scan are all gathers through that one form.

A measurement row for instrument eta and group element g is the functional
x |-> <sigma(g) eta, x>, scaled by 1/sqrt(m).  ``sample_ensemble`` takes the
CLI's sign modes by name: none, random (one shared diagonal) or absorbed.
``sample_ensembles`` and ``gaussian_ensembles`` give the ensembles of several
m from one draw at the largest: each smaller ensemble is a prefix of its
unscaled rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .instruments import Instrument
from .numerics import CapacityError, SeededRng, as_count, as_counts, operator_norm

__all__ = [
    "Monomial",
    "monomial",
    "enumerate_group",
    "draw_elements",
    "MeasurementEnsemble",
    "sample_ensemble",
    "sample_ensembles",
    "gaussian_ensemble",
    "gaussian_ensembles",
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
    followed by unit-modulus phases.
    """

    perm: np.ndarray  # (B, dim) gather indices
    phase: np.ndarray  # (B, dim) unit-modulus complex

    @property
    def dim(self) -> int:
        return int(self.perm.shape[1])

    def __getitem__(self, rows: slice) -> Monomial:
        """The elements of a slice of the batch, as views."""
        return Monomial(self.perm[rows], self.phase[rows])

    def apply(self, x) -> np.ndarray:
        """A (dim,) vector gives its (B, dim) orbit; a (B, dim) block is
        mapped row by row, row b by element b."""
        x = np.asarray(x, dtype=complex)
        if x.shape == (self.dim,):
            return x[self.perm] * self.phase
        if x.shape == self.perm.shape:
            return _gather_rows(x, self.perm) * self.phase
        raise ValueError(f"expected shape ({self.dim},) or {self.perm.shape}; got {x.shape}")


def _gather_rows(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    # x[b, perm[b, l]] for every b and l, through one flat index into the
    # contiguous rows: the same entries as np.take_along_axis(x, perm, 1),
    # whose two-array fancy index numpy gathers more slowly.
    x = np.ascontiguousarray(x)
    rows, width = x.shape
    return x.reshape(-1)[perm + np.arange(0, rows * width, width)[:, None]]


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown group variant {variant!r}")


def _bounds(variant: str, n: int) -> list:
    # The one per-variant parameter table: the exclusive upper bound of each
    # parameter as drawn, per column, so an element has len(_bounds) of them.
    # signshift draws its signs as 0/1 bits.  Every function that takes a
    # variant and a group side n checks both here.
    _check_variant(variant)
    as_count(n, "n")
    return [2] * n + [n] if variant == "signshift" else [n] * (2 if variant == "shiftmod" else 4)


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
    width = len(_bounds(variant, n))
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
        return Monomial(perm, _gather_rows(ints[:, :n], perm).astype(complex))
    # Row-major flattening: entry (r, c) of the image of a is
    # a[r - j, c - jp] * mod^k[r] * conj(mod^kp[c]).
    k, j, kp, jp = ints.T
    perm = _cyclic(n, j)[:, :, None] * n + _cyclic(n, jp)[:, None, :]
    phase = _mod_phases(n, k)[:, :, None] * np.conj(_mod_phases(n, kp))[:, None, :]
    return Monomial(perm.reshape(-1, n * n), phase.reshape(-1, n * n))


def _from_draws(variant: str, n: int, draws: np.ndarray) -> np.ndarray:
    # The parameters of draws made under _bounds, mapping sign bits to +-1 in
    # place.
    if variant == "signshift":
        draws[:, :n] = 2 * draws[:, :n] - 1
    return draws


def enumerate_group(variant: str, n: int) -> np.ndarray:
    """The (|G|, p) parameter array of every element of the chosen group over
    side n, rows in lexicographic order."""
    bounds = _bounds(variant, n)
    return _from_draws(variant, n, np.indices(bounds).reshape(len(bounds), -1).T)


def draw_elements(variant: str, n: int, m: int, rng: SeededRng) -> np.ndarray:
    """The (m, p) parameter array of m independent uniform elements of the
    chosen group over side n.

    The draw order is part of every report: element after element, each
    element's parameters in order (signshift its signs, then its shift).
    numpy fills the draw one bounded integer after the other, so an m-row
    draw is the first m rows of a larger one from the same rng state.
    """
    bounds = _bounds(variant, n)
    m = as_count(m, "m", least=0)
    return _from_draws(variant, n, rng.integers(0, bounds, (m, len(bounds))))


# -- ensembles --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MeasurementEnsemble:
    """m measurement functionals over C^dim.

    ``rows[j]`` stores conj(sigma(g_j) eta) / sqrt(m), so application is a
    plain matrix product.  The rows are all it keeps: the seed and spawn key
    of the ``SeededRng`` that drew them regenerate them.
    """

    rows: np.ndarray

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

    This is ``sample_ensembles`` with the one m.
    """
    return next(sample_ensembles(inst, variant, [m], sign_mode, rng))


def sample_ensembles(
    inst: Instrument,
    variant: str,
    m_list,
    sign_mode: str,
    rng: SeededRng,
) -> Iterator[MeasurementEnsemble]:
    """``sample_ensemble``'s ensemble for every m of ``m_list``, in list
    order (repeats allowed), from one draw at max(m_list).

    numpy fills a draw in order, one bounded integer after the other, so an
    m-row draw is the first m rows of a larger one.  The ensemble for m is
    the first m unscaled, conjugated rows divided by sqrt(m), bit for bit
    what ``sample_ensemble`` with that m gives from the same rng state.  The
    checks and the draw happen at the call; each scaled ensemble is built
    only when the iterator reaches it, so besides the unscaled rows one is
    alive at a time.
    """
    m_list = as_counts(m_list, "m")
    if sign_mode not in _SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {_SIGN_MODES}; got {sign_mode!r}")

    n = group_side(variant, inst.ambient_dim, inst.is_matrix)
    if sign_mode == "absorbed" and inst.is_matrix:
        raise ValueError("absorbed signs are defined for vector instruments only")

    dim = inst.ambient_dim
    shared_sign = rng.rademacher(dim) if sign_mode == "random" else None

    # One call draws row by row: each row's element, then its absorbed
    # (signs, shift) pair, a signshift element over dim.  The rows
    # themselves are one gather.
    bounds = _bounds(variant, n)
    width = len(bounds)
    if sign_mode == "absorbed":
        bounds += _bounds("signshift", dim)
    draws = rng.integers(0, bounds, (max(m_list), len(bounds)))
    params = _from_draws(variant, n, draws[:, :width])
    rows = monomial(variant, n, params).apply(inst.payload.ravel())
    if sign_mode == "random":
        rows = shared_sign * rows
    elif sign_mode == "absorbed":
        absorbed = _from_draws("signshift", dim, draws[:, width:])
        rows = monomial("signshift", dim, absorbed).apply(rows)
    rows = np.conj(rows)
    return (MeasurementEnsemble(rows[:m] / math.sqrt(m)) for m in m_list)


def gaussian_ensemble(dim: int, m: int, rng: SeededRng) -> MeasurementEnsemble:
    """Plain Gaussian comparison ensemble: real N(0, 1/m) rows.  This is
    ``gaussian_ensembles`` with the one m."""
    return next(gaussian_ensembles(dim, [m], rng))


def gaussian_ensembles(dim: int, m_list, rng: SeededRng) -> Iterator[MeasurementEnsemble]:
    """``gaussian_ensemble``'s ensemble for every m of ``m_list``, in list
    order, from one draw of max(m_list) unscaled rows: the ensemble for m is
    their first m rows divided by sqrt(m), as in ``sample_ensembles``."""
    m_list, dim = as_counts(m_list, "m"), as_count(dim, "dim")
    rows = rng.standard_normal((max(m_list), dim))
    return (MeasurementEnsemble((rows[:m] / math.sqrt(m)).astype(complex)) for m in m_list)


# -- isotropy and moment deviation ------------------------------------------

_ISOTROPY_CAPS = {"shiftmod": 16, "doubleqft": 4, "signshift": 8}

# Complex entries of one gathered block of the moment-deviation scan
# (256 KB); larger blocks only add their temporaries to the peak memory.
_GRAM_CHUNK_ENTRIES = 1 << 14
# Permutation entries of one monomial the scan builds for a run of blocks
# (1.5 MB with its phases).
_MONOMIAL_RUN_ENTRIES = 1 << 16


def _orbit_gram(w: np.ndarray, g: Monomial) -> np.ndarray:
    # sum_g O_g^T conj(O_g), where row i of O_g is sigma(g) w_i: the rows of
    # the complex (d, dim) array w mapped by every element of g, so it is
    # sum_g sigma(g) (w^T conj(w)) sigma(g)^*.  np.take gathers the orbit as
    # a C-ordered (d, B, dim) array, so the phases multiply in place and the
    # reshape to d B rows is a view; the orbit holds d B dim entries.
    orbit = np.take(w, g.perm, axis=1)
    orbit *= g.phase
    orbit = orbit.reshape(-1, g.dim)
    return orbit.T @ np.conj(orbit)


def _deviation(gram: np.ndarray, count: int) -> float:
    # ||gram / count - I||_2; subtracting 1 on the diagonal in place equals
    # subtracting a dense identity bit for bit.
    avg = gram / count
    avg.flat[::len(avg) + 1] -= 1.0
    return operator_norm(avg)


def isotropy_defect(inst: Instrument, variant: str) -> float:
    """Operator-norm distance between the exact group average
    (1/|G|) sum_g sigma(g) eta eta^* sigma(g)^* and the identity.  The group
    is closed under inverses, so this is also the average of
    sigma(g)^* eta eta^* sigma(g).

    The group is enumerated exhaustively, so the dimension caps are hard:
    N <= 16 for shiftmod, n <= 4 for doubleqft, N <= 8 for signshift.  The
    whole orbit, at most 2^14 entries at the caps, is one gather and one
    Gram product.
    """
    n = group_side(variant, inst.ambient_dim, inst.is_matrix)
    cap = _ISOTROPY_CAPS[variant]
    if n > cap:
        raise CapacityError(
            f"isotropy_defect enumerates the full group; {variant} is capped at {cap} (got {n})"
        )
    group = enumerate_group(variant, n)
    eta = np.asarray(inst.payload, dtype=complex).reshape(1, -1)
    return _deviation(_orbit_gram(eta, monomial(variant, n, group)), len(group))


def rosenthal_deviation(
    u,
    variant: str,
    m_list,
    trials: int,
    rng: SeededRng,
) -> list[dict]:
    """Empirical second-moment deviation of a compression u under random
    group conjugation: for each M, the operator norm of
    (1/M) sum_j sigma(g_j) u^* u sigma(g_j)^* - Id, over independent trials.
    g -> g^-1 preserves the uniform measure, so this has the law of the
    average of sigma(g_j)^* u^* u sigma(g_j).

    u is d x N with tr(u^* u) = N (the isotropic scaling).  Returns one record
    per entry of m_list, in list order (repeats allowed), with the raw
    deviations plus their median and mean.

    Trial t draws max(m_list) elements once, with ``draw_elements``, from
    ``rng.stream(t)``, so results do not depend on execution order.  The sum
    is the isotropy kernel's orbit Gram of the rows of conj(u), taken over
    fixed blocks of elements, each holding at most 2^14 complex entries of
    the gathered orbit (one element when d N exceeds that).  The monomial of
    the elements is built once per run of whole blocks, at most 2^16
    permutation entries (one block when a block exceeds that), and each block
    gathers through a view of it, so memory stays bounded in M.  Whole
    blocks add into one running Gram; an M that ends inside a block adds
    that block's first elements to a copy.  A draw of M elements is the
    first M rows of the larger draw, and a monomial's rows do not depend on
    the batch they are built in, so every record equals a run with that M
    alone bit for bit.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError("u must be a d x N matrix")
    d, n = u.shape
    tr = float(np.linalg.norm(u) ** 2)
    if not abs(tr - n) <= 1e-8 * n:
        raise ValueError(f"u must satisfy tr(u^* u) = N; got {tr:.12g} for N={n}")
    m_list, trials = as_counts(m_list, "M"), as_count(trials, "trials")
    side = group_side(variant, n)

    w = np.conj(u)
    chunk = max(1, _GRAM_CHUNK_ENTRIES // (d * n))
    run = chunk * max(1, _MONOMIAL_RUN_ENTRIES // (chunk * n))
    devs = {m: np.empty(trials) for m in sorted(set(m_list))}
    top = max(devs)
    for trial, stream in enumerate(rng.streams(range(trials))):
        params = draw_elements(variant, side, top, stream)
        acc = np.zeros((n, n), dtype=complex)
        ends = iter(devs.items())
        m, cell = next(ends)
        for lo in range(0, top, chunk):
            if lo % run == 0:
                g = monomial(variant, side, params[lo:lo + run])
            block = g[lo % run:lo % run + chunk]
            # An M that ends at the block's start reads the running Gram, one
            # that ends inside it a copy plus the block's first elements.
            while m is not None and m < lo + chunk:
                cell[trial] = _deviation(acc + _orbit_gram(w, block[:m - lo]) if m > lo else acc,
                                         m)
                m, cell = next(ends, (None, None))
            if m is None:
                break
            acc += _orbit_gram(w, block)
        if m is not None:
            cell[trial] = _deviation(acc, m)
    return [{"M": m, "median": float(np.median(devs[m])), "mean": float(devs[m].mean()),
             "deviations": devs[m].tolist()} for m in m_list]


def group_side(variant: str, dim: int, matrix: bool | None = None) -> int:
    """The side n of the chosen group acting on C^dim: dim itself, or the
    matrix side sqrt(dim) for doubleqft, which acts on flattened n x n
    matrices.  ``matrix`` says whether the inputs are matrices, where that
    is known (an instrument's ``is_matrix``).  Raises ValueError for an
    unknown variant, one that does not fit the inputs, or a doubleqft dim
    that is not a perfect square."""
    _check_variant(variant)
    if matrix is not None and matrix != (variant == "doubleqft"):
        raise ValueError("doubleqft requires a matrix instrument" if variant == "doubleqft"
                         else f"variant {variant!r} requires a vector instrument")
    dim = as_count(dim, "dim")
    if variant != "doubleqft":
        return dim
    side = math.isqrt(dim)
    if side * side != dim:
        raise ValueError("doubleqft requires N to be a perfect square (matrix side^2)")
    return side
