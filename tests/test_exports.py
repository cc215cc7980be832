"""Package-wide checks: every name a riplab module lists in ``__all__``
exists in that module, the frozen classes that hold arrays compare and
hash without raising, range checks reject NaN, and every count rejects a
non-integer and a value below its least."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import riplab
from riplab.group_ops import (
    MeasurementEnsemble,
    draw_elements,
    enumerate_group,
    gaussian_ensemble,
    gaussian_ensembles,
    group_side,
    monomial,
    rosenthal_deviation,
    sample_ensemble,
    sample_ensembles,
)
from riplab.infdim import (
    BlockInstrument,
    DeviationGrid,
    FourierFunction,
    dyadic_block_frequencies,
    from_bumps,
    lq_norm_function,
    make_block_instrument,
    rip_experiment,
    smooth_sparse_membership,
    truncation_level,
    values_on_grid,
    weighted_seminorm,
)
from riplab.instruments import (
    Instrument,
    make_decaying_window,
    make_flat,
    make_scaled_identity,
    make_schatten_decay,
)
from riplab.numerics import SeededRng, lq_norm, schatten_norm
from riplab.rip import (
    calibrate_mrip_distortion,
    classify_separation,
    distance_bound_check,
    empirical_rip,
    exact_rip_canonical,
    gaussian_width,
    gordon_m,
    implicit_m,
    mrip_check,
    separation_constants,
    table1_counts,
)
from riplab.sparsity import (
    Canonical,
    LqCap,
    max_sparsity_level,
    sample_sparse,
    sparsity_parameter_value,
    witness_support_size,
)

MODULES = ["riplab"] + [f"riplab.{info.name}" for info in pkgutil.iter_modules(riplab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("build", [
    lambda: make_block_instrument(8, 4),
    lambda: FourierFunction(np.ones(8), 4),
    lambda: make_flat(8),
    lambda: monomial("shiftmod", 8, np.array([[1, 2]])),
    lambda: DeviationGrid(np.zeros((1, 1, 2)), {"trials": 2, "redraws": 0}),
    lambda: MeasurementEnsemble(np.ones((2, 4), dtype=complex)),
], ids=["BlockInstrument", "FourierFunction", "Instrument", "Monomial", "DeviationGrid",
        "MeasurementEnsemble"])
def test_array_holders_compare_by_identity(build):
    # A generated field-wise __eq__ would compare arrays and raise.
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


NAN = math.nan
E0, E1 = np.eye(4)[0], np.eye(4)[1]


def _scan_with(value):
    # One coefficient of a 32-band function set to value, under an L = 2 scan.
    coeffs = np.ones(64, dtype=complex)
    coeffs[30] = value
    return rip_experiment(FourierFunction(coeffs, 32), [make_block_instrument(8, 2)], [2], 1,
                          SeededRng(0))


# Each check is the negation of its valid range, so NaN fails it and raises
# the same ValueError as any other value outside the range.
@pytest.mark.parametrize("call, message", [
    (lambda: mrip_check(np.eye(8), 1.0, 1.0, NAN, 2, 2, SeededRng(0)),
     "delta must be positive"),
    (lambda: separation_constants(NAN), "alpha must exceed 2 sqrt"),
    (lambda: classify_separation(np.eye(4), E0, E1, NAN), "delta must be positive"),
    (lambda: classify_separation(np.eye(4), np.array([NAN, 0, 0, 0]), E1, 0.1),
     "x must be unit-norm"),
    (lambda: distance_bound_check(np.eye(4), E0, E1, 1.0, NAN, 1.0),
     "delta and s must be positive"),
    (lambda: distance_bound_check(np.eye(4), E0, E1, NAN, 0.5, 1.0),
     "delta and s must be positive"),
    (lambda: gordon_m(3.0, NAN, 0.5), "delta must be positive"),
    (lambda: gordon_m(NAN, 0.5, 0.5), "width must be non-negative"),
    (lambda: implicit_m(NAN, 0.5), "sp and delta must be positive"),
    (lambda: lq_norm(np.ones(4), NAN), "q must be >= 1"),
    (lambda: schatten_norm(np.eye(3), NAN), "q must be >= 1"),
    (lambda: lq_norm_function(FourierFunction(np.ones(8), 4), NAN), "q must be >= 1"),
    (lambda: smooth_sparse_membership(FourierFunction(np.ones(8), 4), NAN, 0.5),
     "need rho_max > 0"),
    (lambda: truncation_level(1.5, NAN, 0.1, 1.0), "s, delta, c2 must be positive"),
    (lambda: LqCap(1.0, NAN), "the l_q cap is empty"),
    (lambda: witness_support_size(1.0, NAN, 8), "no witness exists"),
    (lambda: sparsity_parameter_value(make_flat(8), NAN, 4.0), "r must be positive"),
    (lambda: Instrument("x", [NAN, 1]), "instrument must satisfy"),
    (lambda: rosenthal_deviation(np.full((1, 4), NAN), "shiftmod", [2], 1, SeededRng(0)),
     "u must satisfy"),
    (lambda: Canonical(NAN), "k must be an integer; got nan"),
    (lambda: exact_rip_canonical(np.eye(4), NAN), "k must be an integer; got nan"),
    (lambda: _scan_with(NAN), "coefficients must be finite"),
    (lambda: _scan_with(math.inf), "coefficients must be finite"),
], ids=["mrip_check-delta", "separation_constants", "classify_separation-delta",
        "classify_separation-x", "distance_bound_check-delta", "distance_bound_check-s",
        "gordon_m-delta", "gordon_m-width", "implicit_m", "lq_norm", "schatten_norm",
        "lq_norm_function", "smooth_sparse_membership", "truncation_level", "LqCap",
        "witness_support_size", "sparsity_parameter_value", "Instrument",
        "rosenthal_deviation", "Canonical", "exact_rip_canonical", "FourierFunction-nan",
        "FourierFunction-inf"])
def test_nan_fails_range_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Canonical takes integer types only, as SeededRng does for seeds, and keeps
# k as a Python int.
@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"], ids=["2.5", "2.0", "True", "str"])
def test_canonical_rejects_non_integer_k(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        Canonical(k)


# Every public count takes integer types only and has a least value:
# int() would run M = 2.7 as 2 and True as 1.  One row per count, as
# (id, call taking the count, its name, its least value).
_EYE = np.eye(8, dtype=complex)
_F = FourierFunction(np.ones(8), 4)
_COUNTS = [
    ("rosenthal_deviation-M",
     lambda v: rosenthal_deviation(_EYE, "shiftmod", [v, 3], 2, SeededRng(0)), "M", 1),
    ("rosenthal_deviation-trials",
     lambda v: rosenthal_deviation(_EYE, "shiftmod", [3], v, SeededRng(0)), "trials", 1),
    ("rip_experiment-m",
     lambda v: rip_experiment(_F, [make_block_instrument(8, 4)], [3, v], 2, SeededRng(0)),
     "m", 1),
    ("rip_experiment-trials",
     lambda v: rip_experiment(_F, [make_block_instrument(8, 4)], [3], v, SeededRng(0)),
     "trials", 1),
    ("empirical_rip-trials", lambda v: empirical_rip(_EYE, Canonical(2), v, rng=SeededRng(0)),
     "trials", 1),
    ("mrip_check-trials", lambda v: mrip_check(_EYE, 1.0, 1.0, 0.5, v, 2, SeededRng(0)),
     "trials", 1),
    ("mrip_check-ascent_steps", lambda v: mrip_check(_EYE, 1.0, 1.0, 0.5, 2, v, SeededRng(0)),
     "ascent_steps", 0),
    ("gaussian_width-ambient", lambda v: gaussian_width(Canonical(2), v), "ambient", 1),
    ("sorted_supports-n", lambda v: SeededRng(0).sorted_supports(range(3), v, 2), "n", 0),
    ("sorted_supports-k", lambda v: SeededRng(0).sorted_supports(range(3), 8, v), "k", 0),
    ("calibrate_mrip_distortion-trials",
     lambda v: calibrate_mrip_distortion(_EYE, 1.0, 1.0, v, 2, SeededRng(0)), "trials", 1),
    ("calibrate_mrip_distortion-ascent_steps",
     lambda v: calibrate_mrip_distortion(_EYE, 1.0, 1.0, 2, v, SeededRng(0)),
     "ascent_steps", 0),
    ("Canonical", Canonical, "k", 1),
    ("Canonical.check_ambient", lambda v: Canonical(2).check_ambient(v), "ambient", 1),
    ("exact_rip_canonical-k", lambda v: exact_rip_canonical(_EYE, v), "k", 1),
    ("table1_counts-s", lambda v: table1_counts(v, 3, 4), "s", 1),
    ("table1_counts-n", lambda v: table1_counts(2, v, 4), "n", 1),
    ("table1_counts-d", lambda v: table1_counts(2, 3, v), "d", 1),
    ("LqCap.check_ambient", lambda v: LqCap(1.0, 2.0).check_ambient(v), "ambient", 1),
    ("max_sparsity_level-N", lambda v: max_sparsity_level(1.0, v), "N", 1),
    ("witness_support_size-N", lambda v: witness_support_size(1.0, 2.0, v), "N", 1),
    ("sample_sparse-ambient", lambda v: sample_sparse(LqCap(1.0, 2.0), v, 2, SeededRng(0)),
     "ambient", 1),
    ("sample_sparse-count", lambda v: sample_sparse(LqCap(1.0, 2.0), 8, v, SeededRng(0)),
     "count", 0),
    ("make_flat-N", make_flat, "N", 1),
    ("make_decaying_window-N", lambda v: make_decaying_window(v, 1, 0.25), "N", 1),
    ("make_decaying_window-window", lambda v: make_decaying_window(8, v, 0.25),
     "window length", 1),
    ("make_scaled_identity-n", make_scaled_identity, "n", 1),
    ("make_schatten_decay-n", lambda v: make_schatten_decay(v, 0.25, SeededRng(0)), "n", 1),
    ("monomial-n", lambda v: monomial("shiftmod", v, [[0, 0]]), "n", 1),
    ("enumerate_group-n", lambda v: enumerate_group("shiftmod", v), "n", 1),
    ("draw_elements-n", lambda v: draw_elements("shiftmod", v, 2, SeededRng(0)), "n", 1),
    ("draw_elements-m", lambda v: draw_elements("shiftmod", 4, v, SeededRng(0)), "m", 0),
    ("group_side-dim", lambda v: group_side("shiftmod", v), "dim", 1),
    ("sample_ensemble-m",
     lambda v: sample_ensemble(make_flat(4), "shiftmod", v, "none", SeededRng(0)), "m", 1),
    ("sample_ensembles-m",
     lambda v: sample_ensembles(make_flat(4), "shiftmod", [3, v], "none", SeededRng(0)),
     "m", 1),
    ("gaussian_ensemble-dim", lambda v: gaussian_ensemble(v, 2, SeededRng(0)), "dim", 1),
    ("gaussian_ensemble-m", lambda v: gaussian_ensemble(4, v, SeededRng(0)), "m", 1),
    ("gaussian_ensembles-dim", lambda v: gaussian_ensembles(v, [2], SeededRng(0)), "dim", 1),
    ("gaussian_ensembles-m", lambda v: gaussian_ensembles(4, [3, v], SeededRng(0)), "m", 1),
    ("FourierFunction-n_big", lambda v: FourierFunction(np.ones(8), v), "n_big", 1),
    ("from_bumps-n_big", lambda v: from_bumps(16.0, [0.5], [1.0], v), "n_big", 1),
    # A grid below the coefficient band, 2 n_big = 8 for _F, would alias.
    ("values_on_grid-m_grid", lambda v: values_on_grid(_F, v), "m_grid", 8),
    ("weighted_seminorm-n_cut", lambda v: weighted_seminorm(_F, v), "n_cut", 0),
    ("BlockInstrument-n_cut", lambda v: BlockInstrument(v, np.ones(2)), "n_cut", 1),
    ("make_block_instrument-n_cut", lambda v: make_block_instrument(v, 2), "n_cut", 1),
    ("make_block_instrument-block_len", lambda v: make_block_instrument(8, v), "block_len", 1),
    ("dyadic_block_frequencies-level", lambda v: dyadic_block_frequencies(v, 8), "level", 0),
]
_COUNT_IDS = [row[0] for row in _COUNTS]


@pytest.mark.parametrize("call, message", [row[1:3] for row in _COUNTS], ids=_COUNT_IDS)
@pytest.mark.parametrize("bad", [2.7, 3.0, True, NAN, "3"],
                         ids=["2.7", "3.0", "True", "nan", "str"])
def test_counts_reject_non_integers(call, message, bad):
    with pytest.raises(ValueError, match=f"^{message} must be an integer; got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("call, name, least", [row[1:] for row in _COUNTS], ids=_COUNT_IDS)
def test_counts_below_their_least_value_are_rejected(call, name, least):
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}$"):
        call(least - 1)


def test_integer_counts_of_numpy_types_run():
    (record,) = rosenthal_deviation(_EYE, "shiftmod", [np.int64(3)], np.int32(2), SeededRng(0))
    assert type(record["M"]) is int and len(record["deviations"]) == 2


def test_canonical_stores_a_python_int():
    model = Canonical(np.int64(2))
    assert type(model.k) is int
    assert repr(model) == "Canonical(k=2)"
    assert model == Canonical(2)
