"""Package-wide checks: every name a riplab module lists in ``__all__``
exists in that module, the frozen classes that hold arrays compare and
hash without raising, and range checks reject NaN."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import riplab
from riplab.group_ops import MeasurementEnsemble, monomial, rosenthal_deviation
from riplab.infdim import (
    DeviationGrid,
    FourierFunction,
    lq_norm_function,
    make_block_instrument,
    rip_experiment,
    smooth_sparse_membership,
    truncation_level,
)
from riplab.instruments import Instrument, make_flat
from riplab.numerics import SeededRng, lq_norm, schatten_norm
from riplab.rip import (
    classify_separation,
    distance_bound_check,
    empirical_rip,
    exact_rip_canonical,
    gaussian_width,
    gordon_m,
    implicit_m,
    mrip_check,
    separation_constants,
)
from riplab.sparsity import Canonical, LqCap, sparsity_parameter_value, witness_support_size

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


# Counts of group elements, translates, trials, ascent steps and support
# sizes take integer types only too: int() would run M = 2.7 as 2 and True
# as 1.
_EYE = np.eye(8, dtype=complex)
_F = FourierFunction(np.ones(8), 4)


@pytest.mark.parametrize("call, message", [
    (lambda bad: rosenthal_deviation(_EYE, "shiftmod", [bad, 3], 2, SeededRng(0)), "M"),
    (lambda bad: rosenthal_deviation(_EYE, "shiftmod", [3], bad, SeededRng(0)), "trials"),
    (lambda bad: rip_experiment(_F, [make_block_instrument(8, 4)], [3, bad], 2, SeededRng(0)),
     "m"),
    (lambda bad: rip_experiment(_F, [make_block_instrument(8, 4)], [3], bad, SeededRng(0)),
     "trials"),
    (lambda bad: empirical_rip(_EYE, Canonical(2), bad, rng=SeededRng(0)), "trials"),
    (lambda bad: mrip_check(_EYE, 1.0, 1.0, 0.5, bad, 2, SeededRng(0)), "trials"),
    (lambda bad: mrip_check(_EYE, 1.0, 1.0, 0.5, 2, bad, SeededRng(0)), "ascent_steps"),
    (lambda bad: gaussian_width(Canonical(2), bad), "ambient"),
    (lambda bad: SeededRng(0).sorted_supports(range(3), bad, 2), "n"),
    (lambda bad: SeededRng(0).sorted_supports(range(3), 8, bad), "k"),
], ids=["rosenthal_deviation-M", "rosenthal_deviation-trials", "rip_experiment-m",
        "rip_experiment-trials", "empirical_rip-trials", "mrip_check-trials",
        "mrip_check-ascent_steps", "gaussian_width-ambient",
        "sorted_supports-n", "sorted_supports-k"])
@pytest.mark.parametrize("bad", [2.7, 3.0, True, NAN, "3"],
                         ids=["2.7", "3.0", "True", "nan", "str"])
def test_counts_reject_non_integers(call, message, bad):
    with pytest.raises(ValueError, match=f"^{message} must be an integer; got {bad!r}$"):
        call(bad)


def test_integer_counts_of_numpy_types_run():
    (record,) = rosenthal_deviation(_EYE, "shiftmod", [np.int64(3)], np.int32(2), SeededRng(0))
    assert type(record["M"]) is int and len(record["deviations"]) == 2


def test_canonical_stores_a_python_int():
    model = Canonical(np.int64(2))
    assert type(model.k) is int
    assert repr(model) == "Canonical(k=2)"
    assert model == Canonical(2)
