"""Package-wide checks: every name a riplab module lists in ``__all__``
exists in that module, and the frozen classes that hold arrays compare and
hash without raising."""

import importlib
import pkgutil

import numpy as np
import pytest

import riplab
from riplab.group_ops import MeasurementEnsemble, monomial
from riplab.infdim import DeviationGrid, FourierFunction, make_block_instrument
from riplab.instruments import make_flat

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
