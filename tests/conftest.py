"""Shared test settings and fixtures.

Every hypothesis test runs under one profile: no per-example deadline (the
first call of a numpy path can be slow), a derandomized example sequence so
runs are reproducible, and no example database on disk.  Tests set only their
own ``max_examples`` and health-check suppressions.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("riplab", deadline=None, derandomize=True, database=None)
settings.load_profile("riplab")


# Thread-count getters of the OpenBLAS builds numpy wheels bundle; each setter
# is the same name with "set".  Looked up here without riplab's own lookup.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


@pytest.fixture
def openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, restored
    afterwards; skips where numpy bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in _BLAS_GETTERS:
            get = getattr(lib, name, None)
            if get is not None:
                put = getattr(lib, name.replace("_get_", "_set_"))
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                yield get, put
                put(before)
                return
    pytest.skip("numpy bundles no OpenBLAS here")
