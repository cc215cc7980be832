"""Shared test settings.

Every hypothesis test runs under one profile: no per-example deadline (the
first call of a numpy path can be slow), a derandomized example sequence so
runs are reproducible, and no example database on disk.  Tests set only their
own ``max_examples`` and health-check suppressions.
"""

from hypothesis import settings

settings.register_profile("riplab", deadline=None, derandomize=True, database=None)
settings.load_profile("riplab")
