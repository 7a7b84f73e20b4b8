from functools import lru_cache

import pytest

from qrwe.arith import prime_power_split
from qrwe.curve_census import quartic_census
from qrwe.finite_field import field


@lru_cache(maxsize=None)
def _cached_quartic_census(q: int):
    return quartic_census(field(*prime_power_split(q)))


@pytest.fixture(scope="session")
def quartic_census_for():
    """Session-wide census cache; the big fields (q = 25, 27) take a few
    seconds each and are shared by several test modules."""
    return _cached_quartic_census
