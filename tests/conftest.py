import math

import pytest

from spaceform.groups import validate_type1, is_fixed_point_free
from spaceform.numtheory import torsion_elements
from spaceform.spectra import Spectrum


def enumerate_valid_groups(max_order: int):
    """Every valid Type I parameter triple with m*n <= max_order (cyclic included)."""
    out = []
    for m in range(1, max_order + 1, 2):
        for n in range(1, max_order // m + 1):
            if m == 1:
                out.append(validate_type1(1, n, 0))
                continue
            if math.gcd(m, n) != 1:
                continue
            for r in torsion_elements(m, n):
                if math.gcd(r - 1, m) != 1:
                    continue
                out.append(validate_type1(m, n, r))
    return out


@pytest.fixture(autouse=True)
def fresh_spectra():
    """Spectrum.of keeps its last few spectra: a test that counts the class
    walks its code makes must not see those of an earlier test."""
    Spectrum.of.cache_clear()


@pytest.fixture(scope="session")
def valid_pool_2000():
    return enumerate_valid_groups(2000)


@pytest.fixture(scope="session")
def fpf_pool_2000(valid_pool_2000):
    return [g for g in valid_pool_2000 if is_fixed_point_free(g)]
