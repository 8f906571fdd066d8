import random

import pytest

from fourweight.catalog import load_code


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def n16_codes():
    return {cid: load_code(cid) for cid in (
        "C_{16,6,1}", "C_{16,6,2}", "C_{16,7,1}", "C_{16,7,2}", "C_{16,8,1}", "C_{16,8,2}",
    )}


@pytest.fixture(scope="session")
def n8_codes():
    return {cid: load_code(cid) for cid in ("C_{8,5}", "C_{8,6}", "C_{8,7}")}


def random_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm
