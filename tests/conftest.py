import random

import numpy as np
import pytest

from fourweight.catalog import load_code
from fourweight.classify import classify_step
from fourweight.cover import _extension_blocks
from fourweight.errors import InputError
from fourweight.reedmuller import rm1_fixed


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


@pytest.fixture(scope="session")
def a8_chain():
    """The a = 8 branch at length 32: RM(1,5), then every class at k = 7 to 10."""
    seeds, chain = [rm1_fixed(5)], []
    while seeds:
        chain += seeds
        seeds = [rec.code for rec in classify_step(seeds, 8).classes]
    return chain


@pytest.fixture(scope="session")
def a4_k8_classes():
    """The 32 classes of the a = 4 branch at length 32 and k = 8."""
    seeds = [rm1_fixed(5)]
    for _ in range(2):
        seeds = [rec.code for rec in classify_step(seeds, 4).classes]
    return seeds


def random_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def matrix_from_text(text: str) -> np.ndarray:
    """Parse a matrix written by ``fourweight.weighing.matrix_to_text``."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise InputError(f"bad matrix line: {ln!r}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputError("matrix rows must be nonempty and equal length")
    arr = np.array(rows, dtype=np.int64)
    if not np.isin(arr, (-1, 0, 1)).all():
        raise InputError("matrix entries must be -1, 0 or 1")
    return arr


def extension_reps(code, a):
    """The blocks of ``fourweight.cover._extension_blocks``, concatenated."""
    return np.concatenate(list(_extension_blocks(code, a)))
