import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import fourweight
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


# sha256 of verify_claims(scope).as_dict() as `fourweight --format json
# verify-paper --scope <scope>` prints it, per scope.
VERIFY_PAPER_SHA256 = {
    8: "a56f8e47e6049c955ca6f00e726ff0d86ae9f6ffa609607721d0cb9e0e98cb73",
    16: "d89e33f6c0a097d607f4411ea82592ed6d0ee4345944c63641c817889e9715a7",
    32: "02c778d0b381240dadd29ac68e0872c2c1f3c4151d6c9786519ca77220949583",
}


def report_sha256(report) -> str:
    """sha256 of a VerificationReport rendered as verify-paper's JSON output."""
    text = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


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


def fresh_stdout(code: str, *flags: str, env: dict[str, str | None] | None = None) -> str:
    """The stripped stdout of `code` run with interpreter flags in a new process
    that imports this fourweight and, by module name, these tests; `env` sets
    that process's variables, and a None value removes one."""
    src = os.path.dirname(os.path.dirname(fourweight.__file__))
    path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=environ, check=True)
    return out.stdout.strip()
