import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import fourweight
from fourweight.catalog import all_ids, load_code
from fourweight.classify import classify_step
from fourweight.cover import (
    ENUM_CAP,
    SYNDROME_GUARD,
    _column_syndromes,
    _extension_candidates,
    coset_filter,
    leader_weights,
)
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1, rm1_fixed

# sha256 of the leader tables of all catalog codes, concatenated in all_ids() order
CATALOG_LEADER_SHA256 = "a65fe72a79d67d383c2dbf2292634d6165d480ac71e8d26b2cb63240623781bd"


def chunked_filter_oracle(words, reps, allowed):
    """Reference coset filter: every rep against every word, in 2^22-element blocks."""
    ok_weight = np.array([(allowed >> w) & 1 for w in range(65)], dtype=bool)
    out = np.empty(reps.size, dtype=bool)
    chunk = max(1, (1 << 22) // max(1, words.size))
    for lo in range(0, reps.size, chunk):
        block = reps[lo : lo + chunk, None] ^ words[None, :]
        out[lo : lo + chunk] = ok_weight[np.bitwise_count(block)].all(axis=1)
    return out


def relaxation_oracle(cols, r):
    """Reference leader sweep: from weight 0 at syndrome 0, one relaxation pass per column."""
    dist = np.full(1 << r, 64, dtype=np.uint8)
    dist[0] = 0
    if r == 0:
        return dist
    cube = dist.reshape((2,) * r)
    flip = slice(None, None, -1)
    keep = slice(None)
    for h in cols.tolist():
        if h == 0:
            continue
        view = cube[tuple(flip if (h >> (r - 1 - i)) & 1 else keep for i in range(r))]
        cube = np.minimum(cube, view + np.uint8(1))
    return cube.reshape(-1)


def popcount_relaxation_oracle(cols, r):
    """Reference leader sweep: popcount for the unit columns, then one reversed-view pass per other column."""
    rest = cols.tolist()
    for i in range(r):
        rest.remove(1 << i)
    dist = np.empty(1 << r, dtype=np.uint8)
    dist[0] = 0
    for i in range(r):
        np.add(dist[: 1 << i], 1, out=dist[1 << i : 2 << i])
    cube = dist.reshape((2,) * r)
    tmp = np.empty_like(cube)
    flip = slice(None, None, -1)
    keep = slice(None)
    for h in rest:
        if h == 0:
            continue
        view = cube[tuple(flip if (h >> (r - 1 - i)) & 1 else keep for i in range(r))]
        np.add(view, 1, out=tmp)
        np.minimum(cube, tmp, out=cube)
    return dist


def _mask(weights):
    out = 0
    for w in weights:
        out |= 1 << w
    return out


def test_leader_weights_small_case():
    # parity-check of the [3,1] repetition code: columns 11, 10, 01
    cols = np.array([0b11, 0b10, 0b01], dtype=np.uint64)
    table = leader_weights(cols, 2)
    assert table.tolist() == [0, 1, 1, 1]


def test_leader_weights_rejects_missing_unit_syndrome():
    with pytest.raises(ValueError):
        leader_weights(np.array([0b11, 0b10], dtype=np.uint64), 2)


def test_coset_filter_matches_chunked_oracle():
    rng = np.random.default_rng(6)
    for n, k, nreps in ((16, 3, 2000), (32, 6, 5000), (64, 4, 3000), (32, 0, 50), (20, 5, 0)):
        basis = rng.integers(0, 1 << n, size=k, dtype=np.uint64)
        words = LinearCode(n, [int(b) for b in basis]).words()
        reps = rng.integers(0, 1 << n, size=nreps, dtype=np.uint64)
        center = n // 2
        for allowed in (
            _mask(range(center - n // 8, center + n // 8 + 1)),
            _mask(range(n + 1)),
            _mask(range(0, n + 1, 2)),
            _mask([n + 1]),  # every rep rejected
            int(rng.integers(0, 1 << 62)),
        ):
            expect = chunked_filter_oracle(words, reps, allowed)
            got = coset_filter(words, reps, allowed)
            assert got.dtype == bool and np.array_equal(got, expect)


def test_coset_filter_matches_oracle_on_extension_cosets():
    for cid, a in (("C_{16,6,1}", 2), ("C_{16,6,2}", 4), ("C_{8,5}", 2)):
        code = load_code(cid)
        reps = _extension_candidates(code, a)
        allowed = _mask((code.n // 2 - a, code.n // 2, code.n // 2 + a))
        expect = chunked_filter_oracle(code.words(), reps, allowed)
        assert expect.any() and not expect.all()
        assert np.array_equal(coset_filter(code.words(), reps, allowed), expect)
    reps = _extension_candidates(rm1(5), 8)
    allowed = _mask((8, 16, 24))
    expect = chunked_filter_oracle(rm1(5).words(), reps, allowed)
    assert np.array_equal(coset_filter(rm1(5).words(), reps, allowed), expect)


def test_leader_weights_match_relaxation_on_random_codes():
    rng = random.Random(5)
    for n in (1, 5, 12, 18):
        for k in (0, 1, n // 2, n - 1, n):
            code = LinearCode(n, [rng.getrandbits(n) for _ in range(k)])
            cols, r = _column_syndromes(code)
            assert np.array_equal(leader_weights(cols, r), relaxation_oracle(cols, r))


def _assert_matches_popcount_relaxation(cols, r):
    got = leader_weights(cols, r)
    assert got.dtype == np.uint8 and got.size == 1 << r
    assert got.tobytes() == popcount_relaxation_oracle(cols, r).tobytes()


def test_leader_weights_match_popcount_relaxation_on_random_codes():
    rng = random.Random(11)
    cap = ENUM_CAP
    regimes = {"r = 0": 0, "e = r < k": 0, "k > cap, r > cap": 0, "e = k < r": 0}
    for n, k in ((5, 5), (9, 9), (12, 10), (18, 14), (20, 16), (30, 14), (29, 13), (16, 5), (24, 8)):
        for _ in range(3):
            cols, r = _column_syndromes(LinearCode(n, [rng.getrandbits(n) for _ in range(k)]))
            k_eff = sum(1 for h in cols.tolist() if h) - r  # nonzero non-pivot columns
            regimes["r = 0"] += r == 0
            regimes["e = r < k"] += 0 < r < k_eff and r <= cap
            regimes["k > cap, r > cap"] += k_eff > cap and r > cap
            regimes["e = k < r"] += 0 < k_eff < r
            _assert_matches_popcount_relaxation(cols, r)
    assert all(regimes.values()), regimes


def test_leader_weights_match_popcount_relaxation_with_dependent_columns():
    # the top e bits of the non-pivot columns span only 2 dimensions, so
    # several subsets share one row of the table with different low parts
    rng = random.Random(12)
    for r, k in ((10, 4), (14, 5), (16, 12)):
        e = min(k + 1, r, ENUM_CAP)
        tops = [rng.getrandbits(e) << (r - e) for _ in range(2)]
        rest = [rng.choice([0, tops[0], tops[1], tops[0] ^ tops[1]]) | rng.getrandbits(r - e) for _ in range(k)]
        rest += [rest[0], 0]  # a repeated column and a zero column
        rng.shuffle(rest)
        cols = np.array([1 << i for i in range(r)] + rest, dtype=np.uint64)
        _assert_matches_popcount_relaxation(cols, r)


def test_leader_weights_match_popcount_relaxation_on_a8_branch():
    # the r = 25..22 classes of the a = 8 branch at length 32
    seeds, rs = [rm1_fixed(5)], []
    while True:
        classes = classify_step(seeds, 8).classes
        if not classes:
            break
        seeds = [rec.code for rec in classes]
        for code in seeds:
            cols, r = _column_syndromes(code)
            rs.append(r)
            _assert_matches_popcount_relaxation(cols, r)
    assert sorted(set(rs)) == [22, 23, 24, 25]


def test_leader_tables_catalog_digest():
    digest = hashlib.sha256()
    for cid in all_ids():
        cols, r = _column_syndromes(load_code(cid))
        digest.update(leader_weights(cols, r).tobytes())
    assert digest.hexdigest() == CATALOG_LEADER_SHA256


def _catalog_ids_for_leader_check():
    """Every table code; with the stretch tier skipped, a seeded sample of those with r >= 22."""
    small, large = [], []
    for cid in all_ids():
        code = load_code(cid)
        (large if code.n - code.k >= 22 else small).append(cid)
    if os.environ.get("FOURWEIGHT_SKIP_STRETCH") == "1":
        large = random.Random(22).sample(large, 6)
    return small + large


def test_leader_tables_match_relaxation_on_catalog():
    for cid in _catalog_ids_for_leader_check():
        cols, r = _column_syndromes(load_code(cid))
        got = leader_weights(cols, r)
        assert got.tobytes() == relaxation_oracle(cols, r).tobytes(), cid


def test_weight_counts_empty_basis():
    counts = LinearCode(8).weight_distribution().counts
    assert counts[0] == 1 and sum(counts) == 1


def test_syndrome_guard():
    with pytest.raises(CapacityError):
        leader_weights(np.zeros(1, dtype=np.uint64), SYNDROME_GUARD + 1)


def test_numpy_backend_end_to_end():
    # covering radius from a cold interpreter, through the NumPy kernels alone
    code = (
        "from fourweight.catalog import load_code\n"
        "from fourweight.cover import covering_radius\n"
        "print(covering_radius(load_code('C_{16,7,1}')))\n"
    )
    src = os.path.dirname(os.path.dirname(fourweight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "4"
