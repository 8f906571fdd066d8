"""Differential tests: each GF(2) primitive against the implementation it replaced.

The oracles below are the earlier bodies of span reduction, the coset
transversals, the weight enumeration and the syndrome columns, kept
verbatim so that the shared primitives in ``fourweight._bits`` are
checked against independent code on seeded random codes and on every
catalog code.
"""

import random

import numpy as np
import pytest

from fourweight._bits import mask_to_01, reduce_mask, rref_masks, span_masks, unpack_bits
from fourweight.catalog import all_ids, load_code
from fourweight.conditions import require_certificate
from fourweight.cover import _column_syndromes, _extension_candidates
from fourweight.linear import LinearCode

LENGTHS = (8, 16, 32, 64)


def old_reduce_mask(x, basis):
    for b in basis:
        if x & (1 << (b.bit_length() - 1)):
            x ^= b
    return x


def old_reduce_mod_masks(xs, rows):
    out = xs.copy()
    one = np.uint64(1)
    for row in rows:
        pivot = np.uint64(row.bit_length() - 1)
        hit = (out >> pivot) & one
        out ^= hit * np.uint64(row)
    return out


def old_column_syndromes(code):
    dual_rows = code.dual().row_masks
    r = len(dual_rows)
    n = code.n
    cols = np.zeros(n, dtype=np.uint64)
    for i, row in enumerate(dual_rows):
        for j in range(n):
            if (row >> (n - 1 - j)) & 1:
                cols[j] |= np.uint64(1 << i)
    return cols, r


def old_extension_candidates(code, a):
    n = code.n
    allowed = (n // 2 - a, n // 2, n // 2 + a)
    if all(w % 4 == 0 for w in allowed):
        transversal = rref_masks(
            (old_reduce_mask(row, code.row_masks) for row in code.dual().row_masks), n
        )
    else:
        pivots = {row.bit_length() - 1 for row in code.row_masks}
        transversal = tuple(1 << f for f in range(n) if f not in pivots)
    return span_masks(transversal)[1:]


def old_weight_counts(basis, n):
    k = basis.size
    low = min(k, 20)
    words = np.zeros(1, dtype=np.uint64)
    for b in basis[:low]:
        words = np.concatenate([words, words ^ b])
    counts = np.zeros(n + 1, dtype=np.int64)
    high = basis[low:]
    for combo in range(1 << (k - low)):
        offset = np.uint64(0)
        for t in range(k - low):
            if (combo >> t) & 1:
                offset ^= high[t]
        counts += np.bincount(np.bitwise_count(words ^ offset), minlength=n + 1)[: n + 1]
    return counts


def _random_code(rng, n, k):
    return LinearCode(n, [rng.getrandbits(n) for _ in range(k)])


def _random_codes(seed, dims):
    """Seeded random codes at every length in LENGTHS, one per dimension from dims(n)."""
    rng = random.Random(seed)
    return [_random_code(rng, n, k) for n in LENGTHS for k in dims(n)]


@pytest.fixture(scope="module")
def catalog_codes():
    return [load_code(cid) for cid in all_ids()]


def test_reduce_mask_scalar_matches_old(catalog_codes):
    rng = random.Random(1)
    codes = _random_codes(2, lambda n: (0, 1, n // 3, n // 2, n - 1, n)) + catalog_codes
    for code in codes:
        for _ in range(20):
            x = rng.getrandbits(code.n)
            assert reduce_mask(x, code.row_masks) == old_reduce_mask(x, code.row_masks)


def test_reduce_mask_array_matches_old_and_keeps_input(catalog_codes):
    rng = np.random.default_rng(3)
    codes = _random_codes(4, lambda n: (0, 1, n // 3, n // 2, n - 1, n)) + catalog_codes
    for code in codes:
        n = code.n
        xs = rng.integers(0, 1 << 63, size=300, dtype=np.uint64)
        xs = (xs << np.uint64(1) | rng.integers(0, 2, size=300, dtype=np.uint64)) >> np.uint64(64 - n)
        before = xs.copy()
        got = reduce_mask(xs, code.row_masks)
        assert got.dtype == np.uint64
        assert np.array_equal(got, old_reduce_mod_masks(xs, code.row_masks))
        assert np.array_equal(xs, before)


def test_column_syndromes_match_double_loop(catalog_codes):
    codes = _random_codes(5, lambda n: (0, 1, n // 4, n // 2, n - 1, n)) + catalog_codes
    for code in codes:
        cols, r = _column_syndromes(code)
        old_cols, old_r = old_column_syndromes(code)
        assert r == old_r and cols.dtype == np.uint64
        assert np.array_equal(cols, old_cols)


def test_extension_candidates_match_both_old_branches(catalog_codes):
    # (n, k, a) with 2^(n-k) small enough to enumerate; a picks the branch:
    # doubly even weight sets scan the dual, the others all of F_2^n
    cases = [(8, 3, 2), (8, 5, 2), (16, 6, 2), (16, 6, 4), (16, 9, 4), (32, 20, 4), (32, 22, 2)]
    cases += [(32, 19, 8), (64, 52, 16), (64, 54, 2)]
    rng = random.Random(6)
    branches = set()
    for n, k, a in cases:
        code = _random_code(rng, n, k)
        branches.add(all(w % 4 == 0 for w in (n // 2 - a, n // 2, n // 2 + a)))
        got = _extension_candidates(code, a)
        expect = old_extension_candidates(code, a)
        assert got.size == expect.size
        assert set(got.tolist()) == set(expect.tolist())
    assert branches == {True, False}
    for code in catalog_codes:
        a = require_certificate(code).a
        # at length 32 the offset-2 branch would scan 2^21..2^23 cosets
        for offset in {a, 2} if code.n <= 16 else {a}:
            got = _extension_candidates(code, offset)
            assert set(got.tolist()) == set(old_extension_candidates(code, offset).tolist())


def test_weight_distribution_matches_old_weight_counts(catalog_codes):
    # k > 20 runs the high-row offsets of the coset walk
    dims = {8: (0, 3, 8), 16: (5, 16), 32: (11, 21, 23), 64: (22, 25)}
    codes = _random_codes(7, lambda n: dims[n]) + catalog_codes
    assert any(code.k > 20 for code in codes)
    for code in codes:
        expect = old_weight_counts(np.array(code.row_masks, dtype=np.uint64), code.n)
        assert code.weight_distribution().counts == tuple(int(c) for c in expect)


def test_unpack_bits_reads_coordinate_one_first():
    rng = random.Random(8)
    for n in LENGTHS:
        words = [rng.getrandbits(n) for _ in range(10)]
        bits = unpack_bits(words, n)
        assert bits.dtype == np.uint8 and bits.shape == (10, n)
        for word, row in zip(words, bits):
            assert "".join(map(str, row.tolist())) == mask_to_01(n, word)
        assert unpack_bits(words[0], n).shape == (n,)
        assert unpack_bits(np.zeros((0,), dtype=np.uint64), n).shape == (0, n)
