import hashlib
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fourweight
from fourweight._bits import complement_basis, permute_bits, rref_masks, span_masks
from fourweight.catalog import all_ids, load_code
from fourweight.classify import classify_step
from fourweight.cover import (
    ENUM_CAP,
    LEADER_TILE,
    REP_BLOCK,
    SIEVE_BLOCK,
    SYNDROME_GUARD,
    _column_syndromes,
    _extension_blocks,
    _free_columns,
    _leader_blocks,
    _punctured,
    _relaxed_tiles,
    _split_columns,
    coset_filter,
    covering_radius,
    leader_histogram,
    leader_profile,
    leader_weights,
    valid_extension_vectors,
)
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode, full_space
from fourweight.reedmuller import rm1, rm1_fixed

from conftest import extension_reps

# sha256 of the leader tables of all catalog codes, concatenated in all_ids() order
CATALOG_LEADER_SHA256 = "9b1d31e8d49c86dcedf8a2ac582addbdc67769c64eb2c60d4cd5f543e21a39ca"


def chunked_filter_oracle(words, reps, allowed):
    """Reference coset filter: every rep against every word, in 2^22-element blocks."""
    ok_weight = np.array([(allowed >> w) & 1 for w in range(65)], dtype=bool)
    out = np.empty(reps.size, dtype=bool)
    chunk = max(1, (1 << 22) // max(1, words.size))
    for lo in range(0, reps.size, chunk):
        block = reps[lo : lo + chunk, None] ^ words[None, :]
        out[lo : lo + chunk] = ok_weight[np.bitwise_count(block)].all(axis=1)
    return out


def one_word_sieve_oracle(words, reps, allowed):
    """Reference coset filter: the shrinking sieve meeting one codeword per step."""
    ok_weight = np.array([(allowed >> w) & 1 for w in range(65)], dtype=bool)
    idx = np.arange(reps.size)
    live = reps
    for w in words:
        if not idx.size:
            break
        keep = ok_weight[np.bitwise_count(live ^ w)]
        live = live[keep]
        idx = idx[keep]
    out = np.zeros(reps.size, dtype=bool)
    out[idx] = True
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


def whole_table_oracle(cols, r):
    """Reference leader sweep: fill the whole (2^e, 2^(r-e)) table one subset at a time, then relax it."""
    rest = cols.tolist()
    for i in range(r):
        rest.remove(1 << i)
    rest = [h for h in rest if h]
    e = min(len(rest), r, ENUM_CAP)
    low = r - e
    best = {0: 0}  # syndrome Hx -> least wt(x), x over subsets of the first e columns
    for h in rest[:e]:
        for o, w in list(best.items()):
            if best.get(o ^ h, 64) > w + 1:
                best[o ^ h] = w + 1
    half = low // 2
    lo_a = np.arange(1 << (low - half), dtype=np.uint32)
    lo_b = np.arange(1 << half, dtype=np.uint32)
    scratch = np.empty(1 << max(low, r - 1), dtype=np.uint8)
    cand = scratch[: 1 << low].reshape(lo_a.size, lo_b.size)
    table = np.full((1 << e, lo_a.size, lo_b.size), 64, dtype=np.uint8)
    for o, w in best.items():
        row = table[o >> low]
        np.add(
            np.bitwise_count(lo_a ^ ((o >> half) & (lo_a.size - 1)))[:, None],
            np.bitwise_count(lo_b ^ (o & (lo_b.size - 1))) + np.uint8(w),
            out=cand,
        )
        np.minimum(row, cand, out=row)
    dist = table.reshape(-1)
    for i in range(low, r):
        pair = dist.reshape(-1, 2, 1 << i)
        a, b = pair[:, 0], pair[:, 1]
        m = scratch[: a.size].reshape(a.shape)
        np.minimum(a, b, out=m)
        np.add(m, 1, out=m)
        np.minimum(a, m, out=a)
        np.minimum(b, m, out=b)
    if len(rest) > e:
        cube = dist.reshape((2,) * r)
        tmp = np.empty_like(cube)
        flip = slice(None, None, -1)
        keep = slice(None)
        for h in rest[e:]:
            view = cube[tuple(flip if (h >> (r - 1 - i)) & 1 else keep for i in range(r))]
            np.add(view, 1, out=tmp)
            np.minimum(cube, tmp, out=cube)
    return dist


def _blocks_radius(cols, r):
    """The covering radius as covering_radius takes it: the max over _leader_blocks."""
    return max(int(block.max()) for _, block in _leader_blocks(cols, r))


def _unrelabelled(head, order, r):
    """The head columns of _split_columns on the original syndrome bits."""
    return permute_bits(head, np.argsort(order), r).tolist()


def _leader_regimes(cols, r):
    """The paths of leader_weights and _leader_blocks that one input takes."""
    rest = _free_columns(cols, r)
    head, tail, order = _split_columns(rest, r)
    span = _unrelabelled(head, order, r)
    regimes = {
        "r = 0": r == 0,
        "one tile": 0 < r and (1 << r) <= LEADER_TILE,
        "several tiles": (1 << r) > LEADER_TILE,
        "no tail": not tail,
        "dependent tail": any(len(rref_masks(span + [h], r)) == len(head) for h in tail),
        "k > cap": len(rest) > ENUM_CAP,
    }
    return {name for name, taken in regimes.items() if taken}


def _mask(weights):
    out = 0
    for w in weights:
        out |= 1 << w
    return out


def _weights(allowed):
    """The weights whose bits are set in a mask of bits 0..64, the form coset_filter takes."""
    return tuple(w for w in range(65) if (allowed >> w) & 1)


def _unblocked_extension_reps(code, a):
    """Every extension coset rep at once, as the filter took them before it walked blocks."""
    n = code.n
    ambient = code.dual() if all(w % 4 == 0 for w in (n // 2 - a, n // 2, n // 2 + a)) else full_space(n)
    return span_masks(complement_basis(ambient.row_masks, code.row_masks, n))[1:]


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
    for n, k, nreps in (
        (16, 3, 2000), (32, 6, 5000), (64, 4, 3000), (32, 0, 50), (20, 5, 0),
        (32, 1, SIEVE_BLOCK + 123),  # more reps than SIEVE_BLOCK
    ):
        basis = rng.integers(0, 1 << n, size=k, dtype=np.uint64)
        words = LinearCode(n, [int(b) for b in basis]).words()
        reps = rng.integers(0, 1 << n, size=nreps, dtype=np.uint64)
        center = n // 2
        for allowed in (
            _mask(range(center - n // 8, center + n // 8 + 1)),
            _mask(range(n + 1)),
            _mask(range(0, n + 1, 2)),
            _mask([n + 1]),  # every rep rejected
            0,  # no weight allowed: every rep rejected
            _mask([center]),
            _mask(range(65)),  # every weight a popcount can take
            int(rng.integers(0, 1 << 62)),
        ):
            expect = chunked_filter_oracle(words, reps, allowed)
            got = coset_filter(words, reps, _weights(allowed))
            assert got.dtype == reps.dtype and np.array_equal(got, reps[expect])


def test_coset_filter_matches_oracle_on_extension_cosets():
    for cid, a in (("C_{16,6,1}", 2), ("C_{16,6,2}", 4), ("C_{8,5}", 2)):
        code = load_code(cid)
        reps = extension_reps(code, a)
        allowed = _mask((code.n // 2 - a, code.n // 2, code.n // 2 + a))
        expect = chunked_filter_oracle(code.words(), reps, allowed)
        assert expect.any() and not expect.all()
        assert np.array_equal(coset_filter(code.words(), reps, _weights(allowed)), reps[expect])
    reps = extension_reps(rm1(5), 8)
    allowed = _mask((8, 16, 24))
    expect = chunked_filter_oracle(rm1(5).words(), reps, allowed)
    assert np.array_equal(coset_filter(rm1(5).words(), reps, _weights(allowed)), reps[expect])


def _assert_sieve_matches_one_word_oracle(words, reps, allowed):
    """Compare the sieve's survivors with the oracle's mask over reps; return the mask."""
    expect = one_word_sieve_oracle(words, reps, allowed)
    got = coset_filter(words, reps, _weights(allowed))
    assert got.dtype == reps.dtype
    assert np.array_equal(got, reps[expect])
    return expect


def test_coset_filter_block_regimes_match_one_word_oracle():
    rng = np.random.default_rng(14)
    words = rm1(5).words()
    near_half = _mask(range(10, 23))  # about half the random reps survive
    # more reps than SIEVE_BLOCK: the first blocks hold one word each
    reps = rng.integers(0, 1 << 32, size=SIEVE_BLOCK + 4099, dtype=np.uint64)
    assert SIEVE_BLOCK // reps.size == 0
    mask = _assert_sieve_matches_one_word_oracle(words, reps, near_half)
    assert mask.any() and not mask.all()
    # few reps: the first block takes every word
    few = reps[:9]
    assert SIEVE_BLOCK // few.size >= words.size
    assert _assert_sieve_matches_one_word_oracle(words, few, near_half).any()
    # in between: blocks of several words, growing as reps die
    assert 1 < SIEVE_BLOCK // 700 < words.size
    assert _assert_sieve_matches_one_word_oracle(words, reps[:700], near_half).any()
    # every rep rejected by the zero word (wt(r) itself is not allowed)
    odd = reps[np.bitwise_count(reps) % 2 == 1]
    assert not _assert_sieve_matches_one_word_oracle(words, odd, _mask(range(0, 33, 2))).any()
    # every rep kept
    assert _assert_sieve_matches_one_word_oracle(words, reps, _mask(range(33))).all()


def test_coset_filter_matches_one_word_oracle_on_a4_cosets():
    # [32,9] a = 4 codes: reps run over the dual, 2^14 - 1 of them; the
    # table codes are maximal, the subcodes of [32,10] table codes are not
    allowed = _mask((12, 16, 20))
    codes = [load_code(cid) for cid in ("C_{32,9,1}", "C_{32,9,45}", "C_{32,9,90}")]
    rng = random.Random(9)
    for cid in ("C_{32,10,3}", "C_{32,10,77}", "C_{32,10,77}"):
        rows = load_code(cid).row_masks
        sub = rm1_fixed(5)
        while sub.k != 9:
            picks = [rng.choice(rows) ^ rng.choice(rows) ^ rng.choice(rows) for _ in range(3)]
            sub = LinearCode(32, rm1_fixed(5).row_masks + tuple(picks))
        codes.append(sub)
    survivors = []
    for code in codes:
        reps = extension_reps(code, 4)
        assert reps.size == (1 << 14) - 1
        survivors.append(_assert_sieve_matches_one_word_oracle(code.words(), reps, allowed).sum())
    assert survivors[:3] == [0, 0, 0] and all(survivors[3:])


def test_coset_filter_matches_one_word_oracle_on_a8_branch():
    allowed = _mask((8, 16, 24))
    seeds, sizes = [rm1_fixed(5)], []
    while seeds:
        for code in seeds:
            reps = extension_reps(code, 8)
            sizes.append(reps.size)
            _assert_sieve_matches_one_word_oracle(code.words(), reps, allowed)
        seeds = [rec.code for rec in classify_step(seeds, 8).classes]
    assert max(sizes) == (1 << 20) - 1


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coset_filter_peak_memory_within_one_word_oracle():
    rng = np.random.default_rng(17)
    words = load_code("C_{32,9,1}").words()
    reps = rng.integers(0, 1 << 32, size=1 << 17, dtype=np.uint64)
    allowed = _mask((12, 16, 20))
    oracle = _traced_peak(one_word_sieve_oracle, words, reps, allowed)
    sieve = _traced_peak(coset_filter, words, reps, _weights(allowed))
    assert sieve <= 1.1 * oracle, (sieve, oracle)


def _dependent_columns(rng, r, k):
    """(cols, r) whose non-pivot columns have top e bits in a 2-dimensional span, one repeated and one 0."""
    e = min(k + 1, r, ENUM_CAP)
    tops = [rng.getrandbits(e) << (r - e) for _ in range(2)]
    rest = [rng.choice([0, tops[0], tops[1], tops[0] ^ tops[1]]) | rng.getrandbits(r - e) for _ in range(k)]
    rest += [rest[0], 0]  # a repeated column and a zero column
    rng.shuffle(rest)
    return np.array([1 << i for i in range(r)] + rest, dtype=np.uint64), r


def _regime_inputs():
    """(cols, r) of seeded random and table codes that take every path of leader_weights and the sweep."""
    rng = random.Random(23)
    inputs = [
        _column_syndromes(LinearCode(n, [rng.getrandbits(n) for _ in range(k)]))
        for n, k in ((6, 6), (12, 5), (16, 8), (20, 14), (32, 10), (36, 14))
    ]
    inputs += [_column_syndromes(load_code(cid)) for cid in ("C_{32,9,5}", "C_{32,10,2}", "C_{32,11,1}")]
    # dependent columns, which go to the tail, on several tiles and on one
    inputs.append(_dependent_columns(rng, 22, 10))
    inputs.append(_dependent_columns(rng, 16, ENUM_CAP - 1))
    return inputs


REGIMES = (
    {"r = 0"},
    {"one tile", "no tail"},
    {"one tile", "dependent tail"},
    {"one tile", "k > cap"},
    {"several tiles", "no tail"},
    {"several tiles", "dependent tail"},
    {"several tiles", "k > cap"},
)


def test_leader_weights_match_whole_table_oracle_in_each_regime():
    seen = []
    for cols, r in _regime_inputs():
        seen.append(_leader_regimes(cols, r))
        assert leader_weights(cols, r).tobytes() == whole_table_oracle(cols, r).tobytes()
    for regime in REGIMES:
        assert any(regime <= got for got in seen), regime


def test_relaxed_tiles_match_whole_table_oracle_tile_by_tile():
    # the lifted passes against the oracle's four-call passes on dist; the
    # oracle gets the relabelled head alone, so it runs no cube passes
    for cols, r in _regime_inputs():
        head = _split_columns(_free_columns(cols, r), r)[0]
        e = len(head)
        units = [1 << i for i in range(r)]
        oracle = whole_table_oracle(np.array(units + head, dtype=np.uint64), r).reshape(1 << e, -1)
        width = 0
        for c0, tile in _relaxed_tiles(head, r):
            assert c0 == width
            assert tile.tobytes() == oracle[:, c0 : c0 + tile.shape[1]].tobytes()
            width += tile.shape[1]
        assert width == 1 << (r - e)


def test_sweep_radius_matches_table_max_in_each_regime():
    seen = []
    for cols, r in _regime_inputs():
        seen.append(_leader_regimes(cols, r))
        assert _blocks_radius(cols, r) == int(leader_weights(cols, r).max())
    for regime in REGIMES:
        assert any(regime <= got for got in seen), regime


def test_syndrome_bit_permutation_keeps_radius_and_permutes_table():
    rng = random.Random(31)
    inputs = [_column_syndromes(load_code(cid)) for cid in ("C_{8,6}", "C_{16,6,1}", "C_{16,8,2}")]
    inputs += [_column_syndromes(LinearCode(16, [rng.getrandbits(16) for _ in range(k)])) for k in (3, 7)]
    inputs += [_dependent_columns(rng, 14, 5)]
    for cols, r in inputs:
        radius, table = _blocks_radius(cols, r), leader_weights(cols, r)
        syndromes = np.arange(1 << r, dtype=np.uint64)
        for _ in range(3):
            order = rng.sample(range(r), r)
            image = permute_bits(cols, order, r)
            assert _blocks_radius(image, r) == radius
            # the coset of syndrome s has syndrome permute_bits(s) in the image
            moved = np.empty_like(table)
            moved[permute_bits(syndromes, order, r).astype(np.intp)] = table
            assert leader_weights(image, r).tobytes() == moved.tobytes()


def test_relabelled_sweep_fills_rows_directly_on_table_codes():
    # every column of the table codes and of the a = 8 chain is in the
    # head, so the radius sweep holds tiles only and no table
    codes = [load_code(cid) for cid in all_ids(32)]
    assert len(codes) == 196
    seeds = [rm1_fixed(5)]
    while seeds:
        codes += seeds
        seeds = [rec.code for rec in classify_step(seeds, 8).classes]
    assert len(codes) == 196 + 6
    for code in codes:
        assert _leader_regimes(*_column_syndromes(code)) >= {"no tail", "several tiles"}
        # the sweep runs the puncture of these even codes, which has no tail either
        swept, shift = _punctured(code)
        assert shift == 1 and "no tail" in _leader_regimes(*_column_syndromes(swept))
    assert "dependent tail" in _leader_regimes(*_column_syndromes(load_code("C_{8,6}")))
    assert "dependent tail" in _leader_regimes(*_dependent_columns(random.Random(12), 10, 4))


def test_split_columns_relabels_an_independent_head():
    rng = random.Random(36)
    inputs = [
        _column_syndromes(load_code("C_{8,6}")),
        _column_syndromes(LinearCode(36, [rng.getrandbits(36) for _ in range(14)])),
        _dependent_columns(random.Random(12), 14, 5),
    ]
    for cols, r in inputs:
        rest = _free_columns(cols, r)
        head, tail, order = _split_columns(rest, r)
        e = len(head)
        assert len(rref_masks(head, r)) == e == min(len(rref_masks(rest, r)), r, ENUM_CAP)
        assert tail  # every input has a dependent column or one beyond the cap
        rows = span_masks(head) >> np.uint64(r - e)
        assert sorted(rows.tolist()) == list(range(1 << e))
        assert sorted(order) == list(range(r))
        assert sorted(_unrelabelled(head, order, r) + tail) == sorted(rest)


def test_sweep_radius_matches_table_max_on_a8_branch():
    seeds, radii = [rm1_fixed(5)], []
    while seeds:
        for code in seeds:
            cols, r = _column_syndromes(code)
            radii.append(covering_radius(code))
            assert radii[-1] == _blocks_radius(cols, r) == int(leader_weights(cols, r).max())
            assert leader_profile(code).radius == radii[-1]
        seeds = [rec.code for rec in classify_step(seeds, 8).classes]
    assert len(radii) == 6  # RM(1,5) and the 1/1/2/1 classes at k = 7..10


def test_sweep_radius_peak_memory_within_two_tiles():
    # filling the 2^23-byte table to take its max took 10.7 MiB traced; with
    # a spill row per subset for the rank-layer folds the sweep took 2.7 tiles
    for cid in ("C_{32,9,5}", "C_{32,11,1}"):
        peak = _traced_peak(covering_radius, load_code(cid))
        assert peak <= 2 * LEADER_TILE, (cid, peak / LEADER_TILE)


def _bincount_histogram(table):
    return {w: int(c) for w, c in enumerate(np.bincount(table)) if c}


def test_leader_histogram_matches_whole_table_bincount_in_each_regime(monkeypatch):
    # the inputs are bare (cols, r), not codes: hand them to leader_histogram
    # through its syndrome step, unpunctured, so that every path of
    # _leader_blocks is counted (test_leader_tables_catalog_digest runs the
    # catalog codes through their punctures)
    monkeypatch.setattr("fourweight.cover._punctured", lambda code: (code, 0))
    for cols, r in _regime_inputs():
        monkeypatch.setattr("fourweight.cover._column_syndromes", lambda code: (cols, r))
        assert leader_histogram(None) == _bincount_histogram(leader_weights(cols, r))


def test_leader_histogram_peak_memory_within_16_mib():
    # one whole 2^23-byte table, bincounted as int64, peaked at 72 MiB traced
    peak = _traced_peak(leader_histogram, load_code("C_{32,9,5}"))
    assert peak <= 16 << 20, peak / (1 << 20)
    # on the cube path the 2^22-byte table, bincounted whole, peaked at 36 MiB
    rng = random.Random(36)
    code = LinearCode(36, [rng.getrandbits(36) for _ in range(14)])
    assert _punctured(code)[1] == 0 and "k > cap" in _leader_regimes(*_column_syndromes(code))
    peak = _traced_peak(leader_histogram, code)
    assert peak <= 16 << 20, peak / (1 << 20)


def test_leader_histogram_peak_memory_within_4_mib():
    # each 1 MiB tile, cast to int64 for a bincount, peaked at 9.8 MiB traced
    peak = _traced_peak(leader_histogram, load_code("C_{32,9,5}"))
    assert peak <= 4 << 20, peak / (1 << 20)


def test_syndrome_zero_is_checked_on_every_path(monkeypatch):
    # a low bit set in every Hx gives the empty subset weight 1 at syndrome 0,
    # which no pass lowers; the one check in _relaxed_tiles must see it on the
    # tile path (C_{16,7,1}) and under the cube passes (C_{8,6})
    monkeypatch.setattr("fourweight.cover.span_masks", lambda basis: span_masks(basis) ^ np.uint64(1))
    for cid in ("C_{16,7,1}", "C_{8,6}"):
        code = load_code(cid)
        cols, r = _column_syndromes(code)
        for call in (lambda: covering_radius(code), lambda: leader_histogram(code), lambda: leader_weights(cols, r)):
            with pytest.raises(AssertionError, match="syndrome 0"):
                call()


def test_valid_extension_vectors_match_unblocked_filter():
    rng = random.Random(10)
    rows = load_code("C_{32,10,3}").row_masks
    sub = rm1_fixed(5)
    while sub.k != 9:
        picks = [rng.choice(rows) ^ rng.choice(rows) ^ rng.choice(rows) for _ in range(3)]
        sub = LinearCode(32, rm1_fixed(5).row_masks + tuple(picks))
    sizes = []
    for code, a in ((rm1_fixed(5), 8), (rm1_fixed(5), 4), (sub, 4)):
        reps = _unblocked_extension_reps(code, a)
        assert np.array_equal(extension_reps(code, a), reps)
        expect = sorted(coset_filter(code.words(), reps, (16 - a, 16, 16 + a)).tolist())
        got = valid_extension_vectors(code, a)
        assert isinstance(got, np.ndarray) and got.dtype == np.uint64
        assert np.all(got[1:] > got[:-1])  # sorted, each rep once
        assert got.tolist() == expect
        sizes.append((reps.size, len(expect)))
    assert sizes[0][0] == sizes[1][0] == (1 << 20) - 1
    assert len(list(_extension_blocks(rm1_fixed(5), 8))) == (1 << 20) // REP_BLOCK
    assert sizes[1][1] == 219604 and sizes[2][0] == (1 << 14) - 1 and sizes[2][1] > 0


def test_valid_extension_vectors_peak_memory_within_4_mib():
    # holding all 2^20 reps, their index and an XOR temporary took 25 MiB traced
    code = rm1_fixed(5)
    code.words()
    peak = _traced_peak(valid_extension_vectors, code, 8)
    assert peak <= 4 << 20, peak
    # a = 4 keeps 219,604 survivors (1.7 MiB as uint64); gathering them as a
    # Python list, then sorting and converting, took 10.65 MiB traced
    peak = _traced_peak(valid_extension_vectors, code, 4)
    assert peak <= 6 << 20, peak


def test_leader_weights_peak_memory_within_table_and_two_tiles():
    # with spill rows for rank-layer folds, all but C_{32,10,2} took the table and 2.8-2.9 tiles
    for cid in ("C_{32,9,5}", "C_{32,9,7}", "C_{32,10,2}", "C_{32,11,1}"):
        cols, r = _column_syndromes(load_code(cid))
        peak = _traced_peak(leader_weights, cols, r)
        assert peak <= (1 << r) + 2 * LEADER_TILE, (cid, (peak - (1 << r)) / LEADER_TILE)


def test_leader_weights_peak_memory_on_the_cube_path():
    # k > ENUM_CAP: the columns beyond the first e relax the whole table
    rng = random.Random(36)
    cols, r = _column_syndromes(LinearCode(36, [rng.getrandbits(36) for _ in range(14)]))
    assert r == 22 and "k > cap" in _leader_regimes(cols, r)
    peak = _traced_peak(leader_weights, cols, r)
    assert peak <= (1 << r) + (1 << (r - 1)) + 3 * LEADER_TILE, peak / (1 << r)


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
    for r, k in ((10, 4), (14, 5), (16, 12), (22, 10)):
        cols, r = _dependent_columns(rng, r, k)
        assert "dependent tail" in _leader_regimes(cols, r)
        _assert_matches_popcount_relaxation(cols, r)
        assert leader_weights(cols, r).tobytes() == whole_table_oracle(cols, r).tobytes()


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
        code = load_code(cid)
        cols, r = _column_syndromes(code)
        table = leader_weights(cols, r)
        digest.update(table.tobytes())
        # the radius and the histogram, on relabelled syndrome bits, against the pinned table
        assert _blocks_radius(cols, r) == int(table.max()), cid
        assert leader_histogram(code) == _bincount_histogram(table), cid
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
