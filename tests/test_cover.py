import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourweight.canonical import apply_permutation, are_equivalent
from fourweight.conditions import admissible_offsets, reference_rm, require_certificate
from fourweight.cover import (
    CosetLeaderProfile,
    _column_syndromes,
    _punctured,
    covering_radius,
    is_maximal,
    leader_histogram,
    leader_profile,
    leader_weights,
    valid_extension_vectors,
)
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode, even_weight_code, full_space
from fourweight.reedmuller import rm1

from conftest import random_permutation
from oracles import covering_radius_bruteforce


def test_radius_even_weight_code():
    assert covering_radius(even_weight_code(8)) == 1


def test_radius_e8():
    assert covering_radius(rm1(3)) == 2
    assert covering_radius_bruteforce(rm1(3)) == 2


def test_radius_c1671(n16_codes):
    assert covering_radius(n16_codes["C_{16,7,1}"]) == 4


def test_radius_matches_bruteforce(rng, n8_codes, n16_codes):
    codes = list(n8_codes.values()) + list(n16_codes.values())
    codes += [LinearCode(12, [rng.getrandbits(12) for _ in range(4)]) for _ in range(3)]
    for code in codes:
        assert covering_radius(code) == covering_radius_bruteforce(code)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    rows=st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=10),
)
def test_radius_matches_bruteforce_on_random_codes(n, rows):
    # at most 10 rows: the brute-force oracle does 2^(n+k) word checks
    code = LinearCode(n, [row & ((1 << n) - 1) for row in rows])
    assert covering_radius(code) == covering_radius_bruteforce(code)


def _even(rows, n):
    """The rows with the last coordinate set to each row's parity, so every row is even."""
    return [(row & ((1 << n) - 1)) ^ ((row & ((1 << n) - 1)).bit_count() & 1) for row in rows]


def _assert_own_table_histogram(code):
    # the code's own table, which leader_weights keeps building, against the
    # histogram leader_histogram takes through the puncture
    table = leader_weights(*_column_syndromes(code))
    assert leader_histogram(code) == {w: int(c) for w, c in enumerate(np.bincount(table)) if c}


def test_even_codes_match_bruteforce_through_their_puncture():
    # R = R* + 1 against the 2^n-vector oracle, h[w] = h*[w] + h*[w - 1]
    # against the code's own table
    rng = random.Random(28)
    for n in (2, 3, 5, 8, 11, 14, 16):
        for k in (0, 1, n // 2, n - 2, n - 1):
            code = LinearCode(n, _even([rng.getrandbits(n) for _ in range(min(k, 10))], n))
            # no pivot on the last coordinate: the shifted rows are C*'s RREF, of the same k
            swept, shift = _punctured(code)
            assert shift == 1 and swept.row_masks == tuple(row >> 1 for row in code.row_masks), code.row_masks
            assert covering_radius(code) == covering_radius_bruteforce(code), (n, code.row_masks)
            _assert_own_table_histogram(code)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    rows=st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=10),
)
def test_radius_matches_bruteforce_on_random_even_codes(n, rows):
    code = LinearCode(n, _even(rows, n))
    assert covering_radius(code) == covering_radius_bruteforce(code)
    _assert_own_table_histogram(code)


def test_odd_codes_are_swept_unpunctured():
    # F_2^n has radius 0; its puncture, shifted, would give 1
    for n in (1, 2, 7, 16):
        assert _punctured(full_space(n))[1] == 0
        assert covering_radius(full_space(n)) == 0
        assert leader_histogram(full_space(n)) == {0: 1}
    # the zero code of length n >= 2 is even: every vector is its own coset leader
    for n in (2, 9):
        assert covering_radius(LinearCode(n)) == n
        assert leader_histogram(LinearCode(n)) == {w: math.comb(n, w) for w in range(n + 1)}


def test_radius_matches_bruteforce_on_high_dimension():
    # [16,14]: the oracle's blocks shrink with k, so its memory stays bounded
    rng = random.Random(14)
    pivots = rng.sample(range(16), 14)
    free = (1 << 16) - 1 - sum(1 << p for p in pivots)
    code = LinearCode(16, [(1 << p) | (rng.getrandbits(16) & free) for p in pivots])
    assert code.k == 14
    assert covering_radius_bruteforce(code) == covering_radius(code)


def test_leader_table_shape(n16_codes):
    hist = leader_histogram(n16_codes["C_{16,7,1}"])
    assert hist[0] == 1  # syndrome 0 alone has leader weight 0
    assert sum(hist.values()) == 1 << 9


def test_profile_has_only_code_and_radius():
    assert [f.name for f in dataclasses.fields(CosetLeaderProfile)] == ["code", "radius"]


def test_table_profile_matches_swept_profile(n8_codes, n16_codes):
    # the length-8 codes take the cube path (k > r); the length-16 ones sweep tiles
    for code in list(n8_codes.values()) + list(n16_codes.values()):
        assert max(leader_histogram(code)) == leader_profile(code).radius


def test_histogram_permutation_invariant(rng, n8_codes, n16_codes):
    for code in list(n8_codes.values()) + list(n16_codes.values()):
        hist = leader_histogram(code)
        for _ in range(3):
            image = apply_permutation(code, random_permutation(rng, code.n))
            assert leader_histogram(image) == hist


def test_guard():
    with pytest.raises(CapacityError):
        leader_profile(LinearCode(32, [1]))


def test_c1671_maximal_fast_path(n16_codes):
    res = is_maximal(n16_codes["C_{16,7,1}"])
    assert res.maximal and res.path == "fast"
    assert res.radius == 4  # 4 < n/2 - a = 6


def test_self_dual_codes_maximal(n16_codes):
    for cid in ("C_{16,8,1}", "C_{16,8,2}"):
        assert is_maximal(n16_codes[cid]).maximal


def test_c1661_not_maximal_with_witness(n16_codes):
    res = is_maximal(n16_codes["C_{16,6,1}"])
    assert not res.maximal
    assert res.witness is not None and res.witness.k == 7
    # the witness extension is the d = 6 branch representative
    assert are_equivalent(res.witness, n16_codes["C_{16,7,1}"])


def test_c1662_not_maximal(n16_codes):
    res = is_maximal(n16_codes["C_{16,6,2}"])
    assert not res.maximal
    assert are_equivalent(res.witness, n16_codes["C_{16,7,2}"])


def test_fast_and_slow_paths_agree(n16_codes, n8_codes):
    for code in list(n16_codes.values()) + list(n8_codes.values()):
        fast = is_maximal(code)
        slow_scan_empty = valid_extension_vectors(code, require_certificate(code).a).size == 0
        assert fast.maximal == slow_scan_empty


def test_triply_even_code_needs_slow_path():
    from fourweight.catalog import load_code

    code = load_code("C_{32,9,92}")
    res = is_maximal(code)
    assert res.maximal and res.path == "slow"
    assert res.radius == 12  # radius >= n/2 - a = 8, so the bound is useless


def _naive_valid_cosets(code, allowed):
    """Least element of each coset x + C whose weights all lie in allowed."""
    space = np.arange(1 << code.n, dtype=np.uint64)
    ok_weight = np.isin(np.arange(code.n + 1), sorted(allowed))
    ok = np.ones(space.size, dtype=bool)
    least = space.copy()
    for w in code.words():
        shifted = space ^ w
        ok &= ok_weight[np.bitwise_count(shifted)]
        np.minimum(least, shifted, out=least)
    return set(least[ok].tolist())


BRANCHES = [(n, a) for n in (4, 8, 16) for a in sorted(admissible_offsets(n))]


@settings(max_examples=80, deadline=None)
@given(branch=st.sampled_from(BRANCHES), data=st.data())
def test_coset_filter_matches_naive_enumeration(branch, data):
    # (16, 4) is the doubly even branch: it scans only C-perp/C, which is
    # complete for doubly even codes, so there the codes grow from RM(1,4)
    # along naively valid cosets; the full-space scan takes any code with RM(1,m)
    n, a = branch
    allowed = {n // 2 - a, n // 2, n // 2 + a}
    code = reference_rm(n.bit_length() - 1)
    if any(w % 4 for w in allowed):
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
        code = LinearCode(n, list(code.row_masks) + rows)
    for _ in range(data.draw(st.integers(1, 4))):
        naive = _naive_valid_cosets(code, allowed)
        words = code.words()
        xs = valid_extension_vectors(code, a)
        assert sorted(int((words ^ np.uint64(x)).min()) for x in xs) == sorted(naive)
        if not naive:
            break
        code = code.extend(data.draw(st.sampled_from(sorted(naive))))
