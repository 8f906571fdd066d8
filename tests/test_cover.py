import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourweight.canonical import apply_permutation, are_equivalent
from fourweight.conditions import require_certificate
from fourweight.cover import (
    covering_radius,
    covering_radius_bruteforce,
    is_maximal,
    leader_profile,
    valid_extension_vectors,
)
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode, even_weight_code
from fourweight.reedmuller import rm1

from conftest import random_permutation


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


def test_radius_matches_bruteforce_on_high_dimension():
    # [16,14]: the oracle's blocks shrink with k, so its memory stays bounded
    rng = random.Random(14)
    pivots = rng.sample(range(16), 14)
    free = (1 << 16) - 1 - sum(1 << p for p in pivots)
    code = LinearCode(16, [(1 << p) | (rng.getrandbits(16) & free) for p in pivots])
    assert code.k == 14
    assert covering_radius_bruteforce(code) == covering_radius(code)


def test_leader_table_shape(n16_codes):
    profile = leader_profile(n16_codes["C_{16,7,1}"])
    assert profile.leader_weight.size == 1 << 9
    assert profile.leader_weight[0] == 0
    assert sum(profile.histogram().values()) == 1 << 9


def test_histogram_permutation_invariant(rng, n16_codes):
    code = n16_codes["C_{16,6,1}"]
    hist = leader_profile(code).histogram()
    for _ in range(3):
        image = apply_permutation(code, random_permutation(rng, 16))
        assert leader_profile(image).histogram() == hist


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
        cert = require_certificate(code)
        fast = is_maximal(code, cert)
        slow_scan_empty = not valid_extension_vectors(code, cert.a)
        assert fast.maximal == slow_scan_empty


def test_triply_even_code_needs_slow_path():
    from fourweight.catalog import load_code

    code = load_code("C_{32,9,92}")
    res = is_maximal(code)
    assert res.maximal and res.path == "slow"
    assert res.radius == 12  # radius >= n/2 - a = 8, so the bound is useless


def test_dual_restriction_matches_full_scan(n16_codes):
    # doubly even branch: scanning C-perp/C must equal scanning everything
    code = n16_codes["C_{16,6,2}"]
    cert = require_certificate(code)
    xs_dual = valid_extension_vectors(code, cert.a)
    words = code.words()
    allowed = {4, 8, 12}
    brute = []
    seen = set()
    for x in range(1 << 16):
        if x in seen:
            continue
        coset = words ^ np.uint64(x)
        seen.update(int(w) for w in coset)
        if x and set(np.bitwise_count(coset).tolist()) <= allowed:
            brute.append(sorted(int(w) for w in coset))
    assert sorted(sorted(int(w) for w in (words ^ np.uint64(x))) for x in xs_dual) == sorted(brute)
