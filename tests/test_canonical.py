import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourweight.canonical import (
    _Search,
    _canonicalize,
    _find,
    _mix,
    _unique_rows,
    apply_permutation,
    are_equivalent,
    automorphism_generators,
    canonical_code,
    canonical_form,
    equivalence_witness,
    find_isomorphism_bruteforce,
    permute_columns,
)
from fourweight.catalog import all_ids, load_code
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1

from conftest import random_permutation


def test_key_invariance_under_permutations(rng, n8_codes, n16_codes):
    for code in list(n8_codes.values()) + list(n16_codes.values()):
        key = canonical_form(code).key
        for _ in range(8):
            sigma = random_permutation(rng, code.n)
            assert canonical_form(apply_permutation(code, sigma)).key == key


def test_witness_reproduces_key(rng, n16_codes):
    code = n16_codes["C_{16,7,1}"]
    form = canonical_form(code)
    canon = permute_columns(code, form.witness)
    expected = (f"{code.n},{code.k}|").encode() + b"|".join(
        f"{r:016b}".encode() for r in canon.row_masks
    )
    assert form.key == expected
    assert canonical_code(code) == canon


def test_distinct_keys_for_inequivalent_codes(n16_codes):
    assert not are_equivalent(n16_codes["C_{16,6,1}"], n16_codes["C_{16,6,2}"])
    assert not are_equivalent(n16_codes["C_{16,8,1}"], n16_codes["C_{16,8,2}"])
    assert not are_equivalent(n16_codes["C_{16,7,1}"], n16_codes["C_{16,7,2}"])


def test_equivalence_of_permuted_copy(rng, n16_codes):
    code = n16_codes["C_{16,6,2}"]
    sigma = random_permutation(rng, 16)
    image = apply_permutation(code, sigma)
    assert are_equivalent(code, image)
    w = equivalence_witness(code, image)
    assert w is not None and apply_permutation(code, w) == image


def test_column_reversal_is_equivalent(n16_codes):
    code = n16_codes["C_{16,7,2}"]
    assert are_equivalent(code, permute_columns(code, list(range(15, -1, -1))))


def test_automorphisms_are_automorphisms(n8_codes):
    code = n8_codes["C_{8,5}"]
    gens = automorphism_generators(code)
    assert gens
    for g in gens:
        assert apply_permutation(code, g) == code


def test_oracle_cross_validation(rng, n8_codes, n16_codes):
    # the independent brute-force search certifies the canonical keys on
    # every length-8 and length-16 catalog code
    codes = list(n8_codes.values()) + list(n16_codes.values())
    for code in codes:
        sigma = random_permutation(rng, code.n)
        image = apply_permutation(code, sigma)
        assert are_equivalent(code, image)
        found = find_isomorphism_bruteforce(code, image)
        assert found is not None and apply_permutation(code, found) == image
    for a in codes:
        for b in codes:
            if a.n != b.n or a.k != b.k or a is b:
                continue
            assert are_equivalent(a, b) == (find_isomorphism_bruteforce(a, b) is not None)


def test_guards():
    with pytest.raises(InputError):
        canonical_form(LinearCode(8))
    with pytest.raises(CapacityError):
        canonical_form(LinearCode(33, [1]))
    with pytest.raises(InputError):
        permute_columns(rm1(3), [0, 1, 2, 3, 4, 5, 6, 6])


def test_length32_permuted_copy(rng):
    code = load_code("C_{32,9,1}")
    key = canonical_form(code).key
    for _ in range(3):
        sigma = random_permutation(rng, 32)
        assert canonical_form(apply_permutation(code, sigma)).key == key


def test_golden_keys_witnesses_and_generators():
    # pins every key, witness and generator tuple on the 205 catalog codes;
    # the [32,10] tenth generators in derived.json are matched in key order
    ids = all_ids(8) + all_ids(16) + all_ids(32)
    keys = b"\n".join(canonical_form(load_code(c)).key for c in ids)
    assert hashlib.sha256(keys).hexdigest() == (
        "5acecce6062ac51efcaa68e5afaf7a9d335f5b57ba57474337198259a688098e"
    )
    results = [_canonicalize(load_code(c)) for c in ids]
    full = repr([(r.form.key, r.form.witness, r.gens) for r in results]).encode()
    assert hashlib.sha256(full).hexdigest() == (
        "f71bfbd803245d349a5baf4adcfcd306f4bbff76f3f1b2bca42b48203ce76c22"
    )


def refine_oracle(search, colors):
    """Reference refinement: incidence counts through one-hot int64 matmuls, then hashed."""
    rbits = search.rbits.astype(np.int64)
    R, n = rbits.shape
    ncol = int(colors.max()) + 1
    while True:
        onehot = np.zeros((n, ncol), dtype=np.int64)
        onehot[np.arange(n), colors] = 1
        counts = (rbits @ onehot).astype(np.uint64)
        whash = counts @ _mix(ncol) + search.rweights * _mix(ncol + 1)[ncol]
        wvals, wcolor = np.unique(whash, return_inverse=True)
        wonehot = np.zeros((R, len(wvals)), dtype=np.int64)
        wonehot[np.arange(R), wcolor] = 1
        chash = (rbits.T @ wonehot).astype(np.uint64) @ _mix(len(wvals))
        csig = np.empty((n, 2 + len(search.pair)), dtype=np.uint64)
        csig[:, 0] = colors.astype(np.uint64)
        csig[:, 1] = chash
        for t, mat in enumerate(search.pair):
            combined = colors[None, :] * (int(mat.max()) + 1) + mat
            csig[:, 2 + t] = np.sort(combined, axis=1).astype(np.uint64) @ _mix(n)
        cuniq, new_colors = np.unique(csig, axis=0, return_inverse=True)
        if len(cuniq) == ncol and np.array_equal(new_colors, colors):
            sizes = np.bincount(colors, minlength=ncol)
            digest = hashlib.blake2b(wvals.tobytes() + cuniq.tobytes(), digest_size=8).digest()
            return colors, (ncol, sizes.tobytes(), digest)
        colors = new_colors
        ncol = len(cuniq)


def orbit_roots_oracle(gens, path, n):
    """Reference orbit partition: a fresh union-find over every generator fixing path."""
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        if all(g[p] == p for p in path):
            for i in range(n):
                ra, rb = find(i), find(g[i])
                if ra != rb:
                    parent[ra] = rb
    return [int(find(i)) for i in range(n)]


def _blocks(roots):
    """The partition as labels: each point maps to the first point of its block."""
    first = {}
    return [first.setdefault(r, i) for i, r in enumerate(roots)]


def _refine_inputs(search, rng):
    """Colorings a search meets (refined, then one column individualized) and random ones."""
    n = search.n
    out = [np.zeros(n, dtype=np.int64)]
    stable, _ = refine_oracle(search, np.zeros(n, dtype=np.int64))
    for c in rng.sample(range(n), min(n, 4)) + [int(np.flatnonzero(stable == 0)[0])]:
        child = stable * 2
        child[c] -= 1  # a column of cell 0 becomes color -1
        out.append(child)
    for m in (2, 3, n):
        out.append(np.array([rng.randrange(m) for _ in range(n)], dtype=np.int64))
    return out


def test_refine_matches_oracle():
    rng = random.Random(31)
    codes = [load_code(c) for c in all_ids(8) + all_ids(16)]
    codes += [load_code(c) for c in ("C_{32,9,1}", "C_{32,9,92}", "C_{32,10,5}", "C_{32,10,102}", "C_{32,11,2}")]
    for n in (3, 7, 12, 20, 32):
        for k in (1, n // 3 + 1, n // 2):
            codes.append(LinearCode(n, [rng.getrandbits(n) | 1 for _ in range(k)]))
    for code in codes:
        search = _Search(code)
        for colors in _refine_inputs(search, rng):
            got, got_inv = search.refine(colors.copy())
            want, want_inv = refine_oracle(search, colors.copy())
            assert np.array_equal(got, want) and got_inv == want_inv


def test_incremental_orbits_match_full_rebuild():
    rng = random.Random(32)
    for cid in ("C_{8,5}", "C_{16,6,2}", "C_{16,8,1}", "C_{32,9,92}"):
        code = load_code(cid)
        n = code.n
        real = list(automorphism_generators(code))
        for path in ([], [0], rng.sample(range(n), 2)):
            free = [i for i in range(n) if i not in path]
            pool = list(real)
            for _ in range(12):
                g = list(range(n))
                cycle = rng.sample(free if rng.random() < 0.7 else range(n), 3)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    g[a] = b
                pool.append(tuple(g))
            rng.shuffle(pool)
            search = _Search(code)
            parent, seen = list(range(n)), 0
            for step, g in enumerate(pool):
                search.gens.append(g)
                if step % 3 == 1:
                    continue  # fold two generators at once next time
                seen = search._fold_orbits(parent, seen, path)
                assert seen == len(search.gens)
                roots = [_find(parent, i) for i in range(n)]
                assert _blocks(roots) == _blocks(orbit_roots_oracle(search.gens, path, n))


@st.composite
def code_pairs(draw):
    """(a, b) of equal (n, k): b is a relabelled copy of a or an independent code."""
    n = draw(st.integers(min_value=1, max_value=16))
    k = draw(st.integers(min_value=1, max_value=n))

    def code():
        # rows with identity on k distinct columns: dimension exactly k
        pivots = draw(st.permutations(range(n)))[:k]
        free = sum(1 << (n - 1 - p) for p in pivots) ^ ((1 << n) - 1)
        rows = [
            (1 << (n - 1 - p)) | (draw(st.integers(0, (1 << n) - 1)) & free) for p in pivots
        ]
        return LinearCode(n, rows)

    a = code()
    if draw(st.booleans()):
        return a, apply_permutation(a, draw(st.permutations(range(n))))
    return a, code()


@settings(max_examples=80, deadline=None)
@given(pair=code_pairs())
def test_are_equivalent_matches_bruteforce_on_random_codes(pair):
    a, b = pair
    assert a.k == b.k
    assert are_equivalent(a, b) == (find_isomorphism_bruteforce(a, b) is not None)


def test_unique_rows_matches_numpy():
    rng = np.random.default_rng(33)
    for shape, high in (((1, 3), 5), ((32, 4), 3), ((32, 4), 1 << 63), ((40, 2), 2), ((7, 1), 4)):
        a = rng.integers(0, high, size=shape, dtype=np.uint64)
        want, want_inv = np.unique(a, axis=0, return_inverse=True)
        got, got_inv = _unique_rows(a)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_inv, want_inv.reshape(-1))
