import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourweight.canonical import (
    _Search,
    _canonicalize,
    _find,
    _mix,
    _mix_constants,
    _unique_rows,
    apply_permutation,
    are_equivalent,
    automorphism_generators,
    canonical_form,
    equivalence_witness,
    permute_columns,
)
from fourweight import classify
from fourweight.catalog import all_ids, load_code
from fourweight.classify import _orbit_reduce, classify_all, classify_step
from fourweight.conditions import require_certificate
from fourweight.cover import valid_extension_vectors
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1, rm1_fixed

from conftest import random_permutation
from oracles import find_isomorphism_bruteforce, permute_words_reference


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


def test_zero_dimensional_codes_are_equivalent():
    for n in (8, 32):
        assert are_equivalent(LinearCode(n), LinearCode(n))
        assert equivalence_witness(LinearCode(n), LinearCode(n)) == tuple(range(n))
    assert not are_equivalent(LinearCode(8), LinearCode(16))
    assert not are_equivalent(LinearCode(8), rm1(3))
    assert equivalence_witness(LinearCode(8), LinearCode(16)) is None


def test_pair_counts_match_int64_products():
    codes = [load_code(cid) for cid in all_ids()]
    assert len(codes) == 205
    rng = random.Random(34)
    while len(codes) < 207:  # [32,20]: the largest classes DIM_GUARD allows
        code = LinearCode(32, [rng.getrandbits(32) for _ in range(20)])
        if code.k == 20:
            codes.append(code)
    for code in codes:
        search = _Search(code)
        classes = sorted(set(search.weights[search.weights > 0].tolist()))[:2]
        want = []
        for w in classes:
            block = search.bits[search.weights == w].astype(np.int64)
            want.append(block.T @ block)
        assert len(search.pair) == len(want)
        for got, exp in zip(search.pair, want):
            assert got.dtype == np.int64 and np.array_equal(got, exp)


def test_length32_permuted_copy(rng):
    code = load_code("C_{32,9,1}")
    key = canonical_form(code).key
    for _ in range(3):
        sigma = random_permutation(rng, 32)
        assert canonical_form(apply_permutation(code, sigma)).key == key


def test_golden_keys_witnesses_and_generators():
    # pins every key and witness on the 205 catalog codes; the [32,10] tenth
    # generators in derived.json are matched in key order.  The generator
    # tuples depend on where the search backjumps, so instead of a digest
    # each one is checked to be an automorphism.
    ids = all_ids(8) + all_ids(16) + all_ids(32)
    keys = b"\n".join(canonical_form(load_code(c)).key for c in ids)
    assert hashlib.sha256(keys).hexdigest() == (
        "5acecce6062ac51efcaa68e5afaf7a9d335f5b57ba57474337198259a688098e"
    )
    results = [_canonicalize(load_code(c)) for c in ids]
    full = repr([(r.form.key, r.form.witness) for r in results]).encode()
    assert hashlib.sha256(full).hexdigest() == (
        "7dbe01003f048606ef9e70493a7b96da95a02fa29f49f5f053fed6b5caf91919"
    )
    for cid, r in zip(ids, results):
        code = load_code(cid)
        for g in r.gens:
            assert apply_permutation(code, g) == code


class NoJumpSearch(_Search):
    """The search without backjumping: a leaf equal to the best only adds a generator."""

    def _node(self, colors, inv, trace, path, better):
        self.nodes += 1
        depth = len(path)
        if not better:
            ref = self.best_trace[depth]
            if inv > ref:
                return
            if inv < ref:
                better = True

        ncol = int(colors.max()) + 1
        if ncol == self.n:
            key, perm = self._leaf_key(colors)
            if better or self.best_key is None:
                self.best_key, self.best_perm = key, perm
                self.best_trace = list(trace)
                return
            if np.array_equal(key, self.best_key):
                g = np.empty(self.n, dtype=np.int64)
                g[self.best_perm] = perm
                g_t = tuple(int(x) for x in g)
                if g_t not in self.gens and any(g[i] != i for i in range(self.n)):
                    self.gens.append(g_t)
                return
            idx = int(np.flatnonzero(key != self.best_key)[0])
            if key[idx] < self.best_key[idx]:
                self.best_key, self.best_perm = key, perm
                self.best_trace = list(trace)
            return

        sizes = np.bincount(colors, minlength=ncol)
        target = int(np.flatnonzero(sizes > 1)[0])
        candidates = sorted(int(c) for c in np.flatnonzero(colors == target))
        tried: list[int] = []
        parent = list(range(self.n))
        seen = 0
        for c in candidates:
            if tried:
                seen = self._fold_orbits(parent, seen, path)
                root = _find(parent, c)
                if any(_find(parent, t) == root for t in tried):
                    continue
            tried.append(c)
            child = colors * 2
            child[c] -= 1
            child, child_inv = self.refine(child)
            path.append(c)
            trace.append(child_inv)
            self._node(child, child_inv, trace, path, better)
            trace.pop()
            path.pop()
            if better and self.best_key is not None:
                better = False
                if trace != self.best_trace[: len(trace)]:
                    better = trace < self.best_trace[: len(trace)]
                    if not better:
                        return


def _searched(cls, code):
    search = cls(code)
    search.run()
    return search


def test_backjump_visits_fewer_nodes():
    # the counts are pinned as well: a search that resumes below the
    # diverging node still beats the oracle, but visits more nodes
    for cid, pinned in (("C_{32,9,92}", (106, 250)), ("C_{32,10,102}", (119, 392))):
        code = load_code(cid)
        jump, nojump = _searched(_Search, code), _searched(NoJumpSearch, code)
        assert jump.nodes < nojump.nodes
        assert (jump.nodes, nojump.nodes) == pinned


def test_backjump_keeps_keys_and_witnesses(rng, n16_codes):
    codes = list(n16_codes.values()) + [load_code("C_{32,9,92}"), load_code("C_{32,11,2}")]
    for code in codes:
        for _ in range(3):
            image = apply_permutation(code, random_permutation(rng, code.n))
            jump, nojump = _searched(_Search, image), _searched(NoJumpSearch, image)
            assert np.array_equal(jump.best_key, nojump.best_key)
            assert np.array_equal(jump.best_perm, nojump.best_perm)


def test_best_path_leads_to_best_leaf():
    # backjumps are measured against best_path, so it must follow every
    # replacement of the best leaf, including by a strictly smaller key
    for cid in all_ids(8) + all_ids(16) + all_ids(32):
        search = _searched(_Search, load_code(cid))
        colors, _ = search.refine(np.zeros(search.n, dtype=np.int64))
        for c in search.best_path:
            child = colors * 2
            child[c] -= 1
            colors, _ = search.refine(child)
        key, perm = search._leaf_key(colors)
        assert np.array_equal(key, search.best_key) and np.array_equal(perm, search.best_perm)


def _same_orbit_reps(code, a):
    """_orbit_reduce under the backjumping search's generators and under the oracle's."""
    xs = valid_extension_vectors(code, a)
    got = _orbit_reduce(code, xs)
    gens = tuple(_searched(NoJumpSearch, code).gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "automorphism_generators", lambda c: gens)
        want = _orbit_reduce(code, xs)
    assert got.dtype == want.dtype == np.uint64
    assert got.tolist() == want.tolist()


def test_orbit_reduce_matches_nojump_generators():
    parents = []
    for cid in all_ids(8) + all_ids(16) + all_ids(32):
        code = load_code(cid)
        a = require_certificate(code).a
        if valid_extension_vectors(code, a).size:
            parents.append((code, a))
    assert len(parents) == 5
    for rep in classify_all(16):
        parents += [(rec.code, rec.a) for rec in rep.classes]
    for code, a in parents:
        _same_orbit_reps(code, a)
    # the a = 8 branch at length 32, layer by layer
    seeds, layers = [rm1_fixed(5)], 0
    while seeds:
        for code in seeds:
            _same_orbit_reps(code, 8)
        seeds = [rec.code for rec in classify_step(seeds, 8).classes]
        layers += 1
    assert layers == 5


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


def test_mix_constants_are_pinned():
    # the row-hash multipliers every canonical key depends on
    digest = hashlib.sha256(_mix_constants(4200).tobytes()).hexdigest()
    assert digest == "208b42ea4b3197a7a95207edffd1c710b59a040b120de91df2cbbaa5d02bbf7d"
    assert _mix_constants(4200).dtype == np.uint64
    assert np.array_equal(_mix(4300)[:4200], _mix_constants(4200))


def test_unique_rows_matches_numpy():
    rng = np.random.default_rng(33)
    for shape, high in (((1, 3), 5), ((32, 4), 3), ((32, 4), 1 << 63), ((40, 2), 2), ((7, 1), 4)):
        a = rng.integers(0, high, size=shape, dtype=np.uint64)
        want, want_inv = np.unique(a, axis=0, return_inverse=True)
        got, got_inv = _unique_rows(a)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_inv, want_inv.reshape(-1))


def test_leaf_key_matches_reference_packing():
    # the key is every codeword permuted by the leaf, packed and sorted;
    # k = 0 is the zero code, whose one codeword is 0
    rng = random.Random(16)
    for n, k in ((32, 16), (20, 15), (32, 10), (12, 0)):
        code = LinearCode(n, [rng.getrandbits(n) for _ in range(k)])
        search = _Search(code)
        assert len(search.bits) == 1 << k
        for _ in range(3):
            colors = np.array([rng.randrange(n) for _ in range(n)])
            key, perm = search._leaf_key(colors)
            assert np.array_equal(perm, np.argsort(colors))
            assert key.dtype == np.uint64
            want = sorted(permute_words_reference(code.words().tolist(), perm.tolist(), n))
            assert key.tolist() == want


def test_canonical_form_peak_memory_on_random_32_18_code():
    # the coordinate bits take 2^k x n bytes; unpacking them and packing
    # leaf keys stay within a few times that (one-shot packing took 17x)
    rng = random.Random(18)
    code = LinearCode(32, [rng.getrandbits(32) for _ in range(18)])
    assert code.k == 18
    tracemalloc.start()
    try:
        canonical_form(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (1 << code.k) * code.n, peak / ((1 << code.k) * code.n)
