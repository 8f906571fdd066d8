import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourweight.canonical import (
    DIM_GUARD,
    _Search,
    _canonicalize,
    _find,
    _individualize,
    _MIX,
    _light_classes,
    _mix_constants,
    _splitmix,
    apply_permutation,
    are_equivalent,
    automorphism_generators,
    canonical_form,
    equivalence_witness,
    permute_columns,
)
from fourweight import classify
from fourweight._bits import pack_bits, rref_masks, unpack_bits
from fourweight.catalog import all_ids, load_code
from fourweight.classify import _orbit_reduce, classify_all
from fourweight.conditions import require_certificate
from fourweight.cover import valid_extension_vectors
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1

from conftest import fresh_stdout, random_permutation
from oracles import (
    find_isomorphism_bruteforce,
    pair_counts_reference,
    permute_words_reference,
    refinement_words_reference,
)


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


def test_equivalence_witness_asks_for_each_form_once(rng, n16_codes, monkeypatch):
    # asking are_equivalent for both forms, then for both again, made 4 calls
    calls = []

    def counted(code):
        calls.append(code)
        return _canonicalize(code)

    monkeypatch.setattr("fourweight.canonical._canonicalize", counted)
    code = n16_codes["C_{16,7,2}"]
    image = apply_permutation(code, random_permutation(rng, 16))
    w = equivalence_witness(code, image)
    assert w is not None and apply_permutation(code, w) == image
    assert calls == [code, image]


def test_witness_check_survives_optimize(tmp_path):
    # with apply_permutation patched to leave the code as it is, the check of
    # the witness must still raise under python -O, and the CLI exit with 4
    code = load_code("C_{16,6,2}")
    image = apply_permutation(code, list(range(1, 16)) + [0])
    assert image != code
    code.save(tmp_path / "a.code")
    image.save(tmp_path / "b.code")
    script = (
        "from fourweight import canonical\n"
        "from fourweight.cli import main\n"
        "from fourweight.linear import LinearCode\n"
        "assert not __debug__\n"
        "canonical.apply_permutation = lambda code, sigma: code\n"
        f"a, b = {str(tmp_path / 'a.code')!r}, {str(tmp_path / 'b.code')!r}\n"
        "try:\n"
        "    canonical.equivalence_witness(LinearCode.from_file(a), LinearCode.from_file(b))\n"
        "    print('returned')\n"
        "except AssertionError:\n"
        "    print('raised')\n"
        "print(main(['equiv', a, b]))\n"
    )
    assert fresh_stdout(script, "-O").split() == ["raised", "4"]


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


def test_search_leaves_codewords_uncached():
    # the lru_cache keys on each code, so the search must not cache its
    # 2^k codewords on it
    code = LinearCode(32, [0xFFFF0000, 0xFF00FF00, 0xF0F0F0F0, 0xCCCCCCCC, 0xAAAAAAAB])
    misses = _canonicalize.cache_info().misses
    canonical_form(code)
    assert _canonicalize.cache_info().misses == misses + 1
    assert "_words" not in vars(code)


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
    # the counts are float32 products, exact only while every partial sum,
    # at most 2^k, stays below 2^24, where float32 stops holding every integer
    assert DIM_GUARD < 24
    codes = [load_code(cid) for cid in all_ids()]
    assert len(codes) == 205
    rng = random.Random(34)
    while len(codes) < 207:  # [32,20]: the largest classes DIM_GUARD allows
        code = LinearCode(32, [rng.getrandbits(32) for _ in range(20)])
        if code.k == 20:
            codes.append(code)
    for code in codes:
        words = code.words()
        bits = unpack_bits(words, code.n)
        weights = bits.sum(axis=1)
        classes = sorted(set(weights[weights > 0].tolist()))[:2]
        want = [(b.T @ b) for b in (bits[weights == w].astype(np.int64) for w in classes)]
        got = _light_classes(code)[1]
        assert len(got) == len(want) == 2
        for g, exp in zip(got, want):
            assert g.dtype == np.uint64 and np.array_equal(g, exp)


def _setup_matches_reference(code):
    """The search's refinement words (as a multiset) and pair matrix against the reference setup."""
    search = _Search(code)
    want = refinement_words_reference(code)
    assert sorted(pack_bits(search.rbits.astype(np.uint8)).tolist()) == sorted(want.tolist())
    counts = [c.astype(np.uint64) for c in pair_counts_reference(code)]
    counts += [np.zeros((code.n, code.n), dtype=np.uint64)] * 2
    assert np.array_equal(search.pair, _splitmix((counts[0] << np.uint64(32)) | counts[1]))
    return want


def test_setup_matches_reference(a4_k8_classes):
    # the early-exit rank test and the one weight-sorted unpack against the
    # reduce loop and float64 products they replaced
    rng = random.Random(35)
    codes = [load_code(cid) for cid in all_ids()] + a4_k8_classes
    while len(codes) < 205 + 32 + 3:  # [32,20]: the largest DIM_GUARD allows
        code = LinearCode(32, [rng.getrandbits(32) for _ in range(20)])
        if code.k == 20:
            codes.append(code)
    for n in (5, 8, 12, 20, 32):
        for k in (1, 2, n // 3, n // 2):
            codes.append(LinearCode(n, [rng.getrandbits(n) for _ in range(k)]))
    # fewer than n nonzero words, so every class is taken; the second code
    # has a zero coordinate
    codes += [LinearCode(8, [0b11000000, 0b00111100]), LinearCode(8, [0b11110000, 0b00001110])]
    taken_whole = short_prefix = 0
    for code in codes:
        if code.k == 0:
            continue
        want = _setup_matches_reference(code)
        taken_whole += want.size == (1 << code.k) - 1 < code.n
        light = [w for w in want.tolist() if w.bit_count() == code.min_weight()]
        short_prefix += len(rref_masks(light, code.n)) < code.k <= len(rref_masks(want.tolist(), code.n))
    assert taken_whole >= 2 and short_prefix >= 1


def test_splitmix_scrambles_in_place_as_the_reference():
    rng = random.Random(36)
    values = [0, 1, 2**63, 2**64 - 1] + [rng.getrandbits(64) for _ in range(300)]
    x = np.array(values, dtype=np.uint64)
    assert _splitmix(x) is x
    assert x.tolist() == [splitmix_reference(v) for v in values]


def test_setup_peak_memory_on_random_32_20_code():
    # enumerating the span peaks at 16 bytes a word; the setup then holds the
    # words, their weights and one int64 per word at a time (bincount's copy,
    # then the weight sort).  The reduce-loop setup peaked at 19.03 bytes a word.
    rng = random.Random(37)
    code = LinearCode(32, [rng.getrandbits(32) for _ in range(20)])
    assert code.k == 20
    tracemalloc.start()
    try:
        _Search(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * (1 << code.k), peak / (1 << code.k)
    assert "_words" not in vars(code)


def test_length32_permuted_copy(rng):
    code = load_code("C_{32,9,1}")
    key = canonical_form(code).key
    for _ in range(3):
        sigma = random_permutation(rng, 32)
        assert canonical_form(apply_permutation(code, sigma)).key == key


def test_golden_keys_witnesses_and_generators():
    # pins every key and witness on the 205 catalog codes.  The generator
    # tuples depend on where the search backjumps, so instead of a digest
    # each one is checked to be an automorphism.
    ids = all_ids(8) + all_ids(16) + all_ids(32)
    keys = b"\n".join(canonical_form(load_code(c)).key for c in ids)
    assert hashlib.sha256(keys).hexdigest() == (
        "b90a4f8c7966d38bf2d7308400e2a854bf16956b796f9978b9a63f5400e4311c"
    )
    results = [_canonicalize(load_code(c)) for c in ids]
    full = repr([(r.form.key, r.form.witness) for r in results]).encode()
    assert hashlib.sha256(full).hexdigest() == (
        "0df9bdc43256e17a5390c8e3e7a0db26ea1ade5dbf0e77787432eab3c279a187"
    )
    for cid, r in zip(ids, results):
        code = load_code(cid)
        for g in r.gens:
            assert apply_permutation(code, g) == code


class NoJumpSearch(_Search):
    """The search without backjumping: a leaf equal to the best only adds a generator.

    It also keeps the inherited `better` flag, recomputed after each child,
    so it is the reference for the one trace-prefix pruning rule of _Search.
    """

    def run(self):
        colors, inv = self.refine(np.zeros(self.n, dtype=np.int64))
        self._node(colors, inv, [inv], [], better=True)

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
            if key == self.best_key:
                g = np.empty(self.n, dtype=np.int64)
                g[self.best_perm] = perm
                g_t = tuple(int(x) for x in g)
                if g_t not in self.gens and any(g[i] != i for i in range(self.n)):
                    self.gens.append(g_t)
                return
            if key < self.best_key:
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
            child, child_inv = self.refine(_individualize(colors, c))
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
    for cid, pinned in (("C_{32,9,92}", (102, 256)), ("C_{32,10,102}", (114, 354))):
        code = load_code(cid)
        jump, nojump = _searched(_Search, code), _searched(NoJumpSearch, code)
        assert jump.nodes < nojump.nodes
        assert (jump.nodes, nojump.nodes) == pinned


def test_backjump_keeps_keys_and_witnesses(rng, a8_chain):
    # the one trace-prefix rule against the oracle's recomputed better flag,
    # on every catalog code, the a = 8 chain and a random image of each
    codes = [load_code(c) for c in all_ids(8) + all_ids(16) + all_ids(32)] + a8_chain
    images = [apply_permutation(code, random_permutation(rng, code.n)) for code in codes]
    assert len(images) >= 100
    for code in codes + images:
        jump, nojump = _searched(_Search, code), _searched(NoJumpSearch, code)
        assert jump.best_key == nojump.best_key
        assert np.array_equal(jump.best_perm, nojump.best_perm)


def test_best_path_leads_to_best_leaf():
    # backjumps are measured against best_path, so it must follow every
    # replacement of the best leaf, including by a strictly smaller key
    for cid in all_ids(8) + all_ids(16) + all_ids(32):
        search = _searched(_Search, load_code(cid))
        colors, _ = search.refine(np.zeros(search.n, dtype=np.int64))
        for c in search.best_path:
            colors, _ = search.refine(_individualize(colors, c))
        key, perm = search._leaf_key(colors)
        assert key == search.best_key and np.array_equal(perm, search.best_perm)


def test_a4_class_with_rank7_lightest_words_searches_few_nodes(a4_k8_classes):
    # among the 32 classes of the a = 4 branch at k = 8, all with one weight
    # distribution, one has 48 weight-12 words spanning only 7 dimensions;
    # refining on them alone left it the automorphisms of that subcode to
    # walk (28,738 nodes)
    seeds = a4_k8_classes
    assert len(seeds) == 32
    light = {
        code: [int(w) for w in code.words() if int(w).bit_count() == code.min_weight()]
        for code in seeds
    }
    assert {len(words) for words in light.values()} == {48}
    odd = [code for code, words in light.items() if len(rref_masks(words, 32)) < code.k]
    assert len(odd) == 1 and len(rref_masks(light[odd[0]], 32)) == 7
    search = _searched(_Search, odd[0])
    assert search.nodes <= 200
    rwords = pack_bits(search.rbits.astype(np.uint8)).tolist()
    assert len(rref_masks(rwords, 32)) == odd[0].k


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


def test_orbit_reduce_matches_nojump_generators(a8_chain):
    parents = []
    for cid in all_ids(8) + all_ids(16) + all_ids(32):
        code = load_code(cid)
        a = require_certificate(code).a
        if valid_extension_vectors(code, a).size:
            parents.append((code, a))
    assert len(parents) == 5
    for rep in classify_all(16):
        parents += [(rec.code, rec.a) for rec in rep.classes]
    parents += [(code, 8) for code in a8_chain]
    assert len(a8_chain) == 6
    for code, a in parents:
        _same_orbit_reps(code, a)


def splitmix_reference(x: int) -> int:
    """The splitmix64 finalizer on one Python int."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


def refine_oracle(search, colors):
    """Reference refinement: incidence counts through one-hot int64 matmuls, cells by np.unique."""
    rbits = search.rbits.astype(np.int64)
    R, n = rbits.shape
    ncol = int(colors.max()) + 1
    while True:
        onehot = np.zeros((n, ncol), dtype=np.int64)
        onehot[np.arange(n), colors] = 1
        whash = (rbits @ onehot).astype(np.uint64) @ _MIX[:ncol]
        wvals, wcolor = np.unique(whash, return_inverse=True)
        wonehot = np.zeros((R, len(wvals)), dtype=np.int64)
        wonehot[np.arange(R), wcolor.reshape(-1)] = 1
        scrambled = np.array([splitmix_reference(int(v)) for v in wvals], dtype=np.uint64)
        h = (rbits.T @ wonehot).astype(np.uint64) @ scrambled
        h += (search.pair @ onehot.astype(np.uint64)) @ _MIX[:ncol]
        key = colors.astype(np.uint64) * np.uint64(1 << 58) + h // np.uint64(64)
        cvals, new_colors = np.unique(key, return_inverse=True)
        if len(cvals) == ncol:
            sizes = np.bincount(colors, minlength=ncol)
            digest = hashlib.blake2b(np.sort(key).tobytes(), digest_size=8).digest()
            return colors, (ncol, sizes.tobytes(), digest)
        colors = new_colors.reshape(-1)
        ncol = len(cvals)


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


def _dense(colors):
    """The coloring renumbered 0, 1, 2, ... in the order of its values."""
    return np.unique(colors, return_inverse=True)[1].reshape(-1).astype(np.int64)


def _refine_inputs(search, rng):
    """Colorings a search meets (refined, then one column individualized) and random ones."""
    n = search.n
    out = [np.zeros(n, dtype=np.int64)]
    stable, _ = refine_oracle(search, np.zeros(n, dtype=np.int64))
    shared = np.flatnonzero(np.bincount(stable)[stable] > 1).tolist()  # as the search picks
    for c in rng.sample(shared, min(len(shared), 4)) + sorted(shared, key=lambda c: stable[c])[:1]:
        out.append(_individualize(stable, c))
    for m in (2, 3, n):
        out.append(_dense([rng.randrange(m) for _ in range(n)]))
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
    # the row-hash multipliers every canonical key depends on; the search
    # uses the first LENGTH_GUARD = 32 of them, one per column color
    digest = hashlib.sha256(_mix_constants(4200).tobytes()).hexdigest()
    assert digest == "208b42ea4b3197a7a95207edffd1c710b59a040b120de91df2cbbaa5d02bbf7d"
    assert _mix_constants(4200).dtype == np.uint64
    assert np.array_equal(_MIX, _mix_constants(4200)[:32])


def test_individualize_keeps_colors_dense():
    # a column of a cell of two or more, cell 0 included, takes its cell's
    # color ahead of its cellmates; no color is negative or skipped
    rng = random.Random(17)
    for n in (2, 8, 32):
        for _ in range(20):
            colors = _dense([rng.randrange(rng.randint(1, n)) for _ in range(n)])
            ncol = int(colors.max()) + 1
            for c in np.flatnonzero(np.bincount(colors)[colors] > 1).tolist():
                child = _individualize(colors, c)
                assert sorted(set(child.tolist())) == list(range(ncol + 1))
                assert child[c] == colors[c]
                others = np.arange(n) != c
                assert np.array_equal(child[others] > child[c], colors[others] >= colors[c])


def test_leaf_key_is_rref_of_permuted_code():
    # the leaf is the RREF basis of the code moved by the leaf's permutation,
    # checked against permute_columns and the bit-by-bit reference; k = 0 is
    # the zero code, whose basis is empty
    rng = random.Random(16)
    for n, k in ((32, 16), (20, 15), (32, 10), (12, 0)):
        code = LinearCode(n, [rng.getrandbits(n) for _ in range(k)])
        search = _Search(code)
        for _ in range(3):
            colors = np.array([rng.randrange(n) for _ in range(n)])
            key, perm = search._leaf_key(colors)
            assert np.array_equal(perm, np.argsort(colors))
            assert key == permute_columns(code, perm).row_masks
            moved = permute_words_reference(code.row_masks, perm.tolist(), n)
            assert key == LinearCode(n, moved).row_masks


def test_canonical_form_peak_memory_on_random_32_18_code():
    # the search keeps the 2^k uint64 codewords and the coordinate bits of
    # its refinement words only; holding the bits of every codeword, as the
    # sorted-codeword leaf did, peaks at 3.5 x 2^k x n bytes here
    rng = random.Random(18)
    code = LinearCode(32, [rng.getrandbits(32) for _ in range(18)])
    assert code.k == 18
    tracemalloc.start()
    try:
        canonical_form(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * (1 << code.k), peak / (8 * (1 << code.k))
