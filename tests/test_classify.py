import hashlib
import json
import random
import tracemalloc

import pytest

from fourweight.canonical import _canonicalize, are_equivalent, automorphism_generators
from fourweight.catalog import load_code
from fourweight.classify import _orbit_reduce, classify_all, classify_step
from fourweight.conditions import admissible_offsets, reference_rm, require_certificate
from fourweight.cover import SIEVE_BLOCK, valid_extension_vectors
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1, rm1_fixed

from oracles import orbit_reps_two_way, permute_words_reference


@pytest.fixture(scope="module")
def reports8():
    return classify_all(8)


@pytest.fixture(scope="module")
def reports16():
    return classify_all(16)


def test_length8_unique_classes(reports8):
    assert [r.k for r in reports8] == [5, 6, 7]
    for rep in reports8:
        assert len(rep.classes) == 1
        rec = rep.classes[0]
        assert rec.a == 2 and rec.min_weight == 2
        assert rec.code.weight_distribution().nonzero_weights() == (0, 2, 4, 6, 8)


def test_length8_matches_catalog(reports8, n8_codes):
    for rep in reports8:
        catalog_code = n8_codes[f"C_{{8,{rep.k}}}"]
        assert are_equivalent(rep.classes[0].code, catalog_code)


def test_length8_maximality(reports8):
    flags = {rep.k: rep.classes[0].maximal for rep in reports8}
    assert flags == {5: False, 6: False, 7: True}


def test_length16_two_classes_per_k(reports16):
    assert [r.k for r in reports16] == [6, 7, 8]
    for rep in reports16:
        assert len(rep.classes) == 2


def test_length16_matches_catalog(reports16, n16_codes):
    for rep in reports16:
        for i in (1, 2):
            target = n16_codes[f"C_{{16,{rep.k},{i}}}"]
            assert any(are_equivalent(rec.code, target) for rec in rep.classes)


def test_length16_maximality_and_radius(reports16):
    by_k = {rep.k: rep for rep in reports16}
    k7 = {rec.min_weight: rec for rec in by_k[7].classes}
    assert k7[6].maximal and k7[6].covering_radius == 4
    assert not k7[4].maximal
    assert all(rec.maximal for rec in by_k[8].classes)
    assert not any(rec.maximal for rec in by_k[6].classes)


def test_extension_chain_property(reports16):
    # every representative contains a code equivalent to one at the
    # previous dimension: rebuild the chain prefix from provenance
    from fourweight._bits import support_to_mask
    from fourweight.conditions import reference_rm

    by_k = {rep.k: rep for rep in reports16}
    for rec in by_k[8].classes:
        code = reference_rm(4)
        for sup in rec.provenance:
            code = code.extend(support_to_mask(16, sup))
        assert code == rec.code
        prefix = reference_rm(4)
        for sup in rec.provenance[:-1]:
            prefix = prefix.extend(support_to_mask(16, sup))
        assert rec.code.contains(prefix)
        assert any(are_equivalent(prefix, prev.code) for prev in by_k[7].classes)


def test_classify_step_base_case(n8_codes):
    report = classify_step([rm1(3)], a=2)
    assert report.k == 5 and len(report.classes) == 1
    assert are_equivalent(report.classes[0].code, n8_codes["C_{8,5}"])


def test_classify_step_infers_offset(n8_codes):
    report = classify_step([n8_codes["C_{8,5}"]])
    assert report.k == 6 and len(report.classes) == 1


def test_classify_step_rejects_bad_seed():
    with pytest.raises(InputError):
        classify_step([rm1(3)])
    with pytest.raises(InputError):
        classify_step([])


def test_classify_step_validates_every_seed(n8_codes, n16_codes):
    with pytest.raises(InputError, match="does not qualify"):
        classify_step([LinearCode(8, [0xFF])], 2)
    with pytest.raises(InputError, match="does not qualify"):
        classify_step([n8_codes["C_{8,5}"], LinearCode(8, [0xFF, 0x0F, 0x33, 0x55, 0x01])], 2)
    with pytest.raises(InputError, match="differ in length or dimension"):
        classify_step([n8_codes["C_{8,5}"], n8_codes["C_{8,6}"]], 2)
    with pytest.raises(InputError, match="differ in length or dimension"):
        classify_step([n8_codes["C_{8,6}"], n16_codes["C_{16,6,1}"]])
    with pytest.raises(InputError, match="not a=4"):
        classify_step([n16_codes["C_{16,6,1}"]], 4)
    with pytest.raises(InputError, match="not a=2"):
        classify_step([n16_codes["C_{16,6,1}"], n16_codes["C_{16,6,2}"]])
    with pytest.raises(InputError, match="admissible offset"):
        classify_step([rm1_fixed(5)], 3)
    assert classify_step([rm1_fixed(5)], 8).k == 7


def test_extension_vector_counts():
    xs = valid_extension_vectors(rm1(3), 2)
    assert len(xs) == 7  # one per nontrivial weight-2 coset
    assert all(rm1(3).extend(x).k == 5 for x in xs)
    c85 = load_code("C_{8,5}")
    assert len(valid_extension_vectors(c85, require_certificate(c85).a)) == 3


def test_self_dual_code_has_no_extension_vectors(n16_codes):
    code = n16_codes["C_{16,8,1}"]
    assert valid_extension_vectors(code, require_certificate(code).a).size == 0


def _digest(reports):
    text = json.dumps([rep.as_dict() for rep in reports], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_classification_output_pinned(reports8, reports16):
    # keys, provenance, members_seen, maximality and radii, byte for byte
    assert _digest(reports8) == "2edb2927125126b534a5370ca0be746df5b3dbf99de7a1a497ac0fd3ee77c96c"
    assert _digest(reports16) == "81963ce5248e9cdfb762dab758b8ded25f8545593f67c4dee68298773671f439"


def test_classify_step_matches_classify_all_layers(reports16):
    for a in sorted(admissible_offsets(16)):
        layers = [[rec for rec in rep.classes if rec.a == a] for rep in reports16]
        seeds = [reference_rm(4)]
        for above in [layer for layer in layers if layer] + [[]]:
            step = classify_step(seeds, a)
            assert [(r.key, r.members_seen) for r in step.classes] == [
                (r.key, r.members_seen) for r in above
            ]
            seeds = [rec.code for rec in above]


def test_classify32_requires_flag():
    with pytest.raises(CapacityError):
        classify_all(32)


def test_classify_rejects_other_lengths():
    with pytest.raises(InputError):
        classify_all(64)


def test_seed_order_invariance():
    # two inequivalent non-maximal [32,9] codes from the same branch: the
    # merged class keys must not depend on seed order
    from fourweight.catalog import _chain_code

    s1 = _chain_code(32, ["x_{32,7,1}", "x_{32,8,1}", "y_{32,9,1}"])
    s2 = _chain_code(32, ["x_{32,7,1}", "x_{32,8,1}", "y_{32,9,2}"])
    assert not are_equivalent(s1, s2)
    one = classify_step([s1, s2], a=4)
    two = classify_step([s2, s1], a=4)
    assert [r.key for r in one.classes] == [r.key for r in two.classes]
    again = classify_step([s1, s2], a=4)
    assert [r.key for r in again.classes] == [r.key for r in one.classes]


def test_classification_uses_fixed_reference(reports16):
    # representatives all contain the fixed RM(1,4), so reconstruction of
    # table vectors happens in the same coordinate system
    rm = rm1_fixed(4)
    for rep in reports16:
        for rec in rep.classes:
            assert rec.code.contains(rm)


def _orbit_reduce_matches_two_way(code, a):
    """The valid cosets and the kept reps, checked against the two-way oracle."""
    xs = valid_extension_vectors(code, a)
    got = _orbit_reduce(code, xs)
    assert got.tolist() == orbit_reps_two_way(code, automorphism_generators(code), xs).tolist()
    return xs.size, got.size


def test_orbit_reduce_matches_two_way_oracle(a8_chain):
    # the a = 4 root layer: 219,604 valid cosets of RM(1,5) in 3 orbits
    root = reference_rm(5)
    assert _orbit_reduce_matches_two_way(root, 4) == (219_604, 3)
    for code in a8_chain:
        _orbit_reduce_matches_two_way(code, 8)
    # [32,9] codes between RM(1,5) and a table [32,10] code, as the a = 4
    # layer from k = 9 meets them; some have no discovered automorphism
    rng = random.Random(35)
    merged = 0
    for i in rng.sample(range(1, 102), 8):
        source = load_code(f"C_{{32,10,{i}}}")
        while True:
            picks = []
            for _ in range(3):
                x = 0
                for row in source.row_masks:
                    x ^= row * rng.getrandbits(1)
                picks.append(x)
            code = LinearCode(32, root.row_masks + tuple(picks))
            if code.k == 9:
                break
        cosets, reps = _orbit_reduce_matches_two_way(code, 4)
        merged += cosets - reps
    assert merged > 0


def test_orbit_reduce_root_layer_peak_memory():
    # the a = 4 root layer's 219,604 cosets span 14 blocks of SIEVE_BLOCK
    # reps; one intp map of all of them per generator peaked at 46.9 MiB
    root = rm1_fixed(5)
    xs = valid_extension_vectors(root, 4)
    assert -(-xs.size // SIEVE_BLOCK) == 14
    tracemalloc.start()
    try:
        reps = _orbit_reduce(root, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps.size == 3
    assert peak <= 20 << 20, peak / (1 << 20)


def test_orbit_reduce_runs_no_search_below_two_cosets():
    # a maximal parent (no valid coset) or a single valid coset has no orbit
    # to merge, so the parent's generators are never asked for: the
    # canonical cache sees no call at all, hit or miss
    maximal = load_code("C_{32,9,1}")
    empty = valid_extension_vectors(maximal, 4)
    assert empty.size == 0
    root = rm1_fixed(5)
    one = valid_extension_vectors(root, 8)[:1]
    for parent, xs in ((maximal, empty), (root, one)):
        before = _canonicalize.cache_info()
        got = _orbit_reduce(parent, xs)
        after = _canonicalize.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert got.dtype == xs.dtype and got.tolist() == xs.tolist()


def test_orbit_reduce_keeps_each_orbit_minimum(reports16):
    # brute-force closure on the n = 16 parents: each orbit of valid cosets
    # under the discovered generators holds exactly one kept rep, its least
    parents = [(reference_rm(4), a) for a in admissible_offsets(16)]
    parents += [(rec.code, rec.a) for rep in reports16 for rec in rep.classes]
    for code, a in parents:
        xs = valid_extension_vectors(code, a)
        words = code.words().tolist()
        orders = []
        for g in automorphism_generators(code):
            order = [0] * code.n
            for j, gj in enumerate(g):
                order[gj] = j
            orders.append(order)
        covered = set()
        for rep in _orbit_reduce(code, xs).tolist():
            orbit, todo = {rep}, [rep]
            while todo:
                x = todo.pop()
                for order in orders:
                    y = permute_words_reference([x], order, code.n)[0]
                    y = min(y ^ w for w in words)
                    if y not in orbit:
                        orbit.add(y)
                        todo.append(y)
            assert min(orbit) == rep and orbit.isdisjoint(covered)
            covered |= orbit
        assert covered == set(xs.tolist())
