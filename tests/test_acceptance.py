"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every stated runtime bound and exact count is asserted here.
The length-32 reclassification runs by default; set
``FOURWEIGHT_SKIP_STRETCH=1`` to skip it.
"""

import hashlib
import json
import os
import random
import time

import numpy as np
import pytest

from fourweight.canonical import apply_permutation, are_equivalent, canonical_form
from fourweight.catalog import all_ids, load_code, verify_claims
from fourweight.cli import main
from fourweight.conditions import check_conditions
from fourweight.cover import is_maximal, leader_histogram, leader_profile
from fourweight.weighing import build_quwm_set, psi

from conftest import VERIFY_PAPER_SHA256, random_permutation, report_sha256
from oracles import covering_radius_bruteforce


def _report(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def scope32():
    t0 = time.time()
    report = verify_claims(32)
    elapsed = time.time() - t0
    failed = [c.claim for c in report.claims if not c.ok]
    assert report.all_pass, failed
    assert report_sha256(report) == VERIFY_PAPER_SHA256[32]
    return report, elapsed


def test_criterion_1_length8(capsys):
    t0 = time.time()
    status = main(["--format", "json", "classify", "--length", "8"])
    payload = json.loads(capsys.readouterr().out)
    ok = status == 0
    ks = [r["k"] for r in payload["reports"]]
    ok &= ks == [5, 6, 7]
    for rep in payload["reports"]:
        ok &= rep["num_classes"] == 1
        rec = rep["classes"][0]
        ok &= rec["min_weight"] == 2 and rec["a"] == 2
    from fourweight.reedmuller import rm1

    ok &= leader_histogram(rm1(3)).get(2, 0) == 7
    ok &= leader_histogram(load_code("C_{8,5}")).get(2, 0) == 3
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, elapsed, "length-8: unique classes at k=5,6,7; 7 and 3 weight-2 cosets")


def test_criterion_2_length16(capsys):
    t0 = time.time()
    status = main(["--format", "json", "classify", "--length", "16"])
    payload = json.loads(capsys.readouterr().out)
    ok = status == 0
    ks = [r["k"] for r in payload["reports"]]
    ok &= ks == [6, 7, 8]
    ok &= all(r["num_classes"] == 2 for r in payload["reports"])
    from fourweight.linear import LinearCode

    for rep in payload["reports"]:
        for i in (1, 2):
            target = load_code(f"C_{{16,{rep['k']},{i}}}")
            ok &= any(
                are_equivalent(LinearCode(16, rec["generator_rows"]), target)
                for rec in rep["classes"]
            )
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    with capsys.disabled():
        _report(2, ok, elapsed, "length-16: 2 classes at k=6,7,8, equivalent to the table codes")


def test_criterion_3_distribution_formula(capsys):
    t0 = time.time()
    ids = all_ids("all")
    ok = len(ids) >= 201
    for cid in ids:
        code = load_code(cid)
        cert = check_conditions(code).certificate
        ok &= cert is not None and cert.expected == code.weight_distribution()
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    with capsys.disabled():
        _report(3, ok, elapsed, f"closed-form distribution = enumeration for {len(ids)} codes")


def test_criterion_4_covering_radii(capsys, scope32):
    report32, fixture_elapsed = scope32
    t0 = time.time()
    radii = report32.covering_radius
    ok = leader_profile(load_code("C_{16,7,1}")).radius == 4
    ok &= all(radii[f"C_{{32,10,{i}}}"] == 10 for i in range(1, 102))
    ok &= radii["C_{32,11,1}"] == 8 and radii["C_{32,11,2}"] == 8
    ok &= all(radii[f"C_{{32,9,{i}}}"] <= 11 for i in range(1, 91))
    elapsed = time.time() - t0 + fixture_elapsed
    ok &= elapsed < 600.0
    with capsys.disabled():
        _report(
            4, ok, elapsed,
            "radii: C_{16,7,1}=4; [32,10] d12 all 10; [32,11] both 8; C_{32,9,1..90} <= 11"
            f" (computed 91 -> {radii['C_{32,9,91}']}, 92 -> {radii['C_{32,9,92}']})",
        )


def test_criterion_5_maximality(capsys, scope32):
    t0 = time.time()
    claims = {c.claim: c.ok for c in scope32[0].claims}
    ok = claims.get("all 196 length-32 codes are maximal", False)
    ok &= is_maximal(load_code("C_{16,7,1}")).maximal
    ok &= is_maximal(load_code("C_{16,8,1}")).maximal
    ok &= is_maximal(load_code("C_{16,8,2}")).maximal
    for cid in ("C_{16,6,1}", "C_{16,6,2}"):
        res = is_maximal(load_code(cid))
        ok &= not res.maximal and res.witness is not None
        ok &= check_conditions(res.witness).ok
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(5, ok, elapsed, "maximality: 196 + C_{16,7,1} + C_{16,8,*}; C_{16,6,*} witnesses")


def test_criterion_6_inequivalence(capsys, scope32):
    t0 = time.time()
    claims = {c.claim: c.ok for c in scope32[0].claims}
    ok = claims.get("[32,9]: 92 pairwise inequivalent classes", False)
    ok &= claims.get("[32,10]: 102 pairwise inequivalent classes", False)
    ok &= claims.get("[32,11]: 2 pairwise inequivalent classes", False)
    for k in (6, 7, 8):
        keys = {canonical_form(load_code(f"C_{{16,{k},{i}}}")).key for i in (1, 2)}
        ok &= len(keys) == 2
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(6, ok, elapsed, "distinct canonical keys: 92/102/2 at n=32 and 2 per k at n=16")


def test_criterion_7_quwm_sets(capsys):
    t0 = time.time()
    qs = build_quwm_set(load_code("C_{16,8,1}"))
    ok = len(qs) == 8 and qs.params.as_tuple() == (16, 16, 4, 64) and qs.verify().all_pass

    qs32 = build_quwm_set(load_code("C_{32,10,102}"))
    ok &= qs32.params.as_tuple() == (32, 32, 4, 256)
    ok &= len(qs32) == 16 and len(qs32) >= 4  # computed size 16, claim is a lower bound
    ok &= qs32.verify().all_pass

    qs9 = build_quwm_set(load_code("C_{32,9,1}"))
    ok &= len(qs9) == 8 and qs9.params.as_tuple() == (32, 32, 16, 64) and qs9.verify().all_pass
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(
            7, ok, elapsed,
            "matrix sets: 8 @ (16,16,4,64); 16 (>=4) @ (32,32,4,256); 8 @ (32,32,16,64)",
        )


def test_criterion_8_property_suite(capsys, rng):
    t0 = time.time()
    # sign-map inner-product identity, exhaustive at n=8
    images = psi(np.arange(256), 8).astype(np.int64)
    gram = images @ images.T
    xs = np.arange(256, dtype=np.uint64)
    ok = all(
        (gram[x] == 8 - 2 * np.bitwise_count(np.uint64(x) ^ xs).astype(np.int64)).all()
        for x in range(256)
    )
    # and on 10^4 random pairs at n=32
    pairs = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(10_000)]
    px = psi(np.array([x for x, _ in pairs], dtype=np.uint64), 32).astype(np.int64)
    py = psi(np.array([y for _, y in pairs], dtype=np.uint64), 32).astype(np.int64)
    wts = np.array([(x ^ y).bit_count() for x, y in pairs])
    ok &= ((px * py).sum(axis=1) == 32 - 2 * wts).all()

    # canonical keys invariant under >= 100 random permutations per code
    fast_corpus = ["C_{8,5}", "C_{8,6}", "C_{8,7}", "C_{16,6,1}", "C_{16,6,2}",
                   "C_{16,7,1}", "C_{16,7,2}", "C_{32,9,1}", "C_{32,10,1}"]
    for cid in fast_corpus:
        code = load_code(cid)
        key = canonical_form(code).key
        for _ in range(100):
            sigma = random_permutation(rng, code.n)
            ok &= canonical_form(apply_permutation(code, sigma)).key == key

    # every constructed matrix is Hadamard: H H^T = n I
    for cid in ("C_{8,7}", "C_{16,7,1}", "C_{16,8,2}", "C_{32,9,1}"):
        qs = build_quwm_set(load_code(cid))
        n = qs.params.n
        eye = n * np.eye(n, dtype=np.int64)
        ok &= all((h.astype(np.int64) @ h.T.astype(np.int64) == eye).all() for h in qs.matrices)

    # syndrome-sweep radius equals brute force on every n <= 16 code
    for cid in all_ids(8) + all_ids(16):
        code = load_code(cid)
        ok &= leader_profile(code).radius == covering_radius_bruteforce(code)

    # a randomized antipodal choice still verifies
    qs = build_quwm_set(load_code("C_{16,8,1}"), rng=random.Random(rng.getrandbits(32)))
    ok &= qs.verify().all_pass
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(8, ok, elapsed, "property suite: sign map, canonical keys, Hadamard, radii, splits")


@pytest.mark.skipif(
    os.environ.get("FOURWEIGHT_SKIP_STRETCH") == "1",
    reason="length-32 reclassification skipped by request",
)
def test_criterion_9_stretch_classify32(capsys):
    # 4.5-10 s and 49 MiB of RSS cold on 2 CPUs: orbit reduction under the discovered automorphisms
    # keeps the candidate space small enough to rerun routinely
    from fourweight.catalog import parse_id
    from fourweight.classify import classify_all

    t0 = time.time()
    reports = classify_all(32, allow_long=True)
    by_k = {rep.k: rep for rep in reports}
    counts = {k: sum(1 for r in by_k[k].classes if r.maximal) for k in sorted(by_k)}
    ok = counts == {7: 0, 8: 0, 9: 92, 10: 102, 11: 2}
    # the freshly classified maximal classes coincide with the table codes
    for k in (9, 10, 11):
        fresh = {rec.key for rec in by_k[k].classes if rec.maximal}
        catalog_keys = {
            canonical_form(load_code(cid)).key
            for cid in all_ids(32)
            if parse_id(cid)[1] == k
        }
        ok &= fresh == catalog_keys
    # the whole output, byte for byte: keys, provenance, members_seen, maximality, radii
    text = json.dumps([rep.as_dict() for rep in reports], sort_keys=True)
    ok &= hashlib.sha256(text.encode()).hexdigest() == (
        "c034eee6d925b6856f5454f8d4a5f82fb796c18e58f84a562de3b21c87a93881"
    )
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(
            9, ok, elapsed,
            f"fresh length-32 classification: maximal counts {counts}, classes = catalog, "
            "output digest pinned",
        )
