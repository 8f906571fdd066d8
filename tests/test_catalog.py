import json

import pytest

from fourweight.catalog import (
    TABLES_SHA256,
    _read_data,
    _tables,
    all_ids,
    derive_tenth_generators,
    load_code,
    parse_id,
    verify_claims,
)
from fourweight.conditions import check_conditions
from fourweight.errors import InputError
import hashlib


def test_tables_checksum():
    raw = _read_data("tables.json")
    assert hashlib.sha256(raw.encode()).hexdigest() == TABLES_SHA256


def test_vector_inventory():
    vecs = _tables()["vectors"]
    assert len(vecs["16"]) == 6
    assert len(vecs["32"]) == 183  # 3+12+92 x, 1+67 y, 8 z entries
    assert vecs["32"]["x_{32,9,92}"] == [1, 2, 3, 4, 17, 18, 19, 20]
    # duplicated rows are stored as given
    assert vecs["32"]["z_{32,8,1}"] == vecs["32"]["z_{32,8,2}"]
    assert vecs["32"]["z_{32,11,1}"] != vecs["32"]["z_{32,11,2}"]


def test_all_ids_counts():
    assert len(all_ids(8)) == 3
    assert len(all_ids(16)) == 6
    assert len(all_ids(32)) == 196
    assert len(all_ids("all")) == 205
    with pytest.raises(InputError):
        all_ids(64)


def test_parse_id_variants():
    assert parse_id("C_{16,6,1}") == (16, 6, 1)
    assert parse_id("C{32,10,102}") == (32, 10, 102)
    assert parse_id("C_{8,5}") == (8, 5, None)
    with pytest.raises(InputError):
        parse_id("D_{16,6,1}")


def test_load_code_examples():
    assert load_code("C_{16,6,1}").min_weight() == 6
    c = load_code("C_{32,10,102}")
    assert (c.n, c.k, c.min_weight()) == (32, 10, 8)
    c = load_code("C_{32,11,2}")
    assert (c.k, c.min_weight()) == (11, 12)


def test_load_code_unknown_id():
    with pytest.raises(InputError):
        load_code("C_{16,9,1}")
    with pytest.raises(InputError):
        load_code("C_{32,9,93}")


def test_every_code_reconstructs_with_conditions():
    for cid in all_ids("all"):
        code = load_code(cid)
        assert check_conditions(code).ok, cid


def test_distribution_formula_for_all_codes():
    for cid in all_ids("all"):
        code = load_code(cid)
        cert = check_conditions(code).certificate
        assert cert.expected == code.weight_distribution(), cid


def test_derived_fixture_covers_all_k10():
    derived = json.loads(_read_data("derived.json"))
    assert set(derived["tenth_generator"]) == {f"C_{{32,10,{i}}}" for i in range(1, 103)}


def test_recorded_radii_match_recomputation():
    from fourweight.cover import leader_profile

    recorded = json.loads(_read_data("derived.json"))["covering_radius_computed"]
    assert set(recorded) == {"C_{32,9,91}", "C_{32,9,92}"}
    for cid, radius in recorded.items():
        assert leader_profile(load_code(cid)).radius == radius


def test_verify_claims_scope8():
    report = verify_claims(8)
    assert report.all_pass, [c.claim for c in report.claims if not c.ok]


def test_verify_claims_scope16_thread_determinism():
    r1 = verify_claims(16, threads=1)
    r2 = verify_claims(16, threads=2)
    assert r1.all_pass, [c.claim for c in r1.claims if not c.ok]
    assert r1.as_dict() == r2.as_dict()


def test_verify_claims_bad_scope():
    with pytest.raises(InputError):
        verify_claims(12)


def test_scope_accepts_ints_and_their_strings():
    assert all_ids("32") == all_ids(32)
    assert all_ids("all") == all_ids(8) + all_ids("16") + all_ids(32)
    assert verify_claims("16").as_dict() == verify_claims(16).as_dict()
    for scope in (12, "12", "", None):
        with pytest.raises(InputError):
            all_ids(scope)


def test_rederivation_matches_fixture():
    # full dual search + matching, ~10 s warm; guards the committed fixture
    derived = json.loads(_read_data("derived.json"))["tenth_generator"]
    fresh = derive_tenth_generators()
    assert fresh == {k: list(v) for k, v in derived.items()}
