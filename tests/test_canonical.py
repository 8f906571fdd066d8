import pytest

from fourweight.canonical import (
    apply_permutation,
    are_equivalent,
    automorphism_generators,
    canonical_code,
    canonical_form,
    equivalence_witness,
    find_isomorphism_bruteforce,
    permute_columns,
)
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
    from fourweight.catalog import load_code

    code = load_code("C_{32,9,1}")
    key = canonical_form(code).key
    for _ in range(3):
        sigma = random_permutation(rng, 32)
        assert canonical_form(apply_permutation(code, sigma)).key == key
