import pytest

from fourweight.canonical import apply_permutation
from fourweight.conditions import (
    admissible_offsets,
    check_conditions,
    expected_distribution,
    reference_rm,
    require_certificate,
)
from fourweight.errors import InputError
from fourweight.linear import WeightDistribution
from fourweight.reedmuller import rm1, rm1_fixed

from conftest import random_permutation


def test_admissible_offsets():
    assert admissible_offsets(8) == {2}
    assert admissible_offsets(16) == {2, 4}
    assert admissible_offsets(32) == {4, 8}


def test_admissible_offsets_rejects_non_power():
    with pytest.raises(InputError):
        admissible_offsets(24)


def _dist(n, pairs):
    counts = [0] * (n + 1)
    for w, c in pairs.items():
        counts[w] = c
    return WeightDistribution(tuple(counts))


def test_expected_distribution_examples():
    assert expected_distribution(16, 4, 6, 4) == _dist(16, {0: 1, 4: 4, 8: 54, 12: 4, 16: 1})
    assert expected_distribution(16, 4, 8, 4) == _dist(16, {0: 1, 4: 28, 8: 198, 12: 28, 16: 1})
    assert expected_distribution(8, 3, 5, 2) == _dist(8, {0: 1, 2: 4, 4: 22, 6: 4, 8: 1})


def test_expected_distribution_rejects_impossible():
    # offset 1 at length 16 would force a negative middle count
    with pytest.raises(InputError):
        expected_distribution(16, 4, 6, 1)
    with pytest.raises(InputError):
        expected_distribution(16, 4, 6, 3)
    with pytest.raises(InputError):
        expected_distribution(12, 4, 6, 2)


def test_check_conditions_c1661(n16_codes):
    cert = require_certificate(n16_codes["C_{16,6,1}"])
    assert (cert.a, cert.l, cert.qw_set_size) == (2, 16, 2)


def test_check_conditions_c85(n8_codes):
    cert = require_certificate(n8_codes["C_{8,5}"])
    assert (cert.a, cert.l, cert.qw_set_size) == (2, 4, 2)


def test_reference_rm_is_built_once():
    # check_conditions asks for it once per code; rebuilding rm1_fixed(5)
    # from its strings each time cost more than the check itself
    assert reference_rm(5) is reference_rm(5) and reference_rm(5) == rm1_fixed(5)
    assert reference_rm(3) is reference_rm(3) and reference_rm(3) == rm1(3)


def test_check_conditions_rm_fails():
    result = check_conditions(rm1_fixed(4))
    assert not result.ok
    assert not result.weight_condition
    assert result.subcode_condition
    assert any("weight set" in v for v in result.violations)


def test_check_conditions_reports_all_violations():
    # even-weight [8,7] permuted so the reference RM is no longer inside,
    # and with only three weights: both clauses must be listed
    bad = rm1(4)
    result = check_conditions(bad)
    assert not result.ok and len(result.violations) == 1
    from fourweight.linear import LinearCode

    scrambled = LinearCode(16, [0b11 << i for i in range(0, 14, 2)])
    result = check_conditions(scrambled)
    assert not result.weight_condition and not result.subcode_condition
    assert len(result.violations) == 2


def test_offset_equals_half_minus_min_weight(n16_codes):
    for code in n16_codes.values():
        cert = require_certificate(code)
        assert cert.a == code.n // 2 - code.min_weight()


def test_permutation_behavior(rng, n16_codes):
    code = n16_codes["C_{16,7,1}"]
    base = require_certificate(code)
    for _ in range(5):
        sigma = random_permutation(rng, 16)
        image = apply_permutation(code, sigma)
        result = check_conditions(image)
        # condition (1) and the derived (a, l) never change under permutation
        assert result.weight_condition
        d = image.min_weight()
        assert 16 // 2 - d == base.a
        # condition (2) only survives permutations fixing the reference code
        if result.ok:
            assert (result.certificate.a, result.certificate.l) == (base.a, base.l)


def test_certificate_expected_matches_enumeration(n16_codes, n8_codes):
    for code in list(n16_codes.values()) + list(n8_codes.values()):
        cert = require_certificate(code)
        assert cert.expected == code.weight_distribution()


def test_rm_fixing_permutations_preserve_both_conditions(n16_codes):
    # permutations in Aut(RM(1,4)) fix the reference code setwise, so the
    # full check must succeed with the unchanged (a, l)
    from fourweight.canonical import apply_permutation, automorphism_generators

    code = n16_codes["C_{16,6,1}"]
    base = require_certificate(code)
    gens = automorphism_generators(rm1_fixed(4))
    assert gens
    for g in gens[:10]:
        image = apply_permutation(code, g)
        cert = require_certificate(image)
        assert (cert.a, cert.l) == (base.a, base.l)
