import pytest
from hypothesis import given, strategies as st

from fourweight.canonical import apply_permutation
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode, even_weight_code, full_space
from fourweight.reedmuller import rm1

from conftest import random_permutation


def test_text_format_roundtrip():
    code = rm1(3)
    again = LinearCode.from_text(code.to_text())
    assert again == code
    assert again.to_text() == code.to_text()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "4\n1100",
        "4 2\n1100",
        "4 1\n1100\n0011",
        "4 1\n110a",
        "4 1\n110",
        "4 2\n1100\n1100",
    ],
)
def test_text_format_rejects_malformed(text):
    with pytest.raises(InputError):
        LinearCode.from_text(text)


@pytest.mark.parametrize("row", ["110a", "1 10", "0b11", "110", "11000", "", "   "])
def test_string_rows_reject_malformed(row):
    with pytest.raises(InputError):
        LinearCode(4, ["1100", row])


def test_weight_distribution_rm14():
    dist = rm1(4).weight_distribution()
    assert dist.as_dict() == {"0": 1, "8": 30, "16": 1}
    assert dist.total() == 32


def test_weight_distribution_zero_code():
    zero = LinearCode(8)
    assert zero.k == 0
    assert zero.weight_distribution().as_dict() == {"0": 1}
    with pytest.raises(InputError):
        zero.min_weight()


def test_weight_distribution_guard():
    code = full_space(32)
    with pytest.raises(CapacityError):
        code.weight_distribution()


def test_weight_distribution_permutation_invariant(rng):
    code = LinearCode(12, [rng.getrandbits(12) for _ in range(5)])
    sigma = random_permutation(rng, 12)
    assert apply_permutation(code, sigma).weight_distribution() == code.weight_distribution()


def test_min_weight_examples(n16_codes):
    assert n16_codes["C_{16,6,1}"].min_weight() == 6
    assert rm1(5).min_weight() == 16


def test_contains():
    assert rm1(4).contains(rm1(4))
    sub = LinearCode(8, [0b11111111])
    assert rm1(3).contains(sub)
    assert not sub.contains(rm1(3))
    with pytest.raises(InputError):
        rm1(3).contains(rm1(4))


def test_contains_direction(n16_codes):
    from fourweight.reedmuller import rm1_fixed

    assert n16_codes["C_{16,6,1}"].contains(rm1_fixed(4))
    assert not rm1_fixed(4).contains(n16_codes["C_{16,6,1}"])


def test_dual_involution_and_orthogonality(rng):
    for _ in range(10):
        code = LinearCode(14, [rng.getrandbits(14) for _ in range(6)])
        dual = code.dual()
        assert dual.k == 14 - code.k
        for r in code.row_masks:
            for s in dual.row_masks:
                assert (r & s).bit_count() % 2 == 0
        assert dual.dual() == code


def test_dual_of_full_space():
    assert full_space(4).dual() == LinearCode(4)


def test_self_dual_code(n16_codes):
    assert n16_codes["C_{16,8,1}"].dual() == n16_codes["C_{16,8,1}"]


def test_doubly_even_implies_self_orthogonal(n16_codes):
    for cid in ("C_{16,6,2}", "C_{16,7,2}"):
        code = n16_codes[cid]
        assert code.divisibility() == "doubly_even"
        assert code.dual().contains(code)


def test_divisibility(n16_codes):
    assert n16_codes["C_{16,6,2}"].divisibility() == "doubly_even"
    assert n16_codes["C_{16,6,1}"].divisibility() == "none"


def test_divisibility_triply_even():
    from fourweight.catalog import load_code

    assert load_code("C_{32,9,92}").divisibility() == "triply_even"


def test_coset_table_full_space_over_rm13():
    # the cosets of a code in F_2^n are its syndromes, so the leader table
    # counts them by leader weight
    from fourweight.catalog import load_code
    from fourweight.cover import leader_histogram

    assert leader_histogram(rm1(3)) == {0: 1, 1: 8, 2: 7}  # 16 cosets
    assert leader_histogram(load_code("C_{8,5}")).get(2, 0) == 3


def test_even_weight_code():
    code = even_weight_code(8)
    assert code.k == 7
    assert code.weight_distribution().nonzero_weights() == (0, 2, 4, 6, 8)


@given(st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=6))
def test_membership_matches_enumeration(rows):
    code = LinearCode(10, rows)
    words = set(int(w) for w in code.words())
    assert len(words) == 1 << code.k
    for w in list(words)[:16]:
        assert w in code
