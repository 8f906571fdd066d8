import hashlib

import pytest

from fourweight.errors import InputError
from fourweight.linear import full_space
from fourweight.reedmuller import RM_FIXED_ROWS, rm1, rm1_fixed

# sha256 of the fixed generator rows of RM(1,4) and RM(1,5), joined by
# newlines: guards their transcription from the published tables
RM_FIXED_SHA256 = {
    4: "0b0eaf3bbd4cf0c47f029683f671dfc0c48f10267345d0204cde9f8f78cd5278",
    5: "9b30cf71b2f5ba53562b4c905d856f862d8cc369438c42b28475dab434511427",
}


def test_rm1_base_case():
    assert rm1(1) == full_space(2)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_rm1_structure(m):
    code = rm1(m)
    n = 1 << m
    assert code.n == n and code.k == m + 1
    weights = code.weight_distribution().nonzero_weights()
    assert weights == (0, n // 2, n)
    # every nonzero, non-all-one codeword has weight exactly n/2
    assert code.weight_distribution()[n // 2] == (1 << (m + 1)) - 2


def test_rm1_range():
    with pytest.raises(InputError):
        rm1(0)
    with pytest.raises(InputError):
        rm1(7)


def test_rm1_3_is_extended_hamming_equivalent():
    # [8,4,4] with A_4 = 14 pins the extended Hamming weight enumerator
    code = rm1(3)
    assert code.weight_distribution().as_dict() == {"0": 1, "4": 14, "8": 1}


def test_fixed_matrix_first_rows():
    assert rm1_fixed(4).to_text().splitlines()[1] == "1001011001101001"
    assert rm1_fixed(5).to_text().splitlines()[1] == "10010110011010010110100110010110"


def test_fixed_matrix_checksums():
    for m in (4, 5):
        assert hashlib.sha256("\n".join(RM_FIXED_ROWS[m]).encode()).hexdigest() == RM_FIXED_SHA256[m]


@pytest.mark.parametrize("m", [4, 5])
def test_fixed_equals_recursive_as_sets(m):
    # brute-force codeword-set comparison; the catalog fixture records this
    from fourweight.catalog import _tables

    same = set(int(w) for w in rm1(m).words()) == set(int(w) for w in rm1_fixed(m).words())
    assert same
    assert _tables()["rm_fixed_equals_recursive"][str(m)] is same


def test_fixed_contains_all_one():
    assert (1 << 16) - 1 in rm1_fixed(4)
    assert (1 << 32) - 1 in rm1_fixed(5)


def test_fixed_weight_distribution_matches_recursive():
    for m in (4, 5):
        assert rm1_fixed(m).weight_distribution() == rm1(m).weight_distribution()


def test_fixed_rejects_other_m():
    with pytest.raises(InputError):
        rm1_fixed(6)
