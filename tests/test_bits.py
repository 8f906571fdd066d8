import pytest
from hypothesis import given, strategies as st

from fourweight._bits import BitVector, reduce_mask, rref, rref_masks
from fourweight.errors import InputError


def test_from_support_table_vector():
    v = BitVector.from_support(16, {1, 8, 12, 14, 15, 16})
    assert v.to01() == "1000000100010111"
    assert v.weight == 6
    assert v.support() == (1, 8, 12, 14, 15, 16)


def test_from_support_empty():
    v = BitVector.from_support(8, set())
    assert v.to01() == "00000000"
    assert v.weight == 0


def test_from_support_weight32_vector():
    v = BitVector.from_support(32, {1, 2, 3, 4, 17, 18, 19, 20})
    assert v.weight == 8


def test_from_support_rejects_out_of_range():
    with pytest.raises(InputError):
        BitVector.from_support(8, {0})
    with pytest.raises(InputError):
        BitVector.from_support(8, {9})
    with pytest.raises(InputError):
        BitVector.from_support(8, [3, 3])


def test_add_is_xor():
    a = BitVector.from01("1010")
    b = BitVector.from01("0110")
    assert (a + b).to01() == "1100"
    assert (a + BitVector.zero(4)) == a
    ones = BitVector.ones(8)
    assert (ones + ones) == BitVector.zero(8)


def test_add_rejects_length_mismatch():
    with pytest.raises(InputError):
        BitVector.from01("101") + BitVector.from01("1010")


def test_roundtrip_and_order():
    v = BitVector.from01("0101")
    assert BitVector.from01(v.to01()) == v
    assert BitVector.from01("0011") < BitVector.from01("0101")
    assert v.leading_bit == 0
    assert v.complement().to01() == "1010"


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_weight_xor_identity(x, y):
    u, v = BitVector(16, x), BitVector(16, y)
    assert (u + v).weight == u.weight + v.weight - 2 * (x & y).bit_count()


def test_rref_identity_rows():
    rows = [BitVector(4, 1 << i) for i in range(4)]
    basis, rank = rref(rows)
    assert rank == 4
    assert sorted(b.bits for b in basis) == [1, 2, 4, 8]


def test_rref_duplicate_rows():
    v = BitVector.from01("1100")
    basis, rank = rref([v, v])
    assert rank == 1
    assert basis[0] == v


def test_rref_empty():
    basis, rank = rref([])
    assert basis == [] and rank == 0


@given(st.lists(st.integers(0, 2**12 - 1), max_size=8))
def test_rref_idempotent_and_span_preserving(rows):
    basis = rref_masks(rows, 12)
    assert rref_masks(basis, 12) == basis
    for r in rows:
        assert reduce_mask(r, basis) == 0
    # pivots are distinct and each pivot column is cleared elsewhere
    pivots = [b.bit_length() - 1 for b in basis]
    assert len(set(pivots)) == len(pivots)
    for i, b in enumerate(basis):
        for j, p in enumerate(pivots):
            if i != j:
                assert not (b >> p) & 1
