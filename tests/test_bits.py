import pytest
from hypothesis import given, strategies as st

from fourweight._bits import mask_to_01, mask_to_support, reduce_mask, rref_masks, support_to_mask
from fourweight.errors import InputError


def test_from_support_table_vector():
    v = support_to_mask(16, {1, 8, 12, 14, 15, 16})
    assert mask_to_01(16, v) == "1000000100010111"
    assert v.bit_count() == 6
    assert mask_to_support(16, v) == (1, 8, 12, 14, 15, 16)


def test_from_support_empty():
    v = support_to_mask(8, set())
    assert mask_to_01(8, v) == "00000000"
    assert v.bit_count() == 0


def test_from_support_weight32_vector():
    v = support_to_mask(32, {1, 2, 3, 4, 17, 18, 19, 20})
    assert v.bit_count() == 8


def test_from_support_rejects_out_of_range():
    with pytest.raises(InputError):
        support_to_mask(8, {0})
    with pytest.raises(InputError):
        support_to_mask(8, {9})
    with pytest.raises(InputError):
        support_to_mask(8, [3, 3])


def test_roundtrip_and_order():
    v = int("0101", 2)
    assert int(mask_to_01(4, v), 2) == v
    # integer order is the lexicographic order of the 0/1 strings
    assert int("0011", 2) < v and mask_to_01(4, 0b0011) < mask_to_01(4, v)
    assert mask_to_support(4, v) == (2, 4)  # coordinate 1 is the most significant bit


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_weight_xor_identity(x, y):
    assert (x ^ y).bit_count() == x.bit_count() + y.bit_count() - 2 * (x & y).bit_count()


def test_rref_identity_rows():
    basis = rref_masks([1 << i for i in range(4)], 4)
    assert len(basis) == 4
    assert sorted(basis) == [1, 2, 4, 8]


def test_rref_duplicate_rows():
    v = 0b1100
    assert rref_masks([v, v], 4) == (v,)


def test_rref_empty():
    assert rref_masks([], 4) == ()


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
