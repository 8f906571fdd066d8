"""GF(2) vectors as int bitmasks, and row reduction on them.

Coordinates are 1-indexed at every external boundary (matching the
support-set notation used in the published tables) and 0-indexed bit
positions internally: coordinate j of a length-n vector lives at bit
n - j, so the integer read MSB-first equals the displayed 0/1 string
and integer comparison equals lexicographic comparison of strings.
This is the one bit layout: unpack_bits spreads words into 0/1
coordinates, pack_bits is its exact inverse, and every coordinate
permutation (permute_bits) is an unpack, a gather and a pack.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from fourweight.errors import CapacityError, InputError

#: Enumerating a span materializes 2^k words; larger spans are walked as
#: cosets of a smaller one (see ``LinearCode.weight_distribution``).
SPAN_GUARD = 24


def support_to_mask(n: int, support: Iterable[int]) -> int:
    """Pack a 1-indexed support set into an int bitmask."""
    bits = 0
    seen = set()
    for p in support:
        if not 1 <= p <= n:
            raise InputError(f"support position {p} out of range 1..{n}")
        if p in seen:
            raise InputError(f"support position {p} listed twice")
        seen.add(p)
        bits |= 1 << (n - p)
    return bits


def mask_to_support(n: int, bits: int) -> tuple[int, ...]:
    return tuple(p for p in range(1, n + 1) if (bits >> (n - p)) & 1)


def mask_to_01(n: int, bits: int) -> str:
    return format(bits, f"0{n}b") if n else ""


def rref_masks(rows: Iterable[int], n: int) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span of int-mask rows.

    Pivots run from coordinate 1 (bit n-1) rightward; the returned rows
    are ordered by pivot, each pivot column is cleared in all other rows,
    and zero rows are dropped, so the result is a canonical basis of the
    row span.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row & (1 << (b.bit_length() - 1)):
                row ^= b
        if row:
            pivot = 1 << (row.bit_length() - 1)
            basis = [b ^ row if b & pivot else b for b in basis]
            basis.append(row)
    basis.sort(reverse=True)
    return tuple(basis)


def reduce_mask(x, basis: Sequence[int]):
    """Residual of x after elimination against a basis (0 iff in span).

    Each basis row must be zero on the leading bits of the rows before it,
    as in an RREF basis.

    x is an int or a uint64 array, reduced elementwise; the input is not
    modified.
    """
    for b in basis:
        x = x ^ ((x >> (b.bit_length() - 1)) & 1) * b
    return x


def complement_basis(rows: Iterable[int], sub: Sequence[int], n: int) -> tuple[int, ...]:
    """RREF basis of a complement of span(sub) in span(sub + rows); sub is in RREF.

    Its words are zero on every pivot of sub, so its span meets span(sub)
    only in 0 and holds exactly one representative per coset.
    """
    return rref_masks((reduce_mask(row, sub) for row in rows), n)


def span_masks(basis: Sequence[int]) -> np.ndarray:
    """All 2^k words of the span as a uint64 numpy array (doubling order)."""
    k = len(basis)
    if k > SPAN_GUARD:
        raise CapacityError(f"span enumeration of 2^{k} words exceeds guard 2^{SPAN_GUARD}")
    words = np.zeros(1, dtype=np.uint64)
    for b in basis:
        words = np.concatenate([words, words ^ np.uint64(b)])
    return words


def unpack_bits(words, n: int) -> np.ndarray:
    """0/1 coordinates of n-bit words as uint8 on a new last axis, coordinate 1 first.

    The words' big-endian bytes are unpacked, so no temporary is wider
    than 64 bytes per word.
    """
    w = np.asarray(words, dtype=np.uint64)
    octets = w.astype(">u8").reshape(-1).view(np.uint8).reshape(w.shape + (8,))
    return np.ascontiguousarray(np.unpackbits(octets, axis=-1)[..., 64 - n :])


def pack_bits(bits) -> np.ndarray:
    """The words whose 0/1 coordinates are the last axis of bits, coordinate 1 first.

    The exact inverse of unpack_bits: the coordinates are packed into
    big-endian bytes, padded to 8 and read as one word shifted into place.
    """
    b = np.asarray(bits, dtype=np.uint8)
    n = b.shape[-1]
    octets = np.packbits(b, axis=-1)
    padded = np.zeros(b.shape[:-1] + (8,), dtype=np.uint8)
    padded[..., : octets.shape[-1]] = octets
    return padded.view(">u8")[..., 0] >> np.uint64(64 - n)


def permute_bits(words, order, n: int) -> np.ndarray:
    """The n-bit words whose coordinate t + 1 is the input's coordinate order[t] + 1."""
    return pack_bits(np.take(unpack_bits(words, n), order, axis=-1))
