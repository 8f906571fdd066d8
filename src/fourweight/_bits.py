"""Word-packed vectors over GF(2) and row reduction on int bitmasks.

Coordinates are 1-indexed at every external boundary (matching the
support-set notation used in the published tables) and 0-indexed bit
positions internally: coordinate j of a length-n vector lives at bit
n - j, so the integer read MSB-first equals the displayed 0/1 string
and integer comparison equals lexicographic comparison of strings.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class BitVector:
    """Fixed-length GF(2) vector packed into a Python int."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("vector length must be nonnegative")
        if not 0 <= self.bits < (1 << self.n):
            raise InputError("bit pattern does not fit the stated length")

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BitVector":
        return cls(n, support_to_mask(n, support))

    @classmethod
    def from01(cls, s: str) -> "BitVector":
        s = s.strip()
        if s and set(s) - {"0", "1"}:
            raise InputError(f"not a 0/1 string: {s!r}")
        return cls(len(s), int(s, 2) if s else 0)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return mask_to_support(self.n, self.bits)

    def to01(self) -> str:
        return mask_to_01(self.n, self.bits)

    @property
    def leading_bit(self) -> int:
        """Value of coordinate 1."""
        if self.n == 0:
            raise InputError("empty vector has no coordinates")
        return (self.bits >> (self.n - 1)) & 1

    def complement(self) -> "BitVector":
        return BitVector(self.n, self.bits ^ ((1 << self.n) - 1))

    def _check_len(self, other: "BitVector") -> None:
        if self.n != other.n:
            raise InputError(f"length mismatch: {self.n} vs {other.n}")

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.n, self.bits ^ other.bits)

    # GF(2) addition is XOR.
    __add__ = __xor__

    def __lt__(self, other: "BitVector") -> bool:
        self._check_len(other)
        return self.bits < other.bits

    def __le__(self, other: "BitVector") -> bool:
        self._check_len(other)
        return self.bits <= other.bits

    def __str__(self) -> str:
        return self.to01()


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
    """Residual of x after elimination against an RREF basis (0 iff in span).

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


def rref(rows: Sequence[BitVector]) -> tuple[list[BitVector], int]:
    """RREF basis and rank for a list of equal-length vectors."""
    if not rows:
        return [], 0
    n = rows[0].n
    for r in rows:
        if r.n != n:
            raise InputError("rows must all have the same length")
    basis = rref_masks((r.bits for r in rows), n)
    return [BitVector(n, b) for b in basis], len(basis)


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
