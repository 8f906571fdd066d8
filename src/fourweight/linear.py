"""Binary linear codes: enumeration, duality, cosets, the text format."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from fourweight import backend
from fourweight._bits import (
    SPAN_GUARD,
    BitVector,
    mask_to_01,
    reduce_mask,
    rref_masks,
    span_masks,
)
from fourweight.errors import CapacityError, InputError

#: Full enumeration of 2^k codewords is refused beyond this dimension.
ENUM_GUARD = 28


@dataclass(frozen=True)
class WeightDistribution:
    """Counts A_0..A_n of codewords per weight."""

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, w: int) -> int:
        return self.counts[w]

    def total(self) -> int:
        return sum(self.counts)

    def nonzero_weights(self) -> tuple[int, ...]:
        return tuple(w for w, c in enumerate(self.counts) if c)

    def as_dict(self) -> dict[str, int]:
        return {str(w): c for w, c in enumerate(self.counts) if c}

    def __str__(self) -> str:
        return " ".join(f"A_{w}={c}" for w, c in enumerate(self.counts) if c)


class LinearCode:
    """An [n, k] code held as a reduced row-echelon generator basis.

    Instances are immutable and hashable; two codes compare equal iff they
    are the same subspace (the RREF basis is canonical).
    """

    def __init__(self, n: int, rows: Iterable[int | BitVector | str] = ()) -> None:
        if not 0 < n <= 64:
            raise InputError(f"code length must be 1..64 (one uint64 word per vector), not {n}")
        masks = []
        for row in rows:
            if isinstance(row, BitVector):
                if row.n != n:
                    raise InputError(f"row length {row.n} != code length {n}")
                masks.append(row.bits)
            elif isinstance(row, str):
                v = BitVector.from01(row)
                if v.n != n:
                    raise InputError(f"row length {v.n} != code length {n}")
                masks.append(v.bits)
            else:
                if not 0 <= row < (1 << n):
                    raise InputError("generator row does not fit the code length")
                masks.append(int(row))
        self.n = n
        self._rows: tuple[int, ...] = rref_masks(masks, n)
        self.k = len(self._rows)

    # -- construction and serialization ------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "LinearCode":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty code file")
        head = lines[0].split()
        if len(head) != 2:
            raise InputError(f"line 1: expected 'n k', got {lines[0]!r}")
        try:
            n, k = int(head[0]), int(head[1])
        except ValueError:
            raise InputError(f"line 1: expected integers, got {lines[0]!r}") from None
        if len(lines) - 1 != k:
            raise InputError(f"expected {k} generator rows, found {len(lines) - 1}")
        rows = []
        for i, ln in enumerate(lines[1:], start=2):
            if len(ln) != n or set(ln) - {"0", "1"}:
                raise InputError(f"line {i}: expected {n} characters of 0/1")
            rows.append(ln)
        code = cls(n, rows)
        if code.k != k:
            raise InputError(f"rows span dimension {code.k}, header says {k}")
        return code

    def to_text(self) -> str:
        lines = [f"{self.n} {self.k}"]
        lines += [mask_to_01(self.n, row) for row in self._rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path) -> "LinearCode":
        try:
            with open(path, "r", encoding="ascii") as fh:
                return cls.from_text(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    # -- basic structure -----------------------------------------------------

    @property
    def row_masks(self) -> tuple[int, ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode) and self.n == other.n and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    def __contains__(self, v) -> bool:
        if isinstance(v, BitVector):
            if v.n != self.n:
                raise InputError(f"length mismatch: {v.n} vs {self.n}")
            v = v.bits
        return reduce_mask(int(v), self._rows) == 0

    def contains(self, other: "LinearCode") -> bool:
        """True iff every basis row of other reduces to zero against self."""
        if other.n != self.n:
            raise InputError(f"length mismatch: {other.n} vs {self.n}")
        return all(reduce_mask(row, self._rows) == 0 for row in other._rows)

    def extend(self, x: int | BitVector) -> "LinearCode":
        """The code generated by self and one extra vector."""
        bits = x.bits if isinstance(x, BitVector) else int(x)
        return LinearCode(self.n, self._rows + (bits,))

    # -- enumeration ----------------------------------------------------------

    @cached_property
    def _words(self) -> np.ndarray:
        return span_masks(self._rows, guard=SPAN_GUARD)

    def words(self) -> np.ndarray:
        """All 2^k codewords as uint64 bitmasks (doubling order)."""
        return self._words

    @cached_property
    def _distribution(self) -> WeightDistribution:
        if self.k > ENUM_GUARD:
            raise CapacityError(
                f"weight enumeration of 2^{self.k} codewords exceeds guard 2^{ENUM_GUARD}"
            )
        basis = np.array(self._rows, dtype=np.uint64)
        counts = backend.weight_counts(basis, self.n)
        dist = WeightDistribution(tuple(int(c) for c in counts))
        assert dist.total() == 1 << self.k
        return dist

    def weight_distribution(self) -> WeightDistribution:
        """Exact A_0..A_n by full codeword enumeration."""
        return self._distribution

    def min_weight(self) -> int:
        """Smallest nonzero codeword weight."""
        if self.k == 0:
            raise InputError("minimum weight undefined for the zero code")
        counts = self.weight_distribution().counts
        return next(w for w in range(1, self.n + 1) if counts[w])

    def divisibility(self) -> str:
        """'triply_even', 'doubly_even' or 'none' per weight divisibility by 8 / 4."""
        weights = self.weight_distribution().nonzero_weights()
        if all(w % 8 == 0 for w in weights):
            return "triply_even"
        if all(w % 4 == 0 for w in weights):
            return "doubly_even"
        return "none"

    # -- duality and cosets ----------------------------------------------------

    def dual(self) -> "LinearCode":
        """The orthogonal complement under the standard inner product."""
        n = self.n
        pivots = [row.bit_length() - 1 for row in self._rows]
        pivot_set = set(pivots)
        rows = []
        for f in range(n - 1, -1, -1):
            if f in pivot_set:
                continue
            row = 1 << f
            for p, g in zip(pivots, self._rows):
                if (g >> f) & 1:
                    row |= 1 << p
            rows.append(row)
        dual = LinearCode(n, rows)
        assert dual.k == n - self.k
        return dual

    def is_self_orthogonal(self) -> bool:
        return self.dual().contains(self)

    def coset_table(self, sub: "LinearCode") -> "CosetTable":
        """One representative per coset of sub inside self.

        Each representative is the lexicographically least minimum-weight
        member of its coset; the table is sorted by (weight, vector), so
        the zero coset comes first.
        """
        if sub.n != self.n:
            raise InputError(f"length mismatch: {sub.n} vs {self.n}")
        if not self.contains(sub):
            raise InputError("not a subcode of the ambient code")
        transversal = rref_masks(
            (reduce_mask(row, sub._rows) for row in self._rows), self.n
        )
        sub_words = sub.words()
        reps = []
        for u in span_masks(transversal, guard=SPAN_GUARD):
            coset = sub_words ^ u
            weights = np.bitwise_count(coset)
            wmin = int(weights.min())
            rep = int(coset[weights == wmin].min())
            reps.append((wmin, rep))
        reps.sort()
        return CosetTable(
            ambient=self,
            subcode=sub,
            representatives=tuple(BitVector(self.n, rep) for _, rep in reps),
        )


@dataclass(frozen=True)
class CosetTable:
    """Complete coset representatives of a subcode inside an ambient code."""

    ambient: LinearCode
    subcode: LinearCode
    representatives: tuple[BitVector, ...]

    def __len__(self) -> int:
        return len(self.representatives)

    def leader_weights(self) -> tuple[int, ...]:
        return tuple(v.weight for v in self.representatives)

    def nontrivial_of_weight(self, w: int) -> tuple[BitVector, ...]:
        return tuple(v for v in self.representatives if v.weight == w and v.bits)


def full_space(n: int) -> LinearCode:
    """The [n, n] code F_2^n."""
    return LinearCode(n, [1 << i for i in range(n)])


def even_weight_code(n: int) -> LinearCode:
    """The [n, n-1] code of all even-weight vectors."""
    return LinearCode(n, [(1 << i) | 1 for i in range(1, n)])
