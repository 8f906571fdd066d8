"""Covering radius via a syndrome-space sweep, and the maximality test.

The coset-leader table holds one byte for each of the 2^(n-k) syndromes,
instead of scanning 2^n vectors.  The n-k pivot coordinates of the dual
basis have the unit syndromes, so a leader spends some subset x of the k
other coordinates plus unit columns, and the least leader weight is
dist(s) = min over x of wt(x) + popcount(s ^ Hx).  Popcount is a sum
over bits, so splitting s into its top e bits and the rest is exact: each
subset of e coordinates fills one row of the table with its popcount
over the low bits, and the top e unit columns are spent by one
contiguous pass per bit (see backend.leader_weights).  Maximality of a
qualifying code asks whether some coset could extend it within the same
weight set; when the weight set is doubly even any extension vector must
lie in the dual, so the scan shrinks to the 2^(n-2k) cosets of C inside
C-perp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fourweight import backend
from fourweight._bits import reduce_mask, rref_masks, span_masks
from fourweight.conditions import FourWeightCertificate, require_certificate
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode


def _column_syndromes(code: LinearCode) -> tuple[np.ndarray, int]:
    """Syndrome of each unit vector, as ints over the dual-basis parity rows."""
    dual_rows = code.dual().row_masks
    r = len(dual_rows)
    n = code.n
    cols = np.zeros(n, dtype=np.uint64)
    for i, row in enumerate(dual_rows):
        for j in range(n):
            if (row >> (n - 1 - j)) & 1:
                cols[j] |= np.uint64(1 << i)
    return cols, r


@dataclass(frozen=True)
class CosetLeaderProfile:
    """Leader weight per syndrome for one code; the max is the covering radius."""

    code: LinearCode
    leader_weight: np.ndarray

    @property
    def radius(self) -> int:
        return int(self.leader_weight.max())

    def histogram(self) -> dict[int, int]:
        counts = np.bincount(self.leader_weight)
        return {w: int(c) for w, c in enumerate(counts) if c}


def leader_profile(code: LinearCode) -> CosetLeaderProfile:
    if code.n - code.k > backend.SYNDROME_GUARD:
        raise CapacityError(
            f"coset-leader table needs 2^{code.n - code.k} bytes, guard is 2^{backend.SYNDROME_GUARD}"
        )
    cols, r = _column_syndromes(code)
    table = backend.leader_weights(cols, r)
    assert table[0] == 0
    return CosetLeaderProfile(code=code, leader_weight=table)


def covering_radius(code: LinearCode) -> int:
    """Exact covering radius: the largest coset-leader weight."""
    return leader_profile(code).radius


def covering_radius_bruteforce(code: LinearCode) -> int:
    """Independent oracle: max over all 2^n vectors of the distance to the code.

    Vectors go in blocks of at most 2^20 / 2^k rows, so a block holds about
    2^20 words (8 MiB) whatever the dimension.
    """
    if code.n > 16:
        raise CapacityError("brute force is guarded to n <= 16")
    words = code.words()
    worst = 0
    space = np.arange(1 << code.n, dtype=np.uint64)
    rows = max(1, (1 << 20) >> code.k)
    for lo in range(0, space.size, rows):
        block = space[lo : lo + rows, None] ^ words[None, :]
        worst = max(worst, int(np.bitwise_count(block).min(axis=1).max()))
    return worst


@dataclass(frozen=True)
class MaximalityResult:
    maximal: bool
    path: str  # "fast" (radius bound) or "slow" (coset scan)
    witness: LinearCode | None
    radius: int | None


def _extension_candidates(code: LinearCode, a: int) -> np.ndarray:
    """Coset reps x for which <code, x> could keep the weight set, unfiltered.

    For doubly even weight sets every valid x lies in the dual, so reps
    run over C-perp/C; otherwise over all of F_2^n / C.
    """
    n = code.n
    allowed = (n // 2 - a, n // 2, n // 2 + a)
    if all(w % 4 == 0 for w in allowed):
        transversal = rref_masks(
            (reduce_mask(row, code.row_masks) for row in code.dual().row_masks), n
        )
    else:
        pivots = {row.bit_length() - 1 for row in code.row_masks}
        transversal = tuple(1 << f for f in range(n) if f not in pivots)
    reps = span_masks(transversal)
    return reps[1:]


def valid_extension_vectors(code: LinearCode, a: int) -> list[int]:
    """All coset reps x (sorted) with every weight of x + code in {n/2-a, n/2, n/2+a}."""
    n = code.n
    allowed_mask = 0
    for w in (n // 2 - a, n // 2, n // 2 + a):
        allowed_mask |= 1 << w
    reps = _extension_candidates(code, a)
    keep = backend.coset_filter(code.words(), reps, allowed_mask)
    return sorted(int(x) for x in reps[keep])


def is_maximal(
    code: LinearCode,
    cert: FourWeightCertificate | None = None,
    radius: int | None = None,
) -> MaximalityResult:
    """Whether no qualifying code properly contains this one.

    Fast path: a covering radius below n/2 - a means every coset contains
    a vector lighter than the least allowed weight.  Slow path: scan the
    extension cosets directly and report a witness extension when found.
    """
    if cert is None:
        cert = require_certificate(code)
    bound = code.n // 2 - cert.a
    if radius is None and code.n - code.k <= backend.SYNDROME_GUARD:
        radius = covering_radius(code)
    if radius is not None and radius < bound:
        return MaximalityResult(maximal=True, path="fast", witness=None, radius=radius)
    xs = valid_extension_vectors(code, cert.a)
    if not xs:
        return MaximalityResult(maximal=True, path="slow", witness=None, radius=radius)
    return MaximalityResult(
        maximal=False, path="slow", witness=code.extend(xs[0]), radius=radius
    )
