"""Covering radius via a syndrome-space sweep, and the maximality test.

The coset-leader table holds one byte for each of the 2^(n-k) syndromes,
instead of scanning 2^n vectors.  The n-k pivot coordinates of the dual
basis have the unit syndromes, so a leader spends some subset x of the k
other coordinates plus unit columns, and the least leader weight is
dist(s) = min over x of wt(x) + popcount(s ^ Hx).  Popcount is a sum
over bits, so splitting s into its top e bits and the rest is exact: each
subset of e coordinates fills one row of the table with its popcount
over the low bits, and the top e unit columns are spent by one
contiguous pass per bit (see leader_weights).  Maximality of a
qualifying code asks whether some coset could extend it within the same
weight set; when the weight set is doubly even any extension vector must
lie in the dual, so the scan shrinks to the 2^(n-2k) cosets of C inside
C-perp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fourweight._bits import complement_basis, span_masks, unpack_bits
from fourweight.conditions import FourWeightCertificate, require_certificate
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode, full_space

#: Syndrome tables are one byte per syndrome; 2^26 is the memory guard.
SYNDROME_GUARD = 26

#: The leader sweep enumerates at most 2^12 subsets of non-pivot columns.
ENUM_CAP = 12


def _column_syndromes(code: LinearCode) -> tuple[np.ndarray, int]:
    """Syndrome of each unit vector, as ints over the dual-basis parity rows."""
    dual_rows = code.dual().row_masks
    r = len(dual_rows)
    bits = unpack_bits(dual_rows, code.n).astype(np.uint64)  # (r, n): row i has bit i
    cols = (bits << np.arange(r, dtype=np.uint64)[:, None]).sum(axis=0, dtype=np.uint64)
    return cols, r


def leader_weights(cols: np.ndarray, r: int) -> np.ndarray:
    """uint8 array of length 2^r: least coset-leader weight per syndrome.

    cols[j] is the syndrome of the j-th unit vector over r parity rows in
    reduced row-echelon form, so every unit syndrome 1 << i is among the
    columns; the others are the non-pivot columns h.  Spending unit
    columns alone on top of a subset x of the h's reaches s at weight
    popcount(s ^ Hx), so

        dist(s) = min over subsets x of wt(x) + popcount(s ^ Hx).

    Popcount is a sum over bits, so it splits exactly at any bit: with s
    as (row, low) = (top e bits, low R = r - e bits),
    popcount(s ^ Hx) = popcount(row ^ Hx_row) + popcount(low ^ Hx_low).
    Each of the 2^e subsets of the first e columns therefore fills the
    row Hx_row with wt(x) + popcount(low ^ Hx_low) (a min, since
    dependent columns can share a row), and the top e unit columns are
    then spent by one contiguous half-block pass per bit.  Columns
    beyond e relax the table one pass each, dist[s] = min(dist[s],
    dist[s ^ h] + 1), through a reversed-axis view of the 2x...x2 cube;
    that happens only for k > min(r, ENUM_CAP).  The fill value 64
    leaves room for the + 1 in uint8.
    """
    if r > SYNDROME_GUARD:
        raise CapacityError(f"syndrome table 2^{r} exceeds guard 2^{SYNDROME_GUARD}")
    rest = cols.tolist()
    for i in range(r):
        if (1 << i) not in rest:
            raise ValueError(f"unit syndrome 1<<{i} missing: parity rows are not in RREF")
        rest.remove(1 << i)
    rest = [h for h in rest if h]
    e = min(len(rest), r, ENUM_CAP)
    low = r - e
    best = {0: 0}  # syndrome Hx -> least wt(x), x over subsets of the first e columns
    for h in rest[:e]:
        for o, w in list(best.items()):
            if best.get(o ^ h, 64) > w + 1:
                best[o ^ h] = w + 1
    # popcount(low ^ c) as an outer sum over the two halves of the low bits,
    # so no integer array of 2^(r-e) entries is built when e is small
    half = low // 2
    lo_a = np.arange(1 << (low - half), dtype=np.uint32)
    lo_b = np.arange(1 << half, dtype=np.uint32)
    scratch = np.empty(1 << max(low, r - 1), dtype=np.uint8)
    cand = scratch[: 1 << low].reshape(lo_a.size, lo_b.size)
    table = np.full((1 << e, lo_a.size, lo_b.size), 64, dtype=np.uint8)
    for o, w in best.items():
        row = table[o >> low]
        np.add(
            np.bitwise_count(lo_a ^ ((o >> half) & (lo_a.size - 1)))[:, None],
            np.bitwise_count(lo_b ^ (o & (lo_b.size - 1))) + np.uint8(w),
            out=cand,
        )
        np.minimum(row, cand, out=row)
    dist = table.reshape(-1)
    for i in range(low, r):
        pair = dist.reshape(-1, 2, 1 << i)
        a, b = pair[:, 0], pair[:, 1]
        m = scratch[: a.size].reshape(a.shape)
        np.minimum(a, b, out=m)
        np.add(m, 1, out=m)
        np.minimum(a, m, out=a)
        np.minimum(b, m, out=b)
    if len(rest) > e:
        cube = dist.reshape((2,) * r)
        tmp = np.empty_like(cube)
        flip = slice(None, None, -1)
        keep = slice(None)
        for h in rest[e:]:
            view = cube[tuple(flip if (h >> (r - 1 - i)) & 1 else keep for i in range(r))]
            np.add(view, 1, out=tmp)
            np.minimum(cube, tmp, out=cube)
    return dist


def coset_filter(words: np.ndarray, reps: np.ndarray, allowed: int) -> np.ndarray:
    """Boolean mask: coset rep r survives iff every wt(w ^ r) has its bit set in allowed.

    A shrinking sieve: the surviving reps meet one codeword at a time, so
    most reps are dropped after the first few words.
    """
    ok_weight = np.array([(allowed >> w) & 1 for w in range(65)], dtype=bool)
    idx = np.arange(reps.size)
    live = reps
    for w in words:
        if not idx.size:
            break
        keep = ok_weight[np.bitwise_count(live ^ w)]
        live = live[keep]
        idx = idx[keep]
    out = np.zeros(reps.size, dtype=bool)
    out[idx] = True
    return out


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
    cols, r = _column_syndromes(code)
    table = leader_weights(cols, r)
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
    ambient = code.dual() if all(w % 4 == 0 for w in allowed) else full_space(n)
    reps = span_masks(complement_basis(ambient.row_masks, code.row_masks, n))
    return reps[1:]


def valid_extension_vectors(code: LinearCode, a: int) -> list[int]:
    """All coset reps x (sorted) with every weight of x + code in {n/2-a, n/2, n/2+a}."""
    n = code.n
    allowed_mask = 0
    for w in (n // 2 - a, n // 2, n // 2 + a):
        allowed_mask |= 1 << w
    reps = _extension_candidates(code, a)
    keep = coset_filter(code.words(), reps, allowed_mask)
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
    if radius is None and code.n - code.k <= SYNDROME_GUARD:
        radius = covering_radius(code)
    if radius is not None and radius < bound:
        return MaximalityResult(maximal=True, path="fast", witness=None, radius=radius)
    xs = valid_extension_vectors(code, cert.a)
    if not xs:
        return MaximalityResult(maximal=True, path="slow", witness=None, radius=radius)
    return MaximalityResult(
        maximal=False, path="slow", witness=code.extend(xs[0]), radius=radius
    )
