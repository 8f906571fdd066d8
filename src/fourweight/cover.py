"""Covering radius via a syndrome-space sweep, and the maximality test.

The coset-leader table holds one byte for each of the 2^(n-k) syndromes,
instead of scanning 2^n vectors: with the parity rows in reduced
row-echelon form a leader spends a subset x of the k non-pivot columns
plus unit columns, so dist(s) = min over x of wt(x) + popcount(s ^ Hx).
Up to ENUM_CAP independent columns, on syndrome bits relabelled so that
their pivots are the top e bits, fill one table row per subset and are
spent by one pass per top bit, one L2-sized tile of low columns at a
time (see leader_weights); the other columns, dependent or beyond the
cap, then relax the whole table one pass each.  covering_radius (a max)
and leader_histogram (a count per weight) reduce the same blocks (see
_leader_blocks): on every length-32 table code no column is left over,
the blocks are the tiles, and neither holds the table.

Both sweep an even code C through its puncture C* at the last coordinate
(see _punctured), which has half the syndromes (the extension theorem of
Cohen, Honkala, Litsyn & Lobstein, Covering Codes, 1997).  Write y = (y*, b):
  every c in C is even, so d(y, c) has the parity of wt(y) and is d(y*, c*) or d(y*, c*) + 1;
  rounding up to a parity is monotone, so d(y, C) is d(y*, C*) rounded up to the parity of wt(y);
  the two y over each y* have both parities, so R = R* + 1 and h[w] = h*[w] + h*[w - 1].
leader_weights(*_column_syndromes(code)) stays the code's own table.

Maximality of a qualifying code asks whether some coset could extend it
within the same weight set; when the weight set is doubly even any
extension vector must lie in the dual, so the scan shrinks to the
2^(n-2k) cosets of C inside C-perp, filtered one block of REP_BLOCK
representatives at a time.  The filter is a sieve whose steps test
popcounts by equality against the allowed weights and keep the
surviving representatives themselves (see coset_filter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fourweight._bits import (
    SPAN_GUARD, complement_basis, pack_bits, permute_bits, reduce_mask, span_masks, unpack_bits,
)
from fourweight.conditions import require_certificate
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode, full_space

#: Syndrome tables are one byte per syndrome; 2^26 is the memory guard.
SYNDROME_GUARD = 26

#: The leader sweep enumerates at most 2^12 subsets of non-pivot columns.
ENUM_CAP = 12

#: The coset filter checks at most 2^14 (rep, word) pairs per step, or one
#: word against every live rep when more reps than that are live.
SIEVE_BLOCK = 1 << 14

#: The coset filter takes the extension cosets 2^16 representatives at a time.
REP_BLOCK = 1 << 16

#: The leader sweep fills and relaxes its table one tile of 2^20 bytes at a
#: time, small enough to stay in a core's L2 cache.
LEADER_TILE = 1 << 20


def _column_syndromes(code: LinearCode) -> tuple[np.ndarray, int]:
    """Syndrome of each unit vector, as ints over the dual-basis parity rows."""
    dual_rows = code.dual().row_masks
    # column j's coordinates over the rows, last row first, so row i lands on bit i
    return pack_bits(unpack_bits(dual_rows, code.n).T[:, ::-1]), len(dual_rows)


def _free_columns(cols: np.ndarray, r: int) -> list[int]:
    """The nonzero non-pivot columns h, once every unit syndrome is found among cols."""
    if r > SYNDROME_GUARD:
        raise CapacityError(f"syndrome table 2^{r} exceeds guard 2^{SYNDROME_GUARD}")
    rest = cols.tolist()
    for i in range(r):
        if (1 << i) not in rest:
            raise ValueError(f"unit syndrome 1<<{i} missing: parity rows are not in RREF")
        rest.remove(1 << i)
    return [h for h in rest if h]


def _split_columns(rest: list[int], r: int) -> tuple[list[int], list[int], list[int]]:
    """(head, tail, order): up to ENUM_CAP independent columns of rest, relabelled, and the others.

    A greedy XOR basis takes independent columns in turn into the head
    while it holds fewer than ENUM_CAP; the others go to the tail, on the
    original syndrome bits.  order relabels the bits (as in permute_bits)
    so that the head's echelon pivots are the top e bits, whose e x e block
    is then invertible.  It maps unit syndromes to unit syndromes, so it
    keeps every leader weight and only permutes the table.
    """
    # each basis word lacks the leading bits of earlier ones, as reduce_mask needs
    head, tail, basis = [], [], []
    for h in rest:
        x = reduce_mask(h, basis)
        if x and len(head) < ENUM_CAP:
            basis.append(x)
            head.append(h)
        else:
            tail.append(h)
    pivots = sorted(r - b.bit_length() for b in basis)
    order = pivots + [i for i in range(r) if i not in pivots]
    return permute_bits(head, order, r).tolist(), tail, order


def _relaxed_tiles(head: list[int], r: int):
    """Yield (first low column, tile) for each tile of the table over the e columns head.

    The top e bits of head are independent (see _split_columns), so each
    subset fills a row of its own.  Every tile is built in one buffer,
    which the next tile overwrites.

    The passes run on u = dist + lift(row), lift(row) = popcount(row), which
    the fill adds once per subset through pop_b.  For top bit i, with a the
    rows without the bit and b = a + (1 << i), lift(b) = lift(a) + 1, so
    dist_a <- min(dist_a, dist_b + 1) and dist_b <- min(dist_b, dist_a + 1)
    become u_a <- min(u_a, u_b) and u_b <- min(u_b, old u_a + 2): three
    calls, m = a + 2, a = min(a, b), b = min(b, m).  Both updates keep
    u >= lift(row), so the in-place subtract of lift from each relaxed
    tile, just before it is yielded, cannot wrap.  The fill gives at most
    wt(x) + (r - e) + lift(row) <= r + e <= 38 and no pass raises a value,
    so m stays at most 40 in uint8.
    """
    e = len(head)
    low = r - e
    # Hx and wt(x) for every subset x of head (bit j of the index selects
    # column j), in row order: the top e bits of Hx are a permutation
    syn = span_masks(head)
    wt = np.bitwise_count(np.arange(syn.size, dtype=np.uint64))
    by_row = np.argsort(syn >> np.uint64(low))
    syn, wt = syn[by_row].astype(np.uint32), wt[by_row]
    # a tile is (2^e rows, 2^tile_bits low columns) = (2^e, na, nb), low = (a, b)
    tile_bits = min(low, LEADER_TILE.bit_length() - 1 - e)
    half = max(tile_bits - 2, 0)  # pop_b is a quarter tile, so the fill adds long rows
    na, nb = 1 << (tile_bits - half), 1 << half
    pop_a = np.bitwise_count(
        np.arange(1 << (low - half), dtype=np.uint32) ^ ((syn >> half) & ((1 << (low - half)) - 1))[:, None]
    )
    lift = np.bitwise_count(np.arange(1 << e, dtype=np.uint32))  # popcount(row), the potential
    lifted = wt + lift  # wt(x) + popcount(row) per subset, in row order
    pop_b = np.bitwise_count(np.arange(nb, dtype=np.uint32) ^ (syn & (nb - 1))[:, None]) + lifted[:, None]
    # one buffer for the tile and half a tile of pass scratch: as two,
    # glibc's malloc handed them back to the OS after each sweep and the
    # next sweep faulted them in again (3x the page faults on verify32)
    size = 1 << (e + tile_bits)
    work = np.empty(size + size // 2, dtype=np.uint8)
    tile = work[:size].reshape(1 << e, 1 << tile_bits)
    scratch = work[size:]
    for c0 in range(0, 1 << low, tile.shape[1]):
        a0 = c0 >> half
        np.add(pop_a[:, a0 : a0 + na, None], pop_b[:, None, :], out=tile.reshape(1 << e, na, nb))
        flat = tile.reshape(-1)
        for i in range(e):
            pair = flat.reshape(-1, 2, tile.shape[1] << i)
            a, b = pair[:, 0], pair[:, 1]
            m = scratch[: a.size].reshape(a.shape)
            np.add(a, 2, out=m)
            np.minimum(a, b, out=a)
            np.minimum(b, m, out=b)
        np.subtract(tile, lift[:, None], out=tile)
        if not c0 and tile[0, 0]:  # row 0, low column 0: syndrome 0
            raise AssertionError("syndrome 0 has a nonzero leader weight")
        yield c0, tile


def leader_weights(cols: np.ndarray, r: int) -> np.ndarray:
    """uint8 array of length 2^r: least coset-leader weight per syndrome.

    cols[j] is the syndrome of the j-th unit vector over r parity rows in
    reduced row-echelon form, so every unit syndrome 1 << i is among the
    columns and the others are the non-pivot columns h.  Spending unit
    columns on top of a subset x of the h's gives
    dist(s) = min over subsets x of wt(x) + popcount(s ^ Hx).

    The h's split into a head of e <= ENUM_CAP independent columns, on
    syndrome bits relabelled so that their pivots are the top e bits, and
    a tail of the others (see _split_columns).  Popcount is a sum over
    bits, so with s as (row, low) = (top e bits, low r - e bits),
    popcount(s ^ Hx) = popcount(row ^ Hx_row) + popcount(low ^ Hx_low):
    each of the 2^e subsets x of the head fills its own row Hx_row with
    wt(x) + popcount(low ^ Hx_low), and the top e unit columns are then
    spent by one half-block pass per bit, which pairs rows only, never low
    columns (see _relaxed_tiles for the lift that makes a pass three calls).

    So the table is built one tile at a time, all 2^e rows times a block
    of low columns in one LEADER_TILE buffer that stays in a core's L2
    cache through its fill and all e passes; the fill adds two popcount
    tables by broadcasting (see _relaxed_tiles).  Each tile is written once
    into the table, in syndrome index order through the transposed (2,)*r
    view, so undoing the relabelling needs no second 2^r-byte buffer.
    The tail columns then relax the whole table one pass each,
    dist[s] = min(dist[s], dist[s ^ h] + 1), through a reversed-axis view
    of the 2x...x2 cube, in place and one chunk of half a tile of scratch
    at a time, which needs no more memory.
    """
    head, tail, order = _split_columns(_free_columns(cols, r), r)
    e = len(head)
    dist = np.empty(1 << r, dtype=np.uint8)
    cube = dist.reshape((2,) * r)
    relabelled = cube.transpose(order)  # indexed by relabelled syndrome bits
    for c0, tile in _relaxed_tiles(head, r):
        free = tile.shape[1].bit_length() - 1  # low bits that vary within the tile
        fixed = tuple((c0 >> (r - e - 1 - j)) & 1 for j in range(r - e - free))  # the others, c0's
        relabelled[(slice(None),) * e + fixed] = tile.reshape((2,) * (e + free))
    del tile  # else it keeps the sweep's buffer alive through the cube passes
    if tail:
        # in place, one chunk of the scratch at a time: where s ^ h is already
        # relaxed it holds min(d[s ^ h], d[s] + 1), and min(d[s], that + 1)
        # is still min(d[s], d[s ^ h] + 1)
        scratch = np.empty(min(dist.size, LEADER_TILE) // 2, dtype=np.uint8)
        lead = r + 1 - scratch.size.bit_length()
        m = scratch.reshape((1,) * lead + (2,) * (r - lead))
        flip = slice(None, None, -1)
        keep = slice(None)
        for h in tail:
            view = cube[tuple(flip if (h >> (r - 1 - i)) & 1 else keep for i in range(r))]
            for idx in np.ndindex((2,) * lead):
                # slices, not indices, so that r = 1 keeps views rather than scalars
                chunk = tuple(slice(j, j + 1) for j in idx)
                np.add(view[chunk], 1, out=m)
                np.minimum(cube[chunk], m, out=cube[chunk])
    return dist


def _leader_blocks(cols: np.ndarray, r: int):
    """(first column, block) pairs holding each leader weight once: the relaxed tiles, each
    overwritten by the next, or, when a tail column needs the cube passes, LEADER_TILE slices of the table."""
    head, tail, _ = _split_columns(_free_columns(cols, r), r)
    if tail:
        table = leader_weights(cols, r)
        return ((c0, table[c0 : c0 + LEADER_TILE]) for c0 in range(0, table.size, LEADER_TILE))
    return _relaxed_tiles(head, r)


def _punctured(code: LinearCode) -> tuple[LinearCode, int]:
    """(C*, 1) for an even code C, n >= 2, punctured at its last coordinate, else (code, 0): even
    rows are never the word 0...01, so that coordinate is no pivot and the rows >> 1 are C*'s RREF."""
    if code.n > 1 and not any(row.bit_count() & 1 for row in code.row_masks):
        return LinearCode(code.n - 1, [row >> 1 for row in code.row_masks]), 1
    return code, 0


def coset_filter(words: np.ndarray, reps: np.ndarray, weights: tuple[int, ...]) -> np.ndarray:
    """The coset reps r, in input order, for which every wt(w ^ r) is among weights.

    A shrinking sieve: at each step the surviving reps meet the next block
    of max(1, SIEVE_BLOCK // live reps) codewords, so most reps are dropped
    after the first few words, and a step's temporaries stay cache-sized:
    at most max(live reps, SIEVE_BLOCK) entries.  A step tests each popcount
    by equality against the weights, ORed into one bool array (all False
    for empty weights, which reject every rep), and keeps the survivors by
    one flatnonzero and one integer take; a gather from a weight table and
    a boolean-mask indexing cost several times as much.
    """
    lo = 0
    while reps.size and lo < words.size:
        block = words[lo : lo + max(1, SIEVE_BLOCK // reps.size)]
        # words on the first axis: all() then ANDs whole rows, which is
        # about twice as fast as reducing short rows along the last axis
        pop = np.bitwise_count(block[:, None] ^ reps[None, :])
        ok = pop == weights[0] if weights else np.zeros(pop.shape, dtype=bool)
        for w in weights[1:]:
            ok |= pop == w
        reps = reps.take(np.flatnonzero(ok.all(axis=0)))
        lo += block.size
    return reps


def covering_radius(code: LinearCode) -> int:
    """Exact covering radius: the largest coset-leader weight, swept block by block (see _leader_blocks).

    An even code C is swept through its puncture C*, and R = R* + 1 (see the module docstring).
    """
    swept, shift = _punctured(code)
    return shift + max(int(block.max()) for _, block in _leader_blocks(*_column_syndromes(swept)))


def leader_histogram(code: LinearCode) -> dict[int, int]:
    """Syndromes per least coset-leader weight, counted block by block; the largest key is the radius.

    Each weight between a block's least and largest is counted on the uint8
    block itself, which a bincount would first widen to int64.  An even code
    C is counted through its puncture C*, and h[w] = h*[w] + h*[w - 1] (see
    the module docstring).
    """
    swept, shift = _punctured(code)
    cols, r = _column_syndromes(swept)
    counts = np.zeros(r + 1, dtype=np.int64)
    for _, block in _leader_blocks(cols, r):
        for w in range(int(block.min()), int(block.max()) + 1):
            counts[w] += np.count_nonzero(block == w)
    counts = np.convolve(counts, np.ones(shift + 1, dtype=np.int64))
    return {w: int(c) for w, c in enumerate(counts) if c}


@dataclass(frozen=True)
class CosetLeaderProfile:
    """The covering radius of one code (see covering_radius)."""

    code: LinearCode
    radius: int


def leader_profile(code: LinearCode) -> CosetLeaderProfile:
    """covering_radius(code) as a profile, the call perfbench's replays time as the leader layer."""
    return CosetLeaderProfile(code, covering_radius(code))


@dataclass(frozen=True)
class MaximalityResult:
    maximal: bool
    path: str  # "fast" (radius bound) or "slow" (coset scan)
    witness: LinearCode | None
    radius: int | None


def _extension_blocks(code: LinearCode, a: int):
    """Coset reps x for which <code, x> could keep the weight set, unfiltered, in blocks.

    For doubly even weight sets every valid x lies in the dual, so reps
    run over C-perp/C; otherwise over all of F_2^n / C.  Block j is
    span(first rows of the complement basis) ^ h_j, REP_BLOCK reps, for h_j
    over the span of the remaining rows, so the blocks in turn are
    span_masks(basis) without its leading zero.
    """
    n = code.n
    allowed = (n // 2 - a, n // 2, n // 2 + a)
    ambient = code.dual() if all(w % 4 == 0 for w in allowed) else full_space(n)
    basis = complement_basis(ambient.row_masks, code.row_masks, n)
    if len(basis) > SPAN_GUARD:
        raise CapacityError(f"span enumeration of 2^{len(basis)} words exceeds guard 2^{SPAN_GUARD}")
    split = REP_BLOCK.bit_length() - 1
    base = span_masks(basis[:split])
    yield base[1:]
    for h in span_masks(basis[split:])[1:]:
        yield base ^ h


def valid_extension_vectors(code: LinearCode, a: int) -> np.ndarray:
    """All coset reps x with every weight of x + code in {n/2-a, n/2, n/2+a}, a sorted uint64 array.

    The reps are filtered one block of REP_BLOCK at a time, so the sweep
    holds a block and its sieve temporaries besides the survivors.
    """
    n = code.n
    weights = (n // 2 - a, n // 2, n // 2 + a)
    words = code.words()
    return np.sort(np.concatenate([coset_filter(words, reps, weights) for reps in _extension_blocks(code, a)]))


def is_maximal(code: LinearCode, radius: int | None = None) -> MaximalityResult:
    """Whether no qualifying code properly contains this one.

    Fast path: a covering radius below n/2 - a means every coset contains
    a vector lighter than the least allowed weight.  Slow path: scan the
    extension cosets directly and report a witness extension when found.
    """
    cert = require_certificate(code)
    bound = code.n // 2 - cert.a
    swept, _ = _punctured(code)
    if radius is None and swept.n - swept.k <= SYNDROME_GUARD:
        radius = covering_radius(code)
    if radius is not None and radius < bound:
        return MaximalityResult(maximal=True, path="fast", witness=None, radius=radius)
    xs = valid_extension_vectors(code, cert.a)
    if not xs.size:
        return MaximalityResult(maximal=True, path="slow", witness=None, radius=radius)
    return MaximalityResult(
        maximal=False, path="slow", witness=code.extend(int(xs[0])), radius=radius
    )
