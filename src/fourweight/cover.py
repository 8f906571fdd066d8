"""Covering radius via a syndrome-space sweep, and the maximality test.

The coset-leader table holds one byte for each of the 2^(n-k) syndromes,
instead of scanning 2^n vectors.  The n-k pivot coordinates of the dual
basis have the unit syndromes, so a leader spends some subset x of the k
other coordinates plus unit columns, and the least leader weight is
dist(s) = min over x of wt(x) + popcount(s ^ Hx).  Popcount is a sum
over bits, so splitting s into its top e bits and the rest is exact: each
subset of e coordinates fills one row of the table with its popcount
over the low bits, and the top e unit columns are spent by one
contiguous pass per bit.  The passes relax dist + popcount(row) rather
than dist, so each takes three ufunc calls, not four, and one subtract
per tile removes the lift.  Neither step mixes low columns, so the table is
built one L2-sized tile of low columns at a time (see leader_weights).
The covering radius needs only the max, so its sweep holds one tile plus
scratch and never the table.  It first relabels the syndrome bits so
that the pivots of the e enumerated columns are the top e bits, which
keeps every leader weight; then two subsets share a row only when the
columns are dependent.  Maximality of a qualifying code asks
whether some coset could extend it within the same weight set; when the
weight set is doubly even any extension vector must lie in the dual, so
the scan shrinks to the 2^(n-2k) cosets of C inside C-perp, filtered one
block of REP_BLOCK representatives at a time.  The filter is a sieve whose
steps test popcounts by equality against the allowed weights and compact
the surviving representatives by index (see coset_filter).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fourweight._bits import (
    SPAN_GUARD, complement_basis, pack_bits, permute_bits, rref_masks, span_masks, unpack_bits,
)
from fourweight.conditions import FourWeightCertificate, require_certificate
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


def _relaxed_tiles(rest: list[int], r: int, e: int, table: np.ndarray | None = None):
    """Yield (first low column, tile) for each tile of the table over the columns rest[:e].

    Each subset of rest[:e] fills its own row when the top e bits of those
    columns are independent; otherwise the rows hit more than once take
    the minimum over rank layers, through spill rows and a row gather.
    Every tile is built in one buffer, which the next tile overwrites.  When
    the whole (2^e, 2^(r-e)) table is one tile and table is given, the tile
    is built in table itself.

    The passes run on u = dist + lift(row), lift(row) = popcount(row), which
    the fill adds once per subset through pop_b.  For top bit i, with a the
    rows without the bit and b = a + (1 << i), lift(b) = lift(a) + 1, so
    dist_a <- min(dist_a, dist_b + 1) and dist_b <- min(dist_b, dist_a + 1)
    become u_a <- min(u_a, u_b) and u_b <- min(u_b, old u_a + 2): three
    calls, m = a + 2, a = min(a, b), b = min(b, m).  Both updates keep
    u >= lift(row), the fill value 64 of rows no subset hits included, so
    the in-place subtract of lift from each relaxed tile, just before it is
    yielded, cannot wrap.  No pass raises a value, so lifted values stay at
    most 64 (at most r + e <= 38 on hit rows) and m at most 66, below 80.
    """
    low = r - e
    # Hx and wt(x) for every subset x of the first e columns (bit j of the
    # index selects column j), ordered by (rank layer, falling multiplicity, row)
    syn = span_masks(rest[:e])
    wt = np.bitwise_count(np.arange(syn.size, dtype=np.uint64))
    rows = (syn >> np.uint64(low)).astype(np.intp)
    order = np.argsort(rows, kind="stable")
    syn, wt, rows = syn[order], wt[order], rows[order]
    counts = np.bincount(rows)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    order = np.lexsort((rows, -np.repeat(counts, counts), rank))
    syn, wt, rows = syn[order].astype(np.uint32), wt[order], rows[order]
    sizes = np.bincount(rank)  # layer sizes, falling; equal ones are adjacent
    ends = np.cumsum(sizes)
    groups = [  # (offset, layers, rows) of each run of equal-size layers after layer 0
        (int(ends[t]), int(q), int(n))
        for n, t, q in zip(*np.unique(sizes[1:], return_index=True, return_counts=True))
    ]
    # a tile is (2^e rows, 2^tile_bits low columns) = (2^e, na, nb), low = (a, b)
    tile_bits = min(low, LEADER_TILE.bit_length() - 1 - e)
    half = max(tile_bits - 2, 0)  # pop_b is a quarter tile, so the fill adds long rows
    na, nb = 1 << (tile_bits - half), 1 << half
    pop_a = np.bitwise_count(
        np.arange(1 << (low - half), dtype=np.uint32) ^ ((syn >> half) & ((1 << (low - half)) - 1))[:, None]
    )
    lift = np.bitwise_count(np.arange(1 << e, dtype=np.uint32))  # popcount(row), the potential
    lifted = wt + lift[rows]  # wt(x) + popcount(row) per subset
    pop_b = np.bitwise_count(np.arange(nb, dtype=np.uint32) ^ (syn & (nb - 1))[:, None]) + lifted[:, None]
    direct = not groups  # every row hit once, in row order
    # one buffer for the tile, half a tile of pass scratch and the spill rows:
    # as three, glibc's malloc handed them back to the OS after each sweep and
    # the next sweep faulted them in again (3x the page faults on verify32)
    size = 1 << (e + tile_bits)
    own = 0 if table is not None and tile_bits == low else size  # bytes of work for the tile
    work = np.empty(own + size // 2 + (0 if direct else (rows.size + 1) * na * nb), dtype=np.uint8)
    tile = work[:own].reshape(1 << e, 1 << tile_bits) if own else table
    cells = tile.reshape(1 << e, na, nb)
    scratch = work[own : own + size // 2]
    if direct:
        cand = cells
    else:
        # the syndromes' candidates, then one row of 64 for the rows none hits
        spill = work[own + size // 2 :].reshape(rows.size + 1, na, nb)
        spill[-1] = 64
        cand = spill[:-1]
        source = np.full(1 << e, rows.size)
        source[rows[: sizes[0]]] = np.arange(sizes[0])
    for c0 in range(0, 1 << low, tile.shape[1]):
        a0 = c0 >> half
        np.add(pop_a[:, a0 : a0 + na, None], pop_b[:, None, :], out=cand)
        for off, q, n in groups:
            fold = scratch[: n * na * nb].reshape(n, na, nb)
            np.minimum.reduce(cand[off : off + q * n].reshape(q, n, na, nb), axis=0, out=fold)
            np.minimum(cand[:n], fold, out=cand[:n])
        if not direct:
            # every index is in range; mode="raise" would buffer out
            np.take(spill, source, axis=0, out=cells, mode="clip")
        flat = tile.reshape(-1)
        for i in range(e):
            pair = flat.reshape(-1, 2, tile.shape[1] << i)
            a, b = pair[:, 0], pair[:, 1]
            m = scratch[: a.size].reshape(a.shape)
            np.add(a, 2, out=m)
            np.minimum(a, b, out=a)
            np.minimum(b, m, out=b)
        np.subtract(tile, lift[:, None], out=tile)
        yield c0, tile


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
    row Hx_row with wt(x) + popcount(low ^ Hx_low), and the top e unit
    columns are then spent by one half-block pass per bit, which pairs
    rows only, never low columns.  The fill adds popcount(row) as well, so
    each pass relaxes u = dist + popcount(row) in three ufunc calls,
    u_a = min(u_a, u_b) and u_b = min(u_b, u_a + 2) for the rows a without
    the bit and b with it; u >= popcount(row) throughout, and one in-place
    subtract per tile, after its last pass, gives back dist (see
    _relaxed_tiles).

    So the table is built one tile at a time: all 2^e rows times a block
    of low columns, one contiguous buffer of LEADER_TILE bytes.  A tile
    stays in a core's L2 cache from its fill through all e passes and is
    then copied into the table once, or is the table when one tile covers
    it; a pass over the whole table would stream 4-32 MiB through memory
    per bit instead.  The fill adds two per-syndrome popcount tables by
    broadcasting: one over the low bits of a quarter of a tile row (a
    quarter tile in all, so that each add writes long contiguous rows) and
    a small one over the low bits above them; a row hit by exactly one
    subset gets its sum as is.  Rows hit by several subsets (the first e
    columns are dependent on their top e bits; the radius sweep relabels
    the syndrome bits so that this happens only when the columns
    themselves are dependent) take the minimum over rank layers: layer t
    holds the t-th subset of every row hit more than t times, so its rows
    are distinct, and with rows in order of falling multiplicity it lines
    up with the first rows of layer 0.  Equal-size layers are adjacent,
    and each run of them folds into layer 0 with one min-reduction.
    Besides the table, the sweep holds the tile, half a tile of scratch
    for the passes, the quarter-tile popcount table and, when some row is
    hit more than once, the 2^e candidate rows of one tile.  The covering
    radius (see leader_profile) runs the same sweep on relabelled syndrome
    bits without the table: it holds one tile plus that scratch, under two
    tiles in all when the columns are independent, and keeps only the
    running max.
    Columns beyond e relax the whole table one pass each,
    dist[s] = min(dist[s], dist[s ^ h] + 1), through a reversed-axis view
    of the 2x...x2 cube, in place and one chunk of half a tile of scratch
    at a time; that happens only for k > min(r, ENUM_CAP) and needs no
    more memory.  Rows that no subset hits are filled with 64, above any
    lifted value of a hit row; no pass raises a value, so the + 2 of a pass
    reaches at most 64 + 2 and every lifted value stays below 80 in uint8.
    """
    rest = _free_columns(cols, r)
    e = min(len(rest), r, ENUM_CAP)
    table = np.empty((1 << e, 1 << (r - e)), dtype=np.uint8)
    for c0, tile in _relaxed_tiles(rest, r, e, table):
        if tile is not table:
            table[:, c0 : c0 + tile.shape[1]] = tile
    del tile  # else it keeps the sweep's buffer alive through the cube passes
    dist = table.reshape(-1)
    if len(rest) > e:
        cube = dist.reshape((2,) * r)
        # in place, one chunk of the scratch at a time: where s ^ h is already
        # relaxed it holds min(d[s ^ h], d[s] + 1), and min(d[s], that + 1)
        # is still min(d[s], d[s ^ h] + 1)
        scratch = np.empty(min(dist.size, LEADER_TILE) // 2, dtype=np.uint8)
        lead = r + 1 - scratch.size.bit_length()
        m = scratch.reshape((1,) * lead + (2,) * (r - lead))
        flip = slice(None, None, -1)
        keep = slice(None)
        for h in rest[e:]:
            view = cube[tuple(flip if (h >> (r - 1 - i)) & 1 else keep for i in range(r))]
            for idx in np.ndindex((2,) * lead):
                # slices, not indices, so that r = 1 keeps views rather than scalars
                chunk = tuple(slice(j, j + 1) for j in idx)
                np.add(view[chunk], 1, out=m)
                np.minimum(cube[chunk], m, out=cube[chunk])
    return dist


def _pivots_on_top(rest: list[int], r: int, e: int) -> list[int]:
    """rest with the syndrome bits relabelled so that the RREF pivots of rest[:e] are the top bits.

    A permutation of the syndrome bits maps unit syndromes to unit
    syndromes and keeps every leader weight, so it keeps the radius.  When
    rest[:e] is independent its top e bits then form an invertible matrix,
    so each subset of rest[:e] fills a row of its own.
    """
    pivots = [r - b.bit_length() for b in rref_masks(rest[:e], r)]
    order = pivots + [i for i in range(r) if i not in pivots]
    if order == list(range(r)):
        return rest
    return permute_bits(rest, order, r).tolist()


def _sweep_radius(cols: np.ndarray, r: int) -> int:
    """max(leader_weights(cols, r)), from one reused tile when no column is left for the cube.

    Checks on the way that syndrome 0 has leader weight 0.
    """
    rest = _free_columns(cols, r)
    e = min(len(rest), r, ENUM_CAP)
    if len(rest) > e:  # the cube passes relax the whole table
        table = leader_weights(cols, r)
        assert table[0] == 0
        return int(table.max())
    radius = 0
    for c0, tile in _relaxed_tiles(_pivots_on_top(rest, r, e), r, e):
        assert c0 or tile[0, 0] == 0
        radius = max(radius, int(tile.max()))
    return radius


def coset_filter(words: np.ndarray, reps: np.ndarray, allowed: int) -> np.ndarray:
    """Boolean mask: coset rep r survives iff every wt(w ^ r) has its bit set in allowed.

    A shrinking sieve: at each step the surviving reps meet the next block
    of max(1, SIEVE_BLOCK // live reps) codewords, so most reps are dropped
    after the first few words, and a step's temporaries stay cache-sized:
    at most max(live reps, SIEVE_BLOCK) entries.  A step tests each popcount
    by equality against the allowed weights, ORed into one bool array, and
    compacts the survivors by one flatnonzero and two integer takes; a
    gather from a 65-entry weight table and two boolean-mask indexings cost
    several times as much and do no arithmetic.
    """
    # with no bit of 0..64 set, test against 65, which no popcount reaches
    weights = [w for w in range(65) if (allowed >> w) & 1] or [65]
    idx = np.arange(reps.size)
    live = reps
    lo = 0
    while idx.size and lo < words.size:
        block = words[lo : lo + max(1, SIEVE_BLOCK // live.size)]
        # words on the first axis: all() then ANDs whole rows, which is
        # about twice as fast as reducing short rows along the last axis
        pop = np.bitwise_count(block[:, None] ^ live[None, :])
        ok = pop == weights[0]
        for w in weights[1:]:
            ok |= pop == w
        keep = np.flatnonzero(ok.all(axis=0))
        live = live.take(keep)
        idx = idx.take(keep)
        lo += block.size
    out = np.zeros(reps.size, dtype=bool)
    out[idx] = True
    return out


def _leader_table(code: LinearCode) -> np.ndarray:
    cols, r = _column_syndromes(code)
    table = leader_weights(cols, r)
    assert table[0] == 0
    return table


@dataclass(frozen=True)
class CosetLeaderProfile:
    """The covering radius of one code; the leader weight per syndrome is built on first access."""

    code: LinearCode
    radius: int

    # Invariant: radius == leader_weight.max().  Both constructors keep it;
    # the dataclass's own __init__ does not check it.

    @classmethod
    def with_table(cls, code: LinearCode) -> CosetLeaderProfile:
        """The profile read off the whole table, for callers that want both: one sweep."""
        table = _leader_table(code)
        profile = cls(code=code, radius=int(table.max()))
        # cached_property keeps its value in the instance __dict__ under its
        # own name, which a frozen dataclass still lets us write
        profile.__dict__["leader_weight"] = table
        return profile

    @cached_property
    def leader_weight(self) -> np.ndarray:
        return _leader_table(self.code)

    def histogram(self) -> dict[int, int]:
        counts = np.bincount(self.leader_weight)
        return {w: int(c) for w, c in enumerate(counts) if c}


def leader_profile(code: LinearCode) -> CosetLeaderProfile:
    """The covering radius, swept eagerly without the 2^(n-k)-byte table (see leader_weights)."""
    return CosetLeaderProfile(code=code, radius=_sweep_radius(*_column_syndromes(code)))


def covering_radius(code: LinearCode) -> int:
    """Exact covering radius: the largest coset-leader weight."""
    return leader_profile(code).radius


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
    holds a block and its sieve temporaries besides the survivors; a
    block's survivors are taken by index, as inside the sieve.
    """
    n = code.n
    allowed_mask = 0
    for w in (n // 2 - a, n // 2, n // 2 + a):
        allowed_mask |= 1 << w
    words = code.words()
    blocks = [
        reps.take(np.flatnonzero(coset_filter(words, reps, allowed_mask)))
        for reps in _extension_blocks(code, a)
    ]
    return np.sort(np.concatenate(blocks))


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
    if not xs.size:
        return MaximalityResult(maximal=True, path="slow", witness=None, radius=radius)
    return MaximalityResult(
        maximal=False, path="slow", witness=code.extend(int(xs[0])), radius=radius
    )
