"""Hot kernels on uint64 bitmask arrays, in plain numpy."""

from __future__ import annotations

import numpy as np

from fourweight.errors import CapacityError

#: Syndrome tables are one byte per syndrome; 2^26 is the memory guard.
SYNDROME_GUARD = 26

#: The leader sweep enumerates at most 2^12 subsets of non-pivot columns.
ENUM_CAP = 12


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


def weight_counts(basis: np.ndarray, n: int) -> np.ndarray:
    """Weight distribution of a span (int64, length n+1).

    The low 20 basis rows are enumerated as one array; the span is then
    walked as its cosets, one offset per combination of the high rows.
    """
    k = basis.size
    low = min(k, 20)
    words = np.zeros(1, dtype=np.uint64)
    for b in basis[:low]:
        words = np.concatenate([words, words ^ b])
    counts = np.zeros(n + 1, dtype=np.int64)
    high = basis[low:]
    for combo in range(1 << (k - low)):
        offset = np.uint64(0)
        for t in range(k - low):
            if (combo >> t) & 1:
                offset ^= high[t]
        counts += np.bincount(np.bitwise_count(words ^ offset), minlength=n + 1)[: n + 1]
    return counts
