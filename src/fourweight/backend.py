"""Hot kernels on uint64 bitmask arrays, in plain numpy."""

from __future__ import annotations

import numpy as np

from fourweight.errors import CapacityError

#: Syndrome tables are one byte per syndrome; 2^26 is the memory guard.
SYNDROME_GUARD = 26


def leader_weights(cols: np.ndarray, r: int) -> np.ndarray:
    """uint8 array of length 2^r: least coset-leader weight per syndrome.

    cols[j] is the syndrome of the j-th unit vector over r parity rows in
    reduced row-echelon form, so every unit syndrome 1 << i is among the
    columns.  Spending unit columns alone reaches syndrome s at weight
    popcount(s), and no subset of them does better, so the table starts
    from popcount and is relaxed only by the remaining columns h:
    dist[s] = min(dist[s], dist[s ^ h] + 1).  XOR-by-mask indexing is
    realized as reversed-axis views of the 2x2x...x2 cube.
    """
    if r > SYNDROME_GUARD:
        raise CapacityError(f"syndrome table 2^{r} exceeds guard 2^{SYNDROME_GUARD}")
    rest = cols.tolist()
    for i in range(r):
        if (1 << i) not in rest:
            raise ValueError(f"unit syndrome 1<<{i} missing: parity rows are not in RREF")
        rest.remove(1 << i)
    dist = np.empty(1 << r, dtype=np.uint8)
    dist[0] = 0
    for i in range(r):
        np.add(dist[: 1 << i], 1, out=dist[1 << i : 2 << i])
    cube = dist.reshape((2,) * r)
    tmp = np.empty_like(cube)
    flip = slice(None, None, -1)
    keep = slice(None)
    for h in rest:
        if h == 0:
            continue
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
