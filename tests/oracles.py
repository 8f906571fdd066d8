"""Independent brute-force oracles that the test suite checks the program against.

They share no machinery with the kernels they certify: the covering
radius is a scan of all 2^n vectors, isomorphism a backtracking column
assignment, and a coordinate permutation moves one bit at a time.  The
orbit reduction here is the program's earlier loop, which propagated
labels both ways along each generator, over maps built by its own bit
moves and coset minima.  The canonical search's setup is checked against
the program's earlier one: a rank test that reduces each weight class in
numpy, one pass per basis vector it adds, and float64 pair counts.  The
matrix build's coset order is checked against the program's earlier
per-coset loop.
"""

import numpy as np

from fourweight._bits import complement_basis, reduce_mask, span_masks, unpack_bits
from fourweight.errors import CapacityError
from fourweight.linear import LinearCode


def permute_words_reference(words, order, n: int) -> list[int]:
    """Reference permutation of n-bit words: position t takes coordinate order[t], bit by bit."""
    out = []
    for r in words:
        new = 0
        for t, j in enumerate(order):
            if (r >> (n - 1 - j)) & 1:
                new |= 1 << (n - 1 - t)
        out.append(new)
    return out


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


def find_isomorphism_bruteforce(c1: LinearCode, c2: LinearCode):
    """Independent oracle (n <= 16): backtracking column assignment.

    Searches for an explicit coordinate bijection mapping c1 onto c2 using
    only elementary invariants: candidate columns must match per-weight
    incidence counts and pairwise co-occurrence with columns already
    placed, and the sorted prefix multisets of the codeword matrices must
    agree at every depth.  Used by the test suite to certify canonical
    keys; shares no machinery with the refinement search.
    """
    if c1.n > 16:
        raise CapacityError("the brute-force oracle is guarded to n <= 16")
    if c1.n != c2.n or c1.k != c2.k:
        return None
    if c1.weight_distribution() != c2.weight_distribution():
        return None
    n = c1.n

    def unpack(code):
        shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
        bits = ((code.words()[:, None] >> shifts) & np.uint64(1)).astype(np.uint64)
        wts = np.bitwise_count(code.words()).astype(np.int64)
        sig = [tuple(int(bits[wts == w, j].sum()) for w in range(n + 1)) for j in range(n)]
        classes = sorted(set(wts[wts > 0].tolist()))[:2]
        pair = [
            (bits[wts == w].T @ bits[wts == w]).astype(np.int64) for w in classes
        ]
        return bits, sig, pair

    m1, sig1, pair1 = unpack(c1)
    m2, sig2, pair2 = unpack(c2)
    if sorted(sig1) != sorted(sig2):
        return None
    # place rare-signature columns first to fail fast
    freq = {s: sig1.count(s) for s in set(sig1)}
    order = sorted(range(n), key=lambda j: (freq[sig1[j]], sig1[j], j))

    def rec(depth: int, pref1: np.ndarray, pref2: np.ndarray, img: list[int]):
        if depth == n:
            return list(img)
        j1 = order[depth]
        base1 = np.sort(pref1 * np.uint64(2) + m1[:, j1])
        for c in range(n):
            if c in img or sig2[c] != sig1[j1]:
                continue
            if any(
                p1[j1, order[t]] != p2[c, img[t]]
                for t in range(depth)
                for p1, p2 in zip(pair1, pair2)
            ):
                continue
            cand2 = pref2 * np.uint64(2) + m2[:, c]
            if np.array_equal(base1, np.sort(cand2)):
                img.append(c)
                got = rec(depth + 1, pref1 * np.uint64(2) + m1[:, j1], cand2, img)
                if got is not None:
                    return got
                img.pop()
        return None

    zero = np.zeros(m1.shape[0], dtype=np.uint64)
    sol = rec(0, zero, zero, [])
    if sol is None:
        return None
    sigma = [0] * n
    inverse = [0] * n
    for t in range(n):
        sigma[order[t]] = sol[t]
        inverse[sol[t]] = order[t]
    assert LinearCode(n, permute_words_reference(c1.row_masks, inverse, n)) == c2
    return tuple(sigma)


def orbit_reps_two_way(parent: LinearCode, gens, xs: np.ndarray) -> np.ndarray:
    """Reference orbit reduction: the least coset rep of each orbit under gens.

    xs is a sorted uint64 array of coset reps of the parent, each the least
    word of its coset.  Generator g moves coordinate j to g[j]; a rep's
    image is its bits moved and repacked, then the least word of that coset
    by a scan over the parent's codewords.  Each round lowers every label
    to its image's label and every image's label to its own
    (``np.minimum.at``), then jumps pointers, until a round changes nothing.
    """
    n = parent.n
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    words = parent.words()
    rows = max(1, (1 << 20) // words.size)
    maps = []
    for g in gens:
        idx = np.empty(xs.size, dtype=np.int64)
        for lo in range(0, xs.size, rows):
            bits = (xs[lo : lo + rows, None] >> shifts) & np.uint64(1)
            moved = np.empty_like(bits)
            moved[:, list(g)] = bits
            least = ((moved << shifts).sum(axis=1)[:, None] ^ words[None, :]).min(axis=1)
            at = np.searchsorted(xs, least)
            assert (at < xs.size).all() and (xs[at] == least).all(), "a generator left the cosets"
            idx[lo : lo + rows] = at
        maps.append(idx)
    labels = np.arange(xs.size)
    while True:
        prev = labels.copy()
        for idx in maps:
            labels = np.minimum(labels, labels[idx])
            np.minimum.at(labels, idx, labels)
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    return xs[labels == np.arange(xs.size)]


def refinement_words_reference(code: LinearCode) -> np.ndarray:
    """Reference refinement words: the lightest nonzero weight classes until they hold n words and span.

    Each class in turn is reduced against the basis so far, and a nonzero
    residual joins the basis, until the basis reaches rank k; every class
    is taken if no prefix qualifies.  The words come in span_masks order.
    """
    words = span_masks(code.row_masks)
    weights = np.bitwise_count(words)
    take = np.zeros(len(words), dtype=bool)
    basis: list[int] = []
    for w in np.flatnonzero(np.bincount(weights))[1:]:
        take |= weights == w
        rest = reduce_mask(words[weights == w], basis)
        while len(basis) < code.k and (rest := rest[rest != 0]).size:
            basis.append(int(rest[0]))
            rest = reduce_mask(rest, basis[-1:])
        if len(basis) == code.k and int(take.sum()) >= code.n:
            break
    return words[take]


def pair_counts_reference(code: LinearCode) -> list[np.ndarray]:
    """Reference column co-occurrence counts within each of the two lightest nonzero weight classes.

    Exact in float64: entries are at most 2^k < 2^53.  A class the code
    lacks has no entry.
    """
    words = span_masks(code.row_masks)
    weights = np.bitwise_count(words)
    out = []
    for w in np.flatnonzero(np.bincount(weights))[1:3]:  # weight 0 is the zero word's
        block = unpack_bits(words[weights == w], code.n).astype(np.float64)
        out.append((block.T @ block).astype(np.int64))
    return out


def coset_reps_reference(ambient: LinearCode, sub: LinearCode) -> list[int]:
    """Reference coset representatives of sub inside ambient, one coset at a time.

    Each is the least word of least weight in its coset, and they come
    sorted by (weight, word), so the zero coset's 0 is first.
    """
    assert ambient.contains(sub), "not a subcode of the ambient code"
    sub_words = sub.words()
    reps = []
    for u in span_masks(complement_basis(ambient.row_masks, sub.row_masks, ambient.n)):
        coset = sub_words ^ u
        weights = np.bitwise_count(coset)
        wmin = int(weights.min())
        reps.append((wmin, int(coset[weights == wmin].min())))
    return [rep for _, rep in sorted(reps)]
