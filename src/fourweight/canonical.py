"""Permutation-canonical forms of binary codes.

The canonical form is computed by individualization-refinement over
column partitions: columns are iteratively colored by their incidence
pattern with codeword weight classes, a target cell is branched on, and
the minimum (node-invariant trace, sorted permuted codeword list) over
the explored tree defines the canonical coordinate order.  Discovered
automorphisms prune sibling branches, a leaf that reveals one backjumps
to the depth where its path leaves the best leaf's, and subtrees whose
invariant trace already exceeds the best leaf are cut.  Equal keys hold
exactly for equivalent codes; the search realizes the key through an
explicit witness permutation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fourweight._bits import unpack_bits
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode

LENGTH_GUARD = 32
DIM_GUARD = 20


@dataclass(frozen=True)
class CanonicalForm:
    """key: serialized RREF of the canonically permuted code; witness: the permutation.

    witness[t] is the 0-indexed original coordinate placed at canonical
    position t; applying it to the input code and row-reducing yields
    exactly the generator matrix encoded in key.
    """

    key: bytes
    witness: tuple[int, ...]


def permute_columns(code: LinearCode, order) -> LinearCode:
    """The code whose position-t coordinate is the input's coordinate order[t]."""
    n = code.n
    order = list(order)
    if sorted(order) != list(range(n)):
        raise InputError("not a permutation of the coordinates")
    rows = []
    for r in code.row_masks:
        new = 0
        for t, j in enumerate(order):
            if (r >> (n - 1 - j)) & 1:
                new |= 1 << (n - 1 - t)
        rows.append(new)
    return LinearCode(n, rows)


def apply_permutation(code: LinearCode, sigma) -> LinearCode:
    """The image of the code under coordinate map j -> sigma[j] (0-indexed)."""
    n = code.n
    sigma = list(sigma)
    if sorted(sigma) != list(range(n)):
        raise InputError("not a permutation of the coordinates")
    order = [0] * n
    for j, t in enumerate(sigma):
        order[t] = j
    return permute_columns(code, order)


def _mix_constants(length: int) -> np.ndarray:
    """Fixed odd multipliers for order-insensitive uint64 row hashing."""
    out = np.empty(length, dtype=np.uint64)
    x = np.uint64(0x9E3779B97F4A7C15)
    for i in range(length):
        x = np.uint64((int(x) * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & (2**64 - 1))
        out[i] = x | np.uint64(1)
    return out


_MIX = _mix_constants(4200)


def _mix(length: int) -> np.ndarray:
    """The first `length` fixed multipliers, growing the table if needed."""
    global _MIX
    if length > _MIX.size:
        _MIX = _mix_constants(length)
    return _MIX[:length]


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(a, axis=0, return_inverse=True) for a 2-D array, without its overhead.

    Rows are ranked lexicographically, column 0 first, as np.unique does.
    """
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class _Search:
    """One canonicalization run; collects the best leaf and automorphisms."""

    def __init__(self, code: LinearCode):
        n = code.n
        words = code.words()
        self.n = n
        self.bits = unpack_bits(words, n)
        self.weights = np.bitwise_count(words).astype(np.int64)
        self.pow2 = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
        # Refinement scans only the lightest weight classes (enough columns
        # to discriminate); the leaf key still covers every codeword.
        classes = sorted(set(self.weights[self.weights > 0].tolist()))
        take = np.zeros(len(words), dtype=bool)
        for w in classes:
            take |= self.weights == w
            if int(take.sum()) >= n:
                break
        self.rbits = self.bits[take].astype(np.uint64)
        self.rbits_t = np.ascontiguousarray(self.rbits.T)
        self.rweights = self.weights[take].astype(np.uint64)
        # Column co-occurrence within the two lightest nonzero weight
        # classes; pair counts crack the near-uniform incidence that
        # weight classes alone leave unrefined.
        self.pair: list[np.ndarray] = []
        for w in classes[:2]:
            block = self.bits[self.weights == w].astype(np.int64)
            self.pair.append(block.T @ block)
        self.best_key: np.ndarray | None = None
        self.best_trace: list[tuple] = []
        self.best_perm: np.ndarray | None = None
        self.best_path: list[int] = []
        self.gens: list[tuple[int, ...]] = []
        self.nodes = 0

    # -- partition machinery -------------------------------------------------

    def refine(self, colors: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Stable column coloring plus a canonical node invariant.

        Word colors come from (weight, per-cell incidence counts), columns
        from (previous color, per-word-color incidence, pair signatures).
        Signatures are folded into uint64 hashes with fixed multipliers:
        the rank order of hash values is column-id-free, so cell ids stay
        canonical, and a collision can only under-split (never corrupts).
        An incidence-count hash sum_c count[c] * mix[c] is one matrix-vector
        product, bits @ mix[color]: uint64 arithmetic wraps mod 2^64, a
        ring, so regrouping the sum leaves every bit of the hash unchanged.
        """
        rbits = self.rbits
        n = self.n
        ncol = int(colors.max()) + 1
        while True:
            # A column individualized out of cell 0 has color -1 until this
            # pass renumbers it: it hashes with the last cell's multiplier
            # (an under-split only); its signature still keeps color -1.
            mix = _mix(ncol + 1)
            whash = rbits @ mix[:ncol][colors] + self.rweights * mix[ncol]
            wvals, wcolor = np.unique(whash, return_inverse=True)
            chash = self.rbits_t @ _mix(len(wvals))[wcolor]
            # pair signature of column j: sorted multiset of (color, co-count)
            # pairs, encoded as color*K + count so one row sort suffices
            csig = np.empty((n, 2 + len(self.pair)), dtype=np.uint64)
            csig[:, 0] = colors.astype(np.uint64)
            csig[:, 1] = chash
            for t, mat in enumerate(self.pair):
                combined = colors[None, :] * (int(mat.max()) + 1) + mat
                csig[:, 2 + t] = np.sort(combined, axis=1).astype(np.uint64) @ _mix(n)
            cuniq, new_colors = _unique_rows(csig)
            if len(cuniq) == ncol and np.array_equal(new_colors, colors):
                sizes = np.bincount(colors, minlength=ncol)
                digest = hashlib.blake2b(
                    wvals.tobytes() + cuniq.tobytes(), digest_size=8
                ).digest()
                return colors, (ncol, sizes.tobytes(), digest)
            colors = new_colors
            ncol = len(cuniq)

    def _leaf_key(self, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        perm = np.argsort(colors)
        packed = (self.bits[:, perm].astype(np.uint64) * self.pow2[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        packed.sort()
        return packed, perm

    def _fold_orbits(self, parent: list[int], seen: int, path: list[int]) -> int:
        """Union into `parent` the generators from index `seen` on that fix `path`.

        Generators are only ever appended, so a node folds each one in once;
        the union-find then holds the orbit partition of the pointwise
        stabilizer of `path` within the group found so far.  Returns the
        new `seen`.
        """
        for g in self.gens[seen:]:
            if all(g[p] == p for p in path):
                for i, j in enumerate(g):
                    ri, rj = _find(parent, i), _find(parent, j)
                    if ri != rj:
                        parent[ri] = rj
        return len(self.gens)

    # -- search ----------------------------------------------------------------

    def run(self) -> None:
        colors = np.zeros(self.n, dtype=np.int64)
        colors, inv = self.refine(colors)
        self._node(colors, inv, [inv], [], better=True)

    def _node(
        self,
        colors: np.ndarray,
        inv: tuple,
        trace: list[tuple],
        path: list[int],
        better: bool,
    ) -> int | None:
        """Search the subtree below `path`; returns a backjump depth or None.

        A leaf whose key equals the best key yields the automorphism g
        taking the best leaf to it.  Its trace equals the best trace, and
        refinement is label-invariant and splits cells in place, so g maps
        the best path onto this one position by position: it fixes their
        common prefix and carries the child of the depth-d node (d, the
        first position where they differ) that holds the best leaf onto
        the child this leaf lies in.  That sibling subtree was searched
        earlier, so no leaf below this child can be strictly better: every
        node deeper than d returns at once, and the depth-d node goes on
        to its next candidate.
        """
        self.nodes += 1
        depth = len(path)
        if not better:
            ref = self.best_trace[depth]
            if inv > ref:
                return None
            if inv < ref:
                better = True

        ncol = int(colors.max()) + 1
        if ncol == self.n:
            key, perm = self._leaf_key(colors)
            if better or self.best_key is None:
                self.best_key, self.best_perm = key, perm
                self.best_trace, self.best_path = list(trace), list(path)
                return None
            if np.array_equal(key, self.best_key):
                g = np.empty(self.n, dtype=np.int64)
                g[self.best_perm] = perm
                g_t = tuple(int(x) for x in g)
                if g_t not in self.gens and any(g[i] != i for i in range(self.n)):
                    self.gens.append(g_t)
                # Two leaves: neither path is a prefix of the other.
                common = min(depth, len(self.best_path))
                diverge = [i for i in range(common) if path[i] != self.best_path[i]]
                assert diverge, "two leaves share a path"
                return diverge[0]
            idx = int(np.flatnonzero(key != self.best_key)[0])
            if key[idx] < self.best_key[idx]:
                self.best_key, self.best_perm = key, perm
                self.best_trace, self.best_path = list(trace), list(path)
            return None

        sizes = np.bincount(colors, minlength=ncol)
        target = int(np.flatnonzero(sizes > 1)[0])
        candidates = sorted(int(c) for c in np.flatnonzero(colors == target))
        tried: list[int] = []
        parent = list(range(self.n))
        seen = 0
        for c in candidates:
            if tried:
                seen = self._fold_orbits(parent, seen, path)
                root = _find(parent, c)
                if any(_find(parent, t) == root for t in tried):
                    continue
            tried.append(c)
            child = colors * 2
            child[c] -= 1
            child, child_inv = self.refine(child)
            path.append(c)
            trace.append(child_inv)
            jump = self._node(child, child_inv, trace, path, better)
            trace.pop()
            path.pop()
            if jump is not None and jump < depth:
                return jump
            # A strictly better branch replaced best; siblings now compare
            # against the new best, so the 'better' flag must be recomputed.
            if better and self.best_key is not None:
                better = False
                if trace != self.best_trace[: len(trace)]:
                    better = trace < self.best_trace[: len(trace)]
                    if not better:
                        return None
        return None


@dataclass(frozen=True)
class _CanonResult:
    form: CanonicalForm
    gens: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=8192)
def _canonicalize(code: LinearCode) -> _CanonResult:
    if code.k < 1:
        raise InputError("canonical form requires dimension at least 1")
    if code.n > LENGTH_GUARD:
        raise CapacityError(f"canonical form guarded to n <= {LENGTH_GUARD}")
    if code.k > DIM_GUARD:
        raise CapacityError(f"canonical form guarded to k <= {DIM_GUARD}")
    search = _Search(code)
    search.run()
    witness = tuple(int(j) for j in search.best_perm)
    canon = permute_columns(code, witness)
    key = (f"{code.n},{code.k}|").encode() + b"|".join(
        format(r, f"0{code.n}b").encode() for r in canon.row_masks
    )
    return _CanonResult(
        form=CanonicalForm(key=key, witness=witness),
        gens=tuple(search.gens),
    )


def canonical_form(code: LinearCode) -> CanonicalForm:
    """Canonical key and witness permutation for a code (n <= 32)."""
    return _canonicalize(code).form


def canonical_code(code: LinearCode) -> LinearCode:
    """The canonical representative of the equivalence class."""
    form = canonical_form(code)
    return permute_columns(code, form.witness)


def automorphism_generators(code: LinearCode) -> tuple[tuple[int, ...], ...]:
    """Automorphisms discovered during canonicalization.

    The search backjumps after each one it finds, so these generate a
    subgroup of the automorphism group, not always all of it.
    """
    return _canonicalize(code).gens


def are_equivalent(c1: LinearCode, c2: LinearCode) -> bool:
    """True iff the codes differ by a coordinate permutation."""
    if c1.n != c2.n or c1.k != c2.k:
        return False
    if c1.weight_distribution() != c2.weight_distribution():
        return False
    return canonical_form(c1).key == canonical_form(c2).key


def equivalence_witness(c1: LinearCode, c2: LinearCode):
    """A permutation sigma with sigma(c1) == c2, or None."""
    if not are_equivalent(c1, c2):
        return None
    w1 = canonical_form(c1).witness
    w2 = canonical_form(c2).witness
    sigma = [0] * c1.n
    for t in range(c1.n):
        sigma[w1[t]] = w2[t]
    assert apply_permutation(c1, sigma) == c2
    return tuple(sigma)


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
    for t in range(n):
        sigma[order[t]] = sol[t]
    assert apply_permutation(c1, sigma) == c2
    return tuple(sigma)
