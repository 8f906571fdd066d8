"""Permutation-canonical forms of binary codes.

The canonical form is computed by individualization-refinement over
column partitions: columns are iteratively colored by their incidence
pattern with the lightest codewords, a target cell is branched on, and
the minimum (node-invariant trace, RREF of the permuted basis) over the
explored tree defines the canonical coordinate order.  Discovered
automorphisms prune sibling branches, and a leaf that reveals one
backjumps to the depth where its path leaves the best leaf's.  The
invariant trace prunes by one rule (McKay & Piperno, Practical graph
isomorphism II, 2014): a node whose trace exceeds the best leaf's trace
prefix of the same length is cut.  Equal keys hold exactly for
equivalent codes; the search realizes the key through an explicit
witness permutation.

A search's fixed cost is its setup: the code's words are enumerated once
and sorted by weight once, a rank test that stops at full rank picks the
refinement words, and one unpack yields both them and the two lightest
classes whose pair counts refinement also reads.  The basis is unpacked
once too, so a leaf key is a column gather, one pack and one RREF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# The builtin blake2b, which hashlib.blake2b is: importing hashlib loads
# OpenSSL's libcrypto, about 3.6 MiB of RSS for one node digest.
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

import numpy as np

from fourweight._bits import pack_bits, permute_bits, rref_masks, span_masks, unpack_bits
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
    return LinearCode(n, permute_bits(code.row_masks, order, n).tolist())


def apply_permutation(code: LinearCode, sigma) -> LinearCode:
    """The image of the code under coordinate map j -> sigma[j] (0-indexed)."""
    sigma = list(sigma)
    if sorted(sigma) != list(range(code.n)):
        raise InputError("not a permutation of the coordinates")
    return permute_columns(code, np.argsort(sigma))


def _mix_constants(length: int) -> np.ndarray:
    """Fixed odd multipliers for order-insensitive uint64 row hashing."""
    out = []
    x = 0x9E3779B97F4A7C15
    for _ in range(length):
        x = (x * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & (2**64 - 1)
        out.append(x | 1)
    return np.array(out, dtype=np.uint64)


#: One multiplier per column color; colors stay below n <= LENGTH_GUARD.
_MIX = _mix_constants(LENGTH_GUARD)


def _splitmix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise and in place: a fixed nonlinear scramble of uint64 values."""
    t = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def _grow_basis(basis: list[int], words: np.ndarray, k: int) -> None:
    """Insert words into an XOR basis until it reaches rank k or the words run out.

    The basis is kept in decreasing order, so its leading bits are distinct
    and reducing x by b wherever that lowers x clears b's leading bit.  The
    words are visited at a golden-ratio stride coprime to their number: in
    span_masks order a class's first words combine the first rows only, so
    a spanning class reaches rank k after a few words this way.
    """
    size = words.size
    stride = int(size * (5**0.5 - 1) / 2) | 1
    while math.gcd(stride, size) != 1:
        stride += 1
    j = 0
    for _ in range(size):
        if len(basis) == k:
            return
        x = int(words[j])
        for b in basis:
            if x ^ b < x:
                x ^= b
        if x:
            basis.append(x)
            basis.sort(reverse=True)
        j = (j + stride) % size


def _light_classes(code: LinearCode) -> tuple[np.ndarray, list[np.ndarray]]:
    """The refinement words' 0/1 coordinates, and the pair counts of the two lightest classes.

    Refinement reads the lightest nonzero weight classes until they hold n
    words and span the code: a spanning union of weight classes has exactly
    the code's automorphisms; one that spans a subcode may have many more.
    The pair counts are the column co-occurrence counts (uint64, n x n)
    within each of the two lightest classes, zero for a class the code
    lacks.

    One stable sort puts the words in weight order, where ends[i] closes the
    i-th class (ends[0] = 1, the zero word).  The rank test stops at rank k,
    so a spanning class costs a few words; one that does not is walked in
    full.  One unpack covers that prefix and the two lightest classes.
    """
    n = code.n
    words = span_masks(code.row_masks)
    weights = np.bitwise_count(words)
    sizes = np.bincount(weights)  # before the argsort: its int64 copy of weights is freed
    order = np.argsort(weights, kind="stable")
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    basis: list[int] = []
    last = len(ends) - 1
    for i in range(1, len(ends)):
        _grow_basis(basis, words[order[ends[i - 1] : ends[i]]], code.k)
        if len(basis) == code.k and ends[i] > n:
            last = i
            break
    ends += [ends[-1]] * 2  # a class the code lacks reads as empty
    bits = unpack_bits(words[order[1 : max(ends[last], ends[2])]], n)
    # float32 BLAS is exact here: every partial sum is at most 2^DIM_GUARD < 2^24.
    block = bits[: ends[2] - 1].astype(np.float32)
    counts = [(b.T @ b).astype(np.uint64) for b in (block[: ends[1] - 1], block[ends[1] - 1 :])]
    return bits[: ends[last] - 1], counts


def _individualize(colors: np.ndarray, c: int) -> np.ndarray:
    """Column c alone in a new cell just before the rest of its cell; colors stay dense."""
    child = colors + (colors >= colors[c])
    child[c] -= 1
    return child


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class _Search:
    """One canonicalization run; collects the best leaf and automorphisms."""

    def __init__(self, code: LinearCode):
        self.n = code.n
        self.row_bits = unpack_bits(code.row_masks, code.n)
        rbits, counts = _light_classes(code)
        self.rbits = rbits.astype(np.uint64)
        self.rbits_t = np.ascontiguousarray(self.rbits.T)
        # Pair counts crack the near-uniform incidence that weight classes
        # leave unrefined; scrambled, pair @ mix[colors] hashes the multiset
        # of (color, both counts) over the columns j' of column j.
        self.pair = _splitmix((counts[0] << np.uint64(32)) | counts[1])
        self.best_key: tuple[int, ...] | None = None
        self.best_trace: list[tuple] = []
        self.best_perm: np.ndarray | None = None
        self.best_path: list[int] = []
        self.gens: list[tuple[int, ...]] = []
        self.nodes = 0

    # -- partition machinery -------------------------------------------------

    def refine(self, colors: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Stable dense column coloring plus a canonical node invariant.

        A pass hashes each word to sum_c count[c] * mix[c] over its columns'
        colors c, then ranks the columns by (color, a hash of their words'
        scrambled hashes and of their pair counts): two uint64 matrix-vector
        products and one sort of one key, whose top 6 bits hold the color
        (n <= LENGTH_GUARD < 64).  Hashes are column-id-free, so cell ids stay
        canonical; the old color leads, so cells split in place; a collision
        can only under-split.  Input colors are dense, so a pass that keeps
        the cell count is stable.  The word hashes are scrambled in place and
        the pair term is added into the column hashes in place.
        """
        ncol = int(colors.max()) + 1
        while True:
            m = _MIX[colors]
            h = self.rbits_t @ _splitmix(self.rbits @ m)
            h += self.pair @ m
            key = (colors.astype(np.uint64) << np.uint64(58)) | (h >> np.uint64(6))
            order = np.argsort(key)
            ordered = key[order]
            step = ordered[1:] != ordered[:-1]
            cells = int(np.count_nonzero(step)) + 1
            if cells == ncol:
                sizes = np.bincount(colors, minlength=ncol)
                digest = blake2b(ordered.tobytes(), digest_size=8).digest()
                return colors, (ncol, sizes.tobytes(), digest)
            colors = np.zeros_like(colors)
            colors[order[1:]] = np.cumsum(step)
            ncol = cells

    def _leaf_key(self, colors: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """The RREF of the basis permuted by a discrete coloring, and the permutation.

        The basis rows were unpacked at setup, so the permutation is a column gather.
        """
        perm = np.argsort(colors)
        return rref_masks(pack_bits(self.row_bits[:, perm]).tolist(), self.n), perm

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
        colors, inv = self.refine(np.zeros(self.n, dtype=np.int64))
        self._node(colors, [inv], [])

    def _node(self, colors: np.ndarray, trace: list[tuple], path: list[int]) -> int | None:
        """Search the subtree below `path`; returns a backjump depth or None.

        `trace` holds the node invariants from the root down to this node.
        The one pruning rule: a node whose trace exceeds the best leaf's
        trace prefix of the same length is cut, since every leaf below it
        has a greater trace.  A leaf replaces the best leaf when its
        (trace, key) is smaller.

        A leaf that survives the cut without replacing the best has the
        best leaf's trace, so a leaf whose key equals the best key yields
        the automorphism g taking the best leaf to it.  Refinement is
        label-invariant and splits cells in place, so g maps the best path
        onto this one position by position: it fixes their common prefix
        and carries the child of the depth-d node (d, the first position
        where they differ) that holds the best leaf onto the child this
        leaf lies in.  That sibling subtree was searched earlier, so no
        leaf below this child can be strictly better: every node deeper
        than d returns at once, and the depth-d node goes on to its next
        candidate.
        """
        self.nodes += 1
        depth = len(path)
        if self.best_key is not None and trace > self.best_trace[: depth + 1]:
            return None

        ncol = int(colors.max()) + 1
        if ncol == self.n:
            key, perm = self._leaf_key(colors)
            if self.best_key is None or (trace, key) < (self.best_trace, self.best_key):
                self.best_key, self.best_perm = key, perm
                self.best_trace, self.best_path = list(trace), list(path)
            elif key == self.best_key:
                g = np.empty(self.n, dtype=np.int64)
                g[self.best_perm] = perm
                g_t = tuple(int(x) for x in g)
                if g_t not in self.gens and any(g[i] != i for i in range(self.n)):
                    self.gens.append(g_t)
                # Two leaves: neither path is a prefix of the other.
                common = min(depth, len(self.best_path))
                diverge = [i for i in range(common) if path[i] != self.best_path[i]]
                if not diverge:
                    raise AssertionError("two leaves share a path")
                return diverge[0]
            return None

        sizes = np.bincount(colors, minlength=ncol)
        target = int(np.flatnonzero(sizes > 1)[0])
        tried: list[int] = []
        parent = list(range(self.n))
        seen = 0
        for c in np.flatnonzero(colors == target).tolist():
            if tried:
                seen = self._fold_orbits(parent, seen, path)
                root = _find(parent, c)
                if any(_find(parent, t) == root for t in tried):
                    continue
            tried.append(c)
            child, child_inv = self.refine(_individualize(colors, c))
            path.append(c)
            trace.append(child_inv)
            jump = self._node(child, trace, path)
            trace.pop()
            path.pop()
            if jump is not None and jump < depth:
                return jump
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
    key = (f"{code.n},{code.k}|").encode() + b"|".join(
        format(r, f"0{code.n}b").encode() for r in search.best_key
    )
    return _CanonResult(
        form=CanonicalForm(key=key, witness=tuple(int(j) for j in search.best_perm)),
        gens=tuple(search.gens),
    )


def canonical_form(code: LinearCode) -> CanonicalForm:
    """Canonical key and witness permutation for a code (n <= 32)."""
    return _canonicalize(code).form


def automorphism_generators(code: LinearCode) -> tuple[tuple[int, ...], ...]:
    """Automorphisms discovered during canonicalization.

    The search backjumps after each one it finds, so these generate a
    subgroup of the automorphism group, not always all of it.
    """
    return _canonicalize(code).gens


def are_equivalent(c1: LinearCode, c2: LinearCode) -> bool:
    """True iff the codes differ by a coordinate permutation."""
    return equivalence_witness(c1, c2) is not None


def equivalence_witness(c1: LinearCode, c2: LinearCode):
    """A permutation sigma with sigma(c1) == c2, or None; one canonical form per code."""
    if c1.n != c2.n or c1.k != c2.k:
        return None
    if c1.k == 0:
        return tuple(range(c1.n))  # both are the zero code, which has no canonical form
    if c1.weight_distribution() != c2.weight_distribution():
        return None
    f1, f2 = canonical_form(c1), canonical_form(c2)
    if f1.key != f2.key:
        return None
    sigma = [0] * c1.n
    for t in range(c1.n):
        sigma[f1.witness[t]] = f2.witness[t]
    if apply_permutation(c1, sigma) != c2:
        raise AssertionError("the witness permutation does not map c1 onto c2")
    return tuple(sigma)
