"""Sign matrices from qualifying codes, and exact quasi-unbiasedness checks.

The map psi sends 0 -> +1 and 1 -> -1 coordinatewise, so the inner
product of psi(x) and psi(y) is n - 2 wt(x + y).  Each coset of the
reference RM(1,m) inside a qualifying code is closed under complement;
picking one vector per antipodal pair and applying psi yields rows of a
Hadamard matrix, and distinct cosets yield quasi-unbiased pairs for
parameters (n, n, (n/2a)^2, 4a^2).  One sign map, ``_signs``, builds a
code's whole (s, n, n) stack; the checks run on the stack, every pair
i < j through batched float64 products that are exact (see
``QuwmSet.verify``).  Verification never materializes sqrt(a): squared
entries are compared against a exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fourweight._bits import BitVector, unpack_bits
from fourweight.conditions import FourWeightCertificate, reference_rm, require_certificate
from fourweight.errors import InputError
from fourweight.linear import LinearCode


def _signs(words, n: int) -> np.ndarray:
    """psi of every n-bit word in an array: int8 signs on a new last axis, coordinate 1 first."""
    return 1 - 2 * unpack_bits(words, n).view(np.int8)


def psi(v: BitVector) -> np.ndarray:
    """Coordinatewise sign vector: 0 -> +1, 1 -> -1 (int8, coordinate 1 first)."""
    return _signs(v.bits, v.n)


def psi_inverse(row: np.ndarray) -> BitVector:
    bad = [e for e in row if e not in (-1, 1)]
    if bad:
        raise InputError(f"entry {bad[0]} is not a sign")
    return BitVector(len(row), sum(1 << i for i, e in enumerate(reversed(row)) if e == -1))


def _split(words: np.ndarray, n: int, rng: random.Random | None) -> np.ndarray:
    """Per sorted row of complement-closed n-bit words, its sorted first-coordinate-0 half;
    an rng draws once per word of it, row by row, and complements where the draw is >= 1/2."""
    low = words[:, : words.shape[1] // 2]
    if rng is None:
        return low
    draws = np.fromiter((rng.random() for _ in range(low.size)), dtype=np.float64, count=low.size)
    picked = np.where(draws.reshape(low.shape) < 0.5, low, low ^ np.uint64((1 << n) - 1))
    return np.sort(picked, axis=1)


def antipodal_split(
    coset: Sequence[BitVector], rng: random.Random | None = None
) -> list[BitVector]:
    """One vector per antipodal pair {c, c + 1} of a complement-closed coset.

    The canonical choice keeps the member whose first coordinate is 0, so
    the psi image starts with +1; passing an rng picks a random member per
    pair instead.  Output is sorted lexicographically.
    """
    if not coset:
        raise InputError("empty coset")
    n = coset[0].n
    if n > 64 or any(v.n != n for v in coset):
        raise InputError("coset vectors must share one length of at most 64")
    values = {v.bits for v in coset}
    if len(values) != len(coset):
        raise InputError("coset contains repeated vectors")
    ones = (1 << n) - 1
    missing = [v for v in values if v ^ ones not in values]
    if missing:
        raise InputError(
            f"coset is not closed under complement: {BitVector(n, missing[0]).to01()}"
            " has no antipodal partner"
        )
    picked = _split(np.array([sorted(values)], dtype=np.uint64), n, rng)[0]
    return [BitVector(n, int(v)) for v in picked]


@dataclass(frozen=True)
class QuwmParams:
    """Parameter quadruple (n, k, l, a); necessarily l = k^2 / a."""

    n: int
    k: int
    l: int
    a: int

    def __post_init__(self) -> None:
        if min(self.n, self.k, self.l, self.a) <= 0:
            raise InputError("parameters must be positive")
        if self.k * self.k != self.l * self.a:
            raise InputError(
                f"inconsistent parameters: l must be k^2/a, got {self.as_tuple()}"
            )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.l, self.a)


def _weighing_checks(x: np.ndarray, a: int, weight: int) -> np.ndarray:
    """Per matrix X of the float64 stack x: squared entries in {0, a}, `weight` nonzeros
    per row and column, and X X^T = a*weight*I."""
    sq = x * x
    nz = x != 0
    return (
        ((sq == 0) | (sq == a)).all(axis=(1, 2))
        & (nz.sum(axis=2) == weight).all(axis=1)
        & (nz.sum(axis=1) == weight).all(axis=1)
        & (np.matmul(x, x.transpose(0, 2, 1)) == a * weight * np.eye(x.shape[-1])).all(axis=(1, 2))
    )


def verify_weighing(w_matrix: np.ndarray, weight: int) -> bool:
    """True iff entries lie in {-1,0,1}, rows/columns have exactly `weight` nonzeros, and W W^T = weight I."""
    w = np.asarray(w_matrix, dtype=np.int64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return False
    return bool(_weighing_checks(w[None].astype(np.float64), 1, weight)[0])  # exact for signs


def verify_quasi_unbiased(w1: np.ndarray, w2: np.ndarray, params: QuwmParams) -> bool:
    """Exact check that (1/sqrt(a)) W1 W2^T is a weighing matrix of weight l."""
    return not QuwmSet(params, (w1, w2)).verify().failed_pairs


@dataclass
class QuwmVerification:
    all_pass: bool
    hadamard_ok: tuple[bool, ...]
    failed_pairs: tuple[tuple[int, int], ...]
    zero_counts_per_row: tuple[int, ...]


@dataclass(frozen=True)
class QuwmSet:
    """Matrices built from one code, with their common parameters."""

    params: QuwmParams
    matrices: tuple[np.ndarray, ...]
    source: str | None = None

    def __len__(self) -> int:
        return len(self.matrices)

    def verify(self) -> QuwmVerification:
        """Full pairwise verification; aggregates every failure, not the first.

        H_i must be a weighing matrix of weight n, and (1/sqrt(a)) H_i H_j^T
        one of weight l for each i < j; row block i takes every H_i H_j^T,
        j > i, from one batched product.
        """
        n, a, l = self.params.n, self.params.a, self.params.l
        if any(np.shape(h) != (n, n) for h in self.matrices):
            raise InputError(f"matrices must all have order {n}")
        h = np.array(self.matrices, dtype=np.int64).reshape(-1, n, n)
        # float64 is exact here: with M the largest |entry|, every entry and
        # partial sum of H_i H_j^T is at most n M^2 and of its Gram matrix at
        # most n^3 M^4, all integers below 2^53, so nothing rounds in any order.
        big = max(int(h.max(initial=0)), -int(h.min(initial=0)))
        if len(h) > 1 and n**3 * big**4 >= 2**53:
            raise InputError(f"entries up to {big} make order-{n} products inexact in float64")
        f = h.astype(np.float64)
        hadamard_ok = tuple(_weighing_checks(f, 1, n).tolist())
        failed: list[tuple[int, int]] = []
        zero_counts: set[int] = set()
        for i in range(len(f) - 1):
            p = np.matmul(f[i], f[i + 1 :].transpose(0, 2, 1))
            ok = _weighing_checks(p, a, l)
            failed += [(i, i + 1 + int(j)) for j in np.flatnonzero(~ok)]
            zero_counts.update((p[ok] == 0).sum(axis=2).ravel().tolist())
        return QuwmVerification(
            all_pass=all(hadamard_ok) and not failed,
            hadamard_ok=hadamard_ok,
            failed_pairs=tuple(failed),
            zero_counts_per_row=tuple(sorted(zero_counts)),
        )


def build_quwm_set(
    code: LinearCode,
    cert: FourWeightCertificate | None = None,
    rng: random.Random | None = None,
    source: str | None = None,
) -> QuwmSet:
    """The 2^(k-m-1) Hadamard matrices generated by a qualifying code.

    Matrix i collects the psi images of the antipodal split of the i-th
    coset of the reference RM(1,m), rows in lexicographic order of the
    underlying codewords; the construction is deterministic unless an rng
    is supplied for the split choice.
    """
    if cert is None:
        cert = require_certificate(code)
    rm = reference_rm(cert.m)
    reps = np.array([rep.bits for rep in code.coset_table(rm).representatives], dtype=np.uint64)
    cosets = np.sort(reps[:, None] ^ rm.words()[None, :], axis=1)  # closed under complement
    signs = _signs(_split(cosets, code.n, rng), code.n)
    params = QuwmParams(n=code.n, k=code.n, l=cert.l, a=4 * cert.a * cert.a)
    assert len(signs) == cert.qw_set_size
    return QuwmSet(params=params, matrices=tuple(signs), source=source)


def matrix_to_text(w: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(e)) for e in row) for row in w) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise InputError(f"bad matrix line: {ln!r}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputError("matrix rows must be nonempty and equal length")
    arr = np.array(rows, dtype=np.int64)
    if not np.isin(arr, (-1, 0, 1)).all():
        raise InputError("matrix entries must be -1, 0 or 1")
    return arr
