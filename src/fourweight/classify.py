"""Classification of qualifying codes by dimension-by-dimension extension.

Each admissible offset a seeds one branch with the reference RM(1,m) and
the target weight set {0, n/2-a, n/2, n/2+a, n}; extension candidates are
one vector per coset (restricted to the dual for doubly even weight
sets), reduced first by discovered automorphisms of the parent, then by
canonical keys.  A class is maximal exactly when it admits no valid
extension; every qualifying code at the next dimension extends some class
at the current one, so the sweep is complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fourweight._bits import mask_to_support, permute_bits, reduce_mask
from fourweight.canonical import automorphism_generators, canonical_form
from fourweight.conditions import _log2_exact, admissible_offsets, check_conditions, reference_rm
from fourweight.cover import SIEVE_BLOCK, covering_radius, valid_extension_vectors
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode


@dataclass
class ClassRecord:
    """One equivalence class of qualifying codes."""

    code: LinearCode
    key: bytes
    a: int
    min_weight: int
    provenance: tuple[tuple[int, ...], ...]
    members_seen: int = 1
    maximal: bool | None = None
    covering_radius: int | None = None

    def as_dict(self) -> dict:
        return {
            "n": self.code.n,
            "k": self.code.k,
            "a": self.a,
            "min_weight": self.min_weight,
            "maximal": self.maximal,
            "covering_radius": self.covering_radius,
            "members_seen": self.members_seen,
            "provenance": [list(sup) for sup in self.provenance],
            "generator_rows": self.code.to_text().splitlines()[1:],
        }


@dataclass
class ClassificationReport:
    n: int
    k: int
    classes: list[ClassRecord] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "num_classes": len(self.classes),
            "classes": [rec.as_dict() for rec in self.classes],
        }


def _orbit_reduce(parent: LinearCode, xs: np.ndarray) -> np.ndarray:
    """Keep one coset rep per orbit under the parent's discovered automorphisms.

    xs is a sorted uint64 array.  Orbit-equivalent cosets yield equivalent
    extensions, so dropping them cannot lose a class; canonical-key
    reduction still follows.  Each generator's map is built SIEVE_BLOCK
    reps at a time and kept as int32, so the peak is 4 bytes per rep and
    generator plus one block's scratch.  With at most one valid coset there
    is no orbit to merge, so that return comes before the generators are
    asked for: they come from a canonical search of the parent, run unless
    one is cached, which a maximal parent (no valid coset) would not
    otherwise need.
    """
    if xs.size <= 1:
        return xs
    gens = automorphism_generators(parent)
    if not gens:
        return xs
    maps = []
    for g in gens:
        order = np.argsort(g)
        idx = np.empty(xs.size, dtype=np.int32)
        for lo in range(0, xs.size, SIEVE_BLOCK):
            y = reduce_mask(permute_bits(xs[lo : lo + SIEVE_BLOCK], order, parent.n), parent.row_masks)
            j = np.searchsorted(xs, y)
            if (j >= xs.size).any() or not np.array_equal(xs[np.minimum(j, xs.size - 1)], y):
                raise AssertionError("automorphism left the valid-coset set")
            idx[lo : lo + SIEVE_BLOCK] = j
        maps.append(idx)
    # One-way propagation suffices: at the fixpoint labels[i] <= labels[g(i)]
    # and each g has finite order, so labels are constant on every orbit.
    labels = np.arange(xs.size, dtype=np.int32)
    while True:
        prev = labels
        for idx in maps:
            labels = np.minimum(labels, labels[idx])
        labels = labels[labels]  # pointer jumping
        if np.array_equal(labels, prev):
            break
    return xs[labels == np.arange(xs.size)]


def _dedupe(candidates: list[tuple[LinearCode, tuple]], a: int) -> list[ClassRecord]:
    """Reduce (code, provenance) candidates to canonical-key class records."""
    by_key: dict[bytes, ClassRecord] = {}
    for code, prov in candidates:
        key = canonical_form(code).key
        rec = by_key.get(key)
        if rec is None:
            check = check_conditions(code)
            if not check.ok:
                raise AssertionError(f"extension lost the weight set: {check.violations}")
            by_key[key] = ClassRecord(
                code=code,
                key=key,
                a=a,
                min_weight=code.min_weight(),
                provenance=prov,
            )
        else:
            rec.members_seen += 1
    return sorted(by_key.values(), key=lambda r: r.key)


def _layer(parents: list[tuple[LinearCode, tuple]], a: int) -> tuple[list[ClassRecord], list[bool]]:
    """The classes one dimension above the (code, provenance) parents.

    Also returns, per parent, whether it admits no valid extension, which
    for a qualifying parent means it is maximal.
    """
    candidates = []
    maximal = []
    for code, prov in parents:
        xs = _orbit_reduce(code, valid_extension_vectors(code, a)).tolist()
        maximal.append(not xs)
        candidates += [(code.extend(x), prov + (mask_to_support(code.n, x),)) for x in xs]
    return _dedupe(candidates, a), maximal


def classify_step(seeds: list[LinearCode], a: int | None = None) -> ClassificationReport:
    """One extension layer: all classes one dimension above the seeds.

    The seeds must share length and dimension, and each must qualify with
    offset a (taken from the first seed when not given).  The reference
    RM(1,m) itself, the root of every branch, is also a valid seed for any
    admissible a.
    """
    if not seeds:
        raise InputError("no seed codes")
    n, k = seeds[0].n, seeds[0].k
    root = reference_rm(_log2_exact(n))
    for seed in seeds:
        if (seed.n, seed.k) != (n, k):
            raise InputError(f"seeds differ in length or dimension: [{seed.n},{seed.k}], [{n},{k}]")
        if seed == root:
            if a not in admissible_offsets(n):
                raise InputError(f"the reference RM seed needs an admissible offset a, not {a}")
            continue
        check = check_conditions(seed)
        if not check.ok:
            raise InputError("seed does not qualify: " + "; ".join(check.violations))
        if a is None:
            a = check.certificate.a
        if check.certificate.a != a:
            raise InputError(f"seed qualifies with a={check.certificate.a}, not a={a}")
    records, _ = _layer([(s, ()) for s in seeds], a)
    return ClassificationReport(n=n, k=k + 1, classes=records)


def classify_all(n: int, allow_long: bool = False) -> list[ClassificationReport]:
    """Full classification at length n (8, 16, or the gated 32).

    Returns one report per dimension that has classes, maximality flags
    included; covering radii are filled for every class at n <= 16 and
    for maximal classes at n = 32.
    """
    if n not in (8, 16, 32):
        raise InputError("classification is defined for lengths 8, 16 and 32")
    if n == 32 and not allow_long:
        raise CapacityError(
            "length-32 classification scans ~10^6 extension cosets per branch and "
            "takes 4.5-10 s and 49 MiB of RSS on 2 CPUs; rerun with allow_long=True (--allow-long)"
        )
    m = n.bit_length() - 1
    seed = reference_rm(m)
    by_k: dict[int, list[ClassRecord]] = {}
    for a in sorted(admissible_offsets(n)):
        records, _ = _layer([(seed, ())], a)
        while records:
            by_k.setdefault(records[0].code.k, []).extend(records)
            above, maximal = _layer([(rec.code, rec.provenance) for rec in records], a)
            for rec, flag in zip(records, maximal):
                rec.maximal = flag
            records = above
    reports = []
    for k in sorted(by_k):
        records = sorted(by_k[k], key=lambda r: (r.a, r.key))
        for rec in records:
            if n <= 16 or rec.maximal:
                rec.covering_radius = covering_radius(rec.code)
        reports.append(ClassificationReport(n=n, k=k, classes=records))
    return reports
