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

from fourweight._bits import mask_to_support, reduce_mask
from fourweight.canonical import automorphism_generators, canonical_form
from fourweight.conditions import admissible_offsets, check_conditions, reference_rm
from fourweight.cover import leader_profile, valid_extension_vectors
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


def _apply_perm_masks(xs: np.ndarray, sigma, n: int) -> np.ndarray:
    out = np.zeros_like(xs)
    one = np.uint64(1)
    for j in range(n):
        bit = (xs >> np.uint64(n - 1 - j)) & one
        out |= bit << np.uint64(n - 1 - sigma[j])
    return out


def _orbit_reduce(parent: LinearCode, xs: list[int]) -> list[int]:
    """Keep one coset rep per orbit under the parent's discovered automorphisms.

    Orbit-equivalent cosets yield equivalent extensions, so dropping them
    cannot lose a class; canonical-key reduction still follows.
    """
    gens = automorphism_generators(parent)
    if not gens or len(xs) <= 1:
        return xs
    arr = np.array(xs, dtype=np.uint64)
    maps = []
    for g in gens:
        y = reduce_mask(_apply_perm_masks(arr, g, parent.n), parent.row_masks)
        idx = np.searchsorted(arr, y)
        if (idx >= arr.size).any() or not np.array_equal(arr[np.minimum(idx, arr.size - 1)], y):
            raise AssertionError("automorphism left the valid-coset set")
        maps.append(idx)
    labels = np.arange(arr.size)
    while True:
        prev = labels.copy()
        for idx in maps:
            labels = np.minimum(labels, labels[idx])
            np.minimum.at(labels, idx, labels)
        # propagate to orbit minima
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    keep = np.flatnonzero(labels == np.arange(arr.size))
    return [int(arr[i]) for i in keep]


def _dedupe(candidates: list[tuple[LinearCode, tuple]], a: int) -> list[ClassRecord]:
    """Reduce (code, provenance) candidates to canonical-key class records."""
    by_key: dict[bytes, ClassRecord] = {}
    for code, prov in candidates:
        key = canonical_form(code).key
        rec = by_key.get(key)
        if rec is None:
            check = check_conditions(code)
            assert check.ok, f"extension lost the weight set: {check.violations}"
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
        xs = _orbit_reduce(code, valid_extension_vectors(code, a))
        maximal.append(not xs)
        candidates += [(code.extend(x), prov + (mask_to_support(code.n, x),)) for x in xs]
    return _dedupe(candidates, a), maximal


def classify_step(seeds: list[LinearCode], a: int | None = None) -> ClassificationReport:
    """One extension layer: all classes one dimension above the seeds."""
    if not seeds:
        raise InputError("no seed codes")
    n = seeds[0].n
    if a is None:
        first = check_conditions(seeds[0])
        if not first.ok:
            raise InputError("seed does not qualify; pass the target offset a")
        a = first.certificate.a
    records, _ = _layer([(s, ()) for s in seeds], a)
    return ClassificationReport(n=n, k=seeds[0].k + 1, classes=records)


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
            "takes about 25 s on 2 CPUs; rerun with allow_long=True (--allow-long)"
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
                rec.covering_radius = leader_profile(rec.code).radius
        reports.append(ClassificationReport(n=n, k=k, classes=records))
    return reports
