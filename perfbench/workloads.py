"""The three length-32 workloads: inputs from a seed, the timed job, the answer checks.

Only the public ``fourweight`` API is used, and every call goes through an
attribute of the package (``fw.name``) looked up at call time, so that the
traced run can put its wrappers in place without this file knowing.

Each workload is a class with three steps, which ``job.py`` runs in order:

* ``setup(seed, batch)`` builds the inputs (counted in ``setup_s``) and
  returns metadata to record; a run's jobs number their batches 0, 1, 2, ...,
  so that one seed gives one sequence of inputs;
* ``run()`` is the timed job, one closed-loop request;
* ``checks()`` returns the answer checks against the paper as
  (name, ok) pairs; it runs after the timed region.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import fourweight as fw

N = 32
REFERENCE = Path(__file__).with_name("reference.json")


def permuted_rows(code, order) -> tuple[int, ...]:
    """RREF rows of the code whose position-t coordinate is the input's order[t].

    Written here rather than taken from the program, so that an
    equivalence proven with it does not rest on the code under test.
    """
    n = code.n
    rows = []
    for r in code.row_masks:
        new = 0
        for t, j in enumerate(order):
            if (r >> (n - 1 - j)) & 1:
                new |= 1 << (n - 1 - t)
        rows.append(new)
    return fw.LinearCode(n, rows).row_masks


def canonical_rows(code) -> tuple[int, ...]:
    """The code moved by its canonical witness; equal rows prove two codes equivalent."""
    return permuted_rows(code, fw.canonical_form(code).witness)


def qualifies(code, a: int) -> bool:
    check = fw.check_conditions(code)
    return check.ok and check.certificate.a == a


def table_ids(k: int, last: int) -> list[str]:
    """C_{32,k,1..last}: the table codes of dimension k with d = 12 and a = 4."""
    return [f"C_{{32,{k},{i}}}" for i in range(1, last + 1)]


class Classify32A8:
    """The complete offset-8 branch of the length-32 classification.

    classify_step from the fixed RM(1,5) until a layer comes out empty, then
    the coset-leader profile of every class.  The inputs do not depend on
    the seed: the branch is one fixed problem, dominated by the canonical
    search on a few highly symmetric codes.
    """

    A = 8
    COUNTS = (1, 1, 2, 1)  # classes at k = 7, 8, 9, 10
    MAXIMAL = ("C_{32,9,92}", "C_{32,10,102}")

    def setup(self, seed: int, batch: int) -> dict:
        self.rm = fw.rm1_fixed(5)
        return {}

    def run(self) -> None:
        self.layers = []
        seeds = [self.rm]
        while True:
            report = fw.classify_step(seeds, self.A)
            if not report.classes:
                break
            self.layers.append(report)
            seeds = [rec.code for rec in report.classes]
        self.radii = [
            [fw.leader_profile(rec.code).radius for rec in report.classes]
            for report in self.layers
        ]

    def checks(self) -> list[tuple[str, bool]]:
        out = [
            (
                "class counts 1/1/2/1 at k=7..10",
                tuple(len(r.classes) for r in self.layers) == self.COUNTS
                and [r.k for r in self.layers] == [7, 8, 9, 10],
            )
        ]
        maximal = []
        for report, radii in zip(self.layers, self.radii):
            for rec, radius in zip(report.classes, radii):
                ok = qualifies(rec.code, self.A)
                out.append((f"[32,{report.k}] class qualifies with a=8", ok))
                if ok and fw.is_maximal(rec.code, radius=radius).maximal:
                    maximal.append(rec.code)
        out.append(("two maximal classes", len(maximal) == len(self.MAXIMAL)))
        reference = json.loads(REFERENCE.read_text())
        for code, cid in zip(maximal, self.MAXIMAL):
            out.append(
                (f"maximal [32,{code.k}] class is {cid}", _equivalent(code, cid, reference[cid]))
            )
        return out


def _equivalent(code, cid: str, ref: dict) -> bool:
    """Whether code is equivalent to the table code cid, via a stored witness.

    ref["rows"] is the table code moved by ref["witness"], which was its
    canonical form when reference.json was made, so the check costs no
    canonical search on the table code.  When the program's canonical form
    no longer lands on those rows (its key order changed), both canonical
    forms are compared live instead.
    """
    table = fw.load_code(cid)
    rows = tuple(ref["rows"])
    if permuted_rows(table, ref["witness"]) != rows:
        return False
    mine = canonical_rows(code)
    return mine == rows or mine == canonical_rows(table)


class Extend32:
    """One a = 4 extension layer, k = 9 to 10, over 28 parents drawn by seed and batch.

    24 parents are random [32,9] subcodes containing RM(1,5) of distinct
    random C_{32,10,i} with d = 12, so none of them is maximal; 4 are table
    [32,9] codes with a = 4, which are maximal: a 14 % maximal share.
    """

    A = 4
    SUBCODES = 24
    MAXIMAL = 4
    MAX_CLASSES = 104  # the a = 4 classes at k = 10

    def setup(self, seed: int, batch: int) -> dict:
        rng = random.Random(f"{seed}:{batch}")
        fw.all_ids(32)  # the checksummed table load
        self.rm = fw.rm1_fixed(5)
        self.sources = [fw.load_code(cid) for cid in rng.sample(table_ids(10, 101), self.SUBCODES)]
        self.parents = [self._subcode(rng, src) for src in self.sources]
        self.parents += [fw.load_code(cid) for cid in rng.sample(table_ids(9, 91), self.MAXIMAL)]
        return {"extend32_seed": seed, "extend32_batch": batch, "maximal_parent_share": self.MAXIMAL / len(self.parents)}

    def _subcode(self, rng: random.Random, source):
        """A random [32,9] code between RM(1,5) and the [32,10] source."""
        while True:
            picks = []
            for _ in range(3):
                x = 0
                for row in source.row_masks:
                    if rng.getrandbits(1):
                        x ^= row
                picks.append(x)
            code = fw.LinearCode(N, self.rm.row_masks + tuple(picks))
            if code.k == 9:
                return code

    def run(self) -> None:
        self.report = fw.classify_step(self.parents, self.A)

    def checks(self) -> list[tuple[str, bool]]:
        out = [
            (
                f"parent {i}: k=9, contains RM(1,5), qualifies with a=4",
                parent.k == 9 and parent.contains(self.rm) and qualifies(parent, self.A),
            )
            for i, parent in enumerate(self.parents)
        ]
        classes = {canonical_rows(rec.code) for rec in self.report.classes}
        out.append(("classes pairwise inequivalent", len(classes) == len(self.report.classes)))
        out += [
            (f"source {i} is among the classes", canonical_rows(src) in classes)
            for i, src in enumerate(self.sources)
        ]
        out.append(
            (
                f"at most {self.MAX_CLASSES} classes at k=10",
                self.report.k == 10 and 0 < len(self.report.classes) <= self.MAX_CLASSES,
            )
        )
        return out


class Verify32:
    """verify-paper's per-code certification on 8 table codes drawn by seed and batch.

    4 codes from C_{32,9,1..90} and 4 from C_{32,10,1..101}; for each, the
    claims verify_claims(32) makes: reconstruction, conditions and
    distribution, the covering radius, maximality and the weighing-matrix
    set, plus pairwise inequivalence within each dimension.
    """

    PER_DIMENSION = 4
    RADIUS = {9: lambda r: r <= 11, 10: lambda r: r == 10}

    def setup(self, seed: int, batch: int) -> dict:
        rng = random.Random(f"{seed}:{batch}")
        fw.all_ids(32)  # the checksummed table load
        self.ids = rng.sample(table_ids(9, 90), self.PER_DIMENSION)
        self.ids += rng.sample(table_ids(10, 101), self.PER_DIMENSION)
        return {}

    def run(self) -> None:
        # The calls verify_claims(32) makes for each code, in order:
        # catalog._verify_reconstruction, _verify_family_distinct, _radii,
        # the maximality loop of _verify_scope_32, and _verify_quwm.
        self.results = []
        for cid in self.ids:
            code = fw.load_code(cid)
            check = fw.check_conditions(code)
            distribution_ok = check.ok and check.certificate.expected == code.weight_distribution()
            code.min_weight()  # the claim's detail
            key = fw.canonical_form(fw.load_code(cid)).key
            radius = fw.leader_profile(fw.load_code(cid)).radius
            maximal = fw.is_maximal(code, radius=radius).maximal
            cert = fw.check_conditions(code).certificate  # require_certificate
            quwm = fw.build_quwm_set(code, cert, source=cid)
            quwm_ok = quwm.verify().all_pass and len(quwm) == cert.qw_set_size
            self.results.append((cid, code.k, distribution_ok, key, radius, maximal, quwm_ok))

    def checks(self) -> list[tuple[str, bool]]:
        out = []
        for cid, k, distribution_ok, _, radius, maximal, quwm_ok in self.results:
            out.append((f"{cid}: reconstruction, conditions, distribution", distribution_ok))
            out.append((f"{cid}: covering radius {radius}", self.RADIUS[k](radius)))
            out.append((f"{cid}: maximal", maximal))
            out.append((f"{cid}: matrices verify", quwm_ok))
        for k in (9, 10):
            keys = [key for _, kk, _, key, *_ in self.results if kk == k]
            out.append(
                (f"[32,{k}] sample pairwise inequivalent", len(set(keys)) == len(keys) == self.PER_DIMENSION)
            )
        return out


WORKLOADS = {"classify32-a8": Classify32A8, "extend32": Extend32, "verify32": Verify32}
