"""Embedded catalog of the published classification tables, and its verifier.

Every named code is rebuilt from the fixed RM(1,m) generator matrix plus
the tabulated support vectors; reconstruction fails loudly when a
generator does not add a dimension or the minimum weight disagrees with
the table.  The [32,10] table pins only three generators per code, so the
fourth is derived once by exhaustive search over the dual (see
:func:`derive_tenth_generators`) and frozen into ``data/derived.json``;
within a group of codes sharing the same listed generators, indices are
assigned in canonical-key order.  That file also records computed
covering radii that the tables do not state.
"""

from __future__ import annotations

import hashlib
import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from fourweight._bits import support_to_mask
from fourweight.canonical import canonical_form
from fourweight.classify import _layer
from fourweight.conditions import check_conditions, reference_rm, require_certificate
from fourweight.cover import is_maximal, leader_profile, valid_extension_vectors
from fourweight.errors import InputError, IntegrityError
from fourweight.linear import LinearCode, even_weight_code, full_space
from fourweight.reedmuller import rm1
from fourweight.weighing import build_quwm_set

TABLES_SHA256 = "5dbe08961960ff95dd33b8fc33878d3969b905bd03fdc811ef506af17b5d117b"


def _read_data(name: str) -> str:
    return resources.files("fourweight").joinpath("data", name).read_text()


@lru_cache(maxsize=1)
def _tables() -> dict:
    raw = _read_data("tables.json")
    digest = hashlib.sha256(raw.encode()).hexdigest()
    if digest != TABLES_SHA256:
        raise IntegrityError(
            f"tables.json checksum mismatch: {digest} != {TABLES_SHA256}"
        )
    return json.loads(raw)


@lru_cache(maxsize=1)
def _derived() -> dict:
    try:
        return json.loads(_read_data("derived.json"))
    except FileNotFoundError:
        raise IntegrityError(
            "data/derived.json is missing; regenerate it with "
            "`fourweight derive --out src/fourweight/data/derived.json`"
        ) from None


def _vector_mask(n: int, vid: str) -> int:
    try:
        support = _tables()["vectors"][str(n)][vid]
    except KeyError:
        raise IntegrityError(f"vector {vid} is not in the tables") from None
    return support_to_mask(n, support)


_ID_RE = re.compile(r"^C_?\{?(\d+),(\d+)(?:,(\d+))?\}?$")


def parse_id(code_id: str) -> tuple[int, int, int | None]:
    m = _ID_RE.match(code_id.strip().replace(" ", ""))
    if not m:
        raise InputError(f"unknown code id format: {code_id!r}")
    n, k = int(m.group(1)), int(m.group(2))
    idx = int(m.group(3)) if m.group(3) else None
    return n, k, idx


def _add_generator(code: LinearCode, mask: int, label: str) -> LinearCode:
    bigger = code.extend(mask)
    if bigger.k != code.k + 1:
        raise IntegrityError(f"generator {label} does not add a dimension")
    return bigger


def _chain_code(n: int, generator_ids: list[str]) -> LinearCode:
    """Span of the fixed RM(1,m) plus listed generators; each must add a dimension."""
    code = reference_rm(n.bit_length() - 1)
    for vid in generator_ids:
        code = _add_generator(code, _vector_mask(n, vid), vid)
    return code


def _build_n8(k: int) -> LinearCode:
    if k == 7:
        return even_weight_code(8)
    code = reference_rm(3)
    for _ in range(k - 4):
        xs = valid_extension_vectors(code, 2)
        code = code.extend(xs[0])
    return code


@lru_cache(maxsize=512)
def load_code(code_id: str) -> LinearCode:
    """Reconstruct a named code; raises IntegrityError on any table mismatch."""
    n, k, idx = parse_id(code_id)
    tables = _tables()
    if n == 8:
        if idx is not None or f"C_{{8,{k}}}" not in tables["codes"]["8"]:
            raise InputError(f"unknown code id: {code_id!r}")
        canonical_id = f"C_{{8,{k}}}"
        entry = tables["codes"]["8"][canonical_id]
        code = _build_n8(k)
    else:
        family = tables["codes"].get(f"{n},{k}" if n == 32 else str(n))
        canonical_id = f"C_{{{n},{k},{idx}}}"
        if family is None or canonical_id not in family:
            raise InputError(f"unknown code id: {code_id!r}")
        entry = family[canonical_id]
        code = _chain_code(n, entry["generators"])
        if n == 32 and k == 10:
            tenth = _derived()["tenth_generator"].get(canonical_id)
            if tenth is None:
                raise IntegrityError(f"derived tenth generator missing for {canonical_id}")
            code = _add_generator(code, support_to_mask(n, tenth), f"derived for {canonical_id}")
    if code.k != k:
        raise IntegrityError(f"{canonical_id}: reconstructed dimension {code.k} != {k}")
    d = code.min_weight()
    if d != entry["d"]:
        raise IntegrityError(f"{canonical_id}: reconstructed min weight {d} != {entry['d']}")
    return code


def _scopes(scope: int | str) -> tuple[int, ...]:
    """The lengths a scope covers: 8, 16 or 32 (an int or its string), or 'all'."""
    if scope == "all":
        return (8, 16, 32)
    if str(scope) in ("8", "16", "32"):
        return (int(scope),)
    raise InputError(f"unknown scope {scope!r} (use 8, 16, 32 or 'all')")


_FAMILIES = {8: ("8",), 16: ("16",), 32: ("32,9", "32,10", "32,11")}


def all_ids(scope: int | str = "all") -> list[str]:
    tables = _tables()
    ids: list[str] = []
    for length in _scopes(scope):
        for fam in _FAMILIES[length]:
            ids += sorted(tables["codes"][fam], key=lambda s: parse_id(s))
    return ids


# ---------------------------------------------------------------------------
# derivation of the [32,10] tenth generators
# ---------------------------------------------------------------------------


def derive_tenth_generators(progress=None) -> dict[str, list[int]]:
    """Search the dual for the missing [32,10] generator of every table code.

    The three listed generators of each code span a [32,9] subcode E; its
    maximal qualifying one-step extensions, reduced to canonical classes,
    include every table code listed against E -- but may include more,
    since a maximal code contains many [32,9] subcodes and the table
    records one chain per code.  Globally the classes must number exactly
    102 (101 of minimum weight 12, one of 8); table codes are matched to
    classes of their own group by a deterministic bipartite matching in
    (code index, canonical key) order, and the least extension vector
    realizing the matched class is recorded per code.
    """
    tables = _tables()
    family = tables["codes"]["32,10"]
    groups: dict[tuple[str, ...], list[str]] = {}
    for cid, entry in family.items():
        groups.setdefault(tuple(entry["generators"]), []).append(cid)

    group_classes: dict[tuple[str, ...], dict[bytes, int]] = {}
    class_d: dict[bytes, int] = {}
    for gens, members in sorted(groups.items()):
        base = _chain_code(32, list(gens))
        if base.k != 9:
            raise IntegrityError(f"listed generators {gens} span dimension {base.k}, not 9")
        a = require_certificate(base).a
        # each class keeps its least realizing vector: orbit reduction keeps
        # orbit minima and the dedupe keeps the first of ascending candidates
        classes: dict[bytes, tuple[int, ...]] = {}
        for rec in _layer([(base, ())], a)[0]:
            if not valid_extension_vectors(rec.code, a):  # maximal
                classes[rec.key] = rec.provenance[-1]
                class_d.setdefault(rec.key, rec.min_weight)
        if len(classes) < len(members):
            raise IntegrityError(
                f"group {gens}: only {len(classes)} maximal extension classes "
                f"for {len(members)} table codes {members}"
            )
        group_classes[gens] = classes
        if progress:
            progress(f"{'|'.join(gens)}: {len(members)} code(s), {len(classes)} classes")

    by_d = {8: 0, 12: 0}
    for d in class_d.values():
        by_d[d] = by_d.get(d, 0) + 1
    if by_d != {8: 1, 12: 101}:
        raise IntegrityError(f"global class census {by_d} != {{8: 1, 12: 101}}")

    # Deterministic perfect matching: code -> one class of its own group.
    match: dict[bytes, str] = {}
    code_group = {cid: tuple(entry["generators"]) for cid, entry in family.items()}

    def try_assign(cid: str, seen: set[bytes]) -> bool:
        for key in sorted(group_classes[code_group[cid]]):
            if key in seen:
                continue
            seen.add(key)
            if key not in match or try_assign(match[key], seen):
                match[key] = cid
                return True
        return False

    for cid in sorted(family, key=lambda s: parse_id(s)):
        if not try_assign(cid, set()):
            raise IntegrityError(f"no class assignment possible for {cid}")
    if len(match) != 102:
        raise IntegrityError(f"matched {len(match)} of 102 codes")

    result: dict[str, list[int]] = {}
    for key, cid in match.items():
        if class_d[key] != family[cid]["d"]:
            raise IntegrityError(
                f"{cid}: matched class has min weight {class_d[key]}, "
                f"table says {family[cid]['d']}"
            )
        result[cid] = list(group_classes[code_group[cid]][key])
    return result


def derived_text() -> str:
    """The contents of data/derived.json, recomputed from the tables alone."""
    doc = {
        "comment": (
            "computed data, not table-sourced: tenth generators for the [32,10] codes "
            "(derived by dual search + canonical matching) and covering radii the "
            "tables leave unstated"
        ),
        "covering_radius_computed": {
            cid: leader_profile(load_code(cid)).radius
            for cid in ("C_{32,9,91}", "C_{32,9,92}")
        },
        "tenth_generator": derive_tenth_generators(),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# claim verification
# ---------------------------------------------------------------------------


@dataclass
class ClaimResult:
    claim: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    scope: str
    claims: list[ClaimResult] = field(default_factory=list)
    covering_radius: dict[str, int] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.claims)

    def add(self, claim: str, ok: bool, detail: str = "") -> None:
        self.claims.append(ClaimResult(claim, bool(ok), detail))

    def as_dict(self) -> dict:
        return {
            "scope": self.scope,
            "all_pass": self.all_pass,
            "claims": [
                {"claim": c.claim, "ok": c.ok, "detail": c.detail} for c in self.claims
            ],
            "computed_covering_radius": dict(sorted(self.covering_radius.items())),
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.claims:
            status = "PASS" if c.ok else "FAIL"
            lines.append(f"[{status}] {c.claim}" + (f" -- {c.detail}" if c.detail else ""))
        lines.append(
            f"{sum(c.ok for c in self.claims)}/{len(self.claims)} claims pass (scope {self.scope})"
        )
        return lines


def _radii(ids: list[str], threads: int) -> dict[str, int]:
    def one(cid: str) -> tuple[str, int]:
        return cid, leader_profile(load_code(cid)).radius

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return dict(pool.map(one, ids))


def _verify_reconstruction(report: VerificationReport, ids: list[str]) -> dict[str, LinearCode]:
    codes = {}
    for cid in ids:
        try:
            code = load_code(cid)
        except IntegrityError as exc:
            report.add(f"{cid}: reconstruction", False, str(exc))
            continue
        codes[cid] = code
        check = check_conditions(code)
        dist_ok = False
        if check.ok:
            dist_ok = check.certificate.expected == code.weight_distribution()
        report.add(
            f"{cid}: reconstruction, conditions, distribution",
            check.ok and dist_ok,
            f"k={code.k} d={code.min_weight()}"
            + ("" if check.ok else "; " + "; ".join(check.violations)),
        )
    return codes


def _verify_family_distinct(report: VerificationReport, label: str, ids, expected: int) -> None:
    keys = {cid: canonical_form(load_code(cid)).key for cid in ids}
    distinct = len(set(keys.values()))
    report.add(
        f"{label}: {expected} pairwise inequivalent classes",
        distinct == len(ids) == expected,
        f"{distinct} distinct keys among {len(ids)} codes",
    )


def _verify_quwm(report: VerificationReport, cid: str, code: LinearCode) -> None:
    cert = require_certificate(code)
    qs = build_quwm_set(code, cert, source=cid)
    ver = qs.verify()
    report.add(
        f"{cid}: {len(qs)} matrices verify for {qs.params.as_tuple()}",
        ver.all_pass and len(qs) == cert.qw_set_size,
        f"zero counts per row {ver.zero_counts_per_row}",
    )


def _verify_scope_8(report: VerificationReport, threads: int) -> None:
    ids = all_ids(8)
    codes = _verify_reconstruction(report, ids)
    rm = rm1(3)
    t_rm = full_space(8).coset_table(rm)
    report.add(
        "RM(1,3) has 7 nontrivial weight-2 cosets",
        len(t_rm.nontrivial_of_weight(2)) == 7,
        f"found {len(t_rm.nontrivial_of_weight(2))}",
    )
    c85 = codes.get("C_{8,5}")
    if c85 is not None:
        t_85 = full_space(8).coset_table(c85)
        report.add(
            "C_{8,5} has 3 nontrivial weight-2 cosets",
            len(t_85.nontrivial_of_weight(2)) == 3,
            f"found {len(t_85.nontrivial_of_weight(2))}",
        )
    for cid, code in codes.items():
        report.add(
            f"{cid}: weight set {{0,2,4,6,8}}",
            code.weight_distribution().nonzero_weights() == (0, 2, 4, 6, 8),
        )
        _verify_quwm(report, cid, code)
        report.covering_radius[cid] = leader_profile(code).radius


def _verify_scope_16(report: VerificationReport, threads: int) -> None:
    ids = all_ids(16)
    codes = _verify_reconstruction(report, ids)
    for k in (6, 7, 8):
        _verify_family_distinct(
            report, f"[16,{k}]", [i for i in ids if parse_id(i)[1] == k], 2
        )
    radii = _radii(ids, threads)
    report.covering_radius.update(radii)
    report.add(
        "C_{16,7,1} has covering radius 4",
        radii["C_{16,7,1}"] == 4,
        f"computed {radii['C_{16,7,1}']}",
    )
    for cid in ("C_{16,7,1}", "C_{16,8,1}", "C_{16,8,2}"):
        res = is_maximal(codes[cid], radius=radii[cid])
        report.add(f"{cid}: maximal", res.maximal, f"path {res.path}")
    for cid in ("C_{16,6,1}", "C_{16,6,2}"):
        res = is_maximal(codes[cid], radius=radii[cid])
        ok = not res.maximal and res.witness is not None
        if ok:
            wit = check_conditions(res.witness)
            ok = wit.ok and res.witness.k == 7
        report.add(f"{cid}: non-maximal with qualifying extension witness", ok)
    for cid in ("C_{16,8,1}", "C_{16,8,2}"):
        code = codes[cid]
        report.add(
            f"{cid}: doubly even self-dual",
            code.divisibility() in ("doubly_even", "triply_even") and code.dual() == code,
        )
    for cid, code in codes.items():
        _verify_quwm(report, cid, code)


def _verify_scope_32(report: VerificationReport, threads: int) -> None:
    ids = all_ids(32)
    codes = _verify_reconstruction(report, ids)
    report.add("all 196 length-32 codes reconstruct", len(codes) == 196, f"{len(codes)}")
    for k, expected in ((9, 92), (10, 102), (11, 2)):
        _verify_family_distinct(
            report, f"[32,{k}]", [i for i in ids if parse_id(i)[1] == k], expected
        )
    radii = _radii(ids, threads)
    report.covering_radius.update(radii)
    d12_k10 = [f"C_{{32,10,{i}}}" for i in range(1, 102)]
    report.add(
        "C_{32,10,1..101} have covering radius 10",
        all(radii[c] == 10 for c in d12_k10),
        f"radii set {sorted(set(radii[c] for c in d12_k10))}",
    )
    k11 = ["C_{32,11,1}", "C_{32,11,2}"]
    report.add(
        "C_{32,11,1..2} have covering radius 8",
        all(radii[c] == 8 for c in k11),
        f"radii {[radii[c] for c in k11]}",
    )
    d12_k9 = [f"C_{{32,9,{i}}}" for i in range(1, 91)]
    report.add(
        "C_{32,9,1..90} have covering radius <= 11",
        all(radii[c] <= 11 for c in d12_k9),
        f"max {max(radii[c] for c in d12_k9)}",
    )
    report.add(
        "C_{32,9,91}, C_{32,9,92} radii recorded (computed, not table-sourced)",
        True,
        f"{radii['C_{32,9,91}']}, {radii['C_{32,9,92}']}",
    )
    not_maximal = []
    for cid, code in codes.items():
        res = is_maximal(code, radius=radii[cid])
        if not res.maximal:
            not_maximal.append(cid)
    report.add(
        "all 196 length-32 codes are maximal",
        not not_maximal,
        f"counterexamples: {not_maximal}" if not_maximal else "",
    )
    for cid in ("C_{32,9,92}", "C_{32,10,102}"):
        report.add(f"{cid}: triply even", codes[cid].divisibility() == "triply_even")
    for cid, code in codes.items():
        _verify_quwm(report, cid, code)


def verify_claims(scope: int | str = "all", threads: int = 1) -> VerificationReport:
    """Check every reconstructable claim in the given scope (8, 16, 32 or 'all')."""
    lengths = _scopes(scope)
    if threads < 1:
        raise InputError(f"threads must be at least 1, not {threads}")
    report = VerificationReport(scope=str(scope))
    verifiers = {8: _verify_scope_8, 16: _verify_scope_16, 32: _verify_scope_32}
    for length in lengths:
        verifiers[length](report, threads)
    return report
