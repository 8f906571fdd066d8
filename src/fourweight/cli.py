"""Command-line front end.

Exit codes: 0 all checks pass, 1 a verified claim fails, 2 bad input,
3 a capacity guard refused the computation, 4 an internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from fourweight import catalog
from fourweight.canonical import are_equivalent, equivalence_witness
from fourweight.classify import classify_all
from fourweight.conditions import check_conditions
from fourweight.cover import is_maximal, leader_profile
from fourweight.errors import CapacityError, InputError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1, rm1_fixed
from fourweight.weighing import build_quwm_set, matrix_to_text

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _emit(payload: dict, args, text_lines=None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines if text_lines is not None else [json.dumps(payload)]:
            print(line)


def _load(path: str) -> LinearCode:
    return LinearCode.from_file(path)


@contextmanager
def _writing(path):
    """Yield path as a Path; an OSError while writing there is bad input (exit 2)."""
    try:
        yield Path(path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_rm(args) -> int:
    code = rm1_fixed(args.m) if args.fixed else rm1(args.m)
    sys.stdout.write(code.to_text())
    return EXIT_OK


def cmd_check(args) -> int:
    code = _load(args.code)
    result = check_conditions(code)
    payload = {
        "conditions": {"c1": result.weight_condition, "c2": result.subcode_condition},
        "violations": result.violations,
    }
    if result.certificate is not None:
        payload.update(result.certificate.as_dict())
    lines = [f"conditions: c1={result.weight_condition} c2={result.subcode_condition}"]
    lines += [f"  {v}" for v in result.violations]
    if result.certificate is not None:
        c = result.certificate
        lines.append(f"a={c.a} l={c.l} set_size={c.qw_set_size}")
        lines.append(f"distribution: {c.expected}")
    _emit(payload, args, lines)
    return EXIT_OK if result.ok else EXIT_CLAIM


def cmd_wdist(args) -> int:
    code = _load(args.code)
    dist = code.weight_distribution()
    _emit(
        {"n": code.n, "k": code.k, "distribution": dist.as_dict()},
        args,
        [f"[{code.n},{code.k}] {dist}"],
    )
    return EXIT_OK


def cmd_equiv(args) -> int:
    c1, c2 = _load(args.code_a), _load(args.code_b)
    witness = equivalence_witness(c1, c2) if (c1.n, c1.k) == (c2.n, c2.k) else None
    equivalent = witness is not None or are_equivalent(c1, c2)
    payload = {
        "equivalent": equivalent,
        "witness": [t + 1 for t in witness] if witness else None,
    }
    _emit(payload, args, [f"equivalent: {equivalent}"])
    return EXIT_OK if equivalent else EXIT_CLAIM


def cmd_covrad(args) -> int:
    profile = leader_profile(_load(args.code))
    payload = {
        "radius": profile.radius,
        "leader_weight_histogram": {str(w): c for w, c in profile.histogram().items()},
    }
    _emit(payload, args, [f"covering radius: {profile.radius}", f"histogram: {profile.histogram()}"])
    return EXIT_OK


def cmd_maximal(args) -> int:
    code = _load(args.code)
    result = check_conditions(code)
    if not result.ok:
        raise InputError("code does not satisfy the conditions: " + "; ".join(result.violations))
    res = is_maximal(code, result.certificate)
    payload = {
        "maximal": res.maximal,
        "path": res.path,
        "witness_extension": res.witness.to_text().splitlines() if res.witness else None,
    }
    _emit(payload, args, [f"maximal: {res.maximal} (path: {res.path})"])
    return EXIT_OK


def cmd_quwm(args) -> int:
    code = _load(args.code)
    rng = random.Random(args.seed) if args.randomized else None
    qs = build_quwm_set(code, rng=rng, source=args.code)
    ver = qs.verify()
    report = {
        "params": list(qs.params.as_tuple()),
        "count": len(qs),
        "pair_checks": ver.all_pass,
        "zero_count_per_row": list(ver.zero_counts_per_row),
        "source": args.code,
    }
    with _writing(args.out) as outdir:
        outdir.mkdir(parents=True, exist_ok=True)
        for i, mat in enumerate(qs.matrices, start=1):
            (outdir / f"H_{i}.txt").write_text(matrix_to_text(mat))
        (outdir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _emit(report, args, [
        f"wrote {len(qs)} matrices to {outdir}",
        f"params {qs.params.as_tuple()}, all pairs pass: {ver.all_pass}",
    ])
    return EXIT_OK if ver.all_pass else EXIT_CLAIM


def cmd_classify(args) -> int:
    reports = classify_all(args.length, allow_long=args.allow_long)
    payload = {"length": args.length, "reports": [r.as_dict() for r in reports]}
    lines = []
    for rep in reports:
        lines.append(f"[{rep.n},{rep.k}]: {len(rep.classes)} classes")
        for rec in rep.classes:
            lines.append(
                f"  d={rec.min_weight} a={rec.a} maximal={rec.maximal}"
                f" radius={rec.covering_radius}"
            )
    if args.out:
        with _writing(args.out) as outdir:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "classification.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            for rep in reports:
                for i, rec in enumerate(rep.classes, start=1):
                    (outdir / f"n{rep.n}_k{rep.k}_{i}.code").write_text(rec.code.to_text())
        lines.append(f"wrote representatives to {outdir}")
    _emit(payload, args, lines)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    report = catalog.verify_claims(args.scope, threads=args.threads)
    payload = report.as_dict()
    _emit(payload, args, report.summary_lines())
    return EXIT_OK if report.all_pass else EXIT_CLAIM


def cmd_dump(args) -> int:
    code = catalog.load_code(args.id)
    if args.out:
        with _writing(args.out):
            code.save(args.out)
    else:
        sys.stdout.write(code.to_text())
    return EXIT_OK


def cmd_derive(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise InputError(f"cannot write {out}: give a file path in an existing directory")
    text = catalog.derived_text()
    with _writing(out):
        out.write_text(text)
    _emit({"out": str(out)}, args, [f"wrote {out}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourweight",
        description="Four-weight binary codes and mutually quasi-unbiased weighing matrices.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized choices")
    parser.add_argument("--threads", type=int, default=1, help="worker cap for batch checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rm", help="emit RM(1,m) in the code text format")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--fixed", action="store_true", help="use the fixed generator matrix")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("check", help="check the two code conditions")
    p.add_argument("code")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("wdist", help="exact weight distribution")
    p.add_argument("code")
    p.set_defaults(func=cmd_wdist)

    p = sub.add_parser("equiv", help="decide permutation equivalence of two codes")
    p.add_argument("code_a")
    p.add_argument("code_b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("covrad", help="covering radius via coset-leader sweep")
    p.add_argument("code")
    p.set_defaults(func=cmd_covrad)

    p = sub.add_parser("maximal", help="maximality of a qualifying code")
    p.add_argument("code")
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("quwm", help="build and verify the weighing-matrix set of a code")
    p.add_argument("--code", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--randomized", action="store_true", help="random antipodal choices (uses --seed)")
    p.set_defaults(func=cmd_quwm)

    p = sub.add_parser("classify", help="classify qualifying codes at a length")
    p.add_argument("--length", type=int, required=True, choices=(8, 16, 32))
    p.add_argument("--allow-long", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-paper", help="verify the published-table claims")
    p.add_argument("--scope", default="all", help="8, 16, 32 or all")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("derive", help="recompute data/derived.json from the tables")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("dump", help="emit a catalog code by id")
    p.add_argument("--id", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
