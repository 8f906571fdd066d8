import contextlib
import io
import json
import math
import tempfile
from functools import reduce
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from importlib import resources

from fourweight._bits import SPAN_GUARD, support_to_mask
from fourweight.canonical import DIM_GUARD, apply_permutation
from fourweight.catalog import load_code
from fourweight.cli import main
from fourweight.conditions import reference_rm
from fourweight.cover import SYNDROME_GUARD
from fourweight.errors import InputError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1, rm1_fixed


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(payload, schema_name):
    schema = json.loads(
        resources.files("fourweight").joinpath("schemas", f"{schema_name}.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)


@pytest.fixture()
def code_file(tmp_path):
    def write(cid_or_code, name="code.code"):
        path = tmp_path / name
        code = load_code(cid_or_code) if isinstance(cid_or_code, str) else cid_or_code
        code.save(path)
        return str(path)

    return write


def test_rm_command(capsys):
    status, out, _ = run_cli(capsys, "rm", "--m", "4", "--fixed")
    assert status == 0
    assert out.splitlines()[0] == "16 5"
    assert LinearCode.from_text(out) == rm1_fixed(4)
    # at m = 3 the fixed coordinates are the recursive code's
    status, fixed, _ = run_cli(capsys, "rm", "--m", "3", "--fixed")
    assert status == 0
    assert run_cli(capsys, "rm", "--m", "3") == (0, fixed, "")


def test_check_pass(capsys, code_file):
    path = code_file("C_{16,6,1}")
    status, out, _ = run_cli(capsys, "--format", "json", "check", path)
    assert status == 0
    payload = json.loads(out)
    validate(payload, "check")
    assert payload["a"] == 2 and payload["l"] == 16 and payload["set_size"] == 2
    assert payload["conditions"] == {"c1": True, "c2": True}


def test_check_fails_on_rm(capsys, code_file):
    path = code_file(rm1_fixed(4))
    status, out, _ = run_cli(capsys, "--format", "json", "check", path)
    assert status == 1
    payload = json.loads(out)
    validate(payload, "check")
    assert not payload["conditions"]["c1"]
    assert any("weight set" in v for v in payload["violations"])


def test_check_reports_offset_not_dividing(capsys, code_file):
    # 1, x = coordinates 1-5 and y = 2-9 span weights {0, 5, 8, 11, 16}: a = 3
    rows = [2**16 - 1, support_to_mask(16, range(1, 6)), support_to_mask(16, range(2, 10))]
    status, out, _ = run_cli(capsys, "--format", "json", "check", code_file(LinearCode(16, rows)))
    assert status == 1
    payload = json.loads(out)
    validate(payload, "check")
    assert payload["conditions"] == {"c1": False, "c2": False}
    assert payload["violations"] == [
        "condition (1): weight set {0, 5, 8, 11, 16} needs a=3, not a divisor of 2^3",
        "condition (2): the reference RM(1,4) is not a subcode",
    ]


def test_check_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("not a code\n")
    status, _, err = run_cli(capsys, "check", str(bad))
    assert status == 2 and "error" in err


def test_check_header_not_integers(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("8 four\n11111111\n")
    status, out, err = run_cli(capsys, "check", str(bad))
    assert status == 2 and out == "" and "expected integers" in err


def test_check_directory_path(capsys, tmp_path):
    status, out, err = run_cli(capsys, "check", str(tmp_path))
    assert status == 2 and out == "" and "cannot read" in err


def test_row_wider_than_length_is_input_error():
    # an InputError, which main reports with exit 2
    with pytest.raises(InputError, match="does not fit"):
        LinearCode(4, [16])


def test_wdist(capsys, code_file):
    path = code_file("C_{16,6,2}")
    status, out, _ = run_cli(capsys, "--format", "json", "wdist", path)
    assert status == 0
    payload = json.loads(out)
    validate(payload, "wdist")
    assert payload["distribution"] == {"0": 1, "4": 4, "8": 54, "12": 4, "16": 1}


def test_wdist_rejects_length_128(capsys, tmp_path):
    path = tmp_path / "long.code"
    path.write_text("128 1\n" + "1" * 128 + "\n")
    status, _, err = run_cli(capsys, "wdist", str(path))
    assert status == 2 and "error" in err


def test_internal_error_exits_4(capsys, code_file, monkeypatch):
    def broken(self):
        raise RuntimeError("boom")

    path = code_file("C_{8,5}")  # built before the patch: load_code needs the distribution
    monkeypatch.setattr(LinearCode, "weight_distribution", broken)
    status, out, err = run_cli(capsys, "wdist", path)
    assert status == 4 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_equiv_and_witness(capsys, code_file, rng):
    from fourweight.canonical import apply_permutation
    from conftest import random_permutation

    code = load_code("C_{16,6,1}")
    image = apply_permutation(code, random_permutation(rng, 16))
    p1, p2 = code_file(code, "a.code"), code_file(image, "b.code")
    status, out, _ = run_cli(capsys, "--format", "json", "equiv", p1, p2)
    assert status == 0
    payload = json.loads(out)
    validate(payload, "equiv")
    assert payload["equivalent"] and sorted(payload["witness"]) == list(range(1, 17))


def test_equiv_negative(capsys, code_file):
    p1 = code_file("C_{16,6,1}", "a.code")
    p2 = code_file("C_{16,6,2}", "b.code")
    p3 = code_file("C_{8,5}", "c.code")
    for pair in ((p1, p2), (p1, p3)):
        status, out, _ = run_cli(capsys, "--format", "json", "equiv", *pair)
        assert status == 1
        payload = json.loads(out)
        assert payload == {"equivalent": False, "witness": None}


def test_equiv_zero_dimensional_codes(capsys, code_file):
    p1, p2 = code_file(LinearCode(16), "a.code"), code_file(LinearCode(16), "b.code")
    status, out, _ = run_cli(capsys, "--format", "json", "equiv", p1, p2)
    assert status == 0
    payload = json.loads(out)
    validate(payload, "equiv")
    assert payload == {"equivalent": True, "witness": list(range(1, 17))}


def test_equiv_beyond_dimension_guard_exits_3(capsys, code_file):
    # equal weight distributions, so the canonical form is asked for and refuses
    code = LinearCode(32, [1 << i for i in range(DIM_GUARD + 1)])
    p1, p2 = code_file(code, "a.code"), code_file(code, "b.code")
    status, out, err = run_cli(capsys, "equiv", p1, p2)
    assert status == 3 and out == ""
    assert err == f"capacity: canonical form guarded to k <= {DIM_GUARD}\n"


def test_covrad(capsys, code_file):
    path = code_file("C_{16,7,1}")
    status, out, _ = run_cli(capsys, "--format", "json", "covrad", path)
    assert status == 0
    payload = json.loads(out)
    validate(payload, "covrad")
    assert payload["radius"] == 4


def test_covrad_sweeps_the_even_all_ones_code_of_length_28(capsys, code_file):
    # the guard bounds the table swept: 2^26 syndromes of the punctured
    # [27,1] code; the leader of a coset {y, y + 1} has weight min(wt y, 28 - wt y)
    status, out, err = run_cli(capsys, "--format", "json", "covrad", code_file(LinearCode(28, [(1 << 28) - 1])))
    assert status == 0 and err == ""
    payload = json.loads(out)
    validate(payload, "covrad")
    assert payload["radius"] == 14
    expect = {w: math.comb(28, w) for w in range(14)} | {14: math.comb(28, 14) // 2}
    assert payload["leader_weight_histogram"] == {str(w): c for w, c in expect.items()}
    # an odd [28,1] code is swept whole: 2^27 syndromes exceed the guard
    status, out, err = run_cli(capsys, "covrad", code_file(LinearCode(28, [1])))
    assert status == 3 and out == "" and err.startswith(f"capacity: syndrome table 2^27 exceeds guard 2^{SYNDROME_GUARD}")


def test_maximal(capsys, code_file):
    path = code_file("C_{16,6,1}")
    status, out, _ = run_cli(capsys, "--format", "json", "maximal", path)
    assert status == 0
    payload = json.loads(out)
    validate(payload, "maximal")
    assert payload["maximal"] is False
    assert payload["witness_extension"] is not None


def test_maximal_rejects_nonqualifying(capsys, code_file):
    path = code_file(rm1_fixed(4))
    status, _, err = run_cli(capsys, "maximal", path)
    assert status == 2


def test_maximal_beyond_span_guard_exits_3(capsys, code_file):
    # RM(1,6) plus the product of two of its rows has weights {16, 32, 48},
    # a = 16: 2^56 syndromes leave no radius, and C-perp/C has 2^48 cosets
    rm = rm1(6)
    code = rm.extend(rm.row_masks[1] & rm.row_masks[2])
    assert code.n - 2 * code.k == 48 > SPAN_GUARD
    status, out, err = run_cli(capsys, "maximal", code_file(code))
    assert status == 3 and out == "" and err.startswith("capacity: span enumeration of 2^48")


@pytest.mark.parametrize(
    "code, c2",
    [
        (LinearCode(1), False),
        (LinearCode(1, [1]), True),  # F_2^1 is RM(1,0)
        (LinearCode(2, [0b11]), False),
        (LinearCode(2, [0b01, 0b10]), True),
    ],
)
def test_lengths_1_and_2_fail_the_conditions(capsys, code_file, tmp_path, code, c2):
    path = code_file(code)
    status, out, _ = run_cli(capsys, "--format", "json", "check", path)
    assert status == 1
    payload = json.loads(out)
    validate(payload, "check")
    assert payload["conditions"] == {"c1": False, "c2": c2}
    assert len(payload["violations"]) == 1 + (not c2)
    assert "weight set" in payload["violations"][0]
    for argv in (("maximal", path), ("quwm", "--code", path, "--out", str(tmp_path / "q"))):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and out == ""
        assert err.startswith("error: code does not satisfy the conditions: condition (1)")
    assert not (tmp_path / "q").exists()


def test_quwm_writes_matrices(capsys, code_file, tmp_path):
    path = code_file("C_{16,8,1}")
    outdir = tmp_path / "quwm"
    status, out, _ = run_cli(capsys, "--format", "json", "quwm", "--code", path, "--out", str(outdir))
    assert status == 0
    payload = json.loads(out)
    validate(payload, "quwm_report")
    assert payload["params"] == [16, 16, 4, 64]
    assert payload["count"] == 8 and payload["pair_checks"]
    files = sorted(p.name for p in outdir.iterdir())
    assert files == sorted([f"H_{i}.txt" for i in range(1, 9)] + ["report.json"])
    from fourweight.weighing import verify_weighing

    from conftest import matrix_from_text

    h1 = matrix_from_text((outdir / "H_1.txt").read_text())
    assert verify_weighing(h1, 16)


def test_quwm_idempotent_outputs(capsys, code_file, tmp_path):
    path = code_file("C_{8,5}")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_cli(capsys, "quwm", "--code", path, "--out", str(out1))
    run_cli(capsys, "quwm", "--code", path, "--out", str(out2))
    for name in ("H_1.txt", "H_2.txt", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_quwm_out_is_existing_file(capsys, code_file, tmp_path):
    path = code_file("C_{8,5}")
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")
    status, out, err = run_cli(capsys, "quwm", "--code", path, "--out", str(taken))
    assert status == 2 and out == "" and err.startswith("error: cannot write")
    assert taken.read_text() == "keep\n"


def test_classify8(capsys, tmp_path):
    outdir = tmp_path / "cls"
    status, out, _ = run_cli(
        capsys, "--format", "json", "classify", "--length", "8", "--out", str(outdir)
    )
    assert status == 0
    payload = json.loads(out)
    validate(payload, "classify")
    assert [r["num_classes"] for r in payload["reports"]] == [1, 1, 1]
    assert (outdir / "classification.json").exists()
    assert (outdir / "n8_k5_1.code").exists()


def test_classify_outputs_idempotent(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "classify", "--length", "8", "--out", str(out1))
    run_cli(capsys, "classify", "--length", "8", "--out", str(out2))
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_classify_out_is_existing_file(capsys, tmp_path):
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")
    status, out, err = run_cli(capsys, "classify", "--length", "8", "--out", str(taken))
    assert status == 2 and out == "" and err.startswith("error: cannot write")


def test_classify32_refused_without_flag(capsys):
    status, _, err = run_cli(capsys, "classify", "--length", "32")
    assert status == 3 and "capacity" in err


def test_verify_paper_scope8(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "verify-paper", "--scope", "8")
    assert status == 0
    payload = json.loads(out)
    validate(payload, "verify_paper")
    assert payload["all_pass"]


def test_verify_paper_bad_input_exits_2(capsys):
    status, out, err = run_cli(capsys, "verify-paper", "--scope", "12")
    assert status == 2 and out == "" and err.startswith("error:")


def test_verify_paper_has_no_threads_flag(capsys):
    # verify-paper runs in the calling thread; argparse refuses the old flag
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "verify-paper", "--scope", "8"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_dump(capsys):
    status, out, _ = run_cli(capsys, "dump", "--id", "C_{16,6,1}")
    assert status == 0
    assert LinearCode.from_text(out) == load_code("C_{16,6,1}")


def test_dump_unknown(capsys):
    status, _, err = run_cli(capsys, "dump", "--id", "C_{16,9,9}")
    assert status == 2


def test_dump_out_in_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "x.code"
    status, out, err = run_cli(capsys, "dump", "--id", "C_{16,8,1}", "--out", str(target))
    assert status == 2 and out == "" and err.startswith("error: cannot write")
    assert not target.parent.exists()


def test_derive_reproduces_committed_fixture(capsys, tmp_path):
    out = tmp_path / "derived.json"
    status, stdout, _ = run_cli(capsys, "--format", "json", "derive", "--out", str(out))
    assert status == 0
    payload = json.loads(stdout)
    validate(payload, "derive")
    assert payload["out"] == str(out)
    committed = resources.files("fourweight").joinpath("data", "derived.json").read_text()
    assert out.read_text() == committed


def test_derive_bad_path(capsys, tmp_path):
    for bad in (tmp_path, tmp_path / "missing" / "derived.json"):
        status, _, err = run_cli(capsys, "derive", "--out", str(bad))
        assert status == 2 and "cannot write" in err


def test_missing_derived_fixture_names_the_command(monkeypatch):
    from fourweight import catalog
    from fourweight.errors import IntegrityError

    def missing(name):
        raise FileNotFoundError(name)

    monkeypatch.setattr(catalog, "_read_data", missing)
    catalog._derived.cache_clear()
    try:
        with pytest.raises(IntegrityError, match="fourweight derive --out"):
            catalog._derived()
    finally:
        catalog._derived.cache_clear()


def _rows(n, max_size):
    return st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=max_size)


def _rm_plus_rows(m):
    """RM(1,m) plus up to 4 rows, each random or a sum of products of two RM(1,m) words.

    A product of two affine functions is quadratic, and RM(1,m) plus a
    quadratic form has at most three weights, so these codes often qualify.
    """
    rm = reference_rm(m).row_masks
    product = st.tuples(st.sampled_from(rm), st.sampled_from(rm)).map(lambda p: p[0] & p[1])
    quadratic = st.lists(product, min_size=1, max_size=3).map(lambda ps: reduce(xor, ps))
    row = quadratic | st.integers(min_value=0, max_value=(1 << (1 << m)) - 1)
    return st.lists(row, max_size=4).map(lambda rows: LinearCode(1 << m, [*rm, *rows]))


_random_codes = st.integers(min_value=1, max_value=32).flatmap(
    lambda n: _rows(n, 8).map(lambda rows: LinearCode(n, rows))
)
_rm_codes = st.integers(min_value=0, max_value=5).flatmap(_rm_plus_rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(code=_random_codes | _rm_codes, fmt=st.sampled_from(("text", "json")), shuffle=st.randoms())
def test_exit_contract_on_random_codes(code, fmt, shuffle):
    # every command ends in 0 pass, 1 claim failed, 2 bad input or 3
    # capacity; 4 (an internal error) is never an answer
    order = list(range(code.n))
    shuffle.shuffle(order)
    with tempfile.TemporaryDirectory() as tmp:
        path, image = Path(tmp) / "a.code", Path(tmp) / "b.code"
        code.save(path)
        apply_permutation(code, order).save(image)
        for argv in (
            ["check", str(path)],
            ["wdist", str(path)],
            ["covrad", str(path)],
            ["maximal", str(path)],
            ["equiv", str(path), str(image)],
            ["quwm", "--code", str(path), "--out", str(Path(tmp) / "out")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main(["--format", fmt, *argv])
            assert status in (0, 1, 2, 3), (code.to_text(), argv, err.getvalue())
