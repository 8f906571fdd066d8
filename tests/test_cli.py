import json

import pytest

jsonschema = pytest.importorskip("jsonschema")

from importlib import resources

from fourweight.catalog import load_code
from fourweight.cli import main
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1_fixed


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


def test_check_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("not a code\n")
    status, _, err = run_cli(capsys, "check", str(bad))
    assert status == 2 and "error" in err


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
    status, out, _ = run_cli(capsys, "--format", "json", "equiv", p1, p2)
    assert status == 1
    payload = json.loads(out)
    assert payload == {"equivalent": False, "witness": None}


def test_covrad(capsys, code_file):
    path = code_file("C_{16,7,1}")
    status, out, _ = run_cli(capsys, "--format", "json", "covrad", path)
    assert status == 0
    payload = json.loads(out)
    validate(payload, "covrad")
    assert payload["radius"] == 4


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
    from fourweight.weighing import matrix_from_text, verify_weighing

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


@pytest.mark.parametrize(
    "argv",
    [
        ("--threads", "0", "verify-paper", "--scope", "16"),
        ("--threads", "-3", "verify-paper", "--scope", "8"),
        ("verify-paper", "--scope", "12"),
    ],
)
def test_verify_paper_bad_input_exits_2(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err.startswith("error:")


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
