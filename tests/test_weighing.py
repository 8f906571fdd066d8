import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from fourweight.catalog import all_ids, load_code
from fourweight.conditions import check_conditions, reference_rm, require_certificate
from fourweight.errors import InputError
from fourweight.linear import LinearCode
from fourweight.reedmuller import rm1, rm1_fixed
from fourweight.weighing import (
    QuwmParams,
    QuwmSet,
    QuwmVerification,
    _rm_cosets,
    antipodal_split,
    build_quwm_set,
    matrix_to_text,
    psi,
    verify_quasi_unbiased,
    verify_weighing,
)

from conftest import fresh_stdout, matrix_from_text
from oracles import coset_reps_reference


def test_psi_constants():
    assert psi(0b0000, 4).tolist() == [1, 1, 1, 1]
    assert psi(0b1111, 4).tolist() == [-1, -1, -1, -1]
    assert psi(0b10, 2).tolist() == [-1, 1]
    assert psi(np.array([0b10, 0b01], dtype=np.uint64), 2).tolist() == [[-1, 1], [1, -1]]


def psi_inverse(row: np.ndarray) -> int:
    """The n-bit word whose psi image is the sign row."""
    bad = [e for e in row if e not in (-1, 1)]
    if bad:
        raise InputError(f"entry {bad[0]} is not a sign")
    return sum(1 << i for i, e in enumerate(reversed(row)) if e == -1)


def test_psi_inverse_roundtrip():
    v = 0b0110100
    assert psi_inverse(psi(v, 7)) == v
    with pytest.raises(InputError):
        psi_inverse(np.array([1, 0, -1]))


def test_psi_inner_product_identity_exhaustive_n8():
    images = psi(np.arange(256), 8).astype(np.int64)
    gram = images @ images.T
    for x in range(256):
        for y in range(256):
            assert gram[x, y] == 8 - 2 * ((x ^ y).bit_count())


def test_psi_inner_product_identity_random_n32(rng):
    xs = [rng.getrandbits(32) for _ in range(10_000)]
    ys = [rng.getrandbits(32) for _ in range(10_000)]
    px = psi(np.array(xs, dtype=np.uint64), 32).astype(np.int64)
    py = psi(np.array(ys, dtype=np.uint64), 32).astype(np.int64)
    dots = (px * py).sum(axis=1)
    wts = np.array([(x ^ y).bit_count() for x, y in zip(xs, ys)])
    assert (dots == 32 - 2 * wts).all()


def test_antipodal_split_rm13():
    coset = [int(w) for w in rm1(3).words()]
    chosen = antipodal_split(coset, 8)
    assert len(chosen) == 8
    assert all(not v >> 7 for v in chosen)  # coordinate 1 is 0
    assert chosen == sorted(chosen)


def test_antipodal_split_pair():
    chosen = antipodal_split([0b0000, 0b1111], 4)
    assert chosen == [0b0000]


def test_antipodal_split_rejects_open_coset():
    with pytest.raises(InputError):
        antipodal_split([0b0001, 0b1111], 4)


@pytest.mark.parametrize(
    "coset, n",
    [
        ([], 4),
        ([0b10000, 0b01111], 4),  # a vector wider than n bits
        ([-1, 0], 4),
        ([0, (1 << 65) - 1], 65),  # n > 64
        ([0, 0b1111, 0], 4),  # a repeated vector
        (np.array([], dtype=np.uint64), 4),
    ],
)
def test_antipodal_split_rejects_bad_input(coset, n):
    with pytest.raises(InputError):
        antipodal_split(coset, n)


def test_antipodal_split_accepts_numpy_arrays():
    words = [int(w) for w in rm1(3).words()]
    assert antipodal_split(np.array(words, dtype=np.uint64), 8) == antipodal_split(words, 8)
    assert antipodal_split(np.array([0, 255], dtype=np.uint64), 8) == [0]


def test_antipodal_split_randomized_one_per_pair(rng):
    coset = [int(w) for w in rm1(3).words()]
    chosen = antipodal_split(coset, 8, rng=random.Random(7))
    assert len(chosen) == 8
    for v in chosen:
        assert v ^ 0xFF not in chosen


def test_verify_weighing_examples():
    assert verify_weighing(np.array([[1, 1], [1, -1]]), 2)
    assert verify_weighing(np.eye(5, dtype=int), 1)
    assert not verify_weighing(np.ones((2, 2), dtype=int), 2)
    assert not verify_weighing(np.array([[2, 0], [0, 2]]), 1)


def test_verify_weighing_rejects_non_integer_entries():
    h4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert verify_weighing(np.eye(4), 1) and verify_weighing(1.0 * h4, 4)
    assert not verify_weighing(1.5 * np.eye(4), 1)
    assert not verify_weighing(1.2 * h4, 4)
    for x in (np.nan, np.inf):
        w = np.eye(4)
        w[3, 3] = x
        assert not verify_weighing(w, 1)


def test_quwm_params_consistency():
    QuwmParams(16, 16, 4, 64)
    with pytest.raises(InputError):
        QuwmParams(16, 16, 5, 64)


def test_self_pair_verifies_weight_one_params():
    h = np.array([[1, 1], [1, -1]])
    # H H^T = n I is sqrt(n^2) * I: the self pair is quasi-unbiased only
    # for (n, n, 1, n^2); the naive (n, n, n, n) guess fails
    assert verify_quasi_unbiased(h, h, QuwmParams(2, 2, 1, 4))
    assert not verify_quasi_unbiased(h, h, QuwmParams(2, 2, 2, 2))
    # same for the negated partner: mismatched params stay rejected
    assert verify_quasi_unbiased(h, -h, QuwmParams(2, 2, 1, 4))
    assert not verify_quasi_unbiased(h, -h, QuwmParams(2, 2, 2, 2))


def test_build_quwm_set_c85(n8_codes):
    qs = build_quwm_set(n8_codes["C_{8,5}"])
    assert len(qs) == 2
    assert qs.params.as_tuple() == (8, 8, 4, 16)
    ver = qs.verify()
    assert ver.all_pass
    assert ver.zero_counts_per_row == (4,)  # n - l zeros per product row


def test_build_quwm_set_c1681(n16_codes):
    cert = require_certificate(n16_codes["C_{16,8,1}"])
    qs = build_quwm_set(n16_codes["C_{16,8,1}"], cert, source="C_{16,8,1}")
    assert len(qs) == 8
    assert qs.params.as_tuple() == (16, 16, 4, 64)
    assert qs.verify().all_pass


def test_hadamard_rows_and_determinism(n8_codes):
    qs1 = build_quwm_set(n8_codes["C_{8,6}"])
    qs2 = build_quwm_set(n8_codes["C_{8,6}"])
    assert all((a == b).all() for a, b in zip(qs1.matrices, qs2.matrices))
    n = qs1.params.n
    for h in qs1.matrices:
        assert (h @ h.T == n * np.eye(n, dtype=np.int64)).all()


def test_randomized_split_still_verifies(n16_codes, rng):
    qs = build_quwm_set(n16_codes["C_{16,7,1}"], rng=random.Random(rng.getrandbits(32)))
    assert qs.params.as_tuple() == (16, 16, 16, 16)
    assert len(qs) == 4
    assert qs.verify().all_pass


def test_rejects_unqualified_code(n16_codes):
    with pytest.raises(InputError):
        build_quwm_set(rm1(4))
    # given another code's certificate: the all-ones code lacks the reference RM(1,4)
    cert = require_certificate(n16_codes["C_{16,8,1}"])
    with pytest.raises(InputError):
        build_quwm_set(LinearCode(16, [2**16 - 1]), cert)


def test_matrix_text_roundtrip():
    w = np.array([[1, -1, 0], [0, 1, 1], [-1, 0, 1]])
    assert (matrix_from_text(matrix_to_text(w)) == w).all()
    with pytest.raises(InputError):
        matrix_from_text("1 2\n0 1")


# sha256, over all catalog codes in all_ids() order, of the dtype, shape and
# bytes of every matrix build_quwm_set returns: deterministic, and with
# rng=random.Random(11) per code.  First computed with the per-vector
# construction (psi of each antipodal_split vector, one coset at a time) that
# the array build replaced; renewed when the derived [32,10] tenth generators
# were permuted within their groups, each group's per-code digests unchanged
# as a multiset.
QUWM_SHA256 = "31e482f5feaf5b3a37eb926587096996962edd77a8e85ba34914c6b730aee7af"
QUWM_RNG11_SHA256 = "a92000244afaba08bab631a38df6fece768a4582f22e5d6f4d8c68b2c28f674e"


def split_oracle(coset, n, rng=None):
    """The per-pair loop antipodal_split used before the array split."""
    ones = (1 << n) - 1
    picked = []
    for v in sorted(coset):
        if rng is None:
            if not (v >> (n - 1)) & 1:
                picked.append(v)
        elif v < v ^ ones:
            picked.append(v if rng.random() < 0.5 else v ^ ones)
    return sorted(picked)


def hadamard_oracle(w_matrix, weight):
    """verify_weighing as it was before the batched checks: int64 throughout."""
    w = np.asarray(w_matrix, dtype=np.int64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return False
    if not np.isin(w, (-1, 0, 1)).all():
        return False
    nz = w != 0
    if not (nz.sum(axis=1) == weight).all() or not (nz.sum(axis=0) == weight).all():
        return False
    n = w.shape[0]
    return bool((w @ w.T == weight * np.eye(n, dtype=np.int64)).all())


def _quasi_unbiased_report(w1, w2, params):
    """One pair in int64, as QuwmSet.verify checked it before the batched products."""
    a1 = np.asarray(w1, dtype=np.int64)
    a2 = np.asarray(w2, dtype=np.int64)
    n = params.n
    if a1.shape != (n, n) or a2.shape != (n, n):
        raise InputError(f"matrices must both have order {n}")
    prod = a1 @ a2.T
    sq = prod * prod
    bad = np.argwhere((sq != 0) & (sq != params.a))
    if bad.size:
        i, j = map(int, bad[0])
        return {"ok": False, "bad_entry": (i, j, int(prod[i, j])), "zero_counts": None}
    nz = prod != 0
    counts_ok = (nz.sum(axis=1) == params.l).all() and (nz.sum(axis=0) == params.l).all()
    gram_ok = (prod @ prod.T == params.a * params.l * np.eye(n, dtype=np.int64)).all()
    zero_counts = sorted(set(int(c) for c in (~nz).sum(axis=1)))
    return {
        "ok": bool(counts_ok and gram_ok),
        "bad_entry": None,
        "zero_counts": zero_counts,
    }


def verify_oracle(qs):
    """QuwmSet.verify as it was: one Hadamard check per matrix, one report per pair."""
    hadamard_ok = tuple(hadamard_oracle(h, qs.params.n) for h in qs.matrices)
    failed = []
    zero_counts = set()
    for i in range(len(qs.matrices)):
        for j in range(i + 1, len(qs.matrices)):
            rep = _quasi_unbiased_report(qs.matrices[i], qs.matrices[j], qs.params)
            if not rep["ok"]:
                failed.append((i, j))
            else:
                zero_counts.update(rep["zero_counts"])
    return QuwmVerification(
        all_pass=all(hadamard_ok) and not failed,
        hadamard_ok=hadamard_ok,
        failed_pairs=tuple(failed),
        zero_counts_per_row=tuple(sorted(zero_counts)),
    )


@pytest.fixture(scope="module")
def catalog_sets():
    return {cid: build_quwm_set(load_code(cid)) for cid in all_ids()}


def _matrices_digest(sets):
    digest = hashlib.sha256()
    for qs in sets:
        for h in qs.matrices:
            digest.update(f"{h.dtype.str}{h.shape}".encode() + h.tobytes())
    return digest.hexdigest()


def test_build_quwm_set_catalog_digest(catalog_sets):
    assert len(catalog_sets) == 205
    assert _matrices_digest(catalog_sets.values()) == QUWM_SHA256
    rng_sets = (build_quwm_set(load_code(cid), rng=random.Random(11)) for cid in all_ids())
    assert _matrices_digest(rng_sets) == QUWM_RNG11_SHA256


def test_coset_order_matches_loop_oracle(catalog_sets, a8_chain):
    sets = [(load_code(cid), qs) for cid, qs in catalog_sets.items()]
    sets += [(code, build_quwm_set(code)) for code in a8_chain[1:]]  # RM(1,5) has no offset a
    # in a qualifying code every nontrivial coset has least weight n/2 - a; this
    # one's cosets have least weights 1, 2, 3 with least words 2^15, 3, 2^15 + 3
    mixed = rm1_fixed(4).extend(1 << 15).extend(0b11)
    for code, qs in sets + [(mixed, None)]:
        n = code.n
        rm = reference_rm(n.bit_length() - 1)
        reps = np.array(coset_reps_reference(code, rm), dtype=np.uint64)
        cosets = np.sort(reps[:, None] ^ rm.words(), axis=1)
        assert np.array_equal(_rm_cosets(code, rm), cosets), code
        if qs is not None:
            assert np.array_equal(np.array(qs.matrices), psi(cosets[:, : cosets.shape[1] // 2], n)), code


def _foreign_certificate_outcomes(ids):
    """Per ordered pair of distinct ids: what build_quwm_set does with the first code under the second's certificate."""
    out = {}
    for cid in ids:
        for other in ids:
            if other != cid:
                try:
                    build_quwm_set(load_code(cid), require_certificate(load_code(other)))
                    out[cid, other] = "built"
                except InputError:
                    out[cid, other] = "InputError"
    return out


# C_{16,8,1} and C_{16,8,2} share (n, k, a), so their certificates are equal
# as values: each is the other's own certificate
SHARED_CERTIFICATES = {("C_{16,8,1}", "C_{16,8,2}"), ("C_{16,8,2}", "C_{16,8,1}")}


def test_foreign_certificates_refused():
    ids = all_ids(8) + all_ids(16)
    outcomes = _foreign_certificate_outcomes(ids)
    assert len(outcomes) == 72
    # among them both cases that a trusted certificate let through: a short
    # set (C_{16,6,1} under C_{16,8,1}'s) and a wrong offset (C_{16,7,2} under C_{16,7,1}'s)
    assert outcomes["C_{16,6,1}", "C_{16,8,1}"] == outcomes["C_{16,7,2}", "C_{16,7,1}"] == "InputError"
    assert {pair for pair, got in outcomes.items() if got == "built"} == SHARED_CERTIFICATES
    for cid, other in SHARED_CERTIFICATES:
        shared = build_quwm_set(load_code(cid), require_certificate(load_code(other)))
        assert _matrices_digest([shared]) == _matrices_digest([build_quwm_set(load_code(cid))])


def test_foreign_certificates_refused_under_optimize():
    # the refusal is no assert, so python -O keeps it
    code = (
        "import json\n"
        "from fourweight.catalog import all_ids\n"
        "from test_weighing import _foreign_certificate_outcomes\n"
        "assert not __debug__\n"
        "outcomes = _foreign_certificate_outcomes(all_ids(8) + all_ids(16))\n"
        "print(json.dumps(sorted(pair for pair, got in outcomes.items() if got == 'built')))\n"
    )
    assert {tuple(pair) for pair in json.loads(fresh_stdout(code, "-O"))} == SHARED_CERTIFICATES


def test_own_certificate_accepted():
    for cid in all_ids(8) + all_ids(16):
        code = load_code(cid)
        qs = build_quwm_set(code, check_conditions(code).certificate, source=cid)  # as perfbench passes it
        assert _matrices_digest([qs]) == _matrices_digest([build_quwm_set(code)])


def test_antipodal_split_matches_loop_oracle(rng):
    for n in (4, 8, 16, 32):
        ones = (1 << n) - 1
        for _ in range(20):
            low = rng.sample(range(1 << (n - 1)), min(6, 1 << (n - 2)))
            coset = low + [v ^ ones for v in low]
            rng.shuffle(coset)
            seed = rng.getrandbits(32)
            assert antipodal_split(coset, n) == split_oracle(coset, n)
            got = antipodal_split(coset, n, random.Random(seed))
            assert got == split_oracle(coset, n, random.Random(seed))


def test_verify_matches_oracle_on_catalog(catalog_sets):
    for cid, qs in catalog_sets.items():
        ver = qs.verify()
        assert ver == verify_oracle(qs), cid
        assert ver.all_pass, cid


def _mutants(qs, rng):
    """(name, matrix index, mutated set) for one random position per kind."""
    s, n = len(qs), qs.params.n
    i, r, c = rng.randrange(s), rng.randrange(n), rng.randrange(n)
    out = []
    for name, value in (("flip", None), ("zero", 0), ("two", 2)):
        mats = [h.copy() for h in qs.matrices]
        mats[i][r, c] = -mats[i][r, c] if value is None else value
        out.append((name, i, dataclasses.replace(qs, matrices=tuple(mats))))
    out.append(("duplicate", i, dataclasses.replace(qs, matrices=qs.matrices + (qs.matrices[i].copy(),))))
    negated = list(qs.matrices)
    negated[i] = -negated[i]
    out.append(("negate", i, dataclasses.replace(qs, matrices=tuple(negated))))
    return out


def test_verify_matches_oracle_on_mutated_sets(catalog_sets, rng):
    ids = ["C_{8,5}", "C_{16,6,1}", "C_{16,7,1}", "C_{16,8,1}", "C_{32,9,1}", "C_{32,10,102}", "C_{32,11,2}"]
    for cid in ids:
        for _ in range(3):
            for name, i, qs in _mutants(catalog_sets[cid], rng):
                ver = qs.verify()
                assert ver == verify_oracle(qs), (cid, name, i)
                if name == "negate":
                    assert ver.all_pass
                elif name == "duplicate":
                    assert ver.hadamard_ok[-1] and (i, len(qs) - 1) in ver.failed_pairs
                else:
                    assert not ver.all_pass and not ver.hadamard_ok[i]


def test_verify_empty_and_single_sets(n16_codes):
    params = QuwmParams(16, 16, 4, 64)
    assert QuwmSet(params, ()).verify() == QuwmVerification(True, (), (), ())
    h = build_quwm_set(n16_codes["C_{16,8,1}"]).matrices[3]
    assert QuwmSet(params, (h,)).verify() == QuwmVerification(True, (True,), (), ())
    bad = h.copy()
    bad[0, 0] = 0
    assert QuwmSet(params, (bad,)).verify() == QuwmVerification(False, (False,), (), ())
    with pytest.raises(InputError):
        QuwmSet(params, (h, h[:8, :8])).verify()
    with pytest.raises(InputError):
        verify_quasi_unbiased(h, h[:8], params)


def test_verify_rejects_non_integer_entries():
    h = np.array([[1, 1], [1, -1]])
    params = QuwmParams(2, 2, 1, 4)
    assert QuwmSet(params, (1.0 * h, h)).verify().all_pass
    for scale in (1.2, 0.5):
        with pytest.raises(InputError, match="integers"):
            QuwmSet(params, (scale * h,)).verify()
        with pytest.raises(InputError, match="integers"):
            verify_quasi_unbiased(h, scale * h, params)


def test_verify_exactness_bound():
    # n^3 M^4 must stay below 2^53: at n = 16 that allows M = 1000
    # (2^51.9) and refuses M = 2000 (2^55.9)
    params = QuwmParams(16, 16, 4, 64)
    h = np.ones((16, 16), dtype=np.int64)
    for big, raises in ((1000, False), (2000, True), (-2000, True)):
        w = h.copy()
        w[3, 5] = big
        if raises:
            with pytest.raises(InputError, match="inexact"):
                QuwmSet(params, (h, w)).verify()
            with pytest.raises(InputError, match="inexact"):
                verify_quasi_unbiased(w, h, params)
        else:
            assert QuwmSet(params, (h, w)).verify() == verify_oracle(QuwmSet(params, (h, w)))
        # a one-matrix set has no pair products and fails on its entries alone
        assert QuwmSet(params, (w,)).verify() == QuwmVerification(False, (False,), (), ())


def test_quasi_unbiased_needs_the_entry_check():
    # P = W1 W2^T = [[6, 8], [-8, 6]] has l = 2 nonzeros in every row and
    # column and P P^T = 100 I = a l I, but its squared entries 36 and 64
    # are not a = 50; the counts follow from the entries and the Gram
    # identity, the entries do not
    w1, w2 = np.array([[6, 8], [-8, 6]]), np.eye(2, dtype=np.int64)
    params = QuwmParams(2, 10, 2, 50)
    assert not verify_quasi_unbiased(w1, w2, params)
    qs = QuwmSet(params, (w1, w2))
    assert qs.verify() == verify_oracle(qs)
    assert qs.verify().failed_pairs == ((0, 1),)
