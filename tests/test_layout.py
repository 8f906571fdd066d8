"""src/ holds the program only: every name it defines is exported or used by src/ itself.

Test-only helpers and oracles belong under tests/ (see tests/oracles.py).
"""

import ast
import inspect
import os
from pathlib import Path

import pytest

import fourweight

from conftest import fresh_stdout

SRC = Path(fourweight.__file__).parent


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Top-level functions, classes and constants, and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name


def _references(tree: ast.Module):
    """Every name read, and every attribute taken, anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_src_defines_no_test_only_names():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if not _is_dunder(name) and name not in fourweight.__all__ and name not in used
    ]
    assert not unused, unused


def test_src_has_no_bare_assert():
    # python -O strips assert statements; a result check must raise explicitly
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, asserts


# build_quwm_set keeps `cert` because perfbench's verify32 replay passes one
# by position; ROADMAP item 1 rewrites that replay and then drops it
CERT_PARAMETER_ALLOWED = {"build_quwm_set"}


def test_public_calls_derive_their_certificates():
    # a certificate comes from the code itself, never from the caller
    takes_cert = [
        name
        for name in fourweight.__all__
        if callable(obj := getattr(fourweight, name)) and "cert" in inspect.signature(obj).parameters
    ]
    assert set(takes_cert) <= CERT_PARAMETER_ALLOWED, takes_cert


def test_no_process_loads_openssl():
    # hashlib loads OpenSSL's libcrypto (about 3.6 MiB of RSS); the node
    # digest and the tables checksum take CPython's builtin hashes instead.
    # numpy.ma (which a plain np.unique imports, about 1.3 MiB) must stay
    # out of a length-32 extension layer too: the coset filter, orbit
    # reduction (3 cosets in 2 orbits) and dedupe of a = 4 [32,9] parents,
    # one of them maximal
    code = (
        "import sys\n"
        "import fourweight\n"
        "from fourweight.catalog import all_ids, load_code\n"
        "from fourweight.canonical import canonical_form\n"
        "from fourweight.classify import classify_step\n"
        "from fourweight.cover import leader_profile, valid_extension_vectors\n"
        "from fourweight.linear import LinearCode\n"
        "from fourweight.reedmuller import rm1_fixed\n"
        "assert len(all_ids(32)) == 196\n"
        "code = load_code('C_{32,9,1}')\n"
        "canonical_form(code)\n"
        "leader_profile(code)\n"
        "sub = LinearCode(32, rm1_fixed(5).row_masks + load_code('C_{32,10,29}').row_masks[:3])\n"
        "assert sub.k == 9 and valid_extension_vectors(sub, 4).size > 1\n"
        "assert classify_step([sub, code], 4).classes\n"
        "print(sorted({'hashlib', '_hashlib', 'numpy.ma'} & set(sys.modules)))\n"
    )
    assert fresh_stdout(code) == "[]"


def test_verify_paper_starts_no_thread():
    # every claim is checked in the calling thread: no worker pool, and
    # none of the modules a pool would import
    code = (
        "import sys, threading\n"
        "from fourweight.catalog import verify_claims\n"
        "assert verify_claims(8).all_pass\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)), threading.active_count())\n"
    )
    assert fresh_stdout(code) == "[] 1"


# OpenBLAS reads these when numpy loads; fourweight's import sets the first
# to 1 for that moment only, unless the caller set any of them
NO_THREAD_VARIABLE = dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))

needs_two_cpus = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts this process's threads in /proc/self/task on a host with two CPUs or more",
)

THREADS_AFTER_IMPORT = (
    "import os\n"
    "before = dict(os.environ)\n"
    "import fourweight\n"
    "from fourweight import canonical_form, load_code\n"
    "canonical_form(load_code('C_{32,10,1}'))\n"
    "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)\n"
)


@needs_two_cpus
def test_import_loads_openblas_with_one_thread():
    # no helper thread to spin after the canonical setup's float32 products
    # (without the rule OpenBLAS starts one: "2 True"), and the variable is gone again
    assert fresh_stdout(THREADS_AFTER_IMPORT, env=NO_THREAD_VARIABLE) == "1 True"


@needs_two_cpus
def test_caller_thread_variable_overrides_the_one_thread_rule():
    env = dict(NO_THREAD_VARIABLE, OPENBLAS_NUM_THREADS="2")
    assert fresh_stdout(THREADS_AFTER_IMPORT, env=env) == "2 True"


@needs_two_cpus
def test_numpy_loaded_first_keeps_its_threads_and_the_environment():
    code = (
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import fourweight\n"
        "print(len(os.listdir('/proc/self/task')) > 1, dict(os.environ) == before)\n"
    )
    assert fresh_stdout(code, env=NO_THREAD_VARIABLE) == "True True"


@needs_two_cpus
def test_one_thread_and_two_thread_processes_agree():
    # canonical keys and discovered generators along the a = 8 chain at
    # length 32, and the matrices of one (32,32,4,256) set with every field
    # of their verification, hashed in a one-thread and a two-thread process
    code = (
        "import hashlib, os\n"
        "from fourweight.canonical import automorphism_generators, canonical_form\n"
        "from fourweight.catalog import load_code\n"
        "from fourweight.classify import classify_step\n"
        "from fourweight.reedmuller import rm1_fixed\n"
        "from fourweight.weighing import build_quwm_set\n"
        "h = hashlib.sha256()\n"
        "seeds = [rm1_fixed(5)]\n"
        "while seeds:\n"
        "    for code in seeds:\n"
        "        h.update(canonical_form(code).key + repr(automorphism_generators(code)).encode())\n"
        "    seeds = [rec.code for rec in classify_step(seeds, 8).classes]\n"
        "qs = build_quwm_set(load_code('C_{32,10,1}'))\n"
        "h.update(b''.join(m.tobytes() for m in qs.matrices) + repr(qs.verify()).encode())\n"
        "print(len(os.listdir('/proc/self/task')), h.hexdigest())\n"
    )
    one = fresh_stdout(code, env=NO_THREAD_VARIABLE).split()
    two = fresh_stdout(code, env=dict(NO_THREAD_VARIABLE, OPENBLAS_NUM_THREADS="2")).split()
    assert (one[0], two[0]) == ("1", "2")
    assert one[1] == two[1]
