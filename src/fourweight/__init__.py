"""Four-weight binary codes and the mutually quasi-unbiased weighing matrices they generate.

The package classifies and certifies binary [2^m, k] codes whose nonzero
weights are exactly {n/2 - a, n/2, n/2 + a, n} and which contain a fixed
first-order Reed-Muller code, and builds from each such code a set of
2^(k-m-1) Hadamard matrices that are pairwise quasi-unbiased weighing
matrices for parameters (n, n, (n/2a)^2, 4a^2).

numpy loads here with one OpenBLAS thread unless the caller set a thread variable:
no product in the package gains from a second one, which spins on the other CPU.
"""

import os
import sys

if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from fourweight.linear import LinearCode, WeightDistribution
from fourweight.reedmuller import rm1, rm1_fixed
from fourweight.conditions import (
    FourWeightCertificate,
    admissible_offsets,
    check_conditions,
    expected_distribution,
)
from fourweight.weighing import (
    QuwmParams,
    QuwmSet,
    antipodal_split,
    build_quwm_set,
    psi,
    verify_quasi_unbiased,
    verify_weighing,
)
from fourweight.canonical import CanonicalForm, are_equivalent, canonical_form
from fourweight.cover import CosetLeaderProfile, covering_radius, is_maximal, leader_histogram, leader_profile
from fourweight.classify import ClassificationReport, classify_all, classify_step
from fourweight.catalog import all_ids, load_code, verify_claims

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "ClassificationReport",
    "CosetLeaderProfile",
    "FourWeightCertificate",
    "LinearCode",
    "QuwmParams",
    "QuwmSet",
    "WeightDistribution",
    "admissible_offsets",
    "all_ids",
    "antipodal_split",
    "are_equivalent",
    "build_quwm_set",
    "canonical_form",
    "check_conditions",
    "classify_all",
    "classify_step",
    "covering_radius",
    "expected_distribution",
    "is_maximal",
    "leader_histogram",
    "leader_profile",
    "load_code",
    "psi",
    "rm1",
    "rm1_fixed",
    "verify_claims",
    "verify_quasi_unbiased",
    "verify_weighing",
]
