"""The four-weight conditions, their certificates, and the closed-form distribution.

A length-2^m code qualifies when (1) its nonzero weights are exactly
{n/2 - a, n/2, n/2 + a, n} and (2) it contains the reference copy of
RM(1,m).  The certificate records the offset a, the derived weighing
weight l = (n/2a)^2, the predicted weight distribution, and the size
2^(k-m-1) of the matrix set the code generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from fourweight.errors import InputError
from fourweight.linear import LinearCode, WeightDistribution, full_space
from fourweight.reedmuller import rm1, rm1_fixed


def _log2_exact(n: int) -> int:
    m = n.bit_length() - 1
    if n <= 0 or (1 << m) != n:
        raise InputError(f"length {n} is not a power of two")
    return m


@cache
def reference_rm(m: int) -> LinearCode:
    """The fixed RM(1,m) copy that condition (2) is checked against; built once per m.

    RM(1,0) is F_2^1, so a code of length 1 is checked like any other.
    """
    if m == 0:
        return full_space(1)
    return rm1_fixed(m) if m in (4, 5) else rm1(m)


def admissible_offsets(n: int) -> set[int]:
    """Offsets a compatible with both the divisor constraint and l <= n.

    a must divide 2^(m-1) so that n/2a is an integer, and the derived
    weighing weight l = (n/2a)^2 cannot exceed the matrix order n.
    """
    m = _log2_exact(n)
    half = 1 << (m - 1)
    return {
        a
        for a in range(1, n // 2)
        if half % a == 0 and (n // (2 * a)) ** 2 <= n
    }


def expected_distribution(n: int, m: int, k: int, a: int) -> WeightDistribution:
    """The weight distribution forced on any qualifying [n, k] code.

    (A_0, A_{n/2-a}, A_{n/2}, A_{n/2+a}, A_n)
      = (1, (s-1)l, 2n-2 + (s-1)(2n-2l), (s-1)l, 1)
    with s = 2^(k-m-1) and l = (n/2a)^2.
    """
    if n != 1 << m:
        raise InputError(f"n={n} is not 2^{m}")
    if not m + 1 <= k <= n:
        raise InputError(f"dimension k={k} out of range for m={m}")
    if not 0 < a < n // 2:
        raise InputError(f"offset a={a} out of range")
    if (1 << (m - 1)) % a != 0:
        raise InputError(f"offset a={a} does not divide 2^{m - 1}")
    s = 1 << (k - m - 1)
    l = (n // (2 * a)) ** 2
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[n] = 1
    counts[n // 2 - a] = (s - 1) * l
    counts[n // 2 + a] = (s - 1) * l
    counts[n // 2] += 2 * n - 2 + (s - 1) * (2 * n - 2 * l)
    if any(c < 0 for c in counts):
        raise InputError(
            f"parameters (n={n}, k={k}, a={a}) force a negative count; no such code exists"
        )
    dist = WeightDistribution(tuple(counts))
    if dist.total() != 1 << k:
        raise AssertionError(f"the distribution sums to {dist.total()}, not 2^{k}")
    return dist


@dataclass(frozen=True)
class FourWeightCertificate:
    """Verified parameters of a code satisfying both conditions."""

    n: int
    m: int
    k: int
    a: int
    l: int
    qw_set_size: int
    expected: WeightDistribution

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "a": self.a,
            "l": self.l,
            "set_size": self.qw_set_size,
            "distribution": self.expected.as_dict(),
        }


@dataclass
class ConditionCheck:
    """Outcome of checking both conditions; lists every violated clause."""

    ok: bool
    weight_condition: bool
    subcode_condition: bool
    certificate: FourWeightCertificate | None
    violations: list[str] = field(default_factory=list)


def check_conditions(code: LinearCode) -> ConditionCheck:
    """Decide both conditions for a code of power-of-two length.

    On success the certificate carries a = n/2 - d(C) and the closed-form
    distribution; on failure every violated clause is reported, not just
    the first.
    """
    n = code.n
    m = _log2_exact(n)
    violations: list[str] = []

    weights = set(code.weight_distribution().nonzero_weights())
    shown = "{" + ", ".join(str(w) for w in sorted(weights | {0})) + "}"
    ok_weights = False
    a = None
    if code.k >= 1:
        d = code.min_weight()
        a = n // 2 - d
        target = {0, n // 2 - a, n // 2, n // 2 + a, n}
        if not 0 < a < n // 2:
            violations.append(
                f"condition (1): weight set {shown} admits no offset with 0 < a < n/2"
            )
        elif (weights | {0}) != target:
            violations.append(
                f"condition (1): weight set {shown} is not {{0, {n//2}-a, {n//2}, {n//2}+a, {n}}}"
            )
        elif (1 << (m - 1)) % a != 0:
            violations.append(
                f"condition (1): weight set {shown} needs a={a}, not a divisor of 2^{m - 1}"
            )
        else:
            ok_weights = True
    else:
        violations.append(f"condition (1): weight set {shown} has no nonzero weights")

    ok_subcode = code.contains(reference_rm(m))
    if not ok_subcode:
        violations.append(f"condition (2): the reference RM(1,{m}) is not a subcode")

    cert = None
    if ok_weights and ok_subcode:
        l = (n // (2 * a)) ** 2
        if l > n:
            raise AssertionError("qualifying codes cannot have l > n")
        cert = FourWeightCertificate(
            n=n,
            m=m,
            k=code.k,
            a=a,
            l=l,
            qw_set_size=1 << (code.k - m - 1),
            expected=expected_distribution(n, m, code.k, a),
        )
    return ConditionCheck(
        ok=cert is not None,
        weight_condition=ok_weights,
        subcode_condition=ok_subcode,
        certificate=cert,
        violations=violations,
    )


def require_certificate(code: LinearCode) -> FourWeightCertificate:
    """check_conditions, raising on failure."""
    result = check_conditions(code)
    if result.certificate is None:
        raise InputError("code does not satisfy the conditions: " + "; ".join(result.violations))
    return result.certificate
