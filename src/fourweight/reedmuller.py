"""First-order Reed-Muller codes: recursive doubling and the fixed generator matrices.

All table reconstructions must use the fixed coordinate system
(:func:`rm1_fixed`); the recursive construction is the independent
cross-check.  Whether the two agree as codeword sets is determined
empirically (see the catalog fixture), never assumed.
"""

from __future__ import annotations

from fourweight.errors import InputError
from fourweight.linear import LinearCode

# Generator rows of RM(1,4) and RM(1,5) in the fixed coordinate system
# used by the published support tables; the test suite guards their
# transcription by sha256 digests.
RM_FIXED_ROWS = {
    4: (
        "1001011001101001",
        "0101010101010101",
        "0011001100110011",
        "0000111100001111",
        "0000000011111111",
    ),
    5: (
        "10010110011010010110100110010110",
        "01010101010101010101010101010101",
        "00110011001100110011001100110011",
        "00001111000011110000111100001111",
        "00000000111111110000000011111111",
        "00000000000000001111111111111111",
    ),
}

def rm1(m: int) -> LinearCode:
    """RM(1,m) by the doubling recursion: base F_2^2, then (u,u) plus (0,1)."""
    if not 1 <= m <= 6:
        raise InputError(f"rm1 requires 1 <= m <= 6, got {m}")
    rows = [0b10, 0b01]
    n = 2
    for _ in range(m - 1):
        rows = [(r << n) | r for r in rows] + [(1 << n) - 1]
        n *= 2
    code = LinearCode(n, rows)
    if code.k != m + 1:
        raise AssertionError(f"RM(1,{m}) has dimension {code.k}, not {m + 1}")
    return code


def rm1_fixed(m: int) -> LinearCode:
    """RM(1,m) spanned by the fixed generator matrix (m in {3, 4, 5}).

    For m = 3 the length-8 reference coordinate system is the recursive
    code itself; for m = 4, 5 the displayed matrices are embedded verbatim.
    """
    if m == 3:
        return rm1(3)
    if m not in RM_FIXED_ROWS:
        raise InputError(f"no fixed generator matrix for m={m}")
    code = LinearCode(len(RM_FIXED_ROWS[m][0]), RM_FIXED_ROWS[m])
    if code.k != m + 1:
        raise AssertionError(f"fixed RM(1,{m}) has dimension {code.k}, not {m + 1}")
    return code
