"""Quadratic residue statistics for primes p = 3 (mod 4).

The central object is ResidueProfile: one table of residue membership over
[1, p-1] plus every count and signed sum the identity suite consumes.

Notation used throughout (chi is the Legendre symbol (.|p)):

    q_o, q_e        residues in [1, p-1] with odd / even least representative
    s_low           sum of chi(k) for k in [1, (p-3)/4]
    s_high          sum of chi(k) for k in [(p+1)/4, (p-1)/2]
    a_sum           sum of chi(k) over odd k in [1, p-2]
    m_sum           sum of chi(k) * k over [1, p-1]  (negative: Dirichlet)

The table is built by squaring 1..(p-1)/2, so it is independent of the
Euler-criterion Legendre path; the test suite plays the two against each
other.  One incremental walk of the squares, j^2 = (j-1)^2 + (2j-1) reduced
mod p by at most one subtraction, marks the table and sums the residues, so
m_sum comes out of the same pass: m_sum = 2 * (sum of residues) - p(p-1)/2.

Every count is a popcount of the 0/1 table (see ones), done at C speed on
the table read as one big integer.  Every signed chi-sum over an index range
is chi_sum: chi is +-1 off zero, so the sum = 2*(#residues in range) - #terms.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import OddPrime


class ResidueProfile(NamedTuple):
    """All residue statistics of one prime p = 3 (mod 4).

    qr_table has length p and is indexed by k in [1, p-1]; entry 1 means k
    is a quadratic residue mod p; byte 0 is 0, read by table_count alone.
    """

    p: OddPrime
    qr_table: bytes
    q_o: int
    q_e: int
    s_low: int
    s_high: int
    even_below_half: int
    even_above_half: int
    a_sum: int
    m_sum: int

    @property
    def half_sum(self) -> int:
        """sum of chi(k) over [1, (p-1)/2]; positive for p = 3 (mod 4)."""
        return self.s_low + self.s_high

    def chi(self, k: int) -> int:
        """Legendre symbol (k|p) read from the table."""
        r = k % self.p.value
        if r == 0:
            return 0
        return 1 if self.qr_table[r] else -1


def ones(table: bytes) -> int:
    """Number of 1 entries of a 0/1 byte table.

    Every set byte contributes exactly one bit to the table read as a
    little-endian integer, so this is its popcount (int.bit_count, which
    needs Python >= 3.10).
    """
    return int.from_bytes(table, "little").bit_count()


def chi_sum(table: bytes, start: int, stop: int, step: int = 1) -> int:
    """sum of chi(k) for k in range(start, stop, step), read from a 0/1
    residue table; 0 <= start, stop <= len(table), step > 0, and no k in the
    range is a multiple of p.  chi is +-1 there, so the sum is
    2 * (residues in the range) - (terms in the range).
    """
    return 2 * ones(table[start:stop:step]) - len(range(start, stop, step))


def residue_profile(p: OddPrime) -> ResidueProfile:
    """Build the full statistics table for p = 3 (mod 4) in O(p)."""
    if p.class_mod4 != 3:
        raise ValueError(f"p = {p.value} is 1 (mod 4); statistics need p = 3 (mod 4)")
    pv = p.value
    half = (pv - 1) // 2
    qr = bytearray(pv)
    r = residue_total = 0
    for step in range(1, 2 * half, 2):  # step = 2j - 1 takes r from (j-1)^2 to j^2
        r += step
        if r >= pv:  # r < p and step <= p - 2, so one subtraction reduces
            r -= pv
        qr[r] = 1
        residue_total += r  # each residue is hit once: j and p - j square alike

    q_o = ones(qr[1::2])
    q_e = ones(qr[2::2])
    low_top = (pv - 3) // 4  # last index of the low interval; 0 at p=3 (empty)
    s_low = chi_sum(qr, 1, low_top + 1)
    s_high = chi_sum(qr, low_top + 1, half + 1)
    even_below = ones(qr[2 : half + 1 : 2])  # even k < p/2 means even k <= (p-1)/2
    even_above = ones(qr[half + 1 :: 2])  # (p+1)/2 is even for p = 3 (mod 4)
    a = 2 * q_o - half  # odd k in [1, p-2] number exactly half
    m = 2 * residue_total - pv * (pv - 1) // 2
    return ResidueProfile(
        p=p,
        qr_table=bytes(qr),
        q_o=q_o,
        q_e=q_e,
        s_low=s_low,
        s_high=s_high,
        even_below_half=even_below,
        even_above_half=even_above,
        a_sum=a,
        m_sum=m,
    )
