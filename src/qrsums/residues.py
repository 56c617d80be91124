"""Quadratic residue statistics for primes p = 3 (mod 4).

The central object is ResidueProfile: one table of residue membership over
[1, p-1] plus every count and signed sum the identity suite consumes.

Notation used throughout (chi is the Legendre symbol (.|p)):

    q_o, q_e        residues in [1, p-1] with odd / even least representative
    s_low           sum of chi(k) for k in [1, (p-3)/4]
    s_high          sum of chi(k) for k in [(p+1)/4, (p-1)/2]
    a_sum           sum of chi(k) over odd k in [1, p-2]
    m_sum           sum of chi(k) * k over [1, p-1]  (negative: Dirichlet)

The table is built by squaring 1..(p-1)/2 directly, so it is independent of
the Euler-criterion Legendre path; the test suite plays the two against each
other.  Signed chi-sums over an index range collapse to counts, since chi is
+-1 off zero: sum of chi over a range = 2*(#residues in range) - #terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .arith import OddPrime


@dataclass(frozen=True)
class ResidueProfile:
    """All residue statistics of one prime p = 3 (mod 4).

    qr_table has length p and is indexed by k in [1, p-1]; entry 1 means k
    is a quadratic residue mod p (index 0 is unused and always 0).
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


def _require_class3(p: OddPrime) -> None:
    if p.class_mod4 != 3:
        raise ValueError(f"p = {p.value} is 1 (mod 4); statistics need p = 3 (mod 4)")


def residue_profile(p: OddPrime) -> ResidueProfile:
    """Build the full statistics table for p = 3 (mod 4) in O(p)."""
    _require_class3(p)
    pv = p.value
    qr = bytearray(pv)
    for j in range(1, (pv - 1) // 2 + 1):
        qr[j * j % pv] = 1

    half = (pv - 1) // 2
    q_o = sum(qr[1::2])
    q_e = sum(qr[2::2])
    low_top = (pv - 3) // 4  # last index of the low interval; 0 at p=3 (empty)
    s_low = 2 * sum(qr[1 : low_top + 1]) - low_top
    s_high = 2 * sum(qr[low_top + 1 : half + 1]) - (half - low_top)
    even_below = sum(qr[2 : half + 1 : 2])  # even k < p/2 means even k <= (p-1)/2
    even_above = q_e - even_below
    a = 2 * q_o - half  # odd k in [1, p-2] number exactly half
    m = 2 * sum(compress(range(pv), qr)) - pv * (pv - 1) // 2
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
