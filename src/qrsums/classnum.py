"""Class number h(-p) two ways: form enumeration and residue counts.

A reduced primitive positive-definite binary quadratic form a x^2 + b xy +
c y^2 of discriminant b^2 - 4ac = -p represents one ideal class, so h(-p)
is the number of such forms.  Reduction means |b| <= a <= c with b >= 0
whenever |b| = a or a = c, and primitivity gcd(a, b, c) = 1 is automatic
for prime discriminant but asserted anyway.

The independent second route counts quadratic residues:

    h(-p) = q_e - q_o          for p = 7 (mod 8)
    h(-p) = (q_o - q_e) / 3    for p = 3 (mod 8), p > 3

At p = 3 the field of discriminant -3 has six roots of unity instead of
two, so the residue-count formula (like every character-sum class number
formula) picks up an extra factor 3 there: h(-3) = 1, not (q_o - q_e)/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import InvariantError, OddPrime
from .residues import ResidueProfile, residue_profile


@dataclass(frozen=True)
class ReducedForm:
    """A reduced primitive form (a, b, c) with negative discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if a <= 0 or c <= 0:
            raise ValueError(f"outer coefficients must be positive: {(a, b, c)}")
        if not (abs(b) <= a <= c):
            raise ValueError(f"not reduced: {(a, b, c)}")
        if b < 0 and (abs(b) == a or a == c):
            raise ValueError(f"boundary form must have b >= 0: {(a, b, c)}")
        if gcd(gcd(a, abs(b)), c) != 1:
            raise ValueError(f"not primitive: {(a, b, c)}")
        if self.discriminant >= 0:
            raise ValueError(f"discriminant must be negative: {(a, b, c)}")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _forms_with_leading(a: int, pv: int) -> list[ReducedForm]:
    # All reduced forms of discriminant -pv with this leading coefficient.
    # b must be odd since -pv = 1 (mod 4); c is forced by 4ac = b^2 + pv.
    out = []
    b_start = -a if a % 2 else -a + 1
    for b in range(b_start, a + 1, 2):
        if (b * b + pv) % (4 * a):
            continue
        c = (b * b + pv) // (4 * a)
        if c < a:
            continue
        if b < 0 and (abs(b) == a or a == c):
            continue
        if gcd(gcd(a, abs(b)), c) != 1:
            # impossible for prime discriminant; a common divisor would square
            # into b^2 - 4ac = -pv
            raise InvariantError(f"imprimitive form ({a}, {b}, {c}) for p={pv}")
        out.append(ReducedForm(a, b, c))
    return out


def reduced_forms(p: OddPrime) -> list[ReducedForm]:
    """All reduced forms of discriminant -p, ordered by (a, b).

    Reduction forces 3a^2 <= p, so a runs to isqrt(p // 3); as a guard the
    enumeration also probes a = isqrt(p // 3) + 1 and insists it is empty.
    """
    if p.class_mod4 != 3:
        raise ValueError(f"-{p.value} is not a fundamental discriminant = 1 (mod 4)")
    pv = p.value
    bound = isqrt(pv // 3)
    forms: list[ReducedForm] = []
    for a in range(1, bound + 1):
        forms.extend(_forms_with_leading(a, pv))
    if _forms_with_leading(bound + 1, pv):
        raise InvariantError(f"form found beyond the a-bound at p={pv}")
    forms.sort(key=lambda f: (f.a, f.b))
    for f in forms:
        if f.discriminant != -pv:
            raise InvariantError(f"discriminant mismatch for {f} at p={pv}")
        if f.b % 2 == 0:
            raise InvariantError(f"even middle coefficient {f} at p={pv}")
    if len(set(forms)) != len(forms):
        raise InvariantError(f"duplicate forms at p={pv}")
    return forms


def h_from_forms(p: OddPrime) -> int:
    """h(-p) as the count of reduced forms.  Odd and positive."""
    return len(reduced_forms(p))


def h_from_residues(p: OddPrime, profile: ResidueProfile | None = None) -> int:
    """h(-p) from residue counts (see module docstring for the p=3 factor).

    The division by 3 in the p = 3 (mod 8) branch must be exact and the
    result positive; anything else is an internal error.
    """
    prof = profile or residue_profile(p)
    gap = prof.q_o - prof.q_e
    if p.class_mod8 == 7:
        h = -gap
    elif p.value == 3:
        # six units in the discriminant -3 field: the count formula gains
        # a factor 3, and gap/3 * 3 == gap == 1 here
        h = gap
    else:
        if gap % 3:
            raise InvariantError(f"residue gap {gap} not divisible by 3 at p={p.value}")
        h = gap // 3
    if h <= 0:
        raise InvariantError(f"nonpositive class number {h} at p={p.value}")
    return h
