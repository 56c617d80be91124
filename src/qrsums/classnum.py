"""Class number h(-p) two ways: form enumeration and residue counts.

A reduced primitive positive-definite binary quadratic form a x^2 + b xy +
c y^2 of discriminant b^2 - 4ac = -p represents one ideal class, so h(-p)
is the number of such forms.  Reduction means |b| <= a <= c with b >= 0
whenever |b| = a or a = c, and primitivity gcd(a, b, c) = 1 is automatic
for prime discriminant.  The enumeration loop applies these rules and
asserts primitivity; ReducedForm is a plain (a, b, c) triple.  The same
rules, read the other way round, tally the forms of every discriminant in
a range at once: class_numbers.

The independent second route counts quadratic residues:

    h(-p) = q_e - q_o                  for p = 7 (mod 8)
    h(-p) = (w/2) (q_o - q_e) / 3      for p = 3 (mod 8)

where w/2 = half_units(p) is 3 at p = 3 and 1 otherwise.  Like every
character-sum class number formula, the count formula carries this unit
factor: h(-3) = 1, not (q_o - q_e)/3.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, isqrt
from operator import add
from typing import NamedTuple

from .arith import InvariantError, OddPrime
from .residues import ResidueProfile
from .residues import residue_profile  # noqa: F401  bench/spans.WRAP_TARGETS wraps this name


class ReducedForm(NamedTuple):
    """A form a x^2 + b xy + c y^2, as reduced_forms builds it."""

    a: int
    b: int
    c: int

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
        # c >= a, and a boundary form (b = -a or a = c) takes b >= 0
        if c < a or b < 0 and (b == -a or a == c):
            continue
        if gcd(a, b, c) != 1:
            # impossible for prime discriminant; a common divisor would square
            # into b^2 - 4ac = -pv
            raise InvariantError(f"imprimitive form ({a}, {b}, {c}) for p={pv}")
        out.append(ReducedForm(a, b, c))
    return out


def reduced_forms(p: OddPrime) -> list[ReducedForm]:
    """All reduced forms of discriminant -p, ordered by (a, b).

    Reduction forces 3a^2 <= p, so a runs to isqrt(p // 3); as a guard the
    enumeration also probes a = isqrt(p // 3) + 1 and insists it is empty.
    The loops visit each (a, b) once, a ascending and b ascending within it,
    so the list comes out ordered and free of duplicates; c = (b^2 + p)/4a
    is an exact quotient and b runs over odd values only, so every form has
    discriminant -p.  The b-loop applies the reduction rules and asserts
    primitivity.  tests/oracles.py re-derives the forms independently.
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
    return forms


def h_from_forms(p: OddPrime) -> int:
    """h(-p) as the count of reduced forms.  Odd and positive."""
    return len(reduced_forms(p))


def class_numbers(lo: int, hi: int) -> list[int]:
    """h(-D) for every D = 3 (mod 4) in [lo, hi], from one tally of reduced forms.

    Entry i counts the reduced forms of discriminant -D at D = lo3 + 4i,
    where lo3 is the least D = 3 (mod 4) at or above lo; at a prime D that
    count is h(-D).  For each a up to isqrt(hi // 3) and each odd b in
    (-a, a], D = 4ac - b^2 steps through [lo, hi] by 4a as c runs from a
    (from a + 1 when b < 0, since a = c needs b >= 0), so entry i steps by a.
    b and -b share that progression, and one slice update adds both.  The
    tally reads no residue table, no legendre and no form list.
    """
    lo3 = lo + (3 - lo) % 4
    counts = [0] * len(range(lo3, hi + 1, 4))
    n = len(counts)
    for a in range(1, isqrt(hi // 3) + 1):
        for b in range(1, a + 1, 2):
            d = 4 * a * a - b * b  # c = a: (a, b, a) alone
            if lo3 <= d <= hi:
                counts[(d - lo3) >> 2] += 1
            # c > a: (a, b, c), and (a, -b, c) unless b = a; i from c = a + 1
            i = (d + 4 * a - lo3) >> 2
            if i < 0:
                i %= a
            if i < n:
                counts[i::a] = map(add, counts[i::a], repeat(1 if b == a else 2))
    return counts


def half_units(p: OddPrime) -> int:
    """w/2, half the number of roots of unity in the field of discriminant -p:
    the six sixth roots of unity at p = 3, only +-1 above it.  Every class
    number relation in character sums carries this factor."""
    return 3 if p.value == 3 else 1


def h_from_residues(p: OddPrime, prof: ResidueProfile) -> int:
    """h(-p) from residue counts (see the module docstring).

    The division by 3 in the p = 3 (mod 8) branch must be exact and the
    result positive; anything else is an internal error.
    """
    gap = prof.q_o - prof.q_e
    if p.class_mod8 == 7:
        h = -gap
    else:
        h, rem = divmod(gap * half_units(p), 3)
        if rem:
            raise InvariantError(f"residue gap {gap} not divisible by 3 at p={p.value}")
    if h <= 0:
        raise InvariantError(f"nonpositive class number {h} at p={p.value}")
    return h
