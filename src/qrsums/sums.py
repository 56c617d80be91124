"""Exact values of the tangent and cotangent sums over quadratic residues.

For p = 3 (mod 4) both sums are integers:

    T(p) = sqrt(p) * sum_{n=1}^{(p-1)/2} tan(pi n^2 / p) = p * (q_o - q_e)
    C(p) = sqrt(p) * sum_{n=1}^{(p-1)/2} cot(pi n^2 / p)
         = -T(p)   for p = 7 (mod 8)
         =  T(p)/3 for p = 3 (mod 8), exactly

T(p) is computed here by five further Legendre-sum routes that must all
agree, plus a sixth through the weighted sum m_sum.  Three published forms
of these identities carry misprints; the corrected forms are implemented,
and the published ones are kept alongside so the verify layer can exhibit
the discrepancy numerically (see ERRATA).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .arith import InvariantError, OddPrime
from .residues import ResidueProfile, chi_sum
from .residues import residue_profile  # noqa: F401  bench/spans.WRAP_TARGETS wraps this name


def t_exact(p: OddPrime, prof: ResidueProfile) -> int:
    """T(p) = p * (q_o - q_e).  Odd multiple of p, never divisible by p^2."""
    return p.value * (prof.q_o - prof.q_e)


def t_expressions(p: OddPrime, prof: ResidueProfile) -> tuple[int, int, int, int, int]:
    """Five independent Legendre-sum routes to T(p), in a fixed order.

    1. (p/2) * sum_{k=1}^{p-1} (-1)^(k+1) chi(k); the sum is always even
       and that is asserted before halving.
    2. p * sum_{k=1}^{(p-1)/2} (-1)^(k+1) chi(k)
    3. p * a_sum  (odd-index chi sum; the published form says 2p * a_sum)
    4. -p * chi(2) * sum_{k=1}^{(p-1)/2} chi(k)
    5. p * s_high for p = 3 (mod 8); -p * s_low for p = 7 (mod 8)
       (the published p = 7 branch lacks the minus)
    """
    pv = p.value
    table = prof.qr_table
    half = (pv - 1) // 2

    alt_full = chi_sum(table, 1, pv, 2) - chi_sum(table, 2, pv, 2)
    if alt_full % 2:
        raise InvariantError(f"alternating chi sum over [1, p-1] is odd at p={pv}")
    t1 = pv * (alt_full // 2)

    alt_half = chi_sum(table, 1, half + 1, 2) - chi_sum(table, 2, half + 1, 2)
    t2 = pv * alt_half

    t3 = pv * prof.a_sum

    chi2 = prof.chi(2)
    t4 = -pv * chi2 * prof.half_sum

    t5 = pv * prof.s_high if p.class_mod8 == 3 else -pv * prof.s_low
    return t1, t2, t3, t4, t5


def c_exact(p: OddPrime, prof: ResidueProfile) -> int:
    """C(p): -T(p) for p = 7 (mod 8), T(p)/3 for p = 3 (mod 8).

    The division by 3 is exact; a remainder would mean a bug, not bad input.
    """
    t = t_exact(p, prof)
    if p.class_mod8 == 7:
        return -t
    if t % 3:
        raise InvariantError(f"T(p) = {t} not divisible by 3 at p={p.value}")
    return t // 3


def t_from_m(p: OddPrime, prof: ResidueProfile) -> int:
    """T(p) through the weighted sum M = sum chi(k)*k:

    T = M for p = 7 (mod 8), T = -3M for p = 3 (mod 8).

    (The published relation has both signs flipped; see ERRATA.)
    """
    return prof.m_sum if p.class_mod8 == 7 else -3 * prof.m_sum


class SumRecord(NamedTuple):
    """Every exact sum value of one prime, all computed from one profile."""

    t_value: int
    c_value: int
    t_expr: tuple[int, int, int, int, int]


def sum_record(p: OddPrime, prof: ResidueProfile) -> SumRecord:
    return SumRecord(
        t_value=t_exact(p, prof),
        c_value=c_exact(p, prof),
        t_expr=t_expressions(p, prof),
    )


# --- published forms kept for the errata report ---------------------------
#
# Each function evaluates an identity exactly as published; the registry
# below pairs it with the corrected form and says where the two actually
# differ.  The verify layer re-derives the disagreement numerically.


def published_t3(p: OddPrime, prof: ResidueProfile) -> int:
    """Published odd-index route: 2p * a_sum (coefficient should be p)."""
    return 2 * p.value * prof.a_sum


def published_t5(p: OddPrime, prof: ResidueProfile) -> int:
    """Published interval route: p * s_high (p = 3 mod 8), p * s_low
    (p = 7 mod 8; the leading minus is missing in that branch)."""
    return p.value * prof.s_high if p.class_mod8 == 3 else p.value * prof.s_low


def published_t_from_m(p: OddPrime, prof: ResidueProfile) -> int:
    """Published weighted-sum route: -M (p = 7 mod 8), 3M (p = 3 mod 8);
    both signs are opposite to what direct evaluation gives."""
    m = prof.m_sum
    return -m if p.class_mod8 == 7 else 3 * m


class Erratum(NamedTuple):
    """One published-vs-corrected identity pair.

    applies(p) tells whether the misprint changes the value at p; where it
    does not (wrong branch), published and corrected coincide.
    """

    identity: str
    published: Callable[[OddPrime, ResidueProfile], int]
    corrected: Callable[[OddPrime, ResidueProfile], int]
    applies: Callable[[OddPrime], bool]


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        identity="odd_sum_coefficient",
        published=published_t3,
        corrected=lambda p, prof: t_expressions(p, prof)[2],
        applies=lambda p: True,
    ),
    Erratum(
        identity="weighted_sum_signs",
        published=published_t_from_m,
        corrected=t_from_m,
        applies=lambda p: True,
    ),
    Erratum(
        identity="low_interval_sign",
        published=published_t5,
        corrected=lambda p, prof: t_expressions(p, prof)[4],
        applies=lambda p: p.class_mod8 == 7,
    ),
)
