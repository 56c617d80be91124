"""Floating-point evaluation of the defining trigonometric expressions.

Every exact integer produced by the sums and classnum modules is re-derived
here by brute-force double-precision evaluation of the expression that
defines it, and the two are compared under an explicit tolerance policy.
float_checks is the one list of these checks, run by report and verify;
Lebesgue's and Berndt's formulas scale one chi-cot sum two ways.

Angles are always formed from exactly reduced integers: tan(pi n^2 / p) is
evaluated as tan(pi * m / p) with m = n^2 mod p, never from the unreduced
product pi * n^2.  float_checks forms each prime's angles once, into the two
arrays of doubles of angle_tables (about 8 p bytes at p = 3 (mod 4)), hands
them to each pass and drops them when it returns.  At p = 3 (mod 4) both are
read off the residue table of p's profile, in ascending order: pi * m / p
for the residues m, which are the squares n^2 mod p of n in [1, (p-1)/2],
each once, read by the half-range sums, twice by Whiteman's sum (n and p - n
square alike) and by the chi-cot sum, which reads pi * k / p for the k whose
reflection p - k is a residue next (chi(k) = -1 there).  At p = 1 (mod 4)
there is no table, and only the squares are formed, in n order.  Each pass
still evaluates its own tan (or cot, as 1/tan) per term.  Every sum is
math.fsum, so it is correctly rounded whatever order the terms come in, and
each trigonometric check is held to trig_bound, an a-priori bound on its own
rounding error.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, repeat
from operator import itemgetter, truediv
from typing import NamedTuple

from .arith import InvariantError, OddPrime, legendre, primitive_root
from .classnum import half_units
from .classnum import h_from_forms  # noqa: F401  bench/spans.WRAP_TARGETS wraps this name
from .residues import ResidueProfile, residue_profile
from .sums import c_exact, t_exact


def trig_bound(p: int, scale: float, cot: bool, half: bool) -> float:
    """Bound on |scale * fsum(f(pi m / p)) - exact|, f = tan or cot, over the
    residues m (half) or over p - 1 terms meeting each k in [1, p-1] once up
    to sign (k itself, or n^2 mod p for n = 1 .. p-1 at p = 3 (mod 4)).

    First order, eps = 2^-52: three roundings keep each angle x < pi within
    3 eps * x, which moves f by (1 + f^2) * 3 eps * pi; tan within 1 ulp (as
    glibc documents) and five more roundings add 4 eps * sum |f|, at most
    4 eps * sqrt(n S) for n terms with sum f^2 <= S (Cauchy-Schwarz).  Over
    k = 1 .. p-1, S = p(p-1) for tan and (p-1)(p-2)/3 for cot (Berndt and
    Yeap, 2002); the residues hold S/2 at p = 3 (mod 4), where one of k and
    p - k is a residue and f^2 agrees at both, and may hold more at p = 1 (mod 4).
    """
    n, s = p - 1, (p - 1) * (p - 2) / 3 if cot else p * (p - 1)
    if half:
        n, s = n // 2, s / 2 if p % 4 == 3 else s
    return scale * 2.0**-52 * (3 * math.pi * (n + s) + 4 * math.sqrt(n * s))


# gauss_sum_checks sums p(p-1) terms: about 2.7e8 for the largest eligible p
# below 2^14, 16363, which ran in 25 s on a 2 vCPU host under CPython 3.11
GAUSS_P_BITS = 14


def gauss_tolerance(p: int) -> float:
    """Tolerance for the quadratic exponential sums: 1e-9 * p."""
    return 1e-9 * p


class FloatCheckResult(NamedTuple):
    """Outcome of one float-vs-exact comparison.

    computed is the double-precision evaluation (complex for the
    exponential sums), reference the exact target, residual the distance
    |computed - reference|.  For approximation checks passed means
    residual <= tolerance; the two bound checks instead demand a strict
    inequality and report the violation amount as residual with
    tolerance 0.
    """

    name: str
    computed: float | complex
    reference: float | complex
    residual: float
    tolerance: float
    passed: bool


def _approx(name: str, computed: float | complex, reference: float | complex,
            tol: float, extra_ok: bool = True) -> FloatCheckResult:
    residual = abs(computed - reference)
    return FloatCheckResult(
        name=name,
        computed=computed,
        reference=reference,
        residual=residual,
        tolerance=tol,
        passed=(residual <= tol) and extra_ok,
    )


def angle_tables(p: OddPrime, profile: ResidueProfile | None) -> tuple[array, array]:
    """pi * m / p for the squares m = n^2 mod p, n <= (p-1)/2, and pi * k / p
    for the k whose reflection p - k is a square: at p = 3 (mod 4) the
    residues and the non-residues, ascending, read off the profile's table;
    with no profile (p = 1 (mod 4)) the squares in n order and no reflections.
    Arrays: 8 bytes an angle, where a float takes 32.  pi * m / float(p) is
    pi * m / p to the bit, as p < 2^53."""
    pv = p.value
    pi, fp = math.pi, float(pv)
    if profile is None:
        return array("d", [pi * (n * n % pv) / fp for n in range(1, (pv - 1) // 2 + 1)]), array("d")
    # ascending: a tan or cot pass then takes 13-31% less time than in n order
    squares = array("d", [pi * m / fp for m in compress(range(pv), profile.qr_table)])
    reflected = array("d", [pi * k / fp for k in compress(range(1, pv), profile.qr_table[:0:-1])])
    return squares, reflected


def t_float(p: OddPrime, profile: ResidueProfile | None, squares: array) -> FloatCheckResult:
    """sqrt(p) * sum tan(pi n^2 / p) over n = 1 .. (p-1)/2, any odd prime.

    Reference: t_exact(p, profile) for p = 3 (mod 4), and 0 for p = 1 (mod 4)
    (the terms cancel in pairs there; p has no profile, so profile is None).
    """
    pv = p.value
    computed = math.sqrt(pv) * math.fsum(map(math.tan, squares))
    ref = float(t_exact(p, profile)) if p.class_mod4 == 3 else 0.0
    return _approx("tangent_sum", computed, ref, trig_bound(pv, math.sqrt(pv), False, True))


def c_float(p: OddPrime, profile: ResidueProfile | None, squares: array) -> FloatCheckResult:
    """sqrt(p) * sum cot(pi n^2 / p) over n = 1 .. (p-1)/2, any odd prime."""
    pv = p.value
    cots = map(truediv, repeat(1.0), map(math.tan, squares))
    computed = math.sqrt(pv) * math.fsum(cots)
    ref = float(c_exact(p, profile)) if p.class_mod4 == 3 else 0.0
    return _approx("cotangent_sum", computed, ref, trig_bound(pv, math.sqrt(pv), True, True))


def whiteman_sum(p: OddPrime, profile: ResidueProfile, squares: array) -> FloatCheckResult:
    """sum cot(pi n^2 / p) over the full range n = 1 .. p-1, p = 3 (mod 4):
    the squares twice, as n and p - n square alike.

    Whiteman's inequality says this is strictly positive; the exact value
    is 2 C(p) / sqrt(p), and the check demands both closeness and
    positivity.
    """
    pv = p.value
    computed = math.fsum(map(truediv, repeat(1.0), map(math.tan, chain(squares, squares))))
    ref = 2.0 * c_exact(p, profile) / math.sqrt(pv)
    return _approx("whiteman_sum", computed, ref, trig_bound(pv, 1.0, True, False),
                   extra_ok=computed > 0.0)


def _compensated_complex(terms: tuple[tuple[float, float], ...]) -> complex:
    # real and imaginary parts each correctly rounded, read from the (cos, sin)
    # pairs in place.  The name predates the pairs and stays: bench/tests
    # patches it to count the terms, so it sees all p of them for every k.
    return complex(math.fsum(map(itemgetter(0), terms)), math.fsum(map(itemgetter(1), terms)))


def gauss_sum_checks(p: OddPrime) -> list[FloatCheckResult]:
    """Quadratic exponential sums sum_{j=0}^{p-1} exp(2 pi i j^2 k / p) for
    every k in [1, p-1], each against its exact value i * (k|p) * sqrt(p).

    p must be 3 (mod 4) and below 2^GAUSS_P_BITS (the work is p(p-1) terms).
    k walks the powers of the least primitive root g of p.  The (cos, sin)
    root of every m mod p is tabled once; each k reads its terms from a head,
    the (p+1)/2-tuple whose entry j is the root of j^2 k mod p, j in
    [0, (p-1)/2], the pair j, p - j sharing one.  Two heads alternate, one
    walking the residues from k = 1 and one the non-residues from k = g.
    The heads of k and k g^2 differ by j -> j g, folded into [0, (p-1)/2]
    since (p - m)^2 = m^2, so one fixed gather of (p+1)/2 entries steps
    either head.  All p terms of each k are then summed, and the results
    are listed by k.
    """
    pv = p.value
    if p.class_mod4 != 3:
        raise ValueError(f"p = {pv} is 1 (mod 4); the pure-imaginary closed form needs 3 (mod 4)")
    if pv >= 1 << GAUSS_P_BITS:
        raise ValueError(f"gauss sums p(p-1) terms; p must be < 2^{GAUSS_P_BITS}, got {pv}")
    tau = 2.0 * math.pi / pv
    table = [(math.cos(tau * m), math.sin(tau * m)) for m in range(pv)]
    g = primitive_root(p)
    half = range((pv + 1) // 2)
    step = itemgetter(*[min(j * g % pv, pv - j * g % pv) for j in half])
    head = itemgetter(*[j * j % pv for j in half])(table)  # k = 1
    ahead = itemgetter(*[j * j * g % pv for j in half])(table)  # k = g
    root_p = math.sqrt(pv)
    tol = gauss_tolerance(pv)
    checks: list[FloatCheckResult | None] = [None] * (pv - 1)
    k = 1
    for _ in range(pv - 1):
        if checks[k - 1] is not None:
            raise InvariantError(f"powers of {g} mod {pv} repeat k = {k} before covering [1, p-1]")
        computed = _compensated_complex(head + head[1:])
        ref = complex(0.0, legendre(k, p) * root_p)
        checks[k - 1] = _approx(f"gauss_sum(k={k})", computed, ref, tol)
        head, ahead, k = ahead, step(head), k * g % pv
    return checks


def _chi_cot_sum(p: OddPrime, squares: array, reflected: array) -> float:
    """sum_{k=1}^{p-1} chi(k) cot(k pi / p) over both angle tables, the sum
    behind Lebesgue's and Berndt's formulas, p = 3 (mod 4): chi(-1) = -1, so
    chi(k) is +1 at the residues k and -1 where the reflection p - k is one."""
    if p.class_mod4 != 3:
        raise ValueError(f"p = {p.value} is 1 (mod 4); the chi-cot sum needs 3 (mod 4)")
    plus = map(truediv, repeat(1.0), map(math.tan, squares))
    minus = map(truediv, repeat(-1.0), map(math.tan, reflected))
    return math.fsum(chain(plus, minus))


def lebesgue_float(p: OddPrime, squares: array, reflected: array, *, h: int) -> FloatCheckResult:
    """Class number by Lebesgue's cotangent formula, against the caller's h.

    (w/2) * (1 / (2 sqrt p)) * sum_{k=1}^{p-1} chi(k) cot(k pi / p), where
    w/2 = half_units(p) is the unit factor of the discriminant -p field and
    chi is read from the angle tables, off the residue table.  verify and
    report pass the forms' h, which never reads it, so a wrong table fails.
    """
    pv = p.value
    total = _chi_cot_sum(p, squares, reflected)
    computed = half_units(p) * total / (2.0 * math.sqrt(pv))
    tol = trig_bound(pv, half_units(p) / (2.0 * math.sqrt(pv)), True, False)
    return _approx("lebesgue_formula", computed, float(h), tol)


def berndt_m_float(p: OddPrime, profile: ResidueProfile, squares: array,
                   reflected: array) -> FloatCheckResult:
    """Berndt's cotangent form of the weighted sum M = sum chi(k) k.

    (sqrt(p)/2) * sum_{k=1}^{p-1} chi(k) cot(k pi / p) evaluates to -M(p)
    (the published statement drops the sign), so the reference is -m_sum.
    """
    pv = p.value
    computed = math.sqrt(pv) / 2.0 * _chi_cot_sum(p, squares, reflected)
    ref = float(-profile.m_sum)
    return _approx("berndt_sum", computed, ref, trig_bound(pv, math.sqrt(pv) / 2.0, True, False))


def float_checks(p: OddPrime, profile: ResidueProfile | None = None,
                 h: int | None = None) -> list[FloatCheckResult]:
    """The float suite of one prime, in a fixed order: the two half-range
    sums (which vanish at p = 1 (mod 4)), then at p = 3 (mod 4), given p's
    profile and h, Whiteman's sum and Lebesgue's and Berndt's formulas.
    p's angle_tables are built once here and live for this call."""
    if p.class_mod4 == 3 and (profile is None or h is None):
        raise ValueError(f"p = {p.value} is 3 (mod 4); its float checks need its profile and h")
    squares, reflected = angle_tables(p, profile)
    checks = [t_float(p, profile, squares), c_float(p, profile, squares)]
    if p.class_mod4 == 3:
        checks += [whiteman_sum(p, profile, squares), lebesgue_float(p, squares, reflected, h=h),
                   berndt_m_float(p, profile, squares, reflected)]
    return checks


def _bound(name: str, bound_value: float, magnitude: float,
           strict_ok: bool) -> FloatCheckResult:
    return FloatCheckResult(
        name=name,
        computed=bound_value,
        reference=magnitude,
        residual=max(0.0, magnitude - bound_value),
        tolerance=0.0,
        passed=strict_ok,
    )


def bound_harmonic(p: OddPrime, profile: ResidueProfile) -> FloatCheckResult:
    """Strict bound |T(p)| < (2 p sqrt(p) / pi) * (1 + ln(p-2)/2).

    Comes from bounding each |tan| by the reciprocal of its distance to
    pi/2 and summing the odd-denominator harmonic series.
    """
    pv = p.value
    t = abs(t_exact(p, profile))
    bound_value = (2.0 * pv * math.sqrt(pv) / math.pi) * (1.0 + 0.5 * math.log(pv - 2))
    return _bound("harmonic_bound", bound_value, float(t), t < bound_value)


def bound_pv(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """Polya-Vinogradov: |sum_{k<=(p-1)/2} chi(k)| < sqrt(p) ln p, and with
    it |T(p)| < p^(3/2) ln p.  Both strict."""
    prof = profile or residue_profile(p)
    pv = p.value
    half = abs(prof.half_sum)
    t = abs(t_exact(p, prof))
    bound_value = math.sqrt(pv) * math.log(pv)
    ok = half < bound_value and t < pv**1.5 * math.log(pv)
    return _bound("polya_vinogradov_bound", bound_value, float(half), ok)
