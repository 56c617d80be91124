"""Floating-point evaluation of the defining trigonometric expressions.

Every exact integer produced by the sums and classnum modules is re-derived
here by brute-force double-precision evaluation of the expression that
defines it, and the two are compared under an explicit tolerance policy.
float_checks is the one list of these checks, run by report and verify;
Lebesgue's and Berndt's formulas scale one chi-cot sum two ways.

Angles are always formed from exactly reduced integers: tan(pi n^2 / p) is
evaluated as tan(pi * (n^2 mod p) / p), never from the unreduced product
pi * n^2.  Terms with argument near pi/2 reach magnitude ~2p/pi and
dominate the rounding budget, which is why the scalar tolerance scales like
p^(3/2) * (1 + ln p).  Every sum is math.fsum, so it is correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .arith import OddPrime, legendre
from .classnum import h_from_forms, half_units
from .residues import ResidueProfile, residue_profile
from .sums import c_exact, t_exact


def sum_tolerance(p: int) -> float:
    """Tolerance for the scalar trigonometric sums at prime value p.

    max(1e-9 * p^(3/2) * (1 + ln p), 1e-9); every scalar comparison in this
    module goes through this one policy, never a per-call constant.
    """
    return max(1e-9 * p**1.5 * (1.0 + math.log(p)), 1e-9)


def gauss_tolerance(p: int) -> float:
    """Tolerance for the quadratic exponential sums: 1e-9 * p."""
    return 1e-9 * p


@dataclass(frozen=True)
class FloatCheckResult:
    """Outcome of one float-vs-exact comparison.

    computed is the double-precision evaluation (complex for the
    exponential sums), reference the exact target, residual the distance
    |computed - reference|.  For approximation checks passed means
    residual <= tolerance; the two bound checks instead demand a strict
    inequality and report the violation amount as residual with
    tolerance 0.
    """

    name: str
    p: OddPrime
    computed: float | complex
    reference: float | complex
    residual: float
    tolerance: float
    passed: bool


def _approx(name: str, p: OddPrime, computed: float | complex,
            reference: float | complex, tol: float,
            extra_ok: bool = True) -> FloatCheckResult:
    residual = abs(computed - reference)
    return FloatCheckResult(
        name=name,
        p=p,
        computed=computed,
        reference=reference,
        residual=residual,
        tolerance=tol,
        passed=(residual <= tol) and extra_ok,
    )


def t_float(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """sqrt(p) * sum tan(pi n^2 / p) over n = 1 .. (p-1)/2, any odd prime.

    Reference: t_exact(p) for p = 3 (mod 4), and 0 for p = 1 (mod 4)
    (the terms cancel in pairs there).
    """
    pv = p.value
    pi = math.pi
    total = math.fsum(
        math.tan(pi * (n * n % pv) / pv) for n in range(1, (pv - 1) // 2 + 1)
    )
    computed = math.sqrt(pv) * total
    ref = float(t_exact(p, profile)) if p.class_mod4 == 3 else 0.0
    return _approx("tangent_sum", p, computed, ref, sum_tolerance(pv))


def c_float(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """sqrt(p) * sum cot(pi n^2 / p) over n = 1 .. (p-1)/2, any odd prime."""
    pv = p.value
    pi = math.pi
    total = math.fsum(
        1.0 / math.tan(pi * (n * n % pv) / pv) for n in range(1, (pv - 1) // 2 + 1)
    )
    computed = math.sqrt(pv) * total
    ref = float(c_exact(p, profile)) if p.class_mod4 == 3 else 0.0
    return _approx("cotangent_sum", p, computed, ref, sum_tolerance(pv))


def whiteman_sum(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """sum cot(pi n^2 / p) over the full range n = 1 .. p-1, p = 3 (mod 4).

    Whiteman's inequality says this is strictly positive; the exact value
    is 2 C(p) / sqrt(p), and the check demands both closeness and
    positivity.
    """
    pv = p.value
    pi = math.pi
    computed = math.fsum(
        1.0 / math.tan(pi * (n * n % pv) / pv) for n in range(1, pv)
    )
    ref = 2.0 * c_exact(p, profile) / math.sqrt(pv)
    return _approx("whiteman_sum", p, computed, ref, sum_tolerance(pv),
                   extra_ok=computed > 0.0)


def _unit_roots(pv: int) -> list[tuple[float, float]]:
    """(cos, sin) of 2 pi m / p for every m in [0, p-1]."""
    tau = 2.0 * math.pi / pv
    return [(math.cos(tau * m), math.sin(tau * m)) for m in range(pv)]


def _half_squares(pv: int) -> list[int]:
    """j^2 mod p for j in [1, (p-1)/2]; p - j squares to the same residue."""
    return [j * j % pv for j in range(1, (pv - 1) // 2 + 1)]


def _compensated_complex(terms: list[tuple[float, float]]) -> complex:
    # real and imaginary parts each correctly rounded.  The name predates the
    # (cos, sin) pairs and stays: bench/tests patches it to count the terms.
    flat = list(chain.from_iterable(terms))
    return complex(math.fsum(flat[0::2]), math.fsum(flat[1::2]))


def gauss_sum_float(
    k: int, p: OddPrime,
    _tables: tuple[list[tuple[float, float]], list[int]] | None = None,
) -> FloatCheckResult:
    """Quadratic exponential sum sum_{j=0}^{p-1} exp(2 pi i j^2 k / p).

    For p = 3 (mod 4) and p not dividing k the exact value is
    i * (k|p) * sqrt(p), purely imaginary.  Exponents are reduced
    (j^2 k mod p) in exact integers before touching floats, once for each
    pair j, p - j; all p terms are then summed.
    """
    if p.class_mod4 != 3:
        raise ValueError(f"p = {p.value} is 1 (mod 4); the closed form here needs 3 (mod 4)")
    pv = p.value
    kr = k % pv
    if kr == 0:
        raise ValueError(f"k = {k} is divisible by p = {pv}")
    roots, squares = _tables if _tables is not None else (_unit_roots(pv), _half_squares(pv))
    half = [roots[s * kr % pv] for s in squares]
    computed = _compensated_complex([roots[0], *half, *half])
    ref = complex(0.0, legendre(kr, p) * math.sqrt(pv))
    return _approx(f"gauss_sum(k={kr})", p, computed, ref, gauss_tolerance(pv))


def gauss_sum_checks(p: OddPrime) -> list[FloatCheckResult]:
    """gauss_sum_float for every k in [1, p-1], sharing one root table and
    one table of half-range squares."""
    tables = (_unit_roots(p.value), _half_squares(p.value))
    return [gauss_sum_float(k, p, _tables=tables) for k in range(1, p.value)]


def _chi_cot_sum(prof: ResidueProfile) -> float:
    """sum_{k=1}^{p-1} chi(k) cot(k pi / p), the sum behind Lebesgue's and
    Berndt's formulas, with chi read from the residue table."""
    pv = prof.p.value
    pi = math.pi
    table = prof.qr_table
    return math.fsum(
        (1.0 if table[k] else -1.0) / math.tan(pi * k / pv) for k in range(1, pv)
    )


def lebesgue_float(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """Class number by Lebesgue's cotangent formula, against h_from_forms.

    (w/2) * (1 / (2 sqrt p)) * sum_{k=1}^{p-1} chi(k) cot(k pi / p), where
    w/2 = half_units(p) is the unit factor of the discriminant -p field.
    """
    pv = p.value
    total = _chi_cot_sum(profile or residue_profile(p))
    computed = half_units(p) * total / (2.0 * math.sqrt(pv))
    ref = float(h_from_forms(p))
    return _approx("lebesgue_formula", p, computed, ref, sum_tolerance(pv))


def berndt_m_float(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """Berndt's cotangent form of the weighted sum M = sum chi(k) k.

    (sqrt(p)/2) * sum_{k=1}^{p-1} chi(k) cot(k pi / p) evaluates to -M(p)
    (the published statement drops the sign), so the reference is -m_sum.
    """
    prof = profile or residue_profile(p)
    pv = p.value
    computed = math.sqrt(pv) / 2.0 * _chi_cot_sum(prof)
    ref = float(-prof.m_sum)
    return _approx("berndt_sum", p, computed, ref, sum_tolerance(pv))


def float_checks(p: OddPrime, profile: ResidueProfile | None = None) -> list[FloatCheckResult]:
    """The float suite of one prime, in a fixed order: the two half-range
    sums (which vanish at p = 1 (mod 4)), then at p = 3 (mod 4) Whiteman's
    sum and Lebesgue's and Berndt's formulas."""
    checks = [t_float, c_float]
    if p.class_mod4 == 3:
        checks += [whiteman_sum, lebesgue_float, berndt_m_float]
    return [check(p, profile) for check in checks]


def _bound(name: str, p: OddPrime, bound_value: float, magnitude: float,
           strict_ok: bool) -> FloatCheckResult:
    return FloatCheckResult(
        name=name,
        p=p,
        computed=bound_value,
        reference=magnitude,
        residual=max(0.0, magnitude - bound_value),
        tolerance=0.0,
        passed=strict_ok,
    )


def bound_harmonic(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """Strict bound |T(p)| < (2 p sqrt(p) / pi) * (1 + ln(p-2)/2).

    Comes from bounding each |tan| by the reciprocal of its distance to
    pi/2 and summing the odd-denominator harmonic series.
    """
    pv = p.value
    t = abs(t_exact(p, profile))
    bound_value = (2.0 * pv * math.sqrt(pv) / math.pi) * (1.0 + 0.5 * math.log(pv - 2))
    return _bound("harmonic_bound", p, bound_value, float(t), t < bound_value)


def bound_pv(p: OddPrime, profile: ResidueProfile | None = None) -> FloatCheckResult:
    """Polya-Vinogradov: |sum_{k<=(p-1)/2} chi(k)| < sqrt(p) ln p, and with
    it |T(p)| < p^(3/2) ln p.  Both strict."""
    prof = profile or residue_profile(p)
    pv = p.value
    half = abs(prof.half_sum)
    t = abs(t_exact(p, prof))
    bound_value = math.sqrt(pv) * math.log(pv)
    ok = half < bound_value and t < pv**1.5 * math.log(pv)
    return _bound("polya_vinogradov_bound", p, bound_value, float(half), ok)
