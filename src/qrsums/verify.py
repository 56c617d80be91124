"""Range verification: every identity, both exact routes, one report.

For each prime p = 3 (mod 4) in range the full exact invariant suite runs
(residue statistics, the interval and parity laws, the table checks, the
record checks, the strict bounds).  The record checks, check_record, need
no table: the six T routes, the shapes of T and C, both class number
routes, and C and T against p*h.  scan and report run them too, on every
row and record they print.  With floats enabled the defining trigonometric
expressions are re-evaluated in double precision for primes up to a cap,
including the vanishing checks at p = 1 (mod 4) and the exponential sums
for small p.

Independently of the range, the three published-form discrepancies are
re-derived at p = 7 and p = 11 and the corrected forms confirmed; the
p = 7 (mod 8) branch misprint can only show itself at p = 7 of the two.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from . import analytic
from .arith import OddPrime, primes_in_range
from .classnum import h_from_forms, h_from_residues, half_units
from .residues import ResidueProfile, chi_sum, ones, residue_profile
from .sums import ERRATA, SumRecord, sum_record, t_exact, t_from_m

ERRATA_PRIMES = (7, 11)

# the default --float-cap: float checks run for primes up to it
FLOAT_CAP = 10_000

# exponential sums are O(p^2) per prime; cap them independently of float_cap
GAUSS_CAP = 500


class Failure(NamedTuple):
    p: int
    check: str
    expected: Any
    actual: Any


class ErratumConfirmation(NamedTuple):
    identity: str
    prime: int
    published_value: int
    corrected_value: int
    exact_value: int
    discrepant: bool


class VerifyReport:
    """One verify run: its range, the checks it ran and what they found."""

    def __init__(self, range: tuple[int, int]) -> None:
        self.range = range
        self.primes_checked = 0
        self.checks_run = 0
        self.failures: list[Failure] = []
        self.errata_confirmations: list[ErratumConfirmation] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, p: int, check: str, expected: Any, actual: Any) -> None:
        self.checks_run += 1
        if expected != actual:
            self.failures.append(Failure(p, check, expected, actual))

    def expect_true(self, p: int, check: str, ok: bool, detail: Any = "violated") -> None:
        self.checks_run += 1
        if not ok:
            self.failures.append(Failure(p, check, "holds", detail))


def check_record(
    p: OddPrime, prof: ResidueProfile, sums: SumRecord, h: int, rec: VerifyReport
) -> None:
    """The checks of p's values into rec, which scan and report run too: T by
    its six routes and its shape, C's shape, h by both routes, C and T by h."""
    pv, t, c = p.value, sums.t_value, sums.c_value
    # six routes to T
    rec.expect(pv, "t_route_alternating_full", t, sums.t_expr[0])
    rec.expect(pv, "t_route_alternating_half", t, sums.t_expr[1])
    rec.expect(pv, "t_route_odd_index", t, sums.t_expr[2])
    rec.expect(pv, "t_route_half_sum", t, sums.t_expr[3])
    rec.expect(pv, "t_route_interval", t, sums.t_expr[4])
    rec.expect(pv, "t_route_weighted", t, t_from_m(p, prof))

    # T shape: odd multiple of p, exactly one factor of p, sign by class
    rec.expect(pv, "t_multiple_of_p", 0, t % pv)
    rec.expect_true(pv, "t_quotient_odd", (t // pv) % 2 != 0, t)
    rec.expect_true(pv, "t_quotient_coprime_p", (t // pv) % pv != 0, t)
    rec.expect_true(pv, "t_sign", (t > 0) == (p.class_mod8 == 3), t)

    # C shape and the class number chain
    rec.expect_true(pv, "c_positive_odd", c > 0 and c % 2 == 1, c)
    if pv > 3:
        rec.expect(pv, "c_multiple_of_p", 0, c % pv)
        rec.expect_true(pv, "c_single_factor_p", (c // pv) % pv != 0, c)
    rec.expect(pv, "h_routes_agree", h, h_from_residues(p, prof))
    rec.expect_true(pv, "h_positive_odd", h > 0 and h % 2 == 1, h)
    units = half_units(p)
    rec.expect(pv, "c_vs_h", pv * h, c * units)
    t_from_h = -pv * h if p.class_mod8 == 7 else 3 * pv * h // units
    rec.expect(pv, "t_vs_h", t_from_h, t)


def _check_exact(p: OddPrime, rec: VerifyReport) -> tuple[ResidueProfile, int]:
    """Run the exact suite; return the profile and forms-route h it built."""
    pv = p.value
    prof = residue_profile(p)
    sums = sum_record(p, prof)
    half = (pv - 1) // 2

    # table and count sanity
    rec.expect(pv, "residue_count", half, prof.q_o + prof.q_e)
    rec.expect_true(pv, "residue_count_odd", (prof.q_o + prof.q_e) % 2 == 1)
    table = prof.qr_table
    rec.expect(pv, "table_count", half, ones(table))
    # bit k-1 of low is table[k] and bit k-1 of high is table[p-k], k <= half
    low = int.from_bytes(table[1 : half + 1], "little")
    high = int.from_bytes(table[pv - 1 : half : -1], "little")
    rec.expect_true(pv, "table_negation", not low & high)

    # parity gap and its sign law
    gap = prof.q_o - prof.q_e
    rec.expect_true(pv, "gap_odd", gap % 2 == 1, gap)
    rec.expect_true(
        pv, "gap_sign", (gap > 0) == (p.class_mod8 == 3), (gap, p.class_mod8)
    )
    if p.class_mod8 == 3 and pv > 3:
        rec.expect(pv, "gap_divisible_3", 0, gap % 3)

    # signed sums
    rec.expect_true(pv, "half_sum_positive", prof.half_sum > 0, prof.half_sum)
    rec.expect_true(pv, "m_negative", prof.m_sum < 0, prof.m_sum)
    rec.expect(pv, "a_vs_half_sum", -prof.chi(2) * prof.half_sum, prof.a_sum)

    # interval law: one side vanishes, the other is positive
    if p.class_mod8 == 3:
        rec.expect(pv, "interval_low_zero", 0, prof.s_low)
        rec.expect_true(pv, "interval_high_positive", prof.s_high > 0, prof.s_high)
    else:
        rec.expect(pv, "interval_high_zero", 0, prof.s_high)
        rec.expect_true(pv, "interval_low_positive", prof.s_low > 0, prof.s_low)

    # even residue counts: closed forms and the split
    rec.expect(
        pv, "even_split", prof.q_e, prof.even_below_half + prof.even_above_half
    )
    if p.class_mod8 == 3:
        rec.expect(pv, "even_below_closed_form", (pv - 3) // 8, prof.even_below_half)
    else:
        rec.expect(pv, "even_above_closed_form", (pv + 1) // 8, prof.even_above_half)

    # the even/odd numerator identity over [1, (p-1)/2]
    chi2 = prof.chi(2)
    odd_part = chi_sum(table, 1, half + 1, 2)
    even_part = chi_sum(table, 2, half + 1, 2)
    rec.expect(
        pv,
        "numerator_identity",
        (1 + chi2) * odd_part,
        (1 - chi2) * even_part,
    )

    hf = h_from_forms(p)
    check_record(p, prof, sums, hf, rec)

    # strict bounds
    hb = analytic.bound_harmonic(p, prof)
    rec.expect_true(pv, hb.name, hb.passed, (hb.reference, hb.computed))
    pvb = analytic.bound_pv(p, prof)
    rec.expect_true(pv, pvb.name, pvb.passed, (pvb.reference, pvb.computed))
    return prof, hf


def _float_detail(r: analytic.FloatCheckResult) -> tuple:
    return (r.computed, r.reference, r.residual, r.tolerance)


def _check_float_class3(
    p: OddPrime, rec: VerifyReport, prof: ResidueProfile, h: int
) -> None:
    checks = analytic.float_checks(p, prof, h)
    for r in checks:
        rec.expect_true(p.value, r.name, r.passed, _float_detail(r))
    tf, _, _, leb, _ = checks
    gap = prof.q_o - prof.q_e
    rec.expect(p.value, "tangent_sum_rounds", gap, round(tf.computed / p.value))
    rec.expect(p.value, "lebesgue_rounds_to_h", h, round(leb.computed))
    if p.value <= GAUSS_CAP:
        for g in analytic.gauss_sum_checks(p):
            rec.expect_true(p.value, g.name, g.passed, _float_detail(g))


def _check_float_class1(p: OddPrime, rec: VerifyReport) -> None:
    for r in analytic.float_checks(p):
        rec.expect_true(p.value, "vanishing_" + r.name, r.passed, _float_detail(r))


def confirm_errata(rec: VerifyReport, held: dict[int, ResidueProfile]) -> None:
    """Re-derive the published-form discrepancies at p = 7 and p = 11 into rec.

    Each prime's profile is taken from held, by p, or else built here once.
    The corrected form must equal t_exact everywhere; the published form
    must differ exactly where the misprinted branch applies.
    """
    profiles = [held.get(pv) or residue_profile(OddPrime(pv)) for pv in ERRATA_PRIMES]
    for e in ERRATA:
        for prof in profiles:
            p, pv = prof.p, prof.p.value
            published = e.published(p, prof)
            corrected = e.corrected(p, prof)
            exact = t_exact(p, prof)
            discrepant = published != exact
            rec.expect(pv, f"errata_corrected[{e.identity}]", exact, corrected)
            rec.expect(pv, f"errata_published[{e.identity}]", e.applies(p), discrepant)
            rec.errata_confirmations.append(
                ErratumConfirmation(
                    identity=e.identity,
                    prime=pv,
                    published_value=published,
                    corrected_value=corrected,
                    exact_value=exact,
                    discrepant=discrepant,
                )
            )


def run_verify(
    lo: int, hi: int, with_float: bool = False, float_cap: int = FLOAT_CAP
) -> VerifyReport:
    """The exact suite on each prime p = 3 (mod 4) in [lo, hi], with_float the
    float suite on each odd prime up to float_cap (< 2^32), and the errata."""
    if float_cap >= 1 << 32:
        raise ValueError(f"float_cap must be < 2^32, got {float_cap}")
    rec = VerifyReport((lo, hi))
    primes3 = primes_in_range(max(lo, 3), hi, mod4=3)
    rec.primes_checked = len(primes3)
    held = {}  # the errata primes' profiles, where the range holds them
    for p in primes3:
        prof, h = _check_exact(p, rec)
        if with_float and p.value <= float_cap:
            _check_float_class3(p, rec, prof, h)
        if p.value in ERRATA_PRIMES:
            held[p.value] = prof
    if with_float and min(hi, float_cap) >= lo:
        for p in primes_in_range(max(lo, 3), min(hi, float_cap), mod4=1):
            _check_float_class1(p, rec)
    confirm_errata(rec, held)
    return rec
