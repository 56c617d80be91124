"""Floating-point layer: defining expressions against exact references."""

import math

import pytest

from qrsums import (
    InvariantError,
    OddPrime,
    berndt_m_float,
    bound_harmonic,
    bound_pv,
    c_float,
    gauss_sum_checks,
    gauss_tolerance,
    h_from_forms,
    lebesgue_float,
    primes_in_range,
    residue_profile,
    t_exact,
    t_float,
    whiteman_sum,
)
from qrsums import analytic
from qrsums.analytic import float_checks, trig_bound

from oracles import naive_gauss_sum, naive_trig_sums


# ---- tolerance policy --------------------------------------

EPS = 2.0**-52


def check_bounds(pv):
    """Each trig check's tolerance, as its call site scales trig_bound."""
    root_p = math.sqrt(pv)
    units = 3 if pv == 3 else 1
    return {
        "tangent_sum": trig_bound(pv, root_p, False, True),
        "cotangent_sum": trig_bound(pv, root_p, True, True),
        "whiteman_sum": trig_bound(pv, 1.0, True, False),
        "lebesgue_formula": trig_bound(pv, units / (2.0 * root_p), True, False),
        "berndt_sum": trig_bound(pv, root_p / 2.0, True, False),
    }


def test_tolerance_policy():
    # n terms and S >= sum f^2: p - 1 and the full sums, or half of both
    # over the residues at p = 3 (mod 4); p = 1 (mod 4) keeps the full S
    assert trig_bound(7, 1.0, False, False) / EPS == pytest.approx(
        3 * math.pi * (6 + 42) + 4 * math.sqrt(6 * 42))
    assert trig_bound(7, 2.0, True, True) / EPS == pytest.approx(
        2.0 * (3 * math.pi * (3 + 5) + 4 * math.sqrt(3 * 5)))
    assert trig_bound(13, 1.0, False, True) / EPS == pytest.approx(
        3 * math.pi * (6 + 156) + 4 * math.sqrt(6 * 156))
    assert gauss_tolerance(500) == pytest.approx(5e-7)


def test_bound_rests_on_sums_of_squares():
    for p in primes_in_range(3, 300):
        pv = p.value
        tan2 = [math.tan(math.pi * k / pv) ** 2 for k in range(1, pv)]
        assert math.fsum(tan2) == pytest.approx(pv * (pv - 1), rel=1e-9)
        assert math.fsum(1 / t for t in tan2) == pytest.approx((pv - 1) * (pv - 2) / 3, rel=1e-9)
        if p.class_mod4 == 3:
            table = residue_profile(p).qr_table
            share = math.fsum(t for k, t in enumerate(tan2, 1) if table[k])
            assert share == pytest.approx(pv * (pv - 1) / 2, rel=1e-9)
    # at p = 1 (mod 4) the residues may hold well over half: no halving there
    pv = 2953
    squares = {n * n % pv for n in range(1, pv)}
    share = math.fsum(math.tan(math.pi * k / pv) ** 2 for k in squares)
    assert share > 1.8 * pv * (pv - 1) / 2


def test_residuals_within_half_their_bound():
    # a bound that dropped a term the rounding needs would be reached here
    primes = [*primes_in_range(3, 4000), *map(OddPrime, (10007, 99991, 115979, 115981))]
    for p in primes:
        bounds = check_bounds(p.value)
        for r in float_checks(p):
            assert r.tolerance == bounds[r.name], (p, r.name)
            assert r.residual <= 0.5 * r.tolerance, (p, r)


def test_bounds_decide_their_targets():
    # each bound stays below half the spacing of its exact target (T, C and
    # -M are multiples of p, 2 C / sqrt(p) of 2 sqrt(p), h is an integer), up
    # to the largest prime below 2^32, where every ratio is at its largest
    sweep = [*primes_in_range(3, 20000, mod4=3)]
    for lo in (10**5, 10**6, 10**7, 10**8, 10**9):
        sweep += primes_in_range(lo, lo + 200, mod4=3)
    for p in [*sweep, OddPrime(4294967291)]:
        pv = p.value
        b = check_bounds(pv)
        assert max(b["tangent_sum"], b["cotangent_sum"], b["berndt_sum"]) < pv / 2, pv
        assert b["whiteman_sum"] < math.sqrt(pv), pv
        assert b["lebesgue_formula"] < 0.5, pv


def test_bounds_tighter_than_the_old_tolerance():
    # nothing was loosened: where float checks used to run, every bound is
    # below the former tau(p) = max(1e-9 p^1.5 (1 + ln p), 1e-9)
    for p in primes_in_range(3, 115966):
        pv = p.value
        tau = max(1e-9 * pv**1.5 * (1.0 + math.log(pv)), 1e-9)
        assert max(check_bounds(pv).values()) < tau, pv


# ---- tangent and cotangent sums ------------------------------------------

def test_t_float_spot():
    r3 = t_float(OddPrime(3))
    assert r3.reference == 3 and r3.passed and abs(r3.computed - 3) < 1e-12
    r7 = t_float(OddPrime(7))
    assert r7.reference == -7 and r7.passed
    r5 = t_float(OddPrime(5))
    assert r5.reference == 0 and r5.passed  # vanishes for p = 1 (mod 4)


def test_c_float_spot():
    assert c_float(OddPrime(3)).reference == 1
    assert c_float(OddPrime(7)).reference == 7
    assert c_float(OddPrime(13)).reference == 0
    assert all(c_float(OddPrime(p)).passed for p in (3, 5, 7, 11, 13, 23))


def test_float_suite_to_2000_both_classes():
    for p in primes_in_range(3, 2000):
        prof = residue_profile(p) if p.class_mod4 == 3 else None
        tf = t_float(p, prof)
        cf = c_float(p, prof)
        assert tf.passed and cf.passed, p.value
        assert tf.residual <= tf.tolerance == check_bounds(p.value)["tangent_sum"]
        if p.class_mod4 == 3:
            # rounding the float recovers the exact residue-count gap
            assert round(tf.computed / p.value) == prof.q_o - prof.q_e


def test_float_checks_names():
    assert [r.name for r in float_checks(OddPrime(13))] == ["tangent_sum", "cotangent_sum"]
    p = OddPrime(23)
    checks = float_checks(p, residue_profile(p))
    assert [r.name for r in checks] == [
        "tangent_sum", "cotangent_sum", "whiteman_sum", "lebesgue_formula", "berndt_sum",
    ]
    assert checks == float_checks(p) and all(r.passed for r in checks)


def test_float_sums_match_term_by_term_oracle():
    # the passes read shared angle tables in their own order; fsum rounds
    # correctly, so each computed value must be the naive sum to the last bit
    for p in [*primes_in_range(3, 3000), *map(OddPrime, (9973, 10007, 99991))]:
        computed = {r.name: r.computed for r in float_checks(p)}
        assert computed == naive_trig_sums(p.value), p


class CountingMath:
    """Stands in for the math module inside qrsums.analytic, counting tan."""

    def __init__(self):
        self.tan_calls = 0

    def tan(self, x):
        self.tan_calls += 1
        return math.tan(x)

    def __getattr__(self, name):
        return getattr(math, name)


@pytest.mark.parametrize("pv", [23, 29, 9187])
def test_each_check_makes_its_own_tan_calls(monkeypatch, pv):
    # the angles are shared, the tan calls are not: one per term per check
    counting = CountingMath()
    monkeypatch.setattr(analytic, "math", counting)
    p = OddPrime(pv)
    prof = residue_profile(p) if p.class_mod4 == 3 else None
    want = [(t_float, (pv - 1) // 2), (c_float, (pv - 1) // 2)]
    if p.class_mod4 == 3:
        want += [(whiteman_sum, pv - 1), (lebesgue_float, pv - 1), (berndt_m_float, pv - 1)]
    for check, calls in want:
        counting.tan_calls = 0
        check(p, prof)
        assert counting.tan_calls == calls, (pv, check.__name__)


def clear_angle_tables():
    analytic._square_angles.cache_clear()
    analytic._unit_angles.cache_clear()


def test_angle_tables_built_once_per_prime():
    clear_angle_tables()
    float_checks(OddPrime(23))
    squares, units = analytic._square_angles.cache_info(), analytic._unit_angles.cache_info()
    assert (squares.misses, squares.hits) == (1, 2)  # tangent; cotangent, Whiteman
    assert (units.misses, units.hits) == (1, 1)  # Lebesgue; Berndt


def test_angle_tables_never_stale():
    def fresh(pv):
        clear_angle_tables()
        return float_checks(OddPrime(pv))

    want = {pv: fresh(pv) for pv in (23, 29, 31)}
    for pv in (23, 29, 23, 31, 23):
        assert float_checks(OddPrime(pv)) == want[pv], pv


def test_whiteman_sum():
    w3 = whiteman_sum(OddPrime(3))
    assert w3.computed == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    w7 = whiteman_sum(OddPrime(7))
    assert w7.computed == pytest.approx(2 * math.sqrt(7), abs=1e-12)
    for p in primes_in_range(3, 1000, mod4=3):
        r = whiteman_sum(p)
        assert r.passed and r.computed > 0


# ---- exponential sums ----------------------------------------------------

def test_gauss_spot():
    g7 = gauss_sum_checks(OddPrime(7))
    assert g7[0].name == "gauss_sum(k=1)"
    assert g7[0].reference == complex(0, math.sqrt(7))
    assert g7[0].passed
    assert g7[3 - 1].reference == complex(0, -math.sqrt(7))
    assert g7[3 - 1].passed
    g3 = gauss_sum_checks(OddPrime(3))
    assert abs(g3[0].computed - complex(0, math.sqrt(3))) < 1e-12


def test_gauss_rejects():
    with pytest.raises(ValueError):
        gauss_sum_checks(OddPrime(13))


def test_gauss_cost_bound(monkeypatch):
    def never(x):
        raise AssertionError("root table started")

    monkeypatch.setattr(analytic.math, "cos", never)
    with pytest.raises(ValueError, match=r"p must be < 2\^14, got 16411"):
        gauss_sum_checks(OddPrime(16411))  # the least eligible prime above 2^14
    with pytest.raises(AssertionError):  # the largest eligible prime below 2^14 gets through
        gauss_sum_checks(OddPrime(16363))


def test_gauss_all_k_small():
    for pv in (3, 7, 11, 19, 23, 31):
        checks = gauss_sum_checks(OddPrime(pv))
        assert len(checks) == pv - 1
        assert all(c.passed for c in checks)


def test_gauss_results_listed_by_k():
    # the walk meets k in the order of the powers of g; the list is by k
    for p in primes_in_range(3, 400, mod4=3):
        names = [c.name for c in gauss_sum_checks(p)]
        assert names == [f"gauss_sum(k={k})" for k in range(1, p.value)], p


def test_gauss_walk_must_reach_every_k(monkeypatch):
    # 2 has order 3 mod 7: its powers 1, 2, 4 come back to 1 and miss 3, 5, 6
    monkeypatch.setattr(analytic, "primitive_root", lambda p: 2)
    with pytest.raises(InvariantError, match="repeat k = 1"):
        gauss_sum_checks(OddPrime(7))


def test_gauss_matches_term_by_term_oracle():
    # the kernel pairs j with p - j and sums (cos, sin) parts; fsum rounds
    # correctly, so the result must be the naive sum to the last bit
    for p in primes_in_range(3, 400, mod4=3):
        computed = [c.computed for c in gauss_sum_checks(p)]
        assert computed == [naive_gauss_sum(k, p.value) for k in range(1, p.value)], p


# ---- class number formulas -----------------------------------------------

def test_lebesgue_rounds_to_h():
    for pv in (3, 7, 11, 19, 23):
        p = OddPrime(pv)
        r = lebesgue_float(p)
        assert r.passed
        assert round(r.computed) == h_from_forms(p) == r.reference


def test_lebesgue_takes_the_callers_h(monkeypatch):
    # a caller that holds h passes it down, and the forms are not walked again
    p = OddPrime(23)
    h = h_from_forms(p)

    def never(p):
        raise AssertionError("forms enumerated twice")

    monkeypatch.setattr(analytic, "h_from_forms", never)
    r = lebesgue_float(p, h=h)
    assert r.passed and r.reference == h
    assert float_checks(p, h=h)[3] == r
    assert not lebesgue_float(p, h=h + 2).passed


def test_berndt_matches_minus_m():
    for pv in (3, 7, 11, 23, 31):
        p = OddPrime(pv)
        r = berndt_m_float(p)
        assert r.passed
        assert r.reference == -residue_profile(p).m_sum


def test_berndt_equals_p_h_beyond_three():
    for p in primes_in_range(5, 500, mod4=3):
        assert berndt_m_float(p).reference == p.value * h_from_forms(p)


# ---- bounds --------------------------------------------------------------

def test_bound_harmonic_spot():
    r3 = bound_harmonic(OddPrime(3))
    assert r3.computed == pytest.approx(6 * math.sqrt(3) / math.pi, abs=1e-9)
    assert r3.reference == 3 and r3.passed
    r11 = bound_harmonic(OddPrime(11))
    want = (2 * 11 * math.sqrt(11) / math.pi) * (1 + 0.5 * math.log(9))
    assert r11.computed == pytest.approx(want, abs=1e-9)
    assert r11.passed


def test_bounds_hold_to_2000():
    for p in primes_in_range(3, 2000, mod4=3):
        hb = bound_harmonic(p)
        assert hb.passed and abs(t_exact(p)) < hb.computed
        assert hb.residual == 0.0 and hb.tolerance == 0.0
        pb = bound_pv(p)
        assert pb.passed
        assert abs(t_exact(p)) < p.value**1.5 * math.log(p.value)


def test_angle_reduction_equivalence():
    # reduced and unreduced arguments agree while n^2 is still small enough
    # for the library tan to reduce accurately itself
    p = 101
    for n in (3, 17, 40, 50):
        reduced = math.tan(math.pi * (n * n % p) / p)
        unreduced = math.tan(math.pi * n * n / p)
        assert reduced == pytest.approx(unreduced, abs=1e-9)


def test_check_result_fields():
    r = t_float(OddPrime(7))
    assert r.name == "tangent_sum"
    assert r.residual == abs(r.computed - r.reference)
    assert r.passed == (r.residual <= r.tolerance)
