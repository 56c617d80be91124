"""Floating-point layer: defining expressions against exact references."""

import math

import pytest

from qrsums import (
    OddPrime,
    berndt_m_float,
    bound_harmonic,
    bound_pv,
    c_float,
    gauss_sum_checks,
    gauss_sum_float,
    gauss_tolerance,
    h_from_forms,
    lebesgue_float,
    primes_in_range,
    residue_profile,
    sum_tolerance,
    t_exact,
    t_float,
    whiteman_sum,
)
from qrsums.analytic import float_checks

from oracles import naive_gauss_sum


# ---- tolerance policy --------------------------------------

def test_tolerance_policy():
    assert sum_tolerance(3) == pytest.approx(1e-9 * 3**1.5 * (1 + math.log(3)))
    assert sum_tolerance(2) >= 1e-9  # floor
    # stays far below the spacing p of the integer values, so rounding
    # t_float / p can never be thrown off by a passing residual
    assert sum_tolerance(10_000) < 1.0
    assert sum_tolerance(101) > sum_tolerance(11)
    assert gauss_tolerance(500) == pytest.approx(5e-7)


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
        assert tf.residual <= tf.tolerance == sum_tolerance(p.value)
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
    p7 = OddPrime(7)
    g1 = gauss_sum_float(1, p7)
    assert g1.reference == complex(0, math.sqrt(7))
    assert g1.passed
    g3 = gauss_sum_float(3, p7)
    assert g3.reference == complex(0, -math.sqrt(7))
    assert g3.passed
    g13 = gauss_sum_float(1, OddPrime(3))
    assert abs(g13.computed - complex(0, math.sqrt(3))) < 1e-12


def test_gauss_reduces_k():
    p7 = OddPrime(7)
    assert gauss_sum_float(8, p7).reference == gauss_sum_float(1, p7).reference


def test_gauss_rejects():
    with pytest.raises(ValueError):
        gauss_sum_float(7, OddPrime(7))
    with pytest.raises(ValueError):
        gauss_sum_float(14, OddPrime(7))
    with pytest.raises(ValueError):
        gauss_sum_float(1, OddPrime(13))


def test_gauss_all_k_small():
    for pv in (3, 7, 11, 19, 23, 31):
        checks = gauss_sum_checks(OddPrime(pv))
        assert len(checks) == pv - 1
        assert all(c.passed for c in checks)


def test_gauss_matches_term_by_term_oracle():
    # the kernel pairs j with p - j and sums (cos, sin) parts; fsum rounds
    # correctly, so the result must be the naive sum to the last bit
    for p in primes_in_range(3, 400, mod4=3):
        computed = [c.computed for c in gauss_sum_checks(p)]
        assert computed == [naive_gauss_sum(k, p.value) for k in range(1, p.value)], p
    p727 = OddPrime(727)
    shared = gauss_sum_checks(p727)
    for k in (1, 2, 5, 363, 726):
        assert gauss_sum_float(k, p727) == shared[k - 1]


# ---- class number formulas -----------------------------------------------

def test_lebesgue_rounds_to_h():
    for pv in (3, 7, 11, 19, 23):
        p = OddPrime(pv)
        r = lebesgue_float(p)
        assert r.passed
        assert round(r.computed) == h_from_forms(p) == r.reference


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
    assert r.p.value == 7
    assert r.residual == abs(r.computed - r.reference)
    assert r.passed == (r.residual <= r.tolerance)
