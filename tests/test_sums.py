"""The tangent/cotangent sum integers and their six agreeing routes."""

import math

import pytest

from qrsums import (
    ERRATA,
    OddPrime,
    c_exact,
    primes_in_range,
    published_t3,
    published_t5,
    published_t_from_m,
    residue_profile,
    sum_record,
    t_exact,
    t_expressions,
    t_from_m,
)

from oracles import LARGE_SAMPLE, t_value


def test_t_exact_spot():
    assert t_exact(OddPrime(3)) == 3
    assert t_exact(OddPrime(7)) == -7
    assert t_exact(OddPrime(11)) == 33
    assert t_exact(OddPrime(19)) == 57
    assert t_exact(OddPrime(23)) == -69


def test_t_exact_against_trig():
    # the defining sum, in floats, for the smallest case:
    # sqrt(3) * tan(pi/3) = 3
    assert math.isclose(math.sqrt(3) * math.tan(math.pi / 3), 3.0, abs_tol=1e-12)
    p = 23
    direct = math.sqrt(p) * sum(
        math.tan(math.pi * (n * n % p) / p) for n in range(1, (p - 1) // 2 + 1)
    )
    assert math.isclose(direct, -69.0, abs_tol=1e-9)


def test_t_expressions_spot():
    assert t_expressions(OddPrime(3)) == (3, 3, 3, 3, 3)
    assert t_expressions(OddPrime(7)) == (-7, -7, -7, -7, -7)
    assert t_expressions(OddPrime(11)) == (33, 33, 33, 33, 33)


def test_c_exact_spot():
    assert c_exact(OddPrime(3)) == 1
    assert c_exact(OddPrime(7)) == 7
    assert c_exact(OddPrime(11)) == 11
    assert c_exact(OddPrime(23)) == 69


def test_t_from_m_spot():
    assert t_from_m(OddPrime(7)) == -7
    assert t_from_m(OddPrime(11)) == 33
    assert t_from_m(OddPrime(19)) == 57


def test_class1_rejected():
    with pytest.raises(ValueError):
        t_exact(OddPrime(13))
    with pytest.raises(ValueError):
        c_exact(OddPrime(5))


def test_all_routes_agree_small():
    for p in primes_in_range(3, 3000, mod4=3):
        prof = residue_profile(p)
        t = t_exact(p, prof)
        assert t == t_value(p.value)  # oracle route
        assert all(e == t for e in t_expressions(p, prof))
        assert t_from_m(p, prof) == t


@pytest.mark.parametrize("pv", LARGE_SAMPLE)
def test_all_routes_agree_large(pv):
    p = OddPrime(pv)
    prof = residue_profile(p)
    t = t_exact(p, prof)
    assert all(e == t for e in t_expressions(p, prof))
    assert t_from_m(p, prof) == t


def test_t_shape():
    for p in primes_in_range(3, 3000, mod4=3):
        t = t_exact(p)
        q = t // p.value
        assert t % p.value == 0
        assert q % 2 == 1  # odd multiple
        assert q % p.value != 0  # exactly one factor of p
        assert (t > 0) == (p.class_mod8 == 3)


def test_c_shape():
    for p in primes_in_range(3, 3000, mod4=3):
        c = c_exact(p)
        assert c > 0 and c % 2 == 1
        if p.value > 3:
            assert c % p.value == 0
            assert (c // p.value) % p.value != 0
    assert c_exact(OddPrime(3)) == 1  # not a multiple of 3


def test_c_vs_t_relation():
    for p in primes_in_range(3, 2000, mod4=3):
        t, c = t_exact(p), c_exact(p)
        if p.class_mod8 == 7:
            assert c == -t
        else:
            assert 3 * c == t


def test_sum_record_coherent():
    p = OddPrime(23)
    rec = sum_record(p)
    assert rec.p is p
    assert rec.t_value == -69
    assert rec.c_value == 69
    assert rec.t_expr == (-69,) * 5


# ---- published forms and the errata registry -----------------------------

def test_published_forms_spot():
    p7, p11 = OddPrime(7), OddPrime(11)
    assert published_t3(p7) == -14
    assert published_t3(p11) == 66
    assert published_t_from_m(p7) == 7
    assert published_t_from_m(p11) == -33
    assert published_t5(p7) == 7
    assert published_t5(p11) == 33  # p = 3 (mod 8) branch has no misprint


def test_errata_registry():
    assert [e.identity for e in ERRATA] == [
        "odd_sum_coefficient",
        "weighted_sum_signs",
        "low_interval_sign",
    ]
    for e in ERRATA:
        for pv in (7, 11):
            p = OddPrime(pv)
            corrected = e.corrected(p)
            published = e.published(p)
            assert corrected == t_exact(p)
            if e.applies(p):
                assert published != corrected
            else:
                assert published == corrected


def test_published_forms_disagree_on_a_range():
    # the two always-applicable misprints change the value at every prime;
    # the interval misprint changes it on the p = 7 (mod 8) branch only
    for p in primes_in_range(3, 500, mod4=3):
        t = t_exact(p)
        assert published_t3(p) == 2 * t
        assert published_t_from_m(p) == -t
        if p.class_mod8 == 7:
            assert published_t5(p) == -t
        else:
            assert published_t5(p) == t
