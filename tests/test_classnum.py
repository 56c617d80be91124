"""Class numbers: form enumeration against residue counts and known values."""

import math

import pytest

from qrsums import (
    InvariantError,
    OddPrime,
    c_exact,
    h_from_forms,
    h_from_residues,
    primes_in_range,
    reduced_forms,
    residue_profile,
)
from qrsums import classnum
from qrsums.classnum import half_units

from oracles import LARGE_SAMPLE, reduced_forms_bruteforce

# classical class numbers of discriminant -p
KNOWN_H = {
    3: 1, 7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 59: 3,
    67: 1, 71: 7, 79: 5, 83: 3, 103: 5, 127: 5, 163: 1, 227: 5,
}


def test_reduced_forms_spot():
    assert [(f.a, f.b, f.c) for f in reduced_forms(OddPrime(3))] == [(1, 1, 1)]
    assert [(f.a, f.b, f.c) for f in reduced_forms(OddPrime(7))] == [(1, 1, 2)]
    assert [(f.a, f.b, f.c) for f in reduced_forms(OddPrime(23))] == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]


def test_reduced_forms_match_bruteforce():
    # the oracle tries every b, even ones included, and sorts its list: so
    # this pins the order, the odd b, the exact c and the absence of
    # duplicates that reduced_forms relies on its loops for
    primes = list(primes_in_range(3, 1000, mod4=3)) + [OddPrime(pv) for pv in LARGE_SAMPLE]
    for p in primes:
        got = [(f.a, f.b, f.c) for f in reduced_forms(p)]
        assert got == reduced_forms_bruteforce(p.value)


def test_form_invariants():
    for p in primes_in_range(3, 2000, mod4=3):
        for f in reduced_forms(p):
            assert f.discriminant == -p.value
            assert f.a > 0
            assert abs(f.b) <= f.a <= f.c
            assert math.gcd(f.a, f.b, f.c) == 1
            assert f.b % 2 != 0
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0


def test_imprimitive_form_is_an_invariant_error(monkeypatch):
    # the enumeration's own gcd is the only primitivity check
    monkeypatch.setattr(classnum, "gcd", lambda *args: 2)
    with pytest.raises(InvariantError, match="imprimitive form"):
        reduced_forms(OddPrime(23))


def test_form_beyond_the_a_bound_is_an_invariant_error(monkeypatch):
    # one below the true bound leaves the a = 2 forms of p = 23 to the probe
    monkeypatch.setattr(classnum, "isqrt", lambda n: math.isqrt(n) - 1)
    with pytest.raises(InvariantError, match="form found beyond the a-bound"):
        reduced_forms(OddPrime(23))


def test_reduced_forms_rejects_class1():
    with pytest.raises(ValueError):
        reduced_forms(OddPrime(13))


def test_known_class_numbers():
    for pv, h in KNOWN_H.items():
        p = OddPrime(pv)
        assert h_from_forms(p) == h
        assert h_from_residues(p, residue_profile(p)) == h
        assert len(reduced_forms_bruteforce(pv)) == h  # oracle agrees


def test_h_routes_agree_small():
    for p in primes_in_range(3, 3000, mod4=3):
        assert h_from_forms(p) == h_from_residues(p, residue_profile(p))


@pytest.mark.parametrize("pv", LARGE_SAMPLE[:4])
def test_h_routes_agree_large(pv):
    p = OddPrime(pv)
    assert h_from_forms(p) == h_from_residues(p, residue_profile(p))


def test_h_odd_positive():
    for p in primes_in_range(3, 3000, mod4=3):
        h = h_from_forms(p)
        assert h > 0 and h % 2 == 1


def test_h_vs_c():
    # C = p h, except p = 3 where the six units contribute a factor 3
    for p in primes_in_range(3, 2000, mod4=3):
        c = c_exact(p, residue_profile(p))
        h = h_from_forms(p)
        if p.value == 3:
            assert 3 * c == p.value * h
        else:
            assert c == p.value * h


def test_h_at_three_carries_unit_factor():
    # (q_o - q_e)/3 would be 1/3 at p=3; the six units of the discriminant
    # -3 field scale the count formula back to the true value 1
    assert h_from_residues(OddPrime(3), residue_profile(OddPrime(3))) == 1
    assert h_from_forms(OddPrime(3)) == 1
    assert half_units(OddPrime(3)) == 3
    assert all(half_units(p) == 1 for p in primes_in_range(5, 200, mod4=3))


# the exact routes' proof-level guards, reached through a doctored profile

def test_gap_not_divisible_by_3_is_an_invariant_error():
    p = OddPrime(11)
    prof = residue_profile(p)
    bad = prof._replace(q_o=prof.q_o + 1)
    with pytest.raises(InvariantError, match="not divisible by 3"):
        c_exact(p, bad)
    with pytest.raises(InvariantError, match="not divisible by 3"):
        h_from_residues(p, bad)


def test_nonpositive_class_number_is_an_invariant_error():
    p = OddPrime(7)
    prof = residue_profile(p)
    with pytest.raises(InvariantError, match="nonpositive"):
        h_from_residues(p, prof._replace(q_e=prof.q_o))
