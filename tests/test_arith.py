"""Substrate tests: is_prime, OddPrime, legendre, primes_in_range."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsums import OddPrime, is_prime, legendre, primes_in_range
from qrsums import arith
from qrsums.arith import primitive_root

from oracles import legendre_euler, sieve_flags, square_set, trial_is_prime


# ---- is_prime ------------------------------------------------------------

def test_is_prime_small():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    assert is_prime(7919)
    assert not is_prime(7917)


@pytest.mark.parametrize("bad", [7.5, 8.5, 7.0, Fraction(7), 10007.0],
                         ids=["7.5", "8.5", "7.0", "Fraction(7)", "10007.0"])
def test_is_prime_takes_only_integers(bad):
    # trial division ran its % tests on a float and called 7.5 and 8.5 prime
    with pytest.raises(TypeError):
        is_prime(bad)


def test_is_prime_strong_pseudoprime():
    # strong pseudoprime to bases 2, 3, 5, 7: must still be rejected
    n = 3_215_031_751
    assert not is_prime(n)
    assert n % 151 == 0  # witnessed composite


# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to all
# twelve witness bases; it lies above 2^64, where is_prime claims nothing
PSI_12 = 318_665_857_834_031_151_167_461


def test_is_prime_range_ends_at_2_to_64():
    largest = (1 << 64) - 59  # the largest prime below 2^64
    assert is_prime(largest) and not is_prime(largest - 2)
    assert OddPrime(largest).value == largest
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    for n in (1 << 64, PSI_12):
        with pytest.raises(ValueError, match="below 2\\^64"):
            is_prime(n)
        with pytest.raises(ValueError):
            OddPrime(n)


def test_is_prime_matches_sieve_to_1e6():
    limit = 1_000_000
    flags = sieve_flags(limit)
    mismatches = [n for n in range(limit + 1) if bool(flags[n]) != is_prime(n)]
    assert mismatches == []


def test_is_prime_across_trial_division_boundary():
    for n in range(9_990, 10_011):
        assert is_prime(n) == trial_is_prime(n)


@given(st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=300)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_is_prime(n)


# ---- OddPrime ------------------------------------------------------------

def test_odd_prime_classes():
    p = OddPrime(23)
    assert (p.value, p.class_mod4, p.class_mod8) == (23, 3, 7)
    assert (OddPrime(11).class_mod4, OddPrime(11).class_mod8) == (3, 3)
    assert (OddPrime(13).class_mod4, OddPrime(13).class_mod8) == (1, 5)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 3_215_031_751])
def test_odd_prime_rejects(bad):
    with pytest.raises(ValueError):
        OddPrime(bad)


@pytest.mark.parametrize("bad", [7.0, Fraction(11)], ids=["float", "Fraction"])
def test_odd_prime_takes_only_integers(bad):
    # equal to a prime, but a record built from it would hold a float or a
    # Fraction where every layer expects an int
    with pytest.raises(TypeError):
        OddPrime(bad)


def test_odd_prime_is_an_immutable_value():
    p = OddPrime(23)
    assert p == OddPrime(23) and hash(p) == hash(OddPrime(23))
    assert p != OddPrime(19)
    assert repr(p) == "OddPrime(value=23, class_mod4=3, class_mod8=7)"
    with pytest.raises(AttributeError):
        p.value = 5
    with pytest.raises(AttributeError):
        p.extra = 1  # no instance dict either
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(ValueError):
        OddPrime(9)
    # a copy with a new value is checked, and its classes follow the value
    assert p._replace(value=13) == OddPrime(13)
    with pytest.raises(ValueError):
        p._replace(value=9)


def test_unpickled_odd_prime_is_checked_again():
    # a pool worker unpickles its primes; each must pass OddPrime's check there
    forged = tuple.__new__(OddPrime, (9, 1, 1))
    with pytest.raises(ValueError, match="9 is not an odd prime"):
        pickle.loads(pickle.dumps(forged))


# ---- legendre ------------------------------------------------------------

def test_legendre_spot():
    p7 = OddPrime(7)
    assert legendre(1, p7) == 1
    assert legendre(3, p7) == -1
    assert legendre(7, p7) == 0
    assert legendre(2, p7) == 1
    assert legendre(10, p7) == -1  # reduction mod p first: (3|7)
    assert legendre(2, OddPrime(23)) == 1
    assert legendre(2, OddPrime(11)) == -1


def test_legendre_agrees_with_square_sets():
    for p in primes_in_range(3, 600):
        squares = square_set(p.value)
        for k in range(1, p.value):
            assert (legendre(k, p) == 1) == (k in squares)


def test_legendre_agrees_with_square_set_large():
    p = OddPrime(99991)
    squares = square_set(p.value)
    for k in range(1, p.value, 97):
        assert (legendre(k, p) == 1) == (k in squares)


def test_legendre_multiplicative():
    for p in primes_in_range(3, 60):
        for a in range(1, p.value):
            for b in range(1, p.value):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_minus_one():
    # (-1|p) = -1 exactly for p = 3 (mod 4)
    for p in primes_in_range(3, 2000):
        expected = -1 if p.class_mod4 == 3 else 1
        assert legendre(p.value - 1, p) == expected


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_legendre_reduction(k):
    p = OddPrime(101)
    assert legendre(k, p) == legendre_euler(k, 101)


# ---- primes_in_range -----------------------------------------------------

def test_primes_in_range_spot():
    assert [p.value for p in primes_in_range(3, 25, mod4=3)] == [3, 7, 11, 19, 23]
    assert primes_in_range(14, 16) == []
    assert primes_in_range(10, 5) == []
    assert [p.value for p in primes_in_range(2, 10)] == [3, 5, 7]  # OddPrime: no 2


def test_primes_in_range_rejects():
    with pytest.raises(ValueError):
        primes_in_range(1, 10)


@pytest.mark.parametrize("mod4", [0, 2, 5, -1])
def test_primes_in_range_rejects_other_classes(mod4):
    # the class picks the sieve's slice offset: 5 would read as 1, and 0 or 2
    # would hand even numbers to OddPrime
    with pytest.raises(ValueError, match="mod4"):
        primes_in_range(3, 100, mod4=mod4)


def test_primes_in_range_matches_sieve():
    flags = sieve_flags(30_000)
    got = [p.value for p in primes_in_range(3, 30_000)]
    want = [n for n in range(3, 30_001, 2) if flags[n]]
    assert got == want


def in_class(n, mod4):
    return n % 2 == 1 if mod4 is None else n % 4 == mod4


def test_primes_in_range_every_small_range():
    # the base primes come from primes_in_range itself: empty below 9, one
    # prime (3) below 25
    flags = sieve_flags(150)
    for mod4 in (None, 1, 3):
        for lo in range(2, 151):
            for hi in range(lo, 151):
                want = [n for n in range(lo, hi + 1) if in_class(n, mod4) and flags[n]]
                got = [p.value for p in primes_in_range(lo, hi, mod4=mod4)]
                assert got == want, (lo, hi, mod4)


def test_primes_in_range_below_2_to_32():
    # the deepest base recursion the CLI reaches: 65535, 255, 15, 3
    lo, hi = (1 << 32) - 400, (1 << 32) - 1
    for mod4 in (None, 1, 3):
        got = [p.value for p in primes_in_range(lo, hi, mod4=mod4)]
        assert got == [n for n in range(lo, hi + 1) if in_class(n, mod4) and is_prime(n)]


def test_primes_in_range_class_filters_consistent():
    full = {p.value for p in primes_in_range(3, 5000)}
    c1 = {p.value for p in primes_in_range(3, 5000, mod4=1)}
    c3 = {p.value for p in primes_in_range(3, 5000, mod4=3)}
    assert c1 | c3 == full and not (c1 & c3)


def test_primes_in_range_crosses_segment_boundary(monkeypatch):
    # segments are _SEGMENT_SIZE wide from lo; at 2^20 this range fits in
    # one, at an odd 61 it spans seven that start in every class mod 4.  A lo
    # in each class mod 4 takes each slice offset; trial division is the oracle
    hi = (1 << 20) + 200
    for width in (1 << 20, 61):
        monkeypatch.setattr(arith, "_SEGMENT_SIZE", width)
        for mod4 in (None, 1, 3):
            for lo in range((1 << 20) - 200, (1 << 20) - 196):
                got = [p.value for p in primes_in_range(lo, hi, mod4=mod4)]
                want = [n for n in range(lo, hi + 1) if in_class(n, mod4) and trial_is_prime(n)]
                assert got == want, (width, lo, mod4)


def test_primes_in_range_validates_elements():
    for p in primes_in_range(9_900, 10_100):
        assert trial_is_prime(p.value)


def test_primitive_root_is_least_of_full_order():
    # the least g whose powers mod p reach all p - 1 nonzero residues
    def order(g, pv):
        x, n = g, 1
        while x != 1:
            x, n = x * g % pv, n + 1
        return n

    for p in primes_in_range(3, 3000):
        pv = p.value
        want = next(g for g in range(2, pv) if order(g, pv) == pv - 1)
        assert primitive_root(p) == want, pv
