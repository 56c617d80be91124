"""Substrate tests: is_prime, OddPrime, legendre, primes_in_range."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsums import OddPrime, is_prime, legendre, primes_in_range

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


def test_is_prime_strong_pseudoprime():
    # strong pseudoprime to bases 2, 3, 5, 7: must still be rejected
    n = 3_215_031_751
    assert not is_prime(n)
    assert n % 151 == 0  # witnessed composite


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


def test_primes_in_range_matches_sieve():
    flags = sieve_flags(30_000)
    got = [p.value for p in primes_in_range(3, 30_000)]
    want = [n for n in range(3, 30_001, 2) if flags[n]]
    assert got == want


def test_primes_in_range_every_small_range():
    # the base primes come from primes_in_range itself: empty below 9, one
    # prime (3) below 25
    flags = sieve_flags(150)
    for lo in range(2, 151):
        for hi in range(lo, 151):
            want = [n for n in range(lo, hi + 1) if n % 2 and flags[n]]
            assert [p.value for p in primes_in_range(lo, hi)] == want, (lo, hi)


def test_primes_in_range_below_2_to_32():
    # the deepest base recursion the CLI reaches: 65535, 255, 15, 3
    lo, hi = (1 << 32) - 400, (1 << 32) - 1
    got = [p.value for p in primes_in_range(lo, hi)]
    assert got == [n for n in range(lo, hi + 1) if n % 2 and is_prime(n)]


def test_primes_in_range_class_filters_consistent():
    full = {p.value for p in primes_in_range(3, 5000)}
    c1 = {p.value for p in primes_in_range(3, 5000, mod4=1)}
    c3 = {p.value for p in primes_in_range(3, 5000, mod4=3)}
    assert c1 | c3 == full and not (c1 & c3)


def test_primes_in_range_crosses_segment_boundary():
    # segment width is 2^20; straddle it and compare with trial division
    lo, hi = (1 << 20) - 200, (1 << 20) + 200
    got = [p.value for p in primes_in_range(lo, hi)]
    want = [n for n in range(lo, hi + 1) if trial_is_prime(n) and n % 2]
    assert got == want


def test_primes_in_range_validates_elements():
    for p in primes_in_range(9_900, 10_100):
        assert trial_is_prime(p.value)
