"""Residue statistics: frozen spot values, oracle agreement, range laws."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsums import OddPrime, primes_in_range, residue_profile
from qrsums.residues import chi_sum, ones

from oracles import LARGE_SAMPLE, residue_stats, square_set


def residue_set(pv):
    table = residue_profile(OddPrime(pv)).qr_table
    return {k for k in range(1, pv) if table[k]}


def profile_stats(prof):
    """Every integer field of a profile, keyed as the residue_stats oracle."""
    skip = ("p", "qr_table")
    return {name: getattr(prof, name) for name in prof._fields if name not in skip}


# ---- the popcount kernel -------------------------------------------------

def test_python_floor_for_bit_count():
    # ones() rests on int.bit_count, new in 3.10; requires-python says >=3.10
    assert sys.version_info >= (3, 10)


def test_ones_edge_cases():
    assert ones(b"") == 0
    assert ones(b"\x00") == 0
    assert ones(b"\x01") == 1
    assert ones(bytes(7)) == 0
    assert ones(b"\x01" * 9) == 9  # crosses one 8-byte word
    table = residue_profile(OddPrime(23)).qr_table
    assert ones(table[1:1]) == 0  # empty slice
    assert ones(table[23:]) == 0
    assert ones(table[22:0:-1]) == sum(table) == 11


@given(
    st.lists(st.integers(0, 1), max_size=300),
    st.integers(-310, 310),
    st.integers(-310, 310),
    st.integers(-7, 7).filter(bool),
)
@settings(max_examples=300)
def test_ones_matches_sum(bits, start, stop, step):
    table = bytes(bits)
    assert ones(table) == sum(table)
    part = table[start:stop:step]
    assert ones(part) == sum(part)


@given(st.lists(st.integers(0, 1), max_size=300), st.data())
@settings(max_examples=300)
def test_chi_sum_matches_direct_sum(bits, data):
    table = bytes(bits)
    start = data.draw(st.integers(0, len(table)))
    stop = data.draw(st.integers(0, len(table)))
    step = data.draw(st.integers(1, 7))
    direct = sum(1 if table[k] else -1 for k in range(start, stop, step))
    assert chi_sum(table, start, stop, step) == direct


# ---- residue sets and profiles -------------------------------------------

def test_quadratic_residue_sets():
    assert residue_set(7) == {1, 2, 4}
    assert residue_set(11) == {1, 3, 4, 5, 9}
    assert residue_set(23) == {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}
    assert residue_set(3) == {1}


def test_quadratic_residue_count():
    for p in primes_in_range(3, 500, mod4=3):
        assert len(residue_set(p.value)) == (p.value - 1) // 2


def test_profile_spot_values():
    prof7 = residue_profile(OddPrime(7))
    assert (prof7.q_o, prof7.q_e) == (1, 2)
    assert (prof7.s_low, prof7.s_high) == (1, 0)
    assert (prof7.even_below_half, prof7.even_above_half) == (1, 1)
    assert (prof7.a_sum, prof7.m_sum) == (-1, -7)

    prof11 = residue_profile(OddPrime(11))
    assert (prof11.q_o, prof11.q_e) == (4, 1)
    assert (prof11.s_low, prof11.s_high) == (0, 3)
    assert (prof11.even_below_half, prof11.even_above_half) == (1, 0)
    assert (prof11.a_sum, prof11.m_sum) == (3, -11)

    prof23 = residue_profile(OddPrime(23))
    assert (prof23.q_o, prof23.q_e) == (4, 7)
    assert (prof23.s_low, prof23.s_high) == (3, 0)
    assert (prof23.even_below_half, prof23.even_above_half) == (4, 3)
    assert (prof23.a_sum, prof23.m_sum) == (-3, -69)


def test_profile_degenerate_p3():
    # the square walk takes one step (1^2 = 1) and the low interval is empty
    prof = residue_profile(OddPrime(3))
    assert prof.qr_table == b"\x00\x01\x00"
    assert profile_stats(prof) == residue_stats(3)
    assert (prof.q_o, prof.q_e) == (1, 0)
    assert (prof.s_low, prof.s_high) == (0, 1)  # low interval is empty
    assert (prof.even_below_half, prof.even_above_half) == (0, 0)
    assert (prof.a_sum, prof.m_sum) == (1, -1)


def test_profile_table_and_chi():
    prof = residue_profile(OddPrime(23))
    squares = square_set(23)
    assert len(prof.qr_table) == 23
    assert prof.qr_table[0] == 0
    for k in range(1, 23):
        assert bool(prof.qr_table[k]) == (k in squares)
        assert prof.chi(k) == (1 if k in squares else -1)
    assert prof.chi(0) == 0
    assert prof.chi(23) == 0
    assert prof.chi(24) == prof.chi(1)


def test_profile_rejects_class1():
    with pytest.raises(ValueError):
        residue_profile(OddPrime(13))


def test_profile_matches_oracle_small():
    for p in primes_in_range(3, 400, mod4=3):
        assert profile_stats(residue_profile(p)) == residue_stats(p.value), p.value


@pytest.mark.parametrize("pv", LARGE_SAMPLE)
def test_profile_matches_oracle_large(pv):
    prof = residue_profile(OddPrime(pv))
    assert profile_stats(prof) == residue_stats(pv)
    table = prof.qr_table
    assert len(table) == pv
    assert {k for k in range(pv) if table[k]} == square_set(pv)


def test_range_laws_to_1e4():
    """The standing residue-count laws over every p = 3 (mod 4) up to 10^4."""
    for p in primes_in_range(3, 10_000, mod4=3):
        pv = p.value
        prof = residue_profile(p)
        gap = prof.q_o - prof.q_e
        # counts partition the half range and the gap is odd
        assert prof.q_o + prof.q_e == (pv - 1) // 2
        assert gap % 2 == 1
        # gap sign tracks the class mod 8; divisibility by 3 on one side
        assert (gap > 0) == (p.class_mod8 == 3)
        if p.class_mod8 == 3 and pv > 3:
            assert gap % 3 == 0 and gap // 3 > 0
        # Dirichlet: more residues than non-residues in the lower half,
        # and the weighted sum is negative
        assert prof.half_sum > 0
        assert prof.m_sum < 0
        # interval law: one side vanishes, the other is positive
        if p.class_mod8 == 3:
            assert prof.s_low == 0 and prof.s_high > 0
        else:
            assert prof.s_high == 0 and prof.s_low > 0
        # even-count closed forms and the split
        assert prof.even_below_half + prof.even_above_half == prof.q_e
        if p.class_mod8 == 3:
            assert prof.even_below_half == (pv - 3) // 8
        else:
            assert prof.even_above_half == (pv + 1) // 8
        # odd-index sum against the half sum
        assert prof.a_sum == -prof.chi(2) * prof.half_sum
