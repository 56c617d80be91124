"""Residue statistics: frozen spot values, oracle agreement, range laws."""

import pytest

from qrsums import OddPrime, primes_in_range, residue_profile

from oracles import LARGE_SAMPLE, residue_stats, square_set


def residue_set(pv):
    table = residue_profile(OddPrime(pv)).qr_table
    return {k for k in range(1, pv) if table[k]}


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
    prof = residue_profile(OddPrime(3))
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
        prof = residue_profile(p)
        want = residue_stats(p.value)
        got = {
            "q_o": prof.q_o,
            "q_e": prof.q_e,
            "s_low": prof.s_low,
            "s_high": prof.s_high,
            "even_below_half": prof.even_below_half,
            "even_above_half": prof.even_above_half,
            "a_sum": prof.a_sum,
            "m_sum": prof.m_sum,
        }
        assert got == want, p.value


@pytest.mark.parametrize("pv", LARGE_SAMPLE[:3])
def test_profile_matches_oracle_large(pv):
    prof = residue_profile(OddPrime(pv))
    want = residue_stats(pv)
    assert prof.q_o == want["q_o"] and prof.q_e == want["q_e"]
    assert prof.s_low == want["s_low"] and prof.s_high == want["s_high"]
    assert prof.a_sum == want["a_sum"] and prof.m_sum == want["m_sum"]


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
