"""Floating-point layer: defining expressions against exact references."""

import math
import tracemalloc

import pytest

from qrsums import (
    InvariantError,
    OddPrime,
    angle_tables,
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
from qrsums.arith import primitive_root

from guards import Started, fail_fast, never
from oracles import naive_gauss_sum, naive_trig_sums


def suite(p):
    """float_checks as verify and report call it: with p's profile and
    forms-route h at p = 3 (mod 4), where the suite needs them."""
    if p.class_mod4 == 1:
        return float_checks(p)
    return float_checks(p, residue_profile(p), h_from_forms(p))


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
        for r in suite(p):
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

def at(pv):
    """The prime and its profile, None at p = 1 (mod 4), as angle_tables takes them."""
    p = OddPrime(pv)
    return p, residue_profile(p) if p.class_mod4 == 3 else None


def with_squares(pv):
    """The prime, its profile and its squares' angles, as t_float takes them."""
    p, prof = at(pv)
    return p, prof, angle_tables(p, prof)[0]


def test_t_float_spot():
    r3 = t_float(*with_squares(3))
    assert r3.reference == 3 and r3.passed and abs(r3.computed - 3) < 1e-12
    r7 = t_float(*with_squares(7))
    assert r7.reference == -7 and r7.passed
    r5 = t_float(*with_squares(5))
    assert r5.reference == 0 and r5.passed  # vanishes for p = 1 (mod 4)


def test_c_float_spot():
    assert c_float(*with_squares(3)).reference == 1
    assert c_float(*with_squares(7)).reference == 7
    assert c_float(*with_squares(13)).reference == 0
    assert all(c_float(*with_squares(p)).passed for p in (3, 5, 7, 11, 13, 23))


def test_float_suite_to_2000_both_classes():
    for p in primes_in_range(3, 2000):
        prof = residue_profile(p) if p.class_mod4 == 3 else None
        squares, _ = angle_tables(p, prof)
        tf = t_float(p, prof, squares)
        cf = c_float(p, prof, squares)
        assert tf.passed and cf.passed, p.value
        assert tf.residual <= tf.tolerance == check_bounds(p.value)["tangent_sum"]
        if p.class_mod4 == 3:
            # rounding the float recovers the exact residue-count gap
            assert round(tf.computed / p.value) == prof.q_o - prof.q_e


def test_float_checks_names():
    assert [r.name for r in float_checks(OddPrime(13))] == ["tangent_sum", "cotangent_sum"]
    p, prof = at(23)
    checks = float_checks(p, prof, h_from_forms(p))
    assert [r.name for r in checks] == [
        "tangent_sum", "cotangent_sum", "whiteman_sum", "lebesgue_formula", "berndt_sum",
    ]
    squares, reflected = angle_tables(p, prof)
    singly = [t_float(p, prof, squares), c_float(p, prof, squares), whiteman_sum(p, prof, squares),
              lebesgue_float(p, squares, reflected, h=h_from_forms(p)),
              berndt_m_float(p, prof, squares, reflected)]
    assert checks == singly and all(r.passed for r in checks)


def test_float_checks_need_profile_and_h_at_class3():
    p = OddPrime(23)
    prof, h = residue_profile(p), h_from_forms(p)
    for args in ((), (prof,), (None, h)):
        with pytest.raises(ValueError, match=r"p = 23 is 3 \(mod 4\); its float checks need"):
            float_checks(p, *args)


def test_float_sums_match_term_by_term_oracle():
    # the passes read shared angle tables in their own order; fsum rounds
    # correctly, so each computed value must be the naive sum to the last bit
    for p in [*primes_in_range(3, 3000), *map(OddPrime, (9973, 10007, 99991))]:
        computed = {r.name: r.computed for r in suite(p)}
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
    p, prof = at(pv)
    squares, reflected = angle_tables(p, prof)
    half = (pv - 1) // 2
    want = [(t_float, (prof, squares), {}, half), (c_float, (prof, squares), {}, half)]
    if p.class_mod4 == 3:
        want += [(whiteman_sum, (prof, squares), {}, pv - 1),
                 (lebesgue_float, (squares, reflected), {"h": h_from_forms(p)}, pv - 1),
                 (berndt_m_float, (prof, squares, reflected), {}, pv - 1)]
    for check, args, kwargs, calls in want:
        counting.tan_calls = 0
        check(p, *args, **kwargs)
        assert counting.tan_calls == calls, (pv, check.__name__)


def ascending(angles):
    return all(a < b for a, b in zip(angles, angles[1:]))


def swapped_table(prof, k):
    """prof's table with k and p - k swapped, its counts left as they are."""
    table = bytearray(prof.qr_table)
    pv = prof.p.value
    table[k], table[pv - k] = table[pv - k], table[k]
    return bytes(table)


def test_angle_tables_built_once_per_prime(monkeypatch):
    built = []

    def counting_tables(p, profile):
        built.append(p)
        return angle_tables(p, profile)

    monkeypatch.setattr(analytic, "angle_tables", counting_tables)
    for pv in (23, 29, 23):
        built.clear()
        suite(OddPrime(pv))
        assert built == [OddPrime(pv)], pv  # one build per call, for all five passes
    p, prof = at(23)
    # the passes run faster over ascending angles
    squares, reflected = angle_tables(p, prof)
    assert ascending(squares) and ascending(reflected)
    assert len(squares) == len(reflected) == 11


def test_chi_cot_angles_are_the_unit_angles():
    # at p = 3 (mod 4) the residues and the k whose reflection p - k is a
    # residue meet each k in [1, p-1] once, and both tables form pi * k / p
    # from the integer k, ascending: the same doubles, so fsum returns the
    # chi-weighted sum over k to the last bit
    for p in primes_in_range(3, 2000, mod4=3):
        pv = p.value
        prof = residue_profile(p)
        units = [math.pi * k / pv for k in range(1, pv)]
        squares, reflected = angle_tables(p, prof)
        assert ascending(squares) and ascending(reflected), pv
        assert sorted([*squares, *reflected]) == units, pv
        assert list(squares) == [x for k, x in enumerate(units, 1) if prof.chi(k) == 1], pv
        want = math.fsum(prof.chi(k) / math.tan(x) for k, x in enumerate(units, 1))
        assert analytic._chi_cot_sum(p, squares, reflected) == want, pv


def test_angle_tables_follow_the_table():
    want = {pv: suite(OddPrime(pv)) for pv in (23, 29, 31)}
    for pv in (23, 29, 23, 31, 23):
        assert suite(OddPrime(pv)) == want[pv], pv
    # the angles are read off the table each profile holds: a copy of the
    # table gets equal ones, a changed table different ones
    p, prof = at(23)
    real = angle_tables(p, prof)
    copy = bytes(bytearray(prof.qr_table))
    assert copy is not prof.qr_table and angle_tables(p, prof._replace(qr_table=copy)) == real
    swapped = swapped_table(prof, 1)
    assert swapped != prof.qr_table
    wrong = angle_tables(p, prof._replace(qr_table=swapped))
    assert wrong != real and ascending(wrong[0]) and ascending(wrong[1])
    assert angle_tables(p, prof) == real
    assert angle_tables(p, None) != real  # the n-order squares, no reflections


def test_float_suite_keeps_no_state():
    # every float check reads tables that live for one float_checks call: a
    # call leaves nothing behind for the next prime's to coexist with
    inputs = [(p, residue_profile(p), h_from_forms(p)) for p in map(OddPrime, (9199, 9203))]
    tracemalloc.start()
    try:
        for p, prof, h in inputs:
            before = tracemalloc.get_traced_memory()[0]
            float_checks(p, prof, h)
            left = tracemalloc.get_traced_memory()[0] - before
            assert left < 16 * 1024, (p.value, left)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pv", [23, 9187])
@pytest.mark.parametrize("pick", (0, -1))
def test_float_suite_rejects_a_wrong_residue_table(pv, pick):
    # one residue k <= (p-1)/2 moved to p - k, counts kept: the float suite
    # reads its residue set from the table, and h comes from the forms
    p = OddPrime(pv)
    prof = residue_profile(p)
    h = h_from_forms(p)
    k = [k for k in range(1, (pv - 1) // 2 + 1) if prof.qr_table[k]][pick]
    bad = prof._replace(qr_table=swapped_table(prof, k))
    good_squares, good_reflected = angle_tables(p, prof)
    bad_squares, bad_reflected = angle_tables(p, bad)
    assert (lebesgue_float(p, good_squares, good_reflected, h=h).passed
            and t_float(p, prof, good_squares).passed)
    assert not lebesgue_float(p, bad_squares, bad_reflected, h=h).passed
    assert not t_float(p, bad, bad_squares).passed


def test_whiteman_sum():
    w3 = whiteman_sum(*with_squares(3))
    assert w3.computed == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    w7 = whiteman_sum(*with_squares(7))
    assert w7.computed == pytest.approx(2 * math.sqrt(7), abs=1e-12)
    for p in primes_in_range(3, 1000, mod4=3):
        prof = residue_profile(p)
        r = whiteman_sum(p, prof, angle_tables(p, prof)[0])
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
    monkeypatch.setattr(analytic.math, "cos", never)
    with pytest.raises(ValueError, match=r"p must be < 2\^14, got 16411"):
        gauss_sum_checks(OddPrime(16411))  # the least eligible prime above 2^14
    with fail_fast(), pytest.raises(Started):  # the largest eligible prime below 2^14 gets through
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


def test_gauss_each_k_sums_its_own_terms(monkeypatch):
    # every k of one chi class sums the same multiset of terms, so fsum gives
    # them one double and the oracle above cannot see a head that never steps
    calls = []
    summed = analytic._compensated_complex

    def recording_sum(terms):
        calls.append(terms)
        return summed(terms)

    monkeypatch.setattr(analytic, "_compensated_complex", recording_sum)
    for p in [*primes_in_range(3, 400, mod4=3), OddPrime(719), OddPrime(727)]:
        pv, tau = p.value, 2.0 * math.pi / p.value
        calls.clear()
        gauss_sum_checks(p)
        g = primitive_root(p)
        assert len(calls) == pv - 1, pv
        for i, terms in enumerate(calls):
            k = pow(g, i, pv)
            squares = [j * j * k % pv for j in range((pv + 1) // 2)]
            head = [(math.cos(tau * m), math.sin(tau * m)) for m in squares]
            assert list(terms) == head + head[1:], (pv, k)


# ---- class number formulas -----------------------------------------------

def test_lebesgue_rounds_to_h():
    for pv in (3, 7, 11, 19, 23):
        p = OddPrime(pv)
        h = h_from_forms(p)
        r = lebesgue_float(p, *angle_tables(p, residue_profile(p)), h=h)
        assert r.passed
        assert round(r.computed) == h == r.reference


def test_lebesgue_takes_the_callers_h(monkeypatch):
    # a caller that holds h passes it down, and the forms are not walked again
    p = OddPrime(23)
    prof, h = residue_profile(p), h_from_forms(p)

    def never(p):
        raise AssertionError("forms enumerated twice")

    monkeypatch.setattr(analytic, "h_from_forms", never)
    tables = angle_tables(p, prof)
    r = lebesgue_float(p, *tables, h=h)
    assert r.passed and r.reference == h
    assert float_checks(p, prof, h)[3] == r
    assert not lebesgue_float(p, *tables, h=h + 2).passed


def test_chi_cot_checks_reject_class1():
    # chi(-1) = +1 at p = 1 (mod 4): the squares' reflections are squares too
    p = OddPrime(13)
    tables = angle_tables(p, None)  # the squares, and no reflections
    with pytest.raises(ValueError, match=r"p = 13 is 1 \(mod 4\)"):
        lebesgue_float(p, *tables, h=1)
    with pytest.raises(ValueError, match=r"p = 13 is 1 \(mod 4\)"):
        analytic._chi_cot_sum(p, *tables)  # Berndt's sum


def test_berndt_matches_minus_m():
    for pv in (3, 7, 11, 23, 31):
        p, prof = at(pv)
        r = berndt_m_float(p, prof, *angle_tables(p, prof))
        assert r.passed
        assert r.reference == -prof.m_sum


def test_berndt_equals_p_h_beyond_three():
    for p in primes_in_range(5, 500, mod4=3):
        prof = residue_profile(p)
        assert berndt_m_float(p, prof, *angle_tables(p, prof)).reference == p.value * h_from_forms(p)


# ---- bounds --------------------------------------------------------------

def test_bound_harmonic_spot():
    r3 = bound_harmonic(*at(3))
    assert r3.computed == pytest.approx(6 * math.sqrt(3) / math.pi, abs=1e-9)
    assert r3.reference == 3 and r3.passed
    r11 = bound_harmonic(*at(11))
    want = (2 * 11 * math.sqrt(11) / math.pi) * (1 + 0.5 * math.log(9))
    assert r11.computed == pytest.approx(want, abs=1e-9)
    assert r11.passed


def test_bounds_hold_to_2000():
    for p in primes_in_range(3, 2000, mod4=3):
        prof = residue_profile(p)
        hb = bound_harmonic(p, prof)
        assert hb.passed and abs(t_exact(p, prof)) < hb.computed
        assert hb.residual == 0.0 and hb.tolerance == 0.0
        pb = bound_pv(p, prof)
        assert pb.passed
        assert abs(t_exact(p, prof)) < p.value**1.5 * math.log(p.value)


def test_angle_reduction_equivalence():
    # reduced and unreduced arguments agree while n^2 is still small enough
    # for the library tan to reduce accurately itself
    p = 101
    for n in (3, 17, 40, 50):
        reduced = math.tan(math.pi * (n * n % p) / p)
        unreduced = math.tan(math.pi * n * n / p)
        assert reduced == pytest.approx(unreduced, abs=1e-9)


def test_check_result_fields():
    r = t_float(*with_squares(7))
    assert r.name == "tangent_sum"
    assert r.residual == abs(r.computed - r.reference)
    assert r.passed == (r.residual <= r.tolerance)
