"""verify's run record, its float-cap bound, its own table checks against
deliberately corrupted residue tables, and a fault that trips each check.

Each corruption test hands verify a profile whose qr_table was altered after
the counts were taken, so only the checks that read the table itself can see
the damage.  A check that reads the wrong entries (a slice taken in the
wrong direction, say) would stay silent here.

The liveness table pairs every check name that verify emits with a fault
that makes it fail, so no check can turn vacuous unnoticed.
"""

import pytest

from qrsums import Failure, OddPrime, VerifyReport, confirm_errata, residue_profile, run_verify
from qrsums import analytic
from qrsums import verify as verify_mod


def test_report_starts_empty_and_ok():
    report = VerifyReport((3, 50))
    assert report.range == (3, 50)
    assert (report.primes_checked, report.checks_run) == (0, 0)
    assert report.failures == [] and report.errata_confirmations == []
    assert report.ok


def test_report_counts_each_check_once():
    report = VerifyReport((3, 50))
    report.expect(7, "same", 1, 1)
    report.expect_true(7, "holds", True)
    assert report.checks_run == 2 and report.ok
    report.expect(11, "differs", 1, 2)
    report.expect_true(11, "violated", False)
    report.expect_true(11, "violated_with_detail", False, (3, 4))
    # a falsy detail is often the failing value itself: it is kept as given
    report.expect_true(11, "violated_at_zero", False, 0)
    report.expect_true(11, "violated_with_empty_detail", False, ())
    assert report.checks_run == 7 and not report.ok
    assert report.failures == [
        Failure(11, "differs", 1, 2),
        Failure(11, "violated", "holds", "violated"),
        Failure(11, "violated_with_detail", "holds", (3, 4)),
        Failure(11, "violated_at_zero", "holds", 0),
        Failure(11, "violated_with_empty_detail", "holds", ()),
    ]


def test_confirm_errata_records_into_the_report():
    report = VerifyReport((7, 11))
    confirm_errata(report, {})
    assert report.checks_run == 12
    assert len(report.errata_confirmations) == 6
    assert report.ok, report.failures


@pytest.mark.parametrize("hi, checks", [(50, 510), (200, 3164)])
def test_float_checks_run_pinned(hi, checks):
    report = run_verify(3, hi, with_float=True)
    assert report.ok, report.failures
    assert report.checks_run == checks


@pytest.mark.parametrize("cap", [1 << 32, 10**400], ids=["2^32", "10^400"])
def test_run_verify_rejects_unsafe_float_cap(monkeypatch, cap):
    def never(*args, **kwargs):
        raise AssertionError("verification started")

    monkeypatch.setattr(verify_mod, "primes_in_range", never)
    with pytest.raises(ValueError, match=r"float_cap must be < 2\^32"):
        run_verify(3, 7, with_float=True, float_cap=cap)


# 115967 and 200000 were refused while one tolerance policy served every
# check; each check's own rounding bound stays decisive up to 2^32
@pytest.mark.parametrize("cap", [115966, 115967, 200_000, (1 << 32) - 1, 0, -5])
def test_run_verify_accepts_safe_float_cap(cap):
    assert run_verify(3, 7, with_float=True, float_cap=cap).ok

# both classes mod 8, small and large, and p = 3 with its one-entry half
PRIMES = (3, 7, 11, 19, 23, 10007, 10039, 10067, 10091)


def residues_up_to_half(pv, parity=None):
    """Residues k in [1, (p-1)/2], of one parity if given; k = 2 is left
    out because verify reads chi(2) from the table."""
    table = residue_profile(OddPrime(pv)).qr_table
    ks = [k for k in range(1, (pv - 1) // 2 + 1) if table[k] and k != 2]
    if parity is not None:
        ks = [k for k in ks if k % 2 == parity]
    return ks


def doctored(module, attr, change):
    """The fault that passes module.attr's result at the faulted prime through
    change; every other prime, the errata primes included, stays intact."""
    def install(monkeypatch, pv):
        real = getattr(module, attr)

        def faulty(p, *args):
            out = real(p, *args)
            return change(out) if p.value == pv else out

        monkeypatch.setattr(module, attr, faulty)

    return install


def table_fault(corrupt):
    """The fault that hands verify a profile whose qr_table corrupt altered
    after the counts were taken."""
    def change(prof):
        table = bytearray(prof.qr_table)
        corrupt(table)
        return prof._replace(qr_table=bytes(table))

    return doctored(verify_mod, "residue_profile", change)


def failed_checks(monkeypatch, pv, fault, with_float=False):
    """Names of the checks verify fails at pv under fault, the exponential
    sums gauss_sum(k=...) as the one name gauss_sum."""
    fault(monkeypatch, pv)
    report = run_verify(pv, pv, with_float=with_float)
    assert report.primes_checked == (pv % 4 == 3)
    return {f.check.partition("(k=")[0] for f in report.failures if f.p == pv}


def test_uncorrupted_tables_pass():
    for pv in PRIMES:
        report = run_verify(pv, pv)
        assert report.ok and report.primes_checked == 1, report.failures


def test_p3_table_checks(monkeypatch):
    # half = 1: the negation check compares table[1] with table[2] alone
    def both(table):
        table[2] = 1

    assert "table_negation" in failed_checks(monkeypatch, 3, table_fault(both))


@pytest.mark.parametrize("pv", PRIMES[1:])
@pytest.mark.parametrize("pick", (0, -1))
def test_residue_and_its_negative_both_set(monkeypatch, pv, pick):
    k = residues_up_to_half(pv)[pick]

    def both(table):
        table[pv - k] = 1

    assert "table_negation" in failed_checks(monkeypatch, pv, table_fault(both))


@pytest.mark.parametrize("pv", PRIMES[1:])
@pytest.mark.parametrize("pick", (0, -1))
def test_residue_moved_to_its_negative(monkeypatch, pv, pick):
    # count kept, exactly one of k, p - k still set: only the numerator
    # identity over [1, (p-1)/2] sees it.  Its chi(2) = +1 side needs the
    # odd part to vanish, its chi(2) = -1 side the even part.
    parity = 1 if pv % 8 == 7 else 0
    k = residues_up_to_half(pv, parity)[pick]

    def move(table):
        table[k] = 0
        table[pv - k] = 1

    failed = failed_checks(monkeypatch, pv, table_fault(move))
    assert "numerator_identity" in failed
    assert not failed & {"table_count", "table_negation"}


@pytest.mark.parametrize("pv", PRIMES[1:])
@pytest.mark.parametrize("pick", (0, -1))
def test_residue_dropped(monkeypatch, pv, pick):
    k = residues_up_to_half(pv)[pick]

    def drop(table):
        table[k] = 0

    failed = failed_checks(monkeypatch, pv, table_fault(drop))
    assert "table_count" in failed
    assert "table_negation" not in failed


@pytest.mark.parametrize("pv", (23, 9187))
@pytest.mark.parametrize("pick", (0, -1))
def test_float_suite_sees_a_swapped_residue(monkeypatch, pv, pick):
    # the float suite takes its residue set from the table: k and p - k
    # swapped, counts kept, fail Lebesgue's formula against the forms' h and
    # the tangent sum against the counts' T
    k = residues_up_to_half(pv)[pick]

    def swap(table):
        table[k], table[pv - k] = table[pv - k], table[k]

    failed = failed_checks(monkeypatch, pv, table_fault(swap), with_float=True)
    assert {"lebesgue_formula", "tangent_sum"} <= failed


@pytest.mark.parametrize("pv", (23, 9187))
def test_set_byte_0_fails_table_count_alone(monkeypatch, pv):
    # byte 0 stands for k = 0, where cot is undefined: only table_count reads
    # it, and the float suite's angles start at k = 1
    failed = failed_checks(monkeypatch, pv, table_fault(flip(0)), with_float=True)
    assert failed == {"table_count"}


# ---- every check name can fire -------------------------------------------
#
# One row (check name, prime, fault) per name that run_verify can emit.  A
# row's fault must make its own name fail, and the rows must name exactly
# the checks of a clean run: a check that no fault can trip adds to
# checks_run but checks nothing, and a new check comes with its own fault.


def off(field, delta):
    return lambda rec: rec._replace(**{field: getattr(rec, field) + delta})


def flip(k):
    def corrupt(table):
        table[k] ^= 1

    return corrupt


def profile_off(field, delta):
    return doctored(verify_mod, "residue_profile", off(field, delta))


def record_off(field, delta):
    return doctored(verify_mod, "sum_record", off(field, delta))


def h_off(delta):
    return doctored(verify_mod, "h_from_forms", lambda h: h + delta)


# the first square's angle, at p = 1 (mod 4), where no profile is read
angle_dropped = doctored(analytic, "angle_tables", lambda tables: (tables[0][1:], tables[1]))


def legendre_flipped(monkeypatch, pv):
    real = analytic.legendre
    monkeypatch.setattr(analytic, "legendre", lambda k, p: -real(k, p))


def forms_swapped(identity):
    def install(monkeypatch, pv):
        errata = tuple(
            e._replace(published=e.corrected, corrected=e.published) if e.identity == identity else e
            for e in verify_mod.ERRATA
        )
        monkeypatch.setattr(verify_mod, "ERRATA", errata)

    return install


# at p = 7: T = -7, C = 7, h = 1, q_o = 1, q_e = 2; 1 is a residue, 3 not
LIVENESS = [
    ("t_route_alternating_full", 7, table_fault(flip(1))),
    ("t_route_alternating_half", 7, table_fault(flip(1))),
    ("t_route_odd_index", 7, profile_off("a_sum", 2)),
    ("t_route_half_sum", 7, profile_off("s_low", 2)),
    ("t_route_interval", 7, profile_off("s_low", 2)),
    ("t_route_weighted", 7, profile_off("m_sum", 2)),
    ("t_multiple_of_p", 7, record_off("t_value", 2)),
    ("t_quotient_odd", 7, profile_off("q_o", -1)),
    # q_e = q_o + 7: T = -49 and C = 49 gain a second factor of p
    ("t_quotient_coprime_p", 7, profile_off("q_e", 6)),
    ("t_sign", 7, record_off("t_value", 14)),
    ("c_positive_odd", 7, profile_off("q_o", -1)),
    ("c_multiple_of_p", 7, record_off("c_value", 2)),
    ("c_single_factor_p", 7, profile_off("q_e", 6)),
    ("h_routes_agree", 7, h_off(2)),
    ("h_positive_odd", 7, h_off(-2)),
    ("c_vs_h", 7, h_off(2)),
    ("t_vs_h", 7, h_off(2)),
    ("residue_count", 7, profile_off("q_o", -2)),
    ("residue_count_odd", 7, profile_off("q_o", -1)),
    ("table_count", 7, table_fault(flip(3))),
    ("table_negation", 7, table_fault(flip(3))),
    ("gap_odd", 7, profile_off("q_o", -1)),
    ("half_sum_positive", 7, profile_off("s_low", -2)),
    ("m_negative", 3, profile_off("m_sum", 2)),
    ("a_vs_half_sum", 7, profile_off("a_sum", 2)),
    ("interval_low_zero", 11, profile_off("s_low", 2)),
    ("interval_high_positive", 3, profile_off("s_high", -2)),
    ("interval_high_zero", 7, profile_off("s_high", 2)),
    ("interval_low_positive", 7, profile_off("s_low", -2)),
    ("even_split", 7, profile_off("even_below_half", 1)),
    ("even_below_closed_form", 11, profile_off("even_below_half", 1)),
    ("even_above_closed_form", 7, profile_off("even_above_half", 1)),
    ("numerator_identity", 7, table_fault(flip(1))),
    ("harmonic_bound", 3, profile_off("q_o", 2)),
    ("polya_vinogradov_bound", 3, profile_off("s_high", 2)),
    ("tangent_sum", 7, profile_off("q_o", -2)),
    ("cotangent_sum", 7, profile_off("q_o", -2)),
    ("whiteman_sum", 7, profile_off("q_o", -2)),
    ("lebesgue_formula", 7, h_off(2)),
    ("berndt_sum", 7, profile_off("m_sum", 2)),
    ("tangent_sum_rounds", 7, profile_off("q_o", -2)),
    ("lebesgue_rounds_to_h", 7, h_off(2)),
    ("gauss_sum", 7, legendre_flipped),
    ("vanishing_tangent_sum", 5, angle_dropped),
    ("vanishing_cotangent_sum", 5, angle_dropped),
    *(
        (f"errata_{form}[{e.identity}]", 7, forms_swapped(e.identity))
        for e in verify_mod.ERRATA
        for form in ("corrected", "published")
    ),
]


@pytest.mark.parametrize("name, pv, fault", LIVENESS, ids=[row[0] for row in LIVENESS])
def test_each_check_fires_under_its_fault(monkeypatch, name, pv, fault):
    assert name in failed_checks(monkeypatch, pv, fault, with_float=True)


def test_liveness_table_names_every_check(monkeypatch):
    names = set()
    for method in ("expect", "expect_true"):
        def named(self, p, check, *args, real=getattr(VerifyReport, method)):
            names.add(check.partition("(k=")[0])
            real(self, p, check, *args)

        monkeypatch.setattr(VerifyReport, method, named)
    assert run_verify(3, 600, with_float=True).ok
    assert len(names) == 51
    assert names == {row[0] for row in LIVENESS}
