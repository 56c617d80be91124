"""verify's run record, its float-cap bound, and its own table checks
against deliberately corrupted residue tables.

Each corruption test hands verify a profile whose qr_table was altered after
the counts were taken, so only the checks that read the table itself can see
the damage.  A check that reads the wrong entries (a slice taken in the
wrong direction, say) would stay silent here.
"""

import pytest

from qrsums import Failure, OddPrime, VerifyReport, confirm_errata, residue_profile, run_verify
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


@pytest.mark.parametrize("hi, checks", [(50, 521), (200, 3199)])
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


def failed_checks(monkeypatch, pv, corrupt):
    """Names of the checks verify fails at pv when its table is corrupted;
    the errata primes' profiles, built in the same module, stay intact."""
    real = verify_mod.residue_profile

    def corrupted_profile(p):
        prof = real(p)
        if p.value != pv:
            return prof
        table = bytearray(prof.qr_table)
        corrupt(table)
        return prof._replace(qr_table=bytes(table))

    monkeypatch.setattr(verify_mod, "residue_profile", corrupted_profile)
    report = run_verify(pv, pv)
    assert report.primes_checked == 1
    return {f.check for f in report.failures if f.p == pv}


def test_uncorrupted_tables_pass():
    for pv in PRIMES:
        report = run_verify(pv, pv)
        assert report.ok and report.primes_checked == 1, report.failures


def test_p3_table_checks(monkeypatch):
    # half = 1: the negation check compares table[1] with table[2] alone
    def both(table):
        table[2] = 1

    assert "table_negation" in failed_checks(monkeypatch, 3, both)


@pytest.mark.parametrize("pv", PRIMES[1:])
@pytest.mark.parametrize("pick", (0, -1))
def test_residue_and_its_negative_both_set(monkeypatch, pv, pick):
    k = residues_up_to_half(pv)[pick]

    def both(table):
        table[pv - k] = 1

    assert "table_negation" in failed_checks(monkeypatch, pv, both)


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

    failed = failed_checks(monkeypatch, pv, move)
    assert "numerator_identity" in failed
    assert not failed & {"table_count", "table_negation"}


@pytest.mark.parametrize("pv", PRIMES[1:])
@pytest.mark.parametrize("pick", (0, -1))
def test_residue_dropped(monkeypatch, pv, pick):
    k = residues_up_to_half(pv)[pick]

    def drop(table):
        table[k] = 0

    failed = failed_checks(monkeypatch, pv, drop)
    assert "table_count" in failed
    assert "table_negation" not in failed
