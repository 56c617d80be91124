"""verify's own table checks against deliberately corrupted residue tables.

Each test hands verify a profile whose qr_table was altered after the
counts were taken, so only the checks that read the table itself can see
the damage.  A check that reads the wrong entries (a slice taken in the
wrong direction, say) would stay silent here.
"""

import dataclasses

import pytest

from qrsums import OddPrime, residue_profile, run_verify
from qrsums import verify as verify_mod

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
    """Names of the checks verify fails at pv when the table is corrupted."""
    real = verify_mod.residue_profile

    def corrupted_profile(p):
        prof = real(p)
        table = bytearray(prof.qr_table)
        corrupt(table)
        return dataclasses.replace(prof, qr_table=bytes(table))

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
