"""Acceptance gate: the seven headline requirements, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-requirement
verdict lines; each test prints its line before asserting, so a FAIL line
survives into the failure report as well.
"""

import time

from qrsums import (
    OddPrime,
    VerifyReport,
    angle_tables,
    bound_harmonic,
    bound_pv,
    c_exact,
    c_float,
    confirm_errata,
    gauss_sum_checks,
    gauss_tolerance,
    h_from_forms,
    lebesgue_float,
    primes_in_range,
    residue_profile,
    run_verify,
    t_exact,
    t_float,
)
from qrsums import cli
from qrsums.verify import ERRATA_PRIMES

IDENTITY_HI = 20_000
FLOAT_HI = 10_000
GAUSS_HI = 500


def _verdict(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{num}] {label:<46} {status}  ({detail})")
    return ok


def test_01_exact_identity_suite():
    started = time.perf_counter()
    report = run_verify(3, IDENTITY_HI)
    elapsed = time.perf_counter() - started
    ok = report.ok and report.primes_checked > 1100 and elapsed < 60.0
    detail = (
        f"{report.primes_checked} primes, {report.checks_run} checks, "
        f"{len(report.failures)} failures, {elapsed:.2f}s"
    )
    assert _verdict(1, f"exact identities, p = 3 (mod 4) up to {IDENTITY_HI}", ok, detail), report.failures[:5]


def test_02_bounds_strict():
    violations = []
    for p in primes_in_range(3, IDENTITY_HI, mod4=3):
        prof = residue_profile(p)
        for check in (bound_harmonic(p, prof), bound_pv(p, prof)):
            if not check.passed:
                violations.append((p.value, check.name, check.residual))
    ok = not violations
    assert _verdict(2, f"strict magnitude bounds up to {IDENTITY_HI}", ok, f"{len(violations)} violations"), violations[:5]


def test_03_float_suite():
    started = time.perf_counter()
    bad = []
    for p in primes_in_range(3, FLOAT_HI):
        if p.class_mod4 == 3:
            prof = residue_profile(p)
            squares, _ = angle_tables(p, prof)
            tf = t_float(p, prof, squares)
            cf = c_float(p, prof, squares)
            if not (tf.passed and cf.passed):
                bad.append((p.value, tf.residual, cf.residual))
            if round(tf.computed / p.value) != prof.q_o - prof.q_e:
                bad.append((p.value, "round mismatch", tf.computed))
        else:
            squares, _ = angle_tables(p, None)
            tf = t_float(p, None, squares)
            cf = c_float(p, None, squares)
            if not (tf.passed and cf.passed):
                bad.append((p.value, tf.residual, cf.residual))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 120.0
    assert _verdict(3, f"double-precision suite, both classes up to {FLOAT_HI}", ok, f"{len(bad)} bad, {elapsed:.2f}s"), bad[:5]


def test_04_gauss_sums():
    worst = 0.0
    count = 0
    bad = []
    for p in primes_in_range(3, GAUSS_HI, mod4=3):
        for check in gauss_sum_checks(p):
            count += 1
            worst = max(worst, check.residual)
            if check.residual > gauss_tolerance(p.value):
                bad.append((p.value, check.name, check.residual))
    ok = not bad
    assert _verdict(4, f"exponential sums, all k, p up to {GAUSS_HI}", ok, f"{count} sums, max residual {worst:.3e}"), bad[:5]


def test_05_spot_values():
    wrong = []

    def expect(label, got, want):
        if got != want:
            wrong.append((label, got, want))

    def prof(pv):
        return residue_profile(OddPrime(pv))

    expect("C(3)", c_exact(OddPrime(3), prof(3)), 1)
    expect("T(7)", t_exact(OddPrime(7), prof(7)), -7)
    expect("T(11)", t_exact(OddPrime(11), prof(11)), 33)
    expect("T(19)", t_exact(OddPrime(19), prof(19)), 57)
    expect("T(23)", t_exact(OddPrime(23), prof(23)), -69)
    expect("h(-23)", h_from_forms(OddPrime(23)), 3)
    for pv in (3, 7, 11, 19, 23):
        p = OddPrime(pv)
        h = h_from_forms(p)
        expect(f"leb({pv})", round(lebesgue_float(p, *angle_tables(p, prof(pv)), h=h).computed), h)
    ok = not wrong
    assert _verdict(5, "frozen spot values and rounded class numbers", ok, f"{len(wrong)} wrong"), wrong


def test_06_errata_confirmed():
    report = VerifyReport(ERRATA_PRIMES)
    confirm_errata(report, {})
    confs = report.errata_confirmations
    wrong = [("errata check failed", f) for f in report.failures]
    for c in confs:
        if c.corrected_value != c.exact_value:
            wrong.append(("corrected differs", c.identity, c.prime))
    # the published forms must disagree exactly where the misprinted branch
    # applies: both primes for the first two, only p = 7 for the third
    discrepant = {(c.identity, c.prime): c.discrepant for c in confs}
    expected = {
        ("odd_sum_coefficient", 7): True,
        ("odd_sum_coefficient", 11): True,
        ("weighted_sum_signs", 7): True,
        ("weighted_sum_signs", 11): True,
        ("low_interval_sign", 7): True,
        ("low_interval_sign", 11): False,
    }
    if discrepant != expected:
        wrong.append(("discrepancy pattern", discrepant))
    ok = len(confs) == 6 and report.checks_run == 12 and not wrong
    assert _verdict(6, "published-form discrepancies localized", ok, f"{len(confs)} confirmations, {len(wrong)} wrong"), wrong


def test_07_scan_determinism(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["scan", "--from", "3", "--to", str(FLOAT_HI)]
    assert cli.main(args + ["--out", str(serial), "--jobs", "1"]) == 0
    assert cli.main(args + ["--out", str(parallel), "--jobs", "8"]) == 0
    data = serial.read_bytes()
    ok = data == parallel.read_bytes() and data.startswith(b"p,")
    lines = data.decode().count("\n")
    assert _verdict(7, f"scan to {FLOAT_HI}: 1 worker vs 8 byte-identical", ok, f"{lines} lines")
