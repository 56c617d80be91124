"""Command line behavior: formats, determinism, exit codes."""

import collections
import contextlib
import errno
import hashlib
import json
import multiprocessing
import multiprocessing.pool
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import pytest

from qrsums import (
    CSV_HEADER,
    InvariantError,
    OddPrime,
    compute_row,
    primes_in_range,
    residue_profile,
    row_as_dict,
    scan_rows,
)
from qrsums import analytic, classnum, cli, residues
from qrsums import scan as scan_mod
from qrsums import verify as verify_mod

from guards import Started, fail_fast, never

EXPECTED_SCAN_3_12 = (
    "p,class_mod8,q_o,q_e,A,M,T,C,h,s_low,s_high,even_lo,even_hi\n"
    "3,3,1,0,1,-1,3,1,1,0,1,0,0\n"
    "7,7,1,2,-1,-7,-7,7,1,1,0,1,1\n"
    "11,3,4,1,3,-11,33,11,1,0,3,1,0\n"
)


def run_cli(*argv):
    return cli.main(list(argv))


def report_line(key, value):
    # mirrors the fixed-width key column of the report command
    return f"{key:<11} = {value}"


def summary_line(key, value):
    # mirrors the fixed-width key column of the verify summary
    return f"{key:<15}= {value}"


# ---- scan rows -----------------------------------------------------------

def test_compute_row_spot():
    row = compute_row(OddPrime(23))
    assert row_as_dict(row) == {
        "p": 23, "class_mod8": 7, "q_o": 4, "q_e": 7, "A": -3, "M": -69,
        "T": -69, "C": 69, "h": 3, "s_low": 3, "s_high": 0,
        "even_lo": 4, "even_hi": 3,
    }


def test_scan_rows_values():
    rows = [row_as_dict(r) for r in scan_rows(3, 12)]
    assert [r["p"] for r in rows] == [3, 7, 11]
    assert [(r["T"], r["C"], r["h"]) for r in rows] == [(3, 1, 1), (-7, 7, 1), (33, 11, 1)]


def test_scan_rows_parallel_equal():
    assert list(scan_rows(3, 800, jobs=3)) == list(scan_rows(3, 800, jobs=1))


class InlinePool:
    """Stands in for multiprocessing.Pool: records processes, maps in-process."""

    def __init__(self, seen, processes, initializer, initargs):
        seen.append(processes)
        # the worker set-up runs here too; pytest keeps its own Ctrl-C
        handler = signal.getsignal(signal.SIGINT)
        try:
            initializer(*initargs)
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, handler)

    def imap(self, fn, items, chunksize):
        assert chunksize >= 1
        return map(fn, items)

    def close(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize(
    "jobs, cpus, hi, workers",
    [
        (10**9, 4, 2000, [4]),  # capped by the cores
        (3, 8, 2000, [3]),  # as asked
        (8, 8, 5, []),  # capped by the primes: 3 is the only one, so no pool
        (2, 1, 2000, []),  # one core: no pool at all
        (2, None, 2000, []),  # core count unknown: no pool at all
        (8, 8, 12, [3]),  # capped by the primes: 3, 7 and 11
    ],
)
def test_scan_jobs_clamped(monkeypatch, jobs, cpus, hi, workers):
    seen = []
    # scan imports Pool from multiprocessing when it needs one
    monkeypatch.setattr(multiprocessing, "Pool", lambda *args: InlinePool(seen, *args))
    # InlinePool runs the worker set-up in this process; undo it after
    monkeypatch.setattr(scan_mod, "_stop", None)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: cpus)
    tallied = []
    tally = scan_mod.class_numbers

    def recorded(lo, hi):
        tallied.append((lo, hi))
        return tally(lo, hi)

    monkeypatch.setattr(scan_mod, "class_numbers", recorded)
    primes = primes_in_range(3, hi, mod4=3)
    # the scan's h comes from its windows' tallies, compute_row's from p's forms
    assert list(scan_rows(3, hi, jobs=jobs)) == [compute_row(p) for p in primes]
    assert seen == workers
    # consecutive windows, one tally each, two or more wherever two primes are
    assert tallied[0][0] == 3 and tallied[-1][1] == primes[-1].value
    assert all(prev[1] < nxt[0] for prev, nxt in zip(tallied, tallied[1:]))
    assert len(tallied) >= min(len(primes), 2)


def test_scan_windows_span_at_most_2_to_20():
    # windows of consecutive primes, at most size long, each within 2^20
    # integers, so no tally holds more than 2^18 counts
    primes = [p for lo in (3, (1 << 20) - 40, (2 << 20) + 3, (3 << 20) - 10)
              for p in primes_in_range(lo, lo + 200, mod4=3)]
    windows = scan_mod._windows(primes, 5)
    assert [p for w in windows for p in w] == primes
    assert all(len(w) <= 5 and w[-1].value - w[0].value < 1 << 20 for w in windows)
    assert all(len(w) == 5 or nxt[0].value - w[0].value >= 1 << 20 for w, nxt in zip(windows, windows[1:]))
    assert scan_mod._windows([], 1) == []


def test_scan_csv_exact_bytes(capsys):
    assert run_cli("scan", "--from", "3", "--to", "12") == 0
    assert capsys.readouterr().out == EXPECTED_SCAN_3_12


def test_scan_csv_header_only(capsys):
    # no primes = 3 (mod 4) in [13, 17]
    assert run_cli("scan", "--from", "13", "--to", "17") == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n"


def test_scan_json(capsys):
    assert run_cli("scan", "--from", "3", "--to", "12", "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == [3, 7, 11]
    assert list(rows[0].keys()) == CSV_HEADER.split(",")
    assert rows[2] == {
        "p": 11, "class_mod8": 3, "q_o": 4, "q_e": 1, "A": 3, "M": -11,
        "T": 33, "C": 11, "h": 1, "s_low": 0, "s_high": 3,
        "even_lo": 1, "even_hi": 0,
    }


def test_scan_json_empty(capsys):
    assert run_cli("scan", "--from", "13", "--to", "17", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == []


def test_scan_deterministic_across_jobs(tmp_path):
    one = tmp_path / "one.csv"
    many = tmp_path / "many.csv"
    assert run_cli("scan", "--from", "3", "--to", "2000", "--out", str(one), "--jobs", "1") == 0
    assert run_cli("scan", "--from", "3", "--to", "2000", "--out", str(many), "--jobs", "8") == 0
    assert one.read_bytes() == many.read_bytes()
    assert one.read_bytes().startswith(CSV_HEADER.encode() + b"\n")
    assert b"\r" not in one.read_bytes()  # LF only


# digests of the rows before scan took h from its windows' tallies: 3..8200
# holds every bench scan band, and 65000..66100 rows with larger a and h
SCAN_DIGESTS = {
    ("3", "8200"): "1aba0c4cad18069b531c923e9bc92f5c2f1287c00931de2c977ba93f874c223e",
    ("65000", "66100"): "726c97ba4e52cd007aa625f88d7a99e862e835eaa2026593a0324c1989bbe0ca",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("lo, hi", SCAN_DIGESTS)
def test_scan_output_pinned(monkeypatch, capsys, lo, hi, jobs):
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)  # keep 2 workers on 1 core
    assert run_cli("scan", "--from", lo, "--to", hi, "--jobs", jobs) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCAN_DIGESTS[lo, hi]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_h_held_to_the_residue_route(monkeypatch, capsys, jobs):
    # a tally off by 2 at one prime is caught by that prime's record check
    if jobs == "2" and multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    tally = scan_mod.class_numbers

    def off_at_1019(lo, hi):
        counts = tally(lo, hi)
        if lo <= 1019 <= hi:
            counts[(1019 - lo) >> 2] += 2
        return counts

    monkeypatch.setattr(scan_mod, "class_numbers", off_at_1019)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)  # keep 2 workers on 1 core
    h = classnum.h_from_forms(OddPrime(1019))
    assert run_cli("scan", "--from", "3", "--to", "2000", "--jobs", jobs) == 2
    out, err = capsys.readouterr()
    assert err == f"qrsums: internal invariant violation: h_routes_agree: expected {h + 2}, got {h} at p=1019\n"
    assert out.startswith(CSV_HEADER + "\n") and "\n1019," not in out
    assert multiprocessing.active_children() == []


def test_scan_unwritable_out(capsys):
    assert run_cli("scan", "--from", "3", "--to", "12", "--out", "/nonexistent/dir/x.csv") == 1


@pytest.mark.parametrize("to_file", [False, True])
def test_scan_pool_that_cannot_start(monkeypatch, capsys, tmp_path, to_file):
    # the system refuses a process: one line naming the pool, never a write
    # error, and neither stdout nor an --out PATH is touched
    def refuse(processes, initializer, initargs):
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)
    existing = tmp_path / "existing.csv"
    existing.write_text("old,content\n")
    missing = tmp_path / "missing.csv"
    outs = [("--out", str(existing)), ("--out", str(missing))] if to_file else [()]
    for out in outs:
        assert run_cli("scan", "--from", "3", "--to", "200", "--jobs", "2", *out) == 1
        assert capsys.readouterr() == (
            "",
            f"qrsums: cannot start the worker pool: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n",
        )
        assert multiprocessing.active_children() == []
    assert existing.read_text() == "old,content\n"
    assert not missing.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_failing_midway_leaves_out_as_it_was(monkeypatch, capsys, tmp_path, jobs):
    # the rows below p = 4051 are written, then one fails: an --out PATH keeps
    # its old bytes, or is not created, and no temporary file is left.  With
    # 2 workers, 4051 opens the third of eight windows of 142 primes: windows
    # this long keep a worker computing, not sending, when the pool ends
    if jobs == "2" and multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    real_profile = verify_mod.residue_profile

    def fail_at_4051(p):
        if p.value == 4051:
            raise InvariantError("forced at p = 4051")
        return real_profile(p)

    monkeypatch.setattr(verify_mod, "residue_profile", fail_at_4051)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)  # keep 2 workers on 1 core
    existing = tmp_path / "existing.csv"
    existing.write_text("old,content\n")
    for out in (existing, tmp_path / "missing.csv"):
        assert run_cli("scan", "--from", "3", "--to", "20000", "--jobs", jobs, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "qrsums: internal invariant violation: forced at p = 4051\n")
    assert existing.read_text() == "old,content\n"
    assert list(tmp_path.iterdir()) == [existing]


def test_scan_out_keeps_links_modes_and_pipes(capsys, tmp_path):
    # a regular file is replaced behind its symlink and keeps its mode; a
    # new one gets open()'s mode; a FIFO is written in place and stays one
    assert run_cli("scan", "--from", "3", "--to", "200") == 0
    rows = capsys.readouterr().out
    target = tmp_path / "rows.csv"
    target.write_text("old,content\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    fresh = tmp_path / "fresh.csv"
    for out in (link, fresh):
        assert run_cli("scan", "--from", "3", "--to", "200", "--out", str(out)) == 0
    assert link.is_symlink() and target.read_text() == rows == fresh.read_text()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask

    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run_cli("scan", "--from", "3", "--to", "200", "--out", str(fifo)) == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and read == [rows]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == sorted([target, link, fresh, fifo])


# ---- report --------------------------------------------------------------

def test_report_23(capsys):
    assert run_cli("report", "23") == 0
    out = capsys.readouterr().out
    assert report_line("T", -69) in out
    assert report_line("C", 69) in out
    assert report_line("h", 3) in out
    assert report_line("s_low", 3) in out
    assert report_line("t_expr", [-69, -69, -69, -69, -69]) in out


def test_report_3(capsys):
    assert run_cli("report", "3") == 0
    out = capsys.readouterr().out
    assert report_line("T", 3) in out
    assert report_line("C", 1) in out
    assert report_line("h", 1) in out


def test_report_json_float(capsys):
    assert run_cli("report", "23", "--float", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["T"] == -69 and doc["C"] == 69 and doc["h"] == 3
    assert doc["t_expr"] == [-69] * 5
    names = [c["name"] for c in doc["float_checks"]]
    assert names == [
        "tangent_sum", "cotangent_sum", "whiteman_sum", "lebesgue_formula",
        "berndt_sum", "harmonic_bound", "polya_vinogradov_bound",
    ]
    assert all(c["pass"] for c in doc["float_checks"])


def test_report_class1_reduced(capsys):
    assert run_cli("report", "13", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 13 and doc["class_mod8"] == 5
    assert "T" not in doc  # only the vanishing checks
    assert [c["name"] for c in doc["float_checks"]] == ["tangent_sum", "cotangent_sum"]
    assert all(c["pass"] for c in doc["float_checks"])


def test_report_class1_exact_bytes(capsys):
    assert run_cli("report", "13") == 0
    assert capsys.readouterr().out == (
        "p           = 13\n"
        "class_mod8  = 5\n"
        "vanishing checks (p = 1 mod 4):\n"
        "  tangent_sum              computed=-2.10155717231e-15  reference=0"
        "  residual=2.10155717231e-15  tolerance=1.32033071219e-12  pass\n"
        "  cotangent_sum            computed=-2.40177962549e-15  reference=0"
        "  residual=2.40177962549e-15  tolerance=4.29303061128e-13  pass\n"
    )


@pytest.mark.parametrize("argv, digest", [
    (("verify", "--from", "9000", "--to", "10000", "--float"),
     "a24b5d521149518bd322aa253aa475a17197e507492751850a915b6d65d6bb53"),
    (("report", "99991", "--float", "--json"),
     "067606803313bedd15d301db84a9adcd2f073301fd07994ec4946acad68b28b5"),
    (("report", "9187", "--float", "--json"),
     "5ae501682a8ea701a943b7ee4b633e44f6c700900c4b9d1ecff324b751610c68"),
])
def test_float_output_pinned(argv, digest, capsys):
    # every printed digit of the five trig passes (and, from report, the two
    # bounds): sharing their angles or their terms must not move one
    assert run_cli(*argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# the 3 (mod 4) primes on either side of 115967, where a former tolerance
# policy reached 0.5 and report refused its float checks

@pytest.mark.parametrize("argv", [
    ("115963", "--float"),
    ("115979",),  # no float checks asked for
    ("115933",),  # class 1 runs its vanishing checks
])
def test_report_below_float_bound(argv, capsys):
    assert run_cli("report", *argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [("115979", "--float"), ("115981",)])
def test_report_float_bound(argv, capsys):
    # each check is held to its own rounding bound, which stays decisive
    # up to 2^32, so report runs its float checks past the old limit
    assert run_cli("report", argv[0], "--json", *argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["float_checks"]
    assert len(checks) == (7 if "--float" in argv else 2)
    assert all(c["pass"] and c["residual"] <= 0.5 * c["tolerance"] for c in checks)


def test_report_composite_is_usage_error(capsys):
    assert run_cli("report", "9") == 64
    assert "not an odd prime" in capsys.readouterr().err
    assert run_cli("report", "2") == 64


# ---- verify --------------------------------------------------------------

def test_verify_range(capsys):
    assert run_cli("verify", "--from", "3", "--to", "2000") == 0
    out = capsys.readouterr().out
    assert summary_line("failures", 0) in out
    assert summary_line("result", "PASS") in out
    assert "odd_sum_coefficient" in out
    assert "weighted_sum_signs" in out
    assert "low_interval_sign" in out
    assert "published disagrees" in out
    assert "agrees (branch unaffected)" in out


def test_verify_empty_range(capsys):
    assert run_cli("verify", "--from", "5", "--to", "5") == 0
    out = capsys.readouterr().out
    assert summary_line("primes_checked", 0) in out
    assert summary_line("checks_run", 0) not in out  # errata checks always run
    assert summary_line("result", "PASS") in out


def test_verify_float(capsys):
    assert run_cli("verify", "--from", "3", "--to", "500", "--float") == 0
    out = capsys.readouterr().out
    assert summary_line("checks_run", 13568) in out  # includes every Gauss sum up to 499
    assert summary_line("result", "PASS") in out


def test_verify_float_cap(capsys):
    assert run_cli("verify", "--from", "3", "--to", "300", "--float", "--float-cap", "50") == 0


def test_verify_float_cap_bound(monkeypatch, capsys):
    # the cap is bounded by is_prime's proven range alone; 115967, where a
    # former tolerance policy reached 0.5, is an ordinary cap
    assert run_cli("verify", "--from", "3", "--to", "20", "--float", "--float-cap", "115967") == 0
    assert run_cli("verify", "--from", "3", "--to", "20", "--float", "--float-cap", "0") == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("verification started")

    monkeypatch.setattr(verify_mod, "primes_in_range", never)
    assert run_cli("verify", "--from", "3", "--to", "20", "--float-cap", str(1 << 32)) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qrsums: --float-cap must be < 2^32, got {1 << 32}\n"


def class3(lo, hi):
    return {p.value for p in primes_in_range(lo, hi, mod4=3)}


@pytest.mark.parametrize("argv, primes", [
    (("verify", "--from", "3", "--to", "600", "--float"), class3(3, 600)),
    (("verify", "--from", "600", "--to", "700", "--float"), class3(600, 700) | {7, 11}),
    (("report", "9187", "--float"), {9187}),
    (("scan", "--from", "3", "--to", "600"), class3(3, 600)),
], ids=["verify-3-600", "verify-600-700", "report-9187", "scan-3-600"])
def test_each_profile_built_once(monkeypatch, capsys, argv, primes):
    # every layer reads the profile its caller built, the errata at 7 and 11
    # included, and none builds its own
    built = collections.Counter()
    make = residues.ResidueProfile

    def counted(**fields):
        built[fields["p"].value] += 1
        return make(**fields)

    monkeypatch.setattr(residues, "ResidueProfile", counted)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert built == dict.fromkeys(primes, 1)


# ---- gauss ---------------------------------------------------------------

def test_gauss_cli(capsys):
    assert run_cli("gauss", "--p", "7") == 0
    out = capsys.readouterr().out
    assert "gauss_sum(k=1)" in out and "gauss_sum(k=6)" in out
    assert "PASS" in out


def test_gauss_output_pinned(capsys):
    # every printed digit of the p(p-1) sums: a kernel change must not move one
    assert run_cli("gauss", "--p", "727") == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "594542631bc5059e520d5816276fb00dacd502ef8c9d65bb7444926702e7901b"


@pytest.mark.parametrize("pv, digest", [
    (719, "7507d7fdfc51e149be164b19fe250e02cdbc7eb44d1a2109ce8ef58b3d1c78c3"),
    (739, "ca435631e73a1b8a7cf45b84072ee4933b8f75275add140413522e03d3eab65d"),
    (743, "b9a438408977dbc44b60cb066d446db3182cf57876b160f917728328682961f8"),
])
def test_gauss_bench_primes_pinned(pv, digest, capsys):
    # with 727, every prime the gauss benchmark draws is pinned to the byte
    assert run_cli("gauss", "--p", str(pv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_gauss_sums_p_terms_for_each_k(monkeypatch, capsys):
    # the kernel may fetch its terms any way it likes, but each k still sums p
    summed = analytic._compensated_complex
    sizes = []

    def counting_sum(terms):
        sizes.append(len(terms))
        return summed(terms)

    monkeypatch.setattr(analytic, "_compensated_complex", counting_sum)
    assert run_cli("gauss", "--p", "727") == 0
    assert sizes == [727] * 726


def test_gauss_cli_rejects_class1(capsys):
    assert run_cli("gauss", "--p", "13") == 64
    assert capsys.readouterr() == (
        "", "qrsums: p = 13 is 1 (mod 4); the pure-imaginary closed form needs 3 (mod 4)\n"
    )
    assert run_cli("gauss", "--p", "15") == 64


MERSENNE_61 = str((1 << 61) - 1)  # prime, = 3 (mod 4)


@pytest.mark.parametrize("argv", [("report",), ("report", "--float", "--json"), ("gauss", "--p")])
def test_huge_prime_rejected(argv):
    # a subprocess with a timeout: without the ceiling, report runs out of
    # memory building the table and gauss runs for days
    proc = subprocess.run(
        [sys.executable, "-m", "qrsums", *argv, MERSENNE_61],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr == f"qrsums: p must be < 2^32, got {MERSENNE_61}\n"


def test_prime_ceiling_is_2_to_32(monkeypatch, capsys):
    monkeypatch.setattr(cli.verify, "residue_profile", never)
    monkeypatch.setattr(cli.analytic, "gauss_sum_checks", never)
    first_above = (1 << 32) + 15  # the least prime above 2^32, = 3 (mod 4)
    assert run_cli("report", str(first_above)) == 64
    assert run_cli("gauss", "--p", str(first_above)) == 64
    assert capsys.readouterr().err == 2 * f"qrsums: p must be < 2^32, got {first_above}\n"
    with fail_fast(), pytest.raises(Started):  # the largest prime below 2^32 gets through
        run_cli("report", str((1 << 32) - 5))


TOP_PRIMES = ("--from", str((1 << 32) - 17), "--to", str((1 << 32) - 5))  # both = 3 (mod 4)


@pytest.mark.parametrize("argv", [
    ("report", str((1 << 32) - 5)),
    ("scan", *TOP_PRIMES, "--jobs", "1"),
    ("scan", *TOP_PRIMES, "--jobs", "2"),
    ("verify", *TOP_PRIMES),
], ids=["report", "scan-jobs1", "scan-jobs2", "verify"])
def test_out_of_memory_exits_failure(monkeypatch, capsys, argv):
    # fail_fast leaves 1 GiB of address space, so the residue table of a
    # prime near 2^32 cannot be had, in a pool worker either
    if argv[-2:] == ("--jobs", "2") and multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the address-space limit")
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)  # keep 2 workers on 1 core
    with fail_fast():
        assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qrsums: not enough memory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_gauss_cost_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli.analytic.math, "cos", never)
    assert run_cli("gauss", "--p", "16411") == 64  # the least eligible prime above 2^14
    assert capsys.readouterr().err == "qrsums: gauss sums p(p-1) terms; p must be < 2^14, got 16411\n"
    with fail_fast(), pytest.raises(Started):  # the largest eligible prime below 2^14 gets through
        run_cli("gauss", "--p", "16363")


# ---- exit codes ----------------------------------------------------------

def test_usage_errors():
    assert run_cli("scan", "--from", "1", "--to", "10") == 64
    assert run_cli("scan", "--from", "10", "--to", "3") == 64
    assert run_cli("scan", "--from", "3", "--to", str(1 << 32)) == 64
    assert run_cli("scan", "--from", "3", "--to", "12", "--jobs", "0") == 64
    assert run_cli("nonsense") == 64
    assert run_cli("scan", "--bogus-flag", "3") == 64
    assert run_cli() == 64


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InvariantError("forced for the exit-code test")

    monkeypatch.setattr(verify_mod, "run_verify", boom)
    assert run_cli("verify", "--from", "3", "--to", "100") == 2
    assert "internal invariant violation" in capsys.readouterr().err


def test_imprimitive_form_exits_internal(monkeypatch, capsys):
    monkeypatch.setattr(classnum, "gcd", lambda *args: 2)
    assert run_cli("verify", "--from", "3", "--to", "50") == 2
    assert capsys.readouterr().err == (
        "qrsums: internal invariant violation: imprimitive form (1, 1, 1) for p=3\n"
    )


# (prime, profile count, change, message): a residue gap that breaks its sign
# law (positive exactly at p = 3 (mod 8)) or, at p = 3 (mod 8), its
# divisibility by 3 is caught by the raises in c_exact and h_from_residues
DOCTORED_GAPS = [
    # q_o one too high at p = 11 leaves T(p) = 44, which 3 does not divide
    (11, "q_o", 1, "T(p) = 44 not divisible by 3 at p=11"),
    # gap 3 - 6 = -3: divisible by 3, but negative at a 3 (mod 8) prime
    (19, "q_e", 6, "nonpositive class number -1 at p=19"),
    # gap -3 + 20 = 17: positive at a 7 (mod 8) prime
    (23, "q_o", 20, "nonpositive class number -17 at p=23"),
    # gap 3 + 2 = 5: positive, but 3 does not divide it
    (19, "q_o", 2, "T(p) = 95 not divisible by 3 at p=19"),
]


def test_doctored_profile_exits_internal(monkeypatch, capsys):
    for pv, field, delta, message in DOCTORED_GAPS:
        def doctored(p, field=field, delta=delta):
            prof = residue_profile(p)
            return prof._replace(**{field: getattr(prof, field) + delta})

        monkeypatch.setattr(verify_mod, "residue_profile", doctored)
        for argv in (
            ("verify", "--from", str(pv), "--to", str(pv)),
            ("report", str(pv)),
            ("scan", "--from", str(pv), "--to", str(pv), "--jobs", "1"),
        ):
            assert run_cli(*argv) == 2, argv
            assert capsys.readouterr() == (
                "", f"qrsums: internal invariant violation: {message}\n"
            ), argv


def test_set_byte_0_is_a_table_count_failure(monkeypatch, capsys):
    # byte 0 stands for k = 0, where cot is undefined; the float suite never
    # reads it, so a set byte 0 is one failed check, not a division by zero
    assert run_cli("report", "23", "--float") == 0
    clean = capsys.readouterr()

    def byte_0_set(p):
        prof = residue_profile(p)
        return prof._replace(qr_table=b"\x01" + prof.qr_table[1:])

    monkeypatch.setattr(verify_mod, "residue_profile", byte_0_set)
    assert run_cli("verify", "--from", "23", "--to", "23", "--float") == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert summary_line("failures", 1) in out.splitlines()
    failures = [line for line in out.splitlines() if line.startswith("  p=")]
    assert failures == ["  p=23 table_count: expected 11, got 12"]
    # report runs the record checks and the float suite, and neither reads byte 0
    assert run_cli("report", "23", "--float") == 0
    assert capsys.readouterr() == clean


def test_internal_error_in_scan_worker(monkeypatch, capsys):
    # workers fork from this process, so they inherit the patched residue_profile
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    parent = os.getpid()

    def boom(p):
        raise InvariantError(f"forced in pid {os.getpid()}")

    monkeypatch.setattr(verify_mod, "residue_profile", boom)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)  # keep 2 workers on 1 core
    assert run_cli("scan", "--from", "3", "--to", "200", "--jobs", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("qrsums: internal invariant violation: forced in pid ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert int(err.split()[-1]) != parent


RECORD_ARGVS = [
    ("scan", "--from", "3", "--to", "200", "--jobs", "1"),
    ("scan", "--from", "3", "--to", "200", "--jobs", "2"),
    ("report", "23"),
]
RECORD_IDS = ["scan-jobs1", "scan-jobs2", "report"]


@pytest.mark.parametrize("route", ["t_from_m", "h_from_residues"])
@pytest.mark.parametrize("argv", RECORD_ARGVS, ids=RECORD_IDS)
def test_disagreeing_second_route_exits_internal(monkeypatch, capsys, route, argv):
    # scan rows and report run verify's record checks on their record
    if argv[-2:] == ("--jobs", "2") and multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    monkeypatch.setattr(verify_mod, route, lambda p, prof: 0)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)  # keep 2 workers on 1 core
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    check = {"t_from_m": "t_route_weighted", "h_from_residues": "h_routes_agree"}[route]
    assert out == ""
    assert err.startswith(f"qrsums: internal invariant violation: {check}: expected ")
    assert err.endswith(f", got 0 at p={3 if argv[0] == 'scan' else 23}\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv", RECORD_ARGVS, ids=RECORD_IDS)
def test_c_off_by_2p_exits_internal(monkeypatch, capsys, argv):
    # C + 2p keeps C's shape (odd, one factor p), so only C = p*h catches it
    if argv[-2:] == ("--jobs", "2") and multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    sum_record = verify_mod.sum_record

    def c_plus_2p(p, prof):
        rec = sum_record(p, prof)
        return rec._replace(c_value=rec.c_value + 2 * p.value)

    monkeypatch.setattr(verify_mod, "sum_record", c_plus_2p)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)  # keep 2 workers on 1 core
    assert run_cli(*argv) == 2
    # p = 3: 3 * h = 3 against (1 + 6) * 3 units; p = 23: 23 * 3 = 69 against 115
    failure = "expected 3, got 21 at p=3" if argv[0] == "scan" else "expected 69, got 115 at p=23"
    assert capsys.readouterr() == ("", f"qrsums: internal invariant violation: c_vs_h: {failure}\n")
    assert multiprocessing.active_children() == []


def test_scan_worker_error_stops_the_pool(monkeypatch, capsys):
    # one early prime fails; the command must not wait for the rest of the range
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    real_profile = verify_mod.residue_profile

    def fail_at_1019(p):
        if p.value == 1019:
            raise InvariantError("forced at p = 1019")
        return real_profile(p)

    monkeypatch.setattr(verify_mod, "residue_profile", fail_at_1019)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)
    start = time.monotonic()
    assert run_cli("scan", "--from", "3", "--to", "150000", "--jobs", "2") == 2
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == "qrsums: internal invariant violation: forced at p = 1019\n"


def test_scan_worker_error_never_terminates_the_pool(monkeypatch, capsys):
    # Pool.terminate kills workers, and one killed while it sends a result
    # can leave the pool blocked for good; the scan must close and join it
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    real_profile = verify_mod.residue_profile

    def fail_at_1019(p):
        if p.value == 1019:
            raise InvariantError("forced at p = 1019")
        return real_profile(p)

    def terminate(self):
        raise AssertionError("Pool.terminate reached")

    monkeypatch.setattr(verify_mod, "residue_profile", fail_at_1019)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", terminate)
    assert run_cli("scan", "--from", "3", "--to", "2000", "--jobs", "2") == 2
    assert capsys.readouterr().err == "qrsums: internal invariant violation: forced at p = 1019\n"
    assert multiprocessing.active_children() == []


def _interrupt(argv, started):
    """Run `python -m qrsums *argv` in a session of its own and, once
    started(proc) returns, send SIGINT to its process group, as Ctrl-C does;
    return its status and stderr once no process is left in the session."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    with subprocess.Popen(
        [sys.executable, "-m", "qrsums", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    ) as proc:
        try:
            started(proc)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
            # the new session is its own process group: signal 0 finds no member
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
            return proc.returncode, err.decode()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


def _header_written(proc):
    assert proc.stdout.readline().decode().strip() == CSV_HEADER


def _verify_running(proc):
    # verify prints nothing until its range is done, minutes away for
    # 3..400000; the interpreter is inside main within a fraction of a second
    time.sleep(2)


@pytest.mark.parametrize("argv, started", [
    pytest.param(("scan", "--jobs", "2"), _header_written, id="scan-jobs2"),
    pytest.param(("scan", "--jobs", "1"), _header_written, id="scan-jobs1"),
    pytest.param(("verify",), _verify_running, id="verify"),
])
def test_ctrl_c_exits_130(argv, started):
    # Ctrl-C signals the whole process group: any workers ignore it and the
    # parent stops them, then says so in one line and exits 130
    argv = (*argv, "--from", "3", "--to", "400000")
    assert _interrupt(argv, started) == (130, "qrsums: interrupted\n")


def test_ctrl_c_leaves_out_as_it_was(tmp_path):
    # the temporary file appears once the first row, and so the pool, exists
    out = tmp_path / "rows.csv"
    out.write_text("old,content\n")

    def tmp_file_made(proc):
        deadline = time.monotonic() + 30
        while not list(tmp_path.glob(".rows.csv.*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)

    argv = ("scan", "--from", "3", "--to", "400000", "--jobs", "2", "--out", str(out))
    assert _interrupt(argv, tmp_file_made) == (130, "qrsums: interrupted\n")
    assert out.read_text() == "old,content\n"
    assert list(tmp_path.iterdir()) == [out]


def test_broken_pipe_exits_quietly():
    with subprocess.Popen(
        [sys.executable, "-m", "qrsums", "scan", "--from", "3", "--to", "30000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().decode().strip() == CSV_HEADER
        proc.stdout.close()  # the reader goes away, as `| head -1` would
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("report", "23"),
    ("gauss", "--p", "727"),
    ("scan", "--from", "3", "--to", "30000"),
])
def test_full_disk_exits_quietly(argv):
    # stdout buffered, as by default: report's few lines fail only when flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qrsums", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == "qrsums: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for a two-worker pool")
def test_broken_pipe_stops_the_pool():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qrsums", "scan", "--from", "3", "--to", "150000", "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().decode().strip() == CSV_HEADER
        proc.stdout.close()
        closed = time.monotonic()
        assert proc.wait(timeout=60) == 1
        assert time.monotonic() - closed < 5
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_cli_import_is_lean():
    # multiprocessing loads only when a scan runs with more than one worker,
    # tempfile only for scan --out, and dataclasses never; -S keeps the .pth
    # files of site-packages from importing any of them first
    src = os.path.dirname(os.path.dirname(cli.__file__))
    unused = {"concurrent.futures", "dataclasses", "multiprocessing", "tempfile"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); "
         f"import qrsums.cli; print(sorted({unused!r} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qrsums", "report", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert report_line("T", -7) in proc.stdout
