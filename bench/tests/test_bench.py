"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from qrsums import analytic, classnum, cli, scan  # noqa: E402
from qrsums.arith import OddPrime  # noqa: E402


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 0, None, None]


def test_self_time_of_nested_spans():
    # main [0, 100] holds a [10, 30] and b [40, 90]; b holds c [50, 60]
    recs = [
        _span("main", "cli", 0, 100, -1),
        _span("a", "residues", 10, 30, 0),
        _span("b", "verify", 40, 90, 0),
        _span("c", "residues", 50, 60, 2),
    ]
    assert spans.self_times(recs) == [30, 20, 40, 10]
    m = spans.pass_metrics(recs, set())
    assert m["residues.self_s"] == pytest.approx(30e-9)
    assert m["verify.self_s"] == pytest.approx(40e-9)
    assert m["cli.self_s"] == pytest.approx(30e-9)


def test_tracer_records_parents_and_restores():
    tracer = spans.Tracer()
    original = analytic.t_float
    with tracer.installed():
        assert analytic.t_float is not original
        tracer.begin_pass()
        analytic.bound_pv(OddPrime(19))
    assert analytic.t_float is original
    (recs,) = tracer.passes
    names = [(r[spans.NAME], r[spans.PARENT]) for r in recs]
    # bound_pv looks residue_profile and t_exact up in the analytic module
    assert names == [("bound_pv", -1), ("residue_profile", 0), ("t_exact", 0)]
    assert all(r[spans.END] >= r[spans.START] for r in recs)


def _row(p: int) -> dict[str, int]:
    return scan.row_as_dict(scan.compute_row(OddPrime(p)))


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 4003])
def test_row_checker_accepts_real_rows(p):
    assert workloads.row_errors(_row(p)) == []


@pytest.mark.parametrize(
    "field, delta",
    [("T", 11 * 2), ("C", 1), ("h", 1), ("q_o", 1), ("s_low", 1), ("class_mod8", 4)],
)
def test_row_checker_rejects_corrupted_row(field, delta):
    row = _row(11)
    row[field] += delta
    assert workloads.row_errors(row)


def test_scan_check_flags_corrupted_csv():
    buf = io.StringIO()
    scan.write_csv(scan.scan_rows(3, 200), buf)
    expected = workloads.primes3(3, 200)
    good = buf.getvalue()
    assert all(ok for _, ok in workloads.check_scan(good, expected))
    lines = good.splitlines()
    fields = lines[5].split(",")
    fields[6] = str(int(fields[6]) + 2)  # T
    lines[5] = ",".join(fields)
    bad = workloads.check_scan("\n".join(lines) + "\n", expected)
    assert [name for name, ok in bad if not ok] == ["scan_row"]
    short = workloads.check_scan("\n".join(lines[:-1]) + "\n", expected)
    assert ("scan_row_count", False) in short


def test_gauss_check_flags_wrong_sign():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gauss", "--p", "19"]) == 0
    residues = workloads.squares_mod(19)
    assert all(ok for _, ok in workloads.check_gauss(out.getvalue(), 19, residues))
    flipped = {k for k in range(1, 19) if k not in residues}
    bad = workloads.check_gauss(out.getvalue(), 19, flipped)
    assert sum(not ok for _, ok in bad) == 18


def test_fast_decile_follows_unslowed_passes():
    import run

    for slowed in (10, 40, 70):  # share of passes slowed 1.5 times, in %
        walls = [1.0 + i / 1000 for i in range(100 - slowed)] + [1.5] * slowed
        assert 1.0 <= run.fast(walls) < 1.1
        assert 1 / 1.1 < run.fast([1 / w for w in walls], "higher") <= 1.0
    assert run.fast([1.0] * 60 + [1.5] * 40) == 1.0


def test_sieve_matches_trial_division():
    flags = workloads.sieve(500)
    assert [n for n in range(501) if flags[n]] == [
        n for n in range(2, 501) if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]
    assert workloads.primes3(3, 50) == [3, 7, 11, 19, 23, 31, 43, 47]


class _CountingMath:
    """Stands in for the math module inside qrsums.analytic, counting tan."""

    def __init__(self) -> None:
        self.tan_calls = 0

    def tan(self, x: float) -> float:
        self.tan_calls += 1
        return math.tan(x)

    def __getattr__(self, name):
        return getattr(math, name)


def test_computed_counts_match_brute_force(monkeypatch):
    # verify --float at small p runs all five trig passes and the gauss sums
    counting_math = _CountingMath()
    monkeypatch.setattr(analytic, "math", counting_math)
    terms = 0
    summed = analytic._compensated_complex

    def counting_sum(values):
        nonlocal terms
        values = list(values)
        terms += len(values)
        return summed(values)

    monkeypatch.setattr(analytic, "_compensated_complex", counting_sum)
    # each b the enumeration tries runs this line once
    code = classnum._forms_with_leading.__code__
    probe_line = _probe_line(code)
    b_seen = 0

    def local(frame, event, arg):
        nonlocal b_seen
        if event == "line" and frame.f_lineno == probe_line:
            b_seen += 1
        return local

    def global_trace(frame, event, arg):
        return local if frame.f_code is code else None

    tracer = spans.Tracer()
    band = set(workloads.primes3(13, 47))
    with tracer.installed():
        tracer.begin_pass()
        sys.settrace(global_trace)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tracer.span("main", "cli", cli.main)(
                    ["verify", "--from", "13", "--to", "47", "--float"]
                )
        finally:
            sys.settrace(None)
    assert rc == 0
    m = spans.pass_metrics(tracer.passes[0], band)
    assert counting_math.tan_calls > 0
    assert m["analytic.trig_evals"] == counting_math.tan_calls
    assert terms > 0
    assert m["analytic.gauss_terms"] == terms
    assert b_seen > 0
    assert m["classnum.b_tried"] == b_seen


def _probe_line(code) -> int:
    lines, first = inspect.getsourcelines(code)
    for offset, line in enumerate(lines):
        if "(b * b + pv) % (4 * a)" in line:
            return first + offset
    raise AssertionError("probe line not found in _forms_with_leading")
