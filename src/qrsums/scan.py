"""Range scans: one row of exact statistics per prime p = 3 (mod 4).

The range is sieved once and cut into windows of consecutive primes, four
per worker, each spanning at most 2^20 integers.  A window's rows take h
from one class_numbers tally of the window, made when its first prime asks
for h, so no row enumerates its own forms.  The rows come from an ordered
map over the windows, so output is the same for any worker count.  With
more than one worker the map runs on a process pool, which is stopped,
closed and joined, never terminated: a reader that goes away, a worker that
fails or Ctrl-C ends the scan within one prime per worker.  Every row value
is an exact integer.  Each row, and `report`'s record too, is read off the
record that verify's check_record builds and checks (T by its second
routes, h against the residue route) before either goes out.
"""

from __future__ import annotations

import json
import os
import signal
from typing import IO, Callable, Iterable, Iterator

from .arith import _SEGMENT_SIZE, InvariantError, OddPrime, primes_in_range
from .classnum import class_numbers, h_from_forms
from .residues import ResidueProfile
from .residues import residue_profile  # noqa: F401  bench/spans.WRAP_TARGETS wraps this name
from .sums import SumRecord
from .sums import sum_record  # noqa: F401  bench/spans.WRAP_TARGETS wraps this name
from .verify import VerifyReport, check_record

COLUMNS = ("p", "class_mod8", "q_o", "q_e", "A", "M", "T", "C", "h",
           "s_low", "s_high", "even_lo", "even_hi")
CSV_HEADER = ",".join(COLUMNS)

# one row: the thirteen integers named by COLUMNS, in that order
Row = tuple[int, ...]


class PoolStartError(Exception):
    """The system refused the processes of a --jobs pool."""


def prime_record(
    p: OddPrime, h_of: Callable[[OddPrime], int] | None = None
) -> tuple[Row, ResidueProfile, SumRecord, int]:
    """p's row and the record that verify's check_record builds it from, with
    h from h_of, by default the count of p's reduced forms; the first of
    check_record's checks to fail is an InvariantError naming it."""
    checked = VerifyReport((p.value, p.value))
    prof, rec, h = check_record(p, checked, h_of or h_from_forms)
    for f in checked.failures[:1]:
        raise InvariantError(f"{f.check}: expected {f.expected}, got {f.actual} at p={f.p}")
    row = (
        p.value, p.class_mod8, prof.q_o, prof.q_e, prof.a_sum, prof.m_sum,
        rec.t_value, rec.c_value, h, prof.s_low, prof.s_high,
        prof.even_below_half, prof.even_above_half,
    )
    return row, prof, rec, h


def compute_row(p: OddPrime, h_of: Callable[[OddPrime], int] | None = None) -> Row:
    return prime_record(p, h_of)[0]


# a pool worker's copy of its scan's stop event, set by _start_worker
_stop = None


def _start_worker(stop) -> None:
    global _stop
    _stop = stop
    # Ctrl-C reaches the whole process group; the parent alone acts on it
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _windows(primes: list[OddPrime], size: int) -> list[list[OddPrime]]:
    """primes in runs of at most size, each within _SEGMENT_SIZE integers, so
    that one window's tally holds at most 2^18 counts."""
    windows: list[list[OddPrime]] = []
    for p in primes:
        if windows and len(windows[-1]) < size and p.value - windows[-1][0].value < _SEGMENT_SIZE:
            windows[-1].append(p)
        else:
            windows.append([p])
    return windows


def _window_rows(window: list[OddPrime]) -> Iterator[Row]:
    """The window's rows, until a pool worker's stop event is set.  The tally
    waits for the first h asked for, which comes after the first prime's
    residue table, so a table that cannot be had fails before it."""
    lo, counts = window[0].value, None

    def h_of(p: OddPrime) -> int:
        nonlocal counts
        if counts is None:
            counts = class_numbers(lo, window[-1].value)
        return counts[(p.value - lo) >> 2]

    for p in window:
        if _stop is not None and _stop.is_set():
            return
        yield compute_row(p, h_of)


def _window_list(window: list[OddPrime]) -> list[Row]:
    return list(_window_rows(window))


def scan_rows(lo: int, hi: int, jobs: int = 1) -> Iterator[Row]:
    """Rows for all primes p = 3 (mod 4) in [lo, hi], ascending."""
    primes = primes_in_range(max(lo, 3), hi, mod4=3)
    # more workers than cores or primes buy nothing
    jobs = min(jobs, os.cpu_count() or 1, len(primes))
    # per-prime cost grows with p; four windows per worker, each handed to
    # the next free worker, keep the costly last primes from running alone
    windows = _windows(primes, -(-len(primes) // (4 * max(jobs, 1))))
    if jobs <= 1:
        for window in windows:
            yield from _window_rows(window)
        return
    # imported here: a serial scan, and every other command, never loads it
    from multiprocessing import Event, Pool

    try:
        stop = Event()
        pool = Pool(jobs, _start_worker, (stop,))  # one that fails part way stops what it started
    except OSError as exc:
        raise PoolStartError(f"cannot start the worker pool: {exc}") from None
    try:
        for rows in pool.imap(_window_list, windows, 1):
            yield from rows
    finally:
        # never Pool.terminate: a worker killed while it sends a result can
        # leave the result queue locked and the pool's threads blocked for good
        stop.set()
        pool.close()
        pool.join()


def row_as_dict(row: Row) -> dict[str, int]:
    """Field order and names match the CSV columns."""
    return dict(zip(COLUMNS, row))


def write_csv(rows: Iterable[Row], fh: IO[str]) -> None:
    fh.write(CSV_HEADER + "\n")
    for row in rows:
        fh.write(",".join(map(str, row)) + "\n")


def write_json(rows: Iterable[Row], fh: IO[str]) -> None:
    fh.write("[")
    first = True
    for row in rows:
        fh.write("\n  " if first else ",\n  ")
        fh.write(json.dumps(row_as_dict(row)))
        first = False
    fh.write("]\n" if first else "\n]\n")
