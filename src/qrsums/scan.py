"""Range scans: one row of exact statistics per prime p = 3 (mod 4).

The range is sieved once, and the rows come from an ordered map over its
primes, so output is the same for any worker count.  With more than one
worker the map runs on a process pool; leaving the pool terminates it, so a
reader that goes away or a worker that fails ends the scan at once.  Every
row value is an exact integer.  prime_record builds each row, and `report`'s
record too, and checks T and h by their second routes before either goes out.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Iterator

from .arith import InvariantError, OddPrime, primes_in_range
from .classnum import h_from_forms, h_from_residues
from .residues import ResidueProfile, residue_profile
from .sums import SumRecord, sum_record, t_from_m

COLUMNS = ("p", "class_mod8", "q_o", "q_e", "A", "M", "T", "C", "h",
           "s_low", "s_high", "even_lo", "even_hi")
CSV_HEADER = ",".join(COLUMNS)

# one row: the thirteen integers named by COLUMNS, in that order
Row = tuple[int, ...]


class PoolStartError(Exception):
    """The system refused the processes of a --jobs pool."""


def prime_record(p: OddPrime) -> tuple[Row, ResidueProfile, SumRecord, int]:
    """p's row with the profile, sum record and forms-route h it is read from;
    a T or h route that disagrees is an InvariantError naming p."""
    prof = residue_profile(p)
    rec = sum_record(p, prof)
    h = h_from_forms(p)
    t_routes = (*rec.t_expr, t_from_m(p, prof))
    if set(t_routes) != {rec.t_value}:
        raise InvariantError(f"T routes {t_routes} disagree with T = {rec.t_value} at p={p.value}")
    if (h_res := h_from_residues(p, prof)) != h:
        raise InvariantError(f"h from residues {h_res} != h from forms {h} at p={p.value}")
    row = (
        p.value, p.class_mod8, prof.q_o, prof.q_e, prof.a_sum, prof.m_sum,
        rec.t_value, rec.c_value, h, prof.s_low, prof.s_high,
        prof.even_below_half, prof.even_above_half,
    )
    return row, prof, rec, h


def compute_row(p: OddPrime) -> Row:
    return prime_record(p)[0]


def scan_rows(lo: int, hi: int, jobs: int = 1) -> Iterator[Row]:
    """Rows for all primes p = 3 (mod 4) in [lo, hi], ascending."""
    primes = primes_in_range(max(lo, 3), hi, mod4=3)
    # more workers than cores or primes buy nothing
    jobs = min(jobs, os.cpu_count() or 1, len(primes))
    if jobs <= 1:
        yield from map(compute_row, primes)
        return
    # per-prime cost grows with p; four chunks per worker, each handed to
    # the next free worker, keep the costly last primes from running alone
    chunksize = -(-len(primes) // (4 * jobs))
    # imported here: a serial scan, and every other command, never loads it
    from multiprocessing import Pool

    try:
        pool = Pool(jobs)  # one that fails part way stops what it started
    except OSError as exc:
        raise PoolStartError(f"cannot start the worker pool: {exc}") from None
    with pool:
        yield from pool.imap(compute_row, primes, chunksize)


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
