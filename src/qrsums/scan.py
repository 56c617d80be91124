"""Range scans: one row of exact statistics per prime p = 3 (mod 4).

The range is sieved once, and the rows come from an ordered map over its
primes, so output is the same for any worker count.  With more than one
worker the map runs on a process pool; leaving the pool terminates it, so a
reader that goes away or a worker that fails ends the scan at once.  Every
row value is an exact integer.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Iterator

from .arith import OddPrime, primes_in_range
from .classnum import h_from_forms
from .residues import ResidueProfile, residue_profile
from .sums import SumRecord, sum_record

COLUMNS = ("p", "class_mod8", "q_o", "q_e", "A", "M", "T", "C", "h",
           "s_low", "s_high", "even_lo", "even_hi")
CSV_HEADER = ",".join(COLUMNS)

# one row: the thirteen integers named by COLUMNS, in that order
Row = tuple[int, ...]


def row_values(p: OddPrime, prof: ResidueProfile, rec: SumRecord, h: int) -> Row:
    """The row of p from its already computed profile, sum record and h."""
    return (
        p.value, p.class_mod8, prof.q_o, prof.q_e, prof.a_sum, prof.m_sum,
        rec.t_value, rec.c_value, h, prof.s_low, prof.s_high,
        prof.even_below_half, prof.even_above_half,
    )


def compute_row(p: OddPrime) -> Row:
    prof = residue_profile(p)
    return row_values(p, prof, sum_record(p, prof), h_from_forms(p))


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

    with Pool(jobs) as pool:
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
