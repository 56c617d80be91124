"""Range scans: one row of exact statistics per prime p = 3 (mod 4).

Output is deterministic for a given range regardless of worker count: the
range is cut into contiguous blocks, workers compute whole blocks, and rows
are emitted in block order.  Every row value is an exact integer.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
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
        p.value, p.class_mod8, prof.q_o, prof.q_e, rec.a_value, rec.m_value,
        rec.t_value, rec.c_value, h, prof.s_low, prof.s_high,
        prof.even_below_half, prof.even_above_half,
    )


def compute_row(p: OddPrime) -> Row:
    prof = residue_profile(p)
    return row_values(p, prof, sum_record(p, prof), h_from_forms(p))


def _rows_for_block(block: tuple[int, int]) -> list[Row]:
    lo, hi = block
    return [compute_row(p) for p in primes_in_range(lo, hi, mod4=3)]


def _blocks(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    # contiguous, covering [lo, hi]; a few blocks per worker for balance
    count = max(1, jobs * 4)
    span = hi - lo + 1
    width = max(1, -(-span // count))
    return [(a, min(a + width - 1, hi)) for a in range(lo, hi + 1, width)]


def scan_rows(lo: int, hi: int, jobs: int = 1) -> Iterator[Row]:
    """Rows for all primes p = 3 (mod 4) in [lo, hi], ascending."""
    lo = max(lo, 3)
    if hi < lo:
        return
    if jobs <= 1:
        for p in primes_in_range(lo, hi, mod4=3):
            yield compute_row(p)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for rows in pool.map(_rows_for_block, _blocks(lo, hi, jobs)):
            yield from rows


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
