"""The four workloads: inputs from a seed, the CLI arguments they become,
and the checks the benchmark makes on every pass's output.

Every check here is the benchmark's own: primes come from its own sieve,
Legendre symbols from its own square sets, and scan rows are held to the
identities linking T, C, h and the residue counts.  A pass is one call of
``qrsums.cli.main`` with one command.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

CSV_HEADER = "p,class_mod8,q_o,q_e,A,M,T,C,h,s_low,s_high,even_lo,even_hi"

# Passes are sized to about a fifth of a second, so a run holds over a
# hundred of them and its fast decile rests on ten or more.
# Consecutive primes = 3 (mod 4) near 730; passes cycle through 3 of them,
# so the cheapest pass is 719 or 727 on every seed (costs 2% apart).
GAUSS_CANDIDATES = (719, 727, 739, 743)
GAUSS_PRIMES = 3
VERIFY_EXACT_PRIMES = 15
VERIFY_FLOAT_PRIMES = 10
SCAN_TO = 8_000
FLOAT_CAP = 10_000  # the CLI's default --float-cap


def sieve(n: int) -> bytearray:
    """flags[k] == 1 exactly when k <= n is prime."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for d in range(2, isqrt(n) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, n + 1, d)))
    return flags


def primes3(lo: int, hi: int) -> list[int]:
    """Primes p = 3 (mod 4) in [lo, hi]."""
    flags = sieve(hi)
    start = lo + (3 - lo) % 4
    return [p for p in range(start, hi + 1, 4) if flags[p]]


def squares_mod(p: int) -> set[int]:
    return {j * j % p for j in range(1, (p - 1) // 2 + 1)}


@dataclass
class Plan:
    """What one workload runs, generated from its seed."""

    commands: list[list[str]]  # passes cycle through these
    bands: list[set[int]]  # primes = 3 (mod 4) each command fully works
    check: Callable[[int, str], list[tuple[str, bool]]]  # (command index, stdout)
    jobs: int = 0  # worker processes each command runs at once
    serial_commands: list[list[str]] = field(default_factory=list)  # jobs=1 twin


def _band(lo: int, count: int) -> list[int]:
    width = 64 * count  # > 3x the mean gap of primes = 3 (mod 4) up to 1e5
    band = primes3(lo, lo + width)[:count]
    if len(band) < count:
        raise RuntimeError(f"band from {lo} too sparse")
    return band


def _verify_plan(lo: int, count: int, with_float: bool) -> Plan:
    band = _band(lo, count)
    cmd = ["verify", "--from", str(lo), "--to", str(band[-1])]
    if with_float:
        if band[-1] > FLOAT_CAP:
            raise RuntimeError("float band beyond the float cap")
        cmd.append("--float")

    def check(_: int, out: str) -> list[tuple[str, bool]]:
        return check_verify(out, len(band))

    return Plan(commands=[cmd], bands=[set(band)], check=check)


def plan_verify_exact(rng: random.Random) -> Plan:
    return _verify_plan(60_000 + rng.randrange(2_000), VERIFY_EXACT_PRIMES, False)


def plan_verify_float(rng: random.Random) -> Plan:
    # above GAUSS_CAP (500), so exponential sums stay out
    return _verify_plan(9_000 + rng.randrange(200), VERIFY_FLOAT_PRIMES, True)


def plan_scan(rng: random.Random) -> Plan:
    hi = SCAN_TO + rng.randrange(200)
    jobs = min(os.cpu_count() or 1, 2)
    expected = primes3(3, hi)

    def cmd(j: int) -> list[str]:
        return ["scan", "--from", "3", "--to", str(hi), "--jobs", str(j)]

    def check(_: int, out: str) -> list[tuple[str, bool]]:
        return check_scan(out, expected)

    return Plan(
        commands=[cmd(jobs)],
        bands=[set(expected)],
        check=check,
        jobs=jobs,
        serial_commands=[cmd(1)],
    )


def plan_gauss(rng: random.Random) -> Plan:
    primes = sorted(rng.sample(GAUSS_CANDIDATES, GAUSS_PRIMES))
    residues = {p: squares_mod(p) for p in primes}

    def check(i: int, out: str) -> list[tuple[str, bool]]:
        p = primes[i]
        return check_gauss(out, p, residues[p])

    return Plan(
        commands=[["gauss", "--p", str(p)] for p in primes],
        bands=[{p} for p in primes],
        check=check,
    )


PLANS: dict[str, Callable[[random.Random], Plan]] = {
    "verify-exact": plan_verify_exact,
    "verify-float": plan_verify_float,
    "scan": plan_scan,
    "gauss": plan_gauss,
}


def make_plan(workload: str, seed: int) -> Plan:
    return PLANS[workload](random.Random(f"{workload}:{seed}"))


# --- output checks ---------------------------------------------------------


def parse_fields(out: str) -> dict[str, str]:
    # "name   = value" lines at column 0
    fields = {}
    for line in out.splitlines():
        if line[:1].strip() and " = " in line:
            key, value = line.split(" = ", 1)
            fields[key.strip()] = value.strip()
    return fields


def check_verify(out: str, band_size: int) -> list[tuple[str, bool]]:
    f = parse_fields(out)
    return [
        ("verify_failures_zero", f.get("failures") == "0"),
        ("verify_result_pass", f.get("result") == "PASS"),
        ("verify_primes_checked", f.get("primes_checked") == str(band_size)),
        ("verify_checks_run", f.get("checks_run", "").isdigit()),
    ]


_GAUSS_LINE = re.compile(
    r"^\s+gauss_sum\(k=(\d+)\)\s+computed=[-+]?[\d.]+(?:e[-+]?\d+)?"
    r"([-+])[\d.]+(?:e[-+]?\d+)?i\s.*\s(\S+)$"
)


def check_gauss(out: str, p: int, residues: set[int]) -> list[tuple[str, bool]]:
    """p-1 lines, all pass, each imaginary part signed as (k|p)."""
    lines = out.splitlines()
    body, summary = lines[:-1], lines[-1] if lines else ""
    results = [("gauss_line_count", len(body) == p - 1)]
    for k, line in enumerate(body, start=1):
        m = _GAUSS_LINE.match(line)
        ok = bool(m) and int(m.group(1)) == k and m.group(3) == "pass"
        if ok:
            sign = 1 if m.group(2) == "+" else -1
            ok = sign == (1 if k in residues else -1)
        results.append(("gauss_sum_sign", ok))
    results.append(
        ("gauss_summary_pass", summary.startswith(f"p={p}: {p - 1} sums") and summary.endswith("PASS"))
    )
    return results


def row_errors(row: dict[str, int]) -> list[str]:
    """Identities every scan row must satisfy; empty when the row is sound."""
    p, t, c, h = row["p"], row["T"], row["C"], row["h"]
    errors = []
    if row["class_mod8"] != p % 8:
        errors.append("class_mod8")
    if t != p * (row["q_o"] - row["q_e"]):
        errors.append("T = p(q_o - q_e)")
    if (c != -t) if p % 8 == 7 else (3 * c != t):
        errors.append("C = -T or T/3")
    if p > 3 and c != p * h:
        errors.append("C = p h")
    if row["q_o"] + row["q_e"] != (p - 1) // 2:
        errors.append("q_o + q_e = (p-1)/2")
    if row["s_low"] * row["s_high"] != 0:
        errors.append("s_low s_high = 0")
    return errors


def parse_row(line: str) -> dict[str, int]:
    names, values = CSV_HEADER.split(","), line.split(",")
    if len(values) != len(names):
        raise ValueError(f"{len(values)} fields, expected {len(names)}")
    return dict(zip(names, map(int, values)))


def check_scan(out: str, expected: list[int]) -> list[tuple[str, bool]]:
    """Header, one row per expected prime in order, every row sound."""
    lines = out.splitlines()
    results = [
        ("scan_header", bool(lines) and lines[0] == CSV_HEADER),
        ("scan_row_count", len(lines) - 1 == len(expected)),
    ]
    for line, p in zip(lines[1:], expected):
        try:
            row = parse_row(line)
        except ValueError:
            results.append(("scan_row", False))
            continue
        results.append(("scan_row", row.get("p") == p and not row_errors(row)))
    return results
