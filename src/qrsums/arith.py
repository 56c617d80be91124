"""Integer substrate: deterministic primality, modular arithmetic, prime ranges.

Everything downstream works with validated odd primes.  The OddPrime wrapper
carries the residue classes mod 4 and mod 8 that drive every case split in
this package, and constructing one re-checks primality, so a prime that
reaches the sum and class-number code is a prime.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from operator import index
from typing import NamedTuple


class InvariantError(RuntimeError):
    """An internal cross-check failed.

    Raised when an identity that must hold by proof fails to hold in a
    computation (for example a division that must be exact leaves a
    remainder).  This always indicates a bug, never bad user input.
    """


# Trial division is exact and fast below this; Miller-Rabin takes over above.
_TRIAL_LIMIT = 10_000

# Strong-pseudoprime witness set: deterministic for every n < 2^64 (the
# proven bound for these twelve bases is psi_12 ~ 3.18e23; Sorenson and
# Webster, Math. Comp. 2017).  First twelve primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _trial_division(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _miller_rabin(n: int) -> bool:
    # n is odd, > _TRIAL_LIMIT, and not divisible by any witness base.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality test for integers n < 2^64; n >= 2^64 is a ValueError.

    Trial division below 10^4, then Miller-Rabin with the fixed witness
    set (2, 3, ..., 37), which is deterministic for all n < 2^64.
    """
    n = index(n)  # a float or a Fraction is a TypeError, as in OddPrime
    if n < 2:
        return False
    if n >= 1 << 64:  # psi_12 itself passes all twelve bases
        raise ValueError(f"primality is proven only below 2^64, got {n}")
    if n < _TRIAL_LIMIT:
        return _trial_division(n)
    for a in _MR_BASES:
        if n % a == 0:
            return False
    return _miller_rabin(n)


class OddPrime(NamedTuple("OddPrime", [("value", int), ("class_mod4", int), ("class_mod8", int)])):
    """A validated odd prime, an int below 2^64, with its classes mod 4 and 8."""

    __slots__ = ()

    def __new__(cls, value: int) -> OddPrime:
        value = index(value)
        if value < 3 or value % 2 == 0 or not is_prime(value):
            raise ValueError(f"{value} is not an odd prime")
        return super().__new__(cls, value, value % 4, value % 8)

    def __getnewargs__(self) -> tuple[int]:  # so unpickling, in a pool worker too, re-checks
        return (self.value,)

    @classmethod
    def _make(cls, iterable) -> OddPrime:  # so _replace re-checks, and the classes follow
        return cls(next(iter(iterable)))


def legendre(k: int, p: OddPrime) -> int:
    """Legendre symbol (k|p) in {-1, 0, +1} by Euler's criterion.

    k is reduced mod p first; (0|p) = 0.  For k not divisible by p,
    k^((p-1)/2) mod p is 1 or p-1, and p-1 maps to -1.
    """
    r = k % p.value
    if r == 0:
        return 0
    e = pow(r, (p.value - 1) // 2, p.value)
    # e == 1 or e == p - 1 whenever p is prime; OddPrime guarantees that.
    return 1 if e == 1 else -1


def primitive_root(p: OddPrime) -> int:
    """The least primitive root g of p: the least g >= 2 with
    g^((p-1)/q) != 1 (mod p) for each prime q dividing p - 1, the primes q
    found by trial division."""
    pv = p.value
    rest, q, factors = pv - 1, 2, []
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    g = 2
    while any(pow(g, (pv - 1) // q, pv) == 1 for q in factors):
        g += 1
    return g


# Segment width for the segmented sieve; ~1 MiB of workspace per segment.
_SEGMENT_SIZE = 1 << 20


def primes_in_range(lo: int, hi: int, *, mod4: int | None = None) -> list[OddPrime]:
    """Odd primes in [lo, hi], ascending, optionally filtered by residue class.

    Pass mod4=1 or mod4=3 to keep only the primes in that class mod 4; any
    other value except None is a ValueError.  Uses a segmented sieve, so hi
    can be large without building a full-range table.  The element type is
    OddPrime, so 2 is never included even when lo <= 2.  The base primes up
    to isqrt(hi) come from this function itself: only odd n are examined,
    so the odd base primes suffice.  Below 2^32 the recursion sieves at most
    four levels (up to 65535, 255, 15 and 3).
    """
    if lo < 2:
        raise ValueError(f"lo must be >= 2, got {lo}")
    if mod4 not in (None, 1, 3):
        raise ValueError(f"mod4 must be None, 1 or 3, got {mod4}")
    if hi < lo:
        return []
    # each segment keeps the marks at n = r (mod step): the odd n, or one class mod 4
    step, r = (2, 1) if mod4 is None else (4, mod4)
    base = [q.value for q in primes_in_range(3, isqrt(hi))]
    out: list[OddPrime] = []
    for seg_lo in range(max(lo, 3), hi + 1, _SEGMENT_SIZE):
        seg_hi = min(seg_lo + _SEGMENT_SIZE - 1, hi)
        mark = bytearray([1]) * (seg_hi - seg_lo + 1)
        for q in base:
            # a first multiple past seg_hi makes both sides empty
            first = max(q * q, (seg_lo + q - 1) // q * q)
            mark[first - seg_lo :: q] = bytes(len(range(first, seg_hi + 1, q)))
        first = seg_lo + (r - seg_lo) % step
        out += map(OddPrime, compress(range(first, seg_hi + 1, step),
                                      mark[first - seg_lo :: step]))
    return out
