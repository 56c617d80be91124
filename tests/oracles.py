"""Independent brute-force oracles for the test suite.

Nothing here imports the package under test.  Each function recomputes a
quantity from first principles in the slowest, most direct way available,
so agreement between an oracle and the library is a genuine cross-check of
two different computation routes.
"""

from math import cos, fsum, gcd, isqrt, pi, sin, sqrt, tan


def trial_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def sieve_flags(limit):
    # flags[n] == 1 iff n prime, for 0 <= n <= limit
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for d in range(2, isqrt(limit) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    return flags


def legendre_euler(k, p):
    # Euler criterion straight from the definition
    k %= p
    if k == 0:
        return 0
    return 1 if pow(k, (p - 1) // 2, p) == 1 else -1


def square_set(p):
    return {j * j % p for j in range(1, p)}


def residue_stats(p):
    """Every profile field by termwise Legendre evaluation."""
    assert p % 4 == 3
    chi = [legendre_euler(k, p) for k in range(p)]
    q_o = sum(1 for k in range(1, p, 2) if chi[k] == 1)
    q_e = sum(1 for k in range(2, p, 2) if chi[k] == 1)
    low_top = (p - 3) // 4
    half = (p - 1) // 2
    s_low = sum(chi[k] for k in range(1, low_top + 1))
    s_high = sum(chi[k] for k in range(low_top + 1, half + 1))
    even_below = sum(1 for k in range(2, p, 2) if chi[k] == 1 and k < p / 2)
    even_above = sum(1 for k in range(2, p, 2) if chi[k] == 1 and k > p / 2)
    a = sum(chi[k] for k in range(1, p, 2))
    m = sum(chi[k] * k for k in range(1, p))
    return {
        "q_o": q_o,
        "q_e": q_e,
        "s_low": s_low,
        "s_high": s_high,
        "even_below_half": even_below,
        "even_above_half": even_above,
        "a_sum": a,
        "m_sum": m,
    }


def t_value(p):
    stats = residue_stats(p)
    return p * (stats["q_o"] - stats["q_e"])


def reduced_forms_bruteforce(p):
    """Reduced primitive forms of discriminant -p, generous loop bounds."""
    out = []
    for a in range(1, isqrt(p) + 2):
        for b in range(-a, a + 1):
            if (b * b + p) % (4 * a):
                continue
            c = (b * b + p) // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            out.append((a, b, c))
    return sorted(out)


# primes = 3 (mod 4) spread over [2e4, 1e5]; used where a module invariant
# quotes a range too large to sweep exhaustively in the unit suite
LARGE_SAMPLE = (20011, 30011, 40031, 50023, 60083, 70003, 80039, 90007, 99991)


def naive_gauss_sum(k, p):
    # sum_{j=0}^{p-1} exp(2 pi i j^2 k / p) term by term, j ascending, each
    # exponent reduced mod p before it becomes an angle
    angles = [2.0 * pi / p * (j * j * k % p) for j in range(p)]
    return complex(fsum(cos(a) for a in angles), fsum(sin(a) for a in angles))


def naive_trig_sums(p):
    """The computed value of each float check, by name, from its defining
    expression term by term: n ascending for the square sums, k ascending for
    the chi-cot sum, each angle formed from the reduced integer, each sum an
    fsum.  The last three exist only at p = 3 (mod 4)."""
    root_p = sqrt(p)
    tans = [tan(pi * (n * n % p) / p) for n in range(1, p)]
    half = tans[: (p - 1) // 2]
    sums = {
        "tangent_sum": root_p * fsum(half),
        "cotangent_sum": root_p * fsum(1.0 / t for t in half),
    }
    if p % 4 == 3:
        residues = square_set(p)
        chi_cot = fsum((1.0 if k in residues else -1.0) / tan(pi * k / p) for k in range(1, p))
        units = 3 if p == 3 else 1  # w/2 for the discriminant -p field
        sums["whiteman_sum"] = fsum(1.0 / t for t in tans)
        sums["lebesgue_formula"] = units * chi_cot / (2.0 * root_p)
        sums["berndt_sum"] = root_p / 2.0 * chi_cot
    return sums
