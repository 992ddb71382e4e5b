"""Elementary number theory used across the package.

Everything here is exact integer arithmetic.  Factoring is trial division
(desk scale, inputs < 2^32); multiplicative orders are computed by factoring
the Carmichael function and descending through prime factors.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ParameterOutOfRange

# Deterministic Miller-Rabin with the bases 2, 7, 61 below 4,759,123,141, the
# least strong pseudoprime to all three (Jaeschke 1993).
_MR_THREE_BASE_BOUND = 4_759_123_141
_MR_BASES_THREE = (2, 7, 61)
# Deterministic Miller-Rabin below this bound with the 13 smallest prime bases
# (Sorenson & Webster).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_LARGE = _MR_BASES_SMALL + (
    41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173,
)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_THREE_BASE_BOUND:
        bases = _MR_BASES_THREE
    else:
        bases = _MR_BASES_SMALL if n < _MR_DETERMINISTIC_BOUND else _MR_BASES_LARGE
    for a in bases:
        if a % n == 0:  # n = 61: a base n divides proves nothing
            continue
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


@lru_cache(maxsize=None)
def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} by trial division."""
    if n < 1:
        raise ParameterOutOfRange(f"factorint expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorint(n)))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def carmichael(m: int) -> int:
    """Carmichael function lambda(m): the exponent of Z_m^x."""
    if m == 1:
        return 1
    lam = 1
    for p, e in factorint(m).items():
        if p == 2:
            block = 1 if e == 1 else (2 if e == 2 else 2 ** (e - 2))
        else:
            block = (p - 1) * p ** (e - 1)
        lam = math.lcm(lam, block)
    return lam


def multiplicative_order(r: int, m: int) -> int:
    """Order of r in Z_m^x.  Requires gcd(r, m) = 1."""
    if m == 1:
        return 1
    r %= m
    if math.gcd(r, m) != 1:
        raise ParameterOutOfRange(f"{r} is not a unit mod {m}")
    order = carmichael(m)
    for p in prime_factors(order):
        while order % p == 0 and pow(r, order // p, m) == 1:
            order //= p
    return order


def geometric_sum_mod(x: int, k: int, m: int) -> int:
    """1 + x + x^2 + ... + x^(k-1) mod m, in O(log k) steps.

    Works for any modulus (no inversion of x-1 needed): uses
    S(2j) = S(j)*(1 + x^j), S(2j+1) = x*S(2j) + 1.
    """
    if m == 1:
        return 0
    x %= m
    s, xp = 0, 1  # s = S(t), xp = x^t for the prefix t of k's bits
    for bit in bin(k)[2:]:
        s = s * (1 + xp) % m
        xp = xp * xp % m
        if bit == "1":
            s = (s * x + 1) % m
            xp = xp * x % m
    return s


def crt_pair(a1: int, m1: int, a2: int, m2: int) -> int:
    """x mod m1*m2 with x = a1 mod m1, x = a2 mod m2 (m1, m2 coprime)."""
    return (a1 + (a2 - a1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


@lru_cache(maxsize=None)
def primitive_root(q: int) -> int:
    """Smallest primitive root mod q, for q an odd prime power."""
    fact = factorint(q)
    if len(fact) != 1 or 2 in fact:
        raise ParameterOutOfRange(f"{q} is not an odd prime power")
    (p, e), = fact.items()
    phi_p = p - 1
    qs = prime_factors(phi_p)
    g = 2
    while any(pow(g, phi_p // f, p) == 1 for f in qs):
        g += 1
    if e == 1:
        return g
    # Lift to p^e: g works unless g^(p-1) = 1 mod p^2.
    if pow(g, phi_p, p * p) == 1:
        g += p
    return g


def torsion_elements(m: int, n: int) -> list[int]:
    """All r in [0, m) with r^n = 1 mod m, for odd m.  Sorted.

    Built from the cyclic structure of each Z_{p^e}^x: the n-torsion there is
    generated by g^(phi/gcd(n,phi)); combine across prime powers by CRT.
    """
    if m == 1:
        return [0]
    if m % 2 == 0:
        raise ParameterOutOfRange("torsion_elements expects odd m")
    residues = [(1, 1)]  # (value mod modulus, modulus)
    for p, e in factorint(m).items():
        q = p**e
        phi = (p - 1) * p ** (e - 1)
        t = math.gcd(n, phi)
        h = pow(primitive_root(q), phi // t, q)
        block = []
        v = 1
        for _ in range(t):
            block.append(v)
            v = v * h % q
        residues = [(crt_pair(a, mod, b, q), mod * q) for a, mod in residues for b in block]
    return sorted(a for a, _ in residues)


def harmonic_dim(q: int, k: int) -> int:
    """dim of degree-k harmonic polynomials in q+1 variables (sphere S^q)."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    return math.comb(k + q, q) - math.comb(k + q - 2, q)


def next_prime_in_progression(modulus: int, floor: int, start_offset: int = 0) -> int:
    """Smallest prime p = 1 + t*modulus with p > floor (t shifted by start_offset)."""
    t = max(1, (floor - 1) // modulus + 1) + start_offset
    while True:
        p = 1 + t * modulus
        if p > floor and is_prime(p):
            return p
        t += 1
