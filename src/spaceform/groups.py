"""Type I metacyclic groups G = <A, B | A^m = B^n = 1, B A B^-1 = A^r>.

Parameters (m, n, r) must satisfy gcd((r-1)n, m) = 1 and r^n = 1 mod m; then
the group has order m*n and every element is uniquely A^a B^b with
0 <= a < m, 0 <= b < n.  d denotes the order of r in Z_m^x.  All operations
are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    CoprimalityViolation,
    EvenM,
    GroupMismatch,
    InvalidAutomorphism,
    NotFixedPointFree,
    OrderViolation,
    ParameterOutOfRange,
    SizeLimitExceeded,
)
from .numtheory import divisors, geometric_sum_mod, multiplicative_order, prime_factors

BRUTE_FORCE_LIMIT = 200_000


@dataclass(frozen=True)
class TypeIParams:
    """Validated parameters (m, n, r, d); construct via validate_type1."""

    m: int
    n: int
    r: int
    d: int

    @property
    def order(self) -> int:
        return self.m * self.n

    @property
    def is_cyclic(self) -> bool:
        return self.m == 1

    def identity(self) -> "GroupElement":
        return GroupElement(self, 0, 0)

    def element(self, a: int, b: int) -> "GroupElement":
        return GroupElement(self, a % self.m, b % self.n)

    def elements(self) -> Iterator["GroupElement"]:
        for a in range(self.m):
            for b in range(self.n):
                yield GroupElement(self, a, b)

    def gen_a(self) -> "GroupElement":
        return GroupElement(self, 1 % self.m, 0)

    def gen_b(self) -> "GroupElement":
        return GroupElement(self, 0, 1 % self.n)


@dataclass(frozen=True)
class GroupElement:
    """Normal form A^a B^b of an element of a Type I group."""

    group: TypeIParams
    a: int
    b: int

    def __post_init__(self):
        if not (0 <= self.a < self.group.m and 0 <= self.b < self.group.n):
            raise ParameterOutOfRange(f"element ({self.a},{self.b}) out of range for {self.group}")

    @property
    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0


@dataclass(frozen=True)
class Automorphism:
    """psi_{s,t,u}: A -> A^s, B -> B^t A^u, with gcd(s,m)=1=gcd(t,n), t=1 mod d."""

    group: TypeIParams
    s: int
    t: int
    u: int

    def __post_init__(self):
        g = self.group
        if math.gcd(self.s, g.m) != 1:
            raise InvalidAutomorphism(f"gcd(s={self.s}, m={g.m}) != 1")
        if math.gcd(self.t, g.n) != 1:
            raise InvalidAutomorphism(f"gcd(t={self.t}, n={g.n}) != 1")
        if (self.t - 1) % g.d != 0:
            raise InvalidAutomorphism(f"t={self.t} is not 1 mod d={g.d}")


def validate_type1(m: int, n: int, r: int) -> TypeIParams:
    """Validate (m, n, r) and compute d = order of r mod m.

    For m = 1 the group is cyclic of order n; r is normalized to 0 and d = 1.
    Raises ParameterOutOfRange / EvenM / CoprimalityViolation / OrderViolation.
    """
    if m < 1 or n < 1:
        raise ParameterOutOfRange(f"m, n must be positive, got m={m}, n={n}")
    if m == 1:
        return TypeIParams(1, n, 0, 1)
    if m % 2 == 0:
        raise EvenM(f"m={m} is even; Type I groups require odd m")
    r %= m
    if math.gcd((r - 1) * n, m) != 1:
        raise CoprimalityViolation(f"gcd((r-1)*n, m) = {math.gcd((r - 1) * n, m)} != 1 for (m,n,r)=({m},{n},{r})")
    if pow(r, n, m) != 1:
        raise OrderViolation(f"r^n = {pow(r, n, m)} != 1 mod m for (m,n,r)=({m},{n},{r})")
    d = multiplicative_order(r, m)
    return TypeIParams(m, n, r, d)


def is_fixed_point_free(g: TypeIParams) -> bool:
    """True iff every prime divisor of d divides n/d (Burnside's criterion)."""
    if g.n % g.d != 0:
        return False
    nd = g.n // g.d
    return all(nd % p == 0 for p in prime_factors(g.d)) if g.d > 1 else True


def multiply(x: GroupElement, y: GroupElement) -> GroupElement:
    """(A^a1 B^b1)(A^a2 B^b2) = A^(a1 + a2 r^b1) B^(b1+b2)."""
    if x.group != y.group:
        raise GroupMismatch(f"{x.group} vs {y.group}")
    g = x.group
    a = (x.a + y.a * pow(g.r, x.b, g.m)) % g.m if g.m > 1 else 0
    return GroupElement(g, a, (x.b + y.b) % g.n)


def inverse(x: GroupElement) -> GroupElement:
    g = x.group
    binv = (-x.b) % g.n
    a = (-x.a * pow(g.r, binv, g.m)) % g.m if g.m > 1 else 0
    return GroupElement(g, a, binv)


def power(x: GroupElement, k: int) -> GroupElement:
    """x^k via the closed form (A^a B^b)^k = A^(a(1+r^b+...+r^((k-1)b))) B^(kb)."""
    if k < 0:
        return power(inverse(x), -k)
    g = x.group
    a = x.a * geometric_sum_mod(pow(g.r, x.b, g.m), k, g.m) % g.m if g.m > 1 else 0
    return GroupElement(g, a, x.b * k % g.n)


def element_order(x: GroupElement) -> int:
    """Least k >= 1 with x^k = identity.

    Computed exactly: the B-part forces k0 = n/gcd(n,b) | k, and x^k0 lies in
    <A>, whose element orders are m/gcd(a', m).
    """
    g = x.group
    k0 = g.n // math.gcd(g.n, x.b)
    a1 = power(x, k0).a
    return k0 * (g.m // math.gcd(a1, g.m))


def order_set_formula(g: TypeIParams) -> tuple[int, ...]:
    """sigma(G) = union over c | d of the divisors of gcd(r^c - 1, m) * n/c.

    Requires the group to be fixed point free.
    """
    if not is_fixed_point_free(g):
        raise NotFixedPointFree(f"{g} is not fixed point free")
    orders: set[int] = set()
    for c in divisors(g.d):
        u = math.gcd(pow(g.r, c, g.m) - 1, g.m) if g.m > 1 else 1
        orders.update(divisors(u * g.n // c))
    return tuple(sorted(orders))


def order_set_bruteforce(g: TypeIParams) -> tuple[int, ...]:
    """{order(x) : x in G} by enumerating all m*n normal forms."""
    if g.order > BRUTE_FORCE_LIMIT:
        raise SizeLimitExceeded(f"|G| = {g.order} exceeds limit {BRUTE_FORCE_LIMIT}")
    return tuple(sorted({element_order(x) for x in g.elements()}))


def r_generators(g: TypeIParams) -> tuple[int, ...]:
    """All generators of <r> in Z_m^x, i.e. [r^c]_m for gcd(c, d) = 1.  Sorted."""
    if g.m == 1:
        return (0,)
    return tuple(sorted({pow(g.r, c, g.m) for c in range(1, g.d + 1) if math.gcd(c, g.d) == 1}))


def canonical_r(g: TypeIParams) -> int:
    """Minimal representative of the isomorphism class: min over [r^c]_m, gcd(c,d)=1."""
    return r_generators(g)[0]


def is_canonical(g: TypeIParams) -> bool:
    return g.r == canonical_r(g)


def is_isomorphic(g1: TypeIParams, g2: TypeIParams) -> bool:
    """True iff m1=m2, n1=n2, d1=d2 and <r1> = <r2> in Z_m^x."""
    if (g1.m, g1.n, g1.d) != (g2.m, g2.n, g2.d):
        return False
    if g1.m == 1:
        return True
    # Equal orders, so subgroup equality reduces to r2 in <r1>.
    return any(pow(g1.r, c, g1.m) == g2.r for c in range(g1.d))


def apply_automorphism(psi: Automorphism, x: GroupElement) -> GroupElement:
    """psi(A^a B^b) = A^(s a) (B^t A^u)^b."""
    if psi.group != x.group:
        raise GroupMismatch(f"{psi.group} vs {x.group}")
    g = x.group
    # Normal form of psi(B) = B^t A^u is A^(u r^t) B^t.
    psi_b = g.element(psi.u * pow(g.r, psi.t, g.m) if g.m > 1 else 0, psi.t)
    return multiply(g.element(psi.s * x.a, 0), power(psi_b, x.b))
