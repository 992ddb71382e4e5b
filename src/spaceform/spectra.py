"""Spectra of spherical space forms S^(2dp-1)/rho(Gamma) for Type I groups.

The degree-2d irreducible fixed-point-free representation rho_{k,l} sends

    A -> diag(R(k/m), R(kr/m), ..., R(kr^(d-1)/m)),
    B -> block cyclic shift with corner block R(l/(n/d)),

so rho_{k,l}(A^a B^b) is (complex-form) a monomial matrix.  Its eigenvalues
are roots of unity; we track them as exponents of a fixed primitive L-th root
with L = m*n (every element order divides gcd(r^c-1,m)*n/c, which divides
m*n).  Per permutation cycle of length e = d/gcd(b,d) the characteristic
polynomial contributes a factor

    (1 - eta^M z^e)(1 - eta^(-M) z^e),
    M = [a*k*alpha(b)*r^(j-1)]_m * (L/m) + [l*b/gcd(b,d)]_(n/d) * (L*d/n),

with alpha(c) = sum_{h=1..d/gcd(d,c)} r^(gcd(d,c)*h); the e eigenvalue
exponents of each factor are the solutions of e*t = M (mod L), which are
evenly spaced.  Everything downstream (free-action checks, almost-conjugacy,
the generating function F_G(z) = (1-z^2)/|G| * sum_g det(I - gz)^-1, and the
Molien coefficients dim H^G_{q,k}) is exact arithmetic over Z or F_p.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add, sub

from .errors import (
    BadPrime,
    DegreeMismatch,
    GroupMismatch,
    InvalidRepresentation,
    ParameterOutOfRange,
    SingularPoint,
    SizeLimitExceeded,
)
from .groups import GroupElement, TypeIParams
from .numtheory import geometric_sum_mod, harmonic_dim, next_prime_in_progression, prime_factors

DEFAULT_PRIME_FLOOR = 10**18
DEFAULT_MOLIEN_TRUNCATION = 200

# The one-point screen's prime lies above this floor: for every order to 30000
# it stays below 2^30, so it and every factor it reduces fit in one CPython digit.
_SCREEN_PRIME_FLOOR = 2**29

# Most elements of a group walk (any walk visits at most |G| = m*n), terms of
# a full F-value vector (#classes * #points) or of a Molien series to K
# (#classes * K * degree).  The F-value count is the vector's size, not its
# work: a vector (_shifted_fractions) evaluates about #classes^2 * D /
# blocks class determinants and makes 2 * blocks packed products.  The largest
# Table-1 spectrum (N = 29648) has 2,997,882 F-value terms.
EVALUATION_LIMIT = 10_000_000

# (e, M) pairs: one (1 - eta^M z^e) factor of det(I - rho(g) z).
DetFactors = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RepParams:
    """Irreducible fixed-point-free representation rho_{k,l} of degree 2d."""

    group: TypeIParams
    k: int
    l: int

    def __post_init__(self):
        g = self.group
        object.__setattr__(self, "k", self.k % g.m)
        object.__setattr__(self, "l", self.l % g.n)
        if g.m > 1 and math.gcd(self.k, g.m) != 1:
            raise InvalidRepresentation(f"gcd(k={self.k}, m={g.m}) != 1")
        if g.n > 1 and math.gcd(self.l, g.n) != 1:
            raise InvalidRepresentation(f"gcd(l={self.l}, n={g.n}) != 1")

    @property
    def degree(self) -> int:
        return 2 * self.group.d


@dataclass(frozen=True)
class SumRep:
    """Direct sum of rho_{k,l} summands over one group; degree 2*d*p."""

    summands: tuple[RepParams, ...]

    def __post_init__(self):
        if not self.summands:
            raise InvalidRepresentation("SumRep needs at least one summand")
        g = self.summands[0].group
        if any(s.group != g for s in self.summands):
            raise GroupMismatch("SumRep summands must share one group")

    @property
    def group(self) -> TypeIParams:
        return self.summands[0].group

    @property
    def degree(self) -> int:
        return sum(s.degree for s in self.summands)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((s.k, s.l) for s in self.summands)

    @classmethod
    def from_pairs(cls, group: TypeIParams, pairs) -> "SumRep":
        return cls(tuple(RepParams(group, k, l) for k, l in pairs))

    @classmethod
    def rho11(cls, group: TypeIParams) -> "SumRep":
        return cls((RepParams(group, 1, 1),))


@dataclass(frozen=True)
class EigenExponentMultiset:
    """Multiset of exponents t: the eigenvalues are zeta_L^t, L = modulus."""

    modulus: int
    exponents: tuple[int, ...]


def _check_limit(what: str, terms: int, unit: str) -> None:
    """Refuse, before any work, a walk, vector or series above EVALUATION_LIMIT."""
    if terms > EVALUATION_LIMIT:
        raise SizeLimitExceeded(f"{what} = {terms} {unit} exceeds limit {EVALUATION_LIMIT}")


def _check_walk(g: TypeIParams) -> None:
    _check_limit(f"|G| = {g.m} x {g.n}", g.order, "group elements")


def _alpha(g: TypeIParams, c: int) -> int:
    """alpha(c) = sum_{h=1}^{d/cc} r^(cc h) mod m with cc = gcd(d, c) (paper
    convention): as (r^cc)^(d/cc) = 1, the geometric sum of d/cc powers of r^cc."""
    cc = math.gcd(c, g.d)
    return geometric_sum_mod(pow(g.r, cc, g.m), g.d // cc, g.m)


def _factor_row(rep: SumRep, b: int, L: int) -> tuple[int, list[tuple[int, int]]]:
    """What the factors of A^a B^b share across a: their cycle length
    e = d/gcd(b, d), and per factor pair (e, +-M) the terms (kr, w) of
    M = [u*kr]_m * (L/m) + w, where u = a*alpha(b) mod m is all that a enters."""
    g = rep.group
    m, n, d = g.m, g.n, g.d
    c = math.gcd(b, d)
    nd = n // d
    w_unit = L // nd
    terms = []
    for s in rep.summands:
        w = s.l * (b // c) % nd * w_unit
        rj = 1 % m
        for _ in range(c):
            terms.append((s.k * rj % m, w))
            rj = rj * g.r % m
    return d // c, terms


def _row_ms(terms, u: int, m: int, L: int) -> list[int]:
    """The sorted M of the factors (e, M) for u = a*alpha(b) mod m (_factor_row)."""
    z_unit = L // m
    ms = [(u * kr % m * z_unit + w) % L for kr, w in terms]
    return sorted(ms + [(L - M) % L for M in ms])


def _factors_to_exponents(factors: DetFactors, L: int) -> tuple[int, ...]:
    """Expand each factor (e, M) into its e evenly spaced eigenvalue exponents."""
    exps = []
    for e, M in factors:
        if M % e:
            raise AssertionError(f"factor exponent {M} not divisible by cycle length {e}")
        step = L // e
        t0 = M // e
        exps.extend((t0 + i * step) % L for i in range(e))
    return tuple(sorted(exps))


def sum_rep_det_factors(rep: SumRep, x: GroupElement) -> DetFactors:
    """The factors (e, M) of det(I - rep(x) z), M an exponent of zeta_L, L = m*n."""
    g = rep.group
    if x.group != g:
        raise GroupMismatch(f"{x.group} vs {g}")
    e, terms = _factor_row(rep, x.b, g.order)
    return tuple((e, M) for M in _row_ms(terms, x.a * _alpha(g, x.b) % g.m, g.m, g.order))


def char_poly_exponents(rep: RepParams, x: GroupElement) -> EigenExponentMultiset:
    """Eigenvalue exponents of rho_{k,l}(A^a B^b) as exponents of zeta_L, L = m*n."""
    L = rep.group.order
    factors = sum_rep_det_factors(SumRep((rep,)), x)
    return EigenExponentMultiset(L, _factors_to_exponents(factors, L))


# ----------------------------------------------------------------------
# Representation equivalence and isometry.

def reps_equivalent(r1: RepParams, r2: RepParams) -> bool:
    """rho_{k,l} ~ rho_{k',l'} iff k' = eps*k*r^c mod m and l' = eps*l mod n/d."""
    if r1.group != r2.group:
        raise GroupMismatch(f"{r1.group} vs {r2.group}")
    g = r1.group
    nd = g.n // g.d
    for eps in (1, -1):
        if (r2.l - eps * r1.l) % nd:
            continue
        if g.m == 1:
            return True
        target = eps * r1.k % g.m
        for _ in range(g.d):
            if target == r2.k:
                return True
            target = target * g.r % g.m
    return False


def isometric_irreducible(r1: RepParams, r2: RepParams) -> bool:
    """True iff rho_1 ~ rho_2 after some automorphism: rho_{k,l} psi_{s,t,u} ~ rho_{sk,tl}."""
    if r1.group != r2.group:
        raise GroupMismatch(f"{r1.group} vs {r2.group}")
    g = r1.group
    s_values = [s for s in range(g.m) if math.gcd(s, g.m) == 1] or [0]
    for j in range(g.n // g.d):
        t = 1 + j * g.d
        if math.gcd(t, g.n) != 1:
            continue
        for s in s_values:
            if reps_equivalent(RepParams(g, s * r1.k, t * r1.l), r2):
                return True
    return False


def almost_conjugate(rep1: SumRep, rep2: SumRep) -> bool:
    """True iff eigenvalue multisets agree element-by-element under the
    natural bijection A_1^a B_1^b -> A_2^a B_2^b (almost conjugacy, which
    implies strong isospectrality).  Never for d1 != d2: every rho_{k,l} is
    faithful and ord(A B^b) = n/gcd(n, b) * m/gcd(alpha(b), m) differs at
    b = min(d1, d2), where the smaller d has alpha(b) = r^d = 1 and the other
    (r^cc - 1) * alpha(b) = 0 mod m with r^cc != 1, cc = gcd(d1, d2).  With
    equal d both sides share e = d/gcd(b, d), and a factor (e, M) is the
    exponent coset M/e + (L/e)Z: equal eigenvalues are equal sorted M.  As
    g^-1 = A^(-a r^-b) B^(n-b) has the factors of g (_orbit_rows), the check
    at (a, n - b) is the one at (-a, b): the rows b <= n/2 of _orbit_rows
    suffice, with one sorted M list per orbit."""
    g1, g2 = rep1.group, rep2.group
    if g1.order != g2.order:
        raise GroupMismatch(f"|G1| = {g1.order} != |G2| = {g2.order}")
    if rep1.degree != rep2.degree:
        raise DegreeMismatch(f"degrees {rep1.degree} != {rep2.degree}")
    _check_walk(g1)
    if (g1.m, g1.n) != (g2.m, g2.n):
        raise GroupMismatch("natural bijection needs equal (m, n)")
    if g1.d != g2.d:  # element orders differ at b = min(d1, d2)
        return False
    m, L = g1.m, g1.order
    rows = zip(_orbit_rows(rep1), _orbit_rows(rep2))
    for b, ((_, terms1, orbits1, owner1), (_, terms2, orbits2, owner2)) in enumerate(rows):
        alpha1, alpha2 = _alpha(g1, b), _alpha(g2, b)
        ms1 = [_row_ms(terms1, u, m, L) for u, _ in orbits1]
        ms2 = [_row_ms(terms2, u, m, L) for u, _ in orbits2]
        # One a per joint value of (a*alpha1(b), a*alpha2(b)) mod m: with h_i =
        # gcd(alpha_i(b), m) its period in a is lcm(m/h1, m/h2) = m/gcd(h1, h2).
        for a in range(m // math.gcd(alpha1, alpha2, m)):
            if ms1[owner1[a * alpha1 % m]] != ms2[owner2[a * alpha2 % m]]:
                return False
    return True


# ----------------------------------------------------------------------
# Determinant classes and the generating function F_G(z) over F_p.

def _orbit_rows(rep: SumRep):
    """Per row b <= n/2: (e, terms) of _factor_row, one (u, weight) per orbit
    of u = a*alpha(b) mod m under u -> u*r, weight the number of elements
    whose factors the orbit's u gives, and owner[u], the index of u's orbit.

    The factors of A^a B^b depend on a only through u.  As a runs over Z/m,
    u runs over the multiples of h = gcd(alpha(b), m), each h times.
    Conjugation by B sends A^a B^b to A^(ar) B^b, so u and u*r share their
    factors.  The orbits of hZ/m depend only on h, so each h walks them once.

    g and g^-1 share det(I - rho(g) z), as rho(g) is a sum of real rotation
    blocks.  With B A B^-1 = A^r, (A^a B^b)^-1 = A^(-a r^-b) B^(n-b), and
    alpha(n-b) = alpha(b) (d | n): g^-1 lies in row n - b, in the orbit of
    -u.  So rows b and n - b hold the same classes, and a row that is not its
    own inverse (2b != 0 mod n) stands for both with doubled weights.  In the
    rows b = 0 and b = n/2 the orbits of u and -u share their factors and
    are walked as one entry carrying both weights.
    """
    g = rep.group
    m, n = g.m, g.n
    by_h: dict[tuple[int, bool], tuple[list[tuple[int, int]], list[int]]] = {}
    for b in range(n // 2 + 1):
        self_inverse = 2 * b % n == 0
        h = math.gcd(_alpha(g, b), m)
        walked = by_h.get((h, self_inverse))
        if walked is None:
            orbits, owner = walked = by_h[h, self_inverse] = [], [-1] * m
            for u in range(0, m, h):
                if owner[u] < 0:
                    index, size = len(orbits), 0
                    for v in (u, -u % m) if self_inverse else (u,):
                        while owner[v] < 0:
                            owner[v] = index
                            size += 1
                            v = v * g.r % m
                    orbits.append((u, h * size if self_inverse else 2 * h * size))
        yield (*_factor_row(rep, b, g.order), *walked)


def det_classes(rep: SumRep) -> tuple[tuple[DetFactors, int], ...]:
    """Group elements bucketed by their det(I - gz) factorization, with
    counts: one factor row per orbit of _orbit_rows, whose rows b <= n/2
    carry the weights of rows n - b, as g^-1 has the factors of g."""
    m, L = rep.group.m, rep.group.order
    _check_walk(rep.group)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for e, terms, orbits, _ in _orbit_rows(rep):
        for u, weight in orbits:
            key = (e, tuple(_row_ms(terms, u, m, L)))
            counts[key] = counts.get(key, 0) + weight
    return tuple(sorted((tuple((e, M) for M in ms), count) for (e, ms), count in counts.items()))


@dataclass(frozen=True)
class Spectrum:
    """The determinant classes of one (group, reps) at L = m*n, and the
    degree bound of F_G over them: all that F-values and certificates need.

    The bound is on numerator and denominator degree of F_G over the product
    of the distinct determinant polynomials: 2 + (#classes) * (2dp).  Equal
    F-values at point_count = 2*degree_bound + 1 points prove equal F_G.
    """

    rep: SumRep
    classes: tuple[tuple[DetFactors, int], ...]
    degree_bound: int

    @classmethod
    @lru_cache(maxsize=4)  # fingerprint or certify-pair, then Molien, walk each group once
    def of(cls, rep: SumRep) -> "Spectrum":
        classes = det_classes(rep)
        return cls(rep, classes, 2 + len(classes) * rep.degree)

    @property
    def point_count(self) -> int:
        return 2 * self.degree_bound + 1


def prime_seed_offset() -> int:
    """SPACEFORM_PRIME_SEED shifts the prime scan start (breaks reproducibility)."""
    seed = os.environ.get("SPACEFORM_PRIME_SEED")
    if not seed:
        return 0
    try:
        value = int(seed)
    except ValueError:
        raise ParameterOutOfRange(f"SPACEFORM_PRIME_SEED must be an integer, got {seed!r}") from None
    return random.Random(value).randrange(1, 1_000_000)


def choose_prime(L: int, floor: int = DEFAULT_PRIME_FLOOR) -> int:
    """Smallest prime p = 1 + t*L with p > floor (deterministic policy), the
    scan shifted by SPACEFORM_PRIME_SEED as it is set at this call."""
    return _choose_prime(L, floor, prime_seed_offset())


@lru_cache(maxsize=None)
def _choose_prime(L: int, floor: int, offset: int) -> int:
    return next_prime_in_progression(L, floor, offset)


@lru_cache(maxsize=None)
def root_of_unity(p: int, L: int) -> int:
    """Deterministic element of exact multiplicative order L in F_p."""
    if (p - 1) % L:
        raise BadPrime(f"L = {L} does not divide p-1 = {p - 1}")
    if L == 1:
        return 1
    qs = prime_factors(L)
    x = 2
    while True:
        eta = pow(x, (p - 1) // L, p)
        if eta != 1 and all(pow(eta, L // q, p) != 1 for q in qs):
            return eta
        x += 1


def select_points(p: int, L: int, count: int) -> tuple[int, ...]:
    """First `count` integers z >= 2 that are not L-th roots of unity in F_p.

    Every pole of a det(I - gz)^-1 term is an L-th root of unity, so these
    points are never singular; the rule is group-independent, which keeps
    point lists shared across any groups of the same order.  z -> z^L is
    completely multiplicative, so pow runs only at primes z; a composite z
    takes q^L * (z/q)^L, q its least prime factor.
    """
    size = max(count, 0) + 2
    while True:
        least = [0] * size  # least prime factor of each composite below size
        for q in range(math.isqrt(size - 1), 1, -1):  # descending: the least q is written last
            least[q * q::q] = [q] * len(range(q * q, size, q))
        powers = [0, 1]
        for z in range(2, size):
            q = least[z]
            powers.append(powers[q] * powers[z // q] % p if q else pow(z, L, p))
        points = [z for z in range(2, size) if powers[z] != 1]
        if len(points) >= count:
            return tuple(points[:count])
        size *= 2


def _evaluation_grid(L: int, count: int, p: int | None = None):
    """The (p, root, points) of every F-evaluation at order L: the
    certificate prime for L (the screen passes its own), its deterministic
    L-th root, and the first count points."""
    if p is None:
        p = choose_prime(L)
    root = root_of_unity(p, L)
    return p, root, select_points(p, L, count)


def _screen_grid(L: int):
    """The (q, root, (z,)) of the one-point screen at order L: the least prime
    q = 1 + t*L above 2^29, unshifted by SPACEFORM_PRIME_SEED.  Equal F_G agree
    at every non-pole point mod every prime = 1 (mod L), so any such q is sound
    for the screen; a small one only makes its arithmetic cheaper."""
    return _evaluation_grid(L, 1, _choose_prime(L, _SCREEN_PRIME_FLOOR, 0))


def _root_powers(p: int, root: int, L: int) -> list[int]:
    """root^M mod p for every M < L, by L successive products."""
    powers = [1] * L
    for M in range(1, L):
        powers[M] = powers[M - 1] * root % p
    return powers


def _class_field_data(classes, p: int, powers):
    """Per class: (count, det coefficients ascending in z), with
    powers[M] = root^M (_root_powers).

    Every factor of an element has the same e = d/gcd(b, d), the cycle length
    of B^b, so each determinant is first expanded in X = z^e; only every e-th
    coefficient in z is nonzero.
    """
    data = []
    for factors, count in classes:
        coeffs = [1]
        for _, M in factors:
            em = powers[M]
            coeffs.append(0)
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] = (coeffs[i] - em * coeffs[i - 1]) % p
        e = factors[0][0]
        in_z = [0] * (e * (len(coeffs) - 1) + 1)
        in_z[::e] = coeffs
        data.append((count, in_z))
    return data


def _packed_dets(class_data, D: int, p: int, lo: int, count: int):
    """Every class determinant at each of the count >= D + 1 points lo,
    lo + 1, ... (lo >= 0), from a packed forward-difference table.

    Coefficient j of z of every class is packed into one integer, one lane of
    w bytes per class (Kronecker substitution).  A determinant of degree D is
    below (D+1) * p * z^D at z <= lo + count - 1, so it fits its lane
    unreduced and each lane is reduced mod p once.  diffs[k] holds the packed
    Delta^k det(z), seeded by Horner at the first D + 1 points; one addition
    per entry steps it to z + 1.  As exact integers its entries may spill
    over their lanes.
    """
    w = ((D + 1).bit_length() + p.bit_length() + D * (lo + count - 1).bit_length() + 7) // 8
    size = w * len(class_data)
    lanes = [slice(i, i + w) for i in range(0, size, w)]
    from_bytes = int.from_bytes
    packed = [from_bytes(b"".join(coeffs[j].to_bytes(w, "little") for _, coeffs in class_data), "little")
              for j in range(D + 1)]
    diffs = [reduce(lambda h, c: h * x + c, packed[::-1]) for x in range(lo, lo + D + 1)]
    for k in range(1, D + 1):
        diffs[k:] = map(sub, diffs[k:], diffs[k - 1:D])
    for _ in range(count):
        row = diffs[0].to_bytes(size, "little")
        yield [from_bytes(row[lane], "little") % p for lane in lanes]
        diffs = [*map(add, diffs, diffs[1:]), diffs[-1]]


def _class_fraction(terms, p: int) -> tuple[int, int]:
    """sum_C count_C / det_C(z) as one fraction (num, den) from the
    (count_C, det_C(z)) of every class at one point.  Both are values of
    polynomials: den = prod_C det_C, num = sum_C count_C * prod_{C' != C} det_C'."""
    num, den = 0, 1
    for count, det in terms:
        num = (num * det + count * den) % p
        den = den * det % p
    return num, den


def _f_from_fractions(fractions, group_order: int, p: int, points) -> tuple[int, ...]:
    """F_G(z) = (1-z^2)/|G| * num/den at each point from its class fraction.
    The dens are inverted together (Montgomery's trick): one modular inverse
    for the whole vector."""
    fractions = list(fractions)
    prefix, acc = [], 1
    for z, (_, den) in zip(points, fractions):
        if den == 0:
            raise SingularPoint(f"z = {z} is a pole of some det(I - gz)")
        prefix.append(acc)
        acc = acc * den % p
    inv = pow(acc * group_order, -1, p)
    values = [0] * len(fractions)
    for i in range(len(fractions) - 1, -1, -1):
        num, den = fractions[i]
        z = points[i]
        values[i] = (1 - z * z) * num % p * prefix[i] % p * inv % p
        inv = inv * den % p
    return tuple(values)


def _check_f_value_budget(class_count: int, point_count: int) -> None:
    _check_limit(f"{class_count} determinant classes x {point_count} points",
                 class_count * point_count, "F-value terms")


def _block_count(class_count: int) -> int:
    """Blocks of classes for a shifted full vector, about sqrt(#classes)/2:
    the nodes cost about #classes^2 * D / blocks lane steps, against two
    packed products per block and blocks * #points steps to combine them."""
    return max(1, math.isqrt(class_count) // 2)


def _shifted_fractions(blocks, D: int, p: int, lo: int, span: int) -> tuple[list[int], list[int]]:
    """The class fraction (_class_fraction) at lo + t for every t < span, as
    lists of nums and dens, each point's pair up to a nonzero factor.  Needs
    lo >= 0 and |B|*D + 1 < span < p for every block of classes B.

    Per block B, Num_B and Den_B are polynomials of degree at most n = |B|*D.
    Both are evaluated at the nodes lo, ..., lo + n only, in one packed pass
    (_packed_dets), and shifted to every t > n by Lagrange's formula,
        P(lo + t) = prod_{i<=n} (t - i) * sum_j g_j / (t - j),
        g_j = P(lo + j) * (-1)^(n-j) / (j! (n-j)!),
    whose sums over j for all t are one Kronecker-packed product of g with
    the 1/s, s < span.  The factor prod_i (t - i) is common to Num_B and
    Den_B and nonzero (t < p), so it is dropped.  Each block's fraction is
    added into the running one, which starts at 0/1, as soon as it is shifted.
    """
    n_max = max(map(len, blocks)) * D
    inv = [0, 1]  # 1/s mod p, from p = (p // s) * s + p % s
    for s in range(2, span):
        inv.append((p - p // s) * inv[p % s] % p)
    inv_fact = [1]
    for s in range(1, n_max + 1):
        inv_fact.append(inv_fact[-1] * inv[s] % p)
    w = (2 * p.bit_length() + (n_max + 1).bit_length() + 7) // 8
    packed_inv = int.from_bytes(b"".join([x.to_bytes(w, "little") for x in inv]), "little")
    nums, dens = [0] * span, [1] * span
    for block in blocks:
        n = len(block) * D
        counts = [count for count, _ in block]
        nodes = zip(*[_class_fraction(zip(counts, row), p) for row in _packed_dets(block, D, p, lo, n + 1)])
        weights = [inv_fact[j] * inv_fact[n - j] % p for j in range(n + 1)]
        weights[1 - n % 2::2] = [p - c for c in weights[1 - n % 2::2]]  # (-1)^(n-j): odd n - j
        shifted = []
        for values in nodes:
            g = int.from_bytes(b"".join([(v * c % p).to_bytes(w, "little") for v, c in zip(values, weights)]), "little")
            row = (g * packed_inv).to_bytes((n + span) * w, "little")
            shifted.append([*values, *[int.from_bytes(row[i:i + w], "little") % p for i in range((n + 1) * w, span * w, w)]])
        nums = [(x * c + v * y) % p for x, y, v, c in zip(nums, dens, *shifted)]
        dens = [y * c % p for y, c in zip(dens, shifted[1])]
    return nums, dens


def evaluate_f_values(classes, group_order: int, p: int, root: int, points) -> tuple[int, ...]:
    """Exact values of F_G on a grid (classes from det_classes, so every
    exponent M is below L = group_order): more points than the |B|*D + 1
    nodes of the largest block B of classes (_block_count), in any order,
    filling at least half of an integer range shorter than p, as select_points
    of Spectrum.point_count does.  Each block is evaluated at its nodes only
    (_packed_dets) and shifted to the rest of the range (_shifted_fractions);
    F at any other point is _screen_value's job.  Refused before any work
    above EVALUATION_LIMIT terms or off a grid.
    """
    _check_f_value_budget(len(classes), len(points))
    D = sum(e for e, _ in classes[0][0])
    k = len(classes)
    nb = min(_block_count(k), k)
    nodes = -(-k // nb) * D + 1  # of the largest block
    lo = min(points, default=0)
    span = max(points, default=-1) - lo + 1
    if not nodes < len(points) <= span <= min(2 * len(points), p - 1):
        raise ParameterOutOfRange(f"{len(points)} points spanning {span} are no grid for "
                                  f"{nodes} nodes per block mod p = {p}")
    data = _class_field_data(classes, p, _root_powers(p, root, group_order))
    blocks = [data[i * k // nb:(i + 1) * k // nb] for i in range(nb)]
    nums, dens = _shifted_fractions(blocks, D, p, lo % p, span)
    return _f_from_fractions([(nums[z - lo], dens[z - lo]) for z in points], group_order, p, points)


def _screen_value(rep: SumRep, p: int, root: int, z: int) -> int:
    """F_G(z) at one point straight from the orbit walk, with no classes.

    root^M = zeta^[u*kr]_m * root^w (_factor_row), zeta = root^(L/m) and
    root^w a power of omega = root^(L*d/n), so tables of m and n/d powers
    stand in for the L powers of root.  The factors come in pairs (e, +-M),
    each giving 1 - (root^M + root^-M) X + X^2 with X = z^e.  Each orbit's
    (weight, det) goes into the one sum over classes.  The walk visits the
    rows b <= n/2 only: g^-1 has the det of g and lies in row n - b.
    """
    g = rep.group
    _check_walk(g)
    m, L, nd = g.m, g.order, g.n // g.d
    w_unit = L // nd
    zetas = _root_powers(p, pow(root, L // m, p), m)
    omegas = _root_powers(p, pow(root, w_unit, p), nd)
    orbit_dets = []
    for e, terms, orbits, _ in _orbit_rows(rep):
        x = pow(z, e, p)
        c = 1 + x * x
        pairs = [(kr, omegas[w // w_unit] * x % p, omegas[-(w // w_unit)] * x % p) for kr, w in terms]
        for u, weight in orbits:
            det = 1
            for kr, ox, ox_inv in pairs:
                j = u * kr % m
                det = det * ((c - zetas[j] * ox - zetas[-j] * ox_inv) % p) % p
            orbit_dets.append((weight, det))
    return _f_from_fractions([_class_fraction(orbit_dets, p)], L, p, (z,))[0]


@dataclass(frozen=True)
class SpectrumFingerprint:
    """Deterministic evaluation record of F_G(z) over F_p."""

    m: int
    n: int
    d: int
    r: int
    reps: tuple[tuple[int, int], ...]
    p: int
    root: int
    degree_bound: int
    points: tuple[int, ...]
    values: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n, "d": self.d, "r": self.r,
            "reps": [list(kl) for kl in self.reps],
            "p": self.p, "root": self.root, "degree_bound": self.degree_bound,
            "points": list(self.points), "values": list(self.values),
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()

    def evidence_dict(self) -> dict:
        """Group-independent part shared by both members of an isospectral pair:
        to_dict() without r, the points and values replaced by their sha256."""
        shared = self.to_dict()
        del shared["r"]
        blob = json.dumps(shared, sort_keys=True, separators=(",", ":")).encode()
        points, values = shared.pop("points"), shared.pop("values")
        return {**shared, "num_points": len(points), "sha256": hashlib.sha256(blob).hexdigest(),
                "values_preview": values[:4]}


# F-value vectors by (classes, |G|, p, #points) and Molien series by
# (classes, L, K, p): both depend on the class multiset alone, so the two
# members of a pair, and a query repeated in one process, share one.  The
# last _MEMO_SIZE of each are kept, the oldest dropped first.  It must be at
# least 5: perfbench's pair queries make 4 other vectors between certify_pair
# on the 1360 pair and the certify-pair command on it.  A 29648 vector (9797
# points) holds about 0.4 MB.  A search hits it only within a bucket (no two
# orders share a key) and keeps at most _MEMO_SIZE vectors per worker.  The
# kernels (evaluate_f_values, _molien_from_classes) stay uncached.
_MEMO_SIZE = 8
_F_VALUE_MEMO: dict = {}
_MOLIEN_MEMO: dict = {}


def _remembered(memo: dict, key, compute) -> tuple:
    """memo[key], computed as a tuple by compute() on a miss."""
    if key not in memo:
        memo[key] = tuple(compute())
        if len(memo) > _MEMO_SIZE:
            del memo[next(iter(memo))]
    return memo[key]


def _full_vector(classes, group_order: int, grid, evaluate) -> tuple[int, ...]:
    """The F-values of classes on grid = (p, root, points), from
    _F_VALUE_MEMO or by evaluate (the caller's evaluate_f_values)."""
    p, _, points = grid
    return _remembered(_F_VALUE_MEMO, (classes, group_order, p, len(points)),
                       lambda: evaluate(classes, group_order, *grid))


def _certificate_grid(spectra) -> tuple[int, int, tuple[int, ...]]:
    """The (p, root, points) of spectra of one order at their largest point
    count, refused over EVALUATION_LIMIT before any point is chosen."""
    count = max(s.point_count for s in spectra)
    _check_f_value_budget(max(len(s.classes) for s in spectra), count)
    return _evaluation_grid(spectra[0].rep.group.order, count)


def _fingerprint_record(s: Spectrum, shared, grid, values) -> SpectrumFingerprint:
    """s's record from its values on _certificate_grid(shared), cut to the
    largest degree bound of shared: select_points is a prefix rule."""
    g, db = s.rep.group, max(t.degree_bound for t in shared)
    (p, root, points), count = grid, 2 * db + 1
    return SpectrumFingerprint(g.m, g.n, g.d, g.r, s.rep.pairs, p, root, db, points[:count], values[:count])


def fingerprint(rep: SumRep) -> SpectrumFingerprint:
    """Evaluate F_G at deterministic points; see select_points for the rule."""
    return shared_fingerprints([rep])[0]


def shared_fingerprints(reps: list[SumRep]) -> list[SpectrumFingerprint]:
    """Fingerprints of several same-order groups on one shared (p, root, points).

    The shared degree bound is the max of the per-group bounds (_fingerprint_record),
    so equal value vectors prove equal generating functions.
    """
    orders = {sr.group.m * sr.group.n for sr in reps}
    if len(orders) != 1:
        raise GroupMismatch("shared fingerprints require equal group order")
    spectra = [Spectrum.of(sr) for sr in reps]
    grid = _certificate_grid(spectra)
    return [_fingerprint_record(s, spectra, grid, _full_vector(s.classes, s.rep.group.order, grid, evaluate_f_values))
            for s in spectra]


@dataclass(frozen=True)
class MolienSeries:
    """First truncation+1 coefficients dim H^G_{q,k} of F_G."""

    truncation: int
    coefficients: tuple[int, ...]


def molien_coefficients(rep: SumRep, truncation: int = DEFAULT_MOLIEN_TRUNCATION) -> MolienSeries:
    """Power-series coefficients of F_G, lifted from F_p to integers.

    The series is summed by element order (_molien_from_classes); the prime
    is chosen above dim H_K(S^q), which no dim H^G_{q,k} with k <= K exceeds
    (it is non-decreasing in k for q >= 1), so the lift is unique.  Past 3.3e24
    (7.15e33 at degree 16, K = 1500) p is only a strong probable prime (is_prime).
    Refused above EVALUATION_LIMIT terms before the bound, the prime or any series work.
    """
    if truncation < 0:
        raise ParameterOutOfRange(f"truncation must be >= 0, got {truncation}")
    classes = Spectrum.of(rep).classes
    _check_limit(f"{len(classes)} determinant classes x K = {truncation} x degree {rep.degree}",
                 len(classes) * truncation * rep.degree, "Molien terms")
    L = rep.group.order
    p = choose_prime(L, max(DEFAULT_PRIME_FLOOR, harmonic_dim(rep.degree - 1, truncation)))
    series = _remembered(_MOLIEN_MEMO, (classes, L, truncation, p),
                         lambda: _molien_from_classes(classes, L, truncation, p, root_of_unity(p, L)))
    return MolienSeries(truncation, series)


def _molien_from_classes(classes, group_order: int, K: int, p: int, root: int) -> list[int]:
    """Lifted coefficients of (1-z^2)/|G| * sum_C count/det_C as a power series.

    The roots of a factor (e, M) of det_C (_class_field_data) are the e
    distinct e-th roots of eta^M, all (e * L/gcd(M, L))-th roots of unity;
    factors with other M share none.  So det_C divides (1 - z^o)^mu, with o
    the lcm of those orders and mu the largest multiplicity of a factor, and
    1/det_C = P_C/(1 - z^o)^mu with deg P_C = o*mu - D.  The series of
    count/det_C, run only to T = min(K, o*mu - D) behind D zeros, times
    (1 - z^o)^mu is count*P_C to z^T.  The P_C of one (o, mu) are summed and
    divided by (1 - z^o)^mu once, by mu prefix sums along each residue mod o.
    """
    L = group_order
    sums = {}
    for (factors, _), (count, det) in zip(classes, _class_field_data(classes, p, _root_powers(p, root, L))):
        o = math.lcm(*(e * L // math.gcd(M, L) for e, M in factors))
        mu = max(map(factors.count, factors))
        terms = [(i, c) for i, c in enumerate(det) if i and c]
        D = len(det) - 1
        T = min(K, o * mu - D)
        num = [0] * D + [count] + [0] * T
        for t in range(D + 1, D + T + 1):
            s = 0
            for i, c in terms:
                s += c * num[t - i]
            num[t] = -s % p
        num = num[D:]
        for _ in range(mu):
            num[o:] = map(sub, num[o:], num)
        acc = sums.setdefault((o, mu), [0] * (K + 1))
        acc[:T + 1] = map(add, acc, num)
    for (o, mu), acc in sums.items():
        for r in range(min(o, K + 1)):
            col = acc[r::o]
            for _ in range(mu):
                col = accumulate(col)
            acc[r::o] = col
    total = [sum(column) for column in zip(*sums.values())]
    inv_order = pow(group_order, -1, p)
    return [(total[k] - (total[k - 2] if k >= 2 else 0)) * inv_order % p for k in range(K + 1)]
