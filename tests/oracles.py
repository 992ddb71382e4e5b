"""Slow, independent reference implementations that the tests compare the
library against.  Nothing in src/ imports this module.

- The matrix oracle: explicit rho_{k,l} matrices over F_p and their
  characteristic polynomials by Faddeev-LeVerrier, independent of the
  exponent formulas in spectra.py.
- alpha by its definition: the sum of d/gcd(d, c) powers of r^gcd(d, c),
  one product at a time.
- The element walk: determinant classes from every one of the m*n elements.
- The reference F-evaluator: each class determinant expanded with one pow()
  per factor, then evaluated point by point by Horner with a reduction mod p
  at every step.
- The reference Molien series: each class determinant inverted as a power
  series to the full truncation K, one recurrence per class.
- Pair certification by the full-vector rule: both complete value vectors
  evaluated and compared, with no screen.
- Helpers on eigenvalue exponent multisets.
- The torsion scan: canonical groups from every r of the n-torsion of Z_m^x,
  each validated and tested for canonicity.
- The pairing test by gcds of gcds: (m, n) can pair iff two primes p, q of
  m have gcd(gcd(n, p - 1), gcd(n, q - 1)) > 2, and the orders with such a
  split, from every split of every N.
- The torsion construction: Theorem-4.2 pairs from every r1 of the
  d-torsion of Z_m^x, filtered by order and deduplicated by canonical r.
- The Theorem-4.2 witness by scanning every generator of <r1> for a partner
  -g1^-1 that generates <r2>.
"""

import math
from itertools import combinations

from spaceform.errors import BadPrime, CertificationFailed, GroupMismatch, SingularPoint
from spaceform.groups import canonical_r, is_canonical, is_isomorphic, r_generators, validate_type1
from spaceform.numtheory import carmichael, divisors, multiplicative_order, prime_factors, torsion_elements
from spaceform.search import _certify, _ordered_pair, certify_pair
from spaceform.spectra import EigenExponentMultiset, Spectrum, SumRep, _evaluation_grid, evaluate_f_values, root_of_unity


# --- exponent multisets ---------------------------------------------------

def contains_zero(exps: EigenExponentMultiset) -> bool:
    return 0 in exps.exponents


def is_conjugation_closed(exps: EigenExponentMultiset) -> bool:
    negated = sorted((exps.modulus - t) % exps.modulus for t in exps.exponents)
    return negated == list(exps.exponents)


def rescaled(exps: EigenExponentMultiset, modulus: int) -> EigenExponentMultiset:
    if modulus % exps.modulus != 0:
        raise ValueError(f"{exps.modulus} does not divide {modulus}")
    f = modulus // exps.modulus
    return EigenExponentMultiset(modulus, tuple(sorted(t * f for t in exps.exponents)))


# --- matrix oracle --------------------------------------------------------

def _matmul(A, B, p):
    Bc = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in Bc] for row in A]


def _matpow(A, k, p):
    n = len(A)
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    while k:
        if k & 1:
            R = _matmul(R, A, p)
        A = _matmul(A, A, p)
        k >>= 1
    return R


def _charpoly(A, p):
    """Coefficients (ascending) of det(zI - A) via Faddeev-LeVerrier."""
    n = len(A)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    Mk = [[0] * n for _ in range(n)]
    ck = 1
    for k in range(1, n + 1):
        for i in range(n):
            Mk[i][i] = (Mk[i][i] + ck) % p
        Mk = _matmul(A, Mk, p)
        tr = sum(Mk[i][i] for i in range(n)) % p
        ck = -tr * pow(k, -1, p) % p
        coeffs[n - k] = ck
    return coeffs


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_from_exponents(exps: EigenExponentMultiset, p: int, root: int | None = None) -> tuple[int, ...]:
    """prod (z - eta^t) over the multiset, as ascending coefficients in F_p."""
    L = exps.modulus
    if (p - 1) % L:
        raise BadPrime(f"{L} does not divide p-1")
    eta = root if root is not None else root_of_unity(p, L)
    coeffs = [1]
    for t in exps.exponents:
        lam = pow(eta, t, p)
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = (coeffs[i] - lam * coeffs[i + 1]) % p
    return tuple(coeffs)


def char_poly_matrix_oracle(rep, x, p: int) -> tuple[int, ...]:
    """det(zI - rho_{k,l}(A^a B^b)) over F_p, built from the defining matrices.

    The real representation is pi + conj(pi); each part is the d x d complex
    matrix D^a S^b with D = diag(zeta_m^(k r^j)) and S the cyclic shift with
    corner omega^l, embedded in F_p via a primitive (m*n)-th root.
    """
    g = rep.group
    if x.group != g:
        raise GroupMismatch(f"{x.group} vs {g}")
    L = g.m * g.n
    if (p - 1) % L:
        raise BadPrime(f"L = {L} does not divide p-1 = {p - 1}")
    eta = root_of_unity(p, L)
    m, n, d = g.m, g.n, g.d
    result = [1]
    for base in (eta, pow(eta, p - 2, p)):
        zeta_m = pow(base, L // m, p)
        omega = pow(base, L // (n // d), p)
        D = [[0] * d for _ in range(d)]
        rj = 1 % m
        for j in range(d):
            D[j][j] = pow(zeta_m, rep.k * rj, p)
            rj = rj * g.r % m if m > 1 else 0
        S = [[0] * d for _ in range(d)]
        for j in range(1, d):
            S[j - 1][j] = 1
        S[d - 1][0] = pow(omega, rep.l, p)
        M = _matmul(_matpow(D, x.a, p), _matpow(S, x.b, p), p)
        result = _poly_mul(result, _charpoly(M, p), p)
    return tuple(result)


# --- determinant classes ----------------------------------------------------

def alpha_by_definition(g, c):
    """alpha(c) = sum_{h=1}^{d/gcd(d,c)} r^(gcd(d,c) h) mod m (paper convention)."""
    if g.m == 1:
        return 0
    cc = math.gcd(c, g.d)
    rc = pow(g.r, cc, g.m)
    total, t = 0, 1
    for _ in range(g.d // cc):
        t = t * rc % g.m
        total += t
    return total % g.m


def element_walk_det_classes(rep):
    """The determinant classes from every one of the m*n elements, each
    element's factors computed from (a, b) directly."""
    g = rep.group
    m, n, d = g.m, g.n, g.d
    L = m * n
    counts = {}
    for a in range(m):
        for b in range(n):
            c = math.gcd(b, d)
            e, nd = d // c, n // d
            alpha = alpha_by_definition(g, b)
            factors = []
            for s in rep.summands:
                y = s.l * (b // c) % nd
                base = a * s.k * alpha % m
                rj = 1 % m
                for _ in range(c):
                    M = (base * rj % m * (L // m) + y * (L // nd)) % L
                    factors += [(e, M), (e, (L - M) % L)]
                    rj = rj * g.r % m
            key = tuple(sorted(factors))
            counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


# --- reference F-evaluator -------------------------------------------------

def _class_field_data(classes, p: int, root: int):
    """Per class: (count, e, det coefficients ascending in X = z^e), with one
    pow(root, M, p) per factor."""
    data = []
    for factors, count in classes:
        coeffs = [1]
        for _, M in factors:
            em = pow(root, M, p)
            coeffs.append(0)
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] = (coeffs[i] - em * coeffs[i - 1]) % p
        data.append((count, factors[0][0], tuple(coeffs)))
    return data


def _evaluate_sum(class_data, group_order: int, p: int, points) -> tuple[int, ...]:
    """F_G(z_i) = (1-z^2)/|G| * sum_g det(I - g z)^-1 at each point, over F_p."""
    es = sorted({e for _, e, _ in class_data})
    inv_order = pow(group_order, p - 2, p)
    ncl = len(class_data)
    dets = [0] * ncl
    prefix = [0] * ncl
    values = []
    for z in points:
        zp = {e: pow(z, e, p) for e in es}
        for i, (_, e, coeffs) in enumerate(class_data):
            x = zp[e]
            h = coeffs[-1]
            for c in coeffs[-2::-1]:
                h = (h * x + c) % p
            dets[i] = h
        # Batched inversion: one modular exponentiation for all classes.
        acc = 1
        for i in range(ncl):
            prefix[i] = acc
            acc = acc * dets[i] % p
        if acc == 0:
            raise SingularPoint(f"z = {z} is a pole of some det(I - gz)")
        inv_acc = pow(acc, p - 2, p)
        total = 0
        for i in range(ncl - 1, -1, -1):
            total += class_data[i][0] * (inv_acc * prefix[i] % p)
            inv_acc = inv_acc * dets[i] % p
        values.append((1 - z * z) * inv_order % p * (total % p) % p)
    return tuple(values)


def reference_f_values(classes, group_order: int, p: int, root: int, points) -> tuple[int, ...]:
    """F_G at the given points by the reference evaluator."""
    return _evaluate_sum(_class_field_data(classes, p, root), group_order, p, points)


def pow_select_points(p: int, L: int, count: int) -> tuple[int, ...]:
    """The first count integers z >= 2 with z^L != 1 mod p, by one pow per z."""
    points = []
    z = 2
    while len(points) < count:
        if pow(z, L, p) != 1:
            points.append(z)
        z += 1
    return tuple(points)



# --- reference Molien series -----------------------------------------------

def reference_molien_from_classes(classes, group_order: int, K: int, p: int, root: int) -> list[int]:
    """Coefficients of (1-z^2)/|G| * sum_C count/det_C over F_p to z^K, each
    det_C (the reference expansion, read in z) inverted as a power series to
    z^K over its nonzero terms.  The inverse is kept behind deg(det_C) zeros,
    so no term needs a bounds test."""
    total = [0] * (K + 1)
    for count, e, coeffs in _class_field_data(classes, p, root):
        det = [0] * (e * (len(coeffs) - 1) + 1)
        det[::e] = coeffs
        terms = [(i, c) for i, c in enumerate(det) if i and c]
        D = len(det) - 1
        inv = [0] * D + [1] + [0] * K
        for t in range(D + 1, D + K + 1):
            s = 0
            for i, c in terms:
                s += c * inv[t - i]
            inv[t] = -s % p
        for t in range(K + 1):
            total[t] = (total[t] + count * inv[D + t]) % p
    inv_order = pow(group_order, -1, p)
    return [(total[k] - (total[k - 2] if k >= 2 else 0)) * inv_order % p for k in range(K + 1)]


# --- certification by the full-vector rule ---------------------------------

def full_vector_certify_pair(g1, g2, rep_pairs=None):
    """certify_pair as it was before it screened: both full vectors on the
    pair's grid are evaluated and compared, then almost-conjugacy runs."""
    g1, g2 = _ordered_pair(g1, g2)
    s1, s2 = (Spectrum.of(SumRep.from_pairs(g, rep_pairs or ((1, 1),))) for g in (g1, g2))
    grid = _evaluation_grid(g1.order, max(s1.point_count, s2.point_count))
    values = evaluate_f_values(s1.classes, g1.order, *grid)
    if evaluate_f_values(s2.classes, g1.order, *grid) != values:
        raise CertificationFailed("fingerprint", "value vectors differ")
    return _certify(s1, s2, grid, values)


# --- canonical groups by the torsion scan ----------------------------------

def torsion_scan_canonical(N):
    """All non-cyclic fixed-point-free Type I groups of order N, canonical r.

    Conditions: N = m*n, gcd((r-1)n, m) = 1, d = ord_m(r) | n, d != 1, every
    prime of d divides n/d, and r minimal among [r^c]_m with gcd(c, d) = 1.
    """
    out = []
    for m in divisors(N):
        if m < 3 or m % 2 == 0:
            continue
        n = N // m
        if math.gcd(m, n) != 1:
            continue
        for r in torsion_elements(m, n):
            if r == 1 or math.gcd(r - 1, m) != 1:
                continue
            d = multiplicative_order(r, m)
            if d == 1:
                continue
            nd = n // d
            if any(nd % p for p in prime_factors(d)):
                continue
            g = validate_type1(m, n, r)
            if is_canonical(g):
                out.append(g)
    return sorted(out, key=lambda g: (g.m, g.n, g.d, g.r))


# --- the pairing test by gcds of gcds -------------------------------------

def can_pair_by_gcds(m, n):
    """Do two component orders o_p | gcd(n, p - 1) of (m, n) share an odd
    prime or a 4?"""
    return any(math.gcd(a, b) > 2 for a, b in combinations([math.gcd(n, p - 1) for p in prime_factors(m)], 2))


def pairing_orders_by_gcds(n_max):
    """The set of N <= n_max with a split (m, n), m >= 3 odd, gcd(m, n) = 1,
    that can pair."""
    return {N for N in range(2, n_max + 1) for m in divisors(N)
            if m >= 3 and m % 2 and math.gcd(m, N // m) == 1 and can_pair_by_gcds(m, N // m)}


# --- Theorem-4.2 pairs by the torsion scan ----------------------------------

def torsion_construct_theorem42_pairs(m_max, d_values=None):
    """construct_theorem42_pairs by scanning every r1 of the d-torsion of
    Z_m^x: r1 and r2 = -r1^-1 must both be valid of order d and the groups
    non-isomorphic; each pair is kept once, by its canonical r's."""
    seen = set()
    certs = []
    for m in range(3, m_max + 1, 2):
        lam = carmichael(m)
        if d_values is None:
            ds = []
            d = 8
            while d <= lam:
                ds.append(d)
                d *= 2
        else:
            ds = list(d_values)
        for d in ds:
            if lam % d:
                continue
            n = 2 * d
            for r1 in torsion_elements(m, d):
                if r1 <= 1 or math.gcd(r1 - 1, m) != 1:
                    continue
                if multiplicative_order(r1, m) != d:
                    continue
                r2 = (-pow(r1, -1, m)) % m
                if math.gcd(r2 - 1, m) != 1 or multiplicative_order(r2, m) != d:
                    continue
                g1 = validate_type1(m, n, r1)
                g2 = validate_type1(m, n, r2)
                if is_isomorphic(g1, g2):
                    continue
                c1, c2 = sorted((canonical_r(g1), canonical_r(g2)))
                key = (m, n, c1, c2)
                if key in seen:
                    continue
                seen.add(key)
                certs.append(certify_pair(validate_type1(m, n, c1), validate_type1(m, n, c2)))
    certs.sort(key=lambda c: (c.N, c.m, c.r1, c.r2))
    return certs


# --- Theorem-4.2 witness by the generator scan --------------------------------

def scan_theorem42_witness(m, d, r1, r2):
    """theorem42_witness by scanning every generator g1 of <r1>, least first,
    for a partner -g1^-1 mod m that generates <r2>."""
    gens1 = r_generators(validate_type1(m, 2 * d, r1)) if m > 1 else (0,)
    gens2 = set(r_generators(validate_type1(m, 2 * d, r2))) if m > 1 else {0}
    for g1 in gens1:
        partner = (-pow(g1, -1, m)) % m
        if partner in gens2:
            return (g1, partner)
    return None
