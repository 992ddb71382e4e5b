"""Exhaustive search for isospectral spherical space forms S^(2d-1)/rho_11(G)
with non-isomorphic Type I fundamental groups, and pair certification.

Pipeline per order N:
  1. walk the buckets of the audible invariants (m, n, d, gcd(r^c-1, m) for
     c | d) of the non-cyclic fixed-point-free Type I groups of order N,
     straight from the torsion of Z_m^x (_audible_buckets).  Groups in
     different buckets are not isospectral, and only orders with a split that
     can put two in one bucket are searched (_pairing_orders);
  2. build the groups (canonical r) only of buckets that hold two or more;
  3. screen multi-member buckets at one point, straight from each group's
     orbit walk, modulo a prime q = 1 (mod N) below 2^30 (_screen_grid):
     isospectral groups have equal F_G, so they agree at every non-pole point
     mod every such prime, and a one-digit q keeps the screen cheap;
     evaluate only the groups that collide there, on the certificate grid
     spectra picks for them (prime above 10^18), and refine by the exact
     value vectors;
  4. certify every unordered pair inside a refined bucket (non-isomorphism,
     almost-conjugacy), its fingerprint record cut by spectra.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from itertools import combinations, product

from .errors import CertificationFailed, GroupMismatch, NotFixedPointFree, ParameterOutOfRange
from .groups import (
    TypeIParams,
    canonical_r,
    is_fixed_point_free,
    is_isomorphic,
    r_generators,
    validate_type1,
)
from .numtheory import (
    carmichael,
    crt_pair,
    divisors,
    factorint,
    primitive_root,
    torsion_elements,
)
from .spectra import (
    Spectrum,
    SumRep,
    _certificate_grid,
    _fingerprint_record,
    _full_vector,
    _screen_grid,
    _screen_value,
    almost_conjugate,
    evaluate_f_values,
)


@dataclass(frozen=True)
class SearchConfig:
    n_max: int
    jobs: int = 1
    output_path: str | None = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ParameterOutOfRange(f"n_max must be >= 1, got {self.n_max}")
        if self.jobs < 1:
            raise ParameterOutOfRange(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class PairCertificate:
    """A verified isospectral pair of non-isomorphic Type I groups."""

    N: int
    m: int
    n: int
    d: int
    r1: int
    r2: int
    powers_of_r1: tuple[int, ...]
    almost_conjugacy: bool
    theorem42_applicable: bool
    theorem42_witness: tuple[int, int] | None
    fingerprint_match: dict = field(hash=False)

    def to_dict(self) -> dict:
        return {
            "N": self.N, "m": self.m, "n": self.n, "d": self.d,
            "r1": self.r1, "r2": self.r2,
            "non_isomorphism_witness": {
                "powers_of_r1_mod_m": list(self.powers_of_r1),
                "statement": f"no c in [0,{self.d}) has r1^c = {self.r2} (mod {self.m})",
            },
            "fingerprint_match": self.fingerprint_match,
            "almost_conjugacy": self.almost_conjugacy,
            "theorem42_applicable": self.theorem42_applicable,
            "theorem42_witness": list(self.theorem42_witness) if self.theorem42_witness else None,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode() + b"\n"


def enumerate_canonical(N: int) -> list[TypeIParams]:
    """All non-cyclic fixed-point-free Type I groups of order N, canonical r:
    the members of every audible bucket of N, ascending (m, n, d, r)."""
    groups = [g for bucket, _ in _audible_buckets(N) for g in _bucket_members(*bucket)]
    return sorted(groups, key=lambda g: (g.m, g.n, g.d, g.r))


def _audible_buckets(N: int):
    """((m, n, d, orders), size) for every audible bucket of order N (_buckets),
    over the splits m*n = N of Type I groups: m >= 3 odd and gcd(m, n) = 1."""
    return (bucket for m in divisors(N) if m >= 3 and m % 2 and math.gcd(m, N // m) == 1
            for bucket in _buckets(m, N // m))


def _pair_divisors(m: int) -> set[int]:
    """The odd primes of g = gcd(p - 1, q - 1), and 4 when 4 | g, for every two
    primes p < q of m.  A bucket of (m, n) holds prod phi(o_p) / phi(d) groups,
    above 1 only if some o_p | gcd(n, p - 1) and o_q | gcd(n, q - 1) share an
    odd prime or a 4, so only if gcd(n, g) > 2: if one of these divides n."""
    out = set()
    for p, q in combinations(factorint(m), 2):
        g = math.gcd(p - 1, q - 1)
        out.update(f for f in factorint(g) if f > 2)
        if g % 4 == 0:
            out.add(4)
    return out


def _pairing_orders(n_max: int) -> list[int]:
    """The orders N <= n_max with a split (m, n) that can pair, descending:
    N = m*n for odd m (15 is the least with two primes), n a multiple of a
    pairing divisor of m (3 is the least), and gcd(m, n) = 1."""
    orders = set()
    for m in range(15, n_max // 3 + 1, 2):
        for f in _pair_divisors(m):
            orders.update(m * n for n in range(f, n_max // m + 1, f) if math.gcd(m, n) == 1)
    return sorted(orders, reverse=True)


def _buckets(m: int, n: int):
    """((m, n, d, orders), size) for every audible bucket of (m, n), m odd
    and gcd(m, n) = 1.

    The n-torsion of Z_m^x is the product over p^e || m of cyclic groups of
    order gcd(n, p - 1).  An r with component orders orders = (o_p) has
    gcd(r - 1, m) = 1 iff every o_p > 1, d = lcm(o_p), and gcd(r^c - 1, m) is
    the product of the p^e with o_p | c: the audible invariants are exactly
    (m, n, orders).  Isomorphism classes are the subgroups <r>, so a
    fixed-point-free bucket holds prod phi(o_p) / phi(d) groups.
    """
    choices = [divisors(math.gcd(n, p - 1))[1:] for p in factorint(m)]
    for orders in product(*choices):
        d = math.lcm(*orders)
        if any(n // d % q for q in factorint(d)):  # not fixed point free
            continue
        yield (m, n, d, orders), math.prod(map(_totient, orders)) // _totient(d)


def _bucket_members(m: int, n: int, d: int, orders: tuple[int, ...]) -> list[TypeIParams]:
    """The groups of the bucket (m, n, orders): the elements with those
    component orders, combined by CRT, grouped into subgroups <r> of order d;
    the least element of each is its canonical r."""
    residues = [(0, 1)]  # (value mod modulus, modulus)
    for (p, e), o in zip(factorint(m).items(), orders):
        q = p**e
        h = pow(primitive_root(q), (p - 1) * p ** (e - 1) // o, q)  # generates the order-o subgroup
        block = [pow(h, k, q) for k in range(o) if math.gcd(k, o) == 1]
        residues = [(crt_pair(a, mod, b, q), mod * q) for a, mod in residues for b in block]
    members, seen = [], set()
    for r in sorted(a for a, _ in residues):
        if r not in seen:
            members.append(validate_type1(m, n, r))
            seen.update(r_generators(members[-1]))
    return members


def _totient(k: int) -> int:
    for p in factorint(k):
        k = k // p * (p - 1)
    return k


def audible_invariants(g: TypeIParams) -> tuple:
    """(m, n, d, gcd(r^c-1, m) for c | d): equal for isospectral space forms."""
    us = tuple(math.gcd(pow(g.r, c, g.m) - 1, g.m) if g.m > 1 else 1 for c in divisors(g.d))
    return (g.m, g.n, g.d, us)


def theorem42_witness(m: int, d: int, r1: int, r2: int) -> tuple[int, int] | None:
    """(g, -g^-1 mod m) for the least generator g of <r1>, if that partner
    generates <r2>.  Every generator of <r1> is g^c with c odd and prime to
    the order of -g^-1, and (-g^-1)^c is then its partner and generates the
    same subgroup, so no other generator of <r1> pairs when g does not."""
    g = canonical_r(validate_type1(m, 2 * d, r1))
    partner = -pow(g, -1, m) % m
    return (g, partner) if partner in r_generators(validate_type1(m, 2 * d, r2)) else None


def theorem42_applicable(g1: TypeIParams, g2: TypeIParams) -> tuple[bool, tuple[int, int] | None]:
    """Do the two groups satisfy the isospectral-construction hypotheses
    (n = 2d, and some choice of generators multiplies to -1 mod m)?"""
    if g1.n != 2 * g1.d:
        return (False, None)
    witness = theorem42_witness(g1.m, g1.d, g1.r, g2.r)
    return (witness is not None, witness)


def certify_pair(g1: TypeIParams, g2: TypeIParams, rep_pairs=None) -> PairCertificate:
    """Run all three checks on a pair and produce the certificate.

    Raises CertificationFailed naming the first failing check, and
    NotFixedPointFree if the groups give no space form.
    """
    g1, g2 = _ordered_pair(g1, g2)
    if rep_pairs is None:
        rep_pairs = ((1, 1),)
    certs = _certify_bucket([SumRep.from_pairs(g, rep_pairs) for g in (g1, g2)], g1.order)
    if not certs:
        raise CertificationFailed("fingerprint", "value vectors differ")
    return certs[0]


def _ordered_pair(g1: TypeIParams, g2: TypeIParams) -> tuple[TypeIParams, TypeIParams]:
    """The parameter, fixed-point and non-isomorphism checks; the pair ordered by r."""
    if (g1.m, g1.n) != (g2.m, g2.n):
        raise GroupMismatch(f"pair must share (m, n): {(g1.m, g1.n)} vs {(g2.m, g2.n)}")
    if g1.d != g2.d:
        raise CertificationFailed("parameters", f"d differs: {g1.d} vs {g2.d}")
    if not is_fixed_point_free(g1):  # n and d decide it, and the pair shares both
        raise NotFixedPointFree(f"{g1} is not fixed point free: the pair gives no space form")
    if g1.r > g2.r:
        g1, g2 = g2, g1
    if is_isomorphic(g1, g2):
        raise CertificationFailed("non_isomorphism", f"r2 = {g2.r} is a power of r1 = {g1.r} mod {g1.m}")
    return g1, g2


def _certify(s1: Spectrum, s2: Spectrum, grid, values) -> PairCertificate:
    """The almost-conjugacy check on an ordered pair that passed
    _ordered_pair and shares the F-values `values` on grid = (p, root, points),
    and its certificate; grid may be longer than the pair's (_fingerprint_record).
    """
    g1, g2 = s1.rep.group, s2.rep.group
    if not almost_conjugate(s1.rep, s2.rep):
        raise CertificationFailed("almost_conjugacy", "natural bijection does not match eigenvalues")
    fp = _fingerprint_record(s1, (s1, s2), grid, values)
    applicable, witness = theorem42_applicable(g1, g2)
    return PairCertificate(
        N=g1.order, m=g1.m, n=g1.n, d=g1.d, r1=g1.r, r2=g2.r,
        powers_of_r1=tuple(pow(g1.r, c, g1.m) for c in range(g1.d)), almost_conjugacy=True,
        theorem42_applicable=applicable, theorem42_witness=witness,
        fingerprint_match=fp.evidence_dict(),
    )


def _certify_bucket(reps: list[SumRep], N: int) -> list[PairCertificate]:
    """The certificates of every pair of reps of order N whose F-values agree.

    Each rep is screened at one point straight from its orbit walk
    (_screen_value), modulo the screen's own prime below 2^30 (_screen_grid).
    Only reps that share a screen value get a Spectrum and the full vector,
    on the certificate grid (prime above 10^18) that spectra checks against
    the budget and builds only then (_certificate_grid); a chance collision
    at either prime only costs a full vector.  Spectra's memo (_full_vector)
    evaluates each distinct class multiset once.
    """
    q, q_root, (z,) = _screen_grid(N)
    screened: dict[int, list[SumRep]] = {}
    for rep in reps:
        screened.setdefault(_screen_value(rep, q, q_root, z), []).append(rep)
    spectra = {rep.group: Spectrum.of(rep) for group in screened.values() if len(group) > 1 for rep in group}
    if not spectra:
        return []
    grid = _certificate_grid(list(spectra.values()))
    buckets: dict[tuple, list[TypeIParams]] = {}
    for g, s in spectra.items():
        buckets.setdefault(_full_vector(s.classes, N, grid, evaluate_f_values), []).append(g)
    pairs = ((values, _ordered_pair(a, b)) for values, mates in buckets.items() for a, b in combinations(mates, 2))
    return [_certify(spectra[g1], spectra[g2], grid, values) for values, (g1, g2) in pairs]


def _pairs_for_order(N: int) -> list[PairCertificate]:
    return [c for bucket, size in _audible_buckets(N) if size > 1
            for c in _certify_bucket([SumRep.rho11(g) for g in _bucket_members(*bucket)], N)]


def _search_worker(N: int) -> list[PairCertificate]:
    return _pairs_for_order(N)


def run_search(cfg: SearchConfig) -> list[PairCertificate]:
    """Certified isospectral pairs for all orders N <= n_max, ascending (N, m, r1)."""
    if cfg.output_path:  # a bad path fails before any order is searched
        os.makedirs(cfg.output_path, exist_ok=True)
    # Largest first: the heaviest orders are near n_max, and a pool that
    # reached them last would leave its other workers idle.  Orders that can
    # hold a pair are few (2280 of 29999 up to 30000): one per task.
    orders = _pairing_orders(cfg.n_max)
    if cfg.jobs > 1:  # workers ignore SIGINT: Ctrl-C reaches the parent, whose with block ends them
        with multiprocessing.Pool(cfg.jobs, initializer=signal.signal,
                                  initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            chunks = pool.map(_search_worker, orders, chunksize=1)
        certs = [c for chunk in chunks for c in chunk]
    else:
        certs = [c for N in orders for c in _pairs_for_order(N)]
    certs.sort(key=lambda c: (c.N, c.m, c.r1, c.r2))
    if cfg.output_path:
        write_results(cfg.output_path, certs)
    return certs


def write_results(path: str, certs: list[PairCertificate]) -> None:
    """One JSON per pair, then the CSV table (Table-1 layout plus applicability
    flag).  Each file is written to a .part name and renamed into place, so an
    interrupted or failed write leaves whole certificates and no table.  Then
    the pair_N*.json certificates that this run did not write are removed, so
    the directory holds the pairs that pairs.csv names; no other file is."""
    os.makedirs(path, exist_ok=True)
    table = io.StringIO()
    csv.writer(table).writerows([["N", "m", "n", "d", "r1", "r2", "theorem42"]] + [
        [c.N, c.m, c.n, c.d, c.r1, c.r2, str(c.theorem42_applicable).lower()] for c in certs])
    files = [(f"pair_N{c.N}_m{c.m}_n{c.n}_d{c.d}_r{c.r1}-{c.r2}.json", c.canonical_bytes()) for c in certs]
    for name, data in files + [("pairs.csv", table.getvalue().encode())]:
        part = os.path.join(path, name + ".part")
        try:
            with open(part, "wb") as fh:
                fh.write(data)
            os.replace(part, os.path.join(path, name))
        finally:
            if os.path.exists(part):
                os.remove(part)
    written = {name for name, _ in files}
    for name in os.listdir(path):
        if name.startswith("pair_N") and name.endswith(".json") and name not in written:
            os.remove(os.path.join(path, name))


def construct_theorem42_pairs(m_max: int, d_values=None) -> list[PairCertificate]:
    """Pairs Gamma_d(m, 2d, r1), Gamma_d(m, 2d, r2) with r1*r2 = -1 mod m.

    d runs over powers of two >= 8 (d in {1, 2, 4} provably gives cyclic or
    isomorphic groups), or over d_values, which must be powers of two: other
    d give groups with n = 2d that are not fixed point free.  The groups are
    the members of the audible buckets of (m, 2d) with lcm(orders) = d.  The
    partner (-r1^-1)^c of a generator r1^c (c odd) generates <-r1^-1>, so one
    partner per group is enough.  It lies in r1's bucket when every o_p >= 4;
    when some o_p = 2 it is 1 mod p^e, so in no group.  Every pair is certified.
    """
    if d_values is not None:
        d_values = set(d_values)
        if any(d < 1 or d & (d - 1) for d in d_values):
            raise ParameterOutOfRange(f"d_values must be powers of two, got {sorted(d_values)}")
    certs = []
    for m in range(3, m_max + 1, 2):
        lam = carmichael(m)
        ds = [8 << k for k in range(lam.bit_length()) if 8 << k <= lam] if d_values is None else d_values
        for d in ds:
            for (_, n, order, orders), size in _buckets(m, 2 * d):
                if order != d or size < 2:
                    continue
                members = _bucket_members(m, n, d, orders)
                owner = {r: g for g in members for r in r_generators(g)}
                for g1 in members:
                    g2 = owner.get(-pow(g1.r, -1, m) % m)
                    if g2 is not None and g1.r < g2.r:
                        certs.append(certify_pair(g1, g2))
    certs.sort(key=lambda c: (c.N, c.m, c.r1, c.r2))
    return certs


def crosscheck_table(certs: list[PairCertificate]) -> dict:
    """Flag each pair with whether the Theorem-4.2 hypotheses hold."""
    rows = []
    for c in certs:
        rows.append({
            "N": c.N, "m": c.m, "n": c.n, "d": c.d, "r1": c.r1, "r2": c.r2,
            "n_equals_2d": c.n == 2 * c.d,
            "theorem42_applicable": c.theorem42_applicable,
            "witness": list(c.theorem42_witness) if c.theorem42_witness else None,
        })
    return {"rows": rows, "all_applicable": all(r["theorem42_applicable"] for r in rows)}


def negative_d2_check(n_max: int) -> bool:
    """True iff no two d = 2 groups share an (m, n) with m*n <= n_max, so no
    certificate with d = 2 exists.

    A d = 2 group of (m, n) has r != 1, r^2 = 1 and gcd(r - 1, m) = 1, a
    condition on m alone.  It forces r = -1 mod every prime power of m, so
    r = m - 1 is the only such r.  The 2-torsion of every odd m <= n_max // 4
    (n = 4 is a coprime split of each) is scanned to confirm it.
    """
    return all(sum(r != 1 and math.gcd(r - 1, m) == 1 for r in torsion_elements(m, 2)) < 2
               for m in range(3, n_max // 4 + 1, 2))
