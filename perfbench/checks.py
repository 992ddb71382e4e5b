"""Checks of the program's outputs against computations made here.

Nothing in this module imports spaceform.  Group orders, generator sets,
Theorem-4.2 witnesses, primality, characters and Molien series are computed
from their definitions: the group law of <A, B | A^m = B^n = 1, BAB^-1 = A^r>
and the explicit matrices of rho_{k,l}.  Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os

from published import rows_up_to

CSV_HEADER = ["N", "m", "n", "d", "r1", "r2", "theorem42"]


# ----------------------------------------------------------------------
# Elementary arithmetic, written out from the definitions.

def unit_order(r: int, m: int) -> int:
    """Least k >= 1 with r^k = 1 mod m (r a unit mod m, m > 1)."""
    k, x = 1, r % m
    while x != 1:
        x = x * r % m
        k += 1
    return k


def generators(r: int, m: int, d: int) -> frozenset[int]:
    """The generators {r^c : gcd(c, d) = 1} of the cyclic group <r> mod m."""
    return frozenset(pow(r, c, m) for c in range(1, d + 1) if math.gcd(c, d) == 1)


def is_type1(m: int, n: int, r: int) -> bool:
    return m % 2 == 1 and math.gcd((r - 1) * n, m) == 1 and pow(r, n, m) == 1


def canonical_groups(m: int, n: int, d: int) -> list[int]:
    """One r per isomorphism class of Type I groups with these (m, n, d)."""
    out = []
    for r in range(2, m):
        if is_type1(m, n, r) and unit_order(r, m) == d and r == min(generators(r, m, d)):
            out.append(r)
    return out


def pair_key(N, m, n, d, r1, r2):
    """A pair up to the choice of generator of each <r_i> and up to order."""
    return (N, m, n, d, frozenset({generators(r1, m, d), generators(r2, m, d)}))


def is_prime(p: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if p < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if p % q == 0:
            return p == q
    if p >= 3_317_044_064_679_887_385_961_981:
        raise ValueError("primality of p above 3.3e24 is not decided here")
    s, t = 0, p - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in bases:
        x = pow(a, t, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def theorem42_witnesses(m: int, d: int, r1: int, r2: int) -> set[tuple[int, int]]:
    """All (g1, g2), g_i a generator of <r_i>, with g1 * g2 = -1 mod m."""
    gens2 = generators(r2, m, d)
    return {(g1, g2) for g1 in generators(r1, m, d) for g2 in gens2 if g1 * g2 % m == m - 1}


# ----------------------------------------------------------------------
# Characters of rho_{k,l} from its matrices.  The complex part pi sends A to
# D = diag(zeta_m^(k r^j)) and B to the cyclic shift S with corner
# omega^l, omega = exp(2 pi i / (n/d)); the real representation is
# pi + conj(pi), so chi = 2 Re tr(D^a S^b).

def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def character_table(m: int, n: int, r: int, summands) -> list[list[float]]:
    """chi(A^a B^b) of the direct sum of rho_{k,l} over the summands, [a][b]."""
    d = unit_order(r, m)
    zeta = [cmath.exp(2j * math.pi * t / m) for t in range(m)]
    table = [[0.0] * n for _ in range(m)]
    for k, l in summands:
        diag = [k * pow(r, j, m) % m for j in range(d)]
        shift = [[0j] * d for _ in range(d)]
        for j in range(1, d):
            shift[j - 1][j] = 1
        shift[d - 1][0] = cmath.exp(2j * math.pi * l / (n // d))
        s_b = [[complex(i == j) for j in range(d)] for i in range(d)]
        for b in range(n):
            trace_diag = [s_b[i][i] for i in range(d)]
            for a in range(m):
                tr = sum(zeta[a * diag[i] % m] * trace_diag[i] for i in range(d) if trace_diag[i])
                table[a][b] += 2 * tr.real
            s_b = _matmul(s_b, shift)
    return table


def _power_traces(m, n, r, chi, a, b, count):
    """chi(x), chi(x^2), ..., chi(x^count) for x = A^a B^b, by the group law."""
    rb = [pow(r, t, m) for t in range(n)]
    out = []
    ya, yb = a, b
    for _ in range(count):
        out.append(chi[ya][yb])
        ya, yb = (ya + a * rb[yb]) % m, (yb + b) % n
    return out


def almost_conjugate_reference(m, n, r1, r2, summands) -> bool:
    """Do A_1^a B_1^b and A_2^a B_2^b have equal eigenvalues for every (a, b)?

    The eigenvalues of a D x D unitary matrix are fixed by its first D power
    sums tr(g^j) = chi(g^j), so this compares D power sums per element.
    """
    degree = 2 * unit_order(r1, m) * len(summands)
    chi1 = character_table(m, n, r1, summands)
    chi2 = character_table(m, n, r2, summands)
    for a in range(m):
        for b in range(n):
            t1 = _power_traces(m, n, r1, chi1, a, b, degree)
            t2 = _power_traces(m, n, r2, chi2, a, b, degree)
            if any(abs(u - v) > 1e-6 * degree for u, v in zip(t1, t2)):
                return False
    return True


def molien_reference(m: int, n: int, r: int, K: int) -> list[float]:
    """dim H^G_{2d-1,k}, k <= K, in floating point from the characters of rho_{1,1}.

    1/det(I - gz) = sum_k h_k(g) z^k with k h_k = sum_{j<=k} chi(g^j) h_{k-j}
    (Newton), and F_G = (1 - z^2)/|G| * sum_g 1/det(I - gz).
    """
    chi = character_table(m, n, r, ((1, 1),))
    total = [0.0] * (K + 1)
    for a in range(m):
        for b in range(n):
            p = _power_traces(m, n, r, chi, a, b, K)
            h = [1.0] + [0.0] * K
            for k in range(1, K + 1):
                h[k] = sum(p[j - 1] * h[k - j] for j in range(1, k + 1)) / k
            for k in range(K + 1):
                total[k] += h[k]
    order = m * n
    return [(total[k] - (total[k - 2] if k >= 2 else 0.0)) / order for k in range(K + 1)]


# ----------------------------------------------------------------------
# Certificates, search artifacts and query results.

def check_certificate(cert: dict, summands=((1, 1),)) -> list[str]:
    """Recompute every claim of one pair certificate."""
    fails = []
    N, m, n, d, r1, r2 = (cert[k] for k in ("N", "m", "n", "d", "r1", "r2"))
    tag = f"pair {(N, m, n, d, r1, r2)}"
    if N != m * n:
        fails.append(f"{tag}: N != m*n")
    if not (is_type1(m, n, r1) and is_type1(m, n, r2)):
        return fails + [f"{tag}: not a pair of Type I groups"]
    if not unit_order(r1, m) == unit_order(r2, m) == d:
        fails.append(f"{tag}: d is not the order of r1 and r2 mod m")
    if not r1 < r2:
        fails.append(f"{tag}: r1 >= r2")
    powers = cert["non_isomorphism_witness"]["powers_of_r1_mod_m"]
    if powers != [pow(r1, c, m) for c in range(d)]:
        fails.append(f"{tag}: non-isomorphism witness is not the powers of r1 mod m")
    if r2 in {pow(r1, c, m) for c in range(d)}:
        fails.append(f"{tag}: r2 is a power of r1, the groups are isomorphic")
    if cert["almost_conjugacy"] is not True:
        fails.append(f"{tag}: almost-conjugacy not asserted")
    witnesses = theorem42_witnesses(m, d, r1, r2) if n == 2 * d else set()
    if cert["theorem42_applicable"] != bool(witnesses):
        fails.append(f"{tag}: theorem42_applicable is {cert['theorem42_applicable']}, expected {bool(witnesses)}")
    w = cert["theorem42_witness"]
    if not (tuple(w) in witnesses if w else not witnesses):
        fails.append(f"{tag}: Theorem-4.2 witness {w} is not generators multiplying to -1 mod m")
    fm = cert["fingerprint_match"]
    degree = 2 * d * len(summands)
    if (fm["m"], fm["n"], fm["d"]) != (m, n, d):
        fails.append(f"{tag}: fingerprint (m, n, d) differ from the pair")
    if fm["reps"] != [[k % m, l % n] for k, l in summands]:
        fails.append(f"{tag}: fingerprint summands {fm['reps']} != {list(summands)}")
    if fm["num_points"] < 2 * fm["degree_bound"] + 1:
        fails.append(f"{tag}: {fm['num_points']} points < 2*degree_bound+1 = {2 * fm['degree_bound'] + 1}")
    if fm["degree_bound"] < 2 + degree or (fm["degree_bound"] - 2) % degree:
        fails.append(f"{tag}: degree bound {fm['degree_bound']} is not 2 + classes*{degree}")
    p, root = fm["p"], fm["root"]
    if (p - 1) % N or not is_prime(p):
        fails.append(f"{tag}: p = {p} is not a prime = 1 mod N")
    elif pow(root, N, p) != 1 or any(pow(root, N // q, p) == 1 for q in prime_divisors(N)):
        fails.append(f"{tag}: root {root} does not have order N mod p")
    if len(fm["values_preview"]) != min(4, fm["num_points"]) or len(fm["sha256"]) != 64:
        fails.append(f"{tag}: malformed fingerprint evidence")
    return fails


def check_search(n_max: int, certs: list[dict], out_dir: str) -> list[str]:
    """A search's pairs equal Table 1 up to n_max, each certificate holds, and
    pairs.csv and the certificate files agree with the returned pairs."""
    fails = []
    expected = {pair_key(*row) for row in rows_up_to(n_max)}
    got = [pair_key(*(c[k] for k in ("N", "m", "n", "d", "r1", "r2"))) for c in certs]
    if len(set(got)) != len(got):
        fails.append("a pair is reported twice")
    for key in expected - set(got):
        fails.append(f"published pair {key[:4]} not found")
    for key in set(got) - expected:
        fails.append(f"pair {key[:4]} is not in the published table")
    order = [(c["N"], c["m"], c["r1"], c["r2"]) for c in certs]
    if order != sorted(order):
        fails.append("pairs are not in ascending (N, m, r1, r2) order")
    for c in certs:
        fails.extend(check_certificate(c))
    fails.extend(check_artifacts(certs, out_dir))
    return fails


def certificate_name(c: dict) -> str:
    return f"pair_N{c['N']}_m{c['m']}_n{c['n']}_d{c['d']}_r{c['r1']}-{c['r2']}.json"


def check_artifacts(certs: list[dict], out_dir: str) -> list[str]:
    fails = []
    try:
        with open(os.path.join(out_dir, "pairs.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"pairs.csv unreadable: {exc}"]
    if not rows or rows[0] != CSV_HEADER:
        return ["pairs.csv header differs from " + ",".join(CSV_HEADER)]
    want = [[str(c[k]) for k in ("N", "m", "n", "d", "r1", "r2")] + [str(c["theorem42_applicable"]).lower()]
            for c in certs]
    if rows[1:] != want:
        fails.append("pairs.csv rows differ from the returned pairs")
    names = sorted(f for f in os.listdir(out_dir) if f != "pairs.csv")
    if names != sorted(certificate_name(c) for c in certs):
        fails.append("certificate files do not match the rows of pairs.csv")
    for c in certs:
        path = os.path.join(out_dir, certificate_name(c))
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            continue
        if blob != json.dumps(c, sort_keys=True, separators=(",", ":")).encode() + b"\n":
            fails.append(f"{certificate_name(c)} differs from the returned certificate")
            fails.extend(check_certificate(json.loads(blob)))
    return fails


def check_fingerprint_record(fp: dict, m, n, r, summands) -> list[str]:
    """A `fingerprint` payload: its prime, root, points and point count."""
    fails = []
    N, d = m * n, unit_order(r, m)
    degree = 2 * d * len(summands)
    if (fp["m"], fp["n"], fp["d"], fp["r"]) != (m, n, d, r) or fp["reps"] != [list(kl) for kl in summands]:
        fails.append("fingerprint record names another group or other summands")
    if len(fp["points"]) != len(fp["values"]) or len(fp["points"]) < 2 * fp["degree_bound"] + 1:
        fails.append("fingerprint record has fewer than 2*degree_bound+1 points or values")
    if fp["degree_bound"] < 2 + degree or (fp["degree_bound"] - 2) % degree:
        fails.append(f"fingerprint degree bound {fp['degree_bound']} is not 2 + classes*{degree}")
    p, root = fp["p"], fp["root"]
    if (p - 1) % N or not is_prime(p):
        fails.append(f"fingerprint p = {p} is not a prime = 1 mod N")
    elif pow(root, N, p) != 1 or any(pow(root, N // q, p) == 1 for q in prime_divisors(N)):
        fails.append("fingerprint root does not have order N mod p")
    elif any(pow(z, N, p) == 1 for z in fp["points"]) or len(set(fp["points"])) != len(fp["points"]):
        fails.append("fingerprint points repeat or hit a pole")
    return fails


class References:
    """Independent computations a run needs once, whatever its round count."""

    def __init__(self, plan: dict):
        self.plan = plan
        self._almost_conjugate = None
        self._molien = None

    def almost_conjugate(self) -> bool:
        if self._almost_conjugate is None:
            m, n, r1, r2 = self.plan["sums"]["pair"]
            self._almost_conjugate = almost_conjugate_reference(m, n, r1, r2, self.plan["sums"]["summands"])
        return self._almost_conjugate

    def molien(self) -> list[float]:
        if self._molien is None:
            self._molien = molien_reference(*self.plan["molien_groups"]["P"], self.plan["molien_reference_k"])
        return self._molien


def check_round(plan: dict, ops: list[dict], refs: References) -> tuple[int, list[str]]:
    """Check a round's operations against the plan; returns (failed, failures).

    An operation that raised is counted as failed and not checked further;
    a failure message means an operation returned a wrong answer."""
    failed = sum(1 for op in ops if not op["ok"])
    done = {op["name"]: op["value"] for op in ops if op["ok"]}
    if plan["kind"] == "search":
        if "search" not in done:
            return failed, []
        value = done["search"]
        return failed, check_search(plan["n_max"], value["certs"], value["artifact_dir"])
    fails = []
    for row in plan["table"]:
        value = done.get(f"certify:{row[0]}")
        if value is None:
            continue
        if "certificate" not in value:
            fails.append(f"published pair {row} refuted at {value.get('failed_check')}")
            continue
        cert = value["certificate"]
        fails.extend(check_certificate(cert))
        if pair_key(*(cert[k] for k in ("N", "m", "n", "d", "r1", "r2"))) != pair_key(*row):
            fails.append(f"certificate for {row} names another pair")
    if done.get("refute:isomorphic", {"failed_check": "non_isomorphism"}) != {"failed_check": "non_isomorphism"}:
        fails.append(f"isomorphic pair {plan['isomorphic']} not refuted at non_isomorphism")
    for m, n, r, c in plan["comparators"]:
        if done.get(f"refute:comparator:{m * n}", {"failed_check": "fingerprint"}) != {"failed_check": "fingerprint"}:
            fails.append(f"comparator {(m, n, r, c)} not refuted at fingerprint")
    value = done.get("certify:sums")
    if value is not None:
        summands = plan["sums"]["summands"]
        if "certificate" not in value:
            fails.append(f"pair under summands {summands} refuted at {value.get('failed_check')}")
        else:
            fails.extend(check_certificate(value["certificate"], summands))
            if not refs.almost_conjugate():
                fails.append(f"certified under {summands}, but the pair is not almost conjugate")
    series = {name: done[f"molien:{name}"] for name in plan["molien_groups"] if f"molien:{name}" in done}
    if len(series) == len(plan["molien_groups"]):
        fails.extend(check_molien(series, plan, refs.molien()))
    for i, query in enumerate(plan["cli"]):
        value = done.get(f"cli:{i}")
        if value is not None:
            fails.extend(f"cli {query['argv']}: {f}" for f in check_cli(query, value, plan))
    return failed, fails


def check_cli(query: dict, value: dict, plan: dict) -> list[str]:
    out, expect = value["stdout"], query["expect"]
    argv = query["argv"]
    if expect == "certified":
        if value["exit"] != 0 or out["status"] != "ok":
            return ["published pair not certified"]
        cert = out["payload"]
        if pair_key(*(cert[k] for k in ("N", "m", "n", "d", "r1", "r2"))) != pair_key(*plan["table"][0]):
            return ["certificate names another pair"]
        return check_certificate(cert)
    if expect == "fingerprint":
        ok = value["exit"] == 1 and out["payload"].get("failed_check") == "fingerprint"
        return [] if ok else ["comparator not refuted at fingerprint"]
    if expect == "isomorphic":
        ok = value["exit"] == 0 and out["payload"]["isomorphic"] is True
        return [] if ok else ["isomorphic pair reported non-isomorphic"]
    if expect == "fingerprint_record":
        if value["exit"] != 0:
            return ["fingerprint failed"]
        return check_fingerprint_record(out["payload"], *argv[1:4], plan["sums"]["summands"])
    raise ValueError(f"unknown expectation {expect!r}")


def check_molien(series: dict, plan: dict, reference: list[float]) -> list[str]:
    """Series of the pair's members P and Q and of the comparator C:
    c_0 = 1, P = Q, P != C, and P matches the floating-point reference."""
    fails = []
    for name, coeffs in series.items():
        if len(coeffs) != plan["molien_k"] + 1 or coeffs[0] != 1:
            fails.append(f"molien {name}: wrong length or c_0 != 1")
    if series["P"] != series["Q"]:
        fails.append("molien series of the pair's members differ")
    if series["P"] == series["C"]:
        fails.append("molien series of a pair member and its comparator agree")
    got = series["P"][: len(reference)]
    if len(got) != len(reference) or any(abs(x - y) > 1e-3 for x, y in zip(got, reference)):
        fails.append("molien series differs from the floating-point reference")
    return fails
