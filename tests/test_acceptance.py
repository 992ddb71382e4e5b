"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy shared
computations (the N <= 8000 and N <= 30000 searches) are session fixtures.
"""

import hashlib
import math
import multiprocessing
import random
import subprocess
import sys
import time

import pytest

from oracles import char_poly_matrix_oracle, poly_from_exponents
from table1 import TABLE1_ROWS, canonical_row_set

from spaceform.groups import (
    order_set_bruteforce,
    order_set_formula,
    validate_type1,
)
from spaceform.search import (
    SearchConfig,
    certify_pair,
    construct_theorem42_pairs,
    enumerate_canonical,
    negative_d2_check,
    run_search,
    write_results,
)
from spaceform.spectra import (
    RepParams,
    SumRep,
    char_poly_exponents,
    choose_prime,
    molien_coefficients,
)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def search_8000():
    t0 = time.time()
    certs = run_search(SearchConfig(n_max=8000, jobs=1))
    return certs, time.time() - t0


@pytest.fixture(scope="session")
def search_30000():
    jobs = max(1, multiprocessing.cpu_count())
    t0 = time.time()
    certs = run_search(SearchConfig(n_max=30000, jobs=jobs))
    return certs, time.time() - t0


def test_criterion_1_table_reproduction_desk_scale(search_8000):
    certs, duration = search_8000
    got = {(c.N, c.m, c.n, c.d, frozenset({c.r1, c.r2})) for c in certs}
    expected = canonical_row_set([row for row in TABLE1_ROWS if row[0] <= 8000])
    ok = got == expected and duration < 600
    report("1", ok, f"{len(certs)} pairs, single-threaded {duration:.1f}s")


def test_criterion_1_extended_full_table(search_30000):
    certs, duration = search_30000
    got = {(c.N, c.m, c.n, c.d, frozenset({c.r1, c.r2})) for c in certs}
    ok = got == canonical_row_set(TABLE1_ROWS)
    report("1-extended", ok, f"{len(certs)} pairs for N <= 30000, {duration:.0f}s with parallelism")


# sha256 of the `sha256sum`-style listing, in sorted order of the names, of the
# 56 files that `search --nmax 30000 --out` writes (tools/bench_search.py).
FULL_TABLE_DIGEST = "c052789c75403d6075770005ba35b4a98f16323f09c7f8661192d1a49d279041"


def test_criterion_1_extended_full_table_bytes(search_30000, tmp_path):
    certs, _ = search_30000
    write_results(str(tmp_path), certs)
    names = sorted(p.name for p in tmp_path.iterdir())
    listing = "".join(f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}\n" for name in names)
    ok = hashlib.sha256(listing.encode()).hexdigest() == FULL_TABLE_DIGEST
    report("1-extended-bytes", ok, f"{len(names)} files written for N <= 30000, listing digest recorded")


def test_criterion_2_smallest_pair_certificate():
    t0 = time.time()
    g1 = validate_type1(85, 16, 2)
    g2 = validate_type1(85, 16, 42)
    cert = certify_pair(g1, g2)
    duration = time.time() - t0
    checks = [
        cert.r2 not in cert.powers_of_r1,
        cert.fingerprint_match["num_points"] >= 2 * cert.fingerprint_match["degree_bound"] + 1,
        cert.almost_conjugacy,
        duration < 10,
    ]
    report("2", all(checks), f"three checks pass in {duration:.2f}s")


def test_criterion_3_order_set_oracle(fpf_pool_2000):
    mismatches = [g for g in fpf_pool_2000
                  if order_set_formula(g) != order_set_bruteforce(g)]
    report("3", not mismatches, f"{len(fpf_pool_2000)} fixed-point-free groups with mn <= 2000")


def test_criterion_4_char_poly_oracle(valid_pool_2000):
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        g = rng.choice(valid_pool_2000)
        ks = [k for k in range(1, g.m + 1) if math.gcd(k, g.m) == 1] or [0]
        ls = [l for l in range(1, g.n + 1) if math.gcd(l, g.n) == 1] or [0]
        rep = RepParams(g, rng.choice(ks), rng.choice(ls))
        x = g.element(rng.randrange(g.m), rng.randrange(g.n))
        p = choose_prime(g.m * g.n)
        if char_poly_matrix_oracle(rep, x, p) != poly_from_exponents(char_poly_exponents(rep, x), p):
            mismatches += 1
    report("4", mismatches == 0, "1000 sampled (group, element, rep) triples")


def test_criterion_5_molien_consistency():
    g1 = validate_type1(85, 16, 2)
    g2 = validate_type1(85, 16, 42)
    comparators = [g for g in enumerate_canonical(1360)
                   if (g.m, g.n, g.d) == (85, 16, 8) and g.r not in (2, 42)]
    assert comparators
    m1 = molien_coefficients(SumRep.rho11(g1), 200).coefficients
    m2 = molien_coefficients(SumRep.rho11(g2), 200).coefficients
    m9 = molien_coefficients(SumRep.rho11(comparators[0]), 200).coefficients
    differs = any(a != b for a, b in zip(m1, m9))
    report("5", m1 == m2 and differs,
           f"pair agrees to k=200; comparator r={comparators[0].r} differs")


def test_criterion_6_negative_results(search_30000):
    certs, _ = search_30000
    no_d2 = negative_d2_check(30000) and not any(c.d == 2 for c in certs)
    no_d4 = construct_theorem42_pairs(2000, d_values=(4,)) == []
    below = run_search(SearchConfig(n_max=1000)) == []
    report("6", no_d2 and no_d4 and below,
           "no d=2 pairs to 30000; d=4 construction empty to m=2000; N<=1000 empty")


def test_criterion_7_crosscheck_theorem42(search_30000):
    certs, _ = search_30000
    ok = all(c.n == 2 * c.d and c.theorem42_applicable for c in certs)
    report("7", ok and len(certs) == len(TABLE1_ROWS),
           f"all {len(certs)} pairs arise from the n=2d, r1r2=-1 construction")


def _cli_bytes(*args) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "spaceform", *args], capture_output=True)
    return proc.stdout


def test_criterion_8_determinism(tmp_path):
    commands = [
        ("validate", "85", "16", "2", "--json"),
        ("orders", "85", "16", "2", "--brute", "--json"),
        ("fingerprint", "5", "4", "4", "--json"),
        ("certify-pair", "85", "16", "2", "42", "--json"),
        ("search", "--nmax", "400", "--json"),
    ]
    ok = all(_cli_bytes(*cmd) == _cli_bytes(*cmd) for cmd in commands)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_search(SearchConfig(n_max=1360, output_path=str(out1)))
    run_search(SearchConfig(n_max=1360, output_path=str(out2)))
    files_equal = all((out1 / f.name).read_bytes() == f.read_bytes() for f in out2.iterdir())
    report("8", ok and files_equal, "byte-identical reruns of commands and search artifacts")
