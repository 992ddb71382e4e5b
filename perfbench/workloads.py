"""The benchmark's workloads and the inputs each one draws from its seed.

`plan(workload, seed)` returns plain data; it does not import spaceform, so
the harness can check results against the same plan the round ran.

search-serial    run_search(jobs=1) over every order up to N_SERIAL: every
                 search stage in one process.
search-parallel  run_search(jobs=2) over a longer prefix: adds the worker
                 pool, result pickling and heavier orders.  A scheduling
                 change moves wall_s here and not cpu_s.
pair-queries     one-off questions without a search: certify_pair on the
                 published pairs, refutations, general sums, Molien series
                 and the CLI.  Enumeration, bucketing and the prefilter are
                 bypassed; reusing search spectra in certify_pair leaves it
                 unchanged, while det_classes and evaluator changes move it.
"""

from __future__ import annotations

import math
import random

from checks import canonical_groups, generators
from published import rows_up_to

# Both search ranges end past the published pairs they contain (four up to
# 3536, five up to 5840), so every stage from prefilter to certification runs.
N_SERIAL = 3600
N_PARALLEL = 6000
PARALLEL_JOBS = 2
# pair-queries: published pairs up to this order, and Molien series to K.
N_QUERIES = 3600
MOLIEN_K = 1500
MOLIEN_REFERENCE_K = 30

WORKLOADS = ("search-serial", "search-parallel", "pair-queries")


def plan(workload: str, seed: int) -> dict:
    if workload == "search-serial":
        return {"kind": "search", "n_max": N_SERIAL, "jobs": 1, "prime_seed": seed}
    if workload == "search-parallel":
        return {"kind": "search", "n_max": N_PARALLEL, "jobs": PARALLEL_JOBS, "prime_seed": seed}
    if workload == "pair-queries":
        return _queries_plan(random.Random(seed))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _comparator(rng, m, n, d, r1, r2) -> int:
    """A Type I group with the pair's (m, n, d), isomorphic to neither member."""
    taken = {generators(r1, m, d), generators(r2, m, d)}
    return rng.choice([r for r in canonical_groups(m, n, d) if generators(r, m, d) not in taken])


def _queries_plan(rng: random.Random) -> dict:
    """Seeded choices: the isomorphic pair, the comparators and the summands."""
    rows = rows_up_to(N_QUERIES)
    first, last = rows[0], rows[-1]
    _, m, n, d, r1, r2 = first
    iso_row = rng.choice(rows)
    _, im, i_n, idd, ir1, _ = iso_row
    c = rng.choice([c for c in range(2, idd) if math.gcd(c, idd) == 1])
    iso = (im, i_n, ir1, pow(ir1, c, im))
    comparators = [(row[1], row[2], row[4], _comparator(rng, *row[1:])) for row in (first, last)]
    units_m = [k for k in range(1, m) if math.gcd(k, m) == 1]
    units_n = [l for l in range(1, n) if math.gcd(l, n) == 1]
    summands = [[rng.choice(units_m), rng.choice(units_n)] for _ in range(2)]
    comp = comparators[0][3]
    reps = ";".join(f"{k},{l}" for k, l in summands)
    return {
        "kind": "queries",
        "table": [list(row) for row in rows],
        "isomorphic": list(iso),
        "comparators": [list(cmp) for cmp in comparators],
        "sums": {"pair": [m, n, r1, r2], "summands": summands},
        "molien_k": MOLIEN_K,
        "molien_groups": {"P": [m, n, r1], "Q": [m, n, r2], "C": [m, n, comp]},
        "molien_reference_k": MOLIEN_REFERENCE_K,
        "cli": [
            {"argv": ["certify-pair", m, n, r1, r2, "--json"], "expect": "certified"},
            {"argv": ["certify-pair", m, n, r1, comp, "--json"], "expect": "fingerprint"},
            {"argv": ["isomorphic", *iso, "--json"], "expect": "isomorphic"},
            {"argv": ["fingerprint", m, n, r1, "--reps", reps, "--json"], "expect": "fingerprint_record"},
        ],
    }
