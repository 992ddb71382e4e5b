import json
import math
import os
import pickle
import random
from itertools import product

import pytest

from spaceform.errors import (
    CertificationFailed,
    GroupMismatch,
    InvalidRepresentation,
    NotFixedPointFree,
    ParameterOutOfRange,
    SizeLimitExceeded,
    SpaceformError,
)
from spaceform import spectra
from spaceform.groups import is_fixed_point_free, is_isomorphic, validate_type1
from spaceform.numtheory import divisors, factorint, next_prime_in_progression, prime_factors, torsion_elements
from spaceform.search import (
    SearchConfig,
    _audible_buckets,
    _bucket_members,
    _buckets,
    _certify,
    _pair_divisors,
    _pairing_orders,
    _pairs_for_order,
    audible_invariants,
    certify_pair,
    construct_theorem42_pairs,
    crosscheck_table,
    enumerate_canonical,
    negative_d2_check,
    run_search,
    theorem42_applicable,
    theorem42_witness,
    write_results,
)
from spaceform.spectra import Spectrum, SumRep, _evaluation_grid, _screen_grid, _screen_value, det_classes, \
    evaluate_f_values, choose_prime, root_of_unity, select_points

from oracles import full_vector_certify_pair, pairing_orders_by_gcds, scan_theorem42_witness, torsion_construct_theorem42_pairs, \
    torsion_scan_canonical
from table1 import TABLE1_ROWS, canonical_row_set


def brute_canonical(N):
    """Independent triple-scan oracle for enumerate_canonical."""
    out = set()
    for m in range(1, N + 1):
        if N % m:
            continue
        n = N // m
        for r in range(m):
            if m == 1 or m % 2 == 0:
                continue
            if math.gcd((r - 1) * n, m) != 1 or pow(r, n, m) != 1:
                continue
            d = 1
            while pow(r, d, m) != 1:
                d += 1
            if d == 1 or n % d:
                continue
            if any((n // d) % p for p in prime_factors(d)):
                continue
            gens = {pow(r, c, m) for c in range(1, d + 1) if math.gcd(c, d) == 1}
            if r == min(gens):
                out.add((m, n, d, r))
    return out


def test_enumerate_canonical_N20():
    assert [(g.m, g.n, g.d, g.r) for g in enumerate_canonical(20)] == [(5, 4, 2, 4)]


@pytest.mark.parametrize("N", [20, 24, 48, 60, 63, 80, 96, 100, 120])
def test_enumerate_canonical_matches_brute(N):
    got = {(g.m, g.n, g.d, g.r) for g in enumerate_canonical(N)}
    assert got == brute_canonical(N)


def test_enumerate_canonical_prime_order_empty():
    for N in (2, 3, 97, 1361):
        assert enumerate_canonical(N) == []


def test_enumerate_canonical_1360():
    entries = {(g.m, g.n, g.d, g.r) for g in enumerate_canonical(1360)}
    assert (85, 16, 8, 2) in entries
    assert (85, 16, 8, 42) in entries
    for g in enumerate_canonical(1360):
        assert is_fixed_point_free(g) and g.d != 1
        assert g.r == min(pow(g.r, c, g.m) for c in range(1, g.d + 1) if math.gcd(c, g.d) == 1)


def test_audible_invariants_separate_comparator():
    g2 = validate_type1(85, 16, 2)
    g42 = validate_type1(85, 16, 42)
    g9 = validate_type1(85, 16, 9)
    assert audible_invariants(g2) == audible_invariants(g42)
    assert audible_invariants(g2) != audible_invariants(g9)


def test_enumerate_canonical_matches_torsion_scan():
    for N in range(2, 2001):
        assert enumerate_canonical(N) == torsion_scan_canonical(N), N


def _phi(k):
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def _walk_key(m, n, d, orders):
    """The audible invariants of a group whose component orders are orders."""
    powers = [p**e for p, e in factorint(m).items()]
    us = tuple(math.prod(q for q, o in zip(powers, orders) if c % o == 0) for c in divisors(d))
    return (m, n, d, us)


def test_audible_buckets_match_torsion_scan():
    # Every bucket of the walk, by its invariants and size, is a bucket of the
    # torsion scan; the multi-member ones also by their members.
    for N in random.Random(2026).sample(range(2, 30001), 200):
        scanned = {}
        for g in torsion_scan_canonical(N):
            scanned.setdefault(audible_invariants(g), []).append(g)
        walked = {}
        for (m, n, d, orders), size in _audible_buckets(N):
            assert d == math.lcm(*orders) and min(orders) > 1
            assert size == math.prod(map(_phi, orders)) // _phi(d)
            key = _walk_key(m, n, d, orders)
            walked[key] = size
            if size > 1:
                members = _bucket_members(m, n, d, orders)
                assert {audible_invariants(g) for g in members} == {key}
                assert members == scanned[key]
        assert walked == {key: len(members) for key, members in scanned.items()}, N


def test_pairing_orders_hold_every_multi_member_bucket():
    # Every order up to 6000 with a bucket of two or more groups is
    # dispatched; fewer than half of the orders are, and none whose odd part
    # is a prime power.  Orders 2 and 4 share only a 2 (60 = 15 * 4); 4 and
    # 4 (260 = 65 * 4), or 3 and 3 (273 = 91 * 3), can pair.
    orders = set(_pairing_orders(6000))
    assert all(N in orders for N in range(2, 6001) if any(size > 1 for _, size in _audible_buckets(N)))
    assert 2 * len(orders) < 6000
    assert 60 not in orders and 260 in orders and 273 in orders
    assert not any(_pair_divisors(m) for m in range(3, 6001, 2) if len(factorint(m)) == 1)


@pytest.mark.parametrize("n_max", [6000, 30000])
def test_pairing_orders_are_the_orders_with_a_pairing_split(n_max):
    orders = _pairing_orders(n_max)
    assert all(a > b for a, b in zip(orders, orders[1:]))
    assert set(orders) == pairing_orders_by_gcds(n_max)


def test_run_search_dispatches_exactly_the_pairing_orders(monkeypatch):
    from spaceform import search

    seen, pairs_for_order = [], search._pairs_for_order
    monkeypatch.setattr(search, "_pairs_for_order", lambda N: seen.append(N) or pairs_for_order(N))
    certs = run_search(SearchConfig(n_max=3600))
    assert seen == _pairing_orders(3600) and len(seen) == 141
    assert [c.N for c in certs] == [1360, 2720, 3280, 3536]


@pytest.mark.parametrize("n_max, jobs, pool_sizes", [(200, 8, []), (500, 8, [4]), (500, 2, [2]), (500, 1, [])])
def test_run_search_pool_is_no_larger_than_its_orders(monkeypatch, n_max, jobs, pool_sizes):
    # _pairing_orders(200) is empty and _pairing_orders(500) holds 4 orders;
    # a pool of one or none runs serially.  The fake pool starts no process.
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes, initializer=None, initargs=()):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=None):
            return list(map(fn, iterable))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    assert run_search(SearchConfig(n_max=n_max, jobs=jobs)) == []
    assert sizes == pool_sizes


def test_pairs_for_order_walks_every_multi_member_bucket(monkeypatch):
    # On a seeded sample of orders up to 30000, the search builds exactly the
    # multi-member buckets of the full walk.
    from spaceform import search

    walked = []
    monkeypatch.setattr(search, "_bucket_members", lambda *bucket: walked.append(bucket) or [])
    monkeypatch.setattr(search, "_certify_bucket", lambda reps, N: [])
    orders = random.Random(2027).sample(range(2, 30001), 3000)
    multi = [bucket for N in orders for bucket, size in _audible_buckets(N) if size > 1]
    for N in orders:
        search._pairs_for_order(N)
    assert len(multi) > 100 and walked == multi


def test_prebucket_pipeline_matches_naive_all_pairs():
    # Full-strength comparison of all 13 canonical groups of order 1360 on
    # one shared point list must find exactly the {2, 42} pair.
    N = 1360
    groups = enumerate_canonical(N)
    spectra = {g: Spectrum.of(SumRep.rho11(g)) for g in groups}
    db = max(s.degree_bound for s in spectra.values())
    p = choose_prime(N)
    root = root_of_unity(p, N)
    points = select_points(p, N, 2 * db + 1)
    vals = {g: evaluate_f_values(spectra[g].classes, N, p, root, points) for g in groups}
    naive_pairs = {
        frozenset({(a.m, a.n, a.r), (b.m, b.n, b.r)})
        for i, a in enumerate(groups) for b in groups[i + 1:]
        if vals[a] == vals[b]
    }
    assert naive_pairs == {frozenset({(85, 16, 2), (85, 16, 42)})}
    certs = _pairs_for_order(N)
    assert {(c.N, c.m, c.n, c.d, c.r1, c.r2) for c in certs} == {(1360, 85, 16, 8, 2, 42)}


def _multi_member_groups(N):
    """The groups of order N that share their audible invariants with another."""
    buckets = {}
    for g in torsion_scan_canonical(N):
        buckets.setdefault(audible_invariants(g), []).append(g)
    return [g for members in buckets.values() if len(members) > 1 for g in members]


def test_pairs_for_order_evaluates_each_class_multiset_once(monkeypatch):
    from spaceform import search, spectra

    screened, evaluated, point_counts = [], [], []

    def count_screens(rep, p, root, z):
        screened.append(rep.group)
        return _screen_value(rep, p, root, z)

    def count_evaluations(classes, N, p, root, points):
        evaluated.append(classes)
        return evaluate_f_values(classes, N, p, root, points)

    def count_points(p, L, count):
        point_counts.append(count)
        return select_points(p, L, count)

    monkeypatch.setattr(search, "_screen_value", count_screens)
    monkeypatch.setattr(search, "evaluate_f_values", count_evaluations)
    monkeypatch.setattr(spectra, "select_points", count_points)
    multi = _multi_member_groups(1360)
    certs = search._pairs_for_order(1360)
    assert [(c.r1, c.r2) for c in certs] == [(2, 42)]
    # One screen per member of a multi-member bucket.
    assert len(screened) == len(multi) and set(screened) == set(multi)
    # 2 and 42 share one class multiset: one full evaluation serves the pair.
    assert evaluated == [Spectrum.of(SumRep.rho11(validate_type1(85, 16, 2))).classes]
    assert evaluated == [Spectrum.of(SumRep.rho11(validate_type1(85, 16, 42))).classes]
    assert len([count for count in point_counts if count > 16]) == 1
    # No screen collision at 520: no full-length point list is built.
    screened.clear()
    evaluated.clear()
    point_counts.clear()
    assert search._pairs_for_order(520) == []
    assert point_counts and all(count <= 16 for count in point_counts)
    assert screened and evaluated == []


def test_pairs_for_order_builds_spectra_only_for_screen_colliders(monkeypatch):
    # Only groups that share a screen value get determinant classes: at 1360
    # the pair, at 520 no group, although both orders hold multi-member buckets.
    from spaceform import spectra

    built = []

    def count_det_classes(rep):
        built.append(rep.group)
        return det_classes(rep)

    monkeypatch.setattr(spectra, "det_classes", count_det_classes)
    assert len(_multi_member_groups(1360)) > 2 and _multi_member_groups(520)
    assert [(c.r1, c.r2) for c in _pairs_for_order(1360)] == [(2, 42)]
    assert sorted((g.m, g.n, g.r) for g in built) == [(85, 16, 2), (85, 16, 42)]
    built.clear()
    assert _pairs_for_order(520) == []
    assert built == []


def test_pairs_for_order_builds_only_multi_member_buckets(monkeypatch):
    # The search walks the audible buckets itself: it neither enumerates
    # every group nor tests canonicity, and builds only groups that can pair.
    from spaceform import groups, search

    def refuse(*args):
        raise AssertionError("the search enumerated or canonicalised every group")

    built = []
    init = groups.TypeIParams.__init__

    def count_builds(self, *args):
        init(self, *args)
        built.append(self)

    multi = set(_multi_member_groups(1360))
    monkeypatch.setattr(search, "enumerate_canonical", refuse)
    monkeypatch.setattr(groups, "is_canonical", refuse)
    monkeypatch.setattr(groups.TypeIParams, "__init__", count_builds)
    assert [(c.r1, c.r2) for c in _pairs_for_order(1360)] == [(2, 42)]
    assert set(built) == multi and len(multi) < len(torsion_scan_canonical(1360))


def test_pairs_for_order_survives_screen_collisions(monkeypatch):
    # A screen on which every group collides sends each distinct class tuple
    # to one full evaluation; the full values still keep every
    # non-isospectral group apart.
    from spaceform import search

    full = []

    def count_evaluations(classes, N, p, root, points):
        full.append(classes)
        return evaluate_f_values(classes, N, p, root, points)

    monkeypatch.setattr(search, "_screen_value", lambda rep, p, root, z: 0)
    monkeypatch.setattr(search, "evaluate_f_values", count_evaluations)
    distinct = {Spectrum.of(SumRep.rho11(g)).classes for g in _multi_member_groups(1360)}
    assert len(distinct) > 2
    assert [(c.r1, c.r2) for c in search._pairs_for_order(1360)] == [(2, 42)]
    assert len(full) == len(set(full)) and set(full) == distinct


def test_screen_prime_never_reaches_a_result(monkeypatch):
    # The screen only picks the groups that get a Spectrum.  Screened at its
    # own prime q, at the certificate grid's prime above 10^18, or at the next
    # prime = 1 (mod N) past q, every order gives the same certificate bytes
    # from the same Spectrum.of calls.
    from spaceform import search

    def next_prime_grid(N):
        return _evaluation_grid(N, 1, next_prime_in_progression(N, _screen_grid(N)[0]))

    built = []
    of = Spectrum.of.__func__
    monkeypatch.setattr(Spectrum, "of", classmethod(lambda cls, rep: built.append(rep.group) or of(cls, rep)))
    orders = sorted({N for N, *_ in TABLE1_ROWS if N <= 3600}) + random.Random(2029).sample(range(2, 6001), 200)
    outcomes = []
    for grid in (_screen_grid, lambda N: _evaluation_grid(N, 1), next_prime_grid):
        monkeypatch.setattr(search, "_screen_grid", grid)
        built.clear()
        certs = [c.canonical_bytes() for N in orders for c in search._pairs_for_order(N)]
        outcomes.append((certs, list(built)))
    assert len(outcomes[0][0]) == 4 and outcomes[0][1]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_out_of_range_parameters_raise_spaceform_error():
    assert issubclass(ParameterOutOfRange, SpaceformError) and issubclass(ParameterOutOfRange, ValueError)
    for call in (lambda: validate_type1(0, 4, 1), lambda: validate_type1(5, 0, 1),
                 lambda: SearchConfig(n_max=0)):
        with pytest.raises(ParameterOutOfRange):
            call()


def test_run_search_below_smallest_pair():
    assert run_search(SearchConfig(n_max=1000)) == []


def test_run_search_1360(tmp_path):
    out = tmp_path / "run"
    certs = run_search(SearchConfig(n_max=1360, output_path=str(out)))
    assert len(certs) == 1
    c = certs[0]
    assert (c.N, c.m, c.n, c.d, c.r1, c.r2) == (1360, 85, 16, 8, 2, 42)
    assert c.almost_conjugacy and c.theorem42_applicable
    csv_text = (out / "pairs.csv").read_text()
    assert csv_text.splitlines()[0] == "N,m,n,d,r1,r2,theorem42"
    assert csv_text.splitlines()[1] == "1360,85,16,8,2,42,true"
    cert_file = out / "pair_N1360_m85_n16_d8_r2-42.json"
    assert json.loads(cert_file.read_text())["almost_conjugacy"] is True


def test_run_search_parallel_matches_serial(tmp_path):
    serial = run_search(SearchConfig(n_max=1400))
    parallel = run_search(SearchConfig(n_max=1400, jobs=2))
    assert [c.to_dict() for c in serial] == [c.to_dict() for c in parallel]


def test_run_search_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_search(SearchConfig(n_max=1360, output_path=str(out1)))
    run_search(SearchConfig(n_max=1360, output_path=str(out2)))
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))


def test_interrupted_write_leaves_whole_certificates_and_no_table(tmp_path, monkeypatch):
    # Ctrl-C while the third of four certificates is renamed into place: the
    # first two are whole, the third's temporary file is gone, and pairs.csv,
    # written last, is not there to name certificates that are missing.
    certs = run_search(SearchConfig(n_max=3600))
    assert len(certs) == 4
    replace, calls = os.replace, []

    def interrupt_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return replace(*args)

    monkeypatch.setattr(os, "replace", interrupt_third)
    with pytest.raises(KeyboardInterrupt):
        write_results(str(tmp_path), certs)
    names = [f"pair_N{c.N}_m{c.m}_n{c.n}_d{c.d}_r{c.r1}-{c.r2}.json" for c in certs[:2]]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    for name, c in zip(names, certs):
        assert (tmp_path / name).read_bytes() == c.canonical_bytes()


def test_rerun_into_one_out_directory_keeps_only_its_certificates(tmp_path):
    # search --nmax 3600 and then --nmax 1360 into one directory: the second
    # run removes the three certificates that its pairs.csv does not name,
    # and no file that is not a certificate.
    out = str(tmp_path)
    (tmp_path / "notes.txt").write_text("kept")
    (tmp_path / "pair_N1_m1_n1_d1_r1-1.json.part").write_text("kept")
    assert len(run_search(SearchConfig(n_max=3600, output_path=out))) == 4
    [cert] = run_search(SearchConfig(n_max=1360, output_path=out))
    name = "pair_N1360_m85_n16_d8_r2-42.json"
    assert sorted(os.listdir(tmp_path)) == sorted([name, "pairs.csv", "notes.txt", "pair_N1_m1_n1_d1_r1-1.json.part"])
    assert (tmp_path / name).read_bytes() == cert.canonical_bytes()
    assert (tmp_path / "pairs.csv").read_text().splitlines()[1:] == ["1360,85,16,8,2,42,true"]


def test_certify_pair_search_consistency():
    # The search certifies from its bucket's F-values; direct certification
    # recomputes them.  Both give the same bytes for every Table-1 pair.
    certs = run_search(SearchConfig(n_max=3600))
    expected = {row for row in canonical_row_set(TABLE1_ROWS) if row[0] <= 3600}
    assert {(c.N, c.m, c.n, c.d, frozenset({c.r1, c.r2})) for c in certs} == expected
    for c in certs:
        direct = certify_pair(validate_type1(c.m, c.n, c.r1), validate_type1(c.m, c.n, c.r2))
        assert c.canonical_bytes() == direct.canonical_bytes()
    # Values on a longer point list than the pair's own, as a bucket-wide
    # degree bound gives, certify to the same bytes.
    s1, s2 = (Spectrum.of(SumRep.rho11(validate_type1(85, 16, r))) for r in (2, 42))
    grid = _evaluation_grid(1360, s1.point_count + 50)
    longer = _certify(s1, s2, grid, evaluate_f_values(s1.classes, 1360, *grid))
    assert len(grid[2]) > 2 * s1.degree_bound + 1
    assert longer.canonical_bytes() == certs[0].canonical_bytes()


def _certify_outcome(certify, g1, g2, rep_pairs=None):
    """The certificate bytes, or (check, detail) of the refutation."""
    try:
        return certify(g1, g2, rep_pairs).canonical_bytes()
    except CertificationFailed as exc:
        return (exc.check, exc.detail)


def test_certify_pair_evaluates_each_class_multiset_once(monkeypatch):
    # certify_pair screens at one point like the search: a pair sharing its
    # class multiset costs one full vector, a comparator none.
    from spaceform import search, spectra

    screens, lengths = [], []

    def count_screens(rep, p, root, z):
        screens.append(rep.group)
        return _screen_value(rep, p, root, z)

    def count_evaluations(classes, N, p, root, points):
        lengths.append(len(points))
        return evaluate_f_values(classes, N, p, root, points)

    monkeypatch.setattr(search, "_screen_value", count_screens)
    monkeypatch.setattr(search, "evaluate_f_values", count_evaluations)
    monkeypatch.setattr(spectra, "evaluate_f_values", count_evaluations)
    g2, g42 = validate_type1(85, 16, 2), validate_type1(85, 16, 42)
    assert Spectrum.of(SumRep.rho11(g2)).classes == Spectrum.of(SumRep.rho11(g42)).classes
    cert = certify_pair(g2, g42)
    assert (cert.r1, cert.r2) == (2, 42)
    assert len(screens) == 2 and len(lengths) == 1
    for m, n, r1, r2 in ((85, 16, 2, 9), (221, 16, 8, 25)):
        screens.clear()
        lengths.clear()
        outcome = _certify_outcome(certify_pair, validate_type1(m, n, r1), validate_type1(m, n, r2))
        assert outcome == ("fingerprint", "value vectors differ")
        assert len(screens) == 2 and lengths == []


def test_fingerprint_after_certify_pair_reuses_its_vector(monkeypatch):
    # The pair's vector, keyed by its class multiset, order, prime and point
    # count, serves the fingerprint of either member.
    from spaceform import search

    lengths = []

    def count_evaluations(classes, N, p, root, points):
        lengths.append(len(points))
        return evaluate_f_values(classes, N, p, root, points)

    monkeypatch.setattr(search, "evaluate_f_values", count_evaluations)
    monkeypatch.setattr(spectra, "evaluate_f_values", count_evaluations)
    g2, g42 = validate_type1(85, 16, 2), validate_type1(85, 16, 42)
    certify_pair(g2, g42)
    record = spectra.fingerprint(SumRep.rho11(g2))
    assert len(lengths) == 1
    spectra._full_vector.cache_clear()
    assert spectra.fingerprint(SumRep.rho11(g2)).canonical_bytes() == record.canonical_bytes()
    assert len(lengths) == 2


def test_certify_pair_matches_full_vector_rule(fpf_pool_2000, monkeypatch):
    from spaceform import search

    cases = [(validate_type1(m, n, r1), validate_type1(m, n, r2), None)
             for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 3600]
    rng = random.Random(71)
    units_m = [k for k in range(1, 85) if math.gcd(k, 85) == 1]
    units_n = [l for l in range(1, 16) if math.gcd(l, 16) == 1]
    summands = tuple((rng.choice(units_m), rng.choice(units_n)) for _ in range(2))
    cases.append((validate_type1(85, 16, 2), validate_type1(85, 16, 42), summands))
    comparators = [(validate_type1(m, n, r1), validate_type1(m, n, r2), None)
                   for m, n, r1, r2 in ((85, 16, 2, 9), (221, 16, 8, 25))]
    cases += comparators
    by_mnd = {}
    for g in fpf_pool_2000:
        by_mnd.setdefault((g.m, g.n, g.d), []).append(g)
    pool_pairs = [(a, b) for members in by_mnd.values()
                  for i, a in enumerate(members) for b in members[i + 1:] if not is_isomorphic(a, b)]
    cases += [(a, b, None) for a, b in rng.sample(pool_pairs, 30)]
    outcomes = [_certify_outcome(certify_pair, *case) for case in cases]
    assert outcomes == [_certify_outcome(full_vector_certify_pair, *case) for case in cases]
    assert sum(isinstance(o, bytes) for o in outcomes) >= 5

    # A screen on which every pair collides still refutes both comparators,
    # on their full vectors, and certifies the pair to the same bytes.
    full = []

    def count_evaluations(classes, N, p, root, points):
        full.append(classes)
        return evaluate_f_values(classes, N, p, root, points)

    monkeypatch.setattr(search, "_screen_value", lambda rep, p, root, z: 0)
    monkeypatch.setattr(search, "evaluate_f_values", count_evaluations)
    for case in comparators:
        full.clear()
        assert _certify_outcome(certify_pair, *case) == ("fingerprint", "value vectors differ")
        assert len(full) == 2  # the collision was forced: both full vectors
    assert _certify_outcome(certify_pair, *cases[0]) == outcomes[0]


def test_certify_pair_refutations():
    g2 = validate_type1(85, 16, 2)
    with pytest.raises(CertificationFailed) as exc:
        certify_pair(g2, validate_type1(85, 16, 32))
    assert exc.value.check == "non_isomorphism"
    with pytest.raises(CertificationFailed) as exc:
        certify_pair(g2, validate_type1(85, 16, 9))
    assert exc.value.check == "fingerprint"
    with pytest.raises(CertificationFailed) as exc:
        certify_pair(g2, validate_type1(85, 16, 84))
    assert exc.value.check == "parameters"
    # Same order 1360, but the natural bijection needs one (m, n).
    with pytest.raises(GroupMismatch, match=r"pair must share \(m, n\): \(85, 16\) vs \(1, 1360\)"):
        certify_pair(validate_type1(85, 16, 2), validate_type1(1, 1360, 0))


def _refuse(*args):
    raise AssertionError("walked a group past the evaluation limit")


def test_certify_pair_refuses_an_unwalkable_pair(monkeypatch):
    # Two non-isomorphic d = 4 groups of order 1.04 * 10^11: refused before
    # the screen builds its m-entry table of powers or walks an orbit.
    for name in ("_alpha", "_root_powers"):
        monkeypatch.setattr(spectra, name, _refuse)
    g1, g2 = (validate_type1(13000000117, 8, r) for r in (3569522325, 7430477774))
    with pytest.raises(SizeLimitExceeded, match=r"\|G\| = 13000000117 x 8 = 104000000936 group elements"):
        certify_pair(g1, g2)


def test_certify_pair_is_symmetric():
    g2, g42 = validate_type1(85, 16, 2), validate_type1(85, 16, 42)
    assert certify_pair(g42, g2).canonical_bytes() == certify_pair(g2, g42).canonical_bytes()


def test_certify_pair_refutes_failed_almost_conjugacy(monkeypatch):
    from spaceform import search

    monkeypatch.setattr(search, "almost_conjugate", lambda rep1, rep2: False)
    with pytest.raises(CertificationFailed) as exc:
        certify_pair(validate_type1(85, 16, 2), validate_type1(85, 16, 42))
    assert exc.value.check == "almost_conjugacy"


def test_certify_pair_refuses_groups_that_are_not_fixed_point_free():
    # Neither quotient is a space form, although both groups are Type I,
    # not isomorphic, and share their F-values.
    for m, n, r1, r2 in ((85, 8, 43, 83), (85, 16, 73, 82)):
        g1, g2 = validate_type1(m, n, r1), validate_type1(m, n, r2)
        assert not is_fixed_point_free(g1) and not is_isomorphic(g1, g2)
        with pytest.raises(NotFixedPointFree):
            certify_pair(g1, g2)


def test_pairs_for_order_refuses_an_over_budget_full_vector(monkeypatch):
    # Past the table (N = 99280) the first colliding bucket needs a full
    # vector of 842 classes x 26949 points, as does certify_pair on its
    # pair: refused before it is evaluated or any point past the screen's
    # one is chosen.
    def refuse(*args):
        raise AssertionError("evaluated past the budget")

    def count_points(p, L, count):
        counts.append(count)
        return select_points(p, L, count)
    monkeypatch.setattr(spectra, "_packed_dets", refuse)
    monkeypatch.setattr(spectra, "select_points", count_points)
    g1, g2 = validate_type1(6205, 16, 302), validate_type1(6205, 16, 387)
    for run in (lambda: _pairs_for_order(99280), lambda: certify_pair(g1, g2)):
        counts = []
        with pytest.raises(SizeLimitExceeded, match="842 determinant classes x 26949 points = .* F-value terms"):
            run()
        assert counts and all(count <= 1 for count in counts)


def test_certify_pair_refuses_empty_rep_pairs():
    g1, g2 = validate_type1(85, 16, 2), validate_type1(85, 16, 42)
    with pytest.raises(InvalidRepresentation):
        certify_pair(g1, g2, rep_pairs=())
    # None, not any falsy value, stands for rho_11
    assert certify_pair(g1, g2, rep_pairs=None) == certify_pair(g1, g2, rep_pairs=((1, 1),))


def test_certificate_roundtrip():
    # Pool workers hand certificates back pickled.
    cert = certify_pair(validate_type1(85, 16, 2), validate_type1(85, 16, 42))
    back = pickle.loads(pickle.dumps(cert))
    assert back == cert and back.canonical_bytes() == cert.canonical_bytes()
    assert cert.powers_of_r1 == tuple(pow(2, c, 85) for c in range(8))


def test_theorem42_witness_examples():
    # 2 * 42 = 84 = -1 mod 85
    assert theorem42_witness(85, 8, 2, 42) == (2, 42)
    # 8 * 138 = 1104 = 5*221 - 1 = -1 mod 221
    assert 8 * 138 % 221 == 220
    assert theorem42_witness(221, 8, 8, 138) is not None
    # 43 * 588 is not -1 mod 965, but some generator choice is
    assert 43 * 588 % 965 != 964
    w = theorem42_witness(965, 8, 43, 588)
    assert w is not None and w[0] * w[1] % 965 == 964
    assert theorem42_witness(85, 8, 2, 9) is None


def test_theorem42_witness_matches_generator_scan():
    # Every ordered pair of members, self-pairs included, of every (m, 2d)
    # bucket with lcm(orders) = d; buckets with some o_p = 2 have no partner.
    pairs = [(m, d, g1.r, g2.r) for m in range(3, 400, 2) for d in (2, 4, 8, 16, 32)
             for (_, n, order, orders), _ in _buckets(m, 2 * d) if order == d
             for g1, g2 in product(_bucket_members(m, n, d, orders), repeat=2)]
    witnesses = [theorem42_witness(*pair) for pair in pairs]
    assert witnesses == [scan_theorem42_witness(*pair) for pair in pairs]
    assert (len(pairs), sum(w is not None for w in witnesses)) == (471, 104)
    assert theorem42_witness(1, 8, 0, 0) == scan_theorem42_witness(1, 8, 0, 0) == (0, 0)


def test_theorem42_not_applicable_unless_n_is_2d():
    g1, g2 = validate_type1(85, 32, 2), validate_type1(85, 32, 42)
    assert (g1.n, g1.d) == (32, 8)
    assert theorem42_applicable(g1, g2) == (False, None)


def test_construct_theorem42_pairs_smallest():
    certs = construct_theorem42_pairs(85)
    rows = [(c.N, c.m, c.n, c.d, frozenset({c.r1, c.r2})) for c in certs]
    assert (1360, 85, 16, 8, frozenset({2, 42})) in rows
    # m = 85 also carries the d = 16 pair of order 2720
    assert rows == [(1360, 85, 16, 8, frozenset({2, 42})),
                    (2720, 85, 32, 16, frozenset({3, 12}))]
    assert all(c.n == 2 * c.d and c.theorem42_applicable for c in certs)
    assert construct_theorem42_pairs(84) == []


def test_construct_theorem42_d4_never_pairs():
    assert construct_theorem42_pairs(200, d_values=(4,)) == []


def test_construct_matches_search_certificates():
    built = construct_theorem42_pairs(221)
    assert [c.N for c in built] == [1360, 2720, 3280, 3536, 7072]
    for c in built:
        searched = {(s.m, s.r1, s.r2): s for s in _pairs_for_order(c.N)}
        assert c.canonical_bytes() == searched[c.m, c.r1, c.r2].canonical_bytes()


def test_construct_to_m221_matches_table_rows():
    rows = {(c.N, c.m, c.n, c.d, frozenset({c.r1, c.r2}))
            for c in construct_theorem42_pairs(221)}
    import table1
    expected = {row for row in table1.canonical_row_set(table1.TABLE1_ROWS)
                if row[1] <= 221}
    assert rows == expected


@pytest.mark.parametrize("m_max, d_values", [(221, None), (2000, (4,)), (2000, (2,))])
def test_construct_matches_torsion_oracle(m_max, d_values):
    built = construct_theorem42_pairs(m_max, d_values)
    expected = torsion_construct_theorem42_pairs(m_max, d_values)
    assert [c.canonical_bytes() for c in built] == [c.canonical_bytes() for c in expected]


def test_construct_refuses_d_not_a_power_of_two(monkeypatch):
    # With n = 2d these groups are not fixed point free: refused before any work.
    from spaceform import search

    def build(*args):
        raise AssertionError("construct built a group before checking d_values")
    monkeypatch.setattr(search, "validate_type1", build)
    for m_max, d_values in [(35, (12,)), (91, (6,)), (91, (8, 0)), (91, (-4,))]:
        with pytest.raises(ParameterOutOfRange):
            construct_theorem42_pairs(m_max, d_values)
    monkeypatch.undo()
    for d in (1, 2, 4):
        assert construct_theorem42_pairs(91, (d,)) == []


def test_crosscheck_table():
    assert crosscheck_table([]) == {"rows": [], "all_applicable": True}
    certs = run_search(SearchConfig(n_max=1360))
    report = crosscheck_table(certs)
    assert report["all_applicable"]
    assert report["rows"][0]["n_equals_2d"] and report["rows"][0]["witness"] == [2, 42]


def test_negative_d2_small():
    assert negative_d2_check(0)
    assert negative_d2_check(2000)


def test_negative_d2_check_refutes_from_the_torsion_scan_alone(monkeypatch):
    # A second valid d = 2 residue for m = 15 (2: r != 1, gcd(r - 1, 15) = 1)
    # refutes the check at once, with no search of any order.
    from spaceform import search

    def torsion(m, n):
        return sorted({*torsion_elements(m, n), 2}) if m == 15 else torsion_elements(m, n)

    def refuse(N):
        raise AssertionError(f"searched order {N}")
    monkeypatch.setattr(search, "torsion_elements", torsion)
    monkeypatch.setattr(search, "_pairs_for_order", refuse)
    assert negative_d2_check(59)
    assert not negative_d2_check(60)


def test_d2_canonical_unique_per_mn():
    # scan: valid order-2 parameters force r = m - 1
    for N in range(4, 400):
        seen = {}
        for g in enumerate_canonical(N):
            if g.d == 2:
                seen.setdefault((g.m, g.n), []).append(g.r)
        for (m, n), rs in seen.items():
            assert rs == [m - 1]
