import math
import random

import pytest

from spaceform.errors import (
    BadPrime,
    DegreeMismatch,
    GroupMismatch,
    InvalidRepresentation,
    ParameterOutOfRange,
    SingularPoint,
    SizeLimitExceeded,
)
from spaceform import spectra
from spaceform.groups import element_order, inverse, is_fixed_point_free, validate_type1
from spaceform.numtheory import is_prime, prime_factors
from spaceform.spectra import (
    RepParams,
    Spectrum,
    SumRep,
    _alpha,
    _molien_from_classes,
    _screen_grid,
    _screen_value,
    almost_conjugate,
    char_poly_exponents,
    choose_prime,
    det_classes,
    evaluate_f_values,
    fingerprint,
    isometric_irreducible,
    molien_coefficients,
    reps_equivalent,
    root_of_unity,
    select_points,
    shared_fingerprints,
    sum_rep_det_factors,
)

from oracles import (
    alpha_by_definition,
    char_poly_matrix_oracle,
    contains_zero,
    element_exponents,
    element_factors,
    element_walk_almost_conjugate,
    element_walk_det_classes,
    is_conjugation_closed,
    poly_from_exponents,
    reference_f_values,
    pow_select_points,
    reference_molien_from_classes,
    rescaled,
)
from table1 import TABLE1_ROWS

G85 = validate_type1(85, 16, 2)
G85B = validate_type1(85, 16, 42)
G54 = validate_type1(5, 4, 4)
RHO = RepParams(G85, 1, 1)


def _random_sum_reps(rng, groups, count):
    """Three-summand sums with seeded (k, l) over a seeded sample of groups."""
    reps = []
    for g in rng.sample(groups, count):
        ks = [k for k in range(1, g.m + 1) if math.gcd(k, g.m) == 1]
        ls = [l for l in range(1, g.n + 1) if math.gcd(l, g.n) == 1]
        reps.append(SumRep.from_pairs(g, [(rng.choice(ks), rng.choice(ls)) for _ in range(3)]))
    return reps


def test_rep_validation():
    with pytest.raises(InvalidRepresentation):
        RepParams(G85, 5, 1)
    with pytest.raises(InvalidRepresentation):
        RepParams(G85, 1, 2)
    assert RepParams(G85, 86, 17).k == 1  # normalized mod m, n
    assert RHO.degree == 16


# --- eigenvalue exponents ----------------------------------------------

def test_identity_exponents():
    e = char_poly_exponents(RHO, G85.identity())
    assert e.exponents == (0,) * 16
    assert e.modulus == 1360


def test_gen_a_exponents():
    e = char_poly_exponents(RHO, G85.gen_a())
    expect = sorted([16 * pow(2, j, 85) % 1360 for j in range(8)]
                    + [-16 * pow(2, j, 85) % 1360 for j in range(8)])
    assert list(e.exponents) == expect  # rotation blocks R(2^j/85)


def test_gen_b_exponents():
    e = char_poly_exponents(RHO, G85.gen_b())
    # only 16th-root structure: odd multiples of 1360/16, each twice
    assert sorted(set(e.exponents)) == [85 * k for k in range(1, 16, 2)]
    assert all(e.exponents.count(t) == 2 for t in set(e.exponents))


def test_small_group_exponents_by_hand():
    # pi(B) = [[0,1],[-1,0]] has eigenvalues +-i; A has zeta_5^{+-1}; etc.
    rho = RepParams(G54, 1, 1)
    assert char_poly_exponents(rho, G54.gen_b()).exponents == (5, 5, 15, 15)
    assert char_poly_exponents(rho, G54.gen_a()).exponents == (4, 4, 16, 16)
    assert char_poly_exponents(rho, G54.element(2, 2)).exponents == (2, 2, 18, 18)


def test_conjugation_closure(fpf_pool_2000):
    rng = random.Random(41)
    for g in rng.sample(fpf_pool_2000, 60):
        rho = SumRep.rho11(g).summands[0]
        for _ in range(5):
            x = g.element(rng.randrange(g.m), rng.randrange(g.n))
            assert is_conjugation_closed(char_poly_exponents(rho, x))


def test_free_action_smallest_pair_group():
    rho = RepParams(G85, 1, 1)
    for x in G85.elements():
        zero = contains_zero(char_poly_exponents(rho, x))
        assert zero == x.is_identity


def test_free_action_exhaustive(fpf_pool_2000):
    # no non-identity element of any fixed-point-free group with mn <= 2000
    # has eigenvalue 1: a zero exponent appears iff some factor has M = 0
    for g in fpf_pool_2000:
        rho = SumRep.rho11(g)
        for a in range(g.m):
            for b in range(g.n):
                has_one = any(M == 0 for _, M in sum_rep_det_factors(rho, g.element(a, b)))
                assert has_one == (a == 0 and b == 0)


def test_fixed_point_freeness_matches_spectral_freeness(valid_pool_2000):
    # Burnside's divisibility criterion agrees with "no eigenvalue 1 away
    # from the identity" for rho_{1,1}, for fpf and non-fpf groups alike.
    rng = random.Random(43)
    pool = [g for g in valid_pool_2000 if not g.is_cyclic]
    for g in rng.sample(pool, 80):
        rho = RepParams(g, 1, 1)
        free = all(not contains_zero(char_poly_exponents(rho, x))
                   for x in g.elements() if not x.is_identity)
        assert free == is_fixed_point_free(g)


def test_rescale():
    e = char_poly_exponents(RepParams(G54, 1, 1), G54.gen_b())
    r = rescaled(e, 40)
    assert r.exponents == (10, 10, 30, 30)
    with pytest.raises(ValueError):
        rescaled(e, 30)


# --- matrix oracle ------------------------------------------------------

def test_matrix_oracle_identity():
    p = choose_prime(1360)
    got = char_poly_matrix_oracle(RHO, G85.identity(), p)
    # (z - 1)^16
    expect = tuple(math.comb(16, i) * (-1) ** (16 - i) % p for i in range(17))
    assert got == expect


def test_matrix_oracle_agrees_on_sample(valid_pool_2000):
    rng = random.Random(47)
    pool = [g for g in valid_pool_2000 if g.d <= 12]
    for _ in range(40):
        g = rng.choice(pool)
        ks = [k for k in range(1, g.m + 1) if math.gcd(k, g.m) == 1] or [0]
        ls = [l for l in range(1, g.n + 1) if math.gcd(l, g.n) == 1] or [0]
        rho = RepParams(g, rng.choice(ks), rng.choice(ls))
        x = g.element(rng.randrange(g.m), rng.randrange(g.n))
        p = choose_prime(g.m * g.n)
        exps = char_poly_exponents(rho, x)
        assert char_poly_matrix_oracle(rho, x, p) == poly_from_exponents(exps, p)


def test_matrix_oracle_gen_b_16th_root_structure():
    # char poly of rho_{1,1}(B) is (z^8 + 1)^2 = z^16 + 2 z^8 + 1
    p = choose_prime(1360)
    got = char_poly_matrix_oracle(RHO, G85.gen_b(), p)
    expect = [0] * 17
    expect[0], expect[8], expect[16] = 1, 2, 1
    assert got == tuple(expect)


def test_matrix_oracle_bad_prime():
    with pytest.raises(BadPrime):
        char_poly_matrix_oracle(RHO, G85.gen_a(), 10**18 + 9)


# --- representation equivalence ----------------------------------------

def test_reps_equivalent_examples():
    r11 = RepParams(G85, 1, 1)
    assert reps_equivalent(r11, r11)
    assert reps_equivalent(r11, RepParams(G85, -1, -1))
    assert reps_equivalent(r11, RepParams(G85, 2, 1))  # eps=1, c=1, n/d = 2
    assert not reps_equivalent(r11, RepParams(G85, 3, 1))  # 3 not in +-<2>
    with pytest.raises(GroupMismatch):
        reps_equivalent(r11, RepParams(G85B, 1, 1))


def test_reps_equivalent_is_equivalence_relation():
    rng = random.Random(53)
    g = validate_type1(85, 16, 2)
    ks = [k for k in range(1, 85) if math.gcd(k, 85) == 1]
    ls = [l for l in range(1, 16, 2)]
    reps = [RepParams(g, rng.choice(ks), rng.choice(ls)) for _ in range(12)]
    for a in reps:
        assert reps_equivalent(a, a)
    for a in reps:
        for b in reps:
            assert reps_equivalent(a, b) == reps_equivalent(b, a)
    for a, b, c in zip(reps, reps[1:], reps[2:]):
        if reps_equivalent(a, b) and reps_equivalent(b, c):
            assert reps_equivalent(a, c)


def test_isometric_irreducible():
    r11 = RepParams(G85, 1, 1)
    assert isometric_irreducible(r11, r11)
    # rho_{k,l} is isometric to rho_{1, l k*}: take s = k^{-1}
    k = 7
    kinv = pow(k, -1, 85)
    assert isometric_irreducible(RepParams(G85, k, 3), RepParams(G85, 1, 3))
    assert kinv * k % 85 == 1
    # n/d = 2 makes all rho_{1,l} isometric
    assert isometric_irreducible(r11, RepParams(G85, 1, 3))


def test_isometric_irreducible_symmetric():
    rng = random.Random(61)
    g = G54
    ks = [k for k in range(1, g.m) if math.gcd(k, g.m) == 1]
    ls = [l for l in range(1, g.n) if math.gcd(l, g.n) == 1]
    reps = [RepParams(g, rng.choice(ks), rng.choice(ls)) for _ in range(6)]
    for a in reps:
        for b in reps:
            assert isometric_irreducible(a, b) == isometric_irreducible(b, a)


# --- almost conjugacy ---------------------------------------------------

def _natural(g2):
    """A_1^a B_1^b -> A_2^a B_2^b."""
    return lambda x: g2.element(x.a, x.b)


def test_almost_conjugate_reflexive():
    sr = SumRep.rho11(G54)
    assert almost_conjugate(sr, sr)
    assert element_walk_almost_conjugate(sr, sr, lambda x: x)


def test_almost_conjugate_table_pair():
    assert almost_conjugate(SumRep.rho11(G85), SumRep.rho11(G85B))


def test_almost_conjugate_fails_for_lens_comparator():
    # Same order and degree as rho_11 of G85, but (1, 1360) is not (85, 16):
    # almost_conjugate refuses the pair; under an explicit element table the
    # eigenvalues differ.
    lens = validate_type1(1, 1360, 0)
    sum8 = SumRep.from_pairs(lens, [(1, 1)] * 8)
    with pytest.raises(GroupMismatch, match=r"natural bijection needs equal \(m, n\)"):
        almost_conjugate(SumRep.rho11(G85), sum8)
    table = dict(zip(G85.elements(), lens.elements()))
    assert not element_walk_almost_conjugate(SumRep.rho11(G85), sum8, table.__getitem__)


def test_almost_conjugate_degree_mismatch():
    lens = validate_type1(1, 1360, 0)
    with pytest.raises(DegreeMismatch):
        almost_conjugate(SumRep.rho11(G85), SumRep.from_pairs(lens, [(1, 1)] * 7))
    # The order is checked before the degree, which differs here too.
    with pytest.raises(GroupMismatch, match=r"\|G1\| = 1360 != \|G2\| = 20"):
        almost_conjugate(SumRep.rho11(G85), SumRep.rho11(G54))


def test_almost_conjugate_general_sums_for_theorem_pair():
    pairs = [(1, 1), (2, 3), (4, 5)]
    sr1 = SumRep.from_pairs(G85, pairs)
    sr2 = SumRep.from_pairs(G85B, pairs)
    assert almost_conjugate(sr1, sr2)
    assert element_walk_almost_conjugate(sr1, sr2, _natural(G85B))


def test_almost_conjugate_orbit_walk_matches_element_walk():
    # almost_conjugate walks one a per joint (a*alpha1(b), a*alpha2(b))
    # orbit; the oracle walks every element.  Both agree on the Table-1
    # pairs up to 3600 and on same-(m, n, d) non-isospectral groups.  The
    # groups (35, 12, 3) and (35, 12, 2), not fixed point free, pin the joint
    # period: at b = 3 and 9 alpha(b) = 0 for r = 3 and gcd(alpha(b), 35) = 5
    # for r = 2, so r = 3's period alone walks only a = 0, where they agree.
    # The walk visits the rows b <= n/2 only: (91, 6, 3) and (91, 6, 30)
    # differ only on the self-inverse row b = n/2 = 3, (65, 4, 8) and
    # (65, 4, 18) only on the row b = 0.
    cases = [(validate_type1(m, n, r1), validate_type1(m, n, r2), True)
             for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 3600]
    cases += [(G85, validate_type1(85, 16, 9), False), (G85B, validate_type1(85, 16, 9), False),
              (validate_type1(221, 16, 8), validate_type1(221, 16, 25), False),
              (validate_type1(35, 12, 3), validate_type1(35, 12, 2), False),
              (validate_type1(35, 12, 2), validate_type1(35, 12, 3), False),
              (validate_type1(91, 6, 3), validate_type1(91, 6, 30), False),
              (validate_type1(65, 4, 8), validate_type1(65, 4, 18), False)]
    for g1, g2, expected in cases:
        rep1, rep2 = SumRep.rho11(g1), SumRep.rho11(g2)
        assert almost_conjugate(rep1, rep2) is expected
        assert element_walk_almost_conjugate(rep1, rep2, _natural(g2)) is expected
    # Only a self-inverse row may walk u and -u as one entry.  r = 16 and 9
    # are (2, 3) and (2, 9) in Z_7 x Z_13: <r1> != <r2>, both inside
    # E = <2> x <3>, which does not hold -1.  Under rho_{k,1} summed over
    # k in <(2, 1)> = {1, 79, 53}, the k*<r_i> cover E once for both groups,
    # so the sums are almost conjugate.  In the row b = 3, u = 10 has the orbit
    # {10, 69, 12} under 16 and {10, 90, 82} under 9, whose negatives hold 1:
    # such a walk would compare 10*E with -10*E there.
    pairs = [(1, 1), (79, 1), (53, 1)]
    rep1, rep2 = (SumRep.from_pairs(validate_type1(91, 9, r), pairs) for r in (16, 9))
    assert almost_conjugate(rep1, rep2) is element_walk_almost_conjugate(rep1, rep2, _natural(rep2.group)) is True


def test_almost_conjugate_across_d_compares_eigenvalues(valid_pool_2000):
    # Two copies of rho_11 over a d = 2 group against rho_11 over a d = 4
    # group with the same (m, n): on some elements the factor lists differ
    # (cycle lengths 2 against 4) while the eigenvalues agree.  Elsewhere the
    # eigenvalues differ: almost_conjugate returns False for any two d before
    # it walks (A B^b has different orders at b = min(d1, d2)), and the
    # element walk, which compares eigenvalues, agrees.
    for m, n, r1, r2, agreeing in ((5, 8, 4, 2, 22), (13, 8, 12, 5, 54)):
        g1, g2 = validate_type1(m, n, r1), validate_type1(m, n, r2)
        assert (g1.d, g2.d) == (2, 4)
        rep1, rep2 = SumRep.from_pairs(g1, [(1, 1)] * 2), SumRep.rho11(g2)
        nat = _natural(g2)
        assert agreeing == sum(sum_rep_det_factors(rep1, x) != sum_rep_det_factors(rep2, nat(x))
                               and element_exponents(rep1, x) == element_exponents(rep2, nat(x))
                               for x in g1.elements())
        assert almost_conjugate(rep1, rep2) is element_walk_almost_conjugate(rep1, rep2, nat) is False
    # Every same-(m, n) pair with d1 < d2 and m*n <= 400: lcm/d1 copies of
    # rho_11 against lcm/d2 copies (d2/d1 against one when d1 | d2).
    by_split = {}
    for g in valid_pool_2000:
        if g.order <= 400:
            by_split.setdefault((g.m, g.n), []).append(g)
    pairs = [(g1, g2) for groups in by_split.values() for g1 in groups for g2 in groups if g1.d < g2.d]
    assert len(pairs) == 706
    for g1, g2 in pairs:
        lcm = math.lcm(g1.d, g2.d)
        rep1 = SumRep.from_pairs(g1, [(1, 1)] * (lcm // g1.d))
        rep2 = SumRep.from_pairs(g2, [(1, 1)] * (lcm // g2.d))
        assert almost_conjugate(rep1, rep2) is element_walk_almost_conjugate(rep1, rep2, _natural(g2)) is False


def test_element_order_follows_alpha(valid_pool_2000):
    # ord(A B^b) = n/gcd(n, b) * m/gcd(alpha(b), m): the lemma behind
    # almost_conjugate's answer for different d.  Cyclic groups (m = 1,
    # alpha = 0) are left out: there the formula is element_order's own.
    for g in valid_pool_2000:
        if g.m > 1:
            for b in range(g.n):
                expected = g.n // math.gcd(g.n, b) * (g.m // math.gcd(alpha_by_definition(g, b), g.m))
                assert element_order(g.element(1, b)) == expected, (g, b)


def test_inverse_rows_share_their_classes(valid_pool_2000):
    # The lemma behind the orbit walk's rows b <= n/2, from element factors
    # computed without spectra: g and g^-1 have the same factors; rows b
    # and n - b have the same e, the same h = gcd(alpha(b), m) and the same
    # multiset of factor lists; in a self-inverse row (2b = 0 mod n) the
    # elements of u = a*alpha(b) and -u have the same factors.
    rng = random.Random(89)
    pool = [g for g in valid_pool_2000 if g.m * g.n <= 600]
    reps = [SumRep.rho11(g) for g in pool] + _random_sum_reps(rng, pool, 40)
    for rep in reps:
        g = rep.group
        m, n = g.m, g.n
        rows = [[element_factors(rep, a, b) for a in range(m)] for b in range(n)]
        for b in range(n):
            assert all(rows[b][a] == rows[x.b][x.a] for a in range(m) for x in [inverse(g.element(a, b))]), (rep, b)
            assert math.gcd(b, g.d) == math.gcd(n - b, g.d), (rep, b)
            assert math.gcd(alpha_by_definition(g, b), m) == math.gcd(alpha_by_definition(g, n - b), m), (rep, b)
            assert sorted(rows[b]) == sorted(rows[(n - b) % n]), (rep, b)
            if 2 * b % n == 0:
                assert all(rows[b][a] == rows[b][-a % m] for a in range(m)), (rep, b)


# --- fingerprints -------------------------------------------------------

def test_fingerprint_trivial_group():
    g = validate_type1(1, 1, 0)
    fp = fingerprint(SumRep.rho11(g))
    p = fp.p
    for z, v in zip(fp.points, fp.values):
        expect = (1 - z * z) * pow((1 - z) ** 2, p - 2, p) % p
        assert v == expect


def test_fingerprint_engine_round_sphere():
    # one identity class with q+1 zero exponents: F = (1-z^2)/(1-z)^(q+1)
    for q in (2, 3):
        classes = (((1, 0),) * (q + 1), 1),
        p = choose_prime(4)
        root = root_of_unity(p, 4)
        points = select_points(p, 4, 12)
        vals = evaluate_f_values(classes, 1, p, root, points)
        for z, v in zip(points, vals):
            assert v == (1 - z * z) * pow((1 - z) ** (q + 1), p - 2, p) % p


def test_fingerprint_pair_agrees_everywhere():
    fp1, fp2 = shared_fingerprints([SumRep.rho11(G85), SumRep.rho11(G85B)])
    assert fp1.points == fp2.points and fp1.p == fp2.p and fp1.root == fp2.root
    assert fp1.values == fp2.values
    assert len(fp1.points) == 2 * fp1.degree_bound + 1
    assert fp1.evidence_dict() == fp2.evidence_dict()


def test_fingerprint_comparator_differs():
    g9 = validate_type1(85, 16, 9)
    fp1, fp9 = shared_fingerprints([SumRep.rho11(G85), SumRep.rho11(g9)])
    assert fp1.values != fp9.values


def test_fingerprint_determinism():
    a = fingerprint(SumRep.rho11(G54))
    b = fingerprint(SumRep.rho11(G54))
    assert a == b and a.canonical_bytes() == b.canonical_bytes()


def test_fingerprint_root_choice_does_not_change_values():
    # Galois invariance: the group sum is a rational number, so any primitive
    # root embedding gives the same field values.
    sr = SumRep.rho11(G54)
    classes = det_classes(sr)
    p = choose_prime(20)
    root = root_of_unity(p, 20)
    alt = pow(root, 3, p)  # gcd(3, 20) = 1
    points = select_points(p, 20, 30)
    assert evaluate_f_values(classes, 20, p, root, points) == \
        evaluate_f_values(classes, 20, p, alt, points)


def _one_class_per_block(monkeypatch):
    # One class per block: a block's nodes are D + 1, so D + 2 points are a grid.
    monkeypatch.setattr(spectra, "_block_count", lambda k: k)


def test_evaluation_order_invariance(monkeypatch):
    # The full point_count grid under the default block rule, then D + 2 and
    # 10 points with one class per block.
    classes = det_classes(SumRep.rho11(G54))
    p = choose_prime(20)
    root = root_of_unity(p, 20)
    for count, rule in ((61, spectra._block_count), (6, lambda k: k), (10, lambda k: k)):
        monkeypatch.setattr(spectra, "_block_count", rule)
        points = select_points(p, 20, count)
        assert evaluate_f_values(classes, 20, p, root, points) == \
            evaluate_f_values(classes[::-1], 20, p, root, points)


def _assert_matches_reference(rep, counts, shifts=(0,)):
    # The evaluator against the reference evaluator, in both class orders, on
    # select_points grids of the given point counts, each also shifted by the
    # given multiples of p.  Callers take one class per block.
    classes = det_classes(rep)
    L = rep.group.order
    p = choose_prime(L)
    root = root_of_unity(p, L)
    for count in counts:
        for shift in shifts:
            points = tuple(z + shift * p for z in select_points(p, L, count))
            expected = reference_f_values(classes, L, p, root, points)
            assert evaluate_f_values(classes, L, p, root, points) == expected, (rep, count, shift)
            assert evaluate_f_values(classes[::-1], L, p, root, points) == expected, (rep, count, shift)


def test_f_values_match_reference_on_pool(fpf_pool_2000, monkeypatch):
    # The shortest grid: D + 2 points.
    _one_class_per_block(monkeypatch)
    rng = random.Random(73)
    reps = [SumRep.rho11(g) for g in rng.sample(fpf_pool_2000, 60)]
    reps += _random_sum_reps(rng, fpf_pool_2000, 40)
    for rep in reps:
        _assert_matches_reference(rep, (rep.degree + 2,))


def test_f_values_match_reference_on_table1(monkeypatch):
    # Every Table-1 group to 8000 on a few hundred points, a d = 16 group
    # among them.  Points at and above p: short grids shifted by p and 4p,
    # and a grid across p, whose nodes reach the packed pass unreduced.
    _one_class_per_block(monkeypatch)
    groups = {validate_type1(m, n, r) for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 8000 for r in (r1, r2)}
    assert any(g.d == 16 for g in groups)
    for g in groups:
        rep = SumRep.rho11(g)
        _assert_matches_reference(rep, (300,))
        _assert_matches_reference(rep, (rep.degree + 2,), (1, 4))
        classes = det_classes(rep)
        p = choose_prime(g.order)
        root = root_of_unity(p, g.order)
        across = tuple(z for z in range(p - 3, p + 2 * rep.degree) if pow(z, g.order, p) != 1)
        assert evaluate_f_values(classes, g.order, p, root, across) == \
            reference_f_values(classes, g.order, p, root, across), g


def test_f_values_match_reference_on_skipped_and_scattered_points(monkeypatch):
    # With L = 20 and p = 41 select_points skips the 20 squares mod 41, so the
    # forward-difference table steps over them.  A grid's points may also be
    # scattered over its range in any order, repeat, or be shifted by
    # multiples of p.  Two-summand sums reach D = 8 (order 20) and D = 32
    # (1360).
    _one_class_per_block(monkeypatch)
    p = 41
    root = root_of_unity(p, 20)
    grid = select_points(p, 20, 16)
    assert set(range(2, grid[-1])) - set(grid) and max(b - a for a, b in zip(grid, grid[1:])) <= 4
    scattered = tuple(random.Random(89).sample(grid, len(grid))) + grid[5:9] + grid[:2]
    for rep in (SumRep.rho11(G54), SumRep.from_pairs(G54, ((1, 1), (2, 3)))):
        classes = det_classes(rep)
        for points in (grid, grid[::-1], scattered, tuple(z + 3 * p for z in scattered)):
            assert evaluate_f_values(classes, 20, p, root, points) == \
                reference_f_values(classes, 20, p, root, points), (rep, points)
    rep = SumRep.from_pairs(G85, ((1, 1), (3, 5)))
    assert rep.degree == 32
    classes = det_classes(rep)
    p = choose_prime(1360)
    root = root_of_unity(p, 1360)
    grid = select_points(p, 1360, 40)
    for points in (grid, tuple(random.Random(97).sample(grid, len(grid))), tuple(z + p for z in grid)):
        assert evaluate_f_values(classes, 1360, p, root, points) == \
            reference_f_values(classes, 1360, p, root, points)


def _spy_blocks(monkeypatch):
    # Record the class count of every block that the shifted path evaluates.
    sizes = []
    packed_dets = spectra._packed_dets

    def spy(class_data, *args):
        sizes.append(len(class_data))
        return packed_dets(class_data, *args)

    monkeypatch.setattr(spectra, "_packed_dets", spy)
    return sizes


# The default block rule, one block, two blocks and one class per block.
BLOCK_RULES = (spectra._block_count, lambda k: 1, lambda k: 2, lambda k: k)


def test_shifted_f_values_match_reference_on_full_grids(fpf_pool_2000, monkeypatch):
    # Full point_count grids take the shifted path under every block rule:
    # seeded non-cyclic pool groups to order 600, two-summand sums (D = 32)
    # and the Table-1 groups to 3600, against the reference evaluator.
    rng = random.Random(83)
    reps = [SumRep.rho11(g) for g in rng.sample([g for g in fpf_pool_2000 if not g.is_cyclic and g.order <= 600], 8)]
    reps += [SumRep.from_pairs(G85, ((1, 1), (3, 5))), SumRep.from_pairs(G54, ((1, 1), (2, 3)))]
    reps += [SumRep.from_pairs(validate_type1(221, 16, 8), ((1, 1), (3, 3)))]
    reps += [SumRep.rho11(validate_type1(m, n, r))
             for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 3600 for r in (r1, r2)]
    assert sum(rep.degree == 32 for rep in reps) >= 2
    sizes = _spy_blocks(monkeypatch)
    for rep in reps:
        s = Spectrum.of(rep)
        L = rep.group.order
        p, root, points = spectra._evaluation_grid(L, s.point_count)
        expected = reference_f_values(s.classes, L, p, root, points)
        k = len(s.classes)
        for rule in BLOCK_RULES:
            monkeypatch.setattr(spectra, "_block_count", rule)
            sizes.clear()
            assert evaluate_f_values(s.classes, L, p, root, points) == expected, (rep, rule(k))
            assert len(sizes) == min(rule(k), k) and sum(sizes) == k, (rep, rule(k))


def test_largest_table1_vector_matches_reference():
    # N = 29648, the Table-1 spectrum with the most F-value terms: 306 classes
    # of degree 16 on its certificate grid of 9797 points, and the only
    # vector whose classes fall into 8 blocks.
    s = Spectrum.of(SumRep.rho11(validate_type1(1853, 16, 76)))
    assert (len(s.classes), s.point_count, spectra._block_count(len(s.classes))) == (306, 9797, 8)
    p, root, points = spectra._certificate_grid([s])
    assert evaluate_f_values(s.classes, 29648, p, root, points) == reference_f_values(s.classes, 29648, p, root, points)


def test_shifted_f_values_raise_only_at_requested_poles(monkeypatch):
    # L = 20 and p = 41: select_points skips the squares, so the nodes
    # lo..lo+n of a block hold skipped roots of unity, and some are poles.
    # A pole among the nodes alone raises nothing; a requested pole in the
    # shifted range raises SingularPoint.
    p = 41
    root = root_of_unity(p, 20)
    grid = select_points(p, 20, 20)
    assert grid[-1] - grid[0] < p - 1
    sizes = _spy_blocks(monkeypatch)
    rho, summed = SumRep.rho11(G54), SumRep.from_pairs(G54, ((1, 1), (2, 3)))
    for rep, rule in ((rho, BLOCK_RULES[2]), (rho, BLOCK_RULES[3]), (summed, BLOCK_RULES[3])):
        classes = det_classes(rep)
        poles = []
        for z in range(grid[0], grid[-1] + 1):
            try:
                reference_f_values(classes, 20, p, root, (z,))
            except SingularPoint:
                poles.append(z)
        monkeypatch.setattr(spectra, "_block_count", rule)
        sizes.clear()
        assert evaluate_f_values(classes, 20, p, root, grid) == reference_f_values(classes, 20, p, root, grid)
        last_node = grid[0] + max(sizes) * rep.degree
        assert any(z <= last_node for z in poles) and any(z > last_node for z in poles), (rep, poles)
        for z in poles:
            if z > last_node:
                with pytest.raises(SingularPoint, match=f"z = {z} "):
                    evaluate_f_values(classes, 20, p, root, grid + (z,))


def test_non_grid_points_are_refused_before_any_work(monkeypatch):
    # 20 classes of degree 16 in two blocks of 10: 161 nodes each, so a grid
    # needs 162 points.  Refused before any power of the root or determinant:
    # (2, 10**6), which spans far more than twice its length; a repeated
    # point, which spans fewer integers than its 40 points; the 161-point
    # grid; and no points.  One class of degree 3 mod 13 takes a grid
    # spanning 12 integers but not one spanning 13.
    classes = det_classes(SumRep.rho11(G85))
    p = choose_prime(1360)
    root = root_of_unity(p, 1360)
    sphere = (((1, 0),) * 3, 1),
    for args in ((classes, 1360, p, root, select_points(p, 1360, 162)), (sphere, 1, 13, 1, range(2, 14))):
        assert len(evaluate_f_values(*args)) == len(args[-1])
    for name in ("_root_powers", "_class_field_data"):
        monkeypatch.setattr(spectra, name, _refuse)
    refused = [(classes, 1360, p, root, points) for points in ((2, 10**6), (7,) * 40, select_points(p, 1360, 161), ())]
    for args in refused + [(sphere, 1, 13, 1, range(2, 15))]:
        with pytest.raises(ParameterOutOfRange, match=f"^{len(args[-1])} points spanning"):
            evaluate_f_values(*args)


def test_search_and_fingerprint_grids_take_the_shifted_path(monkeypatch):
    # The search at N = 1360 and a two-summand fingerprint evaluate grids:
    # each packed table walks only a block's nodes, fewer integers than the
    # range its values are shifted to.
    from spaceform.search import _pairs_for_order

    counts, shifted = [], []
    packed_dets, shifted_fractions = spectra._packed_dets, spectra._shifted_fractions

    def spy_dets(class_data, D, p, lo, count):
        counts.append(count)
        return packed_dets(class_data, D, p, lo, count)

    def spy_shift(*args):
        shifted.append(args[-1])
        return shifted_fractions(*args)

    monkeypatch.setattr(spectra, "_packed_dets", spy_dets)
    monkeypatch.setattr(spectra, "_shifted_fractions", spy_shift)
    for run in (lambda: _pairs_for_order(1360), lambda: fingerprint(SumRep.from_pairs(G85, ((1, 1), (3, 5))))):
        counts.clear()
        shifted.clear()
        run()
        assert shifted and counts and max(counts) < min(shifted), (counts, shifted)


def test_singular_point_raises(monkeypatch):
    # bad, the inverse of the eigenvalue zeta^5 of B, is a pole.  A grid that
    # requests it raises, at a node of its block and past the nodes, and so
    # does the one-point screen.
    _one_class_per_block(monkeypatch)
    sr = SumRep.rho11(G54)
    p = choose_prime(20)
    root = root_of_unity(p, 20)
    bad = pow(root, 20 - 5, p)
    for points in (range(bad - 1, bad + 7), range(bad - 7, bad + 1)):
        assert [z for z in points if pow(z, 20, p) == 1] == [bad]
        with pytest.raises(SingularPoint, match=f"z = {bad} "):
            evaluate_f_values(det_classes(sr), 20, p, root, points)
    with pytest.raises(SingularPoint):
        _screen_value(sr, p, root, bad)


def test_screen_value_matches_evaluator_and_reference(fpf_pool_2000, monkeypatch):
    # The one-point screen, straight from the orbit walk with no classes,
    # against the class evaluator and the reference evaluator on the element
    # walk's classes: seeded pool groups, three-summand sums and every
    # Table-1 group to 8000, at two points of a D + 2 point grid (one class
    # per block) and at two points of that grid shifted by p.
    _one_class_per_block(monkeypatch)
    rng = random.Random(79)
    reps = [SumRep.rho11(g) for g in rng.sample(fpf_pool_2000, 60)]
    reps += _random_sum_reps(rng, fpf_pool_2000, 40)
    table1 = {validate_type1(m, n, r) for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 8000 for r in (r1, r2)}
    assert len(table1) == 20
    reps += [SumRep.rho11(g) for g in sorted(table1, key=lambda g: (g.m, g.n, g.r))]
    for rep in reps:
        L = rep.group.order
        p = choose_prime(L)
        root = root_of_unity(p, L)
        grid = select_points(p, L, rep.degree + 2)
        classes = det_classes(rep)
        low, high = (evaluate_f_values(classes, L, p, root, tuple(z + j * p for z in grid)) for j in (0, 1))
        points = (grid[0], grid[1], grid[0] + p, grid[2] + p)
        expected = reference_f_values(element_walk_det_classes(rep), L, p, root, points)
        assert (low[0], low[1], high[0], high[2]) == expected, rep
        assert tuple(_screen_value(rep, p, root, z) for z in points) == expected, rep


def test_screen_value_matches_reference_at_the_screen_prime(fpf_pool_2000):
    # The same reps as above, screened at their own prime below 2^30
    # (_screen_grid), against the reference evaluator on the element walk's
    # classes at that prime, at points below q and at or above it.
    rng = random.Random(79)
    reps = [SumRep.rho11(g) for g in rng.sample(fpf_pool_2000, 60)]
    reps += _random_sum_reps(rng, fpf_pool_2000, 40)
    table1 = {validate_type1(m, n, r) for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 8000 for r in (r1, r2)}
    reps += [SumRep.rho11(g) for g in sorted(table1, key=lambda g: (g.m, g.n, g.r))]
    for rep in reps:
        L = rep.group.order
        q, root, screen_points = _screen_grid(L)
        high = tuple(z for z in (q, q + 2, 2 * q + 3) if pow(z, L, q) != 1)
        points = select_points(q, L, 2) + high
        assert points[:1] == screen_points and len(high) >= 2
        expected = reference_f_values(element_walk_det_classes(rep), L, q, root, points)
        assert tuple(_screen_value(rep, q, root, z) for z in points) == expected, rep


def test_screen_grid_fits_one_digit_for_every_order_to_30000():
    # The screen's prime is the least q = 1 (mod N) above 2^29 and stays
    # below 2^30, with a root of exact order N and a point that is no pole.
    largest = 0
    for N in range(2, 30001):
        q, root, (z,) = _screen_grid(N)
        assert 2**29 < q < 2**30 and q % N == 1 and is_prime(q), N
        assert pow(root, N, q) == 1 and all(pow(root, N // f, q) != 1 for f in prime_factors(N)), N
        assert pow(z, N, q) != 1, N
        largest = max(largest, q)
    assert largest == 540_250_331


def _refuse(*args):
    raise AssertionError("work started past the evaluation budget")


def test_evaluate_f_values_refuses_over_budget(monkeypatch):
    # 20 classes: one point past EVALUATION_LIMIT / 20 is refused before any
    # determinant is evaluated; exactly at the limit the evaluation starts.
    classes = Spectrum.of(SumRep.rho11(G85)).classes
    p = choose_prime(1360)
    root = root_of_unity(p, 1360)
    at_limit = range(2, 2 + spectra.EVALUATION_LIMIT // len(classes))
    monkeypatch.setattr(spectra, "_packed_dets", _refuse)
    with pytest.raises(AssertionError):
        evaluate_f_values(classes, 1360, p, root, at_limit)
    monkeypatch.setattr(spectra, "_root_powers", _refuse)
    with pytest.raises(SizeLimitExceeded, match=f"20 determinant classes x {len(at_limit) + 1} points"):
        evaluate_f_values(classes, 1360, p, root, range(2, 3 + len(at_limit)))


def test_fingerprint_refuses_over_budget_before_the_grid(monkeypatch):
    # 2118 classes x 67781 points: refused before select_points builds them.
    monkeypatch.setattr(spectra, "select_points", _refuse)
    with pytest.raises(SizeLimitExceeded, match="2118 determinant classes x 67781 points"):
        fingerprint(SumRep.rho11(validate_type1(1853, 128, 76)))


def test_shared_fingerprints_requires_equal_order():
    with pytest.raises(GroupMismatch):
        shared_fingerprints([SumRep.rho11(G85), SumRep.rho11(G54)])


def test_select_points_matches_pow_per_point():
    # Every Table-1 order to 5840 at its certificate prime and its pair's
    # point count, and p = 41, L = 20, where half of all z are skipped.
    for N, m, n, d, r1, r2 in TABLE1_ROWS:
        if N <= 5840:
            p, count = choose_prime(N), Spectrum.of(SumRep.rho11(validate_type1(m, n, r1))).point_count
            assert select_points(p, N, count) == pow_select_points(p, N, count), N
    for count in (0, 1, 2, 16, 20, 30, 100):
        assert select_points(41, 20, count) == pow_select_points(41, 20, count), count


# --- memo of F-value vectors and Molien series ------------------------------

def _counting(monkeypatch, name):
    """Wrap spectra.<name> so that each call is appended to the returned list."""
    calls, inner = [], getattr(spectra, name)
    monkeypatch.setattr(spectra, name, lambda *args: calls.append(args) or inner(*args))
    return calls


def test_memo_recomputes_the_oldest_past_its_bound(fpf_pool_2000, monkeypatch):
    # bound + 1 distinct class multisets, the first read again before the
    # last: the least recently used (the second) vector and series are
    # dropped and computed again, the first is kept, and neither memo ever
    # holds more than the bound.
    vectors, series = _counting(monkeypatch, "evaluate_f_values"), _counting(monkeypatch, "_molien_from_classes")
    reps, seen = [], set()
    for g in fpf_pool_2000:
        rep = SumRep.rho11(g)
        if (g.order, Spectrum.of(rep).classes) not in seen:
            seen.add((g.order, Spectrum.of(rep).classes))
            reps.append(rep)
        if len(reps) == spectra._MEMO_SIZE + 1:
            break
    records = []
    for rep in reps:
        if len(records) == spectra._MEMO_SIZE:
            assert (fingerprint(reps[0]), molien_coefficients(reps[0], 10)) == records[0]
        records.append((fingerprint(rep), molien_coefficients(rep, 10)))
        vector_memo, series_memo = spectra._full_vector.cache_info(), spectra._molien_series.cache_info()
        assert vector_memo.currsize <= spectra._MEMO_SIZE >= series_memo.currsize
    assert len(vectors) == len(series) == len(reps)
    assert (fingerprint(reps[-1]), molien_coefficients(reps[-1], 10)) == records[-1]
    assert len(vectors) == len(series) == len(reps)
    assert (fingerprint(reps[0]), molien_coefficients(reps[0], 10)) == records[0]
    assert len(vectors) == len(series) == len(reps)
    assert (fingerprint(reps[1]), molien_coefficients(reps[1], 10)) == records[1]
    assert len(vectors) == len(series) == len(reps) + 1


def test_memo_follows_the_prime_seed(monkeypatch):
    # A run under SPACEFORM_PRIME_SEED after a default one is keyed by its
    # own prime: it gives that prime's record, equal to a fresh computation.
    monkeypatch.delenv("SPACEFORM_PRIME_SEED", raising=False)
    rep = SumRep.rho11(G85)
    default = (fingerprint(rep), molien_coefficients(rep, 40))
    monkeypatch.setenv("SPACEFORM_PRIME_SEED", "1")
    seeded = (fingerprint(rep), molien_coefficients(rep, 40))
    assert seeded[0].p != default[0].p and seeded[0].values != default[0].values
    spectra._full_vector.cache_clear()
    spectra._molien_series.cache_clear()
    assert (fingerprint(rep), molien_coefficients(rep, 40)) == seeded


def test_memo_hit_skips_no_refusal(monkeypatch):
    # The budget and the truncation check run before the memo is read.
    rep = SumRep.rho11(G85)
    fingerprint(rep)
    molien_coefficients(rep, 60)
    with pytest.raises(ParameterOutOfRange):
        molien_coefficients(rep, -1)
    monkeypatch.setattr(spectra, "EVALUATION_LIMIT", 100)
    with pytest.raises(SizeLimitExceeded, match="F-value terms"):
        fingerprint(rep)
    with pytest.raises(SizeLimitExceeded, match="Molien terms"):
        molien_coefficients(rep, 60)


def test_choose_prime_follows_seed_set_after_first_call(monkeypatch):
    monkeypatch.delenv("SPACEFORM_PRIME_SEED", raising=False)
    default = choose_prime(1360)
    monkeypatch.setenv("SPACEFORM_PRIME_SEED", "7")
    seeded = choose_prime(1360)
    assert seeded != default and (seeded - 1) % 1360 == 0
    monkeypatch.delenv("SPACEFORM_PRIME_SEED")
    assert choose_prime(1360) == default


def test_fingerprint_bad_prime():
    with pytest.raises(BadPrime):
        root_of_unity(10**18 + 9, 54)


# d = 2 and r = -1: every even b walks all of Z/m, |G| = 16000000112.
G_UNWALKABLE = validate_type1(1000000007, 16, 1000000006)


def test_unwalkable_group_is_refused_before_any_walk(monkeypatch):
    for name in ("_alpha", "_root_powers"):
        monkeypatch.setattr(spectra, name, _refuse)
    rep = SumRep.rho11(G_UNWALKABLE)
    for call in (lambda: Spectrum.of(rep), lambda: fingerprint(rep), lambda: molien_coefficients(rep, 10),
                 lambda: almost_conjugate(rep, rep)):
        with pytest.raises(SizeLimitExceeded, match=r"\|G\| = 1000000007 x 16 = 16000000112 group elements"):
            call()


# --- Molien coefficients -------------------------------------------------

def test_molien_engine_round_sphere_q2():
    classes = (((1, 0),) * 3, 1),
    p = choose_prime(4, 10**6)
    root = root_of_unity(p, 4)
    coeffs = _molien_from_classes(classes, 1, 10, p, root)
    assert coeffs == [2 * k + 1 for k in range(11)]
    # det = (1 - z^2)^2 is read in X = z^2: F = 1/(1 - z^2)
    classes = (((2, 0),) * 2, 1),
    assert _molien_from_classes(classes, 1, 10, p, root) == [1, 0] * 5 + [1]


def test_molien_basic_properties():
    ms = molien_coefficients(SumRep.rho11(G85), truncation=40)
    assert ms.coefficients[0] == 1
    from spaceform.numtheory import harmonic_dim
    assert all(0 <= c <= harmonic_dim(15, k) for k, c in enumerate(ms.coefficients))


def test_molien_pair_agreement_and_comparator():
    m1 = molien_coefficients(SumRep.rho11(G85), truncation=60)
    m2 = molien_coefficients(SumRep.rho11(G85B), truncation=60)
    m9 = molien_coefficients(SumRep.rho11(validate_type1(85, 16, 9)), truncation=60)
    assert m1.coefficients == m2.coefficients
    assert m1.coefficients != m9.coefficients


def test_molien_negative_truncation_is_refused():
    with pytest.raises(ParameterOutOfRange):
        molien_coefficients(SumRep.rho11(G85), truncation=-1)
    assert molien_coefficients(SumRep.rho11(G85), truncation=0).coefficients == (1,)


def test_molien_refuses_over_budget(monkeypatch):
    # 20 classes x K = 100000 x degree 16 terms: refused before the
    # coefficient bound, the prime or any series work.
    for name in ("_molien_from_classes", "harmonic_dim", "choose_prime"):
        monkeypatch.setattr(spectra, name, _refuse)
    with pytest.raises(SizeLimitExceeded, match="20 determinant classes x K = 100000 x degree 16 = 32000000"):
        molien_coefficients(SumRep.rho11(G85), truncation=100000)


def test_molien_series_does_not_depend_on_its_prime(monkeypatch):
    # SPACEFORM_PRIME_SEED moves the Molien prime; the lifted coefficients of
    # the 1360 pair stay, at K = 200 and at K = 1500, whose prime is past the
    # bound below which is_prime is deterministic.
    from spaceform.numtheory import _MR_DETERMINISTIC_BOUND, harmonic_dim

    assert harmonic_dim(15, 200) < _MR_DETERMINISTIC_BOUND < harmonic_dim(15, 1500)
    for K in (200, 1500):
        monkeypatch.delenv("SPACEFORM_PRIME_SEED", raising=False)
        default_prime = choose_prime(1360, harmonic_dim(15, K))
        series = [molien_coefficients(SumRep.rho11(g), K) for g in (G85, G85B)]
        monkeypatch.setenv("SPACEFORM_PRIME_SEED", "7")
        assert choose_prime(1360, harmonic_dim(15, K)) != default_prime
        assert [molien_coefficients(SumRep.rho11(g), K) for g in (G85, G85B)] == series, K


def _molien_thresholds(classes, L):
    """The sorted distinct o*mu - D of the classes: o the lcm order and mu the
    largest multiplicity of the eigenvalues zeta_L^t (e*t = M mod L) of the
    class, D their number."""
    out = set()
    for factors, _ in classes:
        exps = [(M // e + i * L // e) % L for e, M in factors for i in range(e)]
        o = math.lcm(*(L // math.gcd(t, L) for t in exps))
        out.add(o * max(map(exps.count, exps)) - len(exps))
    return sorted(out)


def test_molien_matches_reference(valid_pool_2000):
    # K at 0, 1, D, 200 and around the two smallest nonzero o*mu - D, where a
    # class's recurrence stops at o*mu - D instead of K; the 1360 pair also
    # at K = 1500.
    synthetic = [((((1, 0),) * 3, 1),), ((((2, 0),) * 2, 1),)]
    p = choose_prime(4, 10**6)
    root = root_of_unity(p, 4)
    for classes in synthetic:
        for K in range(11):
            assert _molien_from_classes(classes, 1, K, p, root) == reference_molien_from_classes(classes, 1, K, p, root)
    groups = [validate_type1(m, n, r) for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 3600 for r in (r1, r2)]
    reps = [SumRep.rho11(g) for g in groups + [validate_type1(85, 16, 9), validate_type1(221, 16, 25)]]
    rng = random.Random(1500)
    small = [g for g in valid_pool_2000 if g.m * g.n <= 600]
    reps += _random_sum_reps(rng, small, 4)
    for g in rng.sample(small, 4):  # repeated summands: eigenvalues of multiplicity mu > 1
        ks = [k for k in range(1, g.m + 1) if math.gcd(k, g.m) == 1]
        ls = [l for l in range(1, g.n + 1) if math.gcd(l, g.n) == 1]
        kl = (rng.choice(ks), rng.choice(ls))
        reps += [SumRep.from_pairs(g, [kl, kl]), SumRep.from_pairs(g, [kl, kl, (rng.choice(ks), rng.choice(ls))])]
    for rep in reps:
        classes = Spectrum.of(rep).classes
        L = rep.group.order
        p = choose_prime(L, 10**18)
        root = root_of_unity(p, L)
        cut = [t for t in _molien_thresholds(classes, L) if t > 0][:2]
        Ks = {0, 1, rep.degree, 200} | {t + i for t in cut for i in (-1, 0, 1)}
        if (rep.group.m, rep.group.n) == (85, 16) and rep.group.r in (2, 42):
            Ks.add(1500)
        reference = reference_molien_from_classes(classes, L, max(Ks), p, root)
        for K in sorted(Ks):
            assert _molien_from_classes(classes, L, K, p, root) == reference[:K + 1], (rep, K)


# --- encode consistency: value equality iff coefficient equality ---------

def test_encode_consistency():
    g9 = validate_type1(85, 16, 9)
    fp1, fp2, fp9 = shared_fingerprints([SumRep.rho11(g) for g in (G85, G85B, g9)])
    K = 30
    m1 = molien_coefficients(SumRep.rho11(G85), K).coefficients
    m2 = molien_coefficients(SumRep.rho11(G85B), K).coefficients
    m9 = molien_coefficients(SumRep.rho11(g9), K).coefficients
    assert (fp1.values == fp2.values) == (m1 == m2)
    assert (fp1.values == fp9.values) == (m1 == m9)


# --- determinant classes --------------------------------------------------

def test_det_classes_partition_group(valid_pool_2000):
    # Multi-summand sums over the pool as well: the factors of every element
    # share one cycle length e, which the F-value and Molien engines rely on.
    rng = random.Random(67)
    reps = [SumRep.rho11(G54), SumRep.rho11(G85)]
    reps += _random_sum_reps(rng, [g for g in valid_pool_2000 if g.m * g.n <= 600], 40)
    for rep in reps:
        g = rep.group
        spectrum = Spectrum.of(rep)
        assert sum(c for _, c in spectrum.classes) == g.order
        assert spectrum.degree_bound == 2 + len(spectrum.classes) * rep.degree
        assert all(len({e for e, _ in factors}) == 1 for factors, _ in spectrum.classes)


def test_det_classes_match_element_walk_on_pool(fpf_pool_2000):
    # A seeded sample of the pool (the whole pool takes about half a minute),
    # every m = 1 group in it, and three-summand sums.
    rng = random.Random(71)
    sample = rng.sample(fpf_pool_2000, 150)
    sample += [g for g in fpf_pool_2000 if g.m == 1 and g not in sample][::10]
    reps = [SumRep.rho11(g) for g in sample]
    reps += _random_sum_reps(rng, fpf_pool_2000, 40)
    assert any(rep.group.m == 1 for rep in reps)
    for rep in reps:
        assert det_classes(rep) == element_walk_det_classes(rep), rep


def test_det_classes_match_element_walk_on_table1():
    groups = {validate_type1(m, n, r) for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 8000 for r in (r1, r2)}
    assert len(groups) == 20
    for g in groups:
        assert det_classes(SumRep.rho11(g)) == element_walk_det_classes(SumRep.rho11(g)), g


def test_alpha_matches_definition(fpf_pool_2000):
    # Every b of a seeded sample of the pool, of every tenth m = 1 group in
    # it, and of every Table-1 group with N <= 8000.
    sample = random.Random(83).sample(fpf_pool_2000, 200)
    sample += [g for g in fpf_pool_2000 if g.m == 1][::10]
    sample += [validate_type1(m, n, r) for N, m, n, d, r1, r2 in TABLE1_ROWS if N <= 8000 for r in (r1, r2)]
    for g in sample:
        assert [_alpha(g, b) for b in range(g.n)] == [alpha_by_definition(g, b) for b in range(g.n)], g


def test_det_factors_consistent_with_exponents():
    # expanding the (e, M) factors reproduces prod (z - eta^t) over exponents
    rng = random.Random(59)
    p = choose_prime(1360)
    root = root_of_unity(p, 1360)
    for _ in range(10):
        x = G85.element(rng.randrange(85), rng.randrange(16))
        factors = sum_rep_det_factors(SumRep.rho11(G85), x)
        exps = char_poly_exponents(RHO, x)
        # det(zI - g): product over factors of (z^e - eta^M)
        poly = [1]
        for e, M in factors:
            lam = pow(root, M, p)
            term = [0] * (e + 1)
            term[e] = 1
            term[0] = -lam
            new = [0] * (len(poly) + e)
            for i, c in enumerate(poly):
                if c:
                    for j, t in enumerate(term):
                        if t:
                            new[i + j] = (new[i + j] + c * t) % p
            poly = new
        assert tuple(poly) == poly_from_exponents(exps, p, root)
