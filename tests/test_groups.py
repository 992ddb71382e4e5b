import math
import random

import pytest

from spaceform.errors import (
    CoprimalityViolation,
    EvenM,
    GroupMismatch,
    InvalidAutomorphism,
    NotFixedPointFree,
    OrderViolation,
    SizeLimitExceeded,
)
from spaceform.groups import (
    Automorphism,
    apply_automorphism,
    canonical_r,
    element_order,
    inverse,
    is_canonical,
    is_fixed_point_free,
    is_isomorphic,
    multiply,
    order_set_bruteforce,
    order_set_formula,
    power,
    r_generators,
    validate_type1,
)
from spaceform.numtheory import divisors


def naive_order(x):
    k, y = 1, x
    while not y.is_identity:
        y = multiply(y, x)
        k += 1
    return k


# --- validation -------------------------------------------------------

def test_validate_smallest_pair_group():
    g = validate_type1(85, 16, 2)
    assert (g.m, g.n, g.r, g.d) == (85, 16, 2, 8)
    assert g.order == 1360


def test_validate_cyclic():
    g = validate_type1(1, 4, 0)
    assert g.d == 1 and g.is_cyclic and g.order == 4


def test_validate_5_4_4():
    # direct arithmetic: 4^2 = 16 = 1 mod 5 and gcd(3*4, 5) = 1
    assert pow(4, 2, 5) == 1 and math.gcd(3 * 4, 5) == 1
    assert validate_type1(5, 4, 4).d == 2


def test_validate_errors():
    with pytest.raises(EvenM):
        validate_type1(4, 3, 3)
    with pytest.raises(CoprimalityViolation):
        validate_type1(9, 3, 4)        # gcd((4-1)*3, 9) = 9
    with pytest.raises(OrderViolation):
        validate_type1(85, 16, 5)      # 5^16 = 0 mod 5-part
    with pytest.raises(OrderViolation):
        validate_type1(7, 4, 3)        # ord_7(3) = 6 does not divide 4


def test_validate_reduces_r_mod_m():
    assert validate_type1(85, 16, 87).r == 2


# --- fixed point freeness --------------------------------------------

def test_is_fixed_point_free_examples():
    assert is_fixed_point_free(validate_type1(85, 16, 2))
    assert is_fixed_point_free(validate_type1(1, 12, 0))
    assert not is_fixed_point_free(validate_type1(5, 2, 4))  # d=2, n/d=1


# --- multiplication, powers, orders -----------------------------------

def test_multiply_defining_relation():
    g = validate_type1(5, 4, 4)
    ba = multiply(g.gen_b(), g.gen_a())
    assert (ba.a, ba.b) == (4, 1)  # B A = A^r B


def test_multiply_identity_and_mismatch():
    g = validate_type1(85, 16, 2)
    for x in [g.element(3, 7), g.element(84, 15)]:
        assert multiply(g.identity(), x) == x
        assert multiply(x, inverse(x)).is_identity
    with pytest.raises(GroupMismatch):
        multiply(g.element(1, 0), validate_type1(5, 4, 4).element(1, 0))


def test_ab_squared():
    g = validate_type1(85, 16, 2)
    ab = g.element(1, 1)
    sq = multiply(ab, ab)
    assert (sq.a, sq.b) == (3, 2)
    assert power(ab, 2) == sq


@pytest.mark.parametrize("params", [(5, 4, 4), (7, 6, 3), (13, 12, 6), (1, 12, 0), (17, 16, 3)])
def test_power_closed_form_equals_repeated_multiply(params):
    g = validate_type1(*params)
    assert g.order <= 500
    for x in g.elements():
        y = g.identity()
        for k in range(g.order + 1):
            assert power(x, k) == y
            y = multiply(y, x)


def test_power_lagrange():
    for params in [(85, 16, 2), (5, 4, 4), (1, 9, 0)]:
        g = validate_type1(*params)
        for x in [g.element(1, 1), g.element(0, 1), g.gen_a()]:
            assert power(x, 0).is_identity
            assert power(x, g.order).is_identity


def test_ab_c_power_identity_claim():
    # (A B^c)^(u n / c) = identity for c | d, u = gcd(r^c - 1, m)
    for params in [(85, 16, 2), (5, 4, 4), (17, 80, 2)]:
        g = validate_type1(*params)
        assert is_fixed_point_free(g)
        for c in divisors(g.d):
            u = math.gcd(pow(g.r, c, g.m) - 1, g.m)
            assert power(g.element(1, c), u * g.n // c).is_identity


def test_element_order_generators():
    g = validate_type1(85, 16, 2)
    assert element_order(g.gen_a()) == 85
    assert element_order(g.gen_b()) == 16
    assert element_order(g.element(1, g.d)) == g.order // g.d  # order(A B^d) = mn/d


def test_element_order_ab2():
    # u = gcd(2^2 - 1, 85) = gcd(3, 85) = 1, so order(A B^2) = 1 * 16/2 = 8,
    # confirmed by the repeated-multiplication oracle.
    g = validate_type1(85, 16, 2)
    x = g.element(1, 2)
    assert naive_order(x) == 8
    assert element_order(x) == 8


@pytest.mark.parametrize("params", [(5, 4, 4), (7, 6, 3), (13, 4, 5), (1, 18, 0)])
def test_element_order_matches_naive(params):
    g = validate_type1(*params)
    for x in g.elements():
        assert element_order(x) == naive_order(x)


# --- order sets --------------------------------------------------------

def test_order_set_cyclic_is_divisors():
    g = validate_type1(1, 12, 0)
    assert order_set_formula(g) == tuple(divisors(12))
    assert order_set_bruteforce(validate_type1(1, 4, 0)) == (1, 2, 4)


def test_order_set_5_4_4():
    g = validate_type1(5, 4, 4)
    assert order_set_formula(g) == (1, 2, 4, 5, 10)
    assert order_set_bruteforce(g) == (1, 2, 4, 5, 10)


def test_order_set_85_16_2():
    g = validate_type1(85, 16, 2)
    got = order_set_formula(g)
    assert 170 in got  # gcd(r^d-1, m) * n/d = 85*2
    assert got == order_set_bruteforce(g)


def test_order_set_not_fpf():
    with pytest.raises(NotFixedPointFree):
        order_set_formula(validate_type1(5, 2, 4))


def test_order_set_size_limit():
    with pytest.raises(SizeLimitExceeded):
        order_set_bruteforce(validate_type1(1853, 128, 76))  # |G| = 237184


def test_order_set_closed_under_divisors(fpf_pool_2000):
    rng = random.Random(5)
    for g in rng.sample(fpf_pool_2000, 120):
        orders = set(order_set_formula(g))
        assert all(set(divisors(k)) <= orders for k in orders)


# --- isomorphism -------------------------------------------------------

def test_is_isomorphic_examples():
    g2 = validate_type1(85, 16, 2)
    g42 = validate_type1(85, 16, 42)
    assert not is_isomorphic(g2, g42)
    assert is_isomorphic(g2, g2)
    assert is_isomorphic(g2, validate_type1(85, 16, 32))  # 32 = 2^5


def test_d2_groups_always_isomorphic():
    # valid r of order 2 is forced to -1 mod m
    for m, n in [(5, 4), (15, 8), (85, 16), (105, 4)]:
        rs = [r for r in range(2, m) if pow(r, 2, m) == 1 and math.gcd(r - 1, m) == 1]
        assert rs == [m - 1]


def test_is_isomorphic_equivalence_relation(valid_pool_2000):
    rng = random.Random(13)
    by_mnd = {}
    for g in valid_pool_2000:
        by_mnd.setdefault((g.m, g.n, g.d), []).append(g)
    families = [v for v in by_mnd.values() if len(v) >= 3]
    for fam in rng.sample(families, min(25, len(families))):
        a, b, c = rng.sample(fam, 3)
        assert is_isomorphic(a, a)
        assert is_isomorphic(a, b) == is_isomorphic(b, a)
        if is_isomorphic(a, b) and is_isomorphic(b, c):
            assert is_isomorphic(a, c)


def test_canonical_r():
    g = validate_type1(85, 16, 2)
    assert r_generators(g) == (2, 8, 32, 43)
    assert canonical_r(g) == 2 and is_canonical(g)
    g43 = validate_type1(85, 16, 43)
    assert canonical_r(g43) == 2 and not is_canonical(g43)
    assert is_isomorphic(g, g43)


# --- automorphisms -----------------------------------------------------

def test_automorphism_identity_map():
    g = validate_type1(85, 16, 2)
    psi = Automorphism(g, 1, 1, 0)
    for x in [g.identity(), g.element(3, 5), g.element(84, 15)]:
        assert apply_automorphism(psi, x) == x


def test_automorphism_validation():
    g = validate_type1(85, 16, 2)
    with pytest.raises(InvalidAutomorphism):
        Automorphism(g, 5, 1, 0)      # gcd(s, m) != 1
    with pytest.raises(InvalidAutomorphism):
        Automorphism(g, 1, 2, 0)      # gcd(t, n) != 1
    with pytest.raises(InvalidAutomorphism):
        Automorphism(g, 1, 3, 0)      # t != 1 mod d


def test_automorphism_is_homomorphism_and_preserves_order():
    rng = random.Random(23)
    g = validate_type1(85, 16, 2)
    psis = []
    for _ in range(6):
        s = rng.choice([s for s in range(1, 85) if math.gcd(s, 85) == 1])
        t = rng.choice([t for t in range(1, 16) if math.gcd(t, 16) == 1 and t % 8 == 1])
        psis.append(Automorphism(g, s, t, rng.randrange(85)))
    for psi in psis:
        for _ in range(25):
            x = g.element(rng.randrange(85), rng.randrange(16))
            y = g.element(rng.randrange(85), rng.randrange(16))
            assert apply_automorphism(psi, multiply(x, y)) == multiply(
                apply_automorphism(psi, x), apply_automorphism(psi, y))
            assert element_order(apply_automorphism(psi, x)) == element_order(x)
        assert apply_automorphism(psi, power(g.gen_a(), g.m)).is_identity


# --- arithmetic lemmas used by the order-set theorem -------------------

def test_gcd_power_lemmas(valid_pool_2000):
    rng = random.Random(31)
    for g in rng.sample(valid_pool_2000, 250):
        if g.m == 1:
            continue
        for j in range(g.d):
            c = math.gcd(j, g.d)
            lhs = math.gcd(pow(g.r, j, g.m) - 1, g.m)
            rhs = math.gcd(pow(g.r, c, g.m) - 1, g.m)
            assert lhs == rhs                      # gcd(r^j-1, m) = gcd(r^gcd(j,d)-1, m)
            assert math.gcd(g.m // rhs, rhs) == 1  # gcd(m/u, u) = 1
            if math.gcd(j, g.d) == 1:
                assert sum(pow(g.r, j * k, g.m) for k in range(g.d)) % g.m == 0
