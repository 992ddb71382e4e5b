import math
import random

import pytest

from spaceform.errors import ParameterOutOfRange, SizeLimitExceeded
from spaceform.groups import GroupElement, validate_type1
from spaceform.numtheory import (
    carmichael,
    crt_pair,
    divisors,
    factorint,
    geometric_sum_mod,
    harmonic_dim,
    is_prime,
    multiplicative_order,
    next_prime_in_progression,
    primitive_root,
    torsion_elements,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for n in range(45):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**61 - 1)
    assert not is_prime(561)       # Carmichael number
    assert not is_prime(2**61 + 1)
    assert is_prime(1000000000000002961)


def test_is_prime_matches_a_sieve_and_rejects_pseudoprimes():
    # Below 4,759,123,141 only the bases 2, 7 and 61 run; 61 itself is prime
    # although its own base divides it.  3,215,031,751 is a strong
    # pseudoprime to 2, 3, 5 and 7; 4,759,123,141 to 2, 7 and 61.
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    assert 3_215_031_751 == 151 * 751 * 28351 and not is_prime(3_215_031_751)
    assert 4_759_123_141 == 48781 * 97561 and not is_prime(4_759_123_141)
    assert is_prime(4_759_123_129) and is_prime(4_759_123_151)


def test_is_prime_between_the_12_and_13_base_bounds():
    # The least strong pseudoprime to every prime base through 37; base 41
    # refutes it.  Below 3.3e24 the 13 bases through 41 are deterministic.
    assert 399_165_290_221 * 798_330_580_441 == 318_665_857_834_031_151_167_461
    assert not is_prime(318_665_857_834_031_151_167_461)
    assert is_prime(10**24 + 7)


def test_factorint_refuses_what_trial_division_cannot_finish():
    # Trial division of this prime would run for minutes: refused at once.
    # Above 2^48 a number whose primes below 2^16 leave a small cofactor is
    # still factored.
    with pytest.raises(SizeLimitExceeded):
        factorint(2**61 - 1)
    assert factorint(2**48) == {2: 48}
    assert factorint(3**31) == {3: 31}
    assert factorint(2 * 3**30) == {2: 1, 3: 30}


def test_factorint_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        f = factorint(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(85) == [1, 5, 17, 85]
    assert len(divisors(1360)) == sum(1 for k in range(1, 1361) if 1360 % k == 0)


@pytest.mark.parametrize("m,lam", [(1, 1), (2, 1), (4, 2), (8, 2), (16, 4), (85, 16), (221, 48), (9, 6)])
def test_carmichael(m, lam):
    assert carmichael(m) == lam


def test_multiplicative_order():
    assert multiplicative_order(2, 85) == 8
    assert multiplicative_order(42, 85) == 8
    assert multiplicative_order(3, 85) == 16
    assert multiplicative_order(1, 7) == 1
    with pytest.raises(ValueError):
        multiplicative_order(5, 85)
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randrange(3, 3000, 2)
        r = rng.randrange(1, m)
        if math.gcd(r, m) != 1:
            continue
        d = multiplicative_order(r, m)
        assert pow(r, d, m) == 1
        assert all(pow(r, j, m) != 1 for j in range(1, min(d, 50)))


def test_geometric_sum_mod_matches_naive():
    rng = random.Random(3)
    for _ in range(300):
        m = rng.randrange(1, 500)
        x = rng.randrange(0, 500)
        k = rng.randrange(0, 60)
        expect = sum(pow(x, i) for i in range(k)) % m
        assert geometric_sum_mod(x, k, m) == expect


def test_torsion_elements_matches_scan():
    for m, n in [(85, 16), (85, 2), (15, 4), (9, 6), (1, 5), (221, 16)]:
        got = torsion_elements(m, n)
        expect = sorted(r for r in range(m) if m == 1 or pow(r, n, m) == 1)
        if m == 1:
            expect = [0]
        assert got == expect


def test_primitive_root():
    for q in [3, 5, 7, 9, 25, 27, 17, 121]:
        g = primitive_root(q)
        phi = len([x for x in range(1, q) if math.gcd(x, q) == 1])
        assert multiplicative_order(g, q) == phi


def test_crt_pair():
    x = crt_pair(2, 5, 8, 17)
    assert x % 5 == 2 and x % 17 == 8 and 0 <= x < 85


def test_harmonic_dim():
    # round 2-sphere: 2k+1
    assert [harmonic_dim(2, k) for k in range(6)] == [1, 3, 5, 7, 9, 11]
    assert harmonic_dim(15, 0) == 1
    assert harmonic_dim(15, 1) == 16
    # S^1: constants plus cos/sin pairs
    assert [harmonic_dim(1, k) for k in range(4)] == [1, 2, 2, 2]


def test_harmonic_dim_is_non_decreasing_in_k():
    # molien_coefficients bounds every dim H^G_{q,k}, k <= K, by dim H_K(S^q) alone.
    for q in range(1, 64):
        dims = [harmonic_dim(q, k) for k in range(3000)]
        assert all(a <= b for a, b in zip(dims, dims[1:])), q


def test_next_prime_in_progression():
    p = next_prime_in_progression(1360, 10**18)
    assert p > 10**18 and (p - 1) % 1360 == 0 and is_prime(p)
    # smallest such prime: no earlier candidate is prime
    t = (p - 1) // 1360
    t0 = (10**18 - 1) // 1360 + 1
    assert all(not is_prime(1 + s * 1360) for s in range(t0, t))


@pytest.mark.parametrize("call", [
    lambda: GroupElement(validate_type1(5, 4, 2), 9, 0),
    lambda: factorint(0),
    lambda: multiplicative_order(5, 10),
    lambda: primitive_root(45),
    lambda: torsion_elements(6, 2),
], ids=["GroupElement", "factorint", "multiplicative_order", "primitive_root", "torsion_elements"])
def test_out_of_domain_arguments_raise_typed_errors(call):
    # ParameterOutOfRange is a SpaceformError and still a ValueError.
    with pytest.raises(ParameterOutOfRange):
        call()
