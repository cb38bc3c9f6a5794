import hashlib
import random
import sys
from array import array
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autsplit.gftower import (LOG_ZERO, PRIME_TEST_BOUND, FFElement,
                              NormNotOne, NotDivisor, NotInSubfield, NotPrime,
                              Overflow, _is_prime, build_tower, frobenius,
                              hilbert90_solve, in_subfield, relative_norm,
                              relative_trace, subfield_generator)


# -- element helpers -----------------------------------------------------

def gen(tower):
    """The designated generator g of F_{p^M}^x."""
    return FFElement(tower, 0 if tower.q == 2 else 1)


def code_of(vec, p):
    return sum(c * p ** j for j, c in enumerate(vec))


def from_coeffs(tower, coeffs):
    return tower.from_code(code_of(coeffs, tower.p))


def elements(tower):
    """All q elements, zero first then generator powers."""
    yield tower.zero()
    for k in range(tower.q - 1):
        yield FFElement(tower, k)


# -- independent oracles -------------------------------------------------

def poly_mul_mod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    m = len(mod) - 1
    for k in range(len(res) - 1, m - 1, -1):
        c = res[k]
        if c:
            for t in range(len(mod)):
                res[k - m + t] = (res[k - m + t] - c * mod[t]) % p
    return res[:m]


def brute_order(tower, x):
    """Multiplicative order by raw repeated polynomial multiplication."""
    vec = list(x.coeffs)
    mod = list(tower.modulus)
    cur = vec[:]
    for k in range(1, tower.q):
        if cur[0] == 1 and all(c == 0 for c in cur[1:]):
            return k
        cur = poly_mul_mod(cur, vec, mod, tower.p)
    raise AssertionError("no order found")


def brute_pow(tower, x, e):
    acc = tower.one()
    for _ in range(e):
        acc = acc * x
    return acc


# -- construction --------------------------------------------------------

def test_prime_field_tower():
    t = build_tower(2, 1, 1, 1)
    assert t.M == 1 and t.q == 2
    assert gen(t) == t.one()


def test_ambient_degree():
    t = build_tower(2, 2, 3, 3)
    assert t.M == 18 and t.q == 2 ** 18


def test_generator_order_exhaustive():
    t = build_tower(3, 1, 2, 2)
    assert t.M == 4
    assert brute_order(t, gen(t)) == 80


def test_not_prime():
    with pytest.raises(NotPrime):
        build_tower(6, 1, 1, 1)


def test_overflow():
    with pytest.raises(Overflow):
        build_tower(2, 5, 5, 5)


def trial_division_is_prime(n):
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(100_000) if _is_prime(n)] == \
        [n for n in range(100_000) if trial_division_is_prime(n)]


def test_is_prime_large_inputs():
    # Carmichael numbers fool the Fermat test to every coprime base; the
    # Chernick ones (6k+1)(12k+1)(18k+1) here have no factor below 41
    for n in (561, 1105, 1729, 41041, 9746347772161, 56052361, 118901521,
              172947529, 216821881, 228842209):
        assert not _is_prime(n)
    # the least strong pseudoprimes to all prime bases up to 31 and up to
    # 37; bases 37 and 41 catch them
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    for n in (2 ** 61 - 1, 2 ** 31 - 1, 1_000_003, 2 ** 64 - 59):
        assert _is_prime(n)
    assert not _is_prime(1_000_003 * (2 ** 61 - 1))
    assert not _is_prime(PRIME_TEST_BOUND - 2)
    with pytest.raises(ValueError):
        _is_prime(PRIME_TEST_BOUND)


def test_modulus_is_irreducible_brute():
    # no monic factor of degree 1..M//2 divides the modulus (naive check)
    t = build_tower(3, 1, 2, 2)
    mod = list(t.modulus)
    p, M = t.p, t.M

    def divides(div):
        rem = mod[:]
        dm = len(div) - 1
        inv = pow(div[-1], -1, p)
        while len(rem) - 1 >= dm and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dm:
                break
            c = rem[-1] * inv % p
            off = len(rem) - 1 - dm
            for k in range(dm + 1):
                rem[off + k] = (rem[off + k] - c * div[k]) % p
        return not any(rem)

    import itertools
    for deg in range(1, M // 2 + 1):
        for lower in itertools.product(range(p), repeat=deg):
            assert not divides(list(lower) + [1])


@pytest.mark.parametrize("p,M", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                                 (3, 3), (7, 2), (2, 10), (2, 11), (3, 5),
                                 (3, 7), (5, 4), (7, 3), (1031, 1), (4099, 1)])
def test_tables_match_polynomial_powers(p, M):
    # step g^k by raw polynomial multiplication; 1 + g^k by adding 1 to
    # the constant coefficient
    t = build_tower(p, M, 1, 1)
    Q, mod = t.q - 1, list(t.modulus)
    g = [t.g_code // p ** j % p for j in range(M)]
    assert len(t._exp) == len(t._zech) == Q and len(t._log) == t.q
    assert t._log[0] == LOG_ZERO
    cur = [1] + [0] * (M - 1)
    for k in range(Q):
        code = code_of(cur, p)
        assert t._exp[k] == code
        assert t._log[code] == k
        plus_one = code_of([(cur[0] + 1) % p] + cur[1:], p)
        assert t._zech[k] == (t._log[plus_one] if plus_one else LOG_ZERO)
        cur = poly_mul_mod(cur, g, mod, p)
    assert cur == [1] + [0] * (M - 1)   # g has order exactly q - 1


def table_digest(tower):
    h = hashlib.sha256()
    for tbl in (tower._exp, tower._log, tower._zech):
        a = array("i", tbl)
        if sys.byteorder == "big":
            a.byteswap()
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key,modulus,g_code,digest", [
    ((2, 2, 3, 2), (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3,
     "ae704df3d55a1a2d0e248bfb8f5898a22aa2deb6d4edba3d9e317978526f21e4"),
    ((2, 2, 3, 3), (1, 0, 0, 1) + (0,) * 14 + (1,), 10,
     "3bf62a539f1802470175d1f8031a926a92e041942d8e0631a0a8037803320cac"),
    ((3, 1, 10, 1), (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34,
     "2c8b75b5593b7681775e2e42a16e86e7678eebc76bbd8e071db11894d9b3af00"),
    ((5, 4, 1, 1), (2, 0, 0, 0, 1), 6,
     "e2a913845e4a4afcbf923c83481b99b4c1b6a07821e72c52a1be2890121547d5"),
    ((7, 3, 1, 1), (2, 0, 0, 1), 22,
     "73d5578c3b0d9466c56152f0af665cc1380fdee0ff57ab7f6ca6bc4803effa1d"),
    # prime fields, whose exp table is stepped by c * g^s mod p
    ((65521, 1, 1, 1), (0, 1), 17,
     "b7291ca803a475e8ff589583a99b05dd968176d8dfc7a9ca9292345a652d1d2a"),
    ((1000003, 1, 1, 1), (0, 1), 2,
     "97b4348e2c2fb684a4484e03df431e95427716ecdf2813a58dc9f6d41bb10ef8"),
])
def test_tables_pinned(key, modulus, g_code, digest):
    # modulus, generator and the SHA-256 of the little-endian int32 exp,
    # log and zech tables, as serialized codes and reports depend on them
    t = build_tower(*key)
    assert t.modulus == modulus and t.g_code == g_code
    assert table_digest(t) == digest


def test_deterministic_rebuild():
    a = build_tower(2, 1, 3, 1)
    b = build_tower(2, 1, 3, 1)
    assert a is b  # cached
    assert a.descriptor() == b.descriptor()


# -- arithmetic ----------------------------------------------------------

def test_element_roundtrip_coeffs():
    t = build_tower(2, 1, 3, 1)
    for code in range(t.q):
        x = t.from_code(code)
        assert from_coeffs(t, x.coeffs) == x


def test_field_axioms_sampled():
    t = build_tower(3, 1, 2, 2)
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (t.from_code(rng.randrange(t.q)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if a:
            assert a * a.inverse() == t.one()


# -- frobenius -----------------------------------------------------------

def test_frobenius_identity_cases():
    t = build_tower(2, 2, 3, 1)
    rng = random.Random(0)
    for _ in range(100):
        x = t.from_code(rng.randrange(t.q))
        assert frobenius(x, 0) == x
        assert frobenius(x, t.M) == x


def test_frobenius_is_pth_power():
    t = build_tower(3, 1, 2, 1)
    x = gen(t)  # a nonsquare generator of F_9
    assert frobenius(x, 1) == brute_pow(t, x, 3)
    for code in range(t.q):
        y = t.from_code(code)
        assert frobenius(y, 1) == y ** 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 12 - 1), st.integers(-6, 12), st.integers(-6, 12))
def test_frobenius_additive_in_exponent(code, e1, e2):
    t = build_tower(2, 2, 3, 2)  # F_{2^12}
    x = t.from_code(code)
    assert frobenius(frobenius(x, e1), e2) == frobenius(x, e1 + e2)


# -- subfields -----------------------------------------------------------

def test_subfield_generator_top_and_bottom():
    t = build_tower(2, 2, 2, 1)  # M = 4
    assert subfield_generator(t, t.M) == gen(t)
    assert subfield_generator(t, 1) == t.one()  # F_2^x is trivial
    with pytest.raises(NotDivisor):
        subfield_generator(t, 3)


def test_subfield_generator_order_and_fixedness():
    t = build_tower(2, 2, 2, 1)  # F_16, j = 2
    z = subfield_generator(t, 2)
    assert brute_order(t, z) == 3
    assert frobenius(z, 2) == z
    # exhaustively: fixed set of Frobenius^2 = {0} + powers of z
    fixed = {x.log for x in elements(t) if frobenius(x, 2) == x}
    expected = {-1} | {(z ** k).log for k in range(3)}
    assert fixed == expected


def test_subfield_membership_matches_powers_all_divisors():
    t = build_tower(2, 2, 2, 2)  # M = 8
    for j in (1, 2, 4, 8):
        zj = subfield_generator(t, j)
        members = {x.log for x in elements(t) if in_subfield(x, j)}
        expected = {-1} | {(zj ** k).log for k in range(2 ** j - 1)}
        assert members == expected


# -- norms ---------------------------------------------------------------

def test_relative_norm_trivial_cases():
    t = build_tower(2, 2, 3, 1)
    assert relative_norm(t.one(), 2, 3) == t.one()
    x = gen(t)
    assert relative_norm(x, t.M, 1) == x


def test_relative_norm_of_generator():
    t = build_tower(2, 2, 3, 1)  # F_64 over F_4
    z6 = subfield_generator(t, 6)
    n = relative_norm(z6, 2, 3)
    # oracle: direct product of conjugates
    direct = z6 * frobenius(z6, 2) * frobenius(z6, 4)
    assert n == direct
    assert n == z6 ** ((2 ** 6 - 1) // (2 ** 2 - 1))
    assert brute_order(t, n) == 3  # generates F_4^x


def test_relative_norm_multiplicative():
    t = build_tower(3, 1, 2, 2)
    rng = random.Random(3)
    for _ in range(50):
        x = t.from_code(rng.randrange(t.q))
        y = t.from_code(rng.randrange(t.q))
        assert relative_norm(x * y, 1, 4) == \
            relative_norm(x, 1, 4) * relative_norm(y, 1, 4)


def test_relative_norm_rejects_outsiders():
    t = build_tower(2, 1, 2, 2)
    outside = gen(t)  # generates F_16, not in F_4
    with pytest.raises(NotInSubfield):
        relative_norm(outside, 1, 2)


def test_relative_trace_linear():
    t = build_tower(2, 2, 3, 1)
    z = subfield_generator(t, 2)
    x = gen(t)
    assert relative_trace(x, 2, 3) * z == relative_trace(
        x * z, 2, 3)  # F_4-linearity


# -- Hilbert 90 ----------------------------------------------------------

def test_hilbert90_trivial():
    t = build_tower(2, 1, 2, 2)
    y = hilbert90_solve(t.one(), 1, 2)
    assert y and frobenius(y, 1) == y


def test_hilbert90_m1_forces_one():
    t = build_tower(2, 1, 2, 2)
    y = hilbert90_solve(t.one(), 2, 1)
    assert y
    with pytest.raises(NormNotOne):
        hilbert90_solve(gen(t), 4, 1)


def test_hilbert90_big_field_example():
    # c = generator of F_4^x inside F_{2^18}, extension F_{2^18}/F_{2^6}
    t = build_tower(2, 2, 3, 3)
    zeta = subfield_generator(t, 2)
    assert relative_norm(zeta, 6, 3) == t.one()
    y = hilbert90_solve(zeta, 6, 3)
    assert frobenius(y, 6) == zeta * y


def test_hilbert90_brute_force_cross_check():
    # F_{2^12}/F_{2^4}: every norm-1 element has a resolvent solution that
    # agrees with brute-force search over generator powers
    t = build_tower(2, 2, 3, 2)
    rng = random.Random(11)
    z12 = gen(t)
    for _ in range(20):
        c = z12 ** rng.randrange(t.q - 1)
        c = c / frobenius(c, 4) if False else c ** (2 ** 4 - 1)  # norm-1 shape
        # c = x^(q0-1) has relative norm 1 for q0 = 2^4
        assert relative_norm(c, 4, 3) == t.one()
        y = hilbert90_solve(c, 4, 3)
        assert frobenius(y, 4) == c * y
        found = None
        cur = t.one()
        for _ in range(t.q - 1):
            if frobenius(cur, 4) == c * cur:
                found = cur
                break
            cur = cur * z12
        assert found is not None


def test_hilbert90_rejects_bad_norm():
    t = build_tower(2, 2, 3, 1)
    with pytest.raises(NormNotOne):
        hilbert90_solve(subfield_generator(t, 6), 2, 3)
