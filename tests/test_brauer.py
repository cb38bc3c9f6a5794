from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autsplit.brauer import (BrauerClass, CSADescriptor, GroupDescriptor,
                             NotDivisionInput, base_change_csa, d_part,
                             descent_form, invariant, non_split_witness,
                             splits_globally_charp, splits_over_subfield,
                             wedderburn)
from autsplit.gftower import _prime_factors


def base_change_group(G, m):
    """Base change of SL_{n'}(A(d',r')) along a degree-m extension: with
    a = gcd(d', m) it is SL_{a n'}(A(d'/a, (m/a) r')).  Needs division
    input gcd(d', r') = 1."""
    dp, rp = G.algebra.d, G.algebra.r
    if gcd(dp, rp) != 1:
        raise NotDivisionInput("base_change_group needs gcd(d, r) = 1")
    a = gcd(dp, m)
    return GroupDescriptor(a * G.n, CSADescriptor(dp // a, (m // a) * rp))


def galois_subfield_exists(p, i, q, a):
    """Whether some K' <= F_{p^i}((T)) has finite Galois index divisible
    by q^a: true iff q = p or q^a divides i(p^i - 1)."""
    return q == p or (i * (p ** i - 1)) % (q ** a) == 0


def as_fraction(c):
    return Fraction(c.numerator, c.denominator)


def test_invariant_examples():
    assert invariant(CSADescriptor(3, 1)) == BrauerClass(1, 3)
    assert invariant(CSADescriptor(1, 0)) == BrauerClass(0, 1)
    assert invariant(CSADescriptor(4, 2)) == BrauerClass(1, 2)


def test_wedderburn_examples():
    assert wedderburn(CSADescriptor(4, 2)) == (2, CSADescriptor(2, 1))
    assert wedderburn(CSADescriptor(3, 1)) == (1, CSADescriptor(3, 1))
    a, div = wedderburn(CSADescriptor(6, 4))
    assert (a, div) == (2, CSADescriptor(3, 2))
    assert invariant(div) == invariant(CSADescriptor(6, 4))


def test_base_change_examples():
    assert base_change_csa(CSADescriptor(3, 1), 1) == CSADescriptor(3, 1)
    split = base_change_csa(CSADescriptor(3, 1), 3)
    assert invariant(split) == BrauerClass(0, 1)
    chained = wedderburn(base_change_csa(CSADescriptor(4, 1), 2))
    assert chained == (2, CSADescriptor(2, 1))


def test_base_change_group_examples():
    g = base_change_group(GroupDescriptor(1, CSADescriptor(4, 1)), 2)
    assert g == GroupDescriptor(2, CSADescriptor(2, 1))
    g = base_change_group(GroupDescriptor(2, CSADescriptor(3, 1)), 1)
    assert g == GroupDescriptor(2, CSADescriptor(3, 1))
    g = base_change_group(GroupDescriptor(2, CSADescriptor(3, 1)), 3)
    assert g == GroupDescriptor(6, CSADescriptor(1, 1))
    assert g.n * g.algebra.d == 6  # total degree preserved
    with pytest.raises(NotDivisionInput):
        base_change_group(GroupDescriptor(1, CSADescriptor(4, 2)), 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 11), st.integers(1, 12))
def test_invariant_base_change_compatible(d, r, m):
    A = CSADescriptor(d, r % d if d > 1 else 0)
    lhs = as_fraction(invariant(base_change_csa(A, m)))
    rhs = (as_fraction(invariant(A)) * m) % 1
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 11))
def test_wedderburn_preserves_class(d, r):
    A = CSADescriptor(d, r % d if d > 1 else 0)
    a, div = wedderburn(A)
    assert a * div.d == A.d
    assert gcd(div.d, div.r) == 1 or div.d == 1
    assert invariant(div) == invariant(A)


def test_splits_over_subfield_examples():
    assert not splits_over_subfield(1, 2, 2)
    assert splits_over_subfield(2, 2, 2)
    assert splits_over_subfield(1, 3, 2)


def test_galois_subfield_exists_examples():
    assert galois_subfield_exists(2, 1, 2, 5)      # q = p branch
    assert galois_subfield_exists(2, 2, 3, 1)      # 3 | 6
    assert not galois_subfield_exists(3, 1, 5, 1)  # 5 does not divide 2


def test_splits_globally_examples():
    assert splits_globally_charp(1, 3, 2, 1)
    assert not splits_globally_charp(1, 3, 2, 2)
    assert splits_globally_charp(3, 3, 2, 2)


def test_non_split_witness():
    assert non_split_witness(1, 3, 2, 2) == 3
    assert non_split_witness(1, 2, 2, 1) == 2
    assert non_split_witness(3, 3, 2, 2) is None
    w = non_split_witness(1, 2, 3, 2)   # gcd(2, 2*8) = 2 does not divide 1
    assert w is not None and not splits_over_subfield(1, 2, w)


def brute_force_witness(n, d, p, i):
    """Scan every m up to a bound for the smallest realizable prime power
    index q^a (q = p, or q^a dividing i(p^i - 1)) with gcd(nd, q^a) not
    dividing n.  A wild witness p^a is at most p*nd, a tame one at most
    i(p^i - 1)."""
    tame = i * (p ** i - 1)
    for m in range(2, max(tame, p * n * d) + 1):
        q = next(k for k in range(2, m + 1) if m % k == 0)
        rest = m
        while rest % q == 0:
            rest //= q
        if rest == 1 and (q == p or tame % m == 0) and n % gcd(n * d, m):
            return m
    return None


def test_non_split_witness_matches_brute_force():
    for p, top_i in ((2, 6), (3, 3), (5, 2)):
        for i in range(1, top_i + 1):
            for n in range(1, 5):
                for d in range(1, 7):
                    assert non_split_witness(n, d, p, i) == \
                        brute_force_witness(n, d, p, i), (n, d, p, i)


def witness_over_tame_primes(n, d, p, tame_primes, tame):
    """The witness search over every prime of i(p^i - 1), given its
    factorization, rather than over the primes of nd alone."""
    nd = n * d
    witnesses = []
    if gcd(d, p) != 1:
        a = 1
        while n % gcd(nd, p ** a) == 0:
            a += 1
        witnesses.append(p ** a)
    for q in tame_primes:
        if q == p:
            continue
        a = 1
        while tame % (q ** a) == 0:
            if n % gcd(nd, q ** a) != 0:
                witnesses.append(q ** a)
                break
            a += 1
    return min(witnesses) if witnesses else None


def test_non_split_witness_matches_search_over_tame_primes():
    # a prime q not dividing nd has gcd(nd, q^a) = 1, so it never witnesses
    for p in (2, 3, 5, 7, 11, 13):
        for i in range(1, 9):
            tame = i * (p ** i - 1)
            tame_primes = _prime_factors(tame)
            for n in range(1, 13):
                for d in range(1, 13):
                    assert non_split_witness(n, d, p, i) == \
                        witness_over_tame_primes(n, d, p, tame_primes,
                                                 tame), (n, d, p, i)


def test_non_split_witness_never_factors_the_tame_index():
    # 2^127 - 1 is prime: trial division of 127 * (2^127 - 1) would not end
    assert non_split_witness(1, 2, 2, 127) == 2          # wild: p divides d
    assert non_split_witness(1, 3, 2, 127) is None       # 3 divides no index
    assert non_split_witness(1, 127, 2, 127) == 127      # 127 divides i
    assert non_split_witness(127, 127, 2, 127) is None


def test_non_split_witness_large_degree():
    # 2^40 - 1 = 3 * 5^2 * 11 * 17 * 31 * 41 * 61681; a scan over every
    # q <= 40 * (2^40 - 1) would not finish
    assert non_split_witness(1, 3, 2, 40) == 3
    assert non_split_witness(1, 41, 2, 40) == 41
    assert non_split_witness(1, 61681, 2, 40) == 61681
    assert non_split_witness(41, 41, 2, 40) is None
    assert non_split_witness(1, 2, 2, 40) == 2          # wild: p divides d


def test_splits_globally_matches_subfield_conjunction():
    # cross-validation by enumerating realizable prime-power degrees <= nd
    for p in (2, 3, 5):
        for i in range(1, 5):
            for d in range(1, 7):
                for n in range(1, 7):
                    conj = True
                    nd = n * d
                    q = 2
                    while q <= nd:
                        is_prime = all(q % k for k in range(2, q))
                        if is_prime:
                            a = 1
                            while q ** a <= nd:
                                if galois_subfield_exists(p, i, q, a):
                                    conj &= splits_over_subfield(n, d, q ** a)
                                a += 1
                        q += 1
                    assert conj == splits_globally_charp(n, d, p, i), \
                        (p, i, d, n)


def test_d_part_examples():
    assert d_part(63, 6) == (7, 9)
    assert d_part(10, 1) == (10, 1)
    assert d_part(3, 3) == (1, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 40))
def test_d_part_properties(m, d):
    a, b = d_part(m, d)
    assert a * b == m
    assert gcd(a, b) == 1
    assert gcd(d, a) == 1
    # every prime of b divides d
    bb = b
    q = 2
    while q <= bb:
        if bb % q == 0:
            assert d % q == 0
            while bb % q == 0:
                bb //= q
        q += 1


def test_descent_form_examples():
    form = descent_form(1, 3, 1, 2)
    assert form == GroupDescriptor(1, CSADescriptor(3, 2))
    back = base_change_group(form, 2)
    assert back.n == 1
    assert invariant(back.algebra) == BrauerClass(1, 3)
    form = descent_form(2, 2, 1, 2)
    assert form.n == 1 and form.algebra.d == 4 and form.algebra.r % 2 == 1
    assert descent_form(1, 3, 1, 1) == GroupDescriptor(1, CSADescriptor(3, 1))
    assert descent_form(1, 2, 1, 2) is None


def test_descent_round_trip_exhaustive():
    for n in range(1, 5):
        for d in range(1, 5):
            for r in range(d):
                if gcd(d, r) != 1 and not (d == 1 and r == 0):
                    continue
                for m in range(1, 5):
                    form = descent_form(n, d, r, m)
                    if form is None:
                        assert not splits_over_subfield(n, d, m)
                        continue
                    back = base_change_group(form, m)
                    assert back.n == n
                    assert back.algebra.d == d
                    assert invariant(back.algebra) == invariant(
                        CSADescriptor(d, r))
