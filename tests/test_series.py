import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autsplit.gftower import build_tower, frobenius, relative_norm, subfield_generator
from autsplit.series import (ApparentZero, BadResidue, DivideByApparentZero,
                             LaurentSeries, NotInvertible, NotUniformiser,
                             PDividesExponent, SeriesMatrix,
                             frobenius_coeffwise, hensel_root,
                             norm_equation_solve, reversion, substitute,
                             unramified_norm)

T4 = build_tower(2, 2, 3, 1)       # ambient F_64; subfields F_2, F_4, F_64
T3 = build_tower(3, 1, 2, 1)       # ambient F_9; subfields F_3, F_9


def sample_series(tower, j, rng, prec=16, val_range=(-2, 3), min_terms=0):
    val = rng.randrange(*val_range)
    pairs = []
    for k in range(val, prec):
        code = rng.randrange(tower.p ** j)
        if code:
            pairs.append((k, subfield_generator(tower, j) ** (code - 1)))
    if len(pairs) < min_terms:
        pairs.append((val, tower.one()))
    return LaurentSeries.from_pairs(tower, j, pairs, prec)


# -- ring basics ----------------------------------------------------------

def test_T_times_T_inverse():
    T = LaurentSeries.T_power(T4, 2, 1, 16)
    Tinv = LaurentSeries.T_power(T4, 2, -1, 16)
    assert T * Tinv == LaurentSeries.one(T4, 2, 14)


def test_polynomial_identity_char3():
    one = LaurentSeries.one(T3, 1, 16)
    T = LaurentSeries.T_power(T3, 1, 1, 16)
    lhs = (one + T) * (one - T)
    assert lhs == one - T * T


def test_geometric_series_inverse():
    one = LaurentSeries.one(T4, 2, 32)
    T = LaurentSeries.T_power(T4, 2, 1, 32)
    inv = (one - T).inverse()
    # oracle: multiply back and compare to 1 within precision
    assert inv * (one - T) == LaurentSeries.one(T4, 2, 30)
    for k in range(10):
        assert inv.coeff(k) == T4.one()


def test_divide_by_apparent_zero():
    z = LaurentSeries.zero(T4, 2, 8)
    one = LaurentSeries.one(T4, 2, 8)
    with pytest.raises(DivideByApparentZero):
        one / z


def test_mul_precision_propagation():
    a = LaurentSeries.from_pairs(T4, 2, [(2, T4.one())], 10)  # T^2 mod T^10
    b = LaurentSeries.from_pairs(T4, 2, [(3, T4.one())], 7)   # T^3 mod T^7
    c = a * b
    assert c.val == 5
    assert c.prec == min(10 + 3, 7 + 2)


def test_ring_axioms_sampled():
    rng = random.Random(5)
    for _ in range(40):
        a = sample_series(T4, 2, rng)
        b = sample_series(T4, 2, rng)
        c = sample_series(T4, 2, rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def _f4_element(k):
    return T4.zero() if k == 0 else subfield_generator(T4, 2) ** (k - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_constant_arithmetic_matches_field(c1, c2, c3):
    x1, x2, x3 = (_f4_element(c) for c in (c1, c2, c3))
    s1 = LaurentSeries.constant(x1, 2, 8)
    s2 = LaurentSeries.constant(x2, 2, 8)
    s3 = LaurentSeries.constant(x3, 2, 8)
    assert (s1 * s2 + s3).coeff(0) == x1 * x2 + x3


# -- coefficientwise Frobenius ---------------------------------------------

def test_frobenius_coeffwise_trivial():
    rng = random.Random(1)
    s = sample_series(T4, 2, rng)
    assert frobenius_coeffwise(s, 0) == s
    assert frobenius_coeffwise(s, 2) == s  # series over F_4, e = j


def test_frobenius_coeffwise_squares():
    zeta = subfield_generator(T4, 2)
    s = LaurentSeries.from_pairs(T4, 2, [(0, zeta), (1, zeta)], 8)
    out = frobenius_coeffwise(s, 1)
    assert out.coeff(0) == zeta * zeta
    assert out.coeff(1) == zeta * zeta


# -- substitution -----------------------------------------------------------

def test_substitute_identity_and_monomial():
    rng = random.Random(2)
    s = sample_series(T4, 2, rng, min_terms=1)
    T = LaurentSeries.T_power(T4, 2, 1, 16)
    assert substitute(s, T) == s
    zeta = subfield_generator(T4, 2)
    aT = LaurentSeries.from_pairs(T4, 2, [(1, zeta)], 16)
    mono = LaurentSeries.T_power(T4, 2, 3, 16)
    out = substitute(mono, aT)
    assert out == LaurentSeries.from_pairs(T4, 2, [(3, zeta ** 3)], 16)


def test_substitute_geometric_oracle():
    prec = 10
    one = LaurentSeries.one(T4, 2, prec)
    T = LaurentSeries.T_power(T4, 2, 1, prec)
    s = (one - T).inverse()
    target = T + T * T
    lhs = substitute(s, target)
    # oracle: sum_k (T + T^2)^k computed directly
    acc = LaurentSeries.one(T4, 2, prec)
    power = LaurentSeries.one(T4, 2, prec)
    for _ in range(1, prec):
        power = power * target
        acc = acc + power
    assert lhs == acc


def test_substitute_associativity_sampled():
    rng = random.Random(9)
    for _ in range(10):
        s = sample_series(T4, 2, rng, prec=12)
        t1 = LaurentSeries.from_pairs(
            T4, 2, [(1, T4.one())] +
            [(k, subfield_generator(T4, 2) ** rng.randrange(3))
             for k in range(2, 6)], 12)
        t2 = LaurentSeries.from_pairs(
            T4, 2, [(1, subfield_generator(T4, 2))] +
            [(k, subfield_generator(T4, 2) ** rng.randrange(3))
             for k in range(2, 6)], 12)
        assert substitute(substitute(s, t1), t2) == \
            substitute(s, substitute(t1, t2))


def test_substitute_rejects_non_uniformiser():
    s = LaurentSeries.one(T4, 2, 8)
    bad = LaurentSeries.T_power(T4, 2, 2, 8)
    with pytest.raises(NotUniformiser):
        substitute(s, bad)


# -- Hensel ------------------------------------------------------------------

def hensel_oracle(s, m):
    """Solve x^m = s coefficient by coefficient with undetermined
    coefficients; independent of the Newton path."""
    t = s.tower
    prec = s.prec
    coeffs = [t.one()]
    m_f = t.from_int(m)
    for k in range(1, prec):
        x = LaurentSeries(t, s.j, 0, [c.log for c in coeffs], k + 1)
        # (x + cT^k)^m = x^m + m c T^k + ... since x has leading term 1
        defect = (s - x ** m).coeff(k)
        coeffs.append(defect / m_f)
    return LaurentSeries(t, s.j, 0, [c.log for c in coeffs], prec)


def test_hensel_trivial_cases():
    one = LaurentSeries.one(T4, 2, 16)
    assert hensel_root(one, 3) == one
    s = one + LaurentSeries.T_power(T4, 2, 1, 16)
    assert hensel_root(s, 1) == s


def test_hensel_cube_root_char2():
    one = LaurentSeries.one(T4, 2, 20)
    T = LaurentSeries.T_power(T4, 2, 1, 20)
    s = one + T
    x = hensel_root(s, 3)
    assert x ** 3 == s
    assert x == hensel_oracle(s, 3)
    assert x.coeff(0) == T4.one() and x.coeff(1) == T4.one()


def test_hensel_random_inputs():
    rng = random.Random(4)
    for m in (3, 5, 7):
        for _ in range(10):
            pairs = [(0, T4.one())] + [
                (k, subfield_generator(T4, 2) ** rng.randrange(3))
                for k in range(1, 12) if rng.random() < 0.7]
            s = LaurentSeries.from_pairs(T4, 2, pairs, 16)
            x = hensel_root(s, m)
            assert x ** m == s


def test_hensel_errors():
    T = LaurentSeries.T_power(T4, 2, 1, 8)
    one = LaurentSeries.one(T4, 2, 8)
    with pytest.raises(BadResidue):
        hensel_root(T, 3)
    with pytest.raises(PDividesExponent):
        hensel_root(one + T, 2)


# -- unramified norms ----------------------------------------------------------

def test_unramified_norm_T_and_identity():
    T = LaurentSeries.T_power(T4, 6, 1, 16)
    n = unramified_norm(T, 2, 3)
    assert n == LaurentSeries.T_power(T4, 2, 3, 16)
    # d = 1 is the identity reinterpreted over the base
    assert unramified_norm(T, 6, 1) == LaurentSeries.T_power(T4, 6, 1, 16)


def test_unramified_norm_constant_cross_check():
    z = subfield_generator(T4, 6)
    s = LaurentSeries.constant(z, 6, 16)
    n = unramified_norm(s, 2, 3)
    assert n.coeff(0) == relative_norm(z, 2, 3)


def test_unramified_norm_multiplicative():
    rng = random.Random(8)
    for _ in range(20):
        a = sample_series(T4, 6, rng, min_terms=1)
        b = sample_series(T4, 6, rng, min_terms=1)
        assert unramified_norm(a * b, 2, 3) == \
            unramified_norm(a, 2, 3) * unramified_norm(b, 2, 3)


# -- norm equation ---------------------------------------------------------

def test_norm_equation_trivial():
    one = LaurentSeries.one(T4, 2, 16)
    lam = norm_equation_solve(one, 2, 3)
    assert unramified_norm(lam, 2, 3) == one


def test_norm_equation_uniformiser_power():
    c = LaurentSeries.T_power(T4, 2, 3, 16)
    lam = norm_equation_solve(c, 2, 3)
    assert lam.val == 1
    assert unramified_norm(lam, 2, 3) == c


def test_norm_equation_example_f2():
    t = build_tower(2, 1, 3, 1)
    one = LaurentSeries.one(t, 1, 24)
    T = LaurentSeries.T_power(t, 1, 1, 24)
    c = one + T
    lam = norm_equation_solve(c, 1, 3)
    assert lam.val == 0
    assert unramified_norm(lam, 1, 3) == c


def test_norm_equation_no_solution_by_valuation():
    c = LaurentSeries.T_power(T4, 2, 1, 16)   # val 1, d = 3 does not divide
    assert norm_equation_solve(c, 2, 3) is None


def test_norm_equation_random_units():
    rng = random.Random(12)
    for _ in range(10):
        c = sample_series(T4, 2, rng, val_range=(0, 1), min_terms=1)
        if not c or c.val % 3 != 0:
            continue
        lam = norm_equation_solve(c, 2, 3)
        assert unramified_norm(lam, 2, 3) == c


def test_norm_equation_rejects_zero():
    with pytest.raises(ApparentZero):
        norm_equation_solve(LaurentSeries.zero(T4, 2, 8), 2, 3)


# -- reversion ---------------------------------------------------------------

def test_reversion_round_trip():
    rng = random.Random(2)
    for _ in range(8):
        t = LaurentSeries.from_pairs(
            T4, 2, [(1, subfield_generator(T4, 2) ** rng.randrange(1, 3))] +
            [(k, subfield_generator(T4, 2) ** rng.randrange(3))
             for k in range(2, 8)], 14)
        r = reversion(t)
        back = substitute(r, t)
        assert back == LaurentSeries.T_power(T4, 2, 1, 14)


# -- matrices over the series field -----------------------------------------

def sample_matrix(tower, j, n, rng, prec=16):
    rows = [[sample_series(tower, j, rng, prec, val_range=(-1, 3))
             for _ in range(n)] for _ in range(n)]
    return SeriesMatrix(tower, j, prec, rows)


def permutation_det(mat):
    """Leibniz expansion: sum over permutations of signed entry products."""
    n = mat.n
    total = LaurentSeries.zero(mat.tower, mat.j, mat.prec + 8 * n)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n)
                         for b in range(a + 1, n))
        term = LaurentSeries.one(mat.tower, mat.j, mat.prec + 8 * n)
        for row, col in enumerate(perm):
            term = term * mat.rows[row][col]
        total = total - term if inversions % 2 else total + term
    return total


def test_series_matrix_det_matches_permutation_expansion():
    rng = random.Random(20)
    for tower, j in ((T4, 2), (T4, 6), (T3, 2)):
        for n in (1, 2, 3, 4):
            for _ in range(3):
                M = sample_matrix(tower, j, n, rng)
                det = M.det()
                assert det == permutation_det(M)
                assert det.prec >= M.prec - 8 * n    # the comparison means something


def test_series_matrix_singular_det_is_zero():
    rng = random.Random(21)
    M = sample_matrix(T4, 2, 3, rng)
    rows = [list(r) for r in M.rows]
    rows[2] = list(rows[0])
    singular = SeriesMatrix(T4, 2, M.prec, rows)
    assert not singular.det()
    with pytest.raises(NotInvertible):
        singular.inverse()


def test_series_matrix_inverse_times_matrix_is_identity():
    rng = random.Random(22)
    for tower, j in ((T4, 6), (T3, 2)):
        for n in (3, 5):
            checked = 0
            while checked < 3:
                M = sample_matrix(tower, j, n, rng, prec=24)
                if not M.det():
                    continue
                ident = SeriesMatrix.identity(tower, j, n, M.prec).rows
                assert (M.inverse() * M).rows == ident
                assert (M * M.inverse()).rows == ident
                x = M.solve(ident[0])
                assert [sum((M.rows[s][t] * x[t] for t in range(n)),
                            LaurentSeries.zero(tower, j, 24))
                        for s in range(n)] == list(ident[0])
                checked += 1


def test_series_matrix_product_is_associative():
    rng = random.Random(23)
    A, B, C = (sample_matrix(T3, 2, 3, rng) for _ in range(3))
    assert ((A * B) * C).rows == (A * (B * C)).rows
    ident = SeriesMatrix.identity(T3, 2, 3, 16)
    assert (ident * A).rows == A.rows == (A * ident).rows


def test_proportional_to_sees_a_perturbation_once_prec_exceeds_it():
    rng = random.Random(24)
    z = subfield_generator(T4, 6)
    unit = LaurentSeries.from_pairs(T4, 6, [(0, z), (1, z ** 5), (4, z ** 9)],
                                    64)
    for prec in (6, 10, 14):
        # unit entries, so every entry and the ratio are known mod T^prec
        one = LaurentSeries.one(T4, 6, prec)
        M = SeriesMatrix(T4, 6, prec, [[one + sample_series(T4, 6, rng, prec,
                                                            val_range=(1, 3))
                                        for _ in range(3)] for _ in range(3)])
        scaled = M.map_entries(lambda e: e * unit)
        assert M.proportional_to(scaled) and scaled.proportional_to(M)
        for k in range(2, 13):
            bump = LaurentSeries.T_power(T4, 6, k, 64)
            rows = [list(r) for r in scaled.rows]
            rows[1][2] = rows[1][2] + bump
            perturbed = SeriesMatrix(T4, 6, prec, rows)
            assert M.proportional_to(perturbed) == (k >= prec)
