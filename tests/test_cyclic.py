import random
import signal

import pytest

from autsplit.autk import LocalFieldAuto, extend_auto, invert_auto
from autsplit.cyclic import (AdmissibilityFailure, AlgebraElement,
                             AlgebraMatrix, CyclicAlgebra, SemilinearAuto,
                             acts_like, acts_trivially, compose_semilinear,
                             generator_matrices)
from autsplit.gftower import build_tower, frobenius, subfield_generator
from autsplit.series import (LaurentSeries, SeriesMatrix, norm_equation_solve,
                             series_in_subfield, unramified_norm)
from series_matrix_reference import NotInvertible, matrix_inverse

PREC = 16


def make_algebra(p, i, d, r, prec=PREC):
    return CyclicAlgebra(build_tower(p, i, d, 1), i, d, r, prec)


# -- references and constructors no command needs --------------------------

def dense(alg, rows):
    """The matrix with these dense rows; an entry that is alg.zero() itself
    (no terms, every component known to exactly alg.prec) is not stored."""
    return AlgebraMatrix(alg, [
        {t: e for t, e in enumerate(row)
         if not all(not c and c.prec == alg.prec for c in e.comps)}
        for row in rows])


def power(a, e):
    """a^e for e >= 0 by repeated squaring."""
    result = a.alg.one()
    while e:
        if e & 1:
            result = result * a
        a = a * a if e > 1 else a
        e >>= 1
    return result


def inverse(a):
    """The two-sided inverse of a: column 0 of rep(a)^-1 solves
    rep(a) x = e_0, and x holds its components."""
    rows = matrix_inverse(a.regular_representation()).rows
    return AlgebraElement(a.alg, tuple(row[0] for row in rows))


def matrix_reduced_norm(M):
    """det of the (n*d) x (n*d) matrix of entrywise regular
    representations: the reduced norm of M_n(A) restricted to M."""
    alg, n, d = M.alg, M.n, M.alg.d
    zero = LaurentSeries.zero(alg.tower, alg.jE, alg.prec)
    big = [[zero] * (n * d) for _ in range(n * d)]
    for s, row in enumerate(M.entries):
        for t, a in row.items():
            rep = a.regular_representation().rows
            for rr in range(d):
                for cc in range(d):
                    big[s * d + rr][t * d + cc] = rep[rr][cc]
    det = SeriesMatrix(alg.tower, alg.jE, alg.prec, big).det()
    return det.with_subfield(alg.i)


def phi_auto(alg, n, alphaE, x):
    """The twist automorphism phi~(alpha, x) with trivial inner part."""
    return SemilinearAuto(alg, n, None, alphaE, x)


def intaut(g, g_inv):
    """Conjugation by g."""
    alg = g.alg
    ident = LocalFieldAuto.ev(alg.tower.one(), alg.jE, alg.prec)
    one = LaurentSeries.one(alg.tower, alg.jE, alg.prec)
    return SemilinearAuto(alg, g.n, g, ident, one, inner_inv=g_inv,
                          check=False)


def identity_semilinear(alg, n):
    ident = LocalFieldAuto.ev(alg.tower.one(), alg.jE, alg.prec)
    one = LaurentSeries.one(alg.tower, alg.jE, alg.prec)
    return phi_auto(alg, n, ident, one)


def unshared_entrywise(f, M):
    """phi~(M) with every stored entry mapped on its own by apply_element,
    sharing no memo with src's phi~ pass; every stored key is kept."""
    return AlgebraMatrix(f.alg, [{t: f.apply_element(e) for t, e in
                                  row.items()} for row in M.entries])


def invert_semilinear(f):
    """f^-1 = intaut(phi^-1(g^-1)) phi~(alpha^-1, alpha^-1(x^-1))."""
    alpha_inv = invert_auto(f.alphaE)
    x_inv = alpha_inv(f.x.inverse())
    shell = SemilinearAuto(f.alg, f.n, None, alpha_inv, x_inv, check=False)
    return SemilinearAuto(f.alg, f.n, unshared_entrywise(shell, f.inner_inv),
                          alpha_inv, x_inv,
                          inner_inv=unshared_entrywise(shell, f.inner),
                          check=False)


def rand_series(alg, rng, lo=0, hi=6):
    t = alg.tower
    z = subfield_generator(t, alg.jE)
    order = t.p ** alg.jE - 1
    pairs = []
    for k in range(lo, hi):
        c = rng.randrange(order + 1)
        if c:
            pairs.append((k, z ** (c - 1)))
    if not pairs:
        pairs = [(0, t.one())]
    return LaurentSeries.from_pairs(t, alg.jE, pairs, alg.prec)


def rand_element(alg, rng):
    return alg.from_components([rand_series(alg, rng) for _ in range(alg.d)])


def rand_matrix(alg, n, rng):
    return dense(alg, [[rand_element(alg, rng) for _ in range(n)]
                       for _ in range(n)])


def rand_k_auto(alg, rng):
    t = alg.tower
    z = subfield_generator(t, alg.i)
    order = t.p ** alg.i - 1
    pairs = [(1, z ** rng.randrange(order))]
    for k in range(2, 8):
        c = rng.randrange(order + 1)
        if c:
            pairs.append((k, z ** (c - 1)))
    img = LaurentSeries.from_pairs(t, alg.i, pairs, alg.prec)
    return LocalFieldAuto(t, alg.i, rng.randrange(alg.i), img)


def admissible_pair(alg, rng):
    """Random automorphism of E over K together with an admissible twist."""
    alpha = extend_auto(rand_k_auto(alg, rng), alg.jE)
    Tr = LaurentSeries.T_power(alg.tower, alg.i, alg.r, alg.prec)
    rhs = (alpha(Tr.with_subfield(alg.jE)) *
           LaurentSeries.T_power(alg.tower, alg.jE, -alg.r, alg.prec))
    x = norm_equation_solve(rhs.with_subfield(alg.i), alg.i, alg.d)
    return alpha, x


# -- multiplication ----------------------------------------------------------

def test_u_power_d_is_uniformiser_power():
    for (p, i, d, r) in ((2, 1, 3, 1), (3, 1, 2, 1), (2, 2, 3, 2)):
        alg = make_algebra(p, i, d, r)
        u = alg.u()
        assert u * power(u, d - 1) == alg.scalar(
            LaurentSeries.T_power(alg.tower, alg.jE, r, alg.prec))


def test_exact_u_powers():
    # u_power(e) is the product of e copies of u, or of -e copies of the
    # inverse that elimination finds while r < prec
    for (p, i, d, r) in ((2, 1, 3, 1), (3, 1, 2, 1), (2, 2, 3, 2),
                         (2, 1, 1, 2)):
        alg = make_algebra(p, i, d, r)
        u, u_inv = alg.u(), inverse(alg.u())
        for e in range(-2 * d - 1, 2 * d + 2):
            assert alg.u_power(e) == (power(u, e) if e >= 0
                                      else power(u_inv, -e)), e
            assert alg.u_power(e) * alg.u_power(-e) == alg.one()
    # r >= prec: u is singular mod T^prec, yet u^-1 = T^-r u^(d-1) is exact
    alg = make_algebra(2, 1, 3, 2, prec=2)
    with pytest.raises(NotInvertible):
        inverse(alg.u())
    assert alg.u_power(-1) * alg.u() == alg.u() * alg.u_power(-1) == alg.one()


def test_commutative_part_is_series_product():
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(0)
    x, y = rand_series(alg, rng), rand_series(alg, rng)
    assert alg.scalar(x) * alg.scalar(y) == alg.scalar(x * y)


def test_side_convention_pinned():
    # u^(-1) x u = sigma(x), equivalently x u = u sigma(x): the single most
    # likely side error, checked both ways on a generator of E
    alg = make_algebra(2, 1, 3, 1)
    z = subfield_generator(alg.tower, 3)
    x = alg.scalar(LaurentSeries.constant(z, 3, alg.prec))
    sx = alg.scalar(LaurentSeries.constant(frobenius(z, 1), 3, alg.prec))
    u = alg.u()
    assert x * u == u * sx
    assert inverse(u) * x * u == sx
    # realized via u^(d-1) T^(-r) as well
    ui = power(u, 2) * alg.scalar(
        LaurentSeries.T_power(alg.tower, 3, -1, alg.prec))
    assert ui * x * u == sx


def test_associativity_distributivity_sampled():
    alg = make_algebra(2, 2, 3, 1)
    rng = random.Random(1)
    for _ in range(10):
        a, b, c = (rand_element(alg, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_element_inverse():
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(2)
    for _ in range(6):
        a = rand_element(alg, rng)
        if not a.reduced_norm():
            continue
        assert a * inverse(a) == alg.one()
        assert inverse(a) * a == alg.one()


@pytest.mark.parametrize("p,i,d,r", [(2, 1, 3, 1), (3, 1, 2, 1), (2, 1, 1, 2)])
def test_constants_are_built_once_and_shared(p, i, d, r):
    alg = make_algebra(p, i, d, r)
    z = alg.zero_series
    assert (z.j, z.val, z.logs, z.prec) == (alg.jE, alg.prec, (), alg.prec)
    assert alg.zero() is alg.zero()
    assert alg.one() is alg.one()
    assert alg.u() is alg.u()
    assert alg.one() == alg.scalar(LaurentSeries.one(alg.tower, alg.jE,
                                                     alg.prec))
    assert alg.u() == alg.u_power(1)
    assert all(c is z for c in alg.zero().comps)
    assert all(c is z for c in alg.one().comps[1:])
    for e in range(-d, 2 * d):
        comps = alg.u_power(e).comps
        assert all(c is z for k, c in enumerate(comps) if k != e % d)
    x = alg.scalar(rand_series(alg, random.Random(3)))
    rep = x.regular_representation().rows
    assert all(rep[s][t] is z for s in range(d) for t in range(d) if s != t)


def test_product_with_a_missing_component_stores_the_zero_series():
    alg = make_algebra(2, 2, 3, 1)
    rng = random.Random(4)
    x, y = (alg.scalar(rand_series(alg, rng, 0)) for _ in range(2))
    for prod in (x * y, y * x, x * alg.u(), alg.u() * alg.u()):
        missing = [c for c in prod.comps if not c.logs]
        assert len(missing) == 2
        assert all(c is alg.zero_series for c in missing)


def times_one_reference(x, one, one_left):
    """x * one (or one * x) by the general formula, component by component:
    c * 1 for each component c with a term, capped at alg.prec, and
    alg.zero_series for each without."""
    alg, unit = x.alg, one.comps[0]
    out = []
    for c in x.comps:
        if not c.logs:
            out.append(alg.zero_series)
            continue
        prod = unit * c if one_left else c * unit
        out.append(prod.truncate(alg.prec) if prod.prec > alg.prec else prod)
    return [(c.val, c.logs, c.prec) for c in out]


@pytest.mark.parametrize("p,i,d,r", [(2, 1, 1, 2), (3, 1, 2, 1), (2, 2, 3, 1)])
def test_product_by_one_takes_no_series_product(p, i, d, r, monkeypatch):
    alg = make_algebra(p, i, d, r, prec=10)
    t, jE, prec = alg.tower, alg.jE, alg.prec
    rng = random.Random(41)
    # shaped like 1: at alg.prec, above it, and with its other components
    # zeros known below alg.prec
    ones = [alg.one(),
            alg.scalar(LaurentSeries.one(t, jE, prec + 4)),
            alg.from_components([LaurentSeries.one(t, jE, prec)]
                                + [LaurentSeries.zero(t, jE, prec - 3)]
                                * (d - 1))]
    xs = [alg.u_power(-1), alg.u_power(-d - 1),
          alg.scalar(LaurentSeries.T_power(t, jE, -3, prec)),
          alg.zero(), *ones]
    # empty components known below alg.prec next to nonzero ones, and
    # components of negative valuation at precisions around alg.prec
    xs.append(alg.from_components([LaurentSeries.zero(t, jE, prec - 4)] * d))
    xs += [rough_element(alg, rng) for _ in range(30)]
    assert any(not c.logs and c.prec < prec for x in xs for c in x.comps)
    assert any(c.logs and c.val < 0 for x in xs for c in x.comps)
    expected = [(times_one_reference(x, one, False),
                 times_one_reference(x, one, True))
                for x in xs for one in ones]
    calls = []
    mul = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    got = [([(c.val, c.logs, c.prec) for c in (x * one).comps],
            [(c.val, c.logs, c.prec) for c in (one * x).comps])
           for x in xs for one in ones]
    assert got == expected
    assert not calls
    for x in xs:
        assert all(c is alg.zero_series
                   for c in (x * alg.one()).comps if not c.logs)
    # a 1 known below alg.prec is not shaped like 1: a series product
    rough_one = alg.scalar(LaurentSeries.one(t, jE, prec - 1))
    assert rough_one * alg.u() == alg.u() and calls


def test_negative_power_of_an_algebra_matrix_is_refused():
    # e >>= 1 never reaches 0 from e < 0, so the loop must not be entered
    alg = make_algebra(2, 1, 3, 1)
    ident = AlgebraMatrix.identity(alg, 1)

    def expire(signum, frame):
        raise TimeoutError("negative power still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for e in (-1, -2, -7):
            with pytest.raises(ValueError):
                ident ** e
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert ident ** 0 == ident and ident ** 3 == ident


# -- regular representation and norms ------------------------------------------

def test_rep_identity_and_u():
    alg = make_algebra(3, 1, 2, 1)
    rep1 = alg.one().regular_representation().rows
    one = LaurentSeries.one(alg.tower, 2, alg.prec)
    assert rep1[0][0] == one and rep1[1][1] == one
    assert not rep1[0][1] and not rep1[1][0]
    repu = alg.u().regular_representation().rows
    Tr = LaurentSeries.T_power(alg.tower, 2, 1, alg.prec)
    assert not repu[0][0] and not repu[1][1]
    assert repu[0][1] == Tr and repu[1][0] == one


def test_rep_of_scalar_is_diagonal_of_conjugates():
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(3)
    x = rand_series(alg, rng)
    rep = alg.scalar(x).regular_representation().rows
    for t in range(3):
        from autsplit.series import frobenius_coeffwise
        assert rep[t][t] == frobenius_coeffwise(x, t)
        for s in range(3):
            if s != t:
                assert not rep[s][t]


def test_rep_multiplicative():
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(4)
    for _ in range(5):
        a, b = rand_element(alg, rng), rand_element(alg, rng)
        ra = a.regular_representation().rows
        rb = b.regular_representation().rows
        rab = (a * b).regular_representation().rows
        prod = [[sum((ra[s][k] * rb[k][t] for k in range(3)),
                     LaurentSeries.zero(alg.tower, alg.jE, alg.prec))
                 for t in range(3)] for s in range(3)]
        assert all(prod[s][t] == rab[s][t] for s in range(3) for t in range(3))


def test_nrd_trivial_and_u():
    alg = make_algebra(3, 1, 2, 1)
    assert alg.one().reduced_norm() == LaurentSeries.one(alg.tower, 1, alg.prec)
    # det [[0, T], [1, 0]] = -T
    assert alg.u().reduced_norm() == -LaurentSeries.T_power(alg.tower, 1, 1,
                                                            alg.prec)


def test_nrd_on_E_matches_unramified_norm():
    alg = make_algebra(2, 2, 3, 1)
    rng = random.Random(5)
    for _ in range(10):
        x = rand_series(alg, rng)
        assert alg.scalar(x).reduced_norm() == unramified_norm(x, 2, 3)


def test_nrd_multiplicative_and_rational():
    for (p, i, d, r) in ((2, 1, 2, 1), (3, 1, 2, 1), (2, 2, 3, 1)):
        alg = make_algebra(p, i, d, r)
        rng = random.Random(6)
        for _ in range(5):
            a, b = rand_element(alg, rng), rand_element(alg, rng)
            na, nb, nab = (x.reduced_norm() for x in (a, b, a * b))
            assert na * nb == nab
            assert series_in_subfield(na, i)


# -- matrix layer ----------------------------------------------------------------

def test_matrix_nrd_identity_and_diag():
    alg = make_algebra(2, 1, 3, 1)
    idm = AlgebraMatrix.identity(alg, 2)
    assert matrix_reduced_norm(idm) == LaurentSeries.one(alg.tower, 1,
                                                         alg.prec)
    rng = random.Random(7)
    a = rand_element(alg, rng)
    m = dense(alg, [[a, alg.zero()], [alg.zero(), alg.one()]])
    assert matrix_reduced_norm(m) == a.reduced_norm()


def test_matrix_nrd_multiplicative():
    alg = make_algebra(2, 1, 2, 1)
    rng = random.Random(8)
    for _ in range(4):
        A, B = rand_matrix(alg, 2, rng), rand_matrix(alg, 2, rng)
        assert matrix_reduced_norm(A * B) == \
            matrix_reduced_norm(A) * matrix_reduced_norm(B)


def test_matrix_w_reduced_norm_power_identity():
    # with b' > 1: matrix_reduced_norm(W)^(b') = Nrd(u * Id_n), using
    # W^(b') = u Id; both sides computed independently
    from autsplit.sections import SectionContext
    ctx = SectionContext(2, 3, 3, 1, 3, prec=12)
    W = ctx.matrix_w()
    alg = ctx.algebra
    lhs = matrix_reduced_norm(W) ** ctx.b2
    rhs = matrix_reduced_norm(AlgebraMatrix.scalar_matrix(alg.u(), ctx.n))
    assert lhs == rhs


# -- semilinear automorphisms ------------------------------------------------------

def test_phi_identity_and_image_of_u():
    alg = make_algebra(2, 1, 3, 1)
    ident = identity_semilinear(alg, 1)
    rng = random.Random(10)
    a = rand_element(alg, rng)
    assert ident.apply_element(a) == a
    alpha, x = admissible_pair(alg, rng)
    f = phi_auto(alg, 1, alpha, x)
    img = f.apply_element(alg.u())
    assert img == alg.u() * alg.scalar(x)


def test_phi_maps_one_as_alpha_does_without_calling_it(monkeypatch):
    # 1 + O(T^P) at, below and above alpha's precision, at u^0 and at u^1
    alg = make_algebra(2, 2, 3, 1)
    t, jE = alg.tower, alg.jE
    rng = random.Random(12)
    for _ in range(3):
        alpha, x = admissible_pair(alg, rng)
        f = phi_auto(alg, 1, alpha, x)
        tw = f._twist_powers()
        for P in (alg.prec - 3, alpha.prec, alpha.prec + 2):
            one = LaurentSeries.one(t, jE, P)
            zero = LaurentSeries.zero(t, jE, alg.prec)
            elts = [alg.from_components([one, zero, zero]),
                    alg.from_components([zero, one, zero])]
            expected = [entry_form(alg.from_components([alpha(one), zero,
                                                        zero])),
                        entry_form(alg.from_components([zero,
                                                        tw[1] * alpha(one),
                                                        zero]))]
            calls = []
            call = LocalFieldAuto.__call__
            with monkeypatch.context() as m:
                m.setattr(LocalFieldAuto, "__call__",
                          lambda a, s: calls.append(1) or call(a, s))
                got = [entry_form(f.apply_element(e)) for e in elts]
            assert got == expected and not calls


def test_phi_is_ring_homomorphism():
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(11)
    alpha, x = admissible_pair(alg, rng)
    f = phi_auto(alg, 1, alpha, x)
    for _ in range(12):
        a, b = rand_element(alg, rng), rand_element(alg, rng)
        assert f.apply_element(a * b) == f.apply_element(a) * f.apply_element(b)
        assert f.apply_element(a + b) == f.apply_element(a) + f.apply_element(b)


def test_admissibility_failure():
    alg = make_algebra(2, 1, 3, 1)
    ident = LocalFieldAuto.ev(alg.tower.one(), alg.jE, alg.prec)
    bad = LaurentSeries.T_power(alg.tower, alg.jE, 1, alg.prec)
    with pytest.raises(AdmissibilityFailure):
        phi_auto(alg, 1, ident, bad)


def test_alpha_must_commute_with_sigma():
    alg = make_algebra(2, 1, 3, 1)
    z8 = subfield_generator(alg.tower, 3)
    img = LaurentSeries.from_pairs(alg.tower, 3, [(1, z8)], alg.prec)
    alpha = LocalFieldAuto(alg.tower, 3, 0, img)
    with pytest.raises(ValueError):
        phi_auto(alg, 1, alpha, LaurentSeries.one(alg.tower, 3, alg.prec))


def test_apply_semilinear_identity_and_central():
    alg = make_algebra(2, 1, 2, 1)
    rng = random.Random(12)
    M = rand_matrix(alg, 2, rng)
    assert identity_semilinear(alg, 2).apply(M) == M
    # inner automorphism fixes central scalar matrices; in characteristic
    # 2, g = I + a*e_01 is its own inverse
    one = alg.one()
    g = AlgebraMatrix(alg, [{0: one, 1: rand_element(alg, rng)}, {1: one}])
    f = intaut(g, g)
    assert g * g == AlgebraMatrix.identity(alg, 2)
    central = AlgebraMatrix.scalar_matrix(
        alg.scalar(LaurentSeries.T_power(alg.tower, alg.jE, 1, alg.prec)), 2)
    assert f.apply(central) == central
    assert not acts_trivially(f, generator_matrices(f.alg, f.n))


def test_nrd_equivariance_under_semilinear():
    # Nrd(f(M)) = alpha(Nrd(M)) for the underlying K-automorphism alpha
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(13)
    alpha, x = admissible_pair(alg, rng)
    f = phi_auto(alg, 2, alpha, x)
    from autsplit.autk import restrict_auto
    alpha_k = restrict_auto(alpha, alg.i)
    for _ in range(5):
        M = rand_matrix(alg, 2, rng)
        lhs = matrix_reduced_norm(f.apply(M))
        rhs = alpha_k(matrix_reduced_norm(M))
        assert lhs == rhs


def test_compose_and_invert_semilinear():
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(14)
    alpha, x = admissible_pair(alg, rng)
    f = phi_auto(alg, 2, alpha, x)
    gens = generator_matrices(alg, 2)
    ident = identity_semilinear(alg, 2)
    assert acts_like(compose_semilinear(f, ident), f, gens)
    assert acts_trivially(compose_semilinear(f, invert_semilinear(f)), gens)
    # composition law phi(a,x) o phi(b,y) = phi(a o b, x a(y)) pointwise
    beta, y = admissible_pair(alg, rng)
    g = phi_auto(alg, 2, beta, y)
    comp = compose_semilinear(f, g)
    for G in gens:
        assert comp.apply(G) == f.apply(g.apply(G))


def test_compose_maps_a_shared_inner_entry_once(monkeypatch):
    # f2 = phi~(beta, y) has the identity as inner part and as its
    # inverse: one phi1-memo for both sides maps alg.one() once
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(16)
    f1 = phi_auto(alg, 3, *admissible_pair(alg, rng))
    f2 = phi_auto(alg, 3, *admissible_pair(alg, rng))
    assert f2.inner is f2.inner_inv
    apply_element = SemilinearAuto.apply_element
    seen = []

    def counting(self, a):
        seen.append(a)
        return apply_element(self, a)
    monkeypatch.setattr(SemilinearAuto, "apply_element", counting)
    comp = compose_semilinear(f1, f2)
    assert [a is alg.one() for a in seen] == [True]
    monkeypatch.undo()
    for G in generator_matrices(alg, 3):
        assert comp.apply(G) == f1.apply(f2.apply(G))


def test_compose_twist_cocycle():
    alg = make_algebra(2, 1, 3, 1)
    rng = random.Random(15)
    alpha, x = admissible_pair(alg, rng)
    beta, y = admissible_pair(alg, rng)
    f, g = phi_auto(alg, 1, alpha, x), phi_auto(alg, 1, beta, y)
    comp = compose_semilinear(f, g)
    assert comp.x == x * alpha(y)


def test_trivial_central_twist_acts_trivially():
    # intaut(s^(-1) Id) o phi(1, F^i(s)/s) is trivial for s in E^x
    alg = make_algebra(2, 1, 3, 1)
    t = alg.tower
    s = subfield_generator(t, 3)
    s_series = LaurentSeries.constant(s, 3, alg.prec)
    twist = LaurentSeries.constant(frobenius(s, 1) / s, 3, alg.prec)
    inner = AlgebraMatrix.scalar_matrix(
        alg.scalar(s_series.inverse()), 2)
    inner_inv = AlgebraMatrix.scalar_matrix(alg.scalar(s_series), 2)
    ident = LocalFieldAuto.ev(t.one(), 3, alg.prec)
    f = SemilinearAuto(alg, 2, inner, ident, twist, inner_inv=inner_inv,
                       check=False)
    assert acts_trivially(f, generator_matrices(f.alg, f.n))


# -- sparse products against a dense reference --------------------------------

def dense_product(A, B):
    """The schoolbook product over the dense view: the sum of a_sk * b_kt
    over the pairs with both factors nonzero, alg.zero() where none is."""
    n, zero = A.n, A.alg.zero()
    ra, rb = A.rows, B.rows
    out = []
    for s in range(n):
        row = []
        for t in range(n):
            acc = zero
            for k in range(n):
                if not ra[s][k].is_zero() and not rb[k][t].is_zero():
                    acc = acc + ra[s][k] * rb[k][t]
            row.append(acc)
        out.append(row)
    return out


def entry_form(e):
    """Everything an entry stores: per component the window and precision."""
    return [(c.val, c.logs, c.prec) for c in e.comps]


def rough_element(alg, rng):
    """A random element whose components may be zero, of negative
    valuation, or known to a precision other than alg.prec."""
    t = alg.tower
    comps = []
    for _ in range(alg.d):
        prec = rng.choice((alg.prec, alg.prec - 5, alg.prec + 3))
        if rng.random() < 0.3:
            comps.append(LaurentSeries.zero(t, alg.jE, prec))
            continue
        s = rand_series(alg, rng, lo=rng.randrange(-2, 3), hi=6)
        comps.append(LaurentSeries(t, alg.jE, s.val, s.logs, prec))
    return alg.from_components(comps)


def shaped_matrix(alg, n, rng, shape):
    zero = alg.zero()
    rows = [[zero] * n for _ in range(n)]
    if shape == "monomial":
        perm = list(range(n))
        rng.shuffle(perm)
        for s in range(n):
            rows[s][perm[s]] = rough_element(alg, rng)
    elif shape == "block":
        start = 0
        while start < n:
            size = rng.randint(1, n - start)
            for s in range(start, start + size):
                for t in range(start, start + size):
                    rows[s][t] = rough_element(alg, rng)
            start += size
    else:
        for s in range(n):
            for t in range(n):
                if rng.random() < 0.6:
                    rows[s][t] = rough_element(alg, rng)
    return dense(alg, rows)


def test_sparse_product_matches_dense_reference():
    rng = random.Random(16)
    for (p, i, d, r) in ((2, 1, 3, 1), (3, 1, 2, 1)):
        alg = make_algebra(p, i, d, r, prec=10)
        for n in range(1, 7):
            for shape in ("dense", "block", "monomial"):
                A = shaped_matrix(alg, n, rng, shape)
                B = shaped_matrix(alg, n, rng, rng.choice(
                    ("dense", "block", "monomial")))
                ref = dense_product(A, B)
                got = (A * B).rows
                for s in range(n):
                    for t in range(n):
                        assert entry_form(got[s][t]) == entry_form(ref[s][t])


def test_sparse_product_keeps_cancelled_entries():
    # a_00 b_00 + a_01 b_10 = x*y - x*y cancels: the entry has no terms,
    # is known to the precision the dense sum reaches, and equality keeps
    # judging it there
    alg = make_algebra(3, 1, 2, 1, prec=10)
    t = alg.tower
    x = alg.scalar(LaurentSeries.T_power(t, alg.jE, -3, alg.prec))
    y = alg.scalar(LaurentSeries.one(t, alg.jE, alg.prec))
    minus_y = alg.scalar(-LaurentSeries.one(t, alg.jE, alg.prec))
    zero = alg.zero()
    A = dense(alg, [[x, x], [zero, y]])
    B = dense(alg, [[y, zero], [minus_y, y]])
    prod = A * B
    ref = dense_product(A, B)
    entry = prod.rows[0][0]
    assert not any(c.logs for c in entry.comps)
    assert entry_form(entry) == entry_form(ref[0][0])
    assert entry.comps[0].prec == alg.prec - 3
    # T^8 is beyond the cancelled entry's precision, so it compares equal
    bump = alg.scalar(LaurentSeries.T_power(t, alg.jE, 8, alg.prec))
    assert prod == dense(alg, [[bump, ref[0][1]], list(ref[1])])


def test_image_row_stored_on_one_side_reads_as_zero():
    # g1 = diag(T^5, T^-5) and the antidiagonal g2 = g2^-1 both send the
    # generator x*e_01 to the single entry T^5 phi(x) T^5 = O(T^10),
    # stored in row 0 for g1 and in row 1 for g2: equal, though a plain
    # comparison of the stored rows would say otherwise
    alg = make_algebra(2, 1, 3, 1, prec=10)

    def t_pow(k):
        return alg.scalar(LaurentSeries.T_power(alg.tower, alg.jE, k,
                                                alg.prec))

    g1 = AlgebraMatrix(alg, [{0: t_pow(5)}, {1: t_pow(-5)}])
    g1_inv = AlgebraMatrix(alg, [{0: t_pow(-5)}, {1: t_pow(5)}])
    g2 = AlgebraMatrix(alg, [{1: t_pow(-5)}, {0: t_pow(5)}])
    f1, f2 = intaut(g1, g1_inv), intaut(g2, g2)
    # the generators e_01 and u*e_01
    gens = [G for G in generator_matrices(alg, 2)[4:] if 1 in G.entries[0]]
    assert len(gens) == 2
    for G in gens:
        assert f1.apply(G) == f2.apply(G)
    assert acts_like(f1, f2, gens) and acts_like(f2, f1, gens)


def test_matrices_of_different_sizes_are_not_equal():
    # the common leading block agrees, which row-by-row zip alone accepted
    alg = make_algebra(2, 1, 3, 1, prec=10)
    for small, big in ((AlgebraMatrix.identity(alg, 2),
                        AlgebraMatrix.identity(alg, 3)),
                       (AlgebraMatrix.scalar_matrix(alg.u(), 1),
                        AlgebraMatrix(alg, [{0: alg.u()}, {}]))):
        assert small != big and big != small
        assert not small == big and not big == small
        assert small == AlgebraMatrix(alg, [dict(row) for row in small.entries])
