import itertools
import random

import pytest

from autsplit.autk import LocalFieldAuto, compose_auto, restrict_auto
from autsplit.cyclic import (AlgebraElement, AlgebraMatrix, SemilinearAuto,
                             acts_like, acts_trivially, compose_semilinear)
from autsplit.gftower import (FFElement, frobenius, in_subfield,
                              subfield_generator)
from autsplit.sections import (SectionContext, glue_section, random_j_element,
                               random_k_auto, section_Ca,
                               section_Caprime, section_Cb, section_Cbprime,
                               section_J, verify_section)
from autsplit.series import LaurentSeries, series_in_subfield
from test_cyclic import (entry_form, invert_semilinear, shaped_matrix,
                         unshared_entrywise)


CTX1 = SectionContext(2, 1, 3, 1, 1, prec=24)
CTX2 = SectionContext(3, 1, 2, 1, 2, prec=24)
CTX3 = SectionContext(2, 2, 3, 1, 3, prec=24)
CTX4 = SectionContext(2, 3, 3, 1, 3, prec=16)   # b' = 3, exercises W


def test_context_invariants():
    for ctx in (CTX1, CTX2, CTX3, CTX4):
        assert ctx.a * ctx.b == ctx.p ** ctx.i - 1
        assert ctx.a2 * ctx.b2 == ctx.i
        assert ctx.n % (ctx.b * ctx.b2) == 0
        assert (ctx.c * ctx.a2 + 1) % ctx.d == 0
        assert frobenius(ctx.y, ctx.i * ctx.d) / ctx.y == \
            ctx.zeta ** (ctx.a * ctx.r)


def test_context_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SectionContext(2, 1, 2, 1, 1, 8)     # gcd(d, p) = 2
    with pytest.raises(ValueError):
        SectionContext(2, 1, 3, 3, 1, 8)     # gcd(d, r) = 3
    # non-split parameters refuse with a witness message
    with pytest.raises(ValueError, match="witness"):
        SectionContext(3, 1, 2, 1, 1, 8)     # b = 2 does not divide n = 1
    with pytest.raises(ValueError, match="witness"):
        SectionContext(2, 2, 3, 1, 1, 8)


def test_root_of_zeta():
    assert CTX1.z == CTX1.tower.one()     # a = 1
    # p=2, i=2, d=5: a = 3, b = 1; z = zeta^2 since (zeta^2)^5 = zeta
    ctx = SectionContext(2, 2, 5, 1, 1, prec=8)
    assert ctx.a == 3 and ctx.b == 1
    z = ctx.z
    assert z == ctx.zeta ** 2
    assert z ** (ctx.d * ctx.b2) == ctx.zeta ** (ctx.b * ctx.r)
    for c in (CTX1, CTX2, CTX3, CTX4, ctx):
        assert (c.z ** c.a).log == 0   # z^a = 1


def test_section_J_identity_and_hensel_witness():
    ident = LocalFieldAuto.ev(CTX1.tower.one(), 1, CTX1.prec)
    f = section_J(CTX1, ident)
    assert acts_trivially(f, CTX1.generators())
    # alpha(T) = T + T^2: x_alpha^3 = 1 + T, twist is x_alpha itself
    t = CTX1.tower
    img = LaurentSeries.from_pairs(t, 1, [(1, t.one()), (2, t.one())],
                                   CTX1.prec)
    alpha = LocalFieldAuto(t, 1, 0, img)
    f = section_J(CTX1, alpha)
    one = LaurentSeries.one(t, 3, CTX1.prec)
    T = LaurentSeries.T_power(t, 3, 1, CTX1.prec)
    assert f.x ** 3 == one + T
    # image of u is u * x_alpha
    u = CTX1.algebra.u()
    assert f.apply_element(u) == u * CTX1.algebra.scalar(f.x)


def test_section_J_cocycle_law():
    rng = random.Random(0)
    for ctx in (CTX1, CTX3):
        for _ in range(4):
            al = random_j_element(ctx, rng)
            be = random_j_element(ctx, rng)
            fa, fb = section_J(ctx, al), section_J(ctx, be)
            comp = compose_semilinear(fb, fa)
            direct = section_J(ctx, compose_auto(be, al))
            # x_{b o a} = x_b * b(x_a)
            assert direct.x == comp.x
            assert acts_like(comp, direct, ctx.generators())


def test_section_Ca_well_defined_homomorphism():
    ctx = CTX4  # a = 7 nontrivial
    assert acts_trivially(section_Ca(ctx, 0), ctx.generators())
    assert acts_trivially(section_Ca(ctx, ctx.a), ctx.generators())
    rng = random.Random(1)
    for _ in range(3):
        j, j2 = rng.randrange(1, ctx.a), rng.randrange(1, ctx.a)
        lhs = compose_semilinear(section_Ca(ctx, j), section_Ca(ctx, j2))
        assert acts_like(lhs, section_Ca(ctx, j + j2), ctx.generators())


def test_section_Cb_trivial_when_b_is_1():
    f = section_Cb(CTX1, 1)
    assert f.inner == AlgebraMatrix.identity(CTX1.algebra, 1)
    assert acts_trivially(section_Cb(CTX1, 0), CTX1.generators())


def test_section_Cb_well_defined_and_independent_of_y():
    for ctx in (CTX2, CTX3):
        gens = ctx.generators()
        assert acts_trivially(section_Cb(ctx, ctx.b), gens)
        # u*Id_n in particular is fixed by f_Cb(b)
        u_mat = AlgebraMatrix.scalar_matrix(ctx.algebra.u(), ctx.n)
        assert section_Cb(ctx, ctx.b).apply(u_mat) == u_mat
        # second Hilbert-90 solution gives the same section
        from autsplit.sections import _with_witness
        y2 = ctx.y * subfield_generator(ctx.tower, ctx.i * ctx.d)
        alt = _with_witness(ctx, y2)
        for j in (1, 2):
            assert acts_like(section_Cb(ctx, j), section_Cb(alt, j), gens)


@pytest.mark.parametrize("p,i,d,n", [(2, 2, 3, 3), (3, 1, 2, 2), (3, 1, 4, 2),
                                     (3, 3, 2, 2), (5, 1, 2, 4), (7, 1, 2, 2)])
def test_coordinates_recompose_and_phi_is_a_ring_map(p, i, d, n):
    ctx = SectionContext(p, i, d, 1, n, prec=2)
    t, b = ctx.tower, ctx.b
    assert b > 1
    rng = random.Random(p * i * d)
    elts = [t.zero(), t.one()] + [FFElement(t, rng.randrange(t.q - 1))
                                  for _ in range(16)]
    total = lambda terms: sum(terms, t.zero())
    for x in elts:
        coords = ctx.coordinates(x)
        assert len(coords) == b
        assert all(in_subfield(c, i * d) for c in coords)
        assert total(c * v for c, v in zip(coords, ctx.basis)) == x
    assert ctx.phi(t.one()) == [[t.one() if r == c else t.zero()
                                 for c in range(b)] for r in range(b)]
    for x, y in zip(elts, reversed(elts)):
        A, B = ctx.phi(x), ctx.phi(y)
        assert ctx.phi(x * y) == [[total(a * e for a, e in zip(row, col))
                                   for col in zip(*B)] for row in A]


def test_section_Caprime_properties():
    ctx = CTX3  # a' = 2
    gens = ctx.generators()
    assert acts_trivially(section_Caprime(ctx, 0), gens)
    assert acts_trivially(section_Caprime(ctx, ctx.a2), gens)
    f = section_Caprime(ctx, 1)
    back = restrict_auto(f.alphaE, ctx.i)
    assert back == LocalFieldAuto.frobenius_power(ctx.tower, ctx.i, ctx.b2,
                                                  ctx.prec)


def test_section_Cbprime_properties():
    ctx = CTX4  # b' = 3
    gens = ctx.generators()
    assert acts_trivially(section_Cbprime(ctx, 0), gens)
    W = ctx.matrix_w()
    assert W ** ctx.b2 == AlgebraMatrix.scalar_matrix(ctx.algebra.u(), ctx.n)
    assert acts_trivially(section_Cbprime(ctx, ctx.b2), gens)
    f = section_Cbprime(ctx, 1)
    back = restrict_auto(f.alphaE, ctx.i)
    assert back == LocalFieldAuto.frobenius_power(ctx.tower, ctx.i, ctx.a2,
                                                  ctx.prec)


def test_glue_identity_and_J_case():
    for ctx in (CTX1, CTX2):
        ident = LocalFieldAuto.ev(ctx.tower.one(), ctx.i, ctx.prec)
        assert acts_trivially(glue_section(ctx, ident), ctx.generators())
        rng = random.Random(2)
        al = random_j_element(ctx, rng)
        assert acts_like(glue_section(ctx, al), section_J(ctx, al),
                         ctx.generators())


def test_glue_section_property_random():
    rng = random.Random(3)
    for ctx in (CTX2, CTX3):
        for _ in range(5):
            al = random_k_auto(ctx, rng)
            assert restrict_auto(glue_section(ctx, al).alphaE, ctx.i) == al


def test_verify_section_passes_small():
    rep = verify_section(CTX1, samples=6, seed=0)
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]
    rep = verify_section(CTX4, samples=4, seed=0)
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]


def quotient_elements(ctx):
    """Every automorphism ``random_k_auto`` can draw: a unit lead zeta^k, a
    tail in F_{p^i} at T^2 ... T^(prec-1) and a Frobenius power below i."""
    field = [None] + [ctx.zeta ** k for k in range(ctx.p ** ctx.i - 1)]
    out = []
    for lead in field[1:]:
        for tail in itertools.product(field, repeat=ctx.prec - 2):
            pairs = [(1, lead)] + [(k, c) for k, c in enumerate(tail, 2)
                                   if c is not None]
            img = LaurentSeries.from_pairs(ctx.tower, ctx.i, pairs, ctx.prec)
            out.extend(LocalFieldAuto(ctx.tower, ctx.i, e, img)
                       for e in range(ctx.i))
    return out


@pytest.mark.parametrize("params, prec, count", [
    ((2, 1, 3, 1, 3), 4, 4), ((3, 1, 2, 1, 2), 3, 6),
    ((2, 2, 3, 1, 3), 3, 24), ((2, 3, 3, 1, 3), 2, 21)],
    ids=["2,1,3,1,3", "3,1,2,1,2", "2,2,3,1,3", "2,3,3,1,3"])
def test_glued_section_on_the_whole_quotient(params, prec, count):
    # the finite quotient of Aut(K) the verifier samples from, all of it:
    # the glued section is a section on every element and a homomorphism
    # on every ordered pair.  (2,3,3,1,3) at prec 2 failed 252 of its 441
    # pairs while an algebra product skipped a zero known only to T^k,
    # k < prec, like an exact zero
    ctx = SectionContext(*params, prec=prec)
    gens = ctx.generators()
    autos = quotient_elements(ctx)
    assert len(autos) == count
    glued = [glue_section(ctx, al) for al in autos]
    assert all(restrict_auto(g.alphaE, ctx.i) == al
               for al, g in zip(autos, glued))
    failed = sum(not acts_like(compose_semilinear(g_al, g_be),
                               glue_section(ctx, compose_auto(al, be)), gens)
                 for al, g_al in zip(autos, glued)
                 for be, g_be in zip(autos, glued))
    assert failed == 0, f"{failed} of {count ** 2} pairs"


def test_tampered_c_flags_caprime():
    # wrong c breaks well-definedness of f_Ca' (its a'-th power is no
    # longer trivial): negative control for the verifier
    import copy
    ctx = copy.copy(CTX3)
    ctx.c = CTX3.c + 1      # now c*a' + 1 != 0 mod d
    assert (ctx.c * ctx.a2 + 1) % ctx.d != 0
    rep = verify_section(ctx, samples=2, seed=0)
    failed = {c.name for c in rep.checks if not c.passed}
    assert "order_Caprime" in failed


@pytest.mark.parametrize("params", [(7, 1, 2, 1, 2, 6), (2, 3, 3, 1, 3, 8)],
                         ids=["a=3,b=2", "b'=3"])
def test_partial_sections_are_built_once_per_context(params, monkeypatch):
    # a repeated call returns the stored section; copies, through
    # SectionContext.__copy__ or _with_witness, start with an empty memo,
    # so what is set on a copy before its first section is what it reads
    import copy
    from autsplit.sections import _with_witness
    ctx = SectionContext(*params[:5], prec=params[5])
    builds = (section_Ca, section_Cb, section_Caprime, section_Cbprime)
    made = {build: [build(ctx, j) for j in (1, 2, -1)] for build in builds}
    inits = []
    init = SemilinearAuto.__init__
    monkeypatch.setattr(SemilinearAuto, "__init__",
                        lambda self, *a, **k: inits.append(1) or init(
                            self, *a, **k))
    for build, fs in made.items():
        assert all(f is g for f, g in zip(fs, [build(ctx, j)
                                               for j in (1, 2, -1)]))
        assert len({id(f) for f in fs}) == 3
    assert inits == [] and len(ctx._sections) == 12
    alt = copy.copy(ctx)
    assert alt._sections == {} and len(ctx._sections) == 12
    for build in builds:
        assert build(alt, 1) is not build(ctx, 1)
        assert acts_like(build(alt, 1), build(ctx, 1), ctx.generators())
    assert len(ctx._sections) == 12
    if ctx.b > 1:
        y2 = ctx.y * subfield_generator(ctx.tower, ctx.i * ctx.d)
        other = _with_witness(ctx, y2)
        assert other._sections == {}
        assert section_Cb(other, 1).inner is not section_Cb(ctx, 1).inner


def test_verification_report_shape():
    rep = verify_section(CTX1, samples=2, seed=5)
    assert rep.all_passed is True
    assert rep.context == CTX1.descriptor()
    names = [c.to_dict()["name"] for c in rep.checks]
    assert len([n for n in names if n.startswith("commutation_")]) == 9
    assert "glue_homomorphism" in names and "glue_section_property" in names


# -- the structured comparison against pushing every generator through -------

def small_section_family(ctx, rng):
    """Partial and glued sections of ctx, with pairs that act alike though
    their inner parts differ."""
    fs = [section_J(ctx, random_j_element(ctx, rng)),
          section_Ca(ctx, 1), section_Cb(ctx, 1), section_Cb(ctx, 2),
          section_Caprime(ctx, 1), section_Cbprime(ctx, 1)]
    glued = [glue_section(ctx, random_k_auto(ctx, rng)) for _ in range(2)]
    fs += glued
    fs.append(compose_semilinear(glued[0], invert_semilinear(glued[0])))
    fs.append(compose_semilinear(section_Cb(ctx, 1), section_Cb(ctx, 1)))
    if ctx.b > 1:
        from autsplit.sections import _with_witness
        y2 = ctx.y * subfield_generator(ctx.tower, ctx.i * ctx.d)
        fs.append(section_Cb(_with_witness(ctx, y2), 2))
    return fs


def generic_image(f, G):
    """g phi~(G) g^-1 by two generic matrix products, with each entry of G
    mapped on its own."""
    return f.inner * unshared_entrywise(f, G) * f.inner_inv


@pytest.mark.parametrize("ctx", [SectionContext(2, 2, 3, 1, 3, prec=10),
                                 SectionContext(2, 3, 3, 1, 3, prec=8)],
                         ids=["b=3", "b'=3"])
def test_structured_comparison_matches_generic(ctx):
    fs = small_section_family(ctx, random.Random(17))
    # all generators, and I with the elementary parts alone (the scalar
    # ones come first and would otherwise decide most pairs)
    for gens in (ctx.generators(), ctx.generators()[4:]):
        images = [[generic_image(f, G) for G in gens] for f in fs]
        seen = set()
        for f1, im1 in zip(fs, images):
            assert acts_trivially(f1, gens) == all(
                img == G for img, G in zip(im1, gens))
            for f2, im2 in zip(fs, images):
                generic = all(a == b for a, b in zip(im1, im2))
                assert acts_like(f1, f2, gens) == generic
                seen.add(generic)
        assert seen == {True, False}


def test_elementary_image_is_identity_image_plus_part_image():
    # f(I + x*e_ab) = f(I) + f(x*e_ab): the additivity that lets the
    # generators hold I and the parts x*e_ab in place of I + x*e_ab
    ctx = SectionContext(2, 2, 3, 1, 3, prec=10)
    alg = ctx.algebra
    ident, *parts = ctx.generators()[4:]
    assert ident == AlgebraMatrix.identity(alg, ctx.n)
    for f in small_section_family(ctx, random.Random(19)):
        base = f.apply(ident).rows
        for G in parts:
            elementary = AlgebraMatrix(alg, [{**row, s: alg.one()} for s, row
                                             in enumerate(G.entries)])
            part = f.apply(G).rows
            summed = [[base[s][t] + part[s][t] for t in range(ctx.n)]
                      for s in range(ctx.n)]
            assert generic_image(f, elementary) == AlgebraMatrix(
                alg, [dict(enumerate(row)) for row in summed])


@pytest.mark.parametrize("params, prec", [((2, 2, 3, 1, 3), 10),
                                          ((2, 3, 3, 1, 3), 8),
                                          ((3, 1, 2, 3, 2), 2)],
                         ids=["b=3", "b'=3", "r>=prec"])
def test_apply_takes_the_products_of_the_generic_one(params, prec):
    # apply multiplies (g phi~(M)) g^-1 row by row through the kernel of
    # the matrix product: the same stored keys and the same (val, logs,
    # prec) in every entry as the two generic products, for the
    # generators (each diagonal or with one stored entry), a dense random
    # M, and M = phi~^-1(g^-1), the inner part of f^-1, for which
    # g phi~(M) = g g^-1 cancels off the diagonal
    ctx = SectionContext(*params, prec=prec)
    gens = ctx.generators()
    assert len(gens) == 4 + (ctx.n >= 2) * (1 + 4 * (ctx.n - 1))
    for G in gens:
        stored = [(s, t) for s, row in enumerate(G.entries) for t in row]
        assert len(stored) == 1 or all(s == t for s, t in stored)
    rng = random.Random(37)
    cancelled, monomial = False, True
    for f in small_section_family(ctx, rng):
        monomial &= all(len(row) <= 1 for row in f.inner.entries)
        undo = invert_semilinear(f).inner
        first = f.inner * unshared_entrywise(f, undo)
        cancelled |= any(e.is_zero() for row in first.entries
                         for e in row.values())
        dense = shaped_matrix(ctx.algebra, ctx.n, rng, "dense")
        for G in gens + [dense, undo]:
            got, generic = f.apply(G), generic_image(f, G)
            for row1, row2 in zip(got.entries, generic.entries):
                assert row1.keys() == row2.keys()
                for t, e in row1.items():
                    assert entry_form(e) == entry_form(row2[t])
    # a sum of one product cannot cancel: with b = 1 every g is monomial
    assert cancelled != monomial


def test_comparison_tests_each_inner_entry_for_zero_once(monkeypatch):
    # the nonzero entries of g and g^-1 are found once per matrix, not
    # once per generator: at n = 6, 23 of the 25 generators go through
    # apply on each side of the comparison (zeta*Id and T*Id do not)
    ctx = SectionContext(2, 2, 3, 2, 6, prec=8)
    f = glue_section(ctx, random_k_auto(ctx, random.Random(5)))
    stored = [id(e) for m in (f.inner, f.inner_inv) for row in m.entries
              for e in row.values()]
    ids = set(stored)
    tested = []
    is_zero = AlgebraElement.is_zero

    def counted(self):
        if id(self) in ids:
            tested.append(id(self))
        return is_zero(self)
    monkeypatch.setattr(AlgebraElement, "is_zero", counted)
    assert acts_like(f, f, ctx.generators())
    assert tested and len(tested) <= len(stored)
    assert all(tested.count(k) <= stored.count(k) for k in set(tested))


def test_comparison_holds_a_one_shot_iterator_of_generators():
    # a generator built on the fly and freed mid-comparison must not lend
    # its id, and with it a stale phi-image, to a later one
    ctx = SectionContext(2, 2, 3, 1, 3, prec=8)
    f = section_Ca(ctx, 1)                  # a = 1: f_Ca(1) is trivial
    alg = ctx.algebra
    zeta_e = subfield_generator(ctx.tower, alg.jE)

    def elementary(k):
        x = alg.scalar(LaurentSeries.constant(zeta_e ** k, alg.jE, alg.prec))
        entries = [{s: alg.one()} for s in range(ctx.n)]
        entries[0] = {0: alg.one(), 1: x}
        return AlgebraMatrix(alg, entries)
    assert ctx.a == 1
    assert all(acts_trivially(f, [elementary(k)]) for k in range(1, 40))
    assert acts_trivially(f, (elementary(k) for k in range(1, 40)))
    assert acts_like(f, f, (elementary(k) for k in range(1, 40)))


# -- mutation controls: a T^k change to one ingredient is flagged ------------

CTX_B = SectionContext(2, 2, 3, 1, 3, prec=10)    # b = 3: a full 3x3 Y


def mutated(f, part, k, pos):
    """f with T^k added to one entry of its inner part or of the inverse
    it carries, to its twist x, or to alphaE's image of T ("alpha_T"); or
    with k added to alphaE's Frobenius exponent ("alpha_e")."""
    alg = f.alg
    t_k = LaurentSeries.T_power(alg.tower, alg.jE, k, alg.prec)
    if part == "x":
        return SemilinearAuto(alg, f.n, f.inner, f.alphaE, f.x + t_k,
                              inner_inv=f.inner_inv, check=False)
    if part in ("alpha_T", "alpha_e"):
        a = f.alphaE
        alpha = (LocalFieldAuto(a.tower, a.j, a.e, a.image_of_T + t_k)
                 if part == "alpha_T"
                 else LocalFieldAuto(a.tower, a.j, a.e + k, a.image_of_T))
        return SemilinearAuto(alg, f.n, f.inner, alpha, f.x,
                              inner_inv=f.inner_inv, check=False)
    mats = {"inner": f.inner, "inner_inv": f.inner_inv}
    entries = [dict(row) for row in mats[part].entries]
    s, t = pos
    entries[s][t] = entries[s].get(t, alg.zero()) + alg.scalar(t_k)
    mats[part] = AlgebraMatrix(alg, entries)
    return SemilinearAuto(alg, f.n, mats["inner"], f.alphaE, f.x,
                          inner_inv=mats["inner_inv"], check=False)


@pytest.mark.parametrize("part", ["inner", "inner_inv", "x"])
def test_mutations_are_flagged_once_prec_exceeds_k(part):
    ctx = CTX_B
    f = glue_section(ctx, random_k_auto(ctx, random.Random(18)))
    # the precision the changed ingredient is known to: the glued twist
    # loses a term to the compositions, the constant entries keep prec
    prec = f.x.prec if part == "x" else ctx.prec
    assert prec >= ctx.prec - 1
    positions = [None] if part == "x" else [(0, 0), (ctx.n - 1, 1)]
    for gens in (ctx.generators(), ctx.generators()[4:]):
        assert acts_like(f, f, gens)
        for pos in positions:
            for k in (1, 4, prec - 1):
                assert not acts_like(f, mutated(f, part, k, pos), gens), \
                    (pos, k)
            # T^prec is beyond that precision: nothing changed
            assert acts_like(f, mutated(f, part, prec, pos), gens)


CTX_B2 = SectionContext(2, 3, 3, 1, 3, prec=8)    # b' = 3: a 3x3 cyclic W


def with_mutated_w(ctx, k, pos):
    """A copy of ctx whose block-cyclic W has T^k added to one entry."""
    import copy
    alg = ctx.algebra
    entries = [dict(row) for row in ctx.matrix_w().entries]
    s, t = pos
    entries[s][t] = entries[s][t] + alg.scalar(
        LaurentSeries.T_power(alg.tower, alg.jE, k, alg.prec))
    out = copy.copy(ctx)
    out.matrix_w = lambda: AlgebraMatrix(alg, entries)
    return out


def test_mutated_w_is_flagged_below_its_precision():
    # W feeds section_Cbprime, so a T^k change shows in the commutation
    # relations of f_Cb' as well as in the direct check W^b' = u*Id
    ctx = CTX_B2
    assert ctx.b2 == 3 and verify_section(ctx, samples=2, seed=0).all_passed
    W = ctx.matrix_w()
    for pos in [(0, ctx.n - 1), (1, 0)]:        # the u entry, an Id entry
        s, t = pos
        prec = min(c.prec for c in W.entries[s][t].comps)
        assert prec == ctx.prec
        for k in range(prec):
            rep = verify_section(with_mutated_w(ctx, k, pos), samples=2,
                                 seed=0)
            failed = {c.name for c in rep.checks if not c.passed}
            assert {"W_power_bprime_is_u_Id",
                    "commutation_8_Cbprime_Ca"} <= failed, (pos, k)
        # T^prec is beyond that precision: nothing changed
        assert verify_section(with_mutated_w(ctx, prec, pos), samples=2,
                              seed=0).all_passed


def test_identity_image_is_compared_for_each_elementary_generator():
    # a T^1 change to row 0 of g^-1 shows in f(I); for a part x*e_ab with
    # b != 0 it is not in f(x*e_ab), so I is the generator that flags it
    ctx = CTX_B
    f = glue_section(ctx, random_k_auto(ctx, random.Random(18)))
    g = mutated(f, "inner_inv", 1, (0, 0))
    ident, *parts = ctx.generators()[4:]
    assert ident == AlgebraMatrix.identity(ctx.algebra, ctx.n)
    for gens in (ctx.generators()[4:], [ident]):
        assert not acts_like(f, g, gens) and not acts_like(g, f, gens)
    blind = [G for G in parts if all(0 not in row for row in G.entries)]
    assert blind and acts_like(f, g, blind) and acts_like(g, f, blind)


# -- central generators: c*Id, c in K, is decided by alpha(c) after f(I) -------

CTX_N1 = SectionContext(2, 2, 5, 1, 1, prec=10)   # n = 1 and i = 2: no I
CTX_N2 = SectionContext(3, 1, 2, 1, 2, prec=10)


def central_generators(ctx):
    """zeta*Id and T*Id, the two generators in K."""
    gens = ctx.generators()
    return [gens[0], gens[2]]


@pytest.mark.parametrize("ctx", [CTX_N1, CTX_N2, CTX_B],
                         ids=["n=1", "n=2", "n=3"])
def test_central_image_is_alpha_times_identity_image(ctx):
    # f(c*Id) = g*alpha(c)*g^-1 = alpha(c)*f(I) for c in K, the identity
    # that lets a comparison read alpha(c) in place of f(c*Id)
    alg = ctx.algebra
    ident = AlgebraMatrix.identity(alg, ctx.n)
    rng = random.Random(29)
    fs = [glue_section(ctx, random_k_auto(ctx, rng)) for _ in range(3)]
    fs += [section_J(ctx, random_j_element(ctx, rng)), section_Cb(ctx, 1)]
    for f in fs:
        base = f.apply(ident)
        for G in central_generators(ctx):
            c = G.entries[0][0].comps[0]
            assert c.logs and series_in_subfield(c, ctx.i)
            scaled = AlgebraMatrix.scalar_matrix(alg.scalar(f.alphaE(c)),
                                                 ctx.n) * base
            assert f.apply(G) == scaled


@pytest.mark.parametrize("ctx", [CTX_N1, CTX_B], ids=["n=1", "n=3"])
def test_mutated_alpha_is_flagged(ctx):
    # alpha's T-image is seen by T*Id alone, so these go through the
    # central comparison, with and without the other generators
    f = glue_section(ctx, random_k_auto(ctx, random.Random(18)))
    prec = f.alphaE.prec
    assert prec >= ctx.prec - 1
    for gens in (ctx.generators(), central_generators(ctx)):
        assert acts_like(f, f, gens)
        for k in (2, 3, prec - 1):
            g = mutated(f, "alpha_T", k, None)
            assert not acts_like(f, g, gens) and not acts_like(g, f, gens), k
        # T^prec is beyond alpha's precision: nothing changed
        assert acts_like(f, mutated(f, "alpha_T", prec, None), gens)
    # a Frobenius power moves the residue generator of E; zeta in
    # F_{p^i} alone sees the powers that are not multiples of i
    for k in range(1, ctx.algebra.jE):
        g = mutated(f, "alpha_e", k, None)
        assert not acts_like(f, g, ctx.generators()), k
        assert acts_like(f, g, central_generators(ctx)) == (k % ctx.i == 0)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_broken_inverse_is_flagged_at_n1(k):
    # n = 1 has no I among its generators: the comparison builds I before
    # it answers zeta*Id and T*Id by alpha, and f(I) shows a broken g^-1
    ctx = CTX_N1
    f = glue_section(ctx, random_k_auto(ctx, random.Random(18)))
    ident = glue_section(ctx, LocalFieldAuto.ev(ctx.tower.one(), ctx.i,
                                                ctx.prec))
    for gens in (ctx.generators(), central_generators(ctx)):
        assert acts_trivially(ident, gens)
        assert not acts_trivially(mutated(ident, "inner_inv", k, (0, 0)),
                                  gens)
        g = mutated(f, "inner_inv", k, (0, 0))
        assert not acts_like(f, g, gens) and not acts_like(g, f, gens)


def test_noncommuting_factor_flags_commutation(monkeypatch):
    # negative control for the "commute" relations: f_Cb(j) o f_J(alpha)
    # no longer commutes with f_Ca, since f_Ca conjugates f_J(alpha) to
    # another inertia section
    from autsplit import sections
    ctx = SectionContext(7, 1, 2, 1, 2, prec=6)     # a = 3, b = 2
    rep = verify_section(ctx, samples=2, seed=0)
    assert rep.all_passed
    section_cb = sections.section_Cb
    alpha = random_j_element(ctx, random.Random(1))
    monkeypatch.setattr(sections, "section_Cb", lambda c, j: compose_semilinear(
        section_cb(c, j), section_J(c, alpha)))
    rep = verify_section(ctx, samples=2, seed=0)
    failed = {c.name for c in rep.checks if not c.passed}
    assert {"commutation_1_Ca_Cb", "commutation_3_Cb_J"} <= failed


@pytest.mark.parametrize("params", [(2, 2, 3, 1, 3), (2, 7, 3, 1, 1),
                                    (2, 2, 3, 2, 6)])
def test_mutated_hensel_root_fails_a_check(params, monkeypatch):
    # adding T^k to x_alpha breaks the norm of the twist of f_J, which
    # SemilinearAuto refuses with AdmissibilityFailure for most k: that
    # must fail the checks that build f_J, not end the verification
    import io
    import json
    from contextlib import redirect_stdout
    from autsplit import sections
    from autsplit.cli import main
    ctx = SectionContext(*params, prec=12)
    root = sections.hensel_root
    root_prec = ctx.prec - 1        # alpha(T)/T is known mod T^(prec - 1)

    def plus_T_power(k):
        def mutated_root(s, m):
            x = root(s, m)
            assert x.prec == root_prec
            return x + LaurentSeries.T_power(x.tower, x.j, k, x.prec)
        return mutated_root

    raised = set()
    for k in range(root_prec + 1):
        monkeypatch.setattr(sections, "hensel_root", plus_T_power(k))
        rep = verify_section(ctx, samples=2, seed=0)
        failed = [c for c in rep.checks if not c.passed]
        # T^root_prec is beyond the root's precision: nothing changed
        assert bool(failed) == (k < root_prec), k
        assert "J_section_homomorphism" in {c.name for c in failed} \
            or k == root_prec
        if any("AdmissibilityFailure: " in c.detail for c in failed):
            raised.add(k)
    assert set(range(1, 8)) <= raised
    monkeypatch.setattr(sections, "hensel_root", plus_T_power(1))
    p, i, d, r, n = params
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--output", "json", "section", "synth", "--p", str(p),
                     "--i", str(i), "--d", str(d), "--r", str(r), "--n", str(n),
                     "--prec", "12", "--samples", "2"])
    assert code == 1
    assert json.loads(buf.getvalue())["result"]["verdict"] == "CHECK-FAILED"


@pytest.mark.parametrize("exc", ["AdmissibilityFailure", "DecompositionFailure",
                                 "NotInSubfield", "PrecisionExhausted"])
def test_construction_failure_fails_only_its_check(exc, monkeypatch):
    from autsplit import sections
    error = {c.__name__: c for c in sections.CONSTRUCTION_FAILURES}[exc]
    ctx = SectionContext(2, 2, 3, 1, 3, prec=8)
    names = [c.name for c in verify_section(ctx, samples=2, seed=0).checks]

    def broken(c, j):
        raise error("cannot build")
    monkeypatch.setattr(sections, "section_Caprime", broken)
    rep = verify_section(ctx, samples=2, seed=0)
    assert [c.name for c in rep.checks] == names
    failed = {c.name: c.detail for c in rep.checks if not c.passed}
    assert failed["order_Caprime"] == f"f_Ca'(a'), a'={ctx.a2}; {exc}: cannot build"
    # every check that builds f_Ca' fails, every other one still passes
    # (b' = 1, so commutation_4 has no samples)
    assert set(failed) == {"order_Caprime", "commutation_5_Caprime_Cb",
                           "commutation_6_Caprime_J", "glue_homomorphism",
                           "glue_section_property"}


def test_field_part_outside_the_subfield_fails_checks(monkeypatch):
    # negative control: frobenius_power adds zeta_E*T^2 to its T-image, so
    # the Frobenius sections' alpha no longer commutes with sigma.  That
    # is a failed check (exit 1), not a usage error (exit 2)
    import io
    import json
    from contextlib import redirect_stdout

    from autsplit.cli import main
    frobenius_power = LocalFieldAuto.frobenius_power

    def broken(tower, j, e, prec):
        f = frobenius_power(tower, j, e, prec)
        extra = LaurentSeries.from_pairs(
            tower, j, [(2, subfield_generator(tower, j))], prec)
        return LocalFieldAuto(tower, j, e, f.image_of_T + extra)
    monkeypatch.setattr(LocalFieldAuto, "frobenius_power",
                        staticmethod(broken))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--output", "json", "section", "synth", "--p", "2",
                     "--i", "2", "--d", "3", "--r", "1", "--n", "3",
                     "--prec", "6", "--samples", "4", "--seed", "1"])
    result = json.loads(buf.getvalue())["result"]
    assert code == 1 and result["verdict"] == "CHECK-FAILED"
    failed = {c["name"]: c["detail"] for c in result["checks"]
              if not c["passed"]}
    assert set(failed) == {"order_Caprime", "order_Cbprime",
                           "commutation_5_Caprime_Cb",
                           "commutation_6_Caprime_J", "glue_homomorphism",
                           "glue_section_property"}
    assert all("NotInSubfield: alpha must commute with sigma" in detail
               for detail in failed.values())


def test_bad_input_errors_still_escape_the_verifier(monkeypatch):
    from autsplit import sections

    def broken(f, gens):
        raise ValueError("bad input")
    monkeypatch.setattr(sections, "acts_trivially", broken)    # order checks
    with pytest.raises(ValueError, match="bad input"):
        verify_section(SectionContext(2, 2, 3, 1, 3, prec=8), samples=2,
                       seed=0)


# -- phi-images of shared entries --------------------------------------------

def test_entrywise_image_maps_each_stored_object_once(monkeypatch):
    # apply's one phi~ pass maps each distinct stored object once, and its
    # images are those of the entries mapped one by one
    ctx = SectionContext(2, 2, 3, 1, 6, prec=8)     # b = 3, two Y blocks
    alg = ctx.algebra
    f = glue_section(ctx, random_k_auto(ctx, random.Random(21)))
    apply_element = SemilinearAuto.apply_element
    seen = []

    def counting(self, a):
        seen.append(a)
        return apply_element(self, a)
    blocks = ctx.phi(ctx.y ** 2)
    scalar = alg.scalar(LaurentSeries.constant(
        subfield_generator(ctx.tower, ctx.jE), ctx.jE, ctx.prec))
    for M in (AlgebraMatrix.scalar_matrix(scalar, ctx.n),
              AlgebraMatrix.identity(alg, ctx.n),
              ctx.const_matrix(blocks, ctx.n // ctx.b)):
        stored = [e for row in M.entries for e in row.values()]
        distinct = {id(e) for e in stored}
        assert len(distinct) < len(stored)
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(SemilinearAuto, "apply_element", counting)
            image = f.apply(M)
        assert len(seen) == len(distinct) == len({id(e) for e in seen})
        generic = generic_image(f, M)
        for row, img_row in zip(generic.entries, image.entries):
            assert row.keys() == img_row.keys()
            for t, e in row.items():
                assert entry_form(img_row[t]) == entry_form(e)


def test_comparison_agrees_with_unshared_images():
    # acts_like against pushing every generator through g phi~(G) g^-1
    # with each entry mapped on its own; also on the generators rebuilt
    # with a copy of alg.one(), equal to it but not the shared object
    ctx = CTX_B
    alg = ctx.algebra
    copy = alg.scalar(LaurentSeries.one(alg.tower, alg.jE, alg.prec))
    assert copy == alg.one() and copy is not alg.one()
    gens = ctx.generators()[4:]
    rebuilt = [AlgebraMatrix(alg, [{t: copy if e is alg.one() else e
                                    for t, e in row.items()}
                                   for row in G.entries]) for G in gens]
    fs = small_section_family(ctx, random.Random(23))
    images = [[generic_image(f, G) for G in gens] for f in fs]
    seen = set()
    for f1, im1 in zip(fs, images):
        for f2, im2 in zip(fs, images):
            generic = all(a == b for a, b in zip(im1, im2))
            assert acts_like(f1, f2, gens) == generic
            assert acts_like(f1, f2, rebuilt) == generic
            seen.add(generic)
    assert seen == {True, False}


# -- mutation controls for z and y --------------------------------------------

CTX_AB = SectionContext(7, 1, 2, 1, 2, prec=6)     # a = 3, b = 2


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("name", ["section_Ca", "section_Cb"])
def test_mutated_torus_twist_fails_a_check(name, check, monkeypatch):
    # T^k added to the twist section_Ca builds from z, or to the one
    # section_Cb builds from x_hat = F^i(y)/y: some check fails for every
    # k below the twist's precision, and nothing escapes the verifier.
    # Checked, the sections are rebuilt as they build themselves and most
    # k fail the norm condition; unchecked, the comparisons alone flag it
    from autsplit import sections
    ctx = CTX_AB
    assert ctx.a > 1 and ctx.b > 1
    assert verify_section(ctx, samples=2, seed=0).all_passed
    build = getattr(sections, name)
    twist_prec = build(ctx, 1).x.prec
    assert twist_prec == ctx.prec

    def plus_T_power(k):
        def mutated_section(c, j):
            f = build(c, j)
            t_k = LaurentSeries.T_power(f.alg.tower, f.alg.jE, k, f.x.prec)
            return SemilinearAuto(f.alg, f.n, f.inner, f.alphaE, f.x + t_k,
                                  inner_inv=f.inner_inv, check=check)
        return mutated_section

    for k in range(twist_prec + 1):
        monkeypatch.setattr(sections, name, plus_T_power(k))
        rep = verify_section(ctx, samples=2, seed=0)
        # T^twist_prec is beyond the twist's precision: nothing changed
        assert rep.all_passed == (k == twist_prec), k
