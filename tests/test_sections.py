import random

import pytest

from autsplit.autk import LocalFieldAuto, compose_auto
from autsplit.cyclic import (AlgebraMatrix, SemilinearAuto, _elementary_shape,
                             _rank_one, acts_like, acts_trivially,
                             compose_semilinear)
from autsplit.gftower import frobenius, subfield_generator
from autsplit.sections import (SectionContext, glue_section, random_j_element,
                               random_k_auto, section_Ca,
                               section_Caprime, section_Cb, section_Cbprime,
                               section_J, underlying_k_auto, verify_section)
from autsplit.series import LaurentSeries
from test_cyclic import invert_semilinear


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
        SectionContext(2, 1, 2, 1, 1)     # gcd(d, p) = 2
    with pytest.raises(ValueError):
        SectionContext(2, 1, 3, 3, 1)     # gcd(d, r) = 3
    # non-split parameters refuse with a witness message
    with pytest.raises(ValueError, match="witness"):
        SectionContext(3, 1, 2, 1, 1)     # b = 2 does not divide n = 1
    with pytest.raises(ValueError, match="witness"):
        SectionContext(2, 2, 3, 1, 1)


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
    ident = LocalFieldAuto.identity(CTX1.tower, 1, CTX1.prec)
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


def test_section_Caprime_properties():
    ctx = CTX3  # a' = 2
    gens = ctx.generators()
    assert acts_trivially(section_Caprime(ctx, 0), gens)
    assert acts_trivially(section_Caprime(ctx, ctx.a2), gens)
    f = section_Caprime(ctx, 1)
    back = underlying_k_auto(f, ctx)
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
    back = underlying_k_auto(f, ctx)
    assert back == LocalFieldAuto.frobenius_power(ctx.tower, ctx.i, ctx.a2,
                                                  ctx.prec)


def test_glue_identity_and_J_case():
    for ctx in (CTX1, CTX2):
        ident = LocalFieldAuto.identity(ctx.tower, ctx.i, ctx.prec)
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
            assert underlying_k_auto(glue_section(ctx, al), ctx) == al


def test_verify_section_passes_small():
    rep = verify_section(CTX1, samples=6, seed=0)
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]
    rep = verify_section(CTX4, samples=4, seed=0)
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]


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
    fs = [section_J(ctx, random_j_element(ctx, rng, depth=5)),
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


@pytest.mark.parametrize("ctx", [SectionContext(2, 2, 3, 1, 3, prec=10),
                                 SectionContext(2, 3, 3, 1, 3, prec=8)],
                         ids=["b=3", "b'=3"])
def test_structured_comparison_matches_generic(ctx):
    fs = small_section_family(ctx, random.Random(17))
    # all generators, and the elementary ones alone (the scalar ones come
    # first and would otherwise decide most pairs)
    for gens in (ctx.generators(), ctx.generators()[4:]):
        images = [[f.apply(G) for G in gens] for f in fs]
        seen = set()
        for f1, im1 in zip(fs, images):
            assert acts_trivially(f1, gens) == all(
                img == G for img, G in zip(im1, gens))
            for f2, im2 in zip(fs, images):
                generic = all(a == b for a, b in zip(im1, im2))
                assert acts_like(f1, f2, gens) == generic
                seen.add(generic)
        assert seen == {True, False}


def test_elementary_image_is_identity_image_plus_rank_one():
    # f(I + x*e_ab) = f(I) + R, R_st = g_sa phi(x) (g^-1)_bt: the split
    # the comparison on elementary generators rests on
    ctx = SectionContext(2, 2, 3, 1, 3, prec=10)
    alg, zero = ctx.algebra, ctx.algebra.zero()
    ident = AlgebraMatrix.identity(alg, ctx.n)
    for f in small_section_family(ctx, random.Random(19)):
        base = f.apply(ident).rows
        for G in ctx.generators()[4:]:
            a, b, x = _elementary_shape(G)
            R = _rank_one(f, a, b, x)
            summed = [[base[s][t] + R.get(s, {}).get(t, zero)
                       for t in range(ctx.n)] for s in range(ctx.n)]
            assert f.apply(G) == AlgebraMatrix(
                alg, [dict(enumerate(row)) for row in summed])


# -- mutation controls: a T^k change to one ingredient is flagged ------------

CTX_B = SectionContext(2, 2, 3, 1, 3, prec=10)    # b = 3: a full 3x3 Y


def mutated(f, part, k, pos):
    """f with T^k added to one entry of its inner part or of the inverse
    it carries, or to its twist x."""
    alg = f.alg
    t_k = LaurentSeries.T_power(alg.tower, alg.jE, k, alg.prec)
    if part == "x":
        return SemilinearAuto(alg, f.n, f.inner, f.alphaE, f.x + t_k,
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


def test_identity_image_is_compared_for_each_elementary_generator():
    # a T^1 change to row 0 of g^-1 shows in f(I); for a generator
    # I + x*e_ab with b != 0 it is not in the rank-one term
    ctx = CTX_B
    f = glue_section(ctx, random_k_auto(ctx, random.Random(18)))
    g = mutated(f, "inner_inv", 1, (0, 0))
    for G in ctx.generators()[4:]:
        assert f.apply(G) != g.apply(G)
        assert not acts_like(f, g, [G]) and not acts_like(g, f, [G])


def test_noncommuting_factor_flags_commutation(monkeypatch):
    # negative control for the "commute" relations: f_Cb(j) o f_J(alpha)
    # no longer commutes with f_Ca, since f_Ca conjugates f_J(alpha) to
    # another inertia section
    from autsplit import sections
    ctx = SectionContext(7, 1, 2, 1, 2, prec=6)     # a = 3, b = 2
    rep = verify_section(ctx, samples=2, seed=0)
    assert rep.all_passed
    section_cb = sections.section_Cb
    alpha = random_j_element(ctx, random.Random(1), depth=4)
    monkeypatch.setattr(sections, "section_Cb", lambda c, j: compose_semilinear(
        section_cb(c, j), section_J(c, alpha)))
    rep = verify_section(ctx, samples=2, seed=0)
    failed = {c.name for c in rep.checks if not c.passed}
    assert {"commutation_1_Ca_Cb", "commutation_3_Cb_J"} <= failed
