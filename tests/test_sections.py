import random

import pytest

from autsplit.autk import LocalFieldAuto, compose_auto
from autsplit.cyclic import (AlgebraMatrix, acts_like, acts_trivially,
                             compose_semilinear, identity_semilinear)
from autsplit.gftower import build_tower, frobenius, subfield_generator
from autsplit.sections import (SectionContext, glue_section, random_j_element,
                               random_k_auto, section_Ca,
                               section_Caprime, section_Cb, section_Cbprime,
                               section_J, underlying_k_auto, verify_section)
from autsplit.series import LaurentSeries


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
    doc = rep.to_dict()
    assert doc["all_passed"] is True
    assert doc["seed"] == 5
    names = [c["name"] for c in doc["checks"]]
    assert len([n for n in names if n.startswith("commutation_")]) == 9
    assert "glue_homomorphism" in names and "glue_section_property" in names
