import random

import pytest

from autsplit.autk import (LocalFieldAuto, compose_auto,
                           decompose_auto, extend_auto, invert_auto,
                           restrict_auto)
from autsplit.gftower import build_tower, subfield_generator
from autsplit.series import LaurentSeries, series_in_subfield

TW = build_tower(2, 2, 3, 1)   # K = F_4((T)), E = F_64((T))
PREC = 24
ZETA = subfield_generator(TW, 2)


def is_identity(alpha):
    return alpha.e == 0 and alpha.is_torus_trivial()


def recompose_auto(jpart, c, e):
    """jpart o ev(c*T) o F^e, the order decompose_auto promises."""
    comp = compose_auto(jpart, LocalFieldAuto.ev(c, jpart.j, jpart.prec))
    return compose_auto(comp, LocalFieldAuto.frobenius_power(
        jpart.tower, jpart.j, e, jpart.prec))


def rand_auto(rng, j=2, inertial=False):
    lead = TW.one() if inertial else ZETA ** rng.randrange(3)
    pairs = [(1, lead)]
    for k in range(2, 10):
        c = rng.randrange(4)
        if c:
            pairs.append((k, ZETA ** (c - 1)))
    img = LaurentSeries.from_pairs(TW, j, pairs, PREC)
    e = 0 if inertial else rng.randrange(j)
    return LocalFieldAuto(TW, j, e, img)


def rand_series(rng, j=2):
    pairs = []
    for k in range(-2, 10):
        c = rng.randrange(4)
        if c:
            pairs.append((k, ZETA ** (c - 1)))
    if not pairs:
        pairs = [(0, TW.one())]
    return LaurentSeries.from_pairs(TW, j, pairs, PREC)


def test_identity_acts_trivially():
    rng = random.Random(0)
    ident = LocalFieldAuto.identity(TW, 2, PREC)
    for _ in range(5):
        s = rand_series(rng)
        assert ident(s) == s


def test_ev_on_monomial():
    ev = LocalFieldAuto.ev(ZETA, 2, PREC)
    for r in (1, 2, 5):
        mono = LaurentSeries.T_power(TW, 2, r, PREC)
        out = ev(mono)
        assert out == LaurentSeries.from_pairs(TW, 2, [(r, ZETA ** r)], PREC)


def test_apply_to_negative_valuation():
    img = LaurentSeries.from_pairs(TW, 2, [(1, TW.one()), (2, TW.one())], PREC)
    alpha = LocalFieldAuto(TW, 2, 0, img)
    s = LaurentSeries.T_power(TW, 2, -1, PREC)
    out = alpha(s)
    # oracle: multiplying back by (T + T^2) must give 1
    assert out * img == LaurentSeries.one(TW, 2, out.prec + 1)


def test_compose_with_identity_and_scalars():
    rng = random.Random(1)
    alpha = rand_auto(rng)
    ident = LocalFieldAuto.identity(TW, 2, PREC)
    assert compose_auto(alpha, ident) == alpha
    assert compose_auto(ident, alpha) == alpha
    ev1 = LocalFieldAuto.ev(ZETA, 2, PREC)
    ev2 = LocalFieldAuto.ev(ZETA ** 2, 2, PREC)
    assert compose_auto(ev1, ev2) == LocalFieldAuto.ev(ZETA ** 3, 2, PREC)


def test_compose_matches_pointwise():
    rng = random.Random(2)
    for _ in range(8):
        alpha, beta = rand_auto(rng), rand_auto(rng)
        comp = compose_auto(alpha, beta)
        s = rand_series(rng)
        assert comp(s) == alpha(beta(s))


def test_inverse_of_quadratic_perturbation():
    img = LaurentSeries.from_pairs(TW, 2, [(1, TW.one()), (2, TW.one())], PREC)
    alpha = LocalFieldAuto(TW, 2, 0, img)
    inv = invert_auto(alpha)
    assert is_identity(compose_auto(alpha, inv))
    assert is_identity(compose_auto(inv, alpha))
    # char 2: the reversion of T + T^2 starts T + T^2 + 0T^3 + ...
    assert inv.image_of_T.coeff(1) == TW.one()
    assert inv.image_of_T.coeff(2) == TW.one()


def test_inverse_random():
    rng = random.Random(3)
    for _ in range(6):
        alpha = rand_auto(rng)
        assert is_identity(compose_auto(alpha, invert_auto(alpha)))


def test_decompose_trivial_cases():
    ident = LocalFieldAuto.identity(TW, 2, PREC)
    j, c, e = decompose_auto(ident)
    assert is_identity(j) and c == TW.one() and e == 0
    ev = LocalFieldAuto.ev(ZETA, 2, PREC)
    j, c, e = decompose_auto(ev)
    assert is_identity(j) and c == ZETA and e == 0


def test_decompose_recompose():
    img = LaurentSeries.from_pairs(TW, 2, [(1, ZETA), (3, TW.one())], PREC)
    alpha = LocalFieldAuto(TW, 2, 1, img)
    jpart, c, e = decompose_auto(alpha)
    assert c == ZETA and e == 1
    assert jpart.image_of_T.leading() == TW.one() and jpart.e == 0
    assert recompose_auto(jpart, c, e) == alpha
    rng = random.Random(4)
    for _ in range(8):
        a = rand_auto(rng)
        assert recompose_auto(*decompose_auto(a)) == a


def test_extend_and_restrict():
    rng = random.Random(5)
    alpha = rand_auto(rng, inertial=True)
    ext = extend_auto(alpha, 6)
    assert ext.j == 6 and ext.e == 0
    # trivial residue action on F_64, same T-image
    assert ext.image_of_T == alpha.image_of_T.with_subfield(6)
    assert restrict_auto(ext, 2) == alpha
    # restriction agrees on K-series samples
    s = rand_series(rng)
    assert ext(s.with_subfield(6)) == alpha(s).with_subfield(6)


def test_extension_of_frobenius_part():
    frob = LocalFieldAuto.frobenius_power(TW, 2, 1, PREC)
    ext = extend_auto(frob, 6)
    assert ext.e == 1  # same global Frobenius power, now mod 6
    z6 = subfield_generator(TW, 6)
    s = LaurentSeries.constant(z6, 6, PREC)
    assert ext(s).coeff(0) == z6 ** 2


def test_apply_respects_ring_structure():
    rng = random.Random(6)
    for _ in range(6):
        alpha = rand_auto(rng)
        s, t = rand_series(rng), rand_series(rng)
        assert alpha(s * t) == alpha(s) * alpha(t)
        assert alpha(s + t) == alpha(s) + alpha(t)


def test_inertia_group_closed():
    rng = random.Random(7)
    for _ in range(6):
        a, b = rand_auto(rng, inertial=True), rand_auto(rng, inertial=True)
        comp = compose_auto(a, b)
        assert comp.e == 0 and comp.image_of_T.leading() == TW.one()
        inv = invert_auto(a)
        assert inv.e == 0 and inv.image_of_T.leading() == TW.one()


def test_series_subfield_guard():
    z6 = subfield_generator(TW, 6)
    with pytest.raises(ValueError):
        LaurentSeries.constant(z6, 2, PREC)
    assert series_in_subfield(LaurentSeries.constant(ZETA, 2, PREC), 2)
