import random

from autsplit.autk import LocalFieldAuto, extend_auto, invert_auto
from autsplit.descent import (CyclicCocycle, descent_condition_check,
                              hanke_test_deg3)
from autsplit.gftower import build_tower, subfield_generator
from autsplit.series import LaurentSeries, SeriesMatrix, unramified_norm

PREC = 20


def setup(p, i):
    tower = build_tower(p, i, 3, 1)
    a = LaurentSeries.T_power(tower, i, 1, PREC)
    return tower, a, CyclicCocycle.standard(tower, i, a)


def rand_k_auto(tower, i, rng, prec=PREC):
    z = subfield_generator(tower, i)
    order = tower.p ** i - 1
    pairs = [(1, z ** rng.randrange(order))]
    for k in range(2, 8):
        c = rng.randrange(order + 1)
        if c:
            pairs.append((k, z ** (c - 1)))
    img = LaurentSeries.from_pairs(tower, i, pairs, prec)
    return LocalFieldAuto(tower, i, rng.randrange(i), img)


def cocycle_value(c, power):
    """c at gamma^power by the cocycle law c_{gamma^(s+1)} = c_gamma
    gamma(c_{gamma^s}); gamma has order 3."""
    m = c.gamma_matrix
    acc = SeriesMatrix.identity(m.tower, m.j, m.n, m.prec)
    for _ in range(power % 3):
        acc = m * c.gamma_action(acc)
    return acc


def test_cocycle_extension_closes():
    # the law extended to gamma^3 = 1 is projectively trivial
    for (p, i) in ((2, 1), (3, 1), (2, 2)):
        _, _, c = setup(p, i)
        m = c.gamma_matrix
        full = m * c.gamma_action(m * c.gamma_action(m))
        assert full.proportional_to(
            SeriesMatrix.identity(m.tower, 3 * i, 3, PREC))


def test_trivial_b_trivial_beta_descends():
    tower, _, c = setup(2, 1)
    ident = LocalFieldAuto.identity(tower, 3, PREC)
    b = SeriesMatrix.identity(tower, 3, 3, PREC)
    assert descent_condition_check(c, b, False, ident)


def test_canonical_gamma_twist_descends():
    # b = c_{gamma^(-1)}, beta = gamma satisfies the descent condition
    for (p, i) in ((2, 1), (3, 1)):
        tower, _, c = setup(p, i)
        gamma = LocalFieldAuto.frobenius_power(tower, 3 * i, i, PREC)
        b = cocycle_value(c, 2)   # gamma^(-1) = gamma^2, gamma of order 3
        assert descent_condition_check(c, b, False, invert_auto(gamma))


def test_perturbed_b_fails():
    tower, _, c = setup(2, 1)
    ident = LocalFieldAuto.identity(tower, 3, PREC)
    rows = [list(r) for r in SeriesMatrix.identity(tower, 3, 3, PREC).rows]
    z8 = subfield_generator(tower, 3)
    rows[0][1] = LaurentSeries.constant(z8, 3, PREC)   # non-equivariant bump
    b = SeriesMatrix(tower, 3, PREC, rows)
    assert not descent_condition_check(c, b, False, ident)


def test_hanke_identity_automorphism():
    tower, a, _ = setup(2, 1)
    ident = LocalFieldAuto.identity(tower, 1, PREC)
    ok, wit = hanke_test_deg3(1, a, ident)
    assert ok and wit["branch"] == 1
    assert unramified_norm(wit["lambda"], 1, 3) == \
        LaurentSeries.one(tower, 1, PREC)


def test_hanke_inertial_example():
    # a = T and alpha(T) = T + T^2 gives a unit ratio 1 + T, Hensel-liftable
    tower, a, _ = setup(2, 1)
    img = LaurentSeries.from_pairs(tower, 1, [(1, tower.one()),
                                              (2, tower.one())], PREC)
    alpha = LocalFieldAuto(tower, 1, 0, img)
    ok, wit = hanke_test_deg3(1, a, alpha)
    assert ok and wit["branch"] == 1
    assert unramified_norm(wit["lambda"], 1, 3) == alpha(a) / a


def test_hanke_witness_passes_descent_both_fields():
    rng = random.Random(0)
    for (p, i) in ((2, 1), (3, 1)):
        tower, a, c = setup(p, i)
        for _ in range(10):
            alpha = rand_k_auto(tower, i, rng)
            ok, wit = hanke_test_deg3(i, a, alpha)
            assert ok
            beta_inv = invert_auto(extend_auto(alpha, 3 * i))
            bmat = wit["g"].map_entries(beta_inv)
            assert descent_condition_check(c, bmat, wit["branch"] == 2,
                                           beta_inv)


def test_hanke_norm_absorption():
    # multiplying a by a norm does not change the verdict
    tower, a, _ = setup(2, 1)
    rng = random.Random(1)
    z8 = subfield_generator(tower, 3)
    mu = LaurentSeries.from_pairs(tower, 3, [(0, z8), (2, z8 ** 3)], PREC)
    n_mu = unramified_norm(mu, 1, 3)
    a2 = a * n_mu.with_subfield(1)
    for _ in range(5):
        alpha = rand_k_auto(tower, 1, rng)
        ok1, _ = hanke_test_deg3(1, a, alpha)
        ok2, _ = hanke_test_deg3(1, a2, alpha)
        assert ok1 == ok2 == True


def test_projective_normalization():
    tower, a, _ = setup(2, 1)
    m = SeriesMatrix.identity(tower, 3, 3, PREC)
    z8 = subfield_generator(tower, 3)
    scaled = m.map_entries(lambda e: e.scale(z8))
    assert m.proportional_to(scaled)
    assert scaled.proportional_to(m)
    T = LaurentSeries.T_power(tower, 3, 1, PREC)
    series_scaled = m.map_entries(lambda e: e * (T + T * T) if e else e)
    assert m.proportional_to(series_scaled)


def test_norm_l_over_k_is_cubic_norm():
    tower, _, _ = setup(2, 1)
    z8 = subfield_generator(tower, 3)
    s = LaurentSeries.constant(z8, 3, PREC)
    n = unramified_norm(s, 1, 3)
    expected = z8 * (z8 ** 2) * (z8 ** 4)
    assert n.coeff(0) == expected
