import io
import json
import random
from contextlib import redirect_stdout

from autsplit import cli
from autsplit.autk import LocalFieldAuto, extend_auto, invert_auto
from autsplit.descent import (cocycle_matrix, descent_condition_check,
                              hanke_test_deg3, image_inverse)
from autsplit.gftower import build_tower, subfield_generator
from autsplit.series import (LaurentSeries, SeriesMatrix, frobenius_coeffwise,
                             unramified_norm)
from series_matrix_reference import identity_matrix, matrix_inverse

PREC = 20


def setup(p, i):
    tower = build_tower(p, i, 3, 1)
    a = LaurentSeries.T_power(tower, i, 1, PREC)
    return tower, a, cocycle_matrix(a, 3 * i)


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


def gamma_action(m, i):
    return m.map_entries(lambda e: frobenius_coeffwise(e, i))


def cocycle_value(m, i, power):
    """c at gamma^power by the cocycle law c_{gamma^(s+1)} = c_gamma
    gamma(c_{gamma^s}); gamma has order 3."""
    acc = identity_matrix(m.tower, m.j, m.n, m.prec)
    for _ in range(power % 3):
        acc = m * gamma_action(acc, i)
    return acc


def test_cocycle_extension_closes():
    # the law extended to gamma^3 = 1 is projectively trivial
    for (p, i) in ((2, 1), (3, 1), (2, 2)):
        _, _, m = setup(p, i)
        full = m * gamma_action(m * gamma_action(m, i), i)
        assert full.proportional_to(identity_matrix(m.tower, 3 * i, 3, PREC))


def test_trivial_b_trivial_beta_descends():
    tower, a, _ = setup(2, 1)
    ident = LocalFieldAuto.ev(tower.one(), 3, PREC)
    b = identity_matrix(tower, 3, 3, PREC)
    assert descent_condition_check(1, a, b, ident)


def test_canonical_gamma_twist_descends():
    # b = c_{gamma^(-1)}, beta = gamma satisfies the descent condition
    for (p, i) in ((2, 1), (3, 1)):
        tower, a, m = setup(p, i)
        gamma = LocalFieldAuto.frobenius_power(tower, 3 * i, i, PREC)
        b = cocycle_value(m, i, 2)   # gamma^(-1) = gamma^2, gamma of order 3
        assert descent_condition_check(i, a, b, invert_auto(gamma))


def test_perturbed_b_fails():
    tower, a, _ = setup(2, 1)
    ident = LocalFieldAuto.ev(tower.one(), 3, PREC)
    rows = [list(r) for r in identity_matrix(tower, 3, 3, PREC).rows]
    z8 = subfield_generator(tower, 3)
    rows[0][1] = LaurentSeries.constant(z8, 3, PREC)   # non-equivariant bump
    b = SeriesMatrix(tower, 3, PREC, rows)
    assert not descent_condition_check(1, a, b, ident)


def test_closed_form_inverse_of_the_cocycle_image():
    # X = [[0,1,0],[0,0,1],[1/beta_inv(a),0,0]] inverts beta_inv(c_gamma),
    # and its nonzero entries are those Gauss-Jordan elimination builds
    # (elimination scales two zeros by 1/beta_inv(a), which moves their
    # precision; products skip zero entries, so that cannot show)
    rng = random.Random(4)
    for (p, i) in ((2, 1), (3, 1), (2, 2), (7, 1)):
        tower = build_tower(p, i, 3, 1)
        for r in (-2, 0, 1, 3):
            a = LaurentSeries.T_power(tower, i, r, PREC)
            cm = cocycle_matrix(a, 3 * i)
            for _ in range(2):
                beta_inv = invert_auto(extend_auto(rand_k_auto(tower, i, rng),
                                                   3 * i))
                image = cm.map_entries(beta_inv)
                X = image_inverse(cm, beta_inv)
                ident = identity_matrix(tower, 3 * i, 3, PREC).rows
                assert (X * image).rows == ident
                assert (image * X).rows == ident
                shape = lambda m: [[(e.val, e.logs, e.prec) if e else None
                                    for e in row] for row in m.rows]
                assert shape(X) == shape(matrix_inverse(image))


def test_hanke_identity_automorphism():
    tower, a, _ = setup(2, 1)
    ident = LocalFieldAuto.ev(tower.one(), 1, PREC)
    ok, wit = hanke_test_deg3(1, a, ident)
    assert ok
    assert unramified_norm(wit["lambda"], 1, 3) == \
        LaurentSeries.one(tower, 1, PREC)


def test_hanke_inertial_example():
    # a = T and alpha(T) = T + T^2 gives a unit ratio 1 + T, Hensel-liftable
    tower, a, _ = setup(2, 1)
    img = LaurentSeries.from_pairs(tower, 1, [(1, tower.one()),
                                              (2, tower.one())], PREC)
    alpha = LocalFieldAuto(tower, 1, 0, img)
    ok, wit = hanke_test_deg3(1, a, alpha)
    assert ok
    assert unramified_norm(wit["lambda"], 1, 3) == alpha(a) / a


def test_hanke_witness_passes_descent_both_fields():
    rng = random.Random(0)
    for (p, i) in ((2, 1), (3, 1)):
        tower, a, _ = setup(p, i)
        for _ in range(10):
            alpha = rand_k_auto(tower, i, rng)
            ok, wit = hanke_test_deg3(i, a, alpha)
            assert ok
            beta_inv = invert_auto(extend_auto(alpha, 3 * i))
            bmat = wit["g"].map_entries(beta_inv)
            assert descent_condition_check(i, a, bmat, beta_inv)


# (p, i, r, frob, prec): r = 0 and r < 0, r divisible by 3 (where
# alpha(a)*a is a norm too), every Frobenius power, and precisions down
# to the least the command accepts
HANKE_GRID = [(p, i, r, frob, prec)
              for p, i in ((2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (2, 3))
              for r, prec in ((-2, 4), (0, 2), (1, 6), (3, 8), (5, 6),
                              (6, 12))
              for frob in sorted({0, i - 1})]


def test_hanke_grid_answers_yes_with_a_witness_that_descends(monkeypatch):
    # over F_q((T)) the inner equation alpha(a)/a = N(lambda) always has a
    # solution, so every command exits 0 on branch 1, and the witness the
    # report prints passes the descent check again
    rng = random.Random(11)
    calls = []

    def recording(i, a, alpha):
        result = hanke_test_deg3(i, a, alpha)
        calls.append((i, a, alpha, result))
        return result
    monkeypatch.setattr(cli, "hanke_test_deg3", recording)
    for p, i, r, frob, prec in HANKE_GRID:
        q = p ** i
        alpha = "+".join([f"g^{rng.randrange(q - 1)}*T"]
                         + [f"g^{rng.randrange(q - 1)}*T^{e}"
                            for e in range(2, 6) if rng.random() < 0.5])
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["--output", "json", "hanke", "--p", str(p),
                             "--i", str(i), "--r", str(r), "--alpha", alpha,
                             "--frob", str(frob), "--prec", str(prec)])
        assert code == 0
        assert json.loads(buf.getvalue())["result"]["branch"] == 1
        i_, a, alpha_auto, (ok, wit) = calls[-1]
        beta_inv = invert_auto(extend_auto(alpha_auto, 3 * i_))
        assert ok and descent_condition_check(
            i_, a, wit["g"].map_entries(beta_inv), beta_inv)
    assert len(calls) == len(HANKE_GRID)


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
    m = identity_matrix(tower, 3, 3, PREC)
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
