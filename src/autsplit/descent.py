"""Cocycle descent checking for PGL_3 over unramified cubic extensions.

For l/k unramified cyclic of degree 3 with Galois generator gamma (the
i-th Frobenius power on coefficients), an inner form of SL_3 is pinned by
the cocycle gamma -> c_gamma = [[0,0,a],[1,0,0],[0,1,0]] in PGL_3(l).  A
semilinear automorphism candidate b*Id_beta descends exactly when

    c_gamma  (gamma.b)  (beta^(-1).c_gamma)^(-1)  =  b      (projectively)

evaluated on the generator, which suffices for cyclic groups.  The
inverse is read off the cocycle's shape: for any slot s,
[[0,0,s],[1,0,0],[0,1,0]]^(-1) = [[0,1,0],[0,0,1],[1/s,0,0]].

The degree-3 extendability test solves alpha(a)/a = N_{l/k}(lambda) and
turns lambda into an explicit descent witness, re-checked through the
cocycle condition.  Over k = F_q((T)) this inner equation always has a
solution: alpha keeps valuations, so alpha(a)/a is a unit, and every unit
of k is a norm from the unramified l.  The outer equation
alpha(a)*a = N_{l/k}(lambda), which would pair alpha with the
anti-transpose-inverse automorphism, is therefore never needed and is not
tried.
"""

from __future__ import annotations

from .autk import LocalFieldAuto, extend_auto, invert_auto
from .series import (LaurentSeries, SeriesMatrix, frobenius_coeffwise,
                     norm_equation_solve)


def cocycle_matrix(a: LaurentSeries, j: int) -> SeriesMatrix:
    """c_gamma = [[0,0,a],[1,0,0],[0,1,0]] over F_{p^j}((T)), the inner
    form with slot a."""
    one = LaurentSeries.one(a.tower, j, a.prec)
    zero = LaurentSeries.zero(a.tower, j, a.prec)
    return SeriesMatrix(a.tower, j, a.prec, [[zero, zero, a.with_subfield(j)],
                                             [one, zero, zero],
                                             [zero, one, zero]])


def descent_condition_check(i: int, a: LaurentSeries, bmat: SeriesMatrix,
                            beta_inv: LocalFieldAuto) -> bool:
    """Whether b*Id_beta descends along the form with slot a, given the
    inverse beta_inv of beta and gamma = Frobenius^i on coefficients.

    Evaluates c_gamma (gamma.b) X = b projectively with X the inverse of
    the beta-inverse image of c_gamma."""
    cm = cocycle_matrix(a, 3 * i)
    gb = bmat.map_entries(lambda e: frobenius_coeffwise(e, i))
    return bmat.proportional_to(cm * gb * image_inverse(cm, beta_inv))


def image_inverse(cm: SeriesMatrix, beta_inv: LocalFieldAuto) -> SeriesMatrix:
    """(beta_inv.c_gamma)^(-1) = [[0,1,0],[0,0,1],[1/beta_inv(a),0,0]] for
    c_gamma = cocycle_matrix(a, j); its zeros and ones are c_gamma's."""
    zero, one = cm.rows[0][0], cm.rows[1][0]
    return SeriesMatrix(cm.tower, cm.j, cm.prec,
                        [[zero, one, zero],
                         [zero, zero, one],
                         [one * beta_inv(cm.rows[0][2]).inverse(), zero, zero]])


def hanke_test_deg3(i: int, a: LaurentSeries, alpha: LocalFieldAuto):
    """Extendability of alpha to the degree-3 algebra with slot a.

    Solves alpha(a)/a = N(lambda) and builds the witness
    g = diag(gamma^2(lambda) gamma(lambda), gamma^2(lambda), 1).  Returns
    (True, {lambda, g}) when g passes descent_condition_check, and
    (False, None) otherwise."""
    tower = a.tower
    jl = 3 * i
    if tower.M % jl != 0:
        raise ValueError("tower does not contain the unramified cubic extension")
    beta_inv = invert_auto(extend_auto(alpha, jl))
    lam = norm_equation_solve(alpha(a) / a, i, 3)
    gamma_lam = frobenius_coeffwise(lam, i)
    gamma2_lam = frobenius_coeffwise(lam, 2 * i)
    d1 = gamma2_lam * gamma_lam
    zero = LaurentSeries.zero(tower, jl, d1.prec)
    g = SeriesMatrix(tower, jl, lam.prec,
                     [[d1, zero, zero],
                      [zero, gamma2_lam, zero],
                      [zero, zero, LaurentSeries.one(tower, jl, lam.prec)]])
    if descent_condition_check(i, a, g.map_entries(beta_inv), beta_inv):
        return True, {"lambda": lam, "g": g}
    return False, None
