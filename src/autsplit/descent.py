"""Cocycle descent checking for PGL_3 over unramified cubic extensions.

For l/k unramified cyclic of degree 3 with Galois generator gamma (the
i-th Frobenius power on coefficients), an inner form of SL_3 is pinned by
the cocycle gamma -> [[0,0,a],[1,0,0],[0,1,0]] in PGL_3(l).  A semilinear
automorphism candidate b*Id_beta descends exactly when

    c_gamma  (gamma.b)  (beta^(-1).c_gamma)^(-1)  =  b      (projectively)

evaluated on the generator, which suffices for cyclic groups.  The
optional outer flag composes b with the order-2 pinned outer automorphism
g -> at(g)^(-1) (anti-transpose inverse), under which the cocycle matrix
conjugates to its inverse.

The degree-3 extendability test decides, for a field automorphism alpha,
whether one of the two norm equations

    alpha(a)/a = N_{l/k}(lambda)      or      alpha(a)*a = N_{l/k}(lambda)

is solvable; a solution is turned into an explicit descent witness and
re-checked through the cocycle condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autk import LocalFieldAuto, extend_auto, invert_auto
from .gftower import FieldTower
from .series import (LaurentSeries, SeriesMatrix, frobenius_coeffwise,
                     norm_equation_solve)


@dataclass
class CyclicCocycle:
    """Cocycle on Gal(l/k) = <gamma>, stored by its value at gamma."""
    gamma_matrix: SeriesMatrix
    i: int          # gamma acts on coefficients by Frobenius^i
    degree: int     # [l : k]

    @staticmethod
    def standard(tower: FieldTower, i: int, a: LaurentSeries,
                 degree: int = 3) -> CyclicCocycle:
        """gamma -> [[0,0,a],[1,0,0],[0,1,0]], the inner form with slot a."""
        j = i * degree
        prec = a.prec
        one = LaurentSeries.one(tower, j, prec)
        zero = LaurentSeries.zero(tower, j, prec)
        al = a.with_subfield(j)
        m = SeriesMatrix(tower, j, prec, [[zero, zero, al],
                                          [one, zero, zero],
                                          [zero, one, zero]])
        return CyclicCocycle(m, i, degree)

    def gamma_action(self, mat: SeriesMatrix) -> SeriesMatrix:
        return mat.map_entries(lambda e: frobenius_coeffwise(e, self.i))

    def value(self, power: int) -> SeriesMatrix:
        """Extension by the cocycle law c_{gamma^(s+1)} = c_gamma gamma(c_{gamma^s})."""
        m = self.gamma_matrix
        acc = SeriesMatrix.identity(m.tower, m.j, m.n, m.prec)
        for _ in range(power % self.degree):
            acc = m * self.gamma_action(acc)
        return acc

    def closes(self) -> bool:
        """The extension to gamma^degree is projectively trivial."""
        m = full = self.gamma_matrix
        for _ in range(self.degree - 1):
            full = m * self.gamma_action(full)
        return full.proportional_to(SeriesMatrix.identity(m.tower, m.j, m.n,
                                                          m.prec))


def descent_condition_check(c: CyclicCocycle, bmat: SeriesMatrix, e_flag: bool,
                            beta_inv: LocalFieldAuto) -> bool:
    """Whether b*Id_beta descends along the form defined by c, given the
    inverse beta_inv of beta.

    Evaluates c_gamma (gamma.b) X = b projectively with X the beta-inverse
    image of c_gamma^(-1), pushed through the outer flip when e_flag is
    set (the flip inverts the cocycle matrix, so X becomes the
    anti-transpose of the beta-inverse image of c_gamma).
    """
    cm = c.gamma_matrix
    gb = c.gamma_action(bmat)
    cm_beta = cm.map_entries(beta_inv)
    if e_flag:
        r = cm_beta.rows
        X = SeriesMatrix(cm.tower, cm.j, cm.prec,
                         [[r[2 - t][2 - s] for t in range(3)] for s in range(3)])
    else:
        X = cm_beta.inverse()
    lhs = cm * gb * X
    return bmat.proportional_to(lhs)


def hanke_test_deg3(i: int, a: LaurentSeries, alpha: LocalFieldAuto):
    """Extendability of alpha to the degree-3 algebra with slot a.

    Tries alpha(a)/a = N(lambda) first (inner branch), then
    alpha(a)*a = N(lambda) (outer branch).  Returns (True, witness) with
    witness = {lambda, branch, g} on success; the witness matrix is
    fed back through descent_condition_check before being returned.
    """
    tower = a.tower
    jl = 3 * i
    if tower.M % jl != 0:
        raise ValueError("tower does not contain the unramified cubic extension")
    beta_inv = invert_auto(extend_auto(alpha, jl))
    a_l = a.with_subfield(jl)
    cocycle = CyclicCocycle.standard(tower, i, a, degree=3)

    def gamma(s, power=1):
        return frobenius_coeffwise(s, i * power)

    for branch, rhs in ((1, alpha(a) / a), (2, alpha(a) * a)):
        lam = norm_equation_solve(rhs, i, 3)
        if lam is None:
            continue
        if branch == 1:
            g_rows = _diag3(tower, jl, gamma(lam, 2) * gamma(lam, 1),
                            gamma(lam, 2),
                            LaurentSeries.one(tower, jl, lam.prec))
            e_flag = False
        else:
            zero = LaurentSeries.zero(tower, jl, lam.prec)
            one = LaurentSeries.one(tower, jl, lam.prec)
            g_rows = [[one, zero, zero],
                      [zero, zero, a_l / lam],
                      [zero, a_l / (lam * gamma(lam, 1)), zero]]
            e_flag = True
        g = SeriesMatrix(tower, jl, lam.prec, g_rows)
        if descent_condition_check(cocycle, g.map_entries(beta_inv), e_flag,
                                   beta_inv):
            return True, {"lambda": lam, "branch": branch, "g": g}
    return False, None


def _diag3(tower, j, d1, d2, d3):
    zero = LaurentSeries.zero(tower, j, d1.prec)
    return [[d1, zero, zero], [zero, d2, zero], [zero, zero, d3]]
