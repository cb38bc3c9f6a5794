"""The cyclic algebra A(d,r) over K = F_{p^i}((T)) and its matrix rings.

A(d,r) is generated over E = F_{p^(id)}((T)) by a symbol u with

    u^d = T^r        and        u^(-1) x u = sigma(x)   for x in E,

where sigma is the coefficientwise i-th Frobenius power (the generator of
the unramified Galois group).  Elements are stored by their components on
the left basis u^0, ..., u^(d-1), so multiplication follows

    (u^s x)(u^t y) = u^(s+t) sigma^t(x) y,

with u^(s+t) reduced through u^d = T^r.  The side convention x*u =
u*sigma(x) is the single easiest thing to get wrong here and is pinned by
a dedicated unit test.

Reduced norms are determinants of the left regular representation over E;
semilinear automorphisms are stored as an inner part (a matrix taken
projectively), a field automorphism of E commuting with sigma, and the
twist x sent along with u.  Equality of semilinear automorphisms is
decided by comparing actions on a fixed generating set of matrices, since
neither the inner part nor the twist data is unique.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .autk import LocalFieldAuto
from .gftower import FieldTower, subfield_generator
from .series import (LaurentSeries, NotInvertible, SeriesMatrix,
                     frobenius_coeffwise, series_in_subfield, unramified_norm)


class AdmissibilityFailure(ValueError):
    """The norm condition N(x) = alpha(T^r)/T^r fails at this precision."""


class CyclicAlgebra:
    """Descriptor for A(d,r) together with the ambient tower and precision."""

    def __init__(self, tower: FieldTower, i: int, d: int, r: int, prec: int):
        if tower.M % (i * d) != 0:
            raise ValueError("tower does not contain F_{p^(id)}")
        if d < 1:
            raise ValueError("d must be positive")
        self.tower, self.i, self.d, self.r, self.prec = tower, i, d, r, prec
        self.jE = i * d
        from math import gcd
        self.is_division = gcd(d, r) == 1

    # -- element factories --------------------------------------------------

    def zero(self) -> AlgebraElement:
        z = LaurentSeries.zero(self.tower, self.jE, self.prec)
        return AlgebraElement(self, (z,) * self.d)

    def one(self) -> AlgebraElement:
        return self.scalar(LaurentSeries.one(self.tower, self.jE, self.prec))

    def scalar(self, s: LaurentSeries) -> AlgebraElement:
        if s.j != self.jE:
            s = s.with_subfield(self.jE)
        comps = [LaurentSeries.zero(self.tower, self.jE, self.prec)] * self.d
        comps[0] = s
        return AlgebraElement(self, tuple(comps))

    def u(self) -> AlgebraElement:
        if self.d == 1:
            return self.scalar(LaurentSeries.T_power(self.tower, self.jE,
                                                     self.r, self.prec))
        comps = [LaurentSeries.zero(self.tower, self.jE, self.prec)] * self.d
        comps[1] = LaurentSeries.one(self.tower, self.jE, self.prec)
        return AlgebraElement(self, tuple(comps))

    def from_components(self, comps: Sequence[LaurentSeries]) -> AlgebraElement:
        if len(comps) != self.d:
            raise ValueError(f"need exactly {self.d} components")
        return AlgebraElement(self, tuple(c.with_subfield(self.jE) for c in comps))

    def sigma(self, s: LaurentSeries, t: int = 1) -> LaurentSeries:
        """The Galois generator of E/K (coefficientwise Frobenius^i)."""
        return frobenius_coeffwise(s, self.i * t)

    def descriptor(self) -> dict:
        return {"p": self.tower.p, "i": self.i, "d": self.d, "r": self.r,
                "prec": self.prec}

    def __repr__(self):
        return f"A(d={self.d}, r={self.r}) over F_{{{self.tower.p}^{self.i}}}((T))"


class AlgebraElement:
    """Element sum_j u^j a_j of A(d,r) with E-series components a_j."""

    __slots__ = ("alg", "comps")

    def __init__(self, alg: CyclicAlgebra, comps: tuple[LaurentSeries, ...]):
        self.alg = alg
        self.comps = comps

    def is_zero(self) -> bool:
        return all(not c for c in self.comps)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self.alg, tuple(a + b for a, b in
                                              zip(self.comps, other.comps)))

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.alg, tuple(-a for a in self.comps))

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        alg = self.alg
        d, r = alg.d, alg.r
        out = [LaurentSeries.zero(alg.tower, alg.jE, alg.prec) for _ in range(d)]
        for s, xs in enumerate(self.comps):
            if not xs:
                continue
            for t, yt in enumerate(other.comps):
                if not yt:
                    continue
                term = alg.sigma(xs, t) * yt
                k, wrap = (s + t) % d, (s + t) // d
                if wrap:
                    term = term.shift(r * wrap)
                out[k] = out[k] + term
        return AlgebraElement(alg, tuple(out))

    def __pow__(self, e: int) -> AlgebraElement:
        if e < 0:
            return self.inverse() ** (-e)
        result = self.alg.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return all(a == b for a, b in zip(self.comps, other.comps))

    __hash__ = None

    def regular_representation(self) -> SeriesMatrix:
        """Matrix of left multiplication on the basis u^0, ..., u^(d-1).

        Column j holds the coordinates of self * u^j, so the map is
        multiplicative: rep(ab) = rep(a) rep(b).
        """
        alg = self.alg
        d, r = alg.d, alg.r
        zero = LaurentSeries.zero(alg.tower, alg.jE, alg.prec)
        rep = [[zero] * d for _ in range(d)]
        for col in range(d):
            for s, xs in enumerate(self.comps):
                if not xs:
                    continue
                row, wrap = (s + col) % d, (s + col) // d
                entry = alg.sigma(xs, col)
                if wrap:
                    entry = entry.shift(r * wrap)
                rep[row][col] = rep[row][col] + entry
        return SeriesMatrix(alg.tower, alg.jE, alg.prec, rep)

    def reduced_norm(self) -> LaurentSeries:
        """det of the regular representation; lands in K = F_{p^i}((T))."""
        return self.regular_representation().det().with_subfield(self.alg.i)

    def inverse(self) -> AlgebraElement:
        """Solve rep(self) * x = e_0; the solution's coordinates are the
        components of the two-sided inverse."""
        alg = self.alg
        e0 = [LaurentSeries.one(alg.tower, alg.jE, alg.prec)] + \
             [LaurentSeries.zero(alg.tower, alg.jE, alg.prec)] * (alg.d - 1)
        sol = self.regular_representation().solve(e0)
        return AlgebraElement(alg, tuple(sol))

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.comps):
            if c:
                head = "" if j == 0 else ("u*" if j == 1 else f"u^{j}*")
                parts.append(f"{head}({c!r})")
        return " + ".join(parts) if parts else "0"


class AlgebraMatrix:
    """Square matrix over A(d,r)."""

    __slots__ = ("alg", "n", "rows")

    def __init__(self, alg: CyclicAlgebra, rows: Sequence[Sequence[AlgebraElement]]):
        self.alg = alg
        self.n = len(rows)
        for row in rows:
            if len(row) != self.n:
                raise ValueError("matrix must be square")
        self.rows = tuple(tuple(row) for row in rows)

    @staticmethod
    def identity(alg: CyclicAlgebra, n: int) -> AlgebraMatrix:
        one, zero = alg.one(), alg.zero()
        return AlgebraMatrix(alg, [[one if s == t else zero for t in range(n)]
                                   for s in range(n)])

    @staticmethod
    def scalar_matrix(a: AlgebraElement, n: int) -> AlgebraMatrix:
        alg = a.alg
        zero = alg.zero()
        return AlgebraMatrix(alg, [[a if s == t else zero for t in range(n)]
                                   for s in range(n)])

    @staticmethod
    def block_diagonal(blocks: Sequence[AlgebraMatrix]) -> AlgebraMatrix:
        alg = blocks[0].alg
        n = sum(b.n for b in blocks)
        zero = alg.zero()
        rows = [[zero] * n for _ in range(n)]
        off = 0
        for blk in blocks:
            for s in range(blk.n):
                for t in range(blk.n):
                    rows[off + s][off + t] = blk.rows[s][t]
            off += blk.n
        return AlgebraMatrix(alg, rows)

    def __add__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        return AlgebraMatrix(self.alg, [[a + b for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        return AlgebraMatrix(self.alg, [[a - b for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        zero = self.alg.zero()
        cols = list(zip(*other.rows))
        out = []
        for s in range(n):
            row_s = self.rows[s]
            nz = [(k, row_s[k]) for k in range(n) if not row_s[k].is_zero()]
            out_row = []
            for t in range(n):
                col_t = cols[t]
                acc = zero
                for k, a in nz:
                    b = col_t[k]
                    if not b.is_zero():
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return AlgebraMatrix(self.alg, out)

    def __pow__(self, e: int) -> AlgebraMatrix:
        if e < 0:
            return self.inverse() ** (-e)
        result = AlgebraMatrix.identity(self.alg, self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        return all(a == b for r1, r2 in zip(self.rows, other.rows)
                   for a, b in zip(r1, r2))

    __hash__ = None

    def inverse(self) -> AlgebraMatrix:
        """Gaussian elimination over the algebra; pivots must be units."""
        alg, n = self.alg, self.n
        work = [list(r) for r in self.rows]
        idm = AlgebraMatrix.identity(alg, n)
        aug = [list(idm.rows[s]) for s in range(n)]
        for k in range(n):
            piv_inv = None
            for m in range(k, n):
                if work[m][k].is_zero():
                    continue
                try:
                    piv_inv = work[m][k].inverse()
                except NotInvertible:
                    continue
                if m != k:
                    work[k], work[m] = work[m], work[k]
                    aug[k], aug[m] = aug[m], aug[k]
                break
            if piv_inv is None:
                raise NotInvertible("matrix over the algebra is singular")
            work[k] = [piv_inv * e for e in work[k]]
            aug[k] = [piv_inv * e for e in aug[k]]
            for m in range(n):
                if m == k or work[m][k].is_zero():
                    continue
                f = work[m][k]
                work[m] = [work[m][c] - f * work[k][c] for c in range(n)]
                aug[m] = [aug[m][c] - f * aug[k][c] for c in range(n)]
        return AlgebraMatrix(alg, aug)

    def matrix_reduced_norm(self) -> LaurentSeries:
        """det of the (n*d) x (n*d) matrix of entrywise regular
        representations; restricts the usual reduced norm of M_n(A)."""
        alg, n, d = self.alg, self.n, self.alg.d
        zero = LaurentSeries.zero(alg.tower, alg.jE, alg.prec)
        big = [[zero] * (n * d) for _ in range(n * d)]
        for s in range(n):
            for t in range(n):
                a = self.rows[s][t]
                if a.is_zero():
                    continue
                rep = a.regular_representation().rows
                for rr in range(d):
                    for cc in range(d):
                        big[s * d + rr][t * d + cc] = rep[rr][cc]
        det = SeriesMatrix(alg.tower, alg.jE, alg.prec, big).det()
        return det.with_subfield(alg.i)

    def __repr__(self):
        return "[" + ",\n ".join(repr(list(r)) for r in self.rows) + "]"


# ----------------------------------------------------------------------
# Semilinear automorphisms
# ----------------------------------------------------------------------

class SemilinearAuto:
    """intaut(g) o phi(alpha, x) acting on matrices over A(d,r).

    ``g`` is taken projectively; ``alpha`` is an automorphism of E
    commuting with sigma (its T-image must have F_{p^i} coefficients) and
    ``x`` satisfies the admissibility condition N_{E/K}(x) =
    alpha(T^r)/T^r.  Compare automorphisms with ``acts_like``, never by
    their stored data.
    """

    __slots__ = ("alg", "n", "inner", "inner_inv", "alphaE", "x", "_twists")

    def __init__(self, alg: CyclicAlgebra, n: int, inner: AlgebraMatrix | None,
                 alphaE: LocalFieldAuto, x: LaurentSeries,
                 inner_inv: AlgebraMatrix | None = None, check: bool = True):
        self.alg, self.n = alg, n
        if inner is None:
            inner = AlgebraMatrix.identity(alg, n)
            inner_inv = inner
        self.inner = inner
        self.inner_inv = inner_inv if inner_inv is not None else inner.inverse()
        self.alphaE = alphaE
        self.x = x.with_subfield(alg.jE)
        if check:
            if alphaE.j != alg.jE:
                raise ValueError("alpha must be an automorphism of E")
            if not series_in_subfield(alphaE.image_of_T, alg.i):
                raise ValueError("alpha must commute with sigma: its T-image "
                                 "needs F_{p^i} coefficients")
            Tr = LaurentSeries.T_power(alg.tower, alg.jE, alg.r, min(alg.prec, x.prec))
            lhs = unramified_norm(self.x, alg.i, alg.d)
            rhs = (alphaE(Tr) * LaurentSeries.T_power(
                alg.tower, alg.jE, -alg.r, alg.prec)).with_subfield(alg.i)
            if lhs != rhs:
                raise AdmissibilityFailure(
                    "norm of the twist does not match alpha(T^r)/T^r")
        self._twists = None

    # -- action ---------------------------------------------------------

    def _twist_powers(self):
        # (u x)^j = u^j * prod_{s<j} sigma^s(x)
        if self._twists is None:
            alg = self.alg
            tw = [LaurentSeries.one(alg.tower, alg.jE, alg.prec)]
            for s in range(alg.d - 1):
                tw.append(tw[-1] * alg.sigma(self.x, s))
            self._twists = tw
        return self._twists

    def apply_element(self, a: AlgebraElement) -> AlgebraElement:
        """phi(alpha, x): sum u^j a_j -> sum (u x)^j alpha(a_j)."""
        alg = self.alg
        tw = self._twist_powers()
        comps = []
        for j, c in enumerate(a.comps):
            if not c:
                comps.append(c)
            else:
                img = self.alphaE(c)
                comps.append(img if tw[j].logs == (0,) and tw[j].val == 0
                             else tw[j] * img)
        return AlgebraElement(alg, tuple(comps))

    def apply(self, M: AlgebraMatrix) -> AlgebraMatrix:
        """g * phi~(M) * g^(-1)."""
        if M.n != self.n:
            raise ValueError("matrix size mismatch")
        return self.inner * self.apply_matrix_entrywise(M) * self.inner_inv

    def apply_matrix_entrywise(self, M: AlgebraMatrix) -> AlgebraMatrix:
        return AlgebraMatrix(self.alg, [[self.apply_element(e) for e in row]
                                        for row in M.rows])


def phi_auto(alg: CyclicAlgebra, n: int, alphaE: LocalFieldAuto,
             x: LaurentSeries) -> SemilinearAuto:
    """The twist automorphism phi~(alpha, x) with trivial inner part."""
    return SemilinearAuto(alg, n, None, alphaE, x)


def intaut(g: AlgebraMatrix, g_inv: AlgebraMatrix | None = None) -> SemilinearAuto:
    """Conjugation by g (an algebraic automorphism of SL_n)."""
    alg = g.alg
    ident = LocalFieldAuto.identity(alg.tower, alg.jE, alg.prec)
    one = LaurentSeries.one(alg.tower, alg.jE, alg.prec)
    return SemilinearAuto(alg, g.n, g, ident, one, inner_inv=g_inv, check=False)


def compose_semilinear(f1: SemilinearAuto, f2: SemilinearAuto) -> SemilinearAuto:
    """f1 o f2: twists compose as x1 * alpha1(x2) over alpha1 o alpha2."""
    if f1.alg is not f2.alg or f1.n != f2.n:
        raise ValueError("automorphisms act on different groups")
    from .autk import compose_auto
    alg = f1.alg
    inner = f1.inner * f1.apply_matrix_entrywise(f2.inner)
    inner_inv = f1.apply_matrix_entrywise(f2.inner_inv) * f1.inner_inv
    alphaE = compose_auto(f1.alphaE, f2.alphaE)
    x = f1.x * f1.alphaE(f2.x)
    return SemilinearAuto(alg, f1.n, inner, alphaE, x, inner_inv=inner_inv,
                          check=False)


def invert_semilinear(f: SemilinearAuto) -> SemilinearAuto:
    from .autk import invert_auto
    alg = f.alg
    alpha_inv = invert_auto(f.alphaE)
    x_inv = alpha_inv(f.x.inverse())
    shell = SemilinearAuto(alg, f.n, None, alpha_inv, x_inv, check=False)
    inner = shell.apply_matrix_entrywise(f.inner_inv)
    inner_inv = shell.apply_matrix_entrywise(f.inner)
    return SemilinearAuto(alg, f.n, inner, alpha_inv, x_inv,
                          inner_inv=inner_inv, check=False)


def identity_semilinear(alg: CyclicAlgebra, n: int) -> SemilinearAuto:
    ident = LocalFieldAuto.identity(alg.tower, alg.jE, alg.prec)
    one = LaurentSeries.one(alg.tower, alg.jE, alg.prec)
    return SemilinearAuto(alg, n, None, ident, one, check=False)


def generator_matrices(alg: CyclicAlgebra, n: int) -> list[AlgebraMatrix]:
    """Matrices whose images pin down a semilinear automorphism.

    The residue generator of E and T*Id see the field action on all of E
    (the K-level scalar alone would miss the inner conjugation by a power
    of u, which fixes K pointwise), u*Id sees the twist, and the
    elementary matrices (for n >= 2) see the inner part beyond scalars.
    """
    t = alg.tower
    zeta = subfield_generator(t, alg.i)
    zeta_e = subfield_generator(t, alg.jE)
    gens = [AlgebraMatrix.scalar_matrix(
                alg.scalar(LaurentSeries.constant(zeta, alg.jE, alg.prec)), n),
            AlgebraMatrix.scalar_matrix(
                alg.scalar(LaurentSeries.constant(zeta_e, alg.jE, alg.prec)), n),
            AlgebraMatrix.scalar_matrix(
                alg.scalar(LaurentSeries.T_power(t, alg.jE, 1, alg.prec)), n),
            AlgebraMatrix.scalar_matrix(alg.u(), n)]
    if n >= 2:
        one, uu = alg.one(), alg.u()
        for s in range(n - 1):
            for elt in (one, uu):
                for (a, b) in ((s, s + 1), (s + 1, s)):
                    m = AlgebraMatrix.identity(alg, n)
                    rows = [list(r) for r in m.rows]
                    rows[a][b] = elt
                    gens.append(AlgebraMatrix(alg, rows))
    return gens


def acts_like(f1: SemilinearAuto, f2: SemilinearAuto,
              gens: Iterable[AlgebraMatrix] | None = None) -> bool:
    """Equality as automorphisms: same action on the generator matrices."""
    if gens is None:
        gens = generator_matrices(f1.alg, f1.n)
    return all(f1.apply(G) == f2.apply(G) for G in gens)


def acts_trivially(f: SemilinearAuto,
                   gens: Iterable[AlgebraMatrix] | None = None) -> bool:
    if gens is None:
        gens = generator_matrices(f.alg, f.n)
    return all(f.apply(G) == G for G in gens)
