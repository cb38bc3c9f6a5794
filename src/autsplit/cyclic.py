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
projectively, given together with its inverse, since nothing here inverts
a matrix), a field automorphism of E commuting with sigma, and the twist
x sent along with u.  Equality of semilinear automorphisms is decided by
comparing actions on a fixed generating set of matrices, since neither
the inner part nor the twist data is unique.

Every matrix the sections build is diagonal, block diagonal or monomial,
so an algebra matrix has one constructor, AlgebraMatrix(alg, entries),
taking one {column: entry} dict per row: it stores only the entries
given, and a product multiplies only the stored nonzero pairs.  The
comparison on generators uses additivity: f(I + x*e_ab) = f(I) + (column
a of g) phi(x) (row b of g^-1), and the two parts are compared
separately.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .autk import LocalFieldAuto
from .gftower import FieldTower, subfield_generator
from .series import (LaurentSeries, SeriesMatrix, frobenius_coeffwise,
                     series_in_subfield, unramified_norm)


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

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        """Every component of a product is known to at most alg.prec: the
        sum of its terms capped there, or the algebra's zero."""
        alg = self.alg
        d, r, prec = alg.d, alg.r, alg.prec
        out = [None] * d
        for s, xs in enumerate(self.comps):
            if not xs:
                continue
            for t, yt in enumerate(other.comps):
                if not yt:
                    continue
                term = (alg.sigma(xs, t) if t else xs) * yt
                k, wrap = (s + t) % d, (s + t) // d
                if wrap:
                    term = term.shift(r * wrap)
                out[k] = term if out[k] is None else out[k] + term
        zero = LaurentSeries.zero(alg.tower, alg.jE, prec)
        for k, c in enumerate(out):
            if c is None:
                out[k] = zero
            elif c.prec > prec:
                out[k] = c.truncate(prec)
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
    """Square matrix over A(d,r), stored as one dict {column: entry} per row.

    A position missing from its row holds the algebra's zero, alg.zero().
    Every operation gives the entries the dense schoolbook formula gives,
    value and precision alike: an entry of a product is the sum of a_sk *
    b_kt over the pairs whose factors are both nonzero, or alg.zero() when
    there is no such pair.  A product of algebra elements is already known
    to at most alg.prec, so its sum needs no zero accumulator to be capped
    there.  An entry that cancels to zero keeps the precision its sum
    reached and stays stored: equality compares at the lower precision of
    the two sides, so dropping it would compare at alg.prec instead.
    ``rows`` is a dense read-only view.
    """

    __slots__ = ("alg", "n", "entries")

    def __init__(self, alg: CyclicAlgebra,
                 entries: Sequence[dict[int, AlgebraElement]]):
        """From one {column: entry} dict per row, stored as given."""
        self.alg, self.n, self.entries = alg, len(entries), tuple(entries)

    @property
    def rows(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        zero = self.alg.zero()
        return tuple(tuple(row.get(t, zero) for t in range(self.n))
                     for row in self.entries)

    @staticmethod
    def identity(alg: CyclicAlgebra, n: int) -> AlgebraMatrix:
        return AlgebraMatrix.scalar_matrix(alg.one(), n)

    @staticmethod
    def scalar_matrix(a: AlgebraElement, n: int) -> AlgebraMatrix:
        return AlgebraMatrix(a.alg, [{s: a} for s in range(n)])

    @staticmethod
    def block_diagonal(blocks: Sequence[AlgebraMatrix]) -> AlgebraMatrix:
        entries, off = [], 0
        for blk in blocks:
            entries.extend({off + t: e for t, e in row.items()}
                           for row in blk.entries)
            off += blk.n
        return AlgebraMatrix(blocks[0].alg, entries)

    def __mul__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        if self.n != other.n:
            raise ValueError("size mismatch")
        right = _nonzero_rows(other)
        return AlgebraMatrix(self.alg,
                             [_row_times(row, right) for row in self.entries])

    def __pow__(self, e: int) -> AlgebraMatrix:
        """A power e >= 0 by repeated squaring."""
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
        zero = self.alg.zero()
        return all(_rows_equal(r1, r2, zero)
                   for r1, r2 in zip(self.entries, other.entries))

    __hash__ = None

    def __repr__(self):
        return "[" + ",\n ".join(repr(list(r)) for r in self.rows) + "]"


def _nonzero_rows(m: AlgebraMatrix) -> list[list[tuple[int, AlgebraElement]]]:
    return [[(t, e) for t, e in row.items() if not e.is_zero()]
            for row in m.entries]


def _row_times(row: dict[int, AlgebraElement],
               right: list[list[tuple[int, AlgebraElement]]]) -> dict[int, AlgebraElement]:
    """Row vector times a matrix given by its nonzero rows: each entry sums
    a * b over the pairs with both factors nonzero."""
    out = {}
    for k, a in row.items():
        if a.is_zero():
            continue
        for t, b in right[k]:
            prod = a * b
            cur = out.get(t)
            out[t] = prod if cur is None else cur + prod
    return out


def _rows_equal(r1: dict, r2: dict, zero: AlgebraElement) -> bool:
    return all(r1.get(t, zero) == r2.get(t, zero) for t in r1.keys() | r2.keys())


# ----------------------------------------------------------------------
# Semilinear automorphisms
# ----------------------------------------------------------------------

class SemilinearAuto:
    """intaut(g) o phi(alpha, x) acting on matrices over A(d,r).

    ``g`` is taken projectively and comes with its inverse ``inner_inv``;
    ``inner`` None stands for the identity.  ``alpha`` is an automorphism
    of E commuting with sigma (its T-image must have F_{p^i} coefficients)
    and ``x`` satisfies the admissibility condition N_{E/K}(x) =
    alpha(T^r)/T^r.  Compare automorphisms with ``acts_like``, never by
    their stored data.
    """

    __slots__ = ("alg", "n", "inner", "inner_inv", "alphaE", "x", "_twists")

    def __init__(self, alg: CyclicAlgebra, n: int, inner: AlgebraMatrix | None,
                 alphaE: LocalFieldAuto, x: LaurentSeries,
                 inner_inv: AlgebraMatrix | None = None, check: bool = True):
        self.alg, self.n = alg, n
        if inner is None:
            inner = inner_inv = AlgebraMatrix.identity(alg, n)
        elif inner_inv is None:
            raise TypeError("an inner part needs its inverse inner_inv")
        self.inner, self.inner_inv = inner, inner_inv
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
        # phi maps alg.zero() to itself, so missing entries stay missing
        return AlgebraMatrix(self.alg, [
            {t: self.apply_element(e) for t, e in row.items()}
            for row in M.entries])


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
                    entries = [{k: one} for k in range(n)]
                    entries[a] = {a: one, b: elt}
                    gens.append(AlgebraMatrix(alg, entries))
    return gens


def acts_like(f1: SemilinearAuto, f2: SemilinearAuto,
              gens: Iterable[AlgebraMatrix] | None = None) -> bool:
    """Equality as automorphisms: f1(G) == f2(G) for every generator G.

    f(M) = g phi~(M) g^-1 is additive in M, so an elementary generator
    G = I + x*e_ab has the image f(I) + R with R_st = g_sa phi(x) (g^-1)_bt.
    f1(I) and f2(I) are compared once, then R1 and R2 for each elementary
    generator.  Each part is known to at least the precision of the sum
    f(I) + R, so whenever f1(I) + R1 != f2(I) + R2 at that precision, one
    of the two comparisons fails.  Scalar generators, and any other matrix
    passed in ``gens``, are pushed through ``apply``.
    """
    if gens is None:
        gens = generator_matrices(f1.alg, f1.n)
    return _same_images(f1, f2, gens)


def acts_trivially(f: SemilinearAuto,
                   gens: Iterable[AlgebraMatrix] | None = None) -> bool:
    """f(G) == G for every generator G, compared as in ``acts_like``."""
    if gens is None:
        gens = generator_matrices(f.alg, f.n)
    return _same_images(f, None, gens)


def _same_images(f1: SemilinearAuto, f2: SemilinearAuto | None,
                 gens: Iterable[AlgebraMatrix]) -> bool:
    """Whether f1(G) == f2(G) for all G in gens; f2 None stands for the
    identity, whose image of G is G itself."""
    identity_checked = False
    for G in gens:
        shape = _elementary_shape(G)
        if shape is None:
            if f1.apply(G) != (G if f2 is None else f2.apply(G)):
                return False
            continue
        if not identity_checked:
            ident = AlgebraMatrix.identity(G.alg, G.n)
            if f1.apply(ident) != (ident if f2 is None else f2.apply(ident)):
                return False
            identity_checked = True
        a, b, x = shape
        r1 = _rank_one(f1, a, b, x)
        r2 = {a: {b: x}} if f2 is None else _rank_one(f2, a, b, x)
        zero = G.alg.zero()
        if not all(_rows_equal(r1.get(s, {}), r2.get(s, {}), zero)
                   for s in r1.keys() | r2.keys()):
            return False
    return True


def _elementary_shape(G: AlgebraMatrix):
    """(a, b, x) when G = I + x*e_ab with a != b, else None.  The diagonal
    must be alg.one() itself, precision included."""
    found = None
    for s, row in enumerate(G.entries):
        if s not in row or not _is_algebra_one(row[s]):
            return None
        for t, e in row.items():
            if t != s:
                if found is not None:
                    return None
                found = (s, t, e)
    return found


def _is_algebra_one(e: AlgebraElement) -> bool:
    prec = e.alg.prec
    c0 = e.comps[0]
    return (c0.val == 0 and c0.logs == (0,) and c0.prec == prec
            and all(not c and c.prec == prec for c in e.comps[1:]))


def _rank_one(f: SemilinearAuto, a: int, b: int,
              x: AlgebraElement) -> dict[int, dict[int, AlgebraElement]]:
    """R = f(I + x*e_ab) - f(I), R_st = g_sa phi(x) (g^-1)_bt, by rows;
    only the stored nonzero g_sa and (g^-1)_bt take part."""
    fx = f.apply_element(x)
    row_b = [(t, e) for t, e in f.inner_inv.entries[b].items()
             if not e.is_zero()]
    out = {}
    for s, row in enumerate(f.inner.entries):
        ga = row.get(a)
        if ga is not None and not ga.is_zero():
            left = ga * fx
            out[s] = {t: left * e for t, e in row_b}
    return out
