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
given, and a product multiplies only the stored nonzero pairs, through
one kernel, ``_row_times``.  phi~, phi applied entry by entry, is one
pass, ``SemilinearAuto.entrywise``.  ``SemilinearAuto.apply`` is the
definition (g * phi~(M)) * g^-1 taken one row of g at a time through the
same kernel, and ``compose_semilinear`` forms g1 * phi1~(g2) and
phi1~(g2^-1) * g1^-1 by matrix products.  The generators a comparison
runs on form an additive spanning set: scalar matrices, I and the parts
x*e_ab of the elementary matrices I + x*e_ab.  f is additive, so
comparing f(I) and f(x*e_ab) compares f(I + x*e_ab).  Two kinds of work
skip the products.  A scalar c*Id with c in K, such as zeta*Id and T*Id,
is central: Int(g) fixes K pointwise, so f(c*Id) = alpha(c)*f(I), and
once f(I) is compared the comparison reads alpha(c) alone
(``acts_like``).  And a product with a factor shaped like 1, as phi(1)
and the parts 1*e_ab give, copies the other factor's components at the
precision the series product would give, without taking it
(``AlgebraElement.__mul__``).

The builders store one element object at many positions (a scalar matrix
holds one object n times, and the generators share alg.one() and
alg.u()), so phi~ maps each distinct stored object once: once per
``apply``, once for g2 and g2^-1 together in a composition, or once per
side of a whole comparison, which keeps the generators alive while it
runs.  These memos are local and keep nothing.  Series and elements are
never mutated, so an algebra builds its zero series and its zero(),
one() and u() once and every builder and product shares them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .autk import LocalFieldAuto, compose_auto
from .gftower import FieldTower, NotInSubfield, subfield_generator
from .series import (LaurentSeries, SeriesMatrix, frobenius_coeffwise,
                     series_in_subfield, unramified_norm)


class AdmissibilityFailure(ValueError):
    """The norm condition N(x) = alpha(T^r)/T^r fails at this precision."""


class CyclicAlgebra:
    """Descriptor for A(d,r) together with the ambient tower and precision.

    ``zero_series`` is the zero of E at the algebra's precision: zero(),
    scalar, u_power, products and regular representations fill every
    empty slot with this one object.
    """

    def __init__(self, tower: FieldTower, i: int, d: int, r: int, prec: int):
        if tower.M % (i * d) != 0:
            raise ValueError("tower does not contain F_{p^(id)}")
        if d < 1:
            raise ValueError("d must be positive")
        self.tower, self.i, self.d, self.r, self.prec = tower, i, d, r, prec
        self.jE = i * d
        self.zero_series = LaurentSeries.zero(tower, self.jE, prec)
        self._zero = AlgebraElement(self, (self.zero_series,) * d)
        self._one = self.scalar(LaurentSeries.one(tower, self.jE, prec))
        self._u = self.u_power(1)

    # -- element factories --------------------------------------------------

    def zero(self) -> AlgebraElement:
        return self._zero

    def one(self) -> AlgebraElement:
        return self._one

    def scalar(self, s: LaurentSeries) -> AlgebraElement:
        if s.j != self.jE:
            s = s.with_subfield(self.jE)
        return AlgebraElement(self, (s,) + (self.zero_series,) * (self.d - 1))

    def u(self) -> AlgebraElement:
        return self._u

    def u_power(self, e: int) -> AlgebraElement:
        """u^e = u^(e mod d) T^(r*floor(e/d)) exactly, for every integer e:
        u^d = T^r is central, so no inverse is taken."""
        d = self.d
        comps = [self.zero_series] * d
        comps[e % d] = LaurentSeries.T_power(self.tower, self.jE,
                                             self.r * (e // d), self.prec)
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
        """Exactly zero mod T^alg.prec: no component has a term, and every
        one is known to at least alg.prec.  A zero known only to T^k,
        k < alg.prec, is not: its products keep that O(T^k)."""
        prec = self.alg.prec
        for c in self.comps:
            if c.logs or c.prec < prec:
                return False
        return True

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self.alg, tuple(a + b for a, b in
                                              zip(self.comps, other.comps)))

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        """Every component of a product is known to at most alg.prec: the
        sum of its terms capped there, or alg.zero_series.

        Only the components of both factors that are not exact zeros (a
        component with no terms known to alg.prec is one) take part, so a
        product of two scalars is one series product whatever d is.  A
        factor shaped like 1 (``_one_prec``: 1 + O(T^P1) with P1 >=
        alg.prec, every other component without terms) takes no series
        product: each nonzero component c of the other factor keeps its
        val and logs, cut to precision min(c.prec, P1 + c.val, alg.prec),
        and each component without terms becomes alg.zero_series.  That is
        the (val, logs, prec) the product c * (1 + O(T^P1)) and the cap
        give, and it is the component's only term."""
        alg = self.alg
        d, r, i, prec = alg.d, alg.r, alg.i, alg.prec
        one, rest = _one_prec(other.comps, prec), self.comps
        if one is None:
            one, rest = _one_prec(self.comps, prec), other.comps
        if one is not None:
            zero = alg.zero_series
            return AlgebraElement(alg, tuple(
                zero if not c.logs
                else c if c.prec <= min(one + c.val, prec)
                else c.truncate(min(one + c.val, prec)) for c in rest))
        right = [(t, yt) for t, yt in enumerate(other.comps)
                 if yt.logs or yt.prec < prec]
        out = [None] * d
        for s, xs in enumerate(self.comps):
            if not xs.logs and xs.prec >= prec:
                continue
            for t, yt in right:
                term = (frobenius_coeffwise(xs, i * t) if t else xs) * yt
                k = s + t
                if k >= d:                  # u^d = T^r; s, t < d wrap once
                    k -= d
                    term = term.shift(r)
                cur = out[k]
                out[k] = term if cur is None else cur + term
        for k, c in enumerate(out):
            if c is None:
                out[k] = alg.zero_series
            elif c.prec > prec:
                out[k] = c.truncate(prec)
        return AlgebraElement(alg, tuple(out))

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
        rep = [[alg.zero_series] * d for _ in range(d)]
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

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.comps):
            if c:
                head = "" if j == 0 else ("u*" if j == 1 else f"u^{j}*")
                parts.append(f"{head}({c!r})")
        return " + ".join(parts) if parts else "0"


def _one_prec(comps: tuple[LaurentSeries, ...], prec: int) -> int | None:
    """P1 when comps is shaped like 1: component 0 is 1 + O(T^P1) with
    P1 >= prec, and no other component has a term.  None otherwise."""
    c = comps[0]
    if c.logs != (0,) or c.val or c.prec < prec:
        return None
    for x in comps[1:]:
        if x.logs:
            return None
    return c.prec


class AlgebraMatrix:
    """Square matrix over A(d,r), stored as one dict {column: entry} per row.

    A position missing from its row holds the algebra's zero, alg.zero().
    Neither a matrix nor its entries are mutated after construction, so
    ``nonzero()`` finds the entries that are not ``is_zero`` once and
    keeps them.  An entry of a product sums a_sk * b_kt over the pairs of
    ``nonzero()`` entries, and is missing when there is no such pair.
    That is the dense schoolbook formula, value and precision alike.  A
    product of algebra elements is already known to at most alg.prec, so
    its sum needs no zero accumulator to be capped there.  An entry that
    cancels to zero keeps the precision its sum reached and stays stored:
    equality compares at the lower precision of the two sides, so
    dropping it would compare at alg.prec instead.
    ``rows`` is a dense read-only view.
    """

    __slots__ = ("alg", "n", "entries", "_nonzero")

    def __init__(self, alg: CyclicAlgebra,
                 entries: Sequence[dict[int, AlgebraElement]]):
        """From one {column: entry} dict per row, stored as given."""
        self.alg, self.n, self.entries = alg, len(entries), tuple(entries)
        self._nonzero = None

    @property
    def rows(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        zero = self.alg.zero()
        return tuple(tuple(row.get(t, zero) for t in range(self.n))
                     for row in self.entries)

    def nonzero(self) -> tuple[list[tuple[int, AlgebraElement]], ...]:
        """Per row, the (column, entry) pairs whose entry is not
        ``is_zero``."""
        if self._nonzero is None:
            self._nonzero = tuple(_nonzero_pairs(row.items())
                                  for row in self.entries)
        return self._nonzero

    @staticmethod
    def identity(alg: CyclicAlgebra, n: int) -> AlgebraMatrix:
        return AlgebraMatrix.scalar_matrix(alg.one(), n)

    @staticmethod
    def scalar_matrix(a: AlgebraElement, n: int) -> AlgebraMatrix:
        return AlgebraMatrix(a.alg, [{s: a} for s in range(n)])

    def __mul__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        if self.n != other.n:
            raise ValueError("size mismatch")
        right = other.nonzero()
        return AlgebraMatrix(self.alg, [_row_times(row, right)
                                        for row in self.nonzero()])

    def __pow__(self, e: int) -> AlgebraMatrix:
        """A power e >= 0 by repeated squaring; nothing here inverts a
        matrix, so e < 0 is a ValueError."""
        if e < 0:
            raise ValueError("negative power of an algebra matrix")
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
        if self.n != other.n:
            return False
        zero = self.alg.zero()
        return all(r1.get(t, zero) == r2.get(t, zero)
                   for r1, r2 in zip(self.entries, other.entries)
                   for t in r1.keys() | r2.keys())

    __hash__ = None

    def __repr__(self):
        return "[" + ",\n ".join(repr(list(r)) for r in self.rows) + "]"


def _nonzero_pairs(pairs: Iterable[tuple[int, AlgebraElement]]
                   ) -> list[tuple[int, AlgebraElement]]:
    """The (column, entry) pairs whose entry is not ``is_zero``."""
    return [(t, e) for t, e in pairs if not e.is_zero()]


def _row_times(row: Iterable[tuple[int, AlgebraElement]],
               right: Sequence[list[tuple[int, AlgebraElement]]]
               ) -> dict[int, AlgebraElement]:
    """A row given by its nonzero (k, a) pairs times a matrix given by the
    nonzero (t, b) pairs of each row k: entry t sums a * b over them."""
    out = {}
    for k, a in row:
        for t, b in right[k]:
            prod = a * b
            cur = out.get(t)
            out[t] = prod if cur is None else cur + prod
    return out


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
                raise NotInSubfield("alpha must commute with sigma: its "
                                    "T-image needs F_{p^i} coefficients")
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
        """phi(alpha, x): sum u^j a_j -> sum (u x)^j alpha(a_j).

        alpha fixes 1, so a component 1 + O(T^P) maps to 1 + O(T^P'),
        P' = min(P, alpha's precision), the series alphaE would return,
        without calling it."""
        alg = self.alg
        tw = self._twist_powers()
        prec = self.alphaE.prec
        comps = []
        for j, c in enumerate(a.comps):
            if not c:
                comps.append(c)
            else:
                img = (self.alphaE(c) if c.logs != (0,) or c.val
                       else c if c.prec <= prec else c.truncate(prec))
                comps.append(img if tw[j].logs == (0,) and tw[j].val == 0
                             else tw[j] * img)
        return AlgebraElement(alg, tuple(comps))

    def entrywise(self, M: AlgebraMatrix, images: dict
                  ) -> list[list[tuple[int, AlgebraElement]]]:
        """phi~(M), the one phi pass: per row k, the (l, phi(M_kl)) pairs
        whose image is not ``is_zero``.  phi maps alg.zero() to itself, so
        missing entries stay missing.  ``images``, keyed by id(entry), is
        the memo through which each distinct stored element object is
        mapped once: scalar, identity, staircase and constant block
        matrices store one object n times, which costs one image.  A caller
        that shares it across matrices keeps them alive while it lasts, so
        that no id is reused."""
        mapped = []
        for row in M.entries:
            pairs = []
            for l, e in row.items():
                img = images.get(id(e))
                if img is None:
                    img = images[id(e)] = self.apply_element(e)
                if not img.is_zero():
                    pairs.append((l, img))
            mapped.append(pairs)
        return mapped

    def apply(self, M: AlgebraMatrix, images: dict | None = None
              ) -> AlgebraMatrix:
        """f(M) = (g * phi~(M)) * g^(-1), one row of g at a time through
        ``_row_times``: the products and sums of the two matrix products,
        with the nonzero entries of g and g^-1 found once per matrix.

        phi~ is ``entrywise``, and ``images`` its memo; a caller may pass
        one to share across calls."""
        if M.n != self.n:
            raise ValueError("matrix size mismatch")
        mapped = self.entrywise(M, {} if images is None else images)
        inv = self.inner_inv.nonzero()
        return AlgebraMatrix(self.alg, [
            _row_times(_nonzero_pairs(_row_times(row, mapped).items()), inv)
            for row in self.inner.nonzero()])


def compose_semilinear(f1: SemilinearAuto, f2: SemilinearAuto) -> SemilinearAuto:
    """f1 o f2: twists compose as x1 * alpha1(x2) over alpha1 o alpha2, and
    the inner parts as g1 * phi1~(g2) with inverse phi1~(g2^-1) * g1^-1,
    with one phi1-memo for g2 and g2^-1."""
    if f1.alg is not f2.alg or f1.n != f2.n:
        raise ValueError("automorphisms act on different groups")
    alg, images = f1.alg, {}
    inner, inner_inv = (AlgebraMatrix(alg, [dict(pairs) for pairs in
                                            f1.entrywise(m, images)])
                        for m in (f2.inner, f2.inner_inv))
    alphaE = compose_auto(f1.alphaE, f2.alphaE)
    x = f1.x * f1.alphaE(f2.x)
    return SemilinearAuto(alg, f1.n, f1.inner * inner, alphaE, x,
                          inner_inv=inner_inv * f1.inner_inv, check=False)


def generator_matrices(alg: CyclicAlgebra, n: int) -> list[AlgebraMatrix]:
    """An additive spanning set whose images pin down a semilinear
    automorphism, each matrix diagonal or with one stored entry.

    The residue generator of E and T*Id see the field action on all of E
    (the K-level scalar alone would miss the inner conjugation by a power
    of u, which fixes K pointwise), u*Id sees the twist, and for n >= 2, I
    and the parts x*e_ab, x in {1, u} and a, b adjacent, of the elementary
    matrices I + x*e_ab see the inner part beyond scalars: 4 + 1 + 4(n - 1)
    matrices.  f is additive, so f(I + x*e_ab) = f(I) + f(x*e_ab).
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
        gens.append(AlgebraMatrix.identity(alg, n))
        for s in range(n - 1):
            for elt in (alg.one(), alg.u()):
                for (a, b) in ((s, s + 1), (s + 1, s)):
                    entries = [{} for _ in range(n)]
                    entries[a] = {b: elt}
                    gens.append(AlgebraMatrix(alg, entries))
    return gens


def acts_like(f1: SemilinearAuto, f2: SemilinearAuto,
              gens: Iterable[AlgebraMatrix]) -> bool:
    """Equality as automorphisms: f1(G) == f2(G) for every generator G,
    which for an additive spanning set such as ``generator_matrices`` is
    equality on every matrix it spans.

    A central generator c*Id, c in K other than 1 (``_central``), is
    decided by f1.alphaE(c) == f2.alphaE(c), with no matrix product.
    Int(g) fixes K pointwise, so f(c*Id) = g*alpha(c)*g^-1 =
    alpha(c)*f(I): once f1(I) == f2(I), f1(c*Id) == f2(c*Id) exactly when
    alpha1(c) == alpha2(c).  So f(I) is compared first, taken from gens
    or built when gens lacks it (n = 1, or a caller's subset).  alpha(c)
    is compared at its own precision, which is never below the one the
    matrix path g*alpha(c)*g^-1 reaches: g*g^-1 = I puts on the diagonal
    a pair g_sk, (g^-1)_ks whose valuations sum to at most 0, and that
    entry is known to at most alpha(c)'s precision.

    Each side keeps one phi-memo, keyed by entry ids, for the whole
    comparison, so the generators are held in a list while it runs: a
    generator freed early could lend its id to a later one."""
    return _acts_alike(f1, f2, gens)


def acts_trivially(f: SemilinearAuto, gens: Iterable[AlgebraMatrix]) -> bool:
    """f(G) == G for every generator G, compared as in ``acts_like``: a
    central generator c*Id by f.alphaE(c) == c, after f(I) == I."""
    return _acts_alike(f, None, gens)


def _acts_alike(f1: SemilinearAuto, f2: SemilinearAuto | None,
                gens: Iterable[AlgebraMatrix]) -> bool:
    """``acts_like``, with f2 None standing for the identity."""
    gens = list(gens)
    ident, central, rest = None, [], []
    for G in gens:
        e = _central(G)
        if e is None:
            rest.append(G)
        elif ident is None and _one_prec(e.comps, f1.alg.prec) is not None:
            ident = G
        else:
            central.append(e.comps[0])
    if central and ident is None:
        ident = AlgebraMatrix.identity(f1.alg, f1.n)
    first = [] if ident is None else [ident]
    images1, images2 = {}, {}
    if f2 is None:
        side2, alpha2 = (lambda G: G), (lambda c: c)
    else:
        side2, alpha2 = (lambda G: f2.apply(G, images2)), f2.alphaE
    same = lambda G: f1.apply(G, images1) == side2(G)
    return (all(map(same, first))
            and all(f1.alphaE(c) == alpha2(c) for c in central)
            and all(map(same, rest)))


def _central(G: AlgebraMatrix) -> AlgebraElement | None:
    """e when G = e*Id, one element object e of K stored at every diagonal
    position (only component 0 has terms, all in F_{p^i}); else None."""
    e = G.entries[0].get(0)
    if e is None or any(len(row) != 1 or row.get(s) is not e
                        for s, row in enumerate(G.entries)):
        return None
    c, *others = e.comps
    if any(x.logs for x in others) or not series_in_subfield(c, e.alg.i):
        return None
    return e
