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
the inner part nor the twist data is unique: data that agree up to a
constant of E act alike, but other data may too.

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
comparing f(I) and f(x*e_ab) compares f(I + x*e_ab).  Three kinds of
work skip the products.  Two automorphisms whose stored data agree up to
one constant delta of E act alike: with sigma(delta)/delta = c,
Int(delta) o phi(alpha, x) = phi(alpha, c*x), so Int(g) o phi(alpha,
c*x) = Int(g*delta) o phi(alpha, x).  ``acts_like`` reads that from the
data, every series as (val, logs, prec), without applying either side,
and ``acts_trivially`` reads it against the identity's data
(``_scaled_data``); equal data are delta = 1.  A scalar c*Id with c in
K, such as zeta*Id and T*Id, is central: Int(g) fixes K pointwise, so
f(c*Id) = alpha(c)*f(I), and once f(I) is compared the comparison reads
alpha(c) alone (``acts_like``).  And a product with a factor shaped like
1, as phi(1) and the parts 1*e_ab give, copies the other factor's
components at the precision the series product would give, without
taking it (``AlgebraElement.__mul__``).

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
from .gftower import LOG_ZERO, FieldTower, NotInSubfield, subfield_generator
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
        """Exactly zero mod T^alg.prec: every component ``is_exact_zero``
        at alg.prec."""
        prec = self.alg.prec
        for c in self.comps:
            if not c.is_exact_zero(prec):
                return False
        return True

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self.alg, tuple(a + b for a, b in
                                              zip(self.comps, other.comps)))

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        """Every component of a product is known to at most alg.prec: the
        sum of its terms capped there, or alg.zero_series.

        Only the components of both factors that are not exact zeros at
        alg.prec (``is_exact_zero``) take part, so a product of two
        scalars is one series product whatever d is.  A factor shaped like
        1 (``_one_prec``: 1 + O(T^P1) with P1 >= alg.prec, every other
        component without terms) takes no series product: each nonzero
        component c of the other factor keeps its val and logs, cut to
        precision min(c.prec, P1 + c.val, alg.prec), and each component
        without terms becomes alg.zero_series.  That is the (val, logs,
        prec) the product c * (1 + O(T^P1)) and the cap give, and it is
        the component's only term, except for a component without terms
        known only to T^k, k < alg.prec: this path and ``_one_prec`` drop
        its O(T^k).  Mending that moves the verdicts of inputs with r >=
        prec, so it waits for a rule on what such verdicts establish."""
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
                 if not yt.is_exact_zero(prec)]
        out = [None] * d
        for s, xs in enumerate(self.comps):
            if xs.is_exact_zero(prec):
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
        multiplicative: rep(ab) = rep(a) rep(b).  Only the components that
        ``is_exact_zero`` at alg.prec are skipped.
        """
        alg = self.alg
        d, r = alg.d, alg.r
        rep = [[alg.zero_series] * d for _ in range(d)]
        for col in range(d):
            for s, xs in enumerate(self.comps):
                if xs.is_exact_zero(alg.prec):
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
    alpha(T^r)/T^r.  Compare automorphisms with ``acts_like``: stored
    data that agree up to a constant of E act alike, but other data may
    too.
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

    When f2's data are f1's moved by one constant delta of E
    (``_scaled_data``: the same alpha, x1 = c*x2 with sigma(delta)/delta
    = c, g2 = g1*delta and g2^-1 = delta^-1*g1^-1), f1 = Int(g1*delta) o
    phi(alpha, x2) = f2, so the answer is True without applying either.
    Equal data are the case delta = 1.  Such a verdict is at the data's
    own precision: nothing is compared at the precision an image would
    reach.  Any other pair, even one that acts alike, goes to the
    generators below.

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
    """f(G) == G for every generator G, compared as in ``acts_like``:
    True without applying f when f's data are the identity's (I, x = 1
    and T -> T at alg.prec) moved by one constant delta of E
    (``_scaled_data``), and otherwise a central generator c*Id by
    f.alphaE(c) == c, after f(I) == I."""
    return _acts_alike(f, None, gens)


def _acts_alike(f1: SemilinearAuto, f2: SemilinearAuto | None,
                gens: Iterable[AlgebraMatrix]) -> bool:
    """``acts_like``, with f2 None standing for the identity."""
    if _scaled_data(f1, _identity(f1) if f2 is None else f2):
        return True
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


def _identity(f: SemilinearAuto) -> SemilinearAuto:
    """The identity on f's group, stored as I, x = 1 and T -> T, every
    series at alg.prec."""
    alg = f.alg
    return SemilinearAuto(
        alg, f.n, None,
        LocalFieldAuto.frobenius_power(alg.tower, alg.jE, 0, alg.prec),
        LaurentSeries.one(alg.tower, alg.jE, alg.prec), check=False)


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


def _scaled_data(f1: SemilinearAuto, f2: SemilinearAuto) -> bool:
    """Whether f2's data are f1's moved by one constant delta of E, so that
    f1 and f2 act alike on every matrix.

    For delta in E^x with sigma(delta)/delta = c, Int(delta) o phi(alpha,
    x) = phi(alpha, c*x): delta*u*x*delta^-1 = u*sigma(delta)*x*delta^-1,
    and alpha(e) commutes with delta.  So f1 = Int(g1) o phi(alpha, x1)
    with x1 = c*x2 is Int(g1*delta) o phi(alpha, x2), which is f2 when g2
    = g1*delta and g2^-1 = delta^-1*g1^-1.  The rule reads exactly that
    from the stored data, every series as (val, logs, prec): alg and n,
    alphaE's tower, j, e and T-image equal; x1 = c*x2 (``_scaled``); delta
    the ratio of the leading terms of the first component with terms in
    row 0 of the inner parts, with sigma(delta)/delta = c, on logs
    delta*(p^i - 1) = c mod Q; every component of g2 that of g1 times
    delta; and component k of g2^-1 that of g1^-1 times sigma^k(delta)^-1,
    since delta^-1*u^k*b = u^k*sigma^k(delta)^-1*b.  Entries are read
    through ``nonzero()``, as ``apply`` reads them, so a stored exact zero
    matches a missing entry.  Equal data are the case delta = c = 1.

    A constant keeps every val and prec, so the verdict is at the data's
    own precision: nothing is compared at the precision an image would
    reach.  False only means that this rule does not decide the pair."""
    a1, a2, alg = f1.alphaE, f2.alphaE, f1.alg
    Q = alg.tower.q - 1
    if not (alg is f2.alg and f1.n == f2.n and a1.tower is a2.tower
            and a1.j == a2.j and a1.e == a2.e
            and _scaled(a1.image_of_T, a2.image_of_T, 0, Q)):
        return False
    c = _lead_ratio(f2.x, f1.x, Q)
    row2 = dict(f2.inner.nonzero()[0])
    delta = next((_lead_ratio(s1, s2, Q)
                  for t, e1 in f1.inner.nonzero()[0] if t in row2
                  for s1, s2 in zip(e1.comps, row2[t].comps) if s1.logs), 0)
    q_i = pow(alg.tower.p, alg.i, Q)
    return (delta * (q_i - 1) % Q == c and _scaled(f2.x, f1.x, c, Q)
            and _scaled_matrix(f1.inner, f2.inner, [delta] * alg.d, Q)
            and _scaled_matrix(f1.inner_inv, f2.inner_inv,
                               [-delta * pow(q_i, k, Q) % Q
                                for k in range(alg.d)], Q))


def _lead_ratio(s1: LaurentSeries, s2: LaurentSeries, Q: int) -> int:
    """The log of lead(s2)/lead(s1), or 0 when either has no terms."""
    return (s2.logs[0] - s1.logs[0]) % Q if s1.logs and s2.logs else 0


def _scaled(s1: LaurentSeries, s2: LaurentSeries, k: int, Q: int) -> bool:
    """Whether s2 stores the (val, logs, prec) of g^k * s1, g the tower
    generator: the same val and prec, and every log moved by k mod Q."""
    if s1.val != s2.val or s1.prec != s2.prec:
        return False
    if not k:
        return s1.logs == s2.logs
    return len(s1.logs) == len(s2.logs) and all(
        b == (a if a == LOG_ZERO else (a + k) % Q)
        for a, b in zip(s1.logs, s2.logs))


def _scaled_matrix(m1: AlgebraMatrix, m2: AlgebraMatrix,
                   shifts: Sequence[int], Q: int) -> bool:
    """Whether m2 has the ``nonzero()`` positions of m1, and component k
    of each of its entries is that of m1 moved by shifts[k] (``_scaled``)."""
    for r1, r2 in zip(m1.nonzero(), m2.nonzero()):
        if len(r1) != len(r2):
            return False
        r2 = dict(r2)
        for t, e1 in r1:
            e2 = r2.get(t)
            if e2 is None or not all(_scaled(s1, s2, k, Q) for s1, s2, k
                                     in zip(e1.comps, e2.comps, shifts)):
                return False
    return True
