"""Truncated Laurent series over subfields of a tower.

A series is a finite window of coefficients together with an absolute
precision: it is known modulo T^prec and nothing is claimed beyond that.
Coefficients live in a designated subfield F_{p^j} of the tower's ambient
field (checked at construction) and are stored as discrete logs, so all
coefficient arithmetic goes through the tower's tables.

Equality of two series means agreement on every exponent below the
smaller of the two precisions; the print form is
``T^v * (c0 + c1*T + ...) mod T^N`` with coefficients written as powers
of the tower generator.

``SeriesMatrix`` is the one square-matrix type over such a field: products,
determinants, linear solves, inverses and projective comparison.  Reduced
norms of the cyclic algebra and the PGL_3 descent checks are built on it.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from typing import Iterable, Optional, Sequence

from .gftower import FFElement, FieldTower, LOG_ZERO, in_subfield

DEFAULT_PREC = 32


class DivideByApparentZero(ZeroDivisionError):
    """Division by a series with no nonzero coefficient before its horizon."""


class NotUniformiser(ValueError):
    """Substitution target must have valuation exactly 1."""


class BadResidue(ValueError):
    """Hensel input must be 1 + (higher order terms)."""


class PDividesExponent(ValueError):
    """Hensel root exponent must be prime to the characteristic."""


class ApparentZero(ValueError):
    """Operation needs a nonzero series within precision."""


class NotInvertible(ZeroDivisionError):
    """Element or matrix is not invertible within the working precision."""


class PrecisionExhausted(ArithmeticError):
    """A projective comparison ran out of retained coefficients."""


def _neg_log(t: FieldTower, la: int) -> int:
    if la == LOG_ZERO:
        return la
    return (la + t._neg_log) % (t.q - 1)


def _canonical(tower: FieldTower, j: int, val: int, logs: tuple[int, ...],
               prec: int) -> LaurentSeries:
    """A series from a window that is already normalised: a tuple with no
    zero at either end and nothing at or beyond prec, val = prec when
    empty.  Skips the checks and the normalisation of the constructor."""
    s = object.__new__(LaurentSeries)
    s.tower, s.j, s.val, s.logs, s.prec = tower, j, val, logs, prec
    return s


def _frob_log(t: FieldTower, la: int, e: int) -> int:
    if la == LOG_ZERO or t.q == 2:
        return la
    return la * t._frob_exp[e % t.M] % (t.q - 1)


def _terms(logs: Sequence[int], start: int = 0) -> list[tuple[int, int]]:
    """(index, log) of the nonzero entries of a log window, indices from
    start."""
    return [(k, lg) for k, lg in enumerate(logs, start) if lg != LOG_ZERO]


def _sum_of_products(t: FieldTower, n: int, groups) -> list[int]:
    """Logs of the first n coefficients of the sum, over (outer, inner) in
    groups, of c*e*T^(i + k) for (i, c) in outer and (k, e) in inner; each
    holds (index, log) of nonzero terms in increasing index.

    In characteristic 2 the sums are taken over codes, where addition is
    XOR: each pair costs one read of exp at la + lb - Q, which indexing
    wraps to (la + lb) mod Q since exp has Q entries, and the codes turn
    back into logs once at the end.  For odd p the sums are taken over
    logs, each pair adding in through Zech.  The pairs of one outer term
    stop at the truncation, so callers put the factor with fewer terms
    outside.
    """
    Q = t.q - 1
    if t.p == 2:
        exp = t._exp
        buf = [0] * n
        for outer, inner in groups:
            last = inner[-1][0] if inner else 0
            for i, la in outer:
                room = n - i
                if room <= 0:
                    break
                la -= Q
                for k, lb in (inner if last < room
                              else inner[:bisect_left(inner, (room,))]):
                    buf[i + k] ^= exp[la + lb]
        log = t._log
        return [log[c] for c in buf]        # log[0] is LOG_ZERO
    zech = t._zech
    buf = [LOG_ZERO] * n
    for outer, inner in groups:
        last = inner[-1][0] if inner else 0
        for i, la in outer:
            room = n - i
            if room <= 0:
                break
            for k, lb in (inner if last < room
                          else inner[:bisect_left(inner, (room,))]):
                lm = (la + lb) % Q
                k += i
                cur = buf[k]
                if cur == LOG_ZERO:
                    buf[k] = lm
                else:
                    z = zech[(lm - cur) % Q]
                    buf[k] = LOG_ZERO if z == LOG_ZERO else (cur + z) % Q
    return buf


class LaurentSeries:
    """Truncated Laurent series sum_k c_k T^k known modulo T^prec."""

    __slots__ = ("tower", "j", "val", "logs", "prec")

    def __init__(self, tower: FieldTower, j: int, val: int,
                 logs: Iterable[int], prec: int, _checked: bool = False):
        if not isinstance(logs, (tuple, list)):
            logs = list(logs)
        if not _checked:
            if tower.M % j != 0:
                raise ValueError(f"subfield degree {j} does not divide M = {tower.M}")
            pj = pow(tower.p, j, tower.q - 1) if tower.q > 2 else 1
            Q = tower.q - 1
            for lg in logs:
                if lg != LOG_ZERO and Q > 0 and lg * pj % Q != lg:
                    raise ValueError("coefficient outside F_{p^%d}" % j)
        # normalize: clip at precision, strip leading/trailing zeros
        hi = min(len(logs), max(prec - val, 0))
        lo = 0
        while lo < hi and logs[lo] == LOG_ZERO:
            lo += 1
        while hi > lo and logs[hi - 1] == LOG_ZERO:
            hi -= 1
        if lo == hi:
            val, logs = prec, ()
        elif lo or hi < len(logs) or type(logs) is not tuple:
            val, logs = val + lo, tuple(logs[lo:hi])
        self.tower, self.j, self.val, self.prec = tower, j, val, prec
        self.logs = logs

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(tower: FieldTower, j: int, prec: int = DEFAULT_PREC) -> LaurentSeries:
        return _canonical(tower, j, prec, (), prec)

    @staticmethod
    def one(tower: FieldTower, j: int, prec: int = DEFAULT_PREC) -> LaurentSeries:
        return LaurentSeries(tower, j, 0, (0,), prec, _checked=True)

    @staticmethod
    def constant(c: FFElement, j: int, prec: int = DEFAULT_PREC) -> LaurentSeries:
        return LaurentSeries(c.tower, j, 0, (c.log,), prec)

    @staticmethod
    def T_power(tower: FieldTower, j: int, k: int = 1,
               prec: int = DEFAULT_PREC) -> LaurentSeries:
        return LaurentSeries(tower, j, k, (0,), prec, _checked=True)

    @staticmethod
    def from_pairs(tower: FieldTower, j: int, pairs, prec: int = DEFAULT_PREC):
        """Series from (exponent, FFElement) pairs."""
        pairs = sorted(pairs, key=lambda kv: kv[0])
        if not pairs:
            return LaurentSeries.zero(tower, j, prec)
        val = pairs[0][0]
        top = pairs[-1][0]
        logs = [LOG_ZERO] * (top - val + 1)
        for k, c in pairs:
            logs[k - val] = c.log if isinstance(c, FFElement) else c
        return LaurentSeries(tower, j, val, logs, prec)

    # -- inspection ---------------------------------------------------------

    def coeff(self, k: int) -> FFElement:
        if k >= self.prec:
            raise ValueError(f"coefficient of T^{k} is beyond precision {self.prec}")
        if k < self.val or k >= self.val + len(self.logs):
            return self.tower.zero()
        return FFElement(self.tower, self.logs[k - self.val])

    def leading(self) -> FFElement:
        if not self.logs:
            raise ApparentZero("series is zero within precision")
        return FFElement(self.tower, self.logs[0])

    def __bool__(self):
        return bool(self.logs)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        m = min(self.prec, other.prec)
        a = self.logs[:max(m - self.val, 0)]
        b = other.logs[:max(m - other.val, 0)]
        while a and a[-1] == LOG_ZERO:
            a = a[:-1]
        while b and b[-1] == LOG_ZERO:
            b = b[:-1]
        return a == b and (not a or self.val == other.val)

    __hash__ = None

    # -- ring operations ----------------------------------------------------

    def _require_compatible(self, other: LaurentSeries):
        if self.tower is not other.tower or self.j != other.j:
            raise ValueError("series live over different fields")

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        self._require_compatible(other)
        if not other.logs and other.prec >= self.prec:
            return self
        if not self.logs and self.prec >= other.prec:
            return other
        t = self.tower
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        out = [LOG_ZERO] * (prec - lo)
        start = self.val - lo
        head = self.logs[:max(prec - self.val, 0)]
        out[start:start + len(head)] = head
        Q = t.q - 1
        zech = t._zech
        k = other.val - lo
        for lb in other.logs[:max(prec - other.val, 0)]:
            if lb != LOG_ZERO:
                cur = out[k]
                if cur == LOG_ZERO:
                    out[k] = lb
                else:
                    z = zech[(lb - cur) % Q]
                    out[k] = LOG_ZERO if z == LOG_ZERO else (cur + z) % Q
            k += 1
        return LaurentSeries(t, self.j, lo, out, prec, _checked=True)

    def __neg__(self) -> LaurentSeries:
        t = self.tower
        return _canonical(t, self.j, self.val,
                          tuple([_neg_log(t, lg) for lg in self.logs]),
                          self.prec)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        """The product, with val = self.val + other.val and precision
        min(self.prec + other.val, other.prec + self.val).

        A monomial factor only shifts the other's logs.  In characteristic
        2 a square, two factors with equal log windows whatever their val
        and prec, is sum c_k^2 T^(2k): (x + y)^2 = x^2 + y^2 leaves no
        cross terms, so each log doubles and lands at twice its index.
        Other products loop over the nonzero terms of the factor with
        fewer of them, each against the other's nonzero terms up to the
        truncation (``_sum_of_products``).  In characteristic 2 the term
        products are summed as codes by XOR, one exp read per pair, and the
        sums turn back into logs once; for odd p each adds in through Zech.
        """
        self._require_compatible(other)
        t = self.tower
        prec = min(self.prec + other.val, other.prec + self.val)
        alogs, blogs = self.logs, other.logs
        if not alogs or not blogs:
            return LaurentSeries.zero(t, self.j, prec)
        lo = self.val + other.val
        n = prec - lo
        Q = t.q - 1
        if len(alogs) == 1 or len(blogs) == 1:
            # a monomial factor c*T^v: one term per coefficient, no sums
            (c,), rest = (alogs, blogs) if len(alogs) == 1 else (blogs, alogs)
            out = [lg if lg == LOG_ZERO else (lg + c) % Q
                   for lg in rest[:n]]
            return LaurentSeries(t, self.j, lo, out, prec, _checked=True)
        if t.p == 2 and alogs == blogs:
            out = [LOG_ZERO] * n
            half = [lg if lg == LOG_ZERO else 2 * lg % Q
                    for lg in alogs[:(n + 1) // 2]]
            out[:2 * len(half):2] = half
            return LaurentSeries(t, self.j, lo, out, prec, _checked=True)
        if (len(alogs) - alogs.count(LOG_ZERO)
                > len(blogs) - blogs.count(LOG_ZERO)):
            alogs, blogs = blogs, alogs
        out = _sum_of_products(t, n, ((_terms(alogs), _terms(blogs)),))
        return LaurentSeries(t, self.j, lo, out, prec, _checked=True)

    def scale(self, c: FFElement) -> LaurentSeries:
        t = self.tower
        if not c:
            return LaurentSeries.zero(t, self.j, self.prec + self.val)
        Q = t.q - 1
        return LaurentSeries(t, self.j, self.val,
                             [lg if lg == LOG_ZERO else (lg + c.log) % Q
                              for lg in self.logs],
                             self.prec, _checked=False)

    def shift(self, k: int) -> LaurentSeries:
        """Multiply by T^k."""
        return _canonical(self.tower, self.j, self.val + k, self.logs,
                          self.prec + k)

    def inverse(self) -> LaurentSeries:
        """Newton iteration doubling the number of correct terms."""
        if not self.logs:
            raise DivideByApparentZero("inverse of a series that is zero within precision")
        t = self.tower
        v = self.val
        # unit part u = self / (c0 T^v), invert to relative precision n
        n = self.prec - v
        c0 = self.leading()
        unit = LaurentSeries(t, self.j, 0,
                             [lg if lg == LOG_ZERO else
                              (lg - self.logs[0]) % (t.q - 1) for lg in self.logs],
                             n, _checked=True)
        x = LaurentSeries.one(t, self.j, 1)
        known = 1
        while known < n:
            known = min(2 * known, n)
            xk = LaurentSeries(t, self.j, x.val, x.logs, known, _checked=True)
            uk = LaurentSeries(t, self.j, unit.val, unit.logs, known, _checked=True)
            # x <- x + x(1 - u x); exact doubling in any characteristic
            err = LaurentSeries.one(t, self.j, known) - uk * xk
            x = xk + xk * err
        inv_c0 = c0.inverse()
        res = x.scale(inv_c0).shift(-v)
        return LaurentSeries(t, self.j, res.val, res.logs, self.prec - 2 * v,
                             _checked=True)

    def __truediv__(self, other: LaurentSeries) -> LaurentSeries:
        self._require_compatible(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> LaurentSeries:
        if e < 0:
            return self.inverse() ** (-e)
        result = LaurentSeries.one(self.tower, self.j, self.prec + abs(self.val) * e + 1)
        base = self
        first = True
        while e:
            if e & 1:
                result = base if first else result * base
                first = False
            e >>= 1
            if e:
                base = base * base
        if first:
            return LaurentSeries.one(self.tower, self.j, self.prec)
        return result

    # -- semantics beyond the ring ------------------------------------------

    def with_subfield(self, j: int) -> LaurentSeries:
        """Reinterpret over F_{p^j}; coefficients must already lie there."""
        return LaurentSeries(self.tower, j, self.val, self.logs, self.prec)

    def truncate(self, prec: int) -> LaurentSeries:
        if prec > self.prec:
            raise ValueError("cannot gain precision by truncation")
        return LaurentSeries(self.tower, self.j, self.val, self.logs, prec,
                             _checked=True)

    def __repr__(self):
        if not self.logs:
            return f"O(T^{self.prec})"
        parts = []
        for idx, lg in enumerate(self.logs):
            if lg == LOG_ZERO:
                continue
            k = self.val + idx
            c = "1" if lg == 0 else f"g^{lg}"
            if k == 0:
                parts.append(c)
            elif k == 1:
                parts.append("T" if c == "1" else f"{c}*T")
            else:
                parts.append(f"T^{k}" if c == "1" else f"{c}*T^{k}")
        return " + ".join(parts) + f" + O(T^{self.prec})"


# ----------------------------------------------------------------------
# Matrices over the series field
# ----------------------------------------------------------------------

class SeriesMatrix:
    """Square matrix over F_{p^j}((T)) for one tower, subfield and precision.

    The entries commute, so determinants and linear solves are ordinary
    Gaussian elimination.  Every elimination pivots on an entry of least
    valuation, which keeps the series divisions as exact as the precision
    allows.  ``prec`` is the precision of the zero and identity entries the
    matrix creates; each entry keeps its own precision.
    """

    __slots__ = ("tower", "j", "prec", "rows")

    def __init__(self, tower: FieldTower, j: int, prec: int,
                 rows: Sequence[Sequence[LaurentSeries]]):
        self.tower, self.j, self.prec = tower, j, prec
        self.rows = tuple(tuple(row) for row in rows)
        if any(len(row) != len(self.rows) for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(tower: FieldTower, j: int, n: int, prec: int) -> SeriesMatrix:
        one = LaurentSeries.one(tower, j, prec)
        zero = LaurentSeries.zero(tower, j, prec)
        return SeriesMatrix(tower, j, prec, [[one if s == t else zero
                                              for t in range(n)]
                                             for s in range(n)])

    def _like(self, rows) -> SeriesMatrix:
        return SeriesMatrix(self.tower, self.j, self.prec, rows)

    def __mul__(self, other: SeriesMatrix) -> SeriesMatrix:
        if self.n != other.n:
            raise ValueError("size mismatch")
        zero = LaurentSeries.zero(self.tower, self.j, self.prec)
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return self._like(out)

    def map_entries(self, f) -> SeriesMatrix:
        return self._like([[f(e) for e in row] for row in self.rows])

    def det(self) -> LaurentSeries:
        """Determinant by elimination below the diagonal.

        The pivots and products taken here fix the O(T^N) of every reduced
        norm the command line prints, so reports depend on this order.
        """
        n = self.n
        mat = [list(r) for r in self.rows]
        det = LaurentSeries.one(self.tower, self.j, self.prec)
        sign = 1
        for k in range(n):
            pivot_row = _least_valuation_row(mat, k)
            if pivot_row is None:
                prec = min(e.prec for r in mat for e in r)
                return LaurentSeries.zero(self.tower, self.j, prec)
            if pivot_row != k:
                mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
                sign = -sign
            pivot = mat[k][k]
            det = det * pivot
            pinv = pivot.inverse()
            for m in range(k + 1, n):
                e = mat[m][k]
                if not e:
                    continue
                factor = e * pinv
                mat[m] = [mat[m][c] - factor * mat[k][c] for c in range(n)]
        if sign < 0:
            det = -det
        return det

    def solve(self, rhs: Sequence[LaurentSeries]) -> list[LaurentSeries]:
        """The x with self * x = rhs."""
        return [row[0] for row in self._reduce([[e] for e in rhs])]

    def inverse(self) -> SeriesMatrix:
        ident = SeriesMatrix.identity(self.tower, self.j, self.n, self.prec)
        return self._like(self._reduce(ident.rows))

    def _reduce(self, right) -> list[list[LaurentSeries]]:
        """Gauss-Jordan on [self | right]; returns the reduced right part."""
        n = self.n
        mat = [list(r) + list(extra) for r, extra in zip(self.rows, right)]
        width = len(mat[0])
        for k in range(n):
            pivot_row = _least_valuation_row(mat, k)
            if pivot_row is None:
                raise NotInvertible("matrix is singular within precision")
            if pivot_row != k:
                mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            pinv = mat[k][k].inverse()
            mat[k] = [e * pinv for e in mat[k]]
            for m in range(n):
                if m == k or not mat[m][k]:
                    continue
                factor = mat[m][k]
                mat[m] = [mat[m][c] - factor * mat[k][c] for c in range(width)]
        return [row[n:] for row in mat]

    def proportional_to(self, other: SeriesMatrix) -> bool:
        """Equality up to a scalar: other = s * self for a series s."""
        pivot = None
        for row_a, row_b in zip(self.rows, other.rows):
            for a, b in zip(row_a, row_b):
                if bool(a) != bool(b):
                    return False
                if a and pivot is None:
                    pivot = (a, b)
        if pivot is None:
            raise PrecisionExhausted("both matrices vanish within precision")
        scale = pivot[1] / pivot[0]
        return all(not a or a * scale == b
                   for row_a, row_b in zip(self.rows, other.rows)
                   for a, b in zip(row_a, row_b))


def _least_valuation_row(mat, k: int) -> Optional[int]:
    """Row m >= k whose entry in column k is nonzero of least valuation."""
    pivot_row = pivot_val = None
    for m in range(k, len(mat)):
        e = mat[m][k]
        if e and (pivot_val is None or e.val < pivot_val):
            pivot_row, pivot_val = m, e.val
    return pivot_row


# ----------------------------------------------------------------------
# Named operations
# ----------------------------------------------------------------------

def frobenius_coeffwise(s: LaurentSeries, e: int) -> LaurentSeries:
    """Apply x -> x^(p^e) to every coefficient; T is untouched."""
    t = s.tower
    return _canonical(t, s.j, s.val,
                      tuple([_frob_log(t, lg, e) for lg in s.logs]), s.prec)


def substitute(s: LaurentSeries, target: LaurentSeries,
               powers: Optional[list] = None) -> LaurentSeries:
    """s(T -> target) for a uniformiser image target (valuation exactly 1).

    Brent-Kung baby-step/giant-step composition.  With P = min(s.prec,
    target.prec) and u = s / T^val = c_0 + c_1 T + ... + c_{n-1} T^(n-1)
    (only n <= P terms can reach below T^P), take m = ceil(sqrt(n)), the
    baby powers t^0 ... t^m of t = target truncated at T^P, cut u into
    blocks of m coefficients, form each block sum_r c_{bm+r} t^r from
    scaled baby powers, and run Horner in t^m over the blocks.  That is
    about 2*sqrt(n) series products, against n for Horner in t, so
    O(sqrt(n)*M(n)) with M(n) the cost of one product.  ``powers``, when
    given, is a list of baby powers at this P that the call extends in
    place, so one automorphism applied to many series builds them once
    (see ``LocalFieldAuto``).

    The output is what Horner's rule in t gives, as a value and in its
    (val, logs, prec).  Horner ends on the constant c_0 != 0 added at
    precision P, so its unit part is u(t) mod T^P with valuation 0 and
    precision exactly P, and for P <= 0 it is the zero series at P; both
    are built here from the same value.  The constant shortcut and the
    tail, a product with target ** val or target.inverse() ** (-val),
    are Horner's own.
    """
    if target.val != 1 or not target.logs:
        raise NotUniformiser("substitution target must have valuation 1")
    t = s.tower
    if s.tower is not target.tower or s.j != target.j:
        raise ValueError("series live over different fields")
    prec = min(s.prec, target.prec)
    if not s.logs:
        return LaurentSeries.zero(t, s.j, prec)
    if s.val == 0 and len(s.logs) == 1:
        return _canonical(t, s.j, 0, s.logs, prec)    # a constant
    if prec <= 0:
        res = LaurentSeries.zero(t, s.j, prec)
    else:
        res = _compose_unit(s.logs[:prec], target, prec,
                            [] if powers is None else powers)
    if s.val:
        res = res * (target ** s.val if s.val > 0
                     else target.inverse() ** (-s.val))
    return res.truncate(min(res.prec, prec))


def _compose_unit(coeffs: Sequence[int], target: LaurentSeries, prec: int,
                  powers: list) -> LaurentSeries:
    """sum_k coeffs[k] * target^k mod T^prec (prec >= 1), with precision
    exactly prec; ``powers`` holds target^0, target^1, ... truncated at
    prec and is extended in place."""
    t, j = target.tower, target.j
    n = len(coeffs)
    m = isqrt(n - 1) + 1                      # ceil(sqrt(n))
    if not powers:
        powers.append(LaurentSeries.one(t, j, prec))
        powers.append(target.truncate(prec))
    while len(powers) <= m:
        powers.append((powers[-1] * powers[1]).truncate(prec))
    terms = [_terms(pw.logs, pw.val) for pw in powers[:m]]
    acc = None
    for start in range((n - 1) // m * m, -1, -m):
        # the block sum_r c_r t^r, plus acc * t^m (times 1) from the second on
        groups = [(((0, c),), terms[r])
                  for r, c in enumerate(coeffs[start:start + m]) if c != LOG_ZERO]
        if acc is not None:
            prod = acc * powers[m]
            groups.append((((0, 0),), _terms(prod.logs, prod.val)))
        acc = LaurentSeries(t, j, 0, _sum_of_products(t, prec, groups), prec,
                            _checked=True)
    return acc


def hensel_root(s: LaurentSeries, m: int) -> LaurentSeries:
    """The unique x = 1 + O(T) with x^m = s, for gcd(m, p) = 1.

    Newton iteration on x^m - s starting from 1; each step doubles the
    number of correct terms, and the unit residue keeps every division
    exact.
    """
    t = s.tower
    if m % t.p == 0:
        raise PDividesExponent(f"characteristic {t.p} divides exponent {m}")
    if s.val != 0 or not s.logs or s.logs[0] != 0:
        raise BadResidue("Hensel input must be 1 + (positive order terms)")
    if m == 1:
        return s
    minv = t.from_int(m).inverse()
    n = s.prec
    x = LaurentSeries.one(t, s.j, 1)
    known = 1
    while known < n:
        known = min(2 * known, n)
        xk = LaurentSeries(t, s.j, x.val, x.logs, known, _checked=True)
        sk = s.truncate(min(known, s.prec))
        pw = xk ** (m - 1)
        num = pw * xk - sk
        x = xk - (num * pw.inverse()).scale(minv)
    return x.truncate(n)


def unramified_norm(s: LaurentSeries, i: int, d: int) -> LaurentSeries:
    """Norm for the degree-d unramified extension: product of the
    coefficientwise Frobenius twists s, s^(F^i), ..., s^(F^(i(d-1)))."""
    acc = s
    for t_ in range(1, d):
        acc = acc * frobenius_coeffwise(s, i * t_)
    return acc.with_subfield(i)


def norm_equation_solve(c: LaurentSeries, i: int, d: int) -> Optional[LaurentSeries]:
    """Solve unramified_norm(x, i, d) = c for x over F_{p^(id)}.

    Solvable exactly when d divides val(c); returns None otherwise.  The
    residue is matched by exhaustion over generator powers of
    F_{p^(id)}^x, then unit corrections 1 + eps*T^j are found from
    surjectivity of the relative trace, taking the canonical preimage
    eps = theta * tau_j * Tr(theta)^-1 through a fixed trace-nonzero theta.

    The corrections are found a doubling block [k, min(2k, n)) at a time,
    n the relative precision: with N(x) = c_u mod T^k, one norm and one
    inverse give tau = (c_u - N(x)) * N(x)^-1 mod T^(2k), and x is
    multiplied by 1 + eps_j*T^j for each j in the block with tau_j != 0,
    in increasing j.  Since N(1 + eps*T^j) = 1 + Tr(eps)*T^j + O(T^(2j))
    and the cross terms of two corrections in one block land at
    T^(>= 2k), the T^j coefficient of c_u - N(x) after the corrections
    below j is N(x)_0 * tau_j: a triangular system whose solution is the
    per-j defect the one-norm-per-exponent loop computes.  So the same
    corrections are applied in the same order and x is unchanged, at
    O(log n) norms and inverses instead of n norms.
    """
    if not c.logs:
        raise ApparentZero("norm equation needs a nonzero right-hand side")
    if c.j != i:
        raise ValueError("right-hand side must live over F_{p^i}")
    t = c.tower
    from .gftower import relative_norm, relative_trace, subfield_generator
    if c.val % d != 0:
        return None
    id_ = i * d
    prec_rel = c.prec - c.val
    cu = c.shift(-c.val).with_subfield(id_)   # unit part over the big field
    # residue solve by exhaustion: find r with N(r) = leading coefficient
    lead = cu.leading()
    zeta = subfield_generator(t, id_)
    r = None
    cand = t.one()
    for _ in range(t.p ** id_ - 1):
        if relative_norm(cand, i, d) == lead:
            r = cand
            break
        cand = cand * zeta
    if r is None:  # pragma: no cover - norm is surjective on finite fields
        raise RuntimeError("residue norm equation unsolvable")
    # fixed trace-nonzero element: first generator power with Tr != 0
    theta = t.one()
    while not relative_trace(theta, i, d):
        theta = theta * zeta
    tr_theta_inv = relative_trace(theta, i, d).inverse()
    x = LaurentSeries.constant(r, id_, prec_rel)
    k = 1
    while k < prec_rel:
        top = min(2 * k, prec_rel)
        nx = unramified_norm(x.truncate(top), i, d).with_subfield(id_)
        tau = (cu.truncate(top) - nx) * nx.inverse()
        if tau.val < k:  # pragma: no cover - corrections keep lower terms
            raise RuntimeError("norm lifting lost a settled term")
        for e, lg in enumerate(tau.logs, tau.val):
            if lg == LOG_ZERO:
                continue
            # N(x(1 + eps T^e)) = N(x)(1 + Tr(eps) T^e + ...): Tr(eps) = tau_e
            # x * (1 + eps T^e), formed as x + x * eps T^e
            eps = theta * (FFElement(t, lg) * tr_theta_inv)
            x = x + x * LaurentSeries(t, id_, e, (eps.log,), prec_rel)
        k = top
    return x.shift(c.val // d)


def reversion(t_series: LaurentSeries) -> LaurentSeries:
    """The compositional inverse r with r(t_series) = T.

    Newton iteration over the fast composition: from r = c_1^-1 T mod T^2,
    each step r <- r - (t(r) - T) / t'(r) doubles the number of correct
    terms, because t(r + e) = t(r) + t'(r) e + O(e^2) holds for the
    formal derivative t' = sum k c_k T^(k-1) in any characteristic (the
    terms with p | k drop out) and t'(r) is a unit, its constant term
    being c_1.  Step K costs two substitutions, t(r) at T^K and t'(r) at
    the T^(K/2) the quotient needs, so the whole costs a constant times
    one composition at full precision instead of the n products of a
    table of powers t^k.  The compositional inverse is unique mod T^prec,
    so the result (val 1, precision prec = t_series.prec) is the one
    matching coefficients of T^m term by term gives.
    """
    if t_series.val != 1 or not t_series.logs:
        raise NotUniformiser("reversion needs valuation exactly 1")
    t = t_series.tower
    j = t_series.j
    prec = t_series.prec
    Q = t.q - 1
    int_logs = [LOG_ZERO] + [t.from_int(k).log for k in range(1, t.p)]
    deriv = []                                 # k * c_k at T^(k-1)
    for k, lg in enumerate(t_series.logs, 1):
        kl = int_logs[k % t.p]
        deriv.append(LOG_ZERO if lg == LOG_ZERO or kl == LOG_ZERO
                     else (lg + kl) % Q)
    dt = LaurentSeries(t, j, 0, deriv, prec - 1, _checked=True)
    r = LaurentSeries(t, j, 1, (t_series.leading().inverse().log,), 2,
                      _checked=True)
    known = 2
    while known < prec:
        top = min(2 * known, prec)
        rk = LaurentSeries(t, j, 1, r.logs, top, _checked=True)
        err = substitute(t_series.truncate(top), rk) \
            - LaurentSeries.T_power(t, j, 1, top)
        slope = substitute(dt.truncate(top - known), rk)
        r = rk - err * slope.inverse()
        known = top
    return r


def series_in_subfield(s: LaurentSeries, j: int) -> bool:
    """Whether every coefficient is fixed by the j-th Frobenius power."""
    return all(in_subfield(FFElement(s.tower, lg), j)
               for lg in s.logs if lg != LOG_ZERO)
