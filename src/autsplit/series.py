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

``LaurentSeries.inverse`` is the one Newton inverse, each step doubling
the correct terms.  ``reversion`` is Newton's iteration with no inverse:
t'(r) * r' = 1 in any characteristic, so 1/t'(r) is the derivative of the
known terms of r.  ``norm_equation_solve`` takes its residue as one
generator power, N(zeta^m) = g^(m*s), and lifts a doubling block at a
time against one inverse of the right-hand side, taken before the loop.
The Hensel root is one exponentiation, s^(m^-1 mod p^K), with no loop
of its own: ``LaurentSeries.__pow__`` takes every p-th power by Frobenius.
``substitute`` composes by splitting the exponents mod p, each part
composed at 1/p of the precision and raised to the p-th power for free,
down to Brent-Kung baby-step/giant-step leaves of at most max(16, p^2)
coefficients.  A series of valuation v >= 1 is composed as one window
with v leading zeros, so it takes no product with a power of the target.

``SeriesMatrix`` is the one square-matrix type over such a field: products,
determinants and projective comparison.  Reduced norms of the cyclic
algebra and the PGL_3 descent checks are built on it.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from typing import Iterable, Optional, Sequence

from .gftower import (FFElement, FieldTower, LOG_ZERO, NotInSubfield,
                      logs_in_subfield, relative_trace, subfield_generator)

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


def _terms(logs: Sequence[int], start: int = 0) -> list[tuple[int, int]]:
    """(index, log) of the nonzero entries of a log window, indices from
    start."""
    return [(k, lg) for k, lg in enumerate(logs, start) if lg != LOG_ZERO]


def _sum_of_products(t: FieldTower, n: int, groups) -> list[int]:
    """Logs of the first n coefficients of the sum, over (outer, inner) in
    groups, of c*e*T^(i + k) for (i, c) in outer and (k, e) in inner; each
    holds (index, log) of nonzero terms in increasing index.

    In characteristic 2 the sums are taken over codes, where addition is
    XOR: each pair costs one read of exp at la + lb - Q, which reads
    g^((la + lb) mod Q) (a full exp array has Q entries and wraps the
    index; an on-demand dict takes the key as it is), and the codes turn
    back into logs once at the end.  The reads go to the tower's current
    tables; a KeyError takes that one entry from ``exp_code``, which makes
    it, and the loop goes on, and a missing log sends the final reads
    through ``log_of``.  So entries are made in the order the pairs and
    then the slots first read them.  For odd p the sums are taken over
    logs, each pair adding in through Zech.  The pairs of one outer term
    stop at the truncation, so callers put the factor with fewer terms
    outside.
    """
    Q = t.q - 1
    if t.p == 2:
        exp, buf = t._exp, [0] * n
        for outer, inner in groups:
            last = inner[-1][0] if inner else 0
            for i, la in outer:
                room = n - i
                if room <= 0:
                    break
                la -= Q
                for k, lb in (inner if last < room
                              else inner[:bisect_left(inner, (room,))]):
                    try:
                        buf[i + k] ^= exp[la + lb]
                    except KeyError:
                        buf[i + k] ^= t.exp_code(la + lb)
        log = t._log
        try:
            return [log[c] for c in buf]            # log[0] is LOG_ZERO
        except KeyError:
            return [t.log_of(c) for c in buf]
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


def _pth_logs(t: FieldTower, logs: Sequence[int], n: int) -> list[int]:
    """Logs of the first n coefficients of (sum c_k T^k)^p = sum c_k^p
    T^(pk), for logs the window of c_k: in characteristic p the p-th power
    has no cross terms."""
    p, Q = t.p, t.q - 1
    out = [LOG_ZERO] * n
    head = logs[:(n + p - 1) // p]
    out[:p * len(head):p] = [lg if lg == LOG_ZERO else lg * p % Q
                             for lg in head]
    return out


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
            if not logs_in_subfield(tower, logs, j):
                raise NotInSubfield("coefficient outside F_{p^%d}" % j)
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
    def zero(tower: FieldTower, j: int, prec: int) -> LaurentSeries:
        return _canonical(tower, j, prec, (), prec)

    @staticmethod
    def one(tower: FieldTower, j: int, prec: int) -> LaurentSeries:
        return LaurentSeries(tower, j, 0, (0,), prec, _checked=True)

    @staticmethod
    def constant(c: FFElement, j: int, prec: int) -> LaurentSeries:
        return LaurentSeries(c.tower, j, 0, (c.log,), prec)

    @staticmethod
    def T_power(tower: FieldTower, j: int, k: int, prec: int) -> LaurentSeries:
        return LaurentSeries(tower, j, k, (0,), prec, _checked=True)

    @staticmethod
    def from_pairs(tower: FieldTower, j: int, pairs, prec: int):
        """Series from (exponent, FFElement) pairs; pairs at or beyond prec
        are O(T^prec) and do not widen the window."""
        pairs = sorted((kv for kv in pairs if kv[0] < prec),
                       key=lambda kv: kv[0])
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
        """The sum at precision min(self.prec, other.prec).

        The output window is the union of the two windows, capped at that
        precision, so a sum costs the terms its operands store: two
        constants add in one slot whatever the precision.  Where both have
        a term, characteristic 2 adds by XOR of codes (log[0] is LOG_ZERO,
        so a cancelling pair needs no test), read from the tower's current
        tables, a KeyError taking that slot's entries from the accessors
        as in ``_sum_of_products``, and odd p through Zech."""
        self._require_compatible(other)
        if not other.logs and other.prec >= self.prec:
            return self
        if not self.logs and self.prec >= other.prec:
            return other
        t = self.tower
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        hi = min(max(self.val + len(self.logs), other.val + len(other.logs)),
                 prec)
        out = [LOG_ZERO] * (hi - lo)
        start = self.val - lo
        head = self.logs[:max(prec - self.val, 0)]
        out[start:start + len(head)] = head
        k = other.val - lo
        tail = other.logs[:max(prec - other.val, 0)]
        if t.p == 2:
            exp, log = t._exp, t._log
            for lb in tail:
                if lb != LOG_ZERO:
                    cur = out[k]
                    try:
                        out[k] = (lb if cur == LOG_ZERO
                                  else log[exp[cur] ^ exp[lb]])
                    except KeyError:
                        out[k] = t.log_of(t.exp_code(cur) ^ t.exp_code(lb))
                k += 1
        else:
            Q, zech = t.q - 1, t._zech
            for lb in tail:
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
        and prec, is sum c_k^2 T^(2k), the Frobenius window ``_pth_logs``.
        Other products loop over the nonzero terms of the factor with
        fewer of them, each against the other's nonzero terms up to the
        truncation (``_sum_of_products``), into min(N, la + lb - 1) slots
        for windows of la and lb terms and N = prec - val: a product costs
        its term pairs plus the slots its result can fill, not the
        precision.  In characteristic 2 the term products are summed as
        codes by XOR, one exp read per pair, and the sums turn back into
        logs once; for odd p each adds in through Zech.
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
            if len(rest) <= n:      # untruncated: rest's ends stay nonzero
                return _canonical(t, self.j, lo, tuple(out), prec)
            return LaurentSeries(t, self.j, lo, out, prec, _checked=True)
        if t.p == 2 and alogs == blogs:
            return LaurentSeries(t, self.j, lo, _pth_logs(t, alogs, n), prec,
                                 _checked=True)
        if (len(alogs) - alogs.count(LOG_ZERO)
                > len(blogs) - blogs.count(LOG_ZERO)):
            alogs, blogs = blogs, alogs
        out = _sum_of_products(t, min(n, len(alogs) + len(blogs) - 1),
                               ((_terms(alogs), _terms(blogs)),))
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
        """self^e, with the (val, logs, prec) of the product self * ... *
        self in any grouping: val e*v, precision prec + (e - 1)*v.  For
        e >= p it is (self^p)^(e // p) * self^(e % p), self^p the free
        Frobenius window (``_pth_logs``), so a power costs a product per
        nonzero base-p digit of e plus the binary powering of each digit;
        a negative e powers the inverse."""
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return LaurentSeries.one(self.tower, self.j, self.prec)
        t, v = self.tower, self.val
        p = t.p
        if e >= p:
            pth = LaurentSeries(t, self.j, p * v,
                                _pth_logs(t, self.logs, self.prec - v),
                                self.prec + (p - 1) * v, _checked=True)
            head = pth ** (e // p)
            return head * self ** (e % p) if e % p else head
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

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

    The entries commute, so the determinant is ordinary Gaussian
    elimination.  It pivots on an entry of least valuation, which keeps
    the series divisions as exact as the precision allows.  ``prec`` is the
    precision of the zero and one entries the matrix creates; each entry
    keeps its own precision.
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
            rows = [m for m in range(k, n) if mat[m][k]]
            if not rows:
                prec = min(e.prec for r in mat for e in r)
                return LaurentSeries.zero(self.tower, self.j, prec)
            pivot_row = min(rows, key=lambda m: mat[m][k].val)
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

    def proportional_to(self, other: SeriesMatrix) -> bool:
        """Equality up to a scalar: other = s * self for a series s."""
        if self.n != other.n:
            raise ValueError("size mismatch")
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


# ----------------------------------------------------------------------
# Named operations
# ----------------------------------------------------------------------

def frobenius_coeffwise(s: LaurentSeries, e: int) -> LaurentSeries:
    """Apply x -> x^(p^e) to every coefficient; T is untouched."""
    t = s.tower
    Q = t.q - 1
    f = t._frob_exp[e % t.M] if Q > 1 else 1
    logs = s.logs if f == 1 else tuple([lg if lg == LOG_ZERO else lg * f % Q
                                        for lg in s.logs])
    return _canonical(t, s.j, s.val, logs, s.prec)


def substitute(s: LaurentSeries, target: LaurentSeries) -> LaurentSeries:
    """s(T -> target) for a uniformiser image target (valuation exactly 1).

    With P = min(s.prec, target.prec) and u = s / T^val = c_0 + c_1 T +
    ... + c_{n-1} T^(n-1) (only n <= P terms can reach below T^P), u(t)
    for t = target truncated at T^P is composed in characteristic p by
    Bernstein's split (``_compose_unit``): for n > max(16, p^2), u is cut
    by the exponent mod p into p series of about n/p terms, each composed
    at about P/p and raised to the p-th power for free.  The split itself
    is one sum of p products, O(P^2) term pairs, and the p parts cost
    about 1/p of that each, so the recursion is O(P^2) pairs, against
    O(sqrt(n)*M(n)) for Brent-Kung's baby-step/giant-step alone, M(n) the
    cost of one product (O(n^2.5) with schoolbook products).  Windows of
    at most max(16, p^2) terms, so every window for p >= 31 below 961
    terms, are Brent-Kung: about 2*sqrt(n) products, from baby powers
    t^0 ... t^m, m = ceil(sqrt(n)), and Horner in t^m over blocks of m
    coefficients.  The bound is measured: for p = 31, splitting every
    window above 16 terms ran 1.5-2.3x slower than Brent-Kung at 32-128
    terms.  Each call builds its own baby powers and keeps nothing.

    For val = v >= 1, s(t) = sum_k c_k t^(k + v) is the composition of
    one window, v zeros followed by c_0 ... c_{P-v-1}, at precision P: no
    product with target ** v, and the zero series at P when v >= P.
    Every T-image of valuation 1 that ``compose_auto`` and ``reversion``
    substitute takes this path.  A one-term s = c*T^v is c times the
    logs of target ** v instead, which for v = 1 is target itself: as a
    window it would take the baby power t^2, a full product for odd p.

    The output is what Horner's rule in t gives, as a value and in its
    (val, logs, prec).  Horner ends on the constant c_0 != 0 added at
    precision P, so its unit part is u(t) mod T^P with valuation 0 and
    precision exactly P, and for P <= 0 it is the zero series at P; both
    are built here from the same value.  For v >= 1 Horner's product with
    t^v keeps precision P, as the one window does.  The constant shortcut
    and, for v < 0, the tail, a product with the inverse's power
    target ** v, are Horner's own.
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
    v = s.val
    if v >= 1:
        if v >= prec:
            return LaurentSeries.zero(t, s.j, prec)
        if len(s.logs) == 1:            # c*T^v: c times t^v
            c, Q = s.logs[0], t.q - 1
            return LaurentSeries(t, s.j, v, [
                lg if lg == LOG_ZERO else (lg + c) % Q
                for lg in (target ** v).logs[:prec - v]], prec, _checked=True)
        # s(t) = sum_k c_k t^(k + v): one window with v leading zeros
        return _compose_unit((LOG_ZERO,) * v + s.logs[:prec - v], target,
                             prec)
    if prec <= 0:
        res = LaurentSeries.zero(t, s.j, prec)
    else:
        res = _compose_unit(s.logs[:prec], target, prec)
    if v < 0:
        res = res * target ** v
    return res.truncate(min(res.prec, prec))


def _compose_unit(coeffs: Sequence[int], target: LaurentSeries,
                  prec: int) -> LaurentSeries:
    """sum_k coeffs[k] * t^k mod T^prec for t = target (prec >= 1), with
    precision exactly prec.

    A window of more than max(16, p^2) coefficients is split by the
    exponent mod p (Bernstein 1998): f = sum_{k<p} T^k h_k(T^p) gives
    f(t) = sum_k t^k * h~_k(t)^p, where h~_k is h_k with the inverse
    Frobenius applied to each coefficient.  Only h~_k(t) mod
    T^ceil((n - k)/p) reaches below T^n, so it recurses at that precision,
    and its p-th power is free (``_pth_logs``), known p times as far.  An
    all-zero h_k is skipped, t^1 ... t^(p-1) are the baby powers at
    precision n, and the p pieces add up in one ``_sum_of_products``.

    Any other window is a leaf: Brent-Kung's block loop over baby powers
    t^0 ... t^m, m = ceil(sqrt(len)), built by halves, t^k = t^(k//2) *
    t^(k - k//2) (in characteristic 2 every even power is then a square,
    which ``LaurentSeries.__mul__`` takes by Frobenius).  The giant step
    acc * t^m is one more group of each block's ``_sum_of_products``, so
    acc stays a list of logs from block to block.  The baby powers at each
    precision are built once per call, grown as far as the largest m asked
    for, and shared by every leaf and split there; nothing is kept after
    the call.  Each piece is the exact value mod its T^n, so the result is
    the one series Horner's rule gives.
    """
    t, j = target.tower, target.j
    p, Q = t.p, t.q - 1
    unfrob = t._frob_exp[t.M - 1]            # x -> x^(1/p) on logs
    leaf_max = max(16, p * p)
    baby = {}                                 # n -> (t^k mod T^n, their terms)

    def baby_terms(n: int, m: int) -> list:
        """Terms of t^0 ... t^m (at least) mod T^n."""
        if n not in baby:
            baby[n] = [LaurentSeries.one(t, j, n), target.truncate(n)], []
        powers, terms = baby[n]
        for k in range(len(powers), m + 1):
            powers.append((powers[k // 2] * powers[k - k // 2]).truncate(n))
        terms.extend(_terms(pw.logs, pw.val) for pw in powers[len(terms):])
        return terms

    def compose(cs: Sequence[int], n: int) -> list[int]:
        """Logs of sum_k cs[k] * t^k mod T^n, for len(cs) <= n."""
        if len(cs) > leaf_max:
            tk = baby_terms(n, p - 1)
            groups = []
            for k in range(p):
                h = cs[k::p]
                while h and h[-1] == LOG_ZERO:
                    h = h[:-1]
                if not h:
                    continue
                root = compose([lg if lg == LOG_ZERO else lg * unfrob % Q
                                for lg in h], -(-(n - k) // p))
                pth = _terms(_pth_logs(t, root, n))
                groups.append((pth, tk[k]) if len(pth) <= len(tk[k])
                              else (tk[k], pth))
            return _sum_of_products(t, n, groups)
        m = isqrt(len(cs) - 1) + 1            # ceil(sqrt(len(cs)))
        terms = baby_terms(n, m)
        giant = terms[m]
        acc = None
        for start in range((len(cs) - 1) // m * m, -1, -m):
            # the block sum_r c_r t^r, plus acc * t^m from the second on
            groups = [(((0, c),), terms[r])
                      for r, c in enumerate(cs[start:start + m])
                      if c != LOG_ZERO]
            if acc is not None:
                prev = _terms(acc)
                groups.append((prev, giant) if len(prev) <= len(giant)
                              else (giant, prev))
            acc = _sum_of_products(t, n, groups)
        return acc

    return LaurentSeries(t, j, 0, compose(coeffs, prec), prec, _checked=True)


def hensel_root(s: LaurentSeries, m: int) -> LaurentSeries:
    """The unique x = 1 + O(T) with x^m = s, for gcd(m, p) = 1.

    With n = s.prec and K least with p^K >= n, the 1-units mod T^n form a
    group of exponent p^K: (1 + y)^(p^K) = 1 + y^(p^K) = 1 mod T^n for
    val(y) >= 1.  So x -> x^m is a bijection of that group, inverted by
    x -> x^e with e = m^-1 mod p^K, and x = s^e is the root; it is unique
    because the group has no m-torsion.  It is one power,
    ``LaurentSeries.__pow__``, which takes the p-th powers for free; the
    result has val 0 and precision n.
    """
    p = s.tower.p
    if m % p == 0:
        raise PDividesExponent(f"characteristic {p} divides exponent {m}")
    if s.val != 0 or not s.logs or s.logs[0] != 0:
        raise BadResidue("Hensel input must be 1 + (positive order terms)")
    pk = 1
    while pk < s.prec:
        pk *= p
    return s ** pow(m, -1, pk)


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
    residue is zeta^m, zeta the generator of F_{p^(id)}^x and m = log(lead)
    // s for s = (q - 1)/(p^i - 1): N(zeta^m) = g^(m*s), so this is the
    least m with N(zeta^m) = lead.  Unit corrections 1 + eps*T^j then follow
    from surjectivity of the relative trace, taking the canonical preimage
    eps = theta * tau_j * Tr(theta)^-1 through a fixed trace-nonzero theta.

    The corrections are found a doubling block [k, min(2k, n)) at a time,
    n the relative precision: with N(x) = c_u mod T^k, one norm gives
    tau = (c_u - N(x)) * c_u^-1 mod T^(2k), and x is multiplied by
    1 + eps_j*T^j for each j in the block with tau_j != 0, in increasing
    j.  The one inverse c_u^-1 is taken before the loop: it differs from
    N(x)^-1 by O(T^k) and multiplies a defect of valuation >= k, so tau is
    the same mod T^(2k).  Since N(1 + eps*T^j) = 1 + Tr(eps)*T^j +
    O(T^(2j)) and the cross terms of two corrections in one block land at
    T^(>= 2k), the T^j coefficient of c_u - N(x) after the corrections
    below j is N(x)_0 * tau_j: a triangular system whose solution is the
    per-j defect the one-norm-per-exponent loop computes.  So the same
    corrections are applied in the same order and x is unchanged, at
    O(log n) norms and one inverse instead of n norms.
    """
    if not c.logs:
        raise ApparentZero("norm equation needs a nonzero right-hand side")
    if c.j != i:
        raise ValueError("right-hand side must live over F_{p^i}")
    if c.val % d != 0:
        return None
    t = c.tower
    id_ = i * d
    prec_rel = c.prec - c.val
    cu = c.shift(-c.val).with_subfield(id_)   # unit part over the big field
    zeta = subfield_generator(t, id_)
    s = (t.q - 1) // (t.p ** i - 1)           # N(zeta^m) = g^(m*s)
    r = zeta ** (cu.leading().log // s)
    # fixed trace-nonzero element: first generator power with Tr != 0
    theta = t.one()
    while not relative_trace(theta, i, d):
        theta = theta * zeta
    tr_theta_inv = relative_trace(theta, i, d).inverse()
    cu_inv = cu.inverse()
    x = LaurentSeries.constant(r, id_, prec_rel)
    k = 1
    while k < prec_rel:
        top = min(2 * k, prec_rel)
        nx = unramified_norm(x.truncate(top), i, d).with_subfield(id_)
        tau = (cu - nx) * cu_inv
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

    Newton iteration over the fast composition, with no series inverse:
    from r = c_1^-1 T mod T^2, each step r <- r - (t(r) - T) * r' takes r
    known mod T^K to r known mod T^min(2K - 1, prec).  Newton's step with
    1/t'(r) is right mod T^(2K), since t(r + e) = t(r) + t'(r) e + O(e^2)
    for the formal derivative in any characteristic.  The chain rule
    t'(r) * r' = 1 holds in any characteristic too, so the derivative r'
    of the known terms is 1/t'(r) mod T^(K-1); times t(r) - T, of
    valuation >= K, it is right mod T^(2K - 1).  A step costs one
    substitution and one product.  The compositional inverse is unique
    mod T^prec, so the result (val 1, precision t_series.prec) is the one
    matching coefficients of T^m term by term gives.
    """
    if t_series.val != 1 or not t_series.logs:
        raise NotUniformiser("reversion needs valuation exactly 1")
    t = t_series.tower
    j = t_series.j
    prec = t_series.prec
    Q = t.q - 1
    int_logs = [LOG_ZERO] + [t.from_int(k).log for k in range(1, t.p)]
    r = LaurentSeries(t, j, 1, (t_series.leading().inverse().log,), 2,
                      _checked=True)
    known = 2
    while known < prec:
        top = min(2 * known - 1, prec)
        deriv = []                             # k * r_k at T^(k-1)
        for k, lg in enumerate(r.logs, 1):
            kl = int_logs[k % t.p]
            deriv.append(LOG_ZERO if lg == LOG_ZERO or kl == LOG_ZERO
                         else (lg + kl) % Q)
        rk = LaurentSeries(t, j, 1, r.logs, top, _checked=True)
        err = substitute(t_series.truncate(top), rk) \
            - LaurentSeries.T_power(t, j, 1, top)
        r = rk - err * LaurentSeries(t, j, 0, deriv, known - 1, _checked=True)
        known = top
    return r


def series_in_subfield(s: LaurentSeries, j: int) -> bool:
    """Whether every coefficient is fixed by the j-th Frobenius power."""
    return logs_in_subfield(s.tower, s.logs, j)
