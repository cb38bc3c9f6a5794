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


def _add_logs(t: FieldTower, la: int, lb: int) -> int:
    if la == LOG_ZERO:
        return lb
    if lb == LOG_ZERO:
        return la
    z = t._zech[(lb - la) % (t.q - 1)]
    if z == LOG_ZERO:
        return LOG_ZERO
    return (la + z) % (t.q - 1)


def _neg_log(t: FieldTower, la: int) -> int:
    if la == LOG_ZERO:
        return la
    return (la + t._neg_log) % (t.q - 1)


def _frob_log(t: FieldTower, la: int, e: int) -> int:
    if la == LOG_ZERO or t.q == 2:
        return la
    return la * t._frob_exp[e % t.M] % (t.q - 1)


class LaurentSeries:
    """Truncated Laurent series sum_k c_k T^k known modulo T^prec."""

    __slots__ = ("tower", "j", "val", "logs", "prec")

    def __init__(self, tower: FieldTower, j: int, val: int,
                 logs: Iterable[int], prec: int, _checked: bool = False):
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
        if val + len(logs) > prec:
            logs = logs[:max(prec - val, 0)]
        while logs and logs[0] == LOG_ZERO:
            logs.pop(0)
            val += 1
        while logs and logs[-1] == LOG_ZERO:
            logs.pop()
        if not logs:
            val = prec
        self.tower, self.j, self.val, self.prec = tower, j, val, prec
        self.logs = tuple(logs)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(tower: FieldTower, j: int, prec: int = DEFAULT_PREC) -> LaurentSeries:
        return LaurentSeries(tower, j, prec, (), prec, _checked=True)

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

    def is_zero(self) -> bool:
        """Zero as far as the precision horizon can tell."""
        return not self.logs

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
        lo = min(self.val, other.val)
        for k in range(lo, m):
            if self._log_at(k) != other._log_at(k):
                return False
        return True

    __hash__ = None

    def _log_at(self, k: int) -> int:
        if k < self.val or k >= self.val + len(self.logs):
            return LOG_ZERO
        return self.logs[k - self.val]

    # -- ring operations ----------------------------------------------------

    def _require_compatible(self, other: LaurentSeries):
        if self.tower is not other.tower or self.j != other.j:
            raise ValueError("series live over different fields")

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        self._require_compatible(other)
        t = self.tower
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        out = [LOG_ZERO] * (prec - lo)
        for k in range(self.val, min(self.val + len(self.logs), prec)):
            out[k - lo] = self.logs[k - self.val]
        for k in range(other.val, min(other.val + len(other.logs), prec)):
            out[k - lo] = _add_logs(t, out[k - lo], other.logs[k - other.val])
        return LaurentSeries(t, self.j, lo, out, prec, _checked=True)

    def __neg__(self) -> LaurentSeries:
        t = self.tower
        return LaurentSeries(t, self.j, self.val,
                             [_neg_log(t, lg) for lg in self.logs],
                             self.prec, _checked=True)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        self._require_compatible(other)
        t = self.tower
        if not self.logs or not other.logs:
            prec = min(self.prec + other.val, other.prec + self.val)
            return LaurentSeries.zero(t, self.j, prec)
        prec = min(self.prec + other.val, other.prec + self.val)
        lo = self.val + other.val
        out = [LOG_ZERO] * (prec - lo)
        Q = t.q - 1
        zech = t._zech
        alogs, blogs = self.logs, other.logs
        av, bv = self.val, other.val
        for ia, la in enumerate(alogs):
            if la == LOG_ZERO:
                continue
            base = av + ia + bv - lo
            top = min(len(blogs), prec - lo - base)
            for ib in range(top):
                lb = blogs[ib]
                if lb == LOG_ZERO:
                    continue
                lm = (la + lb) % Q
                k = base + ib
                cur = out[k]
                if cur == LOG_ZERO:
                    out[k] = lm
                else:
                    z = zech[(lm - cur) % Q]
                    out[k] = LOG_ZERO if z == LOG_ZERO else (cur + z) % Q
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
        return LaurentSeries(self.tower, self.j, self.val + k, self.logs,
                             self.prec + k, _checked=True)

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
    return LaurentSeries(t, s.j, s.val, [_frob_log(t, lg, e) for lg in s.logs],
                         s.prec, _checked=True)


def substitute(s: LaurentSeries, target: LaurentSeries) -> LaurentSeries:
    """s(T -> target) for a uniformiser image target (valuation exactly 1)."""
    if target.val != 1 or not target.logs:
        raise NotUniformiser("substitution target must have valuation 1")
    t = s.tower
    if s.tower is not target.tower or s.j != target.j:
        raise ValueError("series live over different fields")
    prec = min(s.prec, target.prec)
    if not s.logs:
        return LaurentSeries.zero(t, s.j, prec)
    # Horner from the top coefficient down to T^val, then shift by val
    res = LaurentSeries.zero(t, s.j, prec)
    for k in range(min(s.prec, s.val + len(s.logs)) - 1, s.val - 1, -1):
        res = res * target
        lg = s._log_at(k)
        if lg != LOG_ZERO:
            res = res + LaurentSeries.constant(FFElement(t, lg), s.j, prec)
    if s.val:
        res = res * (target ** s.val if s.val > 0
                     else target.inverse() ** (-s.val))
    return res.truncate(min(res.prec, prec))


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
    F_{p^(id)}^x, then unit corrections 1 + eps*T^k are found from
    surjectivity of the relative trace, taking the canonical preimage
    through a fixed trace-nonzero element.
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
    for k in range(1, prec_rel):
        defect = cu - unramified_norm(x, i, d).with_subfield(id_)
        if not defect.logs or defect.val > k:
            continue
        if defect.val < k:  # pragma: no cover - correction keeps lower terms
            raise RuntimeError("norm lifting lost a settled term")
        # N(x(1+eps T^k)) = N(x)(1 + Tr(eps) T^k + ...), so match the
        # T^k coefficient of defect / N(x)-lead: Tr(eps) = delta / lead
        delta = defect.leading() / lead
        eps = theta * (delta * tr_theta_inv)
        corr = LaurentSeries.from_pairs(t, id_, [(0, t.one()), (k, eps)], prec_rel)
        x = x * corr
    return x.shift(c.val // d)


def reversion(t_series: LaurentSeries) -> LaurentSeries:
    """The compositional inverse r with r(t_series) = T, term by term."""
    if t_series.val != 1 or not t_series.logs:
        raise NotUniformiser("reversion needs valuation exactly 1")
    t = t_series.tower
    j = t_series.j
    prec = t_series.prec
    c1 = t_series.leading()
    c1inv = c1.inverse()
    coeffs = [c1inv]                       # r = c1^-1 T + ...
    powers = [t_series]                    # t^1, t^2, ... truncated at prec
    for m in range(2, prec):
        powers.append(powers[-1] * t_series)
        # coefficient of T^m in sum_{k<m} r_k t^k must cancel
        acc = t.zero()
        for kk in range(1, m):
            acc = acc + coeffs[kk - 1] * powers[kk - 1].coeff(m)
        coeffs.append(-(acc * (c1inv ** m)))
    return LaurentSeries(t, j, 1, [c.log for c in coeffs], prec)


def series_in_subfield(s: LaurentSeries, j: int) -> bool:
    """Whether every coefficient is fixed by the j-th Frobenius power."""
    return all(in_subfield(FFElement(s.tower, lg), j)
               for lg in s.logs if lg != LOG_ZERO)
