"""Exact arithmetic in one ambient finite field F_{p^M} and its subfields.

A tower fixes a single ambient field F_{p^M} with M = i*d*b.  Every
subfield F_{p^j} (j | M) lives inside it as the fixed set of the j-th
Frobenius power, so there are no embedding maps to keep compatible.

Representation.  An element is stored by its discrete logarithm with
respect to a fixed multiplicative generator ``g`` (``LOG_ZERO`` for 0).
Multiplication, inversion and Frobenius are exponent arithmetic; addition
uses a Zech logarithm table.  A second encoding, the *code*, is the
integer sum(c_j * p^j) of the coefficient vector (c_0, ..., c_{M-1}) in
the polynomial basis modulo the tower modulus; codes are what gets
serialized.

Determinism.  The modulus is the first irreducible monic polynomial of
degree M in code order (which is exactly lexicographic order on the
coefficient vector read high-to-low), and ``g`` is the first element in
code order of multiplicative order p^M - 1.  Tables are built once per
(p, i, d, b) and cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

LOG_ZERO = -1

# Table sizes grow like p^M; beyond this the dense log/Zech tables stop
# being a sensible representation.
MAX_FIELD_SIZE = 1 << 21


class NotPrime(ValueError):
    """The characteristic passed to build_tower is not prime."""


class Overflow(ValueError):
    """p^M exceeds the configured table limit."""


class NotDivisor(ValueError):
    """Requested subfield degree does not divide the ambient degree."""


class NotInSubfield(ValueError):
    """Element is not fixed by the Frobenius power defining the subfield."""


class NormNotOne(ValueError):
    """Hilbert 90 input whose relative norm is not 1."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(n ** 0.5) + 1):
        if n % q == 0:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Raw polynomial arithmetic over F_p (used only while bootstrapping a
# tower: irreducibility test and generator search happen before the
# tables exist).  Polynomials are tuples of ints, low degree first.
# ----------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mulmod(a, b, f, p):
    if not a or not b:
        return ()
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    m = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    for k in range(len(res) - 1, m - 1, -1):
        c = res[k]
        if c:
            scale = c * inv_lead % p
            for t in range(len(f)):
                res[k - m + t] = (res[k - m + t] - scale * f[t]) % p
    return _poly_trim(res[:m])


def _poly_powmod(a, e, f, p):
    result = (1,)
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b) and _poly_trim(r):
            r = list(_poly_trim(r))
            if len(r) < len(b):
                break
            scale = r[-1] * inv % p
            shift = len(r) - len(b)
            for t in range(len(b)):
                r[shift + t] = (r[shift + t] - scale * b[t]) % p
            r = list(_poly_trim(r))
        a, b = b, _poly_trim(r)
    return a


def _is_irreducible(f, p):
    m = len(f) - 1
    if m < 1:
        return False
    x = (0, 1)
    # x^(p^m) == x mod f, and x^(p^(m/q)) - x coprime to f for prime q | m.
    xp = _poly_powmod(x, p, f, p)
    frob = [x]
    cur = x
    for _ in range(m):
        cur = _poly_compose_mod(cur, xp, f, p)
        frob.append(cur)
    if _poly_trim(_poly_sub(frob[m], x, p)) != ():
        return False
    for q in _prime_factors(m):
        diff = _poly_sub(frob[m // q], x, p)
        if len(_poly_gcd(f, diff, p)) > 1:
            return False
    return True


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                       for i in range(n)])


def _poly_compose_mod(a, g, f, p):
    # a(g) mod f by Horner.
    res: tuple[int, ...] = ()
    for coeff in reversed(a):
        res = _poly_mulmod(res, g, f, p)
        base = list(res) if res else []
        if coeff:
            if not base:
                base = [0]
            base[0] = (base[0] + coeff) % p
        res = _poly_trim(base)
    return res


def _code_to_vec(code: int, p: int, m: int) -> tuple[int, ...]:
    vec = []
    for _ in range(m):
        code, c = divmod(code, p)
        vec.append(c)
    return tuple(vec)


def _vec_to_code(vec: Iterable[int], p: int) -> int:
    code = 0
    for c in reversed(list(vec)):
        code = code * p + c % p
    return code


class FieldTower:
    """The ambient field F_{p^M}, M = i*d*b, with log/Zech tables.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, p: int, i: int, d: int, b: int):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if min(i, d, b) < 1:
            raise ValueError("i, d, b must be positive")
        M = i * d * b
        q = p ** M
        if q > MAX_FIELD_SIZE:
            raise Overflow(f"p^M = {p}^{M} exceeds the table limit {MAX_FIELD_SIZE}")
        self.p, self.i, self.d, self.b, self.M, self.q = p, i, d, b, M, q
        self.modulus = self._find_modulus()
        self._build_tables()
        self._frob_exp = [pow(p, e, q - 1) if q > 2 else 0 for e in range(M)]

    # -- bootstrap ------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, M = self.p, self.M
        if M == 1:
            return (0, 1)   # x + c is irreducible for every c; take c = 0
        for code in range(p ** M):
            f = _code_to_vec(code, p, M) + (1,)
            if _is_irreducible(f, p):
                return f
        raise RuntimeError("no irreducible polynomial found")  # pragma: no cover

    def _build_tables(self):
        p, M, q = self.p, self.M, self.q
        g_code = self._find_generator_code()
        self.g_code = g_code
        Q = q - 1
        exp = [0] * max(Q, 1)
        log = [LOG_ZERO] * q
        mul_g = self._linear_map_tables(g_code)
        cur = 1
        for k in range(Q):
            exp[k] = cur
            log[cur] = k
            cur = mul_g(cur)
        if cur != 1:  # pragma: no cover - generator order was verified
            raise RuntimeError("generator order mismatch")
        self._exp = exp
        self._log = log
        one = 1
        zech = [LOG_ZERO] * max(Q, 1)
        add = self._code_add
        for k in range(Q):
            s = add(one, exp[k])
            zech[k] = log[s] if s else LOG_ZERO
        self._zech = zech
        # log of -1, used for subtraction; in characteristic 2 it is 0.
        self._neg_log = 0 if p == 2 or Q == 0 else (Q // 2)

    def _linear_map_tables(self, g_code: int):
        """Multiplication by a fixed element as chunked code-lookup tables."""
        p, M = self.p, self.M
        f = self.modulus
        g_vec = _code_to_vec(g_code, p, M)
        cols = []
        for j in range(M):
            xj = tuple([0] * j + [1])
            prod = _poly_mulmod(g_vec, xj, f, p)
            cols.append(_vec_to_code(prod, p))
        if p == 2:
            chunk = 10
            tables = []
            for lo in range(0, M, chunk):
                width = min(chunk, M - lo)
                tbl = [0] * (1 << width)
                for v in range(1 << width):
                    acc = 0
                    for t in range(width):
                        if v >> t & 1:
                            acc ^= cols[lo + t]
                    tbl[v] = acc
                tables.append((lo, (1 << width) - 1, tbl))

            def mul(code: int) -> int:
                acc = 0
                for lo, mask, tbl in tables:
                    acc ^= tbl[code >> lo & mask]
                return acc

            return mul

        def mul(code: int) -> int:
            acc = 0
            c = code
            for j in range(M):
                c, digit = divmod(c, p)
                if digit:
                    acc = self._code_add(acc, self._code_scale(cols[j], digit))
            return acc

        return mul

    def _code_add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p, M = self.p, self.M
        out = 0
        mult = 1
        for _ in range(M):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += ((ca + cb) % p) * mult
            mult *= p
        return out

    def _code_scale(self, a: int, s: int) -> int:
        p, M = self.p, self.M
        out = 0
        mult = 1
        for _ in range(M):
            a, ca = divmod(a, p)
            out += (ca * s % p) * mult
            mult *= p
        return out

    def _find_generator_code(self) -> int:
        p, M, q = self.p, self.M, self.q
        if q == 2:
            return 1
        Q = q - 1
        primes = _prime_factors(Q)
        f = self.modulus
        for code in range(1, q):
            vec = _code_to_vec(code, p, M)
            if all(_poly_trim(_poly_powmod(vec, Q // ell, f, p)) != (1,)
                   for ell in primes):
                # full order follows since code is nonzero and kills no
                # maximal proper divisor of Q
                return code
        raise RuntimeError("no generator found")  # pragma: no cover

    # -- element factories ---------------------------------------------

    def zero(self) -> FFElement:
        return FFElement(self, LOG_ZERO)

    def one(self) -> FFElement:
        return FFElement(self, 0)

    def gen(self) -> FFElement:
        """The designated generator g of F_{p^M}^x."""
        return FFElement(self, 0 if self.q == 2 else 1 % (self.q - 1))

    def from_code(self, code: int) -> FFElement:
        if code == 0:
            return self.zero()
        return FFElement(self, self._log[code])

    def from_coeffs(self, coeffs: Iterable[int]) -> FFElement:
        vec = list(coeffs)
        if len(vec) > self.M:
            raise ValueError("coefficient vector longer than ambient degree")
        vec += [0] * (self.M - len(vec))
        return self.from_code(_vec_to_code(vec, self.p))

    def from_int(self, n: int) -> FFElement:
        """The image of the integer n under Z -> F_p -> F_{p^M}."""
        return self.from_code(n % self.p)

    def elements(self):
        """All q elements, zero first then generator powers."""
        yield self.zero()
        for k in range(self.q - 1):
            yield FFElement(self, k)

    def descriptor(self) -> dict:
        return {
            "p": self.p, "i": self.i, "d": self.d, "b": self.b,
            "modulus": list(self.modulus),
            "generator": list(_code_to_vec(self.g_code, self.p, self.M)),
        }

    def __repr__(self):
        return f"FieldTower(p={self.p}, M={self.M})"

    # identity-based equality/hash: towers are cached singletons


@lru_cache(maxsize=None)
def build_tower(p: int, i: int, d: int, b: int) -> FieldTower:
    """Deterministic tower with ambient degree M = i*d*b."""
    return FieldTower(p, i, d, b)


class FFElement:
    """Element of the ambient field, stored as a discrete log."""

    __slots__ = ("tower", "log")

    def __init__(self, tower: FieldTower, log: int):
        self.tower = tower
        self.log = log

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return self.log != LOG_ZERO

    def __add__(self, other: FFElement) -> FFElement:
        t = self.tower
        la, lb = self.log, other.log
        if la == LOG_ZERO:
            return other
        if lb == LOG_ZERO:
            return self
        z = t._zech[(lb - la) % (t.q - 1)]
        if z == LOG_ZERO:
            return FFElement(t, LOG_ZERO)
        return FFElement(t, (la + z) % (t.q - 1))

    def __neg__(self) -> FFElement:
        if self.log == LOG_ZERO:
            return self
        t = self.tower
        return FFElement(t, (self.log + t._neg_log) % (t.q - 1))

    def __sub__(self, other: FFElement) -> FFElement:
        return self + (-other)

    def __mul__(self, other: FFElement) -> FFElement:
        t = self.tower
        la, lb = self.log, other.log
        if la == LOG_ZERO or lb == LOG_ZERO:
            return FFElement(t, LOG_ZERO)
        return FFElement(t, (la + lb) % (t.q - 1))

    def inverse(self) -> FFElement:
        if self.log == LOG_ZERO:
            raise ZeroDivisionError("inverse of zero field element")
        t = self.tower
        return FFElement(t, (-self.log) % (t.q - 1))

    def __truediv__(self, other: FFElement) -> FFElement:
        return self * other.inverse()

    def __pow__(self, e: int) -> FFElement:
        t = self.tower
        if self.log == LOG_ZERO:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self if e else t.one()
        return FFElement(t, self.log * e % (t.q - 1))

    def __eq__(self, other):
        return (isinstance(other, FFElement) and other.tower is self.tower
                and other.log == self.log)

    def __hash__(self):
        return hash((id(self.tower), self.log))

    # -- field structure --------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        t = self.tower
        code = 0 if self.log == LOG_ZERO else t._exp[self.log]
        return _code_to_vec(code, t.p, t.M)

    def order(self) -> int:
        """Multiplicative order (1 has order 1)."""
        if self.log == LOG_ZERO:
            raise ZeroDivisionError("zero has no multiplicative order")
        t = self.tower
        from math import gcd
        return (t.q - 1) // gcd(self.log, t.q - 1) if t.q > 2 else 1

    def __repr__(self):
        if self.log == LOG_ZERO:
            return "0"
        if self.log == 0:
            return "1"
        return f"g^{self.log}"


# ----------------------------------------------------------------------
# Tower operations
# ----------------------------------------------------------------------

def frobenius(x: FFElement, e: int) -> FFElement:
    """x^(p^e); e is reduced modulo the ambient degree M."""
    t = x.tower
    if x.log == LOG_ZERO or t.q == 2:
        return x
    pe = t._frob_exp[e % t.M]
    return FFElement(t, x.log * pe % (t.q - 1))


def in_subfield(x: FFElement, j: int) -> bool:
    """Whether x lies in F_{p^j}, i.e. is fixed by the j-th Frobenius."""
    return frobenius(x, j) == x


def subfield_generator(tower: FieldTower, j: int) -> FFElement:
    """Generator of F_{p^j}^x inside the ambient field: g^((p^M-1)/(p^j-1))."""
    if tower.M % j != 0:
        raise NotDivisor(f"j = {j} does not divide M = {tower.M}")
    if tower.q == 2:
        return tower.one()
    exp = (tower.q - 1) // (tower.p ** j - 1)
    return FFElement(tower, exp % (tower.q - 1))


def relative_norm(x: FFElement, j: int, m: int) -> FFElement:
    """Norm from F_{p^(jm)} down to F_{p^j}: product of x^(p^(jt)), t < m."""
    t = x.tower
    if t.M % (j * m) != 0:
        raise NotDivisor(f"jm = {j * m} does not divide M = {t.M}")
    if not in_subfield(x, j * m):
        raise NotInSubfield("element does not lie in F_{p^(jm)}")
    acc = t.one()
    for s in range(m):
        acc = acc * frobenius(x, j * s)
    return acc


def relative_trace(x: FFElement, j: int, m: int) -> FFElement:
    """Trace from F_{p^(jm)} down to F_{p^j}."""
    t = x.tower
    if not in_subfield(x, j * m):
        raise NotInSubfield("element does not lie in F_{p^(jm)}")
    acc = t.zero()
    for s in range(m):
        acc = acc + frobenius(x, j * s)
    return acc


def hilbert90_solve(c: FFElement, j: int, m: int) -> FFElement:
    """Nonzero y in F_{p^(jm)} with frobenius(y, j) / y = c.

    Classical Lagrange-resolvent construction: with partial products of
    the conjugates of 1/c as weights, y = sum_t P_t * frobenius(w, j*t)
    satisfies frobenius(y, j) = c*y for any w making the sum nonzero; w
    runs through powers of the ambient generator until that happens.
    """
    t = c.tower
    if not c:
        raise NormNotOne("Hilbert 90 needs a nonzero input")
    if not in_subfield(c, j * m):
        raise NotInSubfield("element does not lie in F_{p^(jm)}")
    if relative_norm(c, j, m).log != 0:
        raise NormNotOne("relative norm of c is not 1")
    cinv = c.inverse()
    partials = [t.one()]
    for s in range(m - 1):
        partials.append(partials[-1] * frobenius(cinv, j * s))
    # the auxiliary element must lie in F_{p^(jm)}, else the telescoping
    # F^(jm)(w) = w step of the resolvent fails
    g = subfield_generator(t, j * m)
    w = t.one()
    for _ in range(t.p ** (j * m) - 1):
        y = t.zero()
        for s in range(m):
            y = y + partials[s] * frobenius(w, j * s)
        if y:
            return y
        w = w * g
    raise RuntimeError("Hilbert 90 resolvent never nonzero")  # pragma: no cover
