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

Storage and cost.  ``_exp`` (log -> code), ``_log`` (code -> log) and
``_zech`` are ``array('i')``, 4 bytes an entry.  Reading an array boxes a
new int every time, but the loop that reads the tables most, the series
product in characteristic 2, sums codes read from ``_exp`` and reads no
Zech entry, so an array ``_zech`` costs no measurable time there.  Building
the tables takes a constant number of table lookups per element (see
``FieldTower._build_tables``): about 0.03 s for F_{3^10}, 0.2 s for
F_{3^12} and for F_{1000003}, and 0.5 s for F_{2^21} in CPython 3.11 on
one core of a 2-vCPU VM.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Sequence

LOG_ZERO = -1

# The tables take about 12 bytes per element (three 4-byte array entries),
# about 25 MB at this size.  The limit bounds that memory; the build time is
# linear in p^M.
MAX_FIELD_SIZE = 1 << 21

# Stride, in elements, of the blocks that fill the exp table once it holds
# that many.
_BLOCK = 1 << 10

# Zech entries are computed this many at a time, so that no list of all q
# boxed ints exists while the table is built.
_ZECH_CHUNK = 1 << 16


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


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# for every n below this bound (Sorenson and Webster, 2015).
PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n < PRIME_TEST_BOUND (ValueError above)."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}, "
                         f"got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; [] for n < 2."""
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


def _reduce_table(p: int, S: int, slots: range) -> list[int]:
    """Code of the packed slots ``slots`` (S bits each), every slot mod p."""
    tbl = [0]
    for t in slots:
        pt = p ** t
        tbl = [r + s % p * pt for s in range(1 << S) for r in tbl]
    return tbl


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
        """Fill ``_exp``, ``_log`` and ``_zech`` in O(q) table lookups.

        ``_exp`` grows in blocks: the next block is g^s times the s codes
        before it, one code at a time (s = 1) up to _BLOCK codes, then
        _BLOCK at a time (s = _BLOCK).  Multiplying by the fixed g^s is
        linear over F_p, so it is two lookups in the chunk tables of
        ``_chunk_tables``, one for the low w digits of a code and one for
        the rest, inlined in the block's comprehension.  In characteristic
        2 a code is its own bit vector and the two halves combine by XOR.
        For odd p the halves are packed vectors, one digit per S-bit slot,
        whose sum carries nothing from slot to slot; three reduction
        tables, each over a third of the slots, turn the sum back into a
        code.  p = 2 keeps its XOR step because the packed route is slower
        there: with S = 3 its reduction tables for F_{2^21} have 2^21
        entries each, and the build took 3.1-3.5 s against 1.4-1.6 s for
        XOR, run side by side.

        In a prime field (M = 1) a code is the element itself, so a block
        step is c * g^s mod p and needs no tables.

        Zech needs only log(1 + g^k), and adding 1 to a code changes its
        lowest digit alone: c ^ 1 for p = 2, else c + 1, or c - (p - 1)
        when that digit is p - 1.  It is filled _ZECH_CHUNK entries at a
        time, so no list of all its boxed ints is ever held.
        """
        p, M, q, f = self.p, self.M, self.q, self.modulus
        self.g_code = self._find_generator_code()
        g = _code_to_vec(self.g_code, p, M)
        Q = q - 1
        w = (M + 1) // 2
        P, mask = p ** w, (1 << w) - 1
        S = 1 if p == 2 else p.bit_length() + 1
        if p > 2 and M > 1:
            third = -(-M // 3)
            r0, r1, r2 = (_reduce_table(p, S, range(t, min(t + third, M)))
                          for t in (0, third, 2 * third))
            k1, k2 = third * S, 2 * third * S
            m = (1 << k1) - 1
        exp = array("i", [1])
        for stride, stop in ((1, min(_BLOCK, Q)), (_BLOCK, Q)):
            h = _poly_powmod(g, stride, f, p)
            if M > 1:
                lo, hi = self._chunk_tables(h, w, S)
            while len(exp) < stop:
                n = len(exp)
                block = exp[n - stride:min(n, stop - stride)]
                if M == 1:
                    exp.fromlist([c * h[0] % p for c in block])
                elif p == 2:
                    exp.fromlist([lo[c & mask] ^ hi[c >> w] for c in block])
                else:
                    exp.fromlist([r0[(v := lo[c % P] + hi[c // P]) & m]
                                  + r1[v >> k1 & m] + r2[v >> k2]
                                  for c in block])
        if _poly_mulmod(_code_to_vec(exp[-1], p, M), g, f, p) != (1,):
            raise RuntimeError("generator order mismatch")  # pragma: no cover
        log = array("i", [LOG_ZERO]) * q
        for k, c in enumerate(exp):
            log[c] = k
        zech = array("i")
        top = p - 1
        for n in range(0, Q, _ZECH_CHUNK):
            chunk = exp[n:n + _ZECH_CHUNK]
            if p == 2:
                zech.fromlist([log[c ^ 1] for c in chunk])
            else:
                zech.fromlist([log[c + 1 if c % p != top else c - top]
                               for c in chunk])
        self._exp, self._log, self._zech = exp, log, zech
        # log of -1, used for subtraction; in characteristic 2 it is 0.
        self._neg_log = 0 if p == 2 else Q // 2

    def _chunk_tables(self, h, w: int, S: int):
        """Tables lo, hi for multiplication by the polynomial h.

        With P = p^w, h times the element of code c is lo[c % P] combined
        with hi[c // P].  For p = 2 (S = 1) the entries are codes and
        combine by XOR.  For odd p (S = p.bit_length() + 1) they are packed
        vectors with digit t in bits [S*t, S*(t+1)), every digit reduced,
        so the sum of two has slots below 2p.  Each table grows one digit at a
        time: its p copies add 0, 1, ..., p - 1 times that digit's image.
        """
        p, M, f = self.p, self.M, self.modulus
        half = sum(1 << (S * t + S - 1) for t in range(M))
        fix = sum(((1 << (S - 1)) - p) << (S * t) for t in range(M))
        tables = ([0], [0])
        col = h
        for j in range(M):
            tbl = tables[j >= w]
            base = sum(a << (S * t) for t, a in enumerate(col))
            if p == 2:
                tbl += [t ^ base for t in tbl]
            else:
                # a reduced slot plus a reduced slot stays below 2p; adding
                # 2^(S-1) - p sets the slot's top bit exactly when it is >= p
                mults = [0]
                for _ in range(p - 1):
                    s = mults[-1] + base
                    mults.append(s - (((s + fix) & half) >> (S - 1)) * p)
                tbl[:] = [(s := t + a) - (((s + fix) & half) >> (S - 1)) * p
                          for a in mults for t in tbl]
            col = _poly_mulmod(col, (0, 1), f, p)
        return tables

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

    def from_code(self, code: int) -> FFElement:
        if code == 0:
            return self.zero()
        return FFElement(self, self._log[code])

    def from_int(self, n: int) -> FFElement:
        """The image of the integer n under Z -> F_p -> F_{p^M}."""
        return self.from_code(n % self.p)

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
