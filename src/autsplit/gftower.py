"""Exact arithmetic in one ambient finite field F_{p^M} and its subfields.

A tower fixes a single ambient field F_{p^M} with M = i*d*b.  Every
subfield F_{p^j} (j | M) lives inside it as the fixed set of the j-th
Frobenius power, so there are no embedding maps to keep compatible.

Representation.  An element is stored by its discrete logarithm with
respect to a fixed multiplicative generator ``g`` (``LOG_ZERO`` for 0).
Multiplication, inversion and Frobenius are exponent arithmetic.  A
second encoding, the *code*, is the integer sum(c_j * p^j) of the
coefficient vector (c_0, ..., c_{M-1}) in the polynomial basis modulo the
tower modulus; codes are what gets serialized.  Addition XORs codes in
characteristic 2 and uses a Zech logarithm table for odd p.

Determinism.  The modulus is the first irreducible monic polynomial of
degree M in code order (which is exactly lexicographic order on the
coefficient vector read high-to-low), and ``g`` is the first element in
code order of multiplicative order p^M - 1.  Towers are made once per
(p, i, d, b) and cached.

Storage and cost.  ``_exp`` (log -> code), ``_log`` (code -> log) and,
for odd p only, ``_zech`` are ``array('i')``, 4 bytes an entry: 8 bytes
an element in characteristic 2, 12 for odd p.  The exp table doubles (see
``_build_tables``): once n codes are known, the next ones are g^n times
the first ones, by a few C-level byte translations per _PIECE codes in
characteristic 2 and by two table lookups per code for odd p.  The log
scatter and the Zech fill take one interpreted step per element.  In
CPython 3.11 on one core of a 2-vCPU VM, twelve fresh processes each, a
build took 0.05-0.08 s for F_{3^10}, 0.40-0.67 s for F_{3^12}, 0.65-0.84 s
for F_{1000003} and 0.47-0.74 s for F_{2^21}; of the last, six
instrumented builds spent 0.06-0.12 s on the exp fill and 0.40-0.58 s on
the log scatter.

Characteristic 2 builds no table up front.  A command over F_{2^21} may
read a few hundred entries, all in a small subfield, so ``_exp`` and
``_log`` start as plain dicts, and the accessors ``exp_code`` and
``log_of`` make a missing entry when it is read and store it there: g^k
as one product of two stored powers, a log by Pohlig-Hellman.  Each miss
is charged its cost in elements of a full build, and once a tower's
charges reach q it builds the full arrays after all
(``FieldTower._full``), so a dense input pays at most about two builds.
The read rule: hot loops may subscript ``_exp`` and ``_log`` directly,
dicts or arrays, and a KeyError means "ask the accessor", which makes
that one entry; the loop then goes on.  Odd p keeps the eager build: its
additions read Zech entries densely, and its code products are
interpreted polynomial products.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import gcd, isqrt
from typing import Sequence

LOG_ZERO = -1

# The full tables take 8 bytes per element in characteristic 2 (exp and
# log) and 12 for odd p (plus Zech), at most about 25 MB at this size.  The
# limit bounds that memory and the build's time, linear in p^M: a
# characteristic-2 tower pays it only when its misses outgrow a build.
MAX_FIELD_SIZE = 1 << 21

# Codes multiplied, and Zech entries filled, at a time.  A piece's
# temporaries take about 24 bytes a code in characteristic 2 (copies, byte
# planes, translations) and about 40 for odd p (a list of boxed ints), so a
# build's peak memory stays near its finished tables, where one piece per
# doubling would add half of them again.
_PIECE = 1 << 14


# What characteristic-2 entries made on demand cost, in elements of a full
# build (see ``FieldTower._full``), each the largest ratio measured, rounded
# up.  In CPython 3.11 on one core of a 2-vCPU VM, over F_{2^16}, F_{2^18},
# F_{2^20} and F_{2^21} (medians of 7 builds, 5,000 exp misses and 1,000 log
# misses, three runs each), a build took 0.11-0.28 us an element, a code
# product 1.1-2.9 us (7-15 elements), an exp miss 1.7-4.4 us (9-26) and a
# log miss 55-189 us (257-694).
_PRODUCT_COST = 16      # one product of the one-time lo, hi and subgroup
                        # tables
_EXP_MISS_COST = 28     # one exp entry: a product and its bookkeeping
_LOG_MISS_COST = 700    # one log entry: M - 1 squarings and, per prime
                        # power of Q, a product per bit of its cofactor


def exceeds_table_limit(p: int, e: int) -> bool:
    """p^e > MAX_FIELD_SIZE, not formed when e alone says so (p^e >= 2^e)."""
    return e >= MAX_FIELD_SIZE.bit_length() or p ** e > MAX_FIELD_SIZE


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
    # x^(p^m) == x mod f, and x^(p^(m/q)) - x coprime to f for prime q | m;
    # x^(p^(k+1)) = (x^(p^k))^p mod f.
    frob = [x]
    for _ in range(m):
        frob.append(_poly_powmod(frob[-1], p, f, p))
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
    """The ambient field F_{p^M}, M = i*d*b, with exp/log tables.

    Its field (modulus, generator) is fixed at construction.  In
    characteristic 2 the tables fill as they are read and may be replaced
    by the full arrays later; every entry has one value, so instances
    answer the same at any time and are safe to share.
    """

    def __init__(self, p: int, i: int, d: int, b: int):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if min(i, d, b) < 1:
            raise ValueError("i, d, b must be positive")
        M = i * d * b
        if exceeds_table_limit(p, M):
            raise Overflow(f"p^M = {p}^{M} exceeds the table limit {MAX_FIELD_SIZE}")
        q = p ** M
        self.p, self.i, self.d, self.b, self.M, self.q = p, i, d, b, M, q
        self.modulus = self._find_modulus()
        self.g_code = self._find_generator_code()
        # log of -1, used for subtraction; in characteristic 2 it is 0.
        self._neg_log = 0 if p == 2 else (q - 1) // 2
        self._frob_exp = [pow(p, e, q - 1) if q > 2 else 0 for e in range(M)]
        if p != 2:
            self._build_tables()
            return
        self._mul = self._char2_product()
        self._charge = 0
        self._lo_hi = self._crt = None
        self._exp, self._log = {}, {0: LOG_ZERO}

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
        """Fill ``_exp``, ``_log`` and (odd p) ``_zech`` in O(q) steps.

        ``_exp`` doubles: once its first n codes are known, the next
        m = min(n, Q - n) are h = g^n times the first m, and then h becomes
        h*h.  ``_char2_times`` or ``_odd_times`` gives, for each h, the
        multiplication by h.  The table is allocated once at its final
        length (``series`` indexes it at la + lb - Q, so it must hold
        exactly Q codes) and written in place, _PIECE codes at a time.
        ``_log`` is the inverse of ``_exp``, one store a code; the
        multiplication closures are released before it, in
        ``_exp_array``, so they do not outlive the exp fill.

        Characteristic 2 adds as log[exp[a] ^ exp[b]] and has no Zech
        table.  For odd p, Zech needs only log(1 + g^k), and adding 1 to a
        code changes its lowest digit alone: c + 1, or c - (p - 1) when that
        digit is p - 1.  It is filled _PIECE entries at a time too.
        """
        p, M, q = self.p, self.M, self.q
        Q = q - 1
        exp = self._exp_array()
        g = _code_to_vec(self.g_code, p, M)
        if _poly_mulmod(_code_to_vec(exp[-1], p, M), g, self.modulus, p) != (1,):
            raise RuntimeError("generator order mismatch")  # pragma: no cover
        log = array("i", [LOG_ZERO]) * q
        # a memoryview stores an int a few per cent faster than the array
        view = memoryview(log)
        for k, c in enumerate(exp):
            view[c] = k
        self._exp, self._log = exp, log
        if p == 2:
            return
        zech = array("i")
        top = p - 1
        for n in range(0, Q, _PIECE):
            zech.fromlist([log[c + 1 if c % p != top else c - top]
                           for c in exp[n:n + _PIECE]])
        self._zech = zech

    def _exp_array(self) -> array:
        """The Q codes of g^0, ..., g^(Q-1), by doubling."""
        Q = self.q - 1
        by = self._char2_times() if self.p == 2 else self._odd_times()
        exp = array("i", [0]) * Q
        exp[0] = 1
        h, n = self.g_code, 1
        while n < Q:
            times = by(h)
            m = min(n, Q - n)
            for a in range(0, m, _PIECE):
                b = min(a + _PIECE, m)
                exp[n + a:n + b] = times(exp[a:b])
            h, n = times(array("i", [h]))[0], n + m
        return exp

    # -- table reads; characteristic 2 makes entries on demand -----------

    def _full(self, cost: int) -> bool:
        """Whether the full tables exist, after charging a miss ``cost``.

        Charges add up per tower, in elements of a full build: 28 an exp
        miss, 700 a log miss and 16 a product of the one-time tables, the
        measured costs rounded up (see ``_EXP_MISS_COST``).  Once they
        reach q, ``_build_tables`` runs and ``_exp`` and ``_log`` become
        its arrays, and no later miss is charged: a dict a caller still
        holds then gets its missing entries from the arrays, through the
        accessors.  So on-demand entries never cost much more than one
        build, and a field whose build is cheaper than a few misses gets
        its full tables at once.
        """
        if self._charge < self.q:
            self._charge += cost
            if self._charge >= self.q:
                self._build_tables()
        return self._charge >= self.q

    def exp_code(self, k: int) -> int:
        """The code of g^k, for -Q <= k < Q as the arrays index it (any
        integer k while ``_exp`` is a dict): ``_exp[k]``, and on a miss
        lo[b] * hi[a] with k = a*B + b mod Q, made, charged and stored
        once.  lo holds g^0..g^(B-1) and hi the powers of g^B, for
        B = ceil(sqrt(Q)), about 2*sqrt(Q) products made once.  A k outside
        [0, Q) reads the entry at k mod Q, so an exponent read at both k and
        k - Q is computed and charged once."""
        exp = self._exp
        try:
            return exp[k]
        except KeyError:
            pass
        Q = self.q - 1
        if not 0 <= k < Q:
            code = self.exp_code(k % Q)
        else:
            if self._lo_hi is None:
                B = isqrt(Q - 1) + 1
                if not self._full((B + Q // B) * _PRODUCT_COST):
                    lo = self._powers(self.g_code, B + 1)
                    self._lo_hi = lo, self._powers(lo.pop(), -(-Q // B))
            if self._full(_EXP_MISS_COST):
                return self._exp[k]
            lo, hi = self._lo_hi
            a, b = divmod(k, len(lo))
            code = self._mul(hi[a], lo[b])
        exp[k] = code
        return code

    def log_of(self, c: int) -> int:
        """The log of the code c (``LOG_ZERO`` for 0): ``_log[c]``, and on a
        miss made by Pohlig-Hellman, charged and stored once.  For each
        prime power n exactly dividing Q, c^(Q/n) lies in the subgroup of
        order n, whose full table of logs is made once, and the residues
        mod each n combine by the Chinese remainder theorem.  The powers
        c^(Q/n) share the squarings c^(2^j), j < M."""
        log = self._log
        try:
            return log[c]
        except KeyError:
            pass
        Q = self.q - 1
        if self._crt is None:
            # the power of ell in Q, as ell^M > 2^M > Q
            orders = [gcd(Q, ell ** self.M) for ell in _prime_factors(Q)]
            if not self._full(sum(orders) * _PRODUCT_COST):
                crt = []
                for n in orders:
                    m = Q // n
                    sub = self._powers(self.exp_code(m), n)
                    crt.append(([j for j in range(self.M) if m >> j & 1],
                                dict(zip(sub, range(n))), m * pow(m, -1, n)))
                self._crt = crt
        if self._full(_LOG_MISS_COST):
            return self._log[c]
        mul = self._mul
        squares = [c]
        for _ in range(self.M - 1):
            squares.append(mul(squares[-1], squares[-1]))
        total = 0
        for bits, sub, weight in self._crt:
            y = 1
            for j in bits:
                y = mul(y, squares[j])
            total += sub[y] * weight
        lg = log[c] = total % Q
        return lg

    def _powers(self, h: int, n: int) -> list[int]:
        """Codes of h^0, ..., h^(n-1), one product each."""
        mul, out = self._mul, [1]
        for _ in range(n - 1):
            out.append(mul(out[-1], h))
        return out

    def _char2_product(self):
        """The product of two codes of F_{2^M}, for entries made one at a
        time: a carry-less product taking b three bits at a time, whose
        bits at M and above fold back a byte at a time through tables of
        x^(M + k) mod f, each built by XOR doubling like ``by``'s."""
        M = self.M
        f = sum(c << j for j, c in enumerate(self.modulus))
        mask = (1 << M) - 1
        folds = []
        c = f & mask                    # x^M mod f
        for k in range(0, M - 1, 8):
            lin = [0]
            for _ in range(min(8, M - 1 - k)):
                lin += [t ^ c for t in lin]
                c <<= 1
                if c >> M:
                    c ^= f
            folds.append(lin)

        def product(a: int, b: int) -> int:
            a2, a4 = a << 1, a << 2
            window = (0, a, a2, a2 ^ a, a4, a4 ^ a, a4 ^ a2, a4 ^ a2 ^ a)
            acc = s = 0
            while b:
                acc ^= window[b & 7] << s
                b, s = b >> 3, s + 3
            high = acc >> M
            acc &= mask
            for tbl in folds:
                acc ^= tbl[high & 255]
                high >>= 8
            return acc
        return product

    def _char2_times(self):
        """Multiplication by h in F_{2^M}, for the doubling of the exp table.

        The returned function takes a code h and gives ``times``, which
        maps an array of codes c to the codes of h*c.  Multiplying by h is
        F_2-linear on codes, so byte o of h*c is the XOR, over the byte
        planes i of c, of a 256-byte table T_io at byte i of c.  T_io is
        read off the M images h*x^k, each x*c being c << 1, XORed with the
        modulus when bit M is set.  A plane is a strided slice of the
        piece's bytes, so ``times`` is a few ``bytes.translate`` calls and
        one int XOR per output plane, all in C.
        """
        M, f = self.M, sum(c << j for j, c in enumerate(self.modulus))
        size = array("i").itemsize
        planes = range(-(-M // 8))
        offs = [i if sys.byteorder == "little" else size - 1 - i for i in planes]

        def by(h: int):
            img = [h]
            for _ in range(M - 1):
                c = img[-1] << 1
                img.append(c ^ f if c >> M else c)
            tables = []
            for i in planes:
                lin = [0]
                for c in img[8 * i:8 * i + 8]:
                    lin += [t ^ c for t in lin]
                lin += [0] * (256 - len(lin))
                tables.append([bytes([v >> 8 * o & 255 for v in lin])
                               for o in planes])

            def times(piece: array) -> array:
                chunk = piece.tobytes()
                src = [chunk[s::size] for s in offs]
                out = bytearray(len(chunk))
                for o, s in enumerate(offs):
                    acc = 0
                    for plane, tbl in zip(src, tables):
                        acc ^= int.from_bytes(plane.translate(tbl[o]), "little")
                    out[s::size] = acc.to_bytes(len(piece), "little")
                return array("i", out)
            return times
        return by

    def _odd_times(self):
        """Multiplication by h in F_{p^M} for odd p, as ``_char2_times``.

        In a prime field (M = 1) a code is the element itself, so h*c is
        c*h mod p.  Otherwise multiplying by h is linear over F_p, so with
        P = p^w it is lo[c % P] + hi[c // P], two lookups in chunk tables
        for the low w digits of the code c and for the rest, reduced slot by
        slot.  The entries are packed vectors with digit t in bits
        [S*t, S*(t+1)), every digit reduced, so the sum of two has slots
        below 2p and carries nothing from slot to slot; three reduction
        tables, each over a third of the slots, turn the sum back into a
        code.  The reduction tables depend on p and M alone and are built
        once, the chunk tables once per h.  Each chunk table grows one digit
        at a time: its p copies add 0, 1, ..., p - 1 times that digit's
        image h*x^j.
        """
        p, M, f = self.p, self.M, self.modulus
        if M == 1:
            return lambda h: lambda piece: array("i", [c * h % p for c in piece])
        w = (M + 1) // 2
        P = p ** w
        S = p.bit_length() + 1
        third = -(-M // 3)
        r0, r1, r2 = (_reduce_table(p, S, range(t, min(t + third, M)))
                      for t in (0, third, 2 * third))
        k1, k2 = third * S, 2 * third * S
        m = (1 << k1) - 1
        # a reduced slot plus a reduced slot stays below 2p; adding
        # 2^(S-1) - p sets the slot's top bit exactly when it is >= p
        half = sum(1 << (S * t + S - 1) for t in range(M))
        fix = sum(((1 << (S - 1)) - p) << (S * t) for t in range(M))

        def by(h: int):
            lo, hi = tables = ([0], [0])
            col = _code_to_vec(h, p, M)
            for j in range(M):
                tbl = tables[j >= w]
                base = sum(a << (S * t) for t, a in enumerate(col))
                mults = [0]
                for _ in range(p - 1):
                    s = mults[-1] + base
                    mults.append(s - (((s + fix) & half) >> (S - 1)) * p)
                tbl[:] = [(s := t + a) - (((s + fix) & half) >> (S - 1)) * p
                          for a in mults for t in tbl]
                col = _poly_mulmod(col, (0, 1), f, p)
            return lambda piece: array("i", [
                r0[(v := lo[c % P] + hi[c // P]) & m] + r1[v >> k1 & m]
                + r2[v >> k2] for c in piece])
        return by

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
        return FFElement(self, self.log_of(code))

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
        if t.p == 2:
            return FFElement(t, t.log_of(t.exp_code(la) ^ t.exp_code(lb)))
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


def logs_in_subfield(tower: FieldTower, logs: Sequence[int], j: int) -> bool:
    """Whether the elements with these logs lie in F_{p^j}: the j-th
    Frobenius multiplies a log by p^j mod Q = p^M - 1, and fixes the zero."""
    Q = tower.q - 1
    pj = pow(tower.p, j, Q)
    for lg in logs:
        if lg != LOG_ZERO and lg * pj % Q != lg:
            return False
    return True


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
