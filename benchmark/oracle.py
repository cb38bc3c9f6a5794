"""Checks of autsplit's reports, computed apart from the program.

The field arithmetic here is built from the tower's published modulus and
generator alone: elements are coefficient vectors packed into an int (one
bit per digit for p = 2, four bits per digit for odd p), products go
through exp/log tables this module builds by its own polynomial
multiplication, and sums through packed digit addition.  A symbol ``g^k``
in a report means the k-th power of the tower generator, so it is the
element at log k of these tables.

Nothing here calls autsplit, except ``section_property`` which applies the
program's ``glue_section`` to inputs drawn here and compares raw data.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations
from math import gcd

ZERO = -1


# -- integer arithmetic ----------------------------------------------------

def prime_factorisation(n: int) -> dict:
    out = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def d_part(m: int, d: int) -> tuple[int, int]:
    """m = a*b with b the largest divisor of m whose primes all divide d."""
    b = 1
    for q, e in prime_factorisation(m).items():
        if d % q == 0:
            b *= q ** e
    return m // b, b


def splits_charp(n: int, d: int, p: int, i: int) -> bool:
    return gcd(d, p) == 1 and n % gcd(n * d, i * (p ** i - 1)) == 0


def non_split_witness(n: int, d: int, p: int, i: int):
    """Smallest prime power q^a (q != p) dividing i(p^i - 1) with
    gcd(nd, q^a) not dividing n; the p-power witness when p | d."""
    nd = n * d
    found = []
    if d % p == 0:
        a = 1
        while n % gcd(nd, p ** a) == 0:
            a += 1
        found.append(p ** a)
    for q, e in prime_factorisation(i * (p ** i - 1)).items():
        if q == p:
            continue
        for a in range(1, e + 1):
            if n % gcd(nd, q ** a):
                found.append(q ** a)
                break
    return min(found) if found else None


# -- finite fields ---------------------------------------------------------

def _poly_mulmod(a, b, f, p):
    """Product of coefficient lists (low degree first) modulo monic f."""
    m = len(f) - 1
    res = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % p
    for k in range(len(res) - 1, m - 1, -1):
        c = res[k]
        if c:
            for t in range(m + 1):
                res[k - m + t] = (res[k - m + t] - c * f[t]) % p
    return res[:m]


class Field:
    """F_{p^M} = F_p[x]/(modulus) with exp/log tables for ``generator``."""

    def __init__(self, p: int, modulus, generator):
        self.p = p
        self.M = M = len(modulus) - 1
        self.Q = Q = p ** M - 1
        self.width = 1 if p == 2 else 4
        digit_mask = (1 << self.width) - 1
        nibbles = sum(1 << (4 * j) for j in range(M))
        self._bias, self._high = (8 - p) * nibbles, 8 * nibbles
        gen = list(generator) + [0] * (M - len(generator))
        # column j of multiplication by g, pre-scaled by every digit value
        cols = []
        for j in range(M):
            col = _poly_mulmod(gen, [0] * j + [1], modulus, p)
            cols.append([self.pack([c * s % p for c in col]) for s in range(p)])
        exp = [0] * Q
        log = {}
        cur = self.pack([1])
        for k in range(Q):
            if cur in log:
                raise ValueError("tower generator is not primitive")
            exp[k] = cur
            log[cur] = k
            nxt = 0
            for j in range(M):
                digit = cur >> (self.width * j) & digit_mask
                if digit:
                    nxt = self.add(nxt, cols[j][digit])
            cur = nxt
        if cur != exp[0]:
            raise ValueError("tower generator order is not p^M - 1")
        self.exp, self.log = exp, log
        self.neg_log = 0 if p == 2 else Q // 2

    def pack(self, digits) -> int:
        out = 0
        for j, c in enumerate(digits):
            out |= (c % self.p) << (self.width * j)
        return out

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        # digit sums stay below 16, so no carry crosses a nibble; adding
        # 8 - p sets bit 3 of exactly the nibbles that reached p
        t = a + b
        over = ((t + self._bias) & self._high) >> 3
        return t - over * self.p

    def log_sum(self, la: int, lb: int) -> int:
        if la == ZERO:
            return lb
        if lb == ZERO:
            return la
        s = self.add(self.exp[la], self.exp[lb])
        return self.log[s] if s else ZERO


class Series:
    """sum_k c_k T^k known mod T^prec; coefficients are logs (ZERO for 0)."""

    def __init__(self, field: Field, terms: dict, prec: int):
        self.F, self.prec = field, prec
        self.terms = {k: lg for k, lg in terms.items() if lg != ZERO and k < prec}

    def __mul__(self, other):
        F = self.F
        vs = min(self.terms, default=self.prec)
        vo = min(other.terms, default=other.prec)
        prec = min(self.prec + vo, other.prec + vs)
        acc = {}
        for ka, la in self.terms.items():
            for kb, lb in other.terms.items():
                k = ka + kb
                if k < prec:
                    acc[k] = F.add(acc.get(k, 0), F.exp[(la + lb) % F.Q])
        return Series(F, {k: F.log[c] for k, c in acc.items() if c}, prec)

    def __add__(self, other):
        terms = dict(self.terms)
        for k, lg in other.terms.items():
            terms[k] = self.F.log_sum(terms.get(k, ZERO), lg)
        return Series(self.F, terms, min(self.prec, other.prec))

    def negate(self):
        F = self.F
        return Series(F, {k: (lg + F.neg_log) % F.Q
                          for k, lg in self.terms.items()}, self.prec)

    def shift(self, e: int):
        return Series(self.F, {k + e: lg for k, lg in self.terms.items()},
                      self.prec + e)

    def frobenius(self, e: int):
        """Coefficientwise x -> x^(p^e)."""
        F = self.F
        pe = pow(F.p, e, F.Q)
        return Series(F, {k: lg * pe % F.Q for k, lg in self.terms.items()},
                      self.prec)

    def agrees(self, other, below: int) -> bool:
        keys = {k for k in self.terms if k < below} | \
               {k for k in other.terms if k < below}
        return all(self.terms.get(k, ZERO) == other.terms.get(k, ZERO)
                   for k in keys)


_TERM = re.compile(r"^(?:(1|g\^(\d+))\*?)?(T(?:\^(-?\d+))?)?$")


def parse_report_series(field: Field, text: str) -> Series:
    """Read the print form 'c0 + g^5*T + T^3 + O(T^N)' of a report."""
    *parts, tail = [s.strip() for s in text.split(" + ")]
    m = re.fullmatch(r"O\(T\^(-?\d+)\)", tail)
    if not m:
        raise ValueError(f"no precision term in {text!r}")
    terms = {}
    for part in parts:
        t = _TERM.match(part)
        if not t or not part:
            raise ValueError(f"unreadable term {part!r}")
        lg = int(t.group(2)) if t.group(2) else 0
        k = 0 if not t.group(3) else (int(t.group(4)) if t.group(4) else 1)
        terms[k] = lg
    return Series(field, terms, int(m.group(1)))


def parse_input_series(field: Field, text: str, j: int, prec: int) -> Series:
    """Read the benchmark's own 'g^k*T^e+...' input, g generating F_{p^j}."""
    step = field.Q // (field.p ** j - 1)
    terms = {}
    for part in text.split("+"):
        coeff, power = part.split("*")
        k = int(power[2:])
        terms[k] = field.log_sum(terms.get(k, ZERO),
                                 int(coeff[2:]) * step % field.Q)
    return Series(field, terms, prec)


# -- checks: each returns a list of failure messages -----------------------

def check_synth(doc: dict, info: dict) -> list:
    bad = []
    res = doc["result"]
    split = splits_charp(info["n"], info["d"], info["p"], info["i"])
    if not split:
        want = non_split_witness(info["n"], info["d"], info["p"], info["i"])
        if doc["exit_code"] != 1 or res.get("verdict") != "NON-SPLIT":
            bad.append("non-split input not refused with exit code 1")
        if res.get("witness_subfield_degree") != want:
            bad.append(f"witness {res.get('witness_subfield_degree')} != {want}")
        return bad
    if doc["exit_code"] != 0 or res.get("verdict") != "VERIFIED":
        bad.append(f"verdict {res.get('verdict')} exit {doc['exit_code']}")
    failed = [c["name"] for c in res.get("checks", []) if not c["passed"]]
    if failed or not res.get("checks"):
        bad.append(f"checks not all passed: {failed}")
    ctx = res.get("context", {})
    a, b = d_part(info["p"] ** info["i"] - 1, info["d"])
    a2, b2 = d_part(info["i"], info["d"])
    want = {"a": a, "b": b, "a_prime": a2, "b_prime": b2}
    for key in ("p", "i", "d", "r", "n", "prec"):
        want[key] = info[key]
    got = {key: ctx.get(key) for key in want}
    if got != want:
        bad.append(f"context {got} != {want}")
    return bad


def check_split_check(doc: dict, info: dict) -> list:
    n, d, p, i = info["n"], info["d"], info["p"], info["i"]
    split = splits_charp(n, d, p, i)
    res = doc["result"]
    want = {"verdict": "SPLIT" if split else "NON-SPLIT"}
    if not split:
        want["witness_subfield_degree"] = non_split_witness(n, d, p, i)
    if res != want or doc["exit_code"] != (0 if split else 1):
        return [f"split-check {res} != {want}"]
    return []


def check_hanke(doc: dict, info: dict, field: Field) -> list:
    """lambda * gamma(lambda) * gamma^2(lambda) equals alpha(T^r)/T^r
    (branch 1) or alpha(T^r)*T^r (branch 2) at the stated precision."""
    res = doc["result"]
    if doc["exit_code"] != 0 or not res.get("in_aut_g"):
        return ["hanke gave no witness for an automorphism that has one"]
    p, i, r, prec = info["p"], info["i"], info["r"], info["prec"]
    lam = parse_report_series(field, res["lambda"])
    norm = lam * lam.frobenius(i) * lam.frobenius(2 * i)
    image = parse_input_series(field, info["alpha"], i, prec)
    rhs = image
    for _ in range(r - 1):
        rhs = rhs * image
    rhs = rhs.shift(-r if res["branch"] == 1 else r)
    below = min(norm.prec, rhs.prec)
    if below < prec // 2:
        return [f"hanke lambda known only mod T^{below}"]
    if not norm.agrees(rhs, below):
        return [f"N(lambda) != branch {res['branch']} right-hand side "
                f"mod T^{below}"]
    return []


def check_nrd(doc: dict, info: dict, field: Field) -> list:
    """Nrd equals det of the left regular representation, expanded over
    all permutations."""
    p, i, d, r, prec = info["p"], info["i"], info["d"], info["r"], info["prec"]
    comps = [parse_input_series(field, c, i * d, prec)
             for c in info["element"].split(";")]
    # column j of the representation holds self * u^j:
    # u^s a_s u^j = u^((s+j) mod d) T^(r*floor((s+j)/d)) sigma^j(a_s)
    rep = [[None] * d for _ in range(d)]
    for j in range(d):
        for s, a in enumerate(comps):
            row, wrap = (s + j) % d, (s + j) // d
            rep[row][j] = a.frobenius(i * j).shift(r * wrap)
    det = None
    for perm in permutations(range(d)):
        term = rep[perm[0]][0]
        for j in range(1, d):
            term = term * rep[perm[j]][j]
        inversions = sum(perm[x] > perm[y] for x in range(d)
                         for y in range(x + 1, d))
        term = term.negate() if inversions % 2 else term
        det = term if det is None else det + term
    got = parse_report_series(field, doc["result"]["reduced_norm"])
    if doc["exit_code"] != 0 or got.prec > det.prec or got.prec < prec:
        return [f"nrd precision {got.prec} against {det.prec}"]
    if not got.agrees(det, got.prec):
        return ["nrd differs from the permutation expansion"]
    return []


def _closure(table, elems):
    elems = set(elems)
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(elems):
                for z in (table[x][y], table[y][x]):
                    if z not in elems:
                        elems.add(z)
                        nxt.append(z)
        frontier = nxt
    return elems


def has_complement(group: dict) -> bool:
    """Exhaustive search for H with |H| = |G|/|N| and H meeting N in e.

    Such an H holds exactly one element of each coset xN.  The search
    fixes the cosets in order and, for the first coset H does not meet
    yet, tries every element of it.
    """
    table, e = group["table"], group["identity"]
    normal = set(group["normal_subset"])
    order = len(table)
    target = order // len(normal)
    coset = {}
    reps = []
    for x in range(order):
        if x not in coset:
            members = {table[x][k] for k in normal}
            for y in members:
                coset[y] = len(reps)
            reps.append(sorted(members))

    def search(S):
        if len(S) == target:
            return True
        hit = {coset[x] for x in S}
        first = next(c for c in range(len(reps)) if c not in hit)
        for x in reps[first]:
            C = _closure(table, S | {x})
            if len(C) <= target and len({coset[y] for y in C}) == len(C) \
                    and search(C):
                return True
        return False

    return search({e})


def check_complement(doc: dict, group: dict, key: str) -> list:
    res = doc["result"]
    comp = res.get(key)
    splits = res.get("splits")
    if splits != (doc["exit_code"] == 0):
        return ["exit code disagrees with the verdict"]
    if not splits:
        return ["no complement reported, but one exists"] \
            if has_complement(group) else []
    table, normal = group["table"], set(group["normal_subset"])
    H = set(comp or ())
    if (len(H) != len(table) // len(normal) or H & normal != {group["identity"]}
            or not H <= set(range(len(table))) or _closure(table, H) != H):
        return [f"reported complement {sorted(H)} is not one"]
    return []


def check_descent_form(doc: dict, info: dict) -> list:
    """A form SL_n'(A(d',r')) must base-change along degree m back to
    SL_n(A(d, r)) up to the Brauer class r mod d."""
    n, d, r, m = info["n"], info["d"], info["r"], info["m"]
    a = gcd(n * d, m)
    res = doc["result"]
    if n % a:
        ok = (res == {"verdict": "NO-FORM", "witness_gcd": a}
              and doc["exit_code"] == 1)
        return [] if ok else [f"descent-form {res} should be NO-FORM"]
    got = re.fullmatch(r"SL_(\d+)\(A\((\d+),(-?\d+)\)\)", res.get("form", ""))
    if not got or doc["exit_code"] != 0:
        return [f"descent-form {res} should be a form"]
    n2, d2, r2 = map(int, got.groups())
    a2 = gcd(d2, m)
    if (gcd(d2, r2) != 1 or a2 * n2 != n or d2 // a2 != d
            or ((m // a2) * r2 - r) % d):
        return [f"form {res['form']} does not base-change back"]
    return []


def check_brauer(doc: dict, info: dict) -> list:
    d, r, m = info["d"], info["r"], info["m"]
    res = doc["result"]
    if info["op"] == "inv":
        want = {"invariant": _frac(r, d)}
    else:
        g = gcd(d, r * m)
        want = {"algebra": f"A({d},{r * m})", "invariant": _frac(r * m, d),
                "division_part": f"A({d // g},{r * m // g})"}
    if res != want or doc["exit_code"] != 0:
        return [f"brauer {res} != {want}"]
    return []


def _frac(num, den):
    f = Fraction(num, den) % 1
    return f"{f.numerator}/{f.denominator}"


def section_property(ctx, alphas) -> list:
    """glue_section(alpha) restricted to K is alpha again: same residue
    Frobenius power and the same image of T."""
    from autsplit.sections import glue_section
    bad = []
    for alpha in alphas:
        f = glue_section(ctx, alpha)
        got, img = f.alphaE, alpha.image_of_T
        below = min(got.image_of_T.prec, img.prec)
        same = (got.e % ctx.i == alpha.e
                and _terms(got.image_of_T, below) == _terms(img, below))
        if not same or below < ctx.prec - 1:
            bad.append(f"glue_section does not restrict to {alpha!r}")
    return bad


def _terms(s, below):
    return {s.val + k: lg for k, lg in enumerate(s.logs)
            if lg != ZERO and s.val + k < below}
