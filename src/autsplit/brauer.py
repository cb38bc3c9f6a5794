"""Discrete arithmetic of Brauer classes and SL_n(A(d,r)) descriptors.

Everything here is exact integer arithmetic: Brauer invariants as reduced
fractions mod 1, Wedderburn decomposition by gcd, base-change formulas,
and the gcd divisibility criteria deciding when the semilinear
automorphism sequence of SL_n(D) splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .gftower import _prime_factors


class NotDivisionInput(ValueError):
    """Operation requires a division-algebra descriptor (gcd(d, r) = 1)."""


@dataclass(frozen=True)
class CSADescriptor:
    """The cyclic algebra A(d,r): degree-d unramified, uniformiser power r."""
    d: int
    r: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree must be positive")

    def __repr__(self):
        return f"A({self.d},{self.r})"


@dataclass(frozen=True)
class BrauerClass:
    """Element of Br(K) = Q/Z as a reduced fraction in [0, 1)."""
    numerator: int
    denominator: int

    @staticmethod
    def from_fraction(num: int, den: int) -> BrauerClass:
        f = Fraction(num, den) % 1
        return BrauerClass(f.numerator, f.denominator)

    def __repr__(self):
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class GroupDescriptor:
    """The algebraic group SL_n(A(d,r))."""
    n: int
    algebra: CSADescriptor

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be positive")

    def __repr__(self):
        return f"SL_{self.n}({self.algebra!r})"


def invariant(A: CSADescriptor) -> BrauerClass:
    """inv[A(d,r)] = r/d in Q/Z."""
    return BrauerClass.from_fraction(A.r, A.d)


def wedderburn(A: CSADescriptor) -> tuple[int, CSADescriptor]:
    """A(d,r) = M_a(A(d/a, r/a)) with a = gcd(d,r); division iff a = 1."""
    a = gcd(A.d, A.r) if A.r != 0 else A.d
    return a, CSADescriptor(A.d // a, A.r // a)


def base_change_csa(A: CSADescriptor, m: int) -> CSADescriptor:
    """Scalar extension along a degree-m extension multiplies r by m."""
    if m < 1:
        raise ValueError("extension degree must be positive")
    return CSADescriptor(A.d, A.r * m)


def splits_over_subfield(n: int, d: int, m: int) -> bool:
    """Splitting over a fixed Galois subfield of index m: gcd(nd, m) | n."""
    return n % gcd(n * d, m) == 0


def descent_form(n: int, d: int, r: int, m: int) -> GroupDescriptor | None:
    """A K'-form of SL_n(A(d,r)) for a degree-m Galois subfield, if any.

    When gcd(nd, m) = a divides n the form is SL_{n/a}(A(ad, r')) with
    (m/a) r' = r mod d; base change by m carries it back to the input's
    size and Brauer class.  Returns None when the criterion fails.
    """
    if gcd(d, r) != 1:
        raise NotDivisionInput("descent_form needs gcd(d, r) = 1")
    a = gcd(n * d, m)
    if n % a != 0:
        return None
    rp = 0 if d == 1 else r * pow(m // a, -1, d) % d
    # adjust within the residue class mod d until the output descriptor is
    # itself a division algebra (possible since gcd(rp, d) = 1 already)
    while gcd(a * d, rp) != 1:
        rp += d
    return GroupDescriptor(n // a, CSADescriptor(a * d, rp))


def splits_globally_charp(n: int, d: int, p: int, i: int) -> bool:
    """Splitting over every Galois subfield of F_{p^i}((T)):
    gcd(d, p) = 1 and gcd(nd, i(p^i - 1)) divides n."""
    if gcd(d, p) != 1:
        return False
    return n % gcd(n * d, i * (p ** i - 1)) == 0


def non_split_witness(n: int, d: int, p: int, i: int) -> int | None:
    """Smallest realizable Galois subfield index q^a with gcd(nd, q^a)
    not dividing n, or None when the group splits globally.

    Index p^a is realizable for every a, and q^a for a prime q != p when
    q^a divides i(p^i - 1).  Only a prime q dividing nd can give a
    witness, since gcd(nd, q^a) = 1 otherwise, so those are the only
    primes tried and i(p^i - 1) is never factored."""
    nd = n * d
    witnesses = []
    if gcd(d, p) != 1:
        a = 1
        while n % gcd(nd, p ** a) == 0:
            a += 1
        witnesses.append(p ** a)
    tame = i * (p ** i - 1)
    for q in _prime_factors(nd):
        if q == p:
            continue
        a = 1
        while tame % (q ** a) == 0:
            if n % gcd(nd, q ** a) != 0:
                witnesses.append(q ** a)
                break
            a += 1
    return min(witnesses) if witnesses else None


def d_part(m: int, d: int) -> tuple[int, int]:
    """Split m = a*b with b the largest divisor of m all of whose prime
    factors divide d; then gcd(a, b) = gcd(d, a) = 1."""
    if m < 1 or d < 1:
        raise ValueError("arguments must be positive")
    b = 1
    rest = m
    g = gcd(rest, d)
    while g > 1:
        b *= g
        rest //= g
        g = gcd(rest, d)
    return rest, b
