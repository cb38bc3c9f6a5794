"""Automorphisms of local function fields F_{p^j}((T)) inside a tower.

An automorphism is continuous, hence determined by a residue-field action
(a Frobenius power, stored reduced mod j) and the image of T (a series of
valuation 1 with invertible leading coefficient).  Applying it to a
series twists the coefficients first and then substitutes into T.

The decomposition used downstream splits any automorphism into an
inertia part with image T + (higher), a torus part T -> cT, and a
residue Frobenius power; composition in that order recovers the
original map.
"""

from __future__ import annotations

from .gftower import FFElement, FieldTower
from .series import (LaurentSeries, frobenius_coeffwise, reversion,
                     substitute)


class LocalFieldAuto:
    """Automorphism of F_{p^j}((T)): coefficient Frobenius power + T-image."""

    __slots__ = ("tower", "j", "e", "image_of_T", "prec")

    def __init__(self, tower: FieldTower, j: int, e: int,
                 image_of_T: LaurentSeries):
        if image_of_T.tower is not tower or image_of_T.j != j:
            raise ValueError("image of T must be a series over F_{p^j}")
        if image_of_T.val != 1 or not image_of_T.logs:
            raise ValueError("image of T must have valuation exactly 1")
        self.tower = tower
        self.j = j
        self.e = e % j
        self.image_of_T = image_of_T
        self.prec = image_of_T.prec

    # -- constructors -----------------------------------------------------

    @staticmethod
    def ev(c: FFElement, j: int, prec: int) -> LocalFieldAuto:
        """The torus automorphism T -> c*T (c a nonzero constant)."""
        if not c:
            raise ValueError("ev needs a nonzero scalar")
        t = c.tower
        img = LaurentSeries.from_pairs(t, j, [(1, c)], prec)
        return LocalFieldAuto(t, j, 0, img)

    @staticmethod
    def frobenius_power(tower: FieldTower, j: int, e: int, prec: int) -> LocalFieldAuto:
        """Coefficientwise x -> x^(p^e), fixing T."""
        return LocalFieldAuto(tower, j, e, LaurentSeries.T_power(tower, j, 1, prec))

    # -- action -------------------------------------------------------------

    def __call__(self, s: LaurentSeries) -> LaurentSeries:
        if s.tower is not self.tower or s.j != self.j:
            raise ValueError("series lives over a different field")
        twisted = frobenius_coeffwise(s, self.e) if self.e else s
        if self.is_torus_trivial():
            return twisted.truncate(min(twisted.prec, self.prec))
        return substitute(twisted, self.image_of_T)

    def is_torus_trivial(self) -> bool:
        img = self.image_of_T
        return img.val == 1 and len(img.logs) == 1 and img.logs[0] == 0

    def __eq__(self, other):
        if not isinstance(other, LocalFieldAuto):
            return NotImplemented
        return (self.tower is other.tower and self.j == other.j
                and self.e == other.e and self.image_of_T == other.image_of_T)

    __hash__ = None

    def __repr__(self):
        return f"e={self.e}; T -> {self.image_of_T!r}"


def compose_auto(alpha: LocalFieldAuto, beta: LocalFieldAuto) -> LocalFieldAuto:
    """(alpha o beta)(s) = alpha(beta(s))."""
    if alpha.tower is not beta.tower or alpha.j != beta.j:
        raise ValueError("automorphisms live over different fields")
    img = alpha(beta.image_of_T)
    return LocalFieldAuto(alpha.tower, alpha.j, alpha.e + beta.e, img)


def invert_auto(alpha: LocalFieldAuto) -> LocalFieldAuto:
    """Inverse via series reversion of the T-image."""
    rev = reversion(alpha.image_of_T)
    img = frobenius_coeffwise(rev, -alpha.e) if alpha.e else rev
    return LocalFieldAuto(alpha.tower, alpha.j, -alpha.e, img)


def decompose_auto(alpha: LocalFieldAuto):
    """Write alpha = jpart o ev(c*T) o F^e.

    jpart fixes the residue field and moves T to T + (higher order), c is
    the leading coefficient of the T-image, e the residue Frobenius
    power.  Recomposition in this order reproduces alpha.
    """
    img = alpha.image_of_T
    c = img.leading()
    jimg = img.scale(c.inverse())
    jpart = LocalFieldAuto(alpha.tower, alpha.j, 0, jimg)
    return jpart, c, alpha.e


def extend_auto(alpha: LocalFieldAuto, new_j: int) -> LocalFieldAuto:
    """Extend to the unramified extension F_{p^new_j}((T)), j | new_j.

    The inertia and torus parts keep their T-image and act trivially on
    the larger residue field; the Frobenius part extends as the same
    power of the global Frobenius (now reduced mod new_j).
    """
    if new_j % alpha.j != 0:
        raise ValueError("target degree must be a multiple of the source degree")
    img = alpha.image_of_T.with_subfield(new_j)
    return LocalFieldAuto(alpha.tower, new_j, alpha.e, img)


def restrict_auto(alpha: LocalFieldAuto, small_j: int) -> LocalFieldAuto:
    """Restriction to F_{p^small_j}((T)); the T-image must descend."""
    if alpha.j % small_j != 0:
        raise ValueError("restriction target must divide the source degree")
    img = alpha.image_of_T.with_subfield(small_j)
    return LocalFieldAuto(alpha.tower, small_j, alpha.e % small_j, img)
