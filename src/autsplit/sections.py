"""Explicit splitting sections for the semilinear automorphisms of SL_n(D).

With D the unramified degree-d cyclic algebra with invariant r/d over
K = F_{p^i}((T)), the automorphism group of K decomposes as

    (J(K) x| (C_a x C_b)) x| (C_a' x C_b'),

where J(K) is the inertia part (T -> T + higher), C_a and C_b split the
residue torus F_{p^i}^x by the d-part b of p^i - 1, and C_a', C_b' split
the residue Galois group C_i by the d-part b' of i.  This module builds
one section of Aut(SL_n(D) -> Spec K) -> Aut(K) per factor, glues them,
and verifies every identity the construction promises: partial-section
orders, the nine pairwise commutation relations, the homomorphism law of
the glued map, and the section property.

The C_b factor embeds F_{p^(idb)} into M_b(F_{p^(id)}) by the regular
representation over a chosen basis.  The basis is drawn from the subfield
F_{p^h} with h = gcd(id*s + ci + b', idb) and lcm(h, id) = idb whenever
such an s exists: for such a basis the entrywise Frobenius of an embedded
element is again embedded (twisted by a Galois power and a central
scalar), which is exactly what the Frobenius commutation relations need.
The basis is the powers eta^k of a generator eta of that subfield, and the
coordinates of x over F_{p^(id)} are the traces Tr(x * w_k) down to
F_{p^(id)} against the trace-dual basis w_k = q_k / f'(eta), where f is
the minimal polynomial of eta and f(X)/(X - eta) = sum q_k X^k.
Equality of automorphisms is always decided by action on a generator set,
never by comparing representations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import wraps
from math import gcd, lcm

from .autk import (LocalFieldAuto, compose_auto, decompose_auto, extend_auto,
                   invert_auto, restrict_auto)
from .brauer import d_part, non_split_witness, splits_globally_charp
from .cyclic import (AdmissibilityFailure, AlgebraMatrix, CyclicAlgebra,
                     SemilinearAuto, acts_like, acts_trivially,
                     compose_semilinear, generator_matrices)
from .gftower import (MAX_FIELD_SIZE, FFElement, NotInSubfield, Overflow,
                      build_tower, exceeds_table_limit, frobenius,
                      hilbert90_solve, relative_trace, subfield_generator)
from .series import LaurentSeries, PrecisionExhausted, hensel_root


class DecompositionFailure(RuntimeError):
    """An automorphism failed to factor along the fixed decomposition."""


class SectionContext:
    """All data the five partial sections share.

    Standing hypotheses (checked): gcd(d, p) = gcd(d, r) = 1 and b*b'
    divides n, which is what splitting over every Galois subfield of K
    requires.

    The sections of the four finite factors are built once per context
    and kept, keyed by (kind, j) (see ``_memoised``), so a context is not
    mutated after its first section.  A variant is a copy: ``copy.copy``
    and ``_with_witness`` start with an empty memo, so attributes set on
    the copy before its first section are what its sections read.  No
    generators are kept: ``generators()`` builds them on each call, and
    the verifier calls it once.
    """

    def __init__(self, p: int, i: int, d: int, r: int, n: int, prec: int):
        if gcd(d, p) != 1:
            raise ValueError("gcd(d, p) must be 1")
        if gcd(d, r) != 1:
            raise ValueError("gcd(d, r) must be 1 (division algebra input)")
        self.p, self.i, self.d, self.r, self.n, self.prec = p, i, d, r, n, prec
        # the tower contains F_{p^i}: refuse it before p^i - 1 is split
        if exceeds_table_limit(p, i):
            raise Overflow(f"p^i = {p}^{i} exceeds the table limit "
                           f"{MAX_FIELD_SIZE}")
        self.a, self.b = d_part(p ** i - 1, d)
        self.a2, self.b2 = d_part(i, d)
        if not splits_globally_charp(n, d, p, i):
            raise ValueError(
                "no global section exists: witness subfield degree "
                f"{non_split_witness(n, d, p, i)}")
        if n % (self.b * self.b2) != 0:
            raise ValueError(f"b*b' = {self.b * self.b2} must divide n = {n}")
        # c with c*a' + 1 = 0 mod d exists because gcd(a', d) = 1
        self.c = (-pow(self.a2, -1, d)) % d if d > 1 else 0
        self.tower = build_tower(p, i, d, self.b)
        self.jE = i * d
        self.zeta = subfield_generator(self.tower, i)
        self.algebra = CyclicAlgebra(self.tower, i, d, r, prec)
        self._init_z()
        self._init_embedding()
        self._sections = {}

    def __copy__(self) -> SectionContext:
        alt = object.__new__(SectionContext)
        alt.__dict__.update(self.__dict__)
        alt._sections = {}
        return alt

    # -- derived data ---------------------------------------------------

    def _init_z(self):
        # unique z in <zeta^b> with z^(db') = zeta^(br)
        a, b, b2, d, r = self.a, self.b, self.b2, self.d, self.r
        if a == 1:
            self.z = self.tower.one()
        else:
            t = (self.r * pow(d * b2 % a, -1, a)) % a
            self.z = self.zeta ** (b * t)

    def _init_embedding(self):
        """Hilbert-90 witness y and the embedding F_{p^(idb)} -> M_b(F_{p^(id)})."""
        t = self.tower
        i, d, b, r, a = self.i, self.d, self.b, self.r, self.a
        id_ = i * d
        if b == 1:
            # F^{id}(y)/y = zeta^{ar}; for b = 1 the equation forces
            # zeta^{ar} = 1 and y = 1 works
            if (self.zeta ** (a * r)).log != 0:
                raise DecompositionFailure("b = 1 but zeta^(ar) != 1")
            self.y = eta = t.one()
            self.basis_field_degree = id_
        else:
            self.y = hilbert90_solve(self.zeta ** (a * r), id_, b)
            self.basis_field_degree = self._basis_degree()
            eta = subfield_generator(t, self.basis_field_degree)
        self.basis = tuple(eta ** k for k in range(b))
        self.dual_basis = _trace_dual_basis(eta, id_, b)
        self.x_hat = frobenius(self.y, i) / self.y

    def _basis_degree(self) -> int:
        # smallest s with h = gcd(id*s + ci + b', idb) satisfying
        # lcm(h, id) = idb; the ambient degree is the (reported) fallback
        id_, b = self.i * self.d, self.b
        M = id_ * b
        e = self.c * self.i + self.b2
        for s in range(b):
            h = gcd(id_ * s + e, M)
            if lcm(h, id_) == M:
                return h
        return M

    def coordinates(self, x: FFElement) -> list[FFElement]:
        """Coordinates of x over F_{p^(id)} with respect to the basis:
        c_k = Tr(x * w_k) over the trace-dual basis w_k."""
        return [relative_trace(x * w, self.i * self.d, self.b)
                for w in self.dual_basis]

    def phi(self, x: FFElement) -> list[list[FFElement]]:
        """Regular representation of multiplication by x on the basis."""
        return [list(col) for col in
                zip(*(self.coordinates(x * v) for v in self.basis))]

    # -- matrix builders --------------------------------------------------

    def _repeat(self, rows: list[dict], copies: int) -> AlgebraMatrix:
        """diag(B, ..., B), copies times the block B with these row dicts;
        the entries are shared, not copied."""
        size = len(rows)
        return AlgebraMatrix(self.algebra, [
            {cp * size + t_: e for t_, e in row.items()}
            for cp in range(copies) for row in rows])

    def const_matrix(self, blocks: list[list[FFElement]], copies: int) -> AlgebraMatrix:
        """diag(B, ..., B) as an algebra matrix of constant scalars."""
        alg = self.algebra
        scalars = {c.log: alg.scalar(LaurentSeries.constant(c, self.jE, self.prec))
                   for row in blocks for c in row if c}
        return self._repeat([{t_: scalars[c.log] for t_, c in enumerate(row) if c}
                             for row in blocks], copies)

    def staircase_matrix(self, power) -> AlgebraMatrix:
        """diag over n/(b*b') copies of diag(v_0 Id_b, ..., v_{b'-1} Id_b),
        v_k the scalar power(k)."""
        values = [self.algebra.scalar(power(k)) for k in range(self.b2)]
        rows = [{k: v} for k, v in
                enumerate(x for x in values for _ in range(self.b))]
        return self._repeat(rows, self.n // (self.b * self.b2))

    def matrix_w(self) -> AlgebraMatrix:
        """Block-cyclic matrix with sub-diagonal Id_b and top-right u*Id_b."""
        alg = self.algebra
        b, b2 = self.b, self.b2
        m = b * b2
        rows = [{(b2 - 1) * b + t_: alg.u()} for t_ in range(b)]
        rows += [{k - b: alg.one()} for k in range(b, m)]
        return self._repeat(rows, self.n // m)

    def generators(self):
        return generator_matrices(self.algebra, self.n)

    def descriptor(self) -> dict:
        return {"p": self.p, "i": self.i, "d": self.d, "r": self.r,
                "n": self.n, "prec": self.prec, "a": self.a, "b": self.b,
                "a_prime": self.a2, "b_prime": self.b2,
                "embedding_subfield_degree": self.basis_field_degree}


def _trace_dual_basis(eta: FFElement, j: int, b: int) -> list[FFElement]:
    """The w_k with Tr(eta^l * w_k) = [l = k], the trace taken from
    F_{p^(jb)} to F_{p^j} and eta of degree b over F_{p^j}.

    With f the minimal polynomial of eta over F_{p^j} and f(X)/(X - eta)
    = sum q_k X^k, w_k = q_k / f'(eta) (Euler's lemma).  The quotient is
    the product of X - eta^(p^(jm)) over the other conjugates, 0 < m < b,
    and f'(eta) is its value at eta."""
    t = eta.tower
    q = [t.one()]                       # coefficients, lowest degree first
    for m in range(1, b):
        root = frobenius(eta, j * m)
        q = [lo - root * hi for lo, hi in zip([t.zero()] + q, q + [t.zero()])]
    f_prime = t.zero()
    for c in reversed(q):
        f_prime = f_prime * eta + c
    return [c / f_prime for c in q]


# ----------------------------------------------------------------------
# Partial sections
# ----------------------------------------------------------------------

def _memoised(build):
    """build(ctx, j), made once per context and j: the verifier asks for
    the same few partial sections hundreds of times, and each build pays
    the admissibility check again."""
    kind = build.__name__

    @wraps(build)
    def section(ctx: SectionContext, j: int) -> SemilinearAuto:
        key = (kind, j)
        f = ctx._sections.get(key)
        if f is None:
            f = ctx._sections[key] = build(ctx, j)
        return f
    return section


def _section(ctx: SectionContext, alphaE: LocalFieldAuto,
             twist: LaurentSeries, inner=None) -> SemilinearAuto:
    """The partial section over alphaE with this twist: inner(1) is its
    inner part and inner(-1) that part's inverse; None is the identity."""
    if inner is None:
        return SemilinearAuto(ctx.algebra, ctx.n, None, alphaE, twist)
    return SemilinearAuto(ctx.algebra, ctx.n, inner(1), alphaE, twist,
                          inner_inv=inner(-1))


def section_J(ctx: SectionContext, alpha: LocalFieldAuto) -> SemilinearAuto:
    """Section on the inertia group J(K).

    x_alpha is the unique (db')-th root of alpha(T^r)/T^r congruent to 1,
    the inner part repeats diag(Id_b, x_alpha Id_b, ...) and the twist is
    x_alpha^(b')."""
    if alpha.e % ctx.i != 0 or alpha.image_of_T.leading().log != 0:
        raise ValueError("section_J needs an element of J(K)")
    t = ctx.tower
    ratio = (alpha.image_of_T * LaurentSeries.T_power(t, ctx.i, -1, ctx.prec)) \
        ** ctx.r
    x_alpha = hensel_root(ratio, ctx.d * ctx.b2)
    # for b' = 1 the identity: the staircase x_alpha^0 Id is known only to
    # T^(prec-1)
    inner = None if ctx.b2 == 1 else lambda e: ctx.staircase_matrix(
        lambda k: x_alpha ** (e * k))
    return _section(ctx, extend_auto(alpha, ctx.jE),
                    (x_alpha ** ctx.b2).with_subfield(ctx.jE), inner)


@_memoised
def section_Ca(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_a = <ev(zeta^b T)>: inner diag of z-powers, twist z^(b'j)."""
    alphaE = extend_auto(LocalFieldAuto.ev(ctx.zeta ** (ctx.b * j), ctx.i,
                                           ctx.prec), ctx.jE)
    twist = LaurentSeries.constant(ctx.z ** (ctx.b2 * j), ctx.jE, ctx.prec)
    inner = None if ctx.z.log == 0 else lambda e: ctx.staircase_matrix(
        lambda k: LaurentSeries.constant(ctx.z ** (e * j * k), ctx.jE,
                                         ctx.prec))
    return _section(ctx, alphaE, twist, inner)


@_memoised
def section_Cb(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_b = <ev(zeta^a T)> through the matrix embedding.

    The inner part repeats the embedded image of y^(-j) and the twist is
    (F^i(y)/y)^j, whose unramified norm is zeta^(arj)."""
    alphaE = extend_auto(LocalFieldAuto.ev(ctx.zeta ** (ctx.a * j), ctx.i,
                                           ctx.prec), ctx.jE)
    twist = LaurentSeries.constant(ctx.x_hat ** j, ctx.jE, ctx.prec)
    inner = None if ctx.b == 1 else lambda e: ctx.const_matrix(
        ctx.phi(ctx.y ** (-e * j)), ctx.n // ctx.b)
    return _section(ctx, alphaE, twist, inner)


@_memoised
def section_Caprime(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_a' = <F^(b') restricted to K>: F^(b'j) extends to E as
    F^(j(ci + b')) with trivial twist; c*a' + 1 = 0 mod d makes the a'-th
    power act trivially."""
    alphaE = LocalFieldAuto.frobenius_power(
        ctx.tower, ctx.jE, j * (ctx.c * ctx.i + ctx.b2), ctx.prec)
    return _section(ctx, alphaE, LaurentSeries.one(ctx.tower, ctx.jE,
                                                   ctx.prec))


@_memoised
def section_Cbprime(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_b' = <F^(a') restricted to K>: conjugation by the
    block-cyclic matrix W (whose b'-th power is u*Id) over F^(a'j).

    The formula is used unreduced: the b'-th power composite
    intaut(u*Id) phi~(F^i, 1) is the trivial automorphism, which the
    order check verifies rather than assumes."""
    alg = ctx.algebra
    alphaE = LocalFieldAuto.frobenius_power(ctx.tower, ctx.jE, ctx.a2 * j,
                                            ctx.prec)
    W = ctx.matrix_w()
    u_inv_mat = AlgebraMatrix.scalar_matrix(alg.u_power(-1), ctx.n)
    W_inv = (W ** (ctx.b2 - 1)) * u_inv_mat if ctx.b2 > 1 else u_inv_mat
    # W^j = W^k (u Id)^extra and W^-j = (u Id)^-extra W^-k, j = b'*extra
    # + k: the u-power stays explicit, so negative and large j stay cheap
    # and exact
    extra, k = divmod(j, ctx.b2)

    def inner(e):
        Wk = (W if e == 1 else W_inv) ** k
        if not extra:
            return Wk
        u = AlgebraMatrix.scalar_matrix(alg.u_power(e * extra), ctx.n)
        return Wk * u if e == 1 else u * Wk
    return _section(ctx, alphaE, LaurentSeries.one(ctx.tower, ctx.jE,
                                                   ctx.prec), inner)


def glue_section(ctx: SectionContext, alpha: LocalFieldAuto) -> SemilinearAuto:
    """The glued section f_J(g1) f_Ca(g2) f_Cb(g3) f_Ca'(g4) f_Cb'(g5):
    the torus scalar zeta^m, m = b*g2 + a*g3, and the Frobenius power e =
    b'*g4 + a'*g5 split by the Chinese remainder theorem."""
    jpart, scalar, e = decompose_auto(alpha)
    step = (ctx.tower.q - 1) // (ctx.p ** ctx.i - 1)
    if scalar.log % step != 0:
        raise DecompositionFailure("torus scalar outside F_{p^i}")
    j2, j3 = _crt_split(scalar.log // step, ctx.a, ctx.b)
    j4, j5 = _crt_split(e, ctx.a2, ctx.b2)
    f = section_J(ctx, jpart)
    f = compose_semilinear(f, section_Ca(ctx, j2))
    f = compose_semilinear(f, section_Cb(ctx, j3))
    f = compose_semilinear(f, section_Caprime(ctx, j4))
    f = compose_semilinear(f, section_Cbprime(ctx, j5))
    return f


def _crt_split(m: int, a: int, b: int) -> tuple[int, int]:
    """(j, k) with b*j + a*k = m mod a*b, 0 <= j < a and 0 <= k < b, for
    coprime a and b."""
    j = m * pow(b, -1, a) % a if a > 1 else 0
    k = m * pow(a, -1, b) % b if b > 1 else 0
    if (b * j + a * k - m) % (a * b) != 0:
        raise DecompositionFailure("CRT split failed")
    return j, k


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

# raised while the sides of a check are built or compared, these fail that
# check instead of ending the verification
CONSTRUCTION_FAILURES = (AdmissibilityFailure, DecompositionFailure,
                         NotInSubfield, PrecisionExhausted)


@dataclass
class CheckResult:
    """The verdict of one check over its trials; a trial that raises one of
    CONSTRUCTION_FAILURES fails, and the first such exception is kept.  The
    detail is the note, then that exception."""
    name: str
    note: str = ""
    passed: bool = True
    error: str = ""

    def holds(self, trial):
        try:
            self.passed &= bool(trial())
        except CONSTRUCTION_FAILURES as exc:
            self.fails(exc)

    def fails(self, exc: Exception):
        self.passed = False
        self.error = self.error or f"{type(exc).__name__}: {exc}"

    @property
    def detail(self) -> str:
        return "; ".join(filter(None, (self.note, self.error)))

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    context: dict
    checks: list[CheckResult] = field(default_factory=list)

    def check(self, name: str, trials=(), note: str = "") -> CheckResult:
        """Append the check called name and run its trials."""
        result = CheckResult(name, note)
        self.checks.append(result)
        for trial in trials:
            result.holds(trial)
        return result

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail else ""
            yield f"{status}  {c.name}{suffix}"


def _random_image(ctx: SectionContext, rng: random.Random,
                  lead: FFElement) -> LaurentSeries:
    """T -> lead*T + sum a_k T^k for 1 < k < prec, each a_k drawn from
    F_{p^i} (zero included)."""
    order = ctx.p ** ctx.i - 1
    pairs = [(1, lead)]
    for k in range(2, ctx.prec):
        c = rng.randrange(order + 1)
        if c:
            pairs.append((k, ctx.zeta ** (c - 1)))
    return LaurentSeries.from_pairs(ctx.tower, ctx.i, pairs, ctx.prec)


def random_j_element(ctx: SectionContext, rng: random.Random) -> LocalFieldAuto:
    """Random inertia automorphism T -> T + sum a_k T^k."""
    img = _random_image(ctx, rng, ctx.tower.one())
    return LocalFieldAuto(ctx.tower, ctx.i, 0, img)


def random_k_auto(ctx: SectionContext, rng: random.Random) -> LocalFieldAuto:
    """Random automorphism: a unit lead coefficient, then a random tail,
    then a residue Frobenius power."""
    lead = ctx.zeta ** rng.randrange(ctx.p ** ctx.i - 1)
    img = _random_image(ctx, rng, lead)
    return LocalFieldAuto(ctx.tower, ctx.i, rng.randrange(ctx.i), img)


def _conj(f, g, f_inv):
    return compose_semilinear(compose_semilinear(f, g), f_inv)


def verify_section(ctx: SectionContext, samples: int,
                   seed: int) -> VerificationReport:
    """Run every verifiable identity of the construction and report.

    A check whose sides cannot be built or compared, because one of
    CONSTRUCTION_FAILURES is raised, fails with the exception in its detail;
    the other checks still run."""
    rng = random.Random(seed)
    rep = VerificationReport(ctx.descriptor())
    gens = ctx.generators()
    alg = ctx.algebra
    eq = lambda f1, f2: acts_like(f1, f2, gens)
    triv = lambda f: acts_trivially(f, gens)

    check = rep.check

    # partial-section orders ------------------------------------------------
    check("z_power_a_is_1", [lambda: (ctx.z ** ctx.a).log == 0], f"a={ctx.a}")
    check("W_power_bprime_is_u_Id",
          [lambda: ctx.matrix_w() ** ctx.b2
           == AlgebraMatrix.scalar_matrix(alg.u(), ctx.n)], f"b'={ctx.b2}")
    check("order_Ca", [lambda: triv(section_Ca(ctx, ctx.a))],
          f"f_Ca(a), a={ctx.a}")
    check("order_Cb", [lambda: triv(section_Cb(ctx, ctx.b))],
          f"f_Cb(b), b={ctx.b}")
    check("order_Caprime", [lambda: triv(section_Caprime(ctx, ctx.a2))],
          f"f_Ca'(a'), a'={ctx.a2}")
    check("order_Cbprime", [lambda: triv(section_Cbprime(ctx, ctx.b2))],
          f"f_Cb'(b'), b'={ctx.b2}")

    # sampled parameters ----------------------------------------------------
    n_pairs = max(2, samples // 6)
    j_samples = lambda order: sorted({1} | {rng.randrange(1, order) for _ in
                                            range(n_pairs)}) if order > 1 else []
    ja = j_samples(ctx.a)
    jb = j_samples(ctx.b)
    ja2 = j_samples(ctx.a2)
    jb2 = j_samples(ctx.b2)
    alphas = [random_j_element(ctx, rng) for _ in range(max(2, samples // 4))]

    # the nine commutation relations: f(j) and g(k) commute; f(j)
    # conjugates g(k) to g(k p^(e j)); f(j) conjugates f_J(alpha) to
    # f_J(kappa alpha kappa^-1) for an explicitly given kappa = kappa(j)
    def commute(f, g):
        def pair(j, k):
            fj, gk = f(ctx, j), g(ctx, k)
            return compose_semilinear(fj, gk), compose_semilinear(gk, fj)
        return pair

    def moves_index(f, g, e):
        return lambda j, k: (_conj(f(ctx, j), g(ctx, k), f(ctx, -j)),
                             g(ctx, k * ctx.p ** (e * j)))

    def moves_alpha(f, kappa):
        def pair(j, alpha):
            kj = kappa(j)
            conj = compose_auto(compose_auto(kj, alpha), invert_auto(kj))
            return (_conj(f(ctx, j), section_J(ctx, alpha), f(ctx, -j)),
                    section_J(ctx, conj))
        return pair

    ev = lambda e: lambda j: LocalFieldAuto.ev(
        ctx.zeta ** (e * j), ctx.i, ctx.prec)
    frob = lambda e: lambda j: LocalFieldAuto.frobenius_power(
        ctx.tower, ctx.i, e * j, ctx.prec)
    relations = [
        ("commutation_1_Ca_Cb", ja, jb, commute(section_Ca, section_Cb)),
        ("commutation_2_Ca_J", ja, alphas, moves_alpha(section_Ca, ev(ctx.b))),
        ("commutation_3_Cb_J", jb, alphas, moves_alpha(section_Cb, ev(ctx.a))),
        ("commutation_4_Caprime_Cbprime", ja2, jb2,
         commute(section_Caprime, section_Cbprime)),
        ("commutation_5_Caprime_Cb", ja2, jb,
         moves_index(section_Caprime, section_Cb, ctx.c * ctx.i + ctx.b2)),
        ("commutation_6_Caprime_J", ja2, alphas,
         moves_alpha(section_Caprime, frob(ctx.b2))),
        ("commutation_7_Cbprime_Cb", jb2, jb,
         moves_index(section_Cbprime, section_Cb, ctx.a2)),
        ("commutation_8_Cbprime_Ca", jb2, ja,
         moves_index(section_Cbprime, section_Ca, ctx.a2)),
        ("commutation_9_Cbprime_J", jb2, alphas,
         moves_alpha(section_Cbprime, frob(ctx.a2))),
    ]
    for name, js, ks, pair in relations:
        check(name, [lambda j=j, k=k, pair=pair: eq(*pair(j, k))
                     for j, k in zip(js, ks)],
              "" if js and ks else "vacuous (trivial factor)")

    # J-section is a homomorphism (cocycle law of the Hensel roots)
    pairs = [(random_j_element(ctx, rng), random_j_element(ctx, rng))
             for _ in range(max(2, samples // 4))]
    check("J_section_homomorphism",
          [lambda al=al, be=be: eq(
              compose_semilinear(section_J(ctx, be), section_J(ctx, al)),
              section_J(ctx, compose_auto(be, al))) for al, be in pairs])

    # glued section: homomorphism law and section property
    note = "" if samples else "vacuous (no samples)"
    hom = check("glue_homomorphism", note=note)
    sec = check("glue_section_property", note=note)
    for _ in range(samples):
        al = random_k_auto(ctx, rng)
        be = random_k_auto(ctx, rng)
        try:
            g_al = glue_section(ctx, al)
        except CONSTRUCTION_FAILURES as exc:
            hom.fails(exc)
            sec.fails(exc)
            continue
        sec.holds(lambda: restrict_auto(g_al.alphaE, ctx.i) == al)
        hom.holds(lambda: eq(compose_semilinear(g_al, glue_section(ctx, be)),
                             glue_section(ctx, compose_auto(al, be))))

    # independence of the Hilbert-90 witness
    if ctx.b > 1:
        y2 = ctx.y * subfield_generator(ctx.tower, ctx.i * ctx.d)
        alt = _with_witness(ctx, y2)
        check("y_independence",
              [lambda j=j: eq(section_Cb(ctx, j), section_Cb(alt, j))
               for j in jb or [1]])
    else:
        check("y_independence", note="vacuous (b = 1)")
    return rep


def _with_witness(ctx: SectionContext, y2: FFElement) -> SectionContext:
    """Shallow variant of ctx using a different Hilbert-90 witness."""
    import copy
    alt = copy.copy(ctx)
    if frobenius(y2, ctx.i * ctx.d) / y2 != frobenius(ctx.y, ctx.i * ctx.d) / ctx.y:
        raise ValueError("not a Hilbert-90 witness for the same datum")
    alt.y = y2
    alt.x_hat = frobenius(y2, ctx.i) / y2
    return alt
