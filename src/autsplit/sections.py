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
Equality of automorphisms is always decided by action on a generator set,
never by comparing representations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .autk import (LocalFieldAuto, compose_auto, decompose_auto, extend_auto,
                   invert_auto, restrict_auto)
from .brauer import d_part, non_split_witness, splits_globally_charp
from .cyclic import (AlgebraMatrix, CyclicAlgebra, SemilinearAuto, acts_like,
                     acts_trivially, compose_semilinear, generator_matrices)
from .gftower import (FFElement, build_tower, frobenius, hilbert90_solve,
                      subfield_generator)
from .series import LaurentSeries, hensel_root


class DecompositionFailure(RuntimeError):
    """An automorphism failed to factor along the fixed decomposition."""


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class SectionContext:
    """All data the five partial sections share.

    Standing hypotheses (checked): gcd(d, p) = gcd(d, r) = 1 and b*b'
    divides n, which is what splitting over every Galois subfield of K
    requires.
    """

    def __init__(self, p: int, i: int, d: int, r: int, n: int, prec: int = 32):
        if gcd(d, p) != 1:
            raise ValueError("gcd(d, p) must be 1")
        if gcd(d, r) != 1:
            raise ValueError("gcd(d, r) must be 1 (division algebra input)")
        self.p, self.i, self.d, self.r, self.n, self.prec = p, i, d, r, n, prec
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
        self._gens = None

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
            self.y = t.one()
            self.basis = (t.one(),)
            self.basis_field_degree = id_
        else:
            self.y = hilbert90_solve(self.zeta ** (a * r), id_, b)
            self.basis_field_degree = self._basis_degree()
            eta = subfield_generator(t, self.basis_field_degree)
            self.basis = tuple(eta ** k for k in range(b))
        self.x_hat = frobenius(self.y, i) / self.y
        self._init_coordinate_solver()

    def _basis_degree(self) -> int:
        # smallest s with h = gcd(id*s + ci + b', idb) satisfying
        # lcm(h, id) = idb; the ambient degree is the (reported) fallback
        id_, b = self.i * self.d, self.b
        M = id_ * b
        e = self.c * self.i + self.b2
        for s in range(b):
            h = gcd(id_ * s + e, M)
            if _lcm(h, id_) == M:
                return h
        return M

    def _init_coordinate_solver(self):
        """Invert the F_p-matrix taking (c_{jt}) to sum_j (sum_t c_jt eta^t) v_j."""
        t = self.tower
        p, M, b = self.p, t.M, self.b
        id_ = self.i * self.d
        eta_id = subfield_generator(t, id_)
        cols = []
        self._id_basis = tuple(eta_id ** k for k in range(id_))
        for v in self.basis:
            for w in self._id_basis:
                cols.append((v * w).coeffs)
        # rows indexed by ambient coordinates, columns by (j, t)
        mat = [[cols[cidx][ridx] for cidx in range(M)] for ridx in range(M)]
        self._coord_inv = _fp_inverse(mat, p)

    def coordinates(self, x: FFElement) -> list[FFElement]:
        """Coordinates of x over F_{p^(id)} with respect to the basis."""
        t = self.tower
        vec = x.coeffs
        sol = [sum(self._coord_inv[rr][cc] * vec[cc] for cc in range(t.M)) % self.p
               for rr in range(t.M)]
        id_ = self.i * self.d
        out = []
        for j in range(self.b):
            acc = t.zero()
            for k in range(id_):
                digit = sol[j * id_ + k]
                if digit:
                    acc = acc + self._id_basis[k] * t.from_int(digit)
            out.append(acc)
        return out

    def phi(self, x: FFElement) -> list[list[FFElement]]:
        """Regular representation of multiplication by x on the basis."""
        return [list(col) for col in
                zip(*(self.coordinates(x * v) for v in self.basis))]

    # -- matrix builders --------------------------------------------------

    def const_matrix(self, blocks: list[list[FFElement]], copies: int) -> AlgebraMatrix:
        """diag(B, ..., B) as an algebra matrix of constant scalars."""
        alg = self.algebra
        scalars = {c.log: alg.scalar(LaurentSeries.constant(c, self.jE, self.prec))
                   for row in blocks for c in row if c}
        block_rows = [{t_: scalars[c.log] for t_, c in enumerate(row) if c}
                      for row in blocks]
        bsz = len(blocks)
        return AlgebraMatrix(alg, [
            {cp * bsz + t_: e for t_, e in row.items()}
            for cp in range(copies) for row in block_rows])

    def staircase_matrix(self, values: list) -> AlgebraMatrix:
        """diag over n/(b*b') copies of diag(v_0 Id_b, ..., v_{b'-1} Id_b)."""
        entries = []
        for v in values:
            entries.extend([v] * self.b)
        entries = entries * (self.n // (self.b * self.b2))
        return AlgebraMatrix(self.algebra,
                             [{k: v} for k, v in enumerate(entries)])

    def matrix_w(self) -> AlgebraMatrix:
        """Block-cyclic matrix with sub-diagonal Id_b and top-right u*Id_b."""
        alg = self.algebra
        b, b2 = self.b, self.b2
        one, uu = alg.one(), alg.u()
        m = b * b2
        rows = [{(b2 - 1) * b + t_: uu} for t_ in range(b)]
        rows += [{k - b: one} for k in range(b, m)]
        w = AlgebraMatrix(alg, rows)
        if self.n == m:
            return w
        return AlgebraMatrix.block_diagonal([w] * (self.n // m))

    def generators(self):
        if self._gens is None:
            self._gens = generator_matrices(self.algebra, self.n)
        return self._gens

    def descriptor(self) -> dict:
        return {"p": self.p, "i": self.i, "d": self.d, "r": self.r,
                "n": self.n, "prec": self.prec, "a": self.a, "b": self.b,
                "a_prime": self.a2, "b_prime": self.b2,
                "embedding_subfield_degree": self.basis_field_degree}


def _fp_inverse(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    work = [row[:] + [1 if rr == cc else 0 for cc in range(n)]
            for rr, row in enumerate(mat)]
    for k in range(n):
        piv = next((m for m in range(k, n) if work[m][k] % p), None)
        if piv is None:
            raise ValueError("basis matrix is singular")
        work[k], work[piv] = work[piv], work[k]
        inv = pow(work[k][k], -1, p)
        work[k] = [v * inv % p for v in work[k]]
        for m in range(n):
            if m != k and work[m][k]:
                f = work[m][k]
                work[m] = [(work[m][cc] - f * work[k][cc]) % p
                           for cc in range(2 * n)]
    return [row[n:] for row in work]


# ----------------------------------------------------------------------
# Partial sections
# ----------------------------------------------------------------------

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
    alg = ctx.algebra
    alphaE = extend_auto(alpha, ctx.jE)
    twist = (x_alpha ** ctx.b2).with_subfield(ctx.jE)
    if ctx.b2 == 1:
        return SemilinearAuto(alg, ctx.n, None, alphaE, twist)
    xs = [alg.scalar((x_alpha ** k).with_subfield(ctx.jE))
          for k in range(ctx.b2)]
    xs_inv = [alg.scalar((x_alpha ** (-k)).with_subfield(ctx.jE))
              for k in range(ctx.b2)]
    X = ctx.staircase_matrix(xs)
    X_inv = ctx.staircase_matrix(xs_inv)
    return SemilinearAuto(alg, ctx.n, X, alphaE, twist, inner_inv=X_inv)


def section_Ca(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_a = <ev(zeta^b T)>: inner diag of z-powers, twist z^(b'j)."""
    alg, t = ctx.algebra, ctx.tower
    scalar = ctx.zeta ** (ctx.b * j)
    alphaE = extend_auto(LocalFieldAuto.ev(scalar, ctx.i, ctx.prec), ctx.jE) \
        if scalar.log != 0 else LocalFieldAuto.identity(t, ctx.jE, ctx.prec)
    twist = LaurentSeries.constant(ctx.z ** (ctx.b2 * j), ctx.jE, ctx.prec)
    if ctx.z.log == 0:
        return SemilinearAuto(alg, ctx.n, None, alphaE, twist)
    zs = [alg.scalar(LaurentSeries.constant(ctx.z ** (k * j), ctx.jE, ctx.prec))
          for k in range(ctx.b2)]
    zs_inv = [alg.scalar(LaurentSeries.constant(ctx.z ** (-k * j), ctx.jE,
                                                ctx.prec))
              for k in range(ctx.b2)]
    return SemilinearAuto(alg, ctx.n, ctx.staircase_matrix(zs), alphaE, twist,
                          inner_inv=ctx.staircase_matrix(zs_inv))


def section_Cb(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_b = <ev(zeta^a T)> through the matrix embedding.

    The inner part repeats the embedded image of y^(-j) and the twist is
    (F^i(y)/y)^j, whose unramified norm is zeta^(arj)."""
    alg, t = ctx.algebra, ctx.tower
    scalar = ctx.zeta ** (ctx.a * j)
    alphaE = extend_auto(LocalFieldAuto.ev(scalar, ctx.i, ctx.prec), ctx.jE) \
        if scalar.log != 0 else LocalFieldAuto.identity(t, ctx.jE, ctx.prec)
    twist = LaurentSeries.constant(ctx.x_hat ** j, ctx.jE, ctx.prec)
    if ctx.b == 1:
        return SemilinearAuto(alg, ctx.n, None, alphaE, twist)
    blocks = ctx.phi(ctx.y ** (-j))
    blocks_inv = ctx.phi(ctx.y ** j)
    Y = ctx.const_matrix(blocks, ctx.n // ctx.b)
    Y_inv = ctx.const_matrix(blocks_inv, ctx.n // ctx.b)
    return SemilinearAuto(alg, ctx.n, Y, alphaE, twist, inner_inv=Y_inv)


def section_Caprime(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_a' = <F^(b') restricted to K>: F^(b'j) extends to E as
    F^(j(ci + b')) with trivial twist; c*a' + 1 = 0 mod d makes the a'-th
    power act trivially."""
    alg, t = ctx.algebra, ctx.tower
    e = j * (ctx.c * ctx.i + ctx.b2)
    alphaE = LocalFieldAuto.frobenius_power(t, ctx.jE, e, ctx.prec)
    one = LaurentSeries.one(t, ctx.jE, ctx.prec)
    return SemilinearAuto(alg, ctx.n, None, alphaE, one)


def section_Cbprime(ctx: SectionContext, j: int) -> SemilinearAuto:
    """Section on C_b' = <F^(a') restricted to K>: conjugation by the
    block-cyclic matrix W (whose b'-th power is u*Id) over F^(a'j).

    The formula is used unreduced: the b'-th power composite
    intaut(u*Id) phi~(F^i, 1) is the trivial automorphism, which the
    order check verifies rather than assumes."""
    alg, t = ctx.algebra, ctx.tower
    alphaE = LocalFieldAuto.frobenius_power(t, ctx.jE, ctx.a2 * j, ctx.prec)
    one = LaurentSeries.one(t, ctx.jE, ctx.prec)
    W = ctx.matrix_w()
    u_inv_mat = AlgebraMatrix.scalar_matrix(alg.u().inverse(), ctx.n)
    W_inv = (W ** (ctx.b2 - 1)) * u_inv_mat if ctx.b2 > 1 else u_inv_mat
    k = j % ctx.b2 if ctx.b2 > 0 else 0
    extra = (j - k) // ctx.b2
    # W^j = (u Id)^extra W^k; keep the u-power explicit so negative j and
    # large j stay cheap and exact
    u_pow = AlgebraMatrix.scalar_matrix(alg.u() ** extra, ctx.n) if extra \
        else None
    Wj = W ** k
    Wj_inv = W_inv ** k
    if u_pow is not None:
        u_pow_inv = AlgebraMatrix.scalar_matrix(alg.u() ** (-extra), ctx.n)
        Wj = Wj * u_pow
        Wj_inv = u_pow_inv * Wj_inv
    return SemilinearAuto(alg, ctx.n, Wj, alphaE, one, inner_inv=Wj_inv)


def glue_section(ctx: SectionContext, alpha: LocalFieldAuto) -> SemilinearAuto:
    """The glued section f_J(g1) f_Ca(g2) f_Cb(g3) f_Ca'(g4) f_Cb'(g5)."""
    jpart, scalar, e = decompose_auto(alpha)
    j2, j3 = _split_torus(ctx, scalar)
    j4, j5 = _split_frobenius(ctx, e)
    f = section_J(ctx, jpart)
    f = compose_semilinear(f, section_Ca(ctx, j2))
    f = compose_semilinear(f, section_Cb(ctx, j3))
    f = compose_semilinear(f, section_Caprime(ctx, j4))
    f = compose_semilinear(f, section_Cbprime(ctx, j5))
    return f


def _split_torus(ctx: SectionContext, scalar: FFElement) -> tuple[int, int]:
    """Write scalar = zeta^(b*j2) * zeta^(a*j3) in C_a x C_b."""
    order = ctx.p ** ctx.i - 1
    if order == 1:
        return 0, 0
    step = (ctx.tower.q - 1) // order
    if scalar.log % step != 0:
        raise DecompositionFailure("torus scalar outside F_{p^i}")
    m = scalar.log // step % order
    a, b = ctx.a, ctx.b
    j2 = m * pow(b, -1, a) % a if a > 1 else 0
    j3 = m * pow(a, -1, b) % b if b > 1 else 0
    if (b * j2 + a * j3 - m) % order != 0:
        raise DecompositionFailure("torus CRT split failed")
    return j2, j3


def _split_frobenius(ctx: SectionContext, e: int) -> tuple[int, int]:
    """Write F^e = F^(b'*j4) o F^(a'*j5) in C_a' x C_b'."""
    a2, b2, i = ctx.a2, ctx.b2, ctx.i
    j4 = e * pow(b2, -1, a2) % a2 if a2 > 1 else 0
    j5 = e * pow(a2, -1, b2) % b2 if b2 > 1 else 0
    if (b2 * j4 + a2 * j5 - e) % i != 0:
        raise DecompositionFailure("Frobenius CRT split failed")
    return j4, j5


def underlying_k_auto(f: SemilinearAuto, ctx: SectionContext) -> LocalFieldAuto:
    """Restriction of the underlying field automorphism to K."""
    return restrict_auto(f.alphaE, ctx.i)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    context: dict
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail else ""
            yield f"{status}  {c.name}{suffix}"


def _random_field_elt(ctx, rng, degree):
    order = ctx.p ** degree - 1
    k = rng.randrange(order + 1)
    if k == 0:
        return ctx.tower.zero()
    return subfield_generator(ctx.tower, degree) ** (k - 1)


def _random_unit(ctx, rng, degree):
    order = ctx.p ** degree - 1
    return subfield_generator(ctx.tower, degree) ** rng.randrange(order)


def random_j_element(ctx: SectionContext, rng: random.Random,
                     depth: int | None = None) -> LocalFieldAuto:
    """Random inertia automorphism T -> T + sum a_k T^k."""
    t = ctx.tower
    depth = depth if depth is not None else ctx.prec
    pairs = [(1, t.one())]
    for k in range(2, depth):
        c = _random_field_elt(ctx, rng, ctx.i)
        if c:
            pairs.append((k, c))
    img = LaurentSeries.from_pairs(t, ctx.i, pairs, ctx.prec)
    return LocalFieldAuto(t, ctx.i, 0, img)


def random_k_auto(ctx: SectionContext, rng: random.Random) -> LocalFieldAuto:
    t = ctx.tower
    pairs = [(1, _random_unit(ctx, rng, ctx.i))]
    for k in range(2, ctx.prec):
        c = _random_field_elt(ctx, rng, ctx.i)
        if c:
            pairs.append((k, c))
    img = LaurentSeries.from_pairs(t, ctx.i, pairs, ctx.prec)
    return LocalFieldAuto(t, ctx.i, rng.randrange(ctx.i), img)


def _conj(f, g, f_inv):
    return compose_semilinear(compose_semilinear(f, g), f_inv)


def _ev_k(ctx, scalar):
    return LocalFieldAuto.ev(scalar, ctx.i, ctx.prec) if scalar.log != 0 \
        else LocalFieldAuto.identity(ctx.tower, ctx.i, ctx.prec)


def verify_section(ctx: SectionContext, samples: int = 20,
                   seed: int = 0) -> VerificationReport:
    """Run every verifiable identity of the construction and report."""
    rng = random.Random(seed)
    rep = VerificationReport(ctx.descriptor())
    gens = ctx.generators()
    alg = ctx.algebra
    eq = lambda f1, f2: acts_like(f1, f2, gens)
    triv = lambda f: acts_trivially(f, gens)

    # partial-section orders ------------------------------------------------
    rep.add("z_power_a_is_1", (ctx.z ** ctx.a).log == 0, f"a={ctx.a}")
    W = ctx.matrix_w()
    u_scalar = AlgebraMatrix.scalar_matrix(alg.u(), ctx.n)
    rep.add("W_power_bprime_is_u_Id", W ** ctx.b2 == u_scalar,
            f"b'={ctx.b2}")
    rep.add("order_Ca", triv(section_Ca(ctx, ctx.a)), f"f_Ca(a), a={ctx.a}")
    rep.add("order_Cb", triv(section_Cb(ctx, ctx.b)), f"f_Cb(b), b={ctx.b}")
    rep.add("order_Caprime", triv(section_Caprime(ctx, ctx.a2)),
            f"f_Ca'(a'), a'={ctx.a2}")
    rep.add("order_Cbprime", triv(section_Cbprime(ctx, ctx.b2)),
            f"f_Cb'(b'), b'={ctx.b2}")

    # sampled parameters ----------------------------------------------------
    n_pairs = max(2, samples // 6)
    j_samples = lambda order: sorted({1 % max(order, 1)} |
                                     {rng.randrange(1, order) for _ in
                                      range(n_pairs)} - {0}) if order > 1 else []
    ja = j_samples(ctx.a)
    jb = j_samples(ctx.b)
    ja2 = j_samples(ctx.a2)
    jb2 = j_samples(ctx.b2)
    alphas = [random_j_element(ctx, rng) for _ in range(max(2, samples // 4))]

    # the nine commutation relations: f(j) and g(k) commute; f(j)
    # conjugates g(k) to g(k p^(e j)); f(j) conjugates f_J(alpha) to
    # f_J(kappa alpha kappa^-1) for an explicitly given kappa = kappa(j)
    def commute(f, g):
        return lambda j, k: (compose_semilinear(f(ctx, j), g(ctx, k)),
                             compose_semilinear(g(ctx, k), f(ctx, j)))

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

    ev = lambda e: lambda j: _ev_k(ctx, ctx.zeta ** (e * j))
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
        ok = True
        for j, k in zip(js, ks):
            ok &= eq(*pair(j, k))
        rep.add(name, ok, "" if js and ks else "vacuous (trivial factor)")

    # J-section is a homomorphism (cocycle law of the Hensel roots)
    ok = True
    for _ in range(max(2, samples // 4)):
        al, be = random_j_element(ctx, rng), random_j_element(ctx, rng)
        lhs = compose_semilinear(section_J(ctx, be), section_J(ctx, al))
        ok &= eq(lhs, section_J(ctx, compose_auto(be, al)))
    rep.add("J_section_homomorphism", ok)

    # glued section: homomorphism law and section property
    ok_hom, ok_sec = True, True
    for _ in range(samples):
        al = random_k_auto(ctx, rng)
        be = random_k_auto(ctx, rng)
        g_al = glue_section(ctx, al)
        ok_sec &= underlying_k_auto(g_al, ctx) == al
        lhs = compose_semilinear(g_al, glue_section(ctx, be))
        rhs = glue_section(ctx, compose_auto(al, be))
        ok_hom &= eq(lhs, rhs)
    detail = "" if samples else "vacuous (no samples)"
    rep.add("glue_homomorphism", ok_hom, detail)
    rep.add("glue_section_property", ok_sec, detail)

    # independence of the Hilbert-90 witness
    ok = True
    if ctx.b > 1:
        y2 = ctx.y * subfield_generator(ctx.tower, ctx.i * ctx.d)
        alt = _with_witness(ctx, y2)
        for j in jb or [1]:
            ok &= eq(section_Cb(ctx, j), section_Cb(alt, j))
        rep.add("y_independence", ok)
    else:
        rep.add("y_independence", True, "vacuous (b = 1)")
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
