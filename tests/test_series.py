import random
from array import array
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autsplit.gftower import (LOG_ZERO, FFElement, FieldTower, build_tower,
                              frobenius, relative_norm, relative_trace,
                              subfield_generator)
from autsplit.series import (ApparentZero, BadResidue, DivideByApparentZero,
                             LaurentSeries, NotUniformiser,
                             PDividesExponent, PrecisionExhausted,
                             SeriesMatrix, frobenius_coeffwise, hensel_root,
                             norm_equation_solve, reversion, substitute,
                             unramified_norm)
from series_matrix_reference import (NotInvertible, identity_matrix,
                                     matrix_inverse)
from test_gftower import zech_table

T4 = build_tower(2, 2, 3, 1)       # ambient F_64; subfields F_2, F_4, F_64
T3 = build_tower(3, 1, 2, 1)       # ambient F_9; subfields F_3, F_9


def shape(s):
    """Everything a series stores: equal shapes print the same report."""
    return s.val, s.logs, s.prec


def sample_series(tower, j, rng, prec=16, val_range=(-2, 3), min_terms=0):
    val = rng.randrange(*val_range)
    pairs = []
    for k in range(val, prec):
        code = rng.randrange(tower.p ** j)
        if code:
            pairs.append((k, subfield_generator(tower, j) ** (code - 1)))
    if len(pairs) < min_terms:
        pairs.append((val, tower.one()))
    return LaurentSeries.from_pairs(tower, j, pairs, prec)


# -- ring basics ----------------------------------------------------------

def test_T_times_T_inverse():
    T = LaurentSeries.T_power(T4, 2, 1, 16)
    Tinv = LaurentSeries.T_power(T4, 2, -1, 16)
    assert T * Tinv == LaurentSeries.one(T4, 2, 14)


def test_polynomial_identity_char3():
    one = LaurentSeries.one(T3, 1, 16)
    T = LaurentSeries.T_power(T3, 1, 1, 16)
    lhs = (one + T) * (one - T)
    assert lhs == one - T * T


def test_geometric_series_inverse():
    one = LaurentSeries.one(T4, 2, 32)
    T = LaurentSeries.T_power(T4, 2, 1, 32)
    inv = (one - T).inverse()
    # oracle: multiply back and compare to 1 within precision
    assert inv * (one - T) == LaurentSeries.one(T4, 2, 30)
    for k in range(10):
        assert inv.coeff(k) == T4.one()


def test_divide_by_apparent_zero():
    z = LaurentSeries.zero(T4, 2, 8)
    one = LaurentSeries.one(T4, 2, 8)
    with pytest.raises(DivideByApparentZero):
        one / z


def test_mul_precision_propagation():
    a = LaurentSeries.from_pairs(T4, 2, [(2, T4.one())], 10)  # T^2 mod T^10
    b = LaurentSeries.from_pairs(T4, 2, [(3, T4.one())], 7)   # T^3 mod T^7
    c = a * b
    assert c.val == 5
    assert c.prec == min(10 + 3, 7 + 2)


def test_ring_axioms_sampled():
    rng = random.Random(5)
    for _ in range(40):
        a = sample_series(T4, 2, rng)
        b = sample_series(T4, 2, rng)
        c = sample_series(T4, 2, rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def _f4_element(k):
    return T4.zero() if k == 0 else subfield_generator(T4, 2) ** (k - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_constant_arithmetic_matches_field(c1, c2, c3):
    x1, x2, x3 = (_f4_element(c) for c in (c1, c2, c3))
    s1 = LaurentSeries.constant(x1, 2, 8)
    s2 = LaurentSeries.constant(x2, 2, 8)
    s3 = LaurentSeries.constant(x3, 2, 8)
    assert (s1 * s2 + s3).coeff(0) == x1 * x2 + x3


# -- the product kernel -------------------------------------------------------

def schoolbook_mul(a, b):
    """Reference: the product as a double loop over the log windows, each
    term added in through Zech (derived from exp and log in characteristic
    2, whose towers keep no Zech table), with val a.val + b.val and precision
    min(a.prec + b.val, b.prec + a.val).  The package's product must give
    the same val, logs and prec in every characteristic."""
    t = a.tower
    prec = min(a.prec + b.val, b.prec + a.val)
    if not a.logs or not b.logs:
        return LaurentSeries.zero(t, a.j, prec)
    lo = a.val + b.val
    Q = t.q - 1
    out = [LOG_ZERO] * max(prec - lo, 0)
    for ia, la in enumerate(a.logs):
        if la == LOG_ZERO:
            continue
        for ib in range(min(len(b.logs), prec - lo - ia)):
            lb = b.logs[ib]
            if lb == LOG_ZERO:
                continue
            lm = (la + lb) % Q
            cur = out[ia + ib]
            if cur == LOG_ZERO:
                out[ia + ib] = lm
            else:
                z = zech_table(t)[(lm - cur) % Q]
                out[ia + ib] = LOG_ZERO if z == LOG_ZERO else (cur + z) % Q
    return LaurentSeries(t, a.j, lo, out, prec, _checked=True)


def random_window(tower, j, rng, length, density):
    """Logs of `length` coefficients in F_{p^j}, each nonzero with
    probability `density`, the first and last nonzero."""
    step = (tower.q - 1) // (tower.p ** j - 1)
    return [rng.randrange(tower.p ** j - 1) * step
            if k in (0, length - 1) or rng.random() < density else LOG_ZERO
            for k in range(length)]


# (tower, subfield): F_2 (Q = 1), F_4, F_9, F_25, and F_{2^21} with its
# subfield F_{2^7}, the tables synth-deep multiplies over
KERNEL_FIELDS = pytest.mark.parametrize("tower,j", [
    (build_tower(2, 1, 1, 1), 1), (T4, 2), (T3, 2), (build_tower(5, 1, 2, 1), 2),
    (build_tower(2, 7, 3, 1), 7)], ids=["F2", "F4", "F9", "F25", "F2^21"])


@KERNEL_FIELDS
def test_mul_matches_schoolbook(tower, j):
    rng = random.Random(tower.q)
    for density in (1.0, 0.5, 0.125, 0.0):
        for _ in range(12):
            la, lb = rng.randrange(1, 40), rng.randrange(1, 40)
            a = LaurentSeries(tower, j, rng.randrange(-5, 6),
                              random_window(tower, j, rng, la, density),
                              rng.randrange(la - 5, la + 20))
            b = LaurentSeries(tower, j, rng.randrange(-5, 6),
                              random_window(tower, j, rng, lb, rng.choice(
                                  (density, 1.0, 0.125))),
                              rng.randrange(lb - 5, lb + 20))
            assert shape(a * b) == shape(schoolbook_mul(a, b)), (a, b)
            assert shape(b * a) == shape(schoolbook_mul(b, a)), (a, b)


@KERNEL_FIELDS
def test_squares_match_schoolbook(tower, j):
    # equal log windows with the same or a different val and precision;
    # in characteristic 2 these take the square path
    rng = random.Random(3 * tower.q)
    squares = 0
    for density in (1.0, 0.5, 0.125):
        for length in (2, 3, 8, 33):
            logs = random_window(tower, j, rng, length, density)
            for va, vb in ((0, 0), (-3, 2), (4, -1)):
                for pa, pb in ((length, length), (length + 7, length + 2),
                               (length - 1, length + 30),
                               (length // 2 + 1, length)):
                    a = LaurentSeries(tower, j, va, logs, va + pa)
                    b = LaurentSeries(tower, j, vb, logs, vb + pb)
                    squares += a.logs == b.logs
                    assert shape(a * b) == shape(schoolbook_mul(a, b)), (a, b)
                    assert shape(a * a) == shape(schoolbook_mul(a, a)), a
    assert squares >= 24


@KERNEL_FIELDS
def test_mul_edge_windows_match_schoolbook(tower, j):
    gen = subfield_generator(tower, j)
    one = LaurentSeries.one(tower, j, 10)
    dense = LaurentSeries(tower, j, -4, [gen.log] * 9, 5)
    cases = [
        (LaurentSeries.zero(tower, j, 6), dense),        # an empty window
        (dense, LaurentSeries.zero(tower, j, -20)),      # prec - lo <= 0
        (LaurentSeries.zero(tower, j, -3), LaurentSeries.zero(tower, j, 2)),
        (LaurentSeries.T_power(tower, j, -7, 3), dense),  # a monomial
        (dense, LaurentSeries.T_power(tower, j, 2, 2)),
        (dense, dense),
        (dense, one + LaurentSeries.T_power(tower, j, 1, 10)),
        (LaurentSeries(tower, j, -2, [0, LOG_ZERO, LOG_ZERO, gen.log], 2),
         LaurentSeries(tower, j, 1, [gen.log, LOG_ZERO, 0], 40)),
    ]
    for a, b in cases:
        assert shape(a * b) == shape(schoolbook_mul(a, b)), (a, b)
        assert shape(b * a) == shape(schoolbook_mul(b, a)), (a, b)


def test_mul_loops_over_the_sparser_factor(monkeypatch):
    # the outer loop runs over the factor with fewer nonzero terms, so
    # each of its terms walks the longer list of the other's
    import autsplit.series as series
    seen = []
    kernel = series._sum_of_products

    def recording(t, n, groups):
        seen.extend((len(outer), len(inner)) for outer, inner in groups)
        return kernel(t, n, groups)

    monkeypatch.setattr(series, "_sum_of_products", recording)
    gen = subfield_generator(T4, 2)
    dense = LaurentSeries(T4, 2, 0, [gen.log] * 16, 16)
    sparse = LaurentSeries(T4, 2, 0, [0] + [LOG_ZERO] * 7 + [0], 16)
    for a, b in ((dense, sparse), (sparse, dense)):
        seen.clear()
        a * b
        assert seen == [(2, 16)]


# -- windowed sums and products against the precision-sized kernels ---------

# -- characteristic-2 hot loops over tables made on demand -------------------

def on_demand_and_full(key):
    """A fresh characteristic-2 tower, which makes its table entries as
    they are read, and one of the same field with its full arrays."""
    full = FieldTower(*key)
    full._build_tables()
    return FieldTower(*key), full


def same_shape_as_full(full, op, *operands):
    """shape(op(operands)) against op on the same logs over full."""
    return shape(op(*operands)) == shape(op(*(
        LaurentSeries(full, x.j, x.val, x.logs, x.prec) for x in operands)))


def test_sums_and_products_that_miss_partway_match_full_tables():
    # the hot loops read the tower's dicts; a miss after earlier slots were
    # already summed takes that entry from the accessor, which stores it in
    # the same dict, and the loop goes on
    t, full = on_demand_and_full((2, 7, 3, 1))      # F_{2^7} in F_{2^21}
    j, step, Q = 7, (t.q - 1) // (2 ** 7 - 1), t.q - 1
    a = LaurentSeries(t, j, 0, [3 * step, 5 * step, 7 * step], 8)
    b = LaurentSeries(t, j, 0, [11 * step, 13 * step, 17 * step], 8)
    la, lb = a.logs[0], b.logs[0]
    t.log_of(t.exp_code(la) ^ t.exp_code(lb))   # slot 0 of a + b is made
    t.exp_code(la + lb - Q)                     # the first pair of a * b too
    exp = t._exp
    assert a.logs[1] not in exp
    assert same_shape_as_full(full, LaurentSeries.__add__, a, b)
    assert same_shape_as_full(full, LaurentSeries.__add__, b, a.shift(1))
    assert same_shape_as_full(full, LaurentSeries.__mul__, a, b)
    assert a.logs[1] in exp and t._exp is exp and type(exp) is dict


def test_a_product_that_builds_the_full_tables_partway_matches_them():
    # over F_{2^11} a product of two dense windows charges enough misses
    # to build the full arrays partway through its pairs, after some
    # entries were made; over F_64 the first miss of a sum builds them
    made_at_build = []

    def counting(key):
        t, full = on_demand_and_full(key)
        build = t._build_tables
        t._build_tables = lambda: made_at_build.append(len(t._exp)) or build()
        return t, full
    rng = random.Random(11)
    t, full = counting((2, 11, 1, 1))
    a, b = (LaurentSeries(t, 11, 0, random_window(t, 11, rng, 16, 1.0), 20)
            for _ in range(2))
    assert type(t._exp) is dict and not t._exp
    assert same_shape_as_full(full, LaurentSeries.__mul__, a, b)
    assert type(t._exp) is array and type(t._log) is array
    assert len(made_at_build) == 1 and made_at_build[0] > 0
    t, full = counting((2, 2, 3, 1))
    a, b = (LaurentSeries(t, 2, 0, random_window(t, 2, rng, 6, 1.0), 8)
            for _ in range(2))
    assert same_shape_as_full(full, LaurentSeries.__add__, a, b)
    assert type(t._exp) is array and type(t._log) is array
    assert made_at_build[1:] == [0]


class ReadRecorder:
    """A full table that records, as (name, key), each key read from it."""

    def __init__(self, table, name, reads):
        self.table, self.name, self.reads = table, name, reads

    def __getitem__(self, key):
        self.reads.append((self.name, key))
        return self.table[key]


def test_on_demand_entries_are_made_once_in_full_table_read_order():
    # a fresh F_{2^21} tower makes each missing entry once, in the order a
    # run over the full tables first reads it, so its charges add up in
    # that order and a full build, when one comes, happens at the same read
    t, full = on_demand_and_full((2, 7, 3, 1))
    Q, rng = t.q - 1, random.Random(21)
    a, b = (random_window(t, 7, rng, 12, 0.8) for _ in range(2))
    t.log_of(1)                     # makes the Pohlig-Hellman tables first
    present = {("exp", k % Q) for k in t._exp} | {("log", c) for c in t._log}
    made = []
    for name, accessor in (("exp", "exp_code"), ("log", "log_of")):
        def recording(key, name=name, read=getattr(t, accessor)):
            # an exp key outside [0, Q) is stored as an alias of the entry
            # at key mod Q, which is made by the accessor's inner call
            table = t._exp if name == "exp" else t._log
            if key not in table and (name == "log" or 0 <= key < Q):
                made.append((name, key))
            return read(key)
        setattr(t, accessor, recording)
    reads = []
    full._exp = ReadRecorder(full._exp, "exp", reads)
    full._log = ReadRecorder(full._log, "log", reads)

    def run(tower):
        x, y = (LaurentSeries(tower, 7, 0, logs, 12) for logs in (a, b))
        return shape(x * y), shape(x + y.shift(1))
    assert run(t) == run(full)
    first = []
    for name, key in reads:
        entry = (name, key % Q if name == "exp" else key)
        if entry not in present:
            present.add(entry)
            first.append(entry)
    assert made == first
    assert {name for name, _ in made} == {"exp", "log"}
    assert type(t._exp) is dict


def reference_add(a, b):
    """The sum as the kernel once took it: a buffer of prec - lo slots,
    whatever the windows hold, normalised by the constructor."""
    t = a.tower
    if not b.logs and b.prec >= a.prec:
        return a
    if not a.logs and a.prec >= b.prec:
        return b
    prec = min(a.prec, b.prec)
    lo = min(a.val, b.val, prec)
    out = [LOG_ZERO] * (prec - lo)
    head = a.logs[:max(prec - a.val, 0)]
    out[a.val - lo:a.val - lo + len(head)] = head
    for k, lb in enumerate(b.logs[:max(prec - b.val, 0)], b.val - lo):
        if lb == LOG_ZERO:
            continue
        cur = out[k]
        if cur == LOG_ZERO:
            out[k] = lb
        else:
            z = zech_table(t)[(lb - cur) % (t.q - 1)]
            out[k] = LOG_ZERO if z == LOG_ZERO else (cur + z) % (t.q - 1)
    return LaurentSeries(t, a.j, lo, out, prec, _checked=True)


def reference_mul(a, b):
    """The product as the kernel once took it: every result, monomial
    ones too, through the constructor, and the general case summed into
    prec - val slots."""
    from autsplit.series import _sum_of_products, _terms
    t = a.tower
    prec = min(a.prec + b.val, b.prec + a.val)
    alogs, blogs = a.logs, b.logs
    if not alogs or not blogs:
        return LaurentSeries.zero(t, a.j, prec)
    lo = a.val + b.val
    n = prec - lo
    Q = t.q - 1
    if len(alogs) == 1 or len(blogs) == 1:
        (c,), rest = (alogs, blogs) if len(alogs) == 1 else (blogs, alogs)
        out = [lg if lg == LOG_ZERO else (lg + c) % Q for lg in rest[:n]]
        return LaurentSeries(t, a.j, lo, out, prec, _checked=True)
    if t.p == 2 and alogs == blogs:
        out = [LOG_ZERO] * n
        half = [lg if lg == LOG_ZERO else 2 * lg % Q
                for lg in alogs[:(n + 1) // 2]]
        out[:2 * len(half):2] = half
        return LaurentSeries(t, a.j, lo, out, prec, _checked=True)
    if (len(alogs) - alogs.count(LOG_ZERO)
            > len(blogs) - blogs.count(LOG_ZERO)):
        alogs, blogs = blogs, alogs
    out = _sum_of_products(t, n, ((_terms(alogs), _terms(blogs)),))
    return LaurentSeries(t, a.j, lo, out, prec, _checked=True)


WINDOW_FIELDS = pytest.mark.parametrize("tower,j", [
    (build_tower(2, 1, 1, 1), 1), (T4, 2), (T3, 2),
    (build_tower(5, 1, 2, 1), 2)], ids=["F2", "F4", "F9", "F25"])


def window_edge_cases(tower, j):
    gen = subfield_generator(tower, j)
    a = LaurentSeries(tower, j, 0, [gen.log, LOG_ZERO, 0, gen.log], 12)
    one = LaurentSeries.one(tower, j, 32)
    return [
        (a, -a),                                          # cancels to zero
        (a, -a.truncate(3)),                  # cancels below a lower prec
        (LaurentSeries.constant(gen, j, 32), -LaurentSeries.constant(gen, j, 9)),
        (LaurentSeries.zero(tower, j, 5), a),      # empty at lower precision
        (a, LaurentSeries.zero(tower, j, 2)),
        (LaurentSeries.zero(tower, j, 3), LaurentSeries.zero(tower, j, 7)),
        (LaurentSeries.T_power(tower, j, 12, 12), a),     # val at prec
        (LaurentSeries(tower, j, 9, [0, gen.log], 30), a.truncate(6)),
        (LaurentSeries(tower, j, 3, [0, gen.log], 5), a),  # runs past prec
        (LaurentSeries(tower, j, -3, [gen.log, LOG_ZERO, 0], 4), a),
        (LaurentSeries.T_power(tower, j, -5, 1), a),      # negative val
        (one, LaurentSeries(tower, j, 0, [gen.log] * 10, 30)),
        (LaurentSeries.constant(gen, j, 4),               # truncated monomial
         LaurentSeries(tower, j, 0, [0, gen.log, LOG_ZERO, LOG_ZERO, 0], 40)),
        (LaurentSeries.constant(gen, j, 3),         # truncated onto a zero
         LaurentSeries(tower, j, 0, [0, gen.log, LOG_ZERO, LOG_ZERO, 0], 40)),
        (LaurentSeries.T_power(tower, j, 2, 5), a),     # untruncated monomial
        (a, LaurentSeries(tower, j, 2, [gen.log, 0], 6)),
        (a, a), (a, a.truncate(7)),
    ]


@WINDOW_FIELDS
def test_windowed_kernels_match_the_precision_sized_ones(tower, j):
    rng = random.Random(7 * tower.q)
    pairs = window_edge_cases(tower, j)
    for density in (1.0, 0.5, 0.125, 0.0):
        for _ in range(40):
            ops = []
            for _ in range(2):
                length = rng.randrange(1, 12)
                val = rng.randrange(-4, 8)
                ops.append(LaurentSeries(
                    tower, j, val, random_window(tower, j, rng, length, density),
                    val + rng.randrange(-2, length + 6)))
            pairs.append(tuple(ops))
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert shape(x + y) == shape(reference_add(x, y)), (x, y)
            assert shape(x * y) == shape(reference_mul(x, y)), (x, y)


@WINDOW_FIELDS
def test_frobenius_coeffwise_matches_per_coefficient_frobenius(tower, j):
    def frob_log(t, la, e):
        """The log of c^(p^e) for c of log la."""
        if la == LOG_ZERO or t.q == 2:
            return la
        return la * pow(t.p, e, t.q - 1) % (t.q - 1)

    rng = random.Random(11 * tower.q)
    for _ in range(10):
        s = LaurentSeries(tower, j, rng.randrange(-3, 3),
                          random_window(tower, j, rng, 9, 0.5), 20)
        for e in range(tower.M + 1):
            assert shape(frobenius_coeffwise(s, e)) == (
                s.val, tuple(frob_log(tower, lg, e) for lg in s.logs), s.prec)


# -- coefficientwise Frobenius ---------------------------------------------

def test_frobenius_coeffwise_trivial():
    rng = random.Random(1)
    s = sample_series(T4, 2, rng)
    assert frobenius_coeffwise(s, 0) == s
    assert frobenius_coeffwise(s, 2) == s  # series over F_4, e = j


def test_frobenius_coeffwise_squares():
    zeta = subfield_generator(T4, 2)
    s = LaurentSeries.from_pairs(T4, 2, [(0, zeta), (1, zeta)], 8)
    out = frobenius_coeffwise(s, 1)
    assert out.coeff(0) == zeta * zeta
    assert out.coeff(1) == zeta * zeta


# -- substitution -----------------------------------------------------------

def test_substitute_identity_and_monomial():
    rng = random.Random(2)
    s = sample_series(T4, 2, rng, min_terms=1)
    T = LaurentSeries.T_power(T4, 2, 1, 16)
    assert substitute(s, T) == s
    zeta = subfield_generator(T4, 2)
    aT = LaurentSeries.from_pairs(T4, 2, [(1, zeta)], 16)
    mono = LaurentSeries.T_power(T4, 2, 3, 16)
    out = substitute(mono, aT)
    assert out == LaurentSeries.from_pairs(T4, 2, [(3, zeta ** 3)], 16)


def test_substitute_geometric_oracle():
    prec = 10
    one = LaurentSeries.one(T4, 2, prec)
    T = LaurentSeries.T_power(T4, 2, 1, prec)
    s = (one - T).inverse()
    target = T + T * T
    lhs = substitute(s, target)
    # oracle: sum_k (T + T^2)^k computed directly
    acc = LaurentSeries.one(T4, 2, prec)
    power = LaurentSeries.one(T4, 2, prec)
    for _ in range(1, prec):
        power = power * target
        acc = acc + power
    assert lhs == acc


def test_substitute_associativity_sampled():
    rng = random.Random(9)
    for _ in range(10):
        s = sample_series(T4, 2, rng, prec=12)
        t1 = LaurentSeries.from_pairs(
            T4, 2, [(1, T4.one())] +
            [(k, subfield_generator(T4, 2) ** rng.randrange(3))
             for k in range(2, 6)], 12)
        t2 = LaurentSeries.from_pairs(
            T4, 2, [(1, subfield_generator(T4, 2))] +
            [(k, subfield_generator(T4, 2) ** rng.randrange(3))
             for k in range(2, 6)], 12)
        assert substitute(substitute(s, t1), t2) == \
            substitute(s, substitute(t1, t2))


def test_substitute_rejects_non_uniformiser():
    s = LaurentSeries.one(T4, 2, 8)
    bad = LaurentSeries.T_power(T4, 2, 2, 8)
    with pytest.raises(NotUniformiser):
        substitute(s, bad)


def horner_substitute(s, target):
    """Reference: Horner's rule in target, from the top coefficient down
    to T^val, then the factor target^val; the package's composition must
    give the same val, logs and prec."""
    t = s.tower
    prec = min(s.prec, target.prec)
    if not s.logs:
        return LaurentSeries.zero(t, s.j, prec)
    if s.val == 0 and len(s.logs) == 1:
        return LaurentSeries(t, s.j, 0, s.logs, prec)
    res = LaurentSeries.zero(t, s.j, prec)
    for k in range(s.val + len(s.logs) - 1, s.val - 1, -1):
        res = res * target
        lg = s.logs[k - s.val]
        if lg != LOG_ZERO:
            res = res + LaurentSeries.constant(FFElement(t, lg), s.j, prec)
    if s.val:
        res = res * (target ** s.val if s.val > 0
                     else target.inverse() ** (-s.val))
    return res.truncate(min(res.prec, prec))


def sample_target(tower, j, rng, prec, terms):
    """A uniformiser image c_1 T + ... with `terms` random coefficients."""
    gen = subfield_generator(tower, j)
    pairs = [(1, gen ** rng.randrange(tower.p ** j - 1))]
    for k in range(2, terms + 1):
        code = rng.randrange(tower.p ** j)
        if code:
            pairs.append((k, gen ** (code - 1)))
    return LaurentSeries.from_pairs(tower, j, pairs, prec)


SUBST_FIELDS = ((T4, 2), (T3, 2), (build_tower(5, 1, 2, 1), 2))


@pytest.mark.parametrize("tower,j", SUBST_FIELDS)
def test_substitute_matches_horner(tower, j):
    rng = random.Random(tower.p)
    for s_prec in (3, 9, 16, 17, 30):
        for t_prec in (4, 12, 33):
            for val_range in ((-3, 0), (0, 1), (1, 4)):
                s = sample_series(tower, j, rng, prec=s_prec,
                                  val_range=val_range, min_terms=1)
                target = sample_target(tower, j, rng, t_prec,
                                       rng.choice((1, 3, t_prec)))
                assert shape(substitute(s, target)) == \
                    shape(horner_substitute(s, target)), (s, target)


@pytest.mark.parametrize("tower,j", SUBST_FIELDS)
def test_substitute_matches_horner_on_sparse_inputs(tower, j):
    gen = subfield_generator(tower, j)
    rng = random.Random(10 + tower.p)
    targets = [LaurentSeries.from_pairs(tower, j, [(1, gen ** 2)], 20),
               sample_target(tower, j, rng, 20, 20),
               sample_target(tower, j, rng, 7, 7)]
    inputs = [LaurentSeries.zero(tower, j, 16),
              LaurentSeries.zero(tower, j, -3),
              LaurentSeries.constant(gen, j, 16),
              LaurentSeries.constant(gen, j, 40),
              LaurentSeries.one(tower, j, 5),
              LaurentSeries.T_power(tower, j, 5, 16),
              LaurentSeries.T_power(tower, j, -2, 16),
              LaurentSeries.from_pairs(tower, j, [(-1, gen), (6, gen)], 12),
              LaurentSeries.from_pairs(tower, j, [(0, gen), (11, gen)], 30),
              LaurentSeries.from_pairs(tower, j, [(2, gen), (3, gen)], 4)]
    for target in targets:
        for s in inputs:
            assert shape(substitute(s, target)) == \
                shape(horner_substitute(s, target)), (s, target)


def test_substitute_below_precision_zero():
    # s is known only to T^-2 while target^-4 starts at T^-4: Horner's
    # unit part is the zero series at T^-2, and the result O(T^-6)
    g = subfield_generator(T4, 2).log
    s = LaurentSeries(T4, 2, -4, [0, g], -2)
    target = LaurentSeries(T4, 2, 1, [0, g, 2 * g % 63], 29)
    expected = horner_substitute(s, target)
    assert shape(expected) == (-6, (), -6)
    assert shape(substitute(s, target)) == shape(expected)


def two_step_substitute(s, target):
    """substitute as composed before the one-window form: the unit part
    composed at P = min(s.prec, target.prec), times target ** val, and
    truncated to P."""
    prec = min(s.prec, target.prec)
    res = substitute(LaurentSeries(s.tower, s.j, 0, s.logs, prec), target)
    if s.val:
        res = res * target ** s.val
    return res.truncate(min(res.prec, prec))


@pytest.mark.parametrize("tower,j", [(T4, 2), (T3, 2)], ids=["p2", "p3"])
def test_one_window_substitution_matches_the_two_step_formula(tower, j):
    # a valuation v >= 1 is composed as one window with v leading zeros;
    # its (val, logs, prec) is that of the unit part times target ** v
    rng = random.Random(70 + tower.p)
    cases = []
    for v in range(-2, 4):
        for length in (1, 2, 5, 11, 37):                # 1: s = c*T^v
            s = LaurentSeries(tower, j, v, random_window(
                tower, j, rng, length, 0.6), v + length + rng.randrange(3))
            for t_prec in {2, 3, 4, 8, s.prec - 1, s.prec, s.prec + 5}:
                if t_prec >= 2:
                    cases.append((s, sample_target(tower, j, rng, t_prec,
                                                   t_prec)))
        if v < 0:                   # s known only to T^0 or below: P <= 0
            for s_prec in range(v + 1, 1):
                s = LaurentSeries(tower, j, v, random_window(
                    tower, j, rng, s_prec - v, 0.6), s_prec)
                cases.append((s, sample_target(tower, j, rng, 9, 9)))
    seen = set()
    for s, target in cases:
        prec = min(s.prec, target.prec)
        seen.add((s.val, prec <= s.val, prec <= 0, target.prec < s.prec,
                  len(s.logs) == 1))
        assert shape(substitute(s, target)) == \
            shape(two_step_substitute(s, target)), (s, target)
    assert {v for v, *_ in seen} == set(range(-2, 4))
    positive = [flags for flags in seen if flags[0] >= 1]
    assert any(at_or_below for _, at_or_below, *_ in positive)     # P <= v
    assert any(lower for *_, lower, _ in positive)     # target.prec < s.prec
    assert any(monomial for *_, monomial in positive)
    assert any(nonpositive for _, _, nonpositive, *_ in seen)      # P <= 0


def test_a_one_term_image_takes_no_product(monkeypatch):
    # c*T maps to c*t: composed as the window (0, c) it would build the
    # baby power t^2, a full product for odd p
    rng = random.Random(3)
    target = sample_target(T3, 2, rng, 20, 20)
    c = subfield_generator(T3, 2) ** 5
    s = LaurentSeries.from_pairs(T3, 2, [(1, c)], 30)
    products = []
    mul = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    image = substitute(s, target)
    assert products == []
    monkeypatch.undo()
    assert shape(image) == shape(two_step_substitute(s, target))


# -- composition split by the exponent mod p ---------------------------------

def dense_unit(tower, j, rng, terms, prec):
    """c_0 + c_1 T + ... + c_(terms-1) T^(terms-1) + O(T^prec), every c_k
    nonzero."""
    return LaurentSeries(tower, j, 0, random_window(tower, j, rng, terms, 1.0),
                         prec)


@pytest.mark.parametrize("tower,j,s_precs", [
    (T4, 2, (64, 129)), (build_tower(2, 1, 1, 1), 1, (64, 129)),
    (T3, 2, (64, 129)), (build_tower(5, 1, 2, 1), 2, (64,))],
    ids=["F4", "F2", "F9", "F25"])
def test_substitute_matches_horner_where_the_split_applies(tower, j, s_precs):
    # windows longer than max(16, p^2) coefficients are split by the
    # exponent mod p, down to leaves at or below it
    rng = random.Random(60 + tower.p)
    gen = subfield_generator(tower, j)
    for s_prec in s_precs:
        dense = sample_series(tower, j, rng, prec=s_prec, val_range=(0, 1),
                              min_terms=1)
        # every coefficient at an exponent = 1 mod p is zero, so h_1 is
        # skipped at the top split
        gap = LaurentSeries(tower, j, 0,
                            [LOG_ZERO if k % tower.p == 1 else lg
                             for k, lg in enumerate(dense_unit(
                                 tower, j, rng, s_prec, s_prec).logs)],
                            s_prec)
        target = sample_target(tower, j, rng, s_prec + 3, s_prec + 3)
        short = sample_target(tower, j, rng, s_prec - 7, s_prec - 7)
        monomial = LaurentSeries.from_pairs(tower, j, [(1, gen)], 2 * s_prec)
        for s, t in ((dense, target), (gap, target), (dense, monomial),
                     (gap, short), (dense.shift(-2), target)):
            assert shape(substitute(s, t)) == shape(horner_substitute(s, t)), \
                (s, t)


def record_composition(monkeypatch):
    """Two lists: the truncation n of each _sum_of_products call that
    LaurentSeries.__mul__ does not make, and the precisions of the factors
    of each __mul__ call."""
    import autsplit.series as series
    blocks, products, inside = [], [], []
    kernel, mul = series._sum_of_products, LaurentSeries.__mul__

    def recording(t, n, groups):
        if not inside:
            blocks.append(n)
        return kernel(t, n, groups)

    def counting(self, other):
        products.append((self.prec, other.prec))
        inside.append(True)
        try:
            return mul(self, other)
        finally:
            inside.pop()
    monkeypatch.setattr(series, "_sum_of_products", recording)
    monkeypatch.setattr(LaurentSeries, "__mul__", counting)
    return blocks, products


def test_composition_splits_only_above_max_16_p_squared(monkeypatch):
    # a window that is not split is one Brent-Kung loop, each block of it
    # summed at the full precision; a split recurses at lower precisions
    rng = random.Random(67)
    f31 = build_tower(31, 1, 1, 1)
    s = dense_unit(f31, 1, rng, 64, 64)
    target = sample_target(f31, 1, rng, 64, 64)
    expected = horner_substitute(s, target)
    blocks, _ = record_composition(monkeypatch)
    assert shape(substitute(s, target)) == shape(expected)
    assert set(blocks) == {64}
    for tower, j in ((build_tower(2, 1, 1, 1), 1), (T4, 2), (T3, 2),
                     (build_tower(5, 1, 2, 1), 2), (f31, 1)):
        target = sample_target(tower, j, rng, 64, 64)
        for terms in (1, 2, 15, 16):
            blocks.clear()
            substitute(dense_unit(tower, j, rng, terms, 64), target)
            assert set(blocks) <= {64}
        blocks.clear()
        substitute(dense_unit(tower, j, rng, 17, 64), target)
        assert min(blocks) < 64 if tower.p ** 2 < 17 else set(blocks) == {64}


def test_composition_leaves_share_one_set_of_baby_powers(monkeypatch):
    # 63 terms at prec 64 over F_{2^7}: split to 32 + 31 terms at prec 32,
    # then to four leaves of 16, 16, 16 and 15 terms at prec 16, each a
    # Brent-Kung loop of four blocks with m = 4.  t^1 is the target
    # truncated, and the leaves share t^2, t^3, t^4 mod T^16: three
    # products in all, where baby powers per leaf would take twelve.
    tower = build_tower(2, 7, 3, 1)
    rng = random.Random(71)
    s = dense_unit(tower, 7, rng, 63, 64)
    target = sample_target(tower, 7, rng, 64, 64)
    expected = horner_substitute(s, target)
    blocks, products = record_composition(monkeypatch)
    assert shape(substitute(s, target)) == shape(expected)
    assert len(products) <= 3
    assert sorted(blocks) == [16] * 16 + [32, 32, 64]


# -- Hensel ------------------------------------------------------------------

def hensel_oracle(s, m):
    """Solve x^m = s coefficient by coefficient with undetermined
    coefficients; independent of the Newton path."""
    t = s.tower
    prec = s.prec
    coeffs = [t.one()]
    m_f = t.from_int(m)
    for k in range(1, prec):
        x = LaurentSeries(t, s.j, 0, [c.log for c in coeffs], k + 1)
        # (x + cT^k)^m = x^m + m c T^k + ... since x has leading term 1
        defect = (s - x ** m).coeff(k)
        coeffs.append(defect / m_f)
    return LaurentSeries(t, s.j, 0, [c.log for c in coeffs], prec)


def newton_hensel_root(s, m):
    """The root by Newton iteration on x^m - s from 1, each step doubling
    the correct terms with one series inverse: the route ``hensel_root``
    took before it became one exponentiation, kept as its reference."""
    t = s.tower
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_hensel_root_matches_newton(p):
    """The exponentiation root equals Newton's in (val, logs, prec) for
    every m <= 9 prime to p, at precisions on both sides of powers of 2
    and of p."""
    tower = build_tower(p, 1, 2, 1)
    rng = random.Random(p)
    for n in (1, 2, 7, 8, 63, 64, 128):
        for m in range(1, 10):
            if m % p == 0:
                continue
            s = sample_series(tower, 2, rng, prec=n, val_range=(1, 2))
            s = LaurentSeries.one(tower, 2, n) + s
            assert shape(hensel_root(s, m)) == shape(newton_hensel_root(s, m))


def count_handed_pairs(monkeypatch):
    """A list that gains, per _sum_of_products call, the term pairs handed
    to it: the sum over its groups of len(outer) * len(inner)."""
    import autsplit.series as series
    calls = []
    kernel = series._sum_of_products

    def counting(t, n, groups):
        groups = list(groups)
        calls.append(sum(len(outer) * len(inner) for outer, inner in groups))
        return kernel(t, n, groups)
    monkeypatch.setattr(series, "_sum_of_products", counting)
    return calls


@pytest.mark.parametrize("key,j,n,bound", [
    ((2, 7, 3, 1), 7, 64, 2320), ((31, 1, 2, 1), 2, 128, 99069)],
    ids=["F_2^21", "F_31^2"])
def test_hensel_root_term_pairs(key, j, n, bound, monkeypatch):
    # the cube root of a dense 1 + O(T): the p-th powers inside s ** e are
    # Frobenius windows, so each product of a digit meets a factor with
    # about 1/p^k of s's terms
    tower = build_tower(*key)
    rng = random.Random(n)
    s = LaurentSeries(tower, j, 0,
                      [0] + random_window(tower, j, rng, n - 1, 1.0), n)
    calls = count_handed_pairs(monkeypatch)
    x = hensel_root(s, 3)
    assert sum(calls) <= bound
    assert x ** 3 == s


def test_hensel_trivial_cases():
    one = LaurentSeries.one(T4, 2, 16)
    assert hensel_root(one, 3) == one
    s = one + LaurentSeries.T_power(T4, 2, 1, 16)
    assert hensel_root(s, 1) == s


def test_hensel_cube_root_char2():
    one = LaurentSeries.one(T4, 2, 20)
    T = LaurentSeries.T_power(T4, 2, 1, 20)
    s = one + T
    x = hensel_root(s, 3)
    assert x ** 3 == s
    assert x == hensel_oracle(s, 3)
    assert x.coeff(0) == T4.one() and x.coeff(1) == T4.one()


def test_hensel_random_inputs():
    rng = random.Random(4)
    for m in (3, 5, 7):
        for _ in range(10):
            pairs = [(0, T4.one())] + [
                (k, subfield_generator(T4, 2) ** rng.randrange(3))
                for k in range(1, 12) if rng.random() < 0.7]
            s = LaurentSeries.from_pairs(T4, 2, pairs, 16)
            x = hensel_root(s, m)
            assert x ** m == s


def test_hensel_errors():
    T = LaurentSeries.T_power(T4, 2, 1, 8)
    one = LaurentSeries.one(T4, 2, 8)
    with pytest.raises(BadResidue):
        hensel_root(T, 3)
    with pytest.raises(PDividesExponent):
        hensel_root(one + T, 2)


# -- unramified norms ----------------------------------------------------------

def test_unramified_norm_T_and_identity():
    T = LaurentSeries.T_power(T4, 6, 1, 16)
    n = unramified_norm(T, 2, 3)
    assert n == LaurentSeries.T_power(T4, 2, 3, 16)
    # d = 1 is the identity reinterpreted over the base
    assert unramified_norm(T, 6, 1) == LaurentSeries.T_power(T4, 6, 1, 16)


def test_unramified_norm_constant_cross_check():
    z = subfield_generator(T4, 6)
    s = LaurentSeries.constant(z, 6, 16)
    n = unramified_norm(s, 2, 3)
    assert n.coeff(0) == relative_norm(z, 2, 3)


def test_unramified_norm_multiplicative():
    rng = random.Random(8)
    for _ in range(20):
        a = sample_series(T4, 6, rng, min_terms=1)
        b = sample_series(T4, 6, rng, min_terms=1)
        assert unramified_norm(a * b, 2, 3) == \
            unramified_norm(a, 2, 3) * unramified_norm(b, 2, 3)


# -- norm equation ---------------------------------------------------------

def test_norm_equation_trivial():
    one = LaurentSeries.one(T4, 2, 16)
    lam = norm_equation_solve(one, 2, 3)
    assert unramified_norm(lam, 2, 3) == one


def test_norm_equation_uniformiser_power():
    c = LaurentSeries.T_power(T4, 2, 3, 16)
    lam = norm_equation_solve(c, 2, 3)
    assert lam.val == 1
    assert unramified_norm(lam, 2, 3) == c


def test_norm_equation_example_f2():
    t = build_tower(2, 1, 3, 1)
    one = LaurentSeries.one(t, 1, 24)
    T = LaurentSeries.T_power(t, 1, 1, 24)
    c = one + T
    lam = norm_equation_solve(c, 1, 3)
    assert lam.val == 0
    assert unramified_norm(lam, 1, 3) == c


def test_norm_equation_no_solution_by_valuation():
    c = LaurentSeries.T_power(T4, 2, 1, 16)   # val 1, d = 3 does not divide
    assert norm_equation_solve(c, 2, 3) is None


def test_norm_equation_random_units():
    rng = random.Random(12)
    for _ in range(10):
        c = sample_series(T4, 2, rng, val_range=(0, 1), min_terms=1)
        if not c or c.val % 3 != 0:
            continue
        lam = norm_equation_solve(c, 2, 3)
        assert unramified_norm(lam, 2, 3) == c


def test_norm_equation_rejects_zero():
    with pytest.raises(ApparentZero):
        norm_equation_solve(LaurentSeries.zero(T4, 2, 8), 2, 3)


def per_exponent_norm_solve(c, i, d):
    """Reference: one full norm per exponent k, correcting the T^k
    defect by 1 + eps*T^k; the package's block lifting must give the same
    val, logs and prec."""
    t = c.tower
    if c.val % d != 0:
        return None
    id_ = i * d
    prec_rel = c.prec - c.val
    cu = c.shift(-c.val).with_subfield(id_)
    lead = cu.leading()
    zeta = subfield_generator(t, id_)
    r = t.one()
    while relative_norm(r, i, d) != lead:
        r = r * zeta
    theta = t.one()
    while not relative_trace(theta, i, d):
        theta = theta * zeta
    tr_theta_inv = relative_trace(theta, i, d).inverse()
    x = LaurentSeries.constant(r, id_, prec_rel)
    for k in range(1, prec_rel):
        defect = cu - unramified_norm(x, i, d).with_subfield(id_)
        if not defect.logs or defect.val > k:
            continue
        assert defect.val == k
        eps = theta * ((defect.leading() / lead) * tr_theta_inv)
        corr = LaurentSeries.from_pairs(t, id_, [(0, t.one()), (k, eps)],
                                        prec_rel)
        x = x * corr
    return x.shift(c.val // d)


NORM_CASES = [(p, d) for p in (2, 3, 5, 7) for d in (2, 3)]


@pytest.mark.parametrize("p,d", NORM_CASES)
def test_norm_equation_matches_per_exponent_lifting(p, d):
    rng = random.Random(100 * p + d)
    tower = build_tower(p, 1, d, 1)
    for prec_rel in (2, 3, 4, 9, 17, 33):
        for val in (-2 * d, 0, d):
            c = sample_series(tower, 1, rng, prec=val + prec_rel,
                              val_range=(val, val + 1))
            c = c + LaurentSeries.T_power(tower, 1, val, c.prec).scale(
                subfield_generator(tower, 1) ** rng.randrange(p - 1))
            if not c or c.val != val:
                continue
            lam = norm_equation_solve(c, 1, d)
            assert shape(lam) == shape(per_exponent_norm_solve(c, 1, d))
            assert unramified_norm(lam, 1, d) == c


def test_norm_equation_matches_per_exponent_lifting_over_f4():
    rng = random.Random(31)
    for _ in range(10):
        c = sample_series(T4, 2, rng, prec=40, val_range=(0, 1), min_terms=1)
        if c.val % 3:
            continue
        assert shape(norm_equation_solve(c, 2, 3)) == \
            shape(per_exponent_norm_solve(c, 2, 3))


def count_series_inverses(monkeypatch):
    """A list that gains one entry per LaurentSeries.inverse call."""
    calls = []
    inverse = LaurentSeries.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(LaurentSeries, "inverse", counting)
    return calls


def test_norm_equation_takes_one_series_inverse(monkeypatch):
    rng = random.Random(41)
    tower = build_tower(3, 1, 2, 1)
    calls = count_series_inverses(monkeypatch)
    for prec in (1, 2, 9, 33):
        c = LaurentSeries.one(tower, 1, prec) + sample_series(
            tower, 1, rng, prec=prec, val_range=(0, 1)).shift(1)
        calls.clear()
        lam = norm_equation_solve(c, 1, 2)
        assert len(calls) == 1
        assert unramified_norm(lam, 1, 2) == c


# -- reversion ---------------------------------------------------------------

def test_reversion_round_trip():
    rng = random.Random(2)
    for _ in range(8):
        t = LaurentSeries.from_pairs(
            T4, 2, [(1, subfield_generator(T4, 2) ** rng.randrange(1, 3))] +
            [(k, subfield_generator(T4, 2) ** rng.randrange(3))
             for k in range(2, 8)], 14)
        r = reversion(t)
        back = substitute(r, t)
        assert back == LaurentSeries.T_power(T4, 2, 1, 14)


def power_loop_reversion(ts):
    """Reference: the coefficients r_m of r = sum r_k T^k from a table of
    powers t^k, cancelling the T^m coefficient of sum_k r_k t^k one m at a
    time; Newton reversion must give the same val, logs and prec."""
    t = ts.tower
    prec = ts.prec
    c1inv = ts.leading().inverse()
    coeffs = [c1inv]
    powers = [ts]
    for m in range(2, prec):
        powers.append(powers[-1] * ts)
        acc = t.zero()
        for kk in range(1, m):
            acc = acc + coeffs[kk - 1] * powers[kk - 1].coeff(m)
        coeffs.append(-(acc * (c1inv ** m)))
    return LaurentSeries(t, ts.j, 1, [c.log for c in coeffs], prec)


@pytest.mark.parametrize("p,d", NORM_CASES)
def test_reversion_matches_power_loop(p, d):
    rng = random.Random(7 * p + d)
    tower = build_tower(p, 1, d, 1)
    gen = subfield_generator(tower, d)
    for prec in (2, 3, 4, 5, 8, 13, 31):
        for terms in (1, 2, p, prec):
            ts = sample_target(tower, d, rng, prec, terms)
            assert shape(reversion(ts)) == shape(power_loop_reversion(ts))
        # only k = 1 and multiples of p: t' is the constant c_1
        sparse = LaurentSeries.from_pairs(
            tower, d, [(1, gen)] + [(k, gen ** k) for k in range(p, prec, p)],
            prec)
        assert shape(reversion(sparse)) == shape(power_loop_reversion(sparse))


def test_reversion_takes_no_series_inverse(monkeypatch):
    rng = random.Random(43)
    tower = build_tower(3, 1, 2, 1)
    calls = count_series_inverses(monkeypatch)
    for prec in (2, 5, 17, 40):
        r = reversion(sample_target(tower, 2, rng, prec, prec))
        assert r.prec == prec
    assert calls == []


# -- powers -----------------------------------------------------------------

def test_positive_powers_build_no_unit(monkeypatch):
    rng = random.Random(47)
    s = sample_series(T3, 2, rng, min_terms=2)
    expected = [LaurentSeries.one(T3, 2, s.prec)]
    for _ in range(7):
        expected.append(expected[-1] * s)
    built = []
    one = LaurentSeries.one
    monkeypatch.setattr(LaurentSeries, "one", staticmethod(
        lambda *args: built.append(args) or one(*args)))
    for e in range(1, 8):
        assert s ** e == expected[e]
    assert built == []
    assert shape(s ** 0) == shape(one(T3, 2, s.prec))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_powers_match_the_product_chain(p):
    # s ** e groups its factors by the base-p digits of e; the chain
    # s * ... * s has the same (val, logs, prec) in any grouping, for
    # every val, a monomial and the zero series included
    tower = build_tower(p, 1, 2, 1)
    rng = random.Random(50 + p)
    gen = subfield_generator(tower, 2)
    samples = [sample_series(tower, 2, rng, prec=8, val_range=(v, v + 1),
                             min_terms=2) for v in range(-2, 4)]
    samples += [LaurentSeries.from_pairs(tower, 2, [(1, gen ** 3)], 8),
                LaurentSeries.zero(tower, 2, 8)]
    for s in samples:
        chain = s
        for e in range(1, p ** 3 + p + 1):
            assert shape(s ** e) == shape(chain)
            chain = chain * s


@pytest.mark.parametrize("p", [2, 3, 5])
def test_powers_of_p_take_no_products(p, monkeypatch):
    tower = build_tower(p, 1, 2, 1)
    s = sample_series(tower, 2, random.Random(p), prec=40, val_range=(-1, 2),
                      min_terms=2)
    calls = count_handed_pairs(monkeypatch)
    for k in range(1, 4):
        assert (s ** p ** k).val == p ** k * s.val
    assert calls == []


# -- matrices over the series field -----------------------------------------

def sample_matrix(tower, j, n, rng, prec=16):
    rows = [[sample_series(tower, j, rng, prec, val_range=(-1, 3))
             for _ in range(n)] for _ in range(n)]
    return SeriesMatrix(tower, j, prec, rows)


def permutation_det(mat):
    """Leibniz expansion: sum over permutations of signed entry products."""
    n = mat.n
    total = LaurentSeries.zero(mat.tower, mat.j, mat.prec + 8 * n)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n)
                         for b in range(a + 1, n))
        term = LaurentSeries.one(mat.tower, mat.j, mat.prec + 8 * n)
        for row, col in enumerate(perm):
            term = term * mat.rows[row][col]
        total = total - term if inversions % 2 else total + term
    return total


def test_series_matrix_det_matches_permutation_expansion():
    rng = random.Random(20)
    for tower, j in ((T4, 2), (T4, 6), (T3, 2)):
        for n in (1, 2, 3, 4):
            for _ in range(3):
                M = sample_matrix(tower, j, n, rng)
                det = M.det()
                assert det == permutation_det(M)
                assert det.prec >= M.prec - 8 * n    # the comparison means something


def form(s):
    return s.val, s.logs, s.prec


def test_is_exact_zero_needs_no_terms_and_the_precision():
    t = T3
    assert LaurentSeries.zero(t, 2, 8).is_exact_zero(8)
    assert LaurentSeries.zero(t, 2, 9).is_exact_zero(8)
    assert not LaurentSeries.zero(t, 2, 3).is_exact_zero(8)
    assert not LaurentSeries.T_power(t, 2, 5, 8).is_exact_zero(8)
    # a term beyond the precision asked for still counts
    assert not LaurentSeries.T_power(t, 2, 9, 12).is_exact_zero(8)


def test_series_matrix_product_keeps_a_zero_known_to_a_lower_precision():
    # 0 + O(T^3) times I at prec 8: the schoolbook sum is known to T^3,
    # and only exact zeros (known to the matrix's precision) are skipped
    t, prec = T3, 8
    zero, one = LaurentSeries.zero(t, 2, prec), LaurentSeries.one(t, 2, prec)
    rough = LaurentSeries.zero(t, 2, 3)
    A = SeriesMatrix(t, 2, prec, [[rough, zero], [zero, one]])
    ident = identity_matrix(t, 2, 2, prec)
    for prod in (A * ident, ident * A):
        assert [[form(e) for e in row] for row in prod.rows] == \
            [[(3, (), 3), (8, (), 8)], [(8, (), 8), (0, (0,), 8)]]


def test_series_matrix_product_matches_the_schoolbook_sum():
    # every product a*b summed onto the zero of the matrix's precision,
    # no factor skipped: the same (val, logs, prec) in every entry
    rng = random.Random(25)
    for tower, j in ((T4, 6), (T3, 2)):
        for n in (1, 2, 3):
            mats = []
            for _ in range(2):
                rows = [[rng.choice((
                    sample_series(tower, j, rng, val_range=(-1, 3)),
                    LaurentSeries.zero(tower, j, rng.choice((5, 16, 20)))))
                         for _ in range(n)] for _ in range(n)]
                mats.append(SeriesMatrix(tower, j, 16, rows))
            A, B = mats
            zero = LaurentSeries.zero(tower, j, 16)
            ref = [[form(sum((A.rows[s][k] * B.rows[k][t] for k in range(n)),
                             zero)) for t in range(n)] for s in range(n)]
            assert [[form(e) for e in row] for row in (A * B).rows] == ref


def test_det_eliminates_an_entry_known_to_a_lower_precision():
    # [[T, O(T^3)], [O(T^3), T]] has det T^2 - O(T^6) = T^2 + O(T^6);
    # skipping the O(T^3) below the pivot claimed T^2 + O(T^11)
    t, prec = T3, 10
    T = LaurentSeries.T_power(t, 2, 1, prec)
    rough = LaurentSeries.zero(t, 2, 3)
    M = SeriesMatrix(t, 2, prec, [[T, rough], [rough, T]])
    assert form(M.det()) == form(permutation_det(M)) == (2, (0,), 6)


def test_series_matrix_singular_det_is_zero():
    rng = random.Random(21)
    M = sample_matrix(T4, 2, 3, rng)
    rows = [list(r) for r in M.rows]
    rows[2] = list(rows[0])
    singular = SeriesMatrix(T4, 2, M.prec, rows)
    assert not singular.det()
    with pytest.raises(NotInvertible):
        matrix_inverse(singular)


def test_series_matrix_inverse_times_matrix_is_identity():
    rng = random.Random(22)
    for tower, j in ((T4, 6), (T3, 2)):
        for n in (3, 5):
            checked = 0
            while checked < 3:
                M = sample_matrix(tower, j, n, rng, prec=24)
                if not M.det():
                    continue
                ident = identity_matrix(tower, j, n, M.prec).rows
                assert (matrix_inverse(M) * M).rows == ident
                assert (M * matrix_inverse(M)).rows == ident
                x = [row[0] for row in matrix_inverse(M).rows]
                assert [sum((M.rows[s][t] * x[t] for t in range(n)),
                            LaurentSeries.zero(tower, j, 24))
                        for s in range(n)] == list(ident[0])
                checked += 1


def test_series_matrix_product_is_associative():
    rng = random.Random(23)
    A, B, C = (sample_matrix(T3, 2, 3, rng) for _ in range(3))
    assert ((A * B) * C).rows == (A * (B * C)).rows
    ident = identity_matrix(T3, 2, 3, 16)
    assert (ident * A).rows == A.rows == (A * ident).rows


def test_proportional_to_sees_a_perturbation_once_prec_exceeds_it():
    rng = random.Random(24)
    z = subfield_generator(T4, 6)
    unit = LaurentSeries.from_pairs(T4, 6, [(0, z), (1, z ** 5), (4, z ** 9)],
                                    64)
    for prec in (6, 10, 14):
        # unit entries, so every entry and the ratio are known mod T^prec
        one = LaurentSeries.one(T4, 6, prec)
        M = SeriesMatrix(T4, 6, prec, [[one + sample_series(T4, 6, rng, prec,
                                                            val_range=(1, 3))
                                        for _ in range(3)] for _ in range(3)])
        scaled = M.map_entries(lambda e: e * unit)
        assert M.proportional_to(scaled) and scaled.proportional_to(M)
        for k in range(2, 13):
            bump = LaurentSeries.T_power(T4, 6, k, 64)
            rows = [list(r) for r in scaled.rows]
            rows[1][2] = rows[1][2] + bump
            perturbed = SeriesMatrix(T4, 6, prec, rows)
            assert M.proportional_to(perturbed) == (k >= prec)


def test_proportional_to_decides_entries_without_terms_at_their_precision():
    # O(T^3) against T^5 is == at precision 3, so the pair does not tell
    # the matrices apart; an exact zero against T^5 at precision 10 does
    one, zero = LaurentSeries.one(T3, 2, 10), LaurentSeries.zero(T3, 2, 10)
    low = LaurentSeries.zero(T3, 2, 3)
    t5 = LaurentSeries.T_power(T3, 2, 5, 10)
    assert low == t5
    known_to_3 = SeriesMatrix(T3, 2, 10, [[one, low], [low, one]])
    exact = SeriesMatrix(T3, 2, 10, [[one, zero], [zero, one]])
    bumped = SeriesMatrix(T3, 2, 10, [[one, t5], [t5, one]])
    assert known_to_3.proportional_to(bumped)
    assert bumped.proportional_to(known_to_3)
    assert not exact.proportional_to(bumped)
    assert not bumped.proportional_to(exact)
    # no pair with terms on both sides: a term on one side is a
    # difference, and no term on either side leaves no pivot
    empty = SeriesMatrix(T3, 2, 10, [[zero, zero], [zero, zero]])
    assert not exact.proportional_to(empty)
    with pytest.raises(PrecisionExhausted):
        empty.proportional_to(SeriesMatrix(T3, 2, 10, [[low, low],
                                                       [low, low]]))


def test_proportional_to_rejects_a_size_mismatch():
    # the 2x2 identity is the leading block of the 3x3 one, which a
    # row-by-row zip alone took for proportional
    small = identity_matrix(T3, 2, 2, 8)
    big = identity_matrix(T3, 2, 3, 8)
    for a, b in ((small, big), (big, small)):
        with pytest.raises(ValueError, match="size mismatch"):
            a.proportional_to(b)
    assert small.proportional_to(small)
