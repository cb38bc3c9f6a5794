import itertools
import random

import pytest

from autsplit.rootdatum import (BadTower, ExtensionProblem, FiniteGroupTable,
                                SimpleType, TitsIndexDescriptor, aut_r,
                                extension_splits, ses_verdict)


# -- small standard groups ----------------------------------------------------

def cyclic_table(n):
    return FiniteGroupTable([[(x + y) % n for y in range(n)] for x in range(n)])


def direct_product_table(g1, g2):
    """(x1, x2) is numbered x1 * |g2| + x2."""
    n2 = g2.order
    elems = list(itertools.product(range(g1.order), range(n2)))
    table = [[g1.table[x1][y1] * n2 + g2.table[x2][y2] for y1, y2 in elems]
             for x1, x2 in elems]
    return FiniteGroupTable(table, g1.identity * n2 + g2.identity)


def symmetric3_table():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(p[q[m]] for m in range(3))] for q in perms]
             for p in perms]
    return FiniteGroupTable(table, index[(0, 1, 2)])


def quaternion_table():
    """Q8 as the units +-1, +-i, +-j, +-k, numbered 1, -1, i, -i, j, -j, k,
    -k: element 2u + s is (-1)^s times unit u of 1, i, j, k."""
    # unit products: (sign, unit) of u * v
    prod = [[(0, 0), (0, 1), (0, 2), (0, 3)],
            [(0, 1), (1, 0), (0, 3), (1, 2)],
            [(0, 2), (1, 3), (1, 0), (0, 1)],
            [(0, 3), (0, 2), (1, 1), (1, 0)]]

    def mul(x, y):
        sign, unit = prod[x // 2][y // 2]
        return 2 * unit + (sign + x + y) % 2

    return FiniteGroupTable([[mul(x, y) for y in range(8)] for x in range(8)])


def cube(g, x):
    return g.table[x][g.table[x][x]]


def test_aut_r_table():
    assert aut_r(SimpleType("A", 1)) == "trivial"
    assert aut_r(SimpleType("A", 3, "adjoint")) == "C2"
    assert aut_r(SimpleType("D", 4, "simply_connected")) == "S3"
    assert aut_r(SimpleType("D", 4, "adjoint")) == "S3"
    assert aut_r(SimpleType("D", 4, "intermediate")) == "unsupported"
    assert aut_r(SimpleType("D", 5, "intermediate")) == "C2"
    assert aut_r(SimpleType("D", 6, "intermediate")) == "unsupported"
    assert aut_r(SimpleType("D", 5)) == "C2"
    assert aut_r(SimpleType("E", 6)) == "C2"
    for fam, rank in (("B", 3), ("C", 4), ("E", 7), ("E", 8), ("F", 4),
                      ("G", 2)):
        assert aut_r(SimpleType(fam, rank)) == "trivial"


def test_simple_type_rank_bounds():
    with pytest.raises(ValueError):
        SimpleType("E", 5)
    with pytest.raises(ValueError):
        SimpleType("F", 3)
    with pytest.raises(ValueError):
        SimpleType("G", 3)
    with pytest.raises(ValueError):
        SimpleType("H", 2)


def test_tits_index_admissibility():
    TitsIndexDescriptor(2, SimpleType("A", 2))
    TitsIndexDescriptor(3, SimpleType("D", 4))
    TitsIndexDescriptor(6, SimpleType("D", 4))
    with pytest.raises(ValueError):
        TitsIndexDescriptor(3, SimpleType("A", 2))
    with pytest.raises(ValueError):
        TitsIndexDescriptor(2, SimpleType("G", 2))


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroupTable([[0, 1], [1, 1]])        # no inverse for 1
    with pytest.raises(ValueError):
        FiniteGroupTable([[1, 0], [0, 1]])        # identity fails
    tbl = [[(x + y) % 3 for y in range(3)] for x in range(3)]
    tbl[2][2] = 0
    tbl[2][1] = 1  # breaks associativity/latin structure
    with pytest.raises(ValueError):
        FiniteGroupTable(tbl)


def test_c4_over_c2_does_not_split():
    g = cyclic_table(4)
    prob = ExtensionProblem(g, frozenset({0, 2}))
    splits, comp = extension_splits(prob)
    assert not splits and comp is None


def test_s3_over_a3_splits():
    g = symmetric3_table()
    # A3 = the two 3-cycles and the identity
    a3 = frozenset(x for x in range(6) if cube(g, x) == g.identity)
    assert len(a3) == 3
    prob = ExtensionProblem(g, a3)
    splits, comp = extension_splits(prob)
    assert splits
    assert g.is_subgroup(comp) and comp & a3 == {g.identity}
    assert len(comp) == 2


def test_c2xc2_over_first_factor_splits():
    g = direct_product_table(cyclic_table(2), cyclic_table(2))
    n = frozenset({0, 2})   # first factor {(0,0),(1,0)} under x1*2+x2
    prob = ExtensionProblem(g, n)
    splits, comp = extension_splits(prob)
    assert splits and comp == frozenset({0, 1})


def test_c6_over_c3_splits():
    g = cyclic_table(6)
    prob = ExtensionProblem(g, frozenset({0, 2, 4}))
    splits, comp = extension_splits(prob)
    assert splits and comp == frozenset({0, 3})


def test_q8_over_center_does_not_split():
    g = quaternion_table()
    center = frozenset({0, 1})   # {1, -1}
    prob = ExtensionProblem(g, center)
    splits, comp = extension_splits(prob)
    assert not splits and comp is None


def test_schur_zassenhaus_coprime_cases():
    # gcd(|N|, |G/N|) = 1 must always split
    cases = [(cyclic_table(6), frozenset({0, 3})),          # C2 in C6
             (cyclic_table(15), frozenset({0, 5, 10})),     # C3 in C15
             (symmetric3_table(), None)]
    for g, n in cases:
        if n is None:
            n = frozenset(x for x in range(6) if cube(g, x) == g.identity)
        splits, comp = extension_splits(ExtensionProblem(g, n))
        assert splits


def test_relabeling_invariance():
    rng = random.Random(0)
    g = cyclic_table(4)
    n = frozenset({0, 2})
    base, _ = extension_splits(ExtensionProblem(g, n))
    for _ in range(5):
        perm = list(range(4))
        tail = perm[1:]
        rng.shuffle(tail)
        perm = [0] + tail
        inv = [perm.index(k) for k in range(4)]
        table = [[perm[g.table[inv[x]][inv[y]]] for y in range(4)]
                 for x in range(4)]
        g2 = FiniteGroupTable(table, perm[0])
        n2 = frozenset(perm[x] for x in n)
        got, _ = extension_splits(ExtensionProblem(g2, n2))
        assert got == base


def test_ses_verdict_unconditional_cases():
    # g = 1 and g = 6 split and never consult the tower
    assert ses_verdict(TitsIndexDescriptor(1, SimpleType("B", 3)))["splits"]
    assert ses_verdict(TitsIndexDescriptor(6, SimpleType("D", 4)))["splits"]


def test_ses_verdict_quadratic_case():
    idx = TitsIndexDescriptor(2, SimpleType("A", 3))
    tower = ExtensionProblem(cyclic_table(4), frozenset({0, 2}))
    out = ses_verdict(idx, tower)
    assert not out["splits"]
    split_tower = ExtensionProblem(
        direct_product_table(cyclic_table(2), cyclic_table(2)),
        frozenset({0, 2}))
    assert ses_verdict(idx, split_tower)["splits"]
    with pytest.raises(BadTower):
        ses_verdict(idx, None)
    with pytest.raises(BadTower):
        ses_verdict(TitsIndexDescriptor(3, SimpleType("D", 4)), tower)


def test_extension_order_bound():
    from autsplit.rootdatum import OrderBound
    with pytest.raises(OrderBound):
        FiniteGroupTable([[0] * 65 for _ in range(65)])
