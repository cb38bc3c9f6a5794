"""Combinatorics of based root datum automorphisms and extension splitting.

For a simple based root datum the automorphism group is trivial, C2 or
S3, read off the Dynkin diagram (with the intermediate-isogeny D_{2n}
caveat, which we refuse rather than guess).  The splitting question for
the associated short exact sequence reduces, for inner classifying degree
g in {2, 3}, to whether an abstract extension of finite groups

    1 -> Gal(l/k) -> Gal(l/k0) -> Gal(k/k0) -> 1

splits, which is decided by exhaustive complement search in a supplied
multiplication table.  For g = 1 or 6 the sequence always splits and the
table is never consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

MAX_GROUP_ORDER = 64

_FAMILIES = {"A", "B", "C", "D", "E", "F", "G"}
_ISOGENIES = {"simply_connected", "adjoint", "intermediate"}


class OrderBound(ValueError):
    """Group order exceeds the exhaustive-search bound."""


class BadTower(ValueError):
    """The supplied extension problem does not match the Tits index."""


@dataclass(frozen=True)
class SimpleType:
    family: str
    rank: int
    isogeny: str = "simply_connected"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.isogeny not in _ISOGENIES:
            raise ValueError(f"unknown isogeny type {self.isogeny!r}")
        lo = {"A": 1, "B": 2, "C": 2, "D": 4, "F": 4, "G": 2}
        if self.family == "E":
            if self.rank not in (6, 7, 8):
                raise ValueError("E rank must be 6, 7 or 8")
        elif self.family in ("F", "G"):
            if self.rank != lo[self.family]:
                raise ValueError(f"{self.family} rank must be {lo[self.family]}")
        elif self.rank < lo[self.family]:
            raise ValueError(f"{self.family} rank must be >= {lo[self.family]}")


def aut_r(t: SimpleType) -> str:
    """Automorphism group of the based root datum: trivial, C2, S3, or
    unsupported (intermediate isogeny in type D with even rank)."""
    fam, rank = t.family, t.rank
    if fam == "A":
        return "trivial" if rank == 1 else "C2"
    if fam == "D":
        if t.isogeny == "intermediate" and rank % 2 == 0:
            return "unsupported"
        if rank == 4:
            return "S3"
        return "C2"
    if fam == "E" and rank == 6:
        return "C2"
    return "trivial"


_ADMISSIBLE_G = {"trivial": {1}, "C2": {1, 2}, "S3": {1, 2, 3, 6}}


@dataclass(frozen=True)
class TitsIndexDescriptor:
    """^g X_{n, l}: the type plus the order g of the classifying Galois group."""
    g: int
    type: SimpleType

    def __post_init__(self):
        auts = aut_r(self.type)
        if auts == "unsupported":
            raise ValueError("intermediate D_{2n} is out of supported range")
        if self.g not in _ADMISSIBLE_G[auts]:
            raise ValueError(f"g = {self.g} not admissible for Aut R = {auts}")


class FiniteGroupTable:
    """Finite group by multiplication table; axioms verified at load."""

    def __init__(self, table: list[list[int]], identity: int = 0):
        order = len(table)
        if order > MAX_GROUP_ORDER:
            raise OrderBound(f"order {order} exceeds bound {MAX_GROUP_ORDER}")
        for row in table:
            if len(row) != order or any(not 0 <= v < order for v in row):
                raise ValueError("table is not closed on {0..order-1}")
        for x in range(order):
            if table[identity][x] != x or table[x][identity] != x:
                raise ValueError("identity element fails")
        for x in range(order):
            if identity not in table[x]:
                raise ValueError(f"element {x} has no inverse")
        for x in range(order):
            for y in range(order):
                for z in range(order):
                    if table[table[x][y]][z] != table[x][table[y][z]]:
                        raise ValueError("associativity fails")
        self.order = order
        self.table = tuple(tuple(r) for r in table)
        self.identity = identity

    def inv(self, x: int) -> int:
        return self.table[x].index(self.identity)

    def is_subgroup(self, S: FrozenSet[int]) -> bool:
        return (self.identity in S
                and all(self.table[x][y] in S for x in S for y in S))

    def is_normal(self, S: FrozenSet[int]) -> bool:
        return all(self.table[self.table[g][s]][self.inv(g)] in S
                   for g in range(self.order) for s in S)

    def closure(self, seed: FrozenSet[int], bound: int) -> Optional[FrozenSet[int]]:
        """Subgroup generated by seed, or None once it outgrows bound."""
        elems = set(seed) | {self.identity}
        frontier = list(elems)
        while frontier:
            nxt = []
            for x in frontier:
                for y in list(elems):
                    for z in (self.table[x][y], self.table[y][x]):
                        if z not in elems:
                            elems.add(z)
                            nxt.append(z)
                            if len(elems) > bound:
                                return None
            frontier = nxt
        return frozenset(elems)

    @staticmethod
    def from_json_dict(data) -> tuple[FiniteGroupTable, FrozenSet[int]]:
        """Group and designated subset from {order, table, normal_subset}
        and an optional identity; any malformed input is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError("group table must be a JSON object")
        missing = [k for k in ("order", "table", "normal_subset") if k not in data]
        if missing:
            raise ValueError(f"group table lacks {', '.join(missing)}")
        order, table = data["order"], data["table"]
        identity, normal = data.get("identity", 0), data["normal_subset"]
        if not (_is_int(order) and isinstance(table, list) and all(
                isinstance(row, list) and all(map(_is_int, row)) for row in table)):
            raise ValueError("order must be an integer and table a list of "
                             "lists of integers")
        if len(table) != order:
            raise ValueError("declared order does not match the table")
        element = lambda v: _is_int(v) and 0 <= v < order
        if not element(identity):
            raise ValueError(f"identity must be one of 0..{order - 1}")
        if not (isinstance(normal, list) and all(map(element, normal))):
            raise ValueError(f"normal_subset must list elements of 0..{order - 1}")
        return FiniteGroupTable(table, identity), frozenset(normal)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class ExtensionProblem:
    group: FiniteGroupTable
    normal: FrozenSet[int]

    def __post_init__(self):
        if not self.group.is_subgroup(self.normal):
            raise ValueError("designated subset is not a subgroup")
        if not self.group.is_normal(self.normal):
            raise ValueError("designated subgroup is not normal")
        if self.group.order % len(self.normal) != 0:
            raise ValueError("subgroup order must divide the group order")


def extension_splits(prob: ExtensionProblem):
    """Exhaustive complement search.

    Looks for a subgroup H with |H| = |G|/|N| and H meeting N only in the
    identity; such an H maps isomorphically onto the quotient, i.e. the
    extension splits.  Returns (True, H) or (False, None).
    """
    G, N = prob.group, prob.normal
    target = G.order // len(N)
    e = G.identity
    if target == 1:
        return True, frozenset({e})
    seen: set[FrozenSet[int]] = set()

    def try_extend(S: FrozenSet[int]):
        if len(S) == target:
            return S
        for x in range(G.order):
            if x in S or x in N:
                continue
            C = G.closure(S | {x}, target)
            if C is None or C in seen:
                continue
            seen.add(C)
            if len(C & N) > 1 or target % len(C) != 0:
                continue
            found = C if len(C) == target else try_extend(C)
            if found is not None and len(found & N) == 1:
                return found
        return None

    result = try_extend(frozenset({e}))
    return (True, result) if result is not None else (False, None)


def ses_verdict(idx: TitsIndexDescriptor,
                tower: Optional[ExtensionProblem] = None) -> dict:
    """Splitting verdict for the semilinear sequence of the quasi-split
    group with Tits index idx.  g in {1, 6}: splits unconditionally.
    g in {2, 3}: decided by complement search in the supplied Galois
    tower, whose normal subgroup must have order g."""
    if idx.g in (1, 6):
        return {"splits": True, "reason": f"g = {idx.g} always splits",
                "complement": None}
    if tower is None:
        raise BadTower("g in {2, 3} needs a Galois tower")
    if len(tower.normal) != idx.g:
        raise BadTower(f"normal subgroup order {len(tower.normal)} != g = {idx.g}")
    splits, comp = extension_splits(tower)
    return {"splits": splits,
            "reason": "complement found" if splits else "no complement exists",
            "complement": sorted(comp) if comp is not None else None}

