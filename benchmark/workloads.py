"""The benchmark's workloads: each is one round of autsplit commands made
from a seed.

Sizes are fixed per workload and only values depend on the seed, so every
seed asks for the same amount of work: the coefficients of hanke's alpha
and of the nrd element, synth's --seed, the (n, d) of the non-split
inputs, the Brauer and descent-form parameters, and the labelling of the
group tables.  Every round ends with the same light coverage commands, so
that each layer the trace wraps runs at least once on every workload and no
per-layer reading is a constant zero.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import d_part, splits_charp

WORKLOADS = ("synth-wide", "synth-deep", "queries")


@dataclass
class Command:
    """One CLI call plus what the checks need to know about its inputs."""
    argv: list
    kind: str                      # synth, hanke, nrd, split-check, ...
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    commands: list
    tables: list                   # (p, i, d, b) of every field table used


def _synth(rng, p, i, d, r, n, prec, samples):
    seed = rng.randrange(1 << 30)
    argv = ["section", "synth", "--p", p, "--i", i, "--d", d, "--r", r,
            "--n", n, "--prec", prec, "--samples", samples, "--seed", seed]
    info = dict(p=p, i=i, d=d, r=r, n=n, prec=prec, seed=seed)
    return Command([str(a) for a in argv], "synth", info)


def _series_text(rng, q_sub, lo, hi, density=1.0):
    """A polynomial sum g^k*T^e for lo <= e < hi, with a nonzero term at
    lo; g is the generator of the coefficient field, of order q_sub - 1."""
    terms = []
    for e in range(lo, hi):
        if e == lo or rng.random() < density:
            terms.append(f"g^{rng.randrange(q_sub - 1)}*T^{e}")
    return "+".join(terms)


def _hanke(rng, p, i, r, prec, frob):
    alpha = _series_text(rng, p ** i, 1, 8)
    argv = ["hanke", "--p", p, "--i", i, "--r", r, "--alpha", alpha,
            "--frob", frob, "--prec", prec]
    return Command([str(a) for a in argv], "hanke",
                   dict(p=p, i=i, r=r, alpha=alpha, frob=frob, prec=prec))


def _nrd(rng, p, i, d, r, prec):
    comps = [_series_text(rng, p ** (i * d), rng.randrange(3), 6, 0.6)
             for _ in range(d)]
    element = ";".join(comps)
    argv = ["nrd", "--p", p, "--i", i, "--d", d, "--r", r, "--prec", prec,
            "--element", element]
    return Command([str(a) for a in argv], "nrd",
                   dict(p=p, i=i, d=d, r=r, prec=prec, element=element))


def _non_split(rng, p, i, d_choices, as_synth):
    """A non-split (n, d) at F_{p^i}: d divides p^i - 1 and n is prime to d."""
    d = rng.choice(d_choices)
    n = rng.choice([m for m in (1, 2, 4, 8) if m % d])
    info = dict(p=p, i=i, d=d, n=n)
    if as_synth:
        cmd = _synth(rng, p, i, d, 1, n, 32, 20)
        cmd.info.update(info)
        return cmd
    argv = ["split-check", "--charp", "--n", n, "--d", d, "--p", p, "--i", i]
    return Command([str(a) for a in argv], "split-check", info)


# -- finite groups for extension split and ses-verdict ---------------------

def _cyclic(n):
    return [[(x + y) % n for y in range(n)] for x in range(n)]


def _direct(t1, t2):
    n1, n2 = len(t1), len(t2)
    return [[t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2]
             for y in range(n1 * n2)] for x in range(n1 * n2)]


def _dihedral(k):
    """r^a s^b as a + k*b."""
    def mul(x, y):
        a, b = x % k, x // k
        c, e = y % k, y // k
        return ((a + (c if b == 0 else -c)) % k) + k * ((b + e) % 2)
    return [[mul(x, y) for y in range(2 * k)] for x in range(2 * k)]


def _dicyclic(k):
    """Generalised quaternion group of order 4k: x^a y^b as a + 2k*b with
    x^(2k) = 1, y^2 = x^k, y x y^-1 = x^-1."""
    m = 2 * k
    def mul(u, v):
        a, b = u % m, u // m
        c, e = v % m, v // m
        if b == 0:
            return (a + c) % m + m * e
        if e == 0:
            return (a - c) % m + m
        return (a - c + k) % m
    return [[mul(u, v) for v in range(2 * m)] for u in range(2 * m)]


def _relabel(rng, table, normal):
    """The same group under a seeded relabelling of its elements."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return {"order": n, "table": out, "identity": perm[0],
            "normal_subset": sorted(perm[x] for x in normal)}


def _group_command(rng, workdir: Path, tag, table, normal, ses):
    doc = _relabel(rng, table, normal)
    path = workdir / f"{tag}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if ses:
        argv = ["ses-verdict", "--g", str(len(normal)), "--family", "A",
                "--rank", str(rng.randrange(2, 6)), "--tower-file", str(path)]
        kind = "ses-verdict"
    else:
        argv = ["extension", "split", "--file", str(path)]
        kind = "extension"
    return Command(argv, kind, {"group": doc})


def _coverage(rng, workdir: Path):
    return [
        _synth(rng, 2, 1, 3, 1, 1, 8, 2),
        _hanke(rng, 2, 1, 1, 12, 0),
        _nrd(rng, 3, 1, 2, 1, 8),
        _non_split(rng, 2, 2, (3,), as_synth=False),
        _group_command(rng, workdir, "cover-c4", _cyclic(4), [0, 2], ses=False),
    ]


def _queries(rng, workdir: Path):
    cmds = [
        _hanke(rng, 2, 2, 1, 128, 0),
        _hanke(rng, 2, 2, 2, 128, 1),
        _hanke(rng, 2, 4, 1, 96, 0),
        _hanke(rng, 2, 4, 1, 96, 3),
        _nrd(rng, 3, 2, 5, 1, 48),
        _non_split(rng, 2, 18, (3, 7), as_synth=False),
        _non_split(rng, 2, 20, (3, 5), as_synth=False),
        _non_split(rng, 2, 16, (3, 5), as_synth=True),
        _group_command(rng, workdir, "dihedral48", _dihedral(24),
                       range(24), ses=False),
        _group_command(rng, workdir, "quaternion32", _dicyclic(8),
                       range(16), ses=False),
        _group_command(rng, workdir, "c2xc16", _direct(_cyclic(2), _cyclic(16)),
                       [0, 16], ses=True),
        _group_command(rng, workdir, "quaternion64", _dicyclic(16),
                       [0, 16], ses=True),
    ]
    for _ in range(2):
        # d is prime, so every r in [1, d) gives a division algebra
        n, d, m = rng.randrange(1, 7), rng.choice((2, 3, 5, 7)), rng.randrange(1, 13)
        r = rng.randrange(1, d)
        cmds.append(Command(["descent-form", "--n", str(n), "--d", str(d),
                             "--r", str(r), "--m", str(m)], "descent-form",
                            dict(n=n, d=d, r=r, m=m)))
    d = rng.choice((3, 4, 5, 6, 7))
    r, m = rng.randrange(1, 20), rng.randrange(1, 7)
    for op in ("inv", "basechange"):
        cmds.append(Command(["brauer", op, "--d", str(d), "--r", str(r),
                             "--m", str(m)], "brauer", dict(op=op, d=d, r=r, m=m)))
    return cmds


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    """The commands of one round of ``name`` for ``seed``.

    Group tables are written under ``workdir``, since the CLI reads them
    from files.
    """
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "synth-wide":
        # SL_6(A(3,2)) over F_4((T)): n = 6 puts most of the time into the
        # algebra-matrix products of acts_like and the short series sums
        # they make; the tables are the char-2 kind, F_{2^18}.
        main = [_synth(rng, 2, 2, 3, 2, 6, 32, 20)]
    elif name == "synth-deep":
        # SL_1(A(3,1)) over F_{2^7}((T)) at prec 64: n = 1 leaves the matrix
        # layer idle, so the run is series products, Horner substitution
        # and reversion; F_{2^21} is the largest table the limit allows.
        main = [_synth(rng, 2, 7, 3, 1, 1, 64, 20)]
    elif name == "queries":
        # The other commands: norm-equation lifting and reversion in
        # series, descent, brauer and rootdatum, and odd-characteristic
        # tables (F_{3^10}) at set-up.
        main = _queries(rng, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    commands = main + _coverage(rng, workdir)
    return Workload(name, commands, tables_used(commands))


def tables_used(commands) -> list:
    """(p, i, d, b) of the tables the commands build, in first-use order.

    synth builds (p, i, d, b) with b the d-part of p^i - 1, but only when
    the input splits; hanke builds (p, i, 3, 1) and nrd (p, i, d, 1).
    """
    out = []
    for cmd in commands:
        f = cmd.info
        if cmd.kind == "synth" and splits_charp(f["n"], f["d"], f["p"], f["i"]):
            key = (f["p"], f["i"], f["d"], d_part(f["p"] ** f["i"] - 1, f["d"])[1])
        elif cmd.kind == "hanke":
            key = (f["p"], f["i"], 3, 1)
        elif cmd.kind == "nrd":
            key = (f["p"], f["i"], f["d"], 1)
        else:
            continue
        if key not in out:
            out.append(key)
    return out
