"""The benchmark's layer tracer reaches into the package by name: it wraps
the functions listed in benchmark/layertrace.py, counts algebra-matrix
entry pairs through the dense ``rows`` view and series term pairs from the
log windows.  These tests load that file read-only, so a refactor that
breaks the traced run, or changes what a counter means, shows here."""

import importlib
import random
import types
from pathlib import Path

from autsplit.cyclic import AlgebraElement, AlgebraMatrix
from autsplit.gftower import LOG_ZERO, build_tower
from autsplit.sections import SectionContext
from autsplit.series import LaurentSeries

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmark" / "layertrace.py"


def load_layertrace():
    module = types.ModuleType("layertrace")
    source = LAYERTRACE.read_text(encoding="utf-8")
    exec(compile(source, str(LAYERTRACE), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    lt = load_layertrace()
    for name, modname, path in lt._TARGETS:
        home = importlib.import_module(f"autsplit.{modname}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(home, owner_name) if owner_name else home
        # the tracer replaces what the owner's namespace itself holds
        assert callable(vars(owner).get(attr)), name


def test_matrix_entry_pairs_counts_the_products_made(monkeypatch):
    lt = load_layertrace()
    ctx = SectionContext(2, 2, 3, 1, 3, prec=8)
    alg = ctx.algebra
    Y = ctx.const_matrix(ctx.phi(ctx.y), 1)
    W = ctx.matrix_w()
    # a stored entry that is zero at a lower precision is no pair
    low_zero = alg.scalar(alg.zero().comps[0].truncate(4))
    D = AlgebraMatrix(alg, [{0: alg.u(), 2: low_zero}, {}, {1: alg.one()}])
    made = []
    product = AlgebraElement.__mul__

    def counting(a, b):
        made.append(1)
        return product(a, b)

    for A, B in ((Y, W), (W, Y), (Y, D), (D, Y), (D, D)):
        stored = sum(1 for row in A.entries for k, a in row.items()
                     if not a.is_zero()
                     for b in B.entries[k].values() if not b.is_zero())
        assert lt._matrix_entry_pairs(A, B) == stored
        made.clear()
        monkeypatch.setattr(AlgebraElement, "__mul__", counting)
        A * B
        monkeypatch.setattr(AlgebraElement, "__mul__", product)
        assert len(made) == stored


def schoolbook_pairs(a, b):
    """The nonzero coefficient pairs the schoolbook product multiplies:
    every (ia, ib) with both logs nonzero and ia + ib below the product's
    relative precision min(a.prec - a.val, b.prec - b.val)."""
    if not a.logs or not b.logs:
        return 0
    room = min(a.prec + b.val, b.prec + a.val) - a.val - b.val
    return sum(1 for ia, la in enumerate(a.logs) if la != LOG_ZERO
               for ib, lb in enumerate(b.logs[:max(room - ia, 0)])
               if lb != LOG_ZERO)


def test_series_term_pairs_counts_the_schoolbook_pairs():
    # the counter measures the work a product asks for, whatever route the
    # product takes: squares, sparse factors, truncation, empty windows
    lt = load_layertrace()
    rng = random.Random(9)
    tower = build_tower(2, 2, 3, 1)
    step = (tower.q - 1) // 3
    for _ in range(300):
        density = rng.choice((1.0, 0.5, 0.125, 0.0))
        windows = []
        for _ in range(2):
            n = rng.randrange(1, 30)
            logs = [rng.randrange(3) * step if rng.random() < density
                    else LOG_ZERO for _ in range(n)]
            windows.append((rng.randrange(-4, 5), logs, n + rng.randrange(-6, 10)))
        if rng.random() < 0.3:
            windows[1] = (rng.randrange(-4, 5),) + windows[0][1:]  # a square
        a, b = (LaurentSeries(tower, 2, v, logs, v + prec)
                for v, logs, prec in windows)
        assert lt._series_term_pairs(a, b) == schoolbook_pairs(a, b), (a, b)
