"""The benchmark's layer tracer reaches into the package by name: it wraps
the functions listed in benchmark/layertrace.py and counts algebra-matrix
entry pairs through the dense ``rows`` view.  These tests load that file
read-only, so a refactor that breaks the traced run shows here."""

import importlib
import types
from pathlib import Path

from autsplit.cyclic import AlgebraElement, AlgebraMatrix
from autsplit.sections import SectionContext

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
