"""Compare two source trees in one process: the time of a kernel or of one
command line, or every report of the verdict grid.

    python tests/kernel_ab.py OLD_SRC NEW_SRC [--rounds 41] [--samples 6]
    python tests/kernel_ab.py OLD_SRC NEW_SRC --command "AUTSPLIT ARGV"
    python tests/kernel_ab.py OLD_SRC NEW_SRC --grid

Each tree's ``autsplit`` package is imported under its own name, so the
two run side by side.

Without --command or --grid, each builds the same glued sections of one
``SectionContext`` (default (p, i, d, r, n) = (2, 2, 3, 2, 6) at prec 32,
the synth-wide shape): for ``--samples`` pairs of random automorphisms
alpha, beta of K, the pair g(alpha) o g(beta), g(alpha beta) that the
verifier's ``glue_homomorphism`` check compares, and the pair g(alpha),
g(beta).  A round is one timed pass of ``acts_like`` over every pair and
one timed pass of ``apply`` over every generator for each g(alpha).  The
script says whether the ``acts_like`` verdicts agree and whether the
``apply`` images agree in keys and in every (val, logs, prec), and exits
1 when either differs between the trees.

With --command, a round is one call of the tree's ``cli.main`` on
``--output json`` followed by the command's arguments, for instance
``--command "section synth --p 2 --i 7 --d 3 --r 1 --n 1 --prec 64
--samples 20 --seed 7"`` (the synth-deep shape, whose series work the
``acts_like`` pass does not reach).  The script exits 1 when the exit
codes or the JSON reports of the two trees differ in any round.

With --grid, each tree runs ``section synth`` once on every input of the
verdict grid, untimed: p in {2, 3, 5, 7}, i <= 3, d in {2, 3} with
gcd(d, p) = 1, b the d-part of p^i - 1 with p^(idb) <= 2^14,
1 <= r <= 2d + 1 with r prime to d, n in {1, 2, 3, 4, 6} and prec in
{2, 3, 4, 5, 8}, each with ``--samples 6 --seed 1``: 525 inputs, 135 of
them non-split (exit 1 in any tree).  The script prints each tree's
tally of exit codes and every input whose exit code or JSON report
differs, as ``OLD_CODE -> NEW_CODE  ARGV``, and exits 1 when one does.
The two trees take about 20 s together on a 2-vCPU VM.

In the timed modes, after one untimed round each, the trees take turns,
the first tree alternating.  For each kind of pass the script prints both
medians, the ratio NEW/OLD of the medians, the median of the per-round
ratios, and the interquartile range of the OLD passes relative to their
median.  Timings of one command in fresh processes spread by about a
third on a 2-vCPU VM, while ratios taken in one process stay within a
few percent.  ``build_tower`` caches each tower for the process, so the
--command rounds reuse the characteristic-2 tables that the untimed round
filled on demand: they time only the path on which every table read
hits, and a change to how entries are made on a miss needs timings of
fresh processes.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import random
import shlex
import statistics
import sys
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path
from time import perf_counter


def load(src: str, name: str, *modules: str):
    """The named modules of src/autsplit, imported as the package
    ``name``, afresh: modules an earlier load left under that name are
    dropped first."""
    for key in [k for k in sys.modules if k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = Path(src).resolve() / "autsplit"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{m}") for m in modules)


class Side:
    """One tree's context, generators, glued sections and timed passes."""

    labels = ("acts_like", "apply")

    def __init__(self, src, name, params, prec, samples, seed):
        S, self.cyclic = load(src, name, "sections", "cyclic")
        ctx = S.SectionContext(*params, prec)
        self.gens = ctx.generators()
        rng = random.Random(seed)
        self.pairs, self.glued = [], []
        for _ in range(samples):
            al, be = S.random_k_auto(ctx, rng), S.random_k_auto(ctx, rng)
            g_al, g_be = S.glue_section(ctx, al), S.glue_section(ctx, be)
            self.glued.append(g_al)
            self.pairs.append((self.cyclic.compose_semilinear(g_al, g_be),
                               S.glue_section(ctx, S.compose_auto(al, be))))
            self.pairs.append((g_al, g_be))
        self.times = []

    def run(self):
        """One timed acts_like pass, then one timed apply pass."""
        acts_like, gens = self.cyclic.acts_like, self.gens
        gc.collect()
        start = perf_counter()
        verdicts = [acts_like(f1, f2, gens) for f1, f2 in self.pairs]
        middle = perf_counter()
        images = [f.apply(G) for f in self.glued for G in gens]
        self.times.append((middle - start, perf_counter() - middle))
        return verdicts, [matrix_form(m) for m in images]


class CommandSide:
    """One tree's command line and its timed calls of one command."""

    labels = ("command",)

    def __init__(self, src, name, argv):
        self.cli, = load(src, name, "cli")
        self.argv = argv
        self.times = []

    def run(self):
        """One timed call: (exit code, standard output)."""
        gc.collect()
        start = perf_counter()
        out = report(self.cli, self.argv)
        self.times.append((perf_counter() - start,))
        return out


def report(cli, argv):
    """(exit code, standard output) of ``cli.main`` on --output json and
    argv."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--output", "json", *argv])
    return code, buf.getvalue()


def grid() -> list[list[str]]:
    """The ``section synth`` argument lists of the verdict grid, in order."""
    out = []
    for p in (2, 3, 5, 7):
        for i in (1, 2, 3):
            for d in (2, 3):
                if gcd(d, p) != 1:
                    continue
                b, m = 1, p ** i - 1        # b: the d-part of m, d prime
                while m % d == 0:
                    b, m = b * d, m // d
                if p ** (i * d * b) > 2 ** 14:
                    continue
                for r in range(1, 2 * d + 2):
                    if gcd(r, d) != 1:
                        continue
                    for n in (1, 2, 3, 4, 6):
                        for prec in (2, 3, 4, 5, 8):
                            out.append([
                                "section", "synth", "--p", str(p), "--i",
                                str(i), "--d", str(d), "--r", str(r), "--n",
                                str(n), "--prec", str(prec), "--samples", "6",
                                "--seed", "1"])
    return out


def compare_grid(trees) -> int:
    """Every grid input once in each tree; exit code 1 when one differs."""
    argvs, runs = grid(), []
    for src, name in trees:
        cli, = load(src, name, "cli")
        runs.append([report(cli, argv) for argv in argvs])
        codes = [code for code, _ in runs[-1]]
        print(f"{name.split('_')[1]}: {len(codes)} inputs: " + ", ".join(
            f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
    moved = [(a[0], b[0], argv) for a, b, argv in zip(*runs, argvs)
             if a != b]
    for a, b, argv in moved:
        print(f"{a} -> {b}  {' '.join(argv)}")
    print(f"{len(moved)} inputs differ in exit code or JSON report")
    return 1 if moved else 0


def matrix_form(m):
    return [{t: [(c.val, c.logs, c.prec) for c in e.comps]
             for t, e in row.items()} for row in m.entries]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="src directory of the reference tree")
    ap.add_argument("new", help="src directory of the changed tree")
    ap.add_argument("--rounds", type=int, default=41,
                    help="timed rounds per tree (default 41)")
    ap.add_argument("--samples", type=int, default=6,
                    help="pairs of automorphisms of K (default 6)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--params", default="2,2,3,2,6",
                    help="p,i,d,r,n of the section context")
    ap.add_argument("--prec", type=int, default=32)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--command",
                      help="time this autsplit command line instead of the "
                           "comparison kernel")
    mode.add_argument("--grid", action="store_true",
                      help="compare every report of the verdict grid")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    trees = ((args.old, "autsplit_old"), (args.new, "autsplit_new"))
    if args.grid:
        return compare_grid(trees)
    if args.command is not None:
        old, new = (CommandSide(src, name, shlex.split(args.command))
                    for src, name in trees)
    else:
        params = tuple(int(v) for v in args.params.split(","))
        old, new = (Side(src, name, params, args.prec, args.samples,
                         args.seed) for src, name in trees)
    first_old, first_new = old.run(), new.run()
    old.times.clear()
    new.times.clear()
    differ = first_old != first_new
    for k in range(args.rounds):         # alternate which tree goes first
        for side in ((old, new) if k % 2 == 0 else (new, old)):
            out = side.run()
            differ |= args.command is not None and out != first_old
    if args.command is not None:
        print(f"{args.command!r}, {args.rounds} rounds each")
    else:
        print(f"{len(old.pairs)} acts_like pairs and "
              f"{len(old.glued) * len(old.gens)} apply calls a pass, "
              f"{args.rounds} rounds each")
    for k, label in enumerate(old.labels):
        t_old = [t[k] for t in old.times]
        med_old, med_new = (statistics.median(t_old),
                            statistics.median(t[k] for t in new.times))
        q1, _, q3 = (statistics.quantiles(t_old, n=4) if len(t_old) > 1
                     else (med_old,) * 3)   # one round has no spread
        pairs = statistics.median(b[k] / a[k] for a, b in
                                  zip(old.times, new.times))
        print(f"{label:9}: old median {med_old:.4f} s, new median "
              f"{med_new:.4f} s, ratio {med_new / med_old:.3f} (median "
              f"of pair ratios {pairs:.3f}), old IQR "
              f"{(q3 - q1) / med_old:.3f} of its median")
    if args.command is not None:
        if differ:
            print("exit codes or JSON reports DIFFER")
            return 1
        print(f"exit code {first_old[0]} and JSON reports identical in "
              "every round")
        return 0
    (v_old, im_old), (v_new, im_new) = first_old, first_new
    print("apply images", "identical" if im_old == im_new else "DIFFER")
    if v_old != v_new:
        print(f"acts_like verdicts differ: old {v_old}, new {v_new}")
    else:
        print(f"acts_like verdicts identical ({sum(v_old)} of {len(v_old)} "
              "true)")
    return int(first_old != first_new)


if __name__ == "__main__":
    sys.exit(main())
