"""Compare two source trees: the time of a kernel or of one command line,
or every report of the verdict grid, in one process; or the benchmark's
end-to-end metrics, in alternating processes.

    python tests/kernel_ab.py OLD_SRC NEW_SRC [--rounds 41] [--samples 6]
    python tests/kernel_ab.py OLD_SRC NEW_SRC --command "AUTSPLIT ARGV"
    python tests/kernel_ab.py OLD_SRC NEW_SRC --grid
    python tests/kernel_ab.py OLD_SRC NEW_SRC --bench OUT.json

Except with --bench, each tree's ``autsplit`` package is imported under
its own name, so the two run side by side.

Without --command or --grid, each builds the same glued sections of one
``SectionContext`` (default (p, i, d, r, n) = (2, 2, 3, 2, 6) at prec 32,
the synth-wide shape): for ``--samples`` pairs of random automorphisms
alpha, beta of K, the pair g(alpha) o g(beta), g(alpha beta) that the
verifier's ``glue_homomorphism`` check compares, and the pair g(alpha),
g(beta).  A round is one timed pass of ``acts_like`` over every pair and
one timed pass of ``apply`` over every generator for each g(alpha).  The
script says whether the ``acts_like`` verdicts agree and whether the
``apply`` images agree in keys and in every (val, logs, prec), and exits
1 when either differs between the trees.  It also prints, per tree, how
many of the pairs ``acts_like`` decides without calling ``apply``: in a
tree that decides from the stored data alone when they agree up to one
constant of E (equal data among them), those are the pairs that rule
decided.

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

With --bench, each tree's ``src/`` and ``benchmark/``, found next to
OLD_SRC and NEW_SRC, are copied without ``__pycache__`` into a temporary
directory, and ``benchmark/run.py --workload W --seed S --seconds X``
runs there with PYTHONDONTWRITEBYTECODE=1, so both trees start with the
same bytecode state.  X is the ``run_seconds`` of the ``BENCHMARK.json``
next to NEW_SRC.  For each workload named there, ten pairs (``PAIRS``)
run one after the other at --seed S, the parent (OLD) first in even pairs
and the change (NEW) first in odd ones, and then two more pairs
(``HELD_OUT``) in the same order at the held-out seed S + 1.  OUT.json
gets every run's end-to-end metrics and calibration median, and per
metric the runs of each side, their medians and quartiles
(``statistics.quantiles(method='inclusive')``), the pairs the change
wins, its median over the parent's and whether that is within the
metric's bound from ``BENCHMARK.json``; the held-out pairs get the same
under ``held_out``.  It also says, per seed, whether every report digest
agrees between the two sides: only the SHA-256 fields are compared,
since the command lines name inputs under each copy.  ``commits`` names,
for each tree, the ``git rev-parse HEAD`` of the checkout whose root
holds its src/, and whether that src/ differs from HEAD, or is null when
the tree is not the root of a checkout.  The script exits 1 when a
digest differs or a run reports a failed check.  With run_seconds 35 the
three workloads take about 50 minutes on a 2-vCPU VM.

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
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path
from time import perf_counter

PAIRS = 10      # alternating benchmark pairs per workload with --bench
HELD_OUT = 2    # ... and alternating pairs at the held-out seed + 1


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

    def without_apply(self) -> int:
        """How many pairs ``acts_like`` decides without calling ``apply``."""
        cls = self.cyclic.SemilinearAuto
        apply, calls, count = cls.apply, [], 0
        cls.apply = lambda f, *args: calls.append(1) or apply(f, *args)
        try:
            for f1, f2 in self.pairs:
                calls.clear()
                self.cyclic.acts_like(f1, f2, self.gens)
                count += not calls
        finally:
            cls.apply = apply
        return count

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


def copy_tree(src: str, dest: Path) -> Path:
    """The src/ and benchmark/ next to src, copied to dest without
    ``__pycache__`` or the benchmark's output."""
    root = Path(src).resolve().parent
    for sub in ("src", "benchmark"):
        shutil.copytree(root / sub, dest / sub, ignore=shutil.ignore_patterns(
            "__pycache__", "out"))
    return dest


def tree_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of every file under root/src."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmark/run.py`` process in root: its result line, the
    median calibration of its rounds and its report digests."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{workload} in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}") from None
    calibration = [float(v) for line in lines
                   if line.startswith("round times, calibration (s):")
                   for v in line.split(":", 1)[1].split()]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "calibration_s": statistics.median(calibration or [0.0]),
            "digests": re.findall(r"^report +\d+ sha256=(\w+)", proc.stdout,
                                  re.M)}


def spread(values) -> dict:
    """Median and quartiles, inclusive method; one value is all three."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else [values[0]] * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs, end_to_end) -> dict:
    """Per end-to-end metric of BENCHMARK.json ({name, better, bound}), the
    summary of pairs, a list of (parent metrics, change metrics) dicts."""
    out = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        lower = spec.get("better", "lower") == "lower"
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(old, new))
        med_old, med_new = statistics.median(old), statistics.median(new)
        ratio = med_new / med_old if med_old else float("inf")
        out[name] = {
            "parent_runs": [round(v, 4) for v in old],
            "change_runs": [round(v, 4) for v in new],
            "change_wins": f"{wins}/{len(pairs)}",
            "parent": spread(old), "change": spread(new),
            "change_over_parent": round(ratio, 4),
            "within_bound": (ratio <= 1 + bound) if lower
                            else (ratio >= 1 - bound)}
    return out


def commit(src: str) -> dict | None:
    """The HEAD of the checkout whose root holds src, and whether its src/
    differs from HEAD (untracked files included); None outside a
    checkout."""
    root = Path(src).resolve().parent
    git = lambda *args: subprocess.run(["git", *args], cwd=root,
                                       capture_output=True, text=True)
    try:
        top = git("rev-parse", "--show-toplevel", "HEAD")
        status = git("status", "--porcelain", "--", "src")
    except OSError:                     # no git
        return None
    lines = top.stdout.split()
    if top.returncode or status.returncode or len(lines) != 2 \
            or Path(lines[0]).resolve() != root:
        return None
    return {"head": lines[1], "src_dirty": bool(status.stdout.strip())}


def bench_pairs(roots, name, seed, seconds, count, end_to_end):
    """count alternating pairs of ``bench_run`` on workload name at seed,
    the parent first in even pairs: (their record, whether every digest
    agrees and every run is correct)."""
    runs = []
    for k in range(count):
        pair = [None, None]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            pair[side] = bench_run(roots[side], name, seed, seconds)
            print(f"{name} seed {seed} pair {k} "
                  f"{('parent', 'change')[side]}: "
                  + " ".join(f"{m}={v:.4f}" for m, v in
                             pair[side]["metrics"].items()), flush=True)
        runs.append(pair)
    digests = {tuple(r["digests"]) for pair in runs for r in pair}
    agree = len(digests) == 1 and bool(next(iter(digests)))
    correct = all(r["correct"] for pair in runs for r in pair)
    record = {
        "summary": summarize([(p["metrics"], c["metrics"]) for p, c in runs],
                             end_to_end),
        "runs": [{side: {k: v for k, v in r.items() if k != "digests"}
                  for side, r in zip(("parent", "change"), pair)}
                 for pair in runs],
        "reports": {"digests_agree": agree,
                    "reports_per_run": len(runs[0][0]["digests"]),
                    "all_correct": correct,
                    "failed_operations": sum(r["failed"] for pair in runs
                                             for r in pair)}}
    for metric, entry in record["summary"].items():
        print(f"{name} seed {seed} {metric}: parent median "
              f"{entry['parent']['median']}, change median "
              f"{entry['change']['median']}, ratio "
              f"{entry['change_over_parent']}, change wins "
              f"{entry['change_wins']}")
    print(f"{name} seed {seed}: report digests "
          + ("agree" if agree else "DIFFER"), flush=True)
    return record, agree and correct


def compare_bench(old_src, new_src, out_path, seed) -> int:
    """PAIRS alternating benchmark runs per workload at seed, then HELD_OUT
    at seed + 1, each as long as the benchmark's run_seconds, written to
    out_path; exit code 1 when a digest differs or a run is not
    correct."""
    spec = json.loads((Path(new_src).resolve().parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    seconds, end_to_end = spec["run_seconds"], spec["end_to_end"]
    record = {
        "command": (f"python3 benchmark/run.py --workload <w> --seed {seed} "
                    f"--seconds {seconds} --trace 0"),
        "held_out_seed": seed + 1,
        "commits": {"parent": commit(old_src), "change": commit(new_src)},
        "machine": {"vcpus": os.cpu_count(), "python":
                    platform.python_version(), "system":
                    f"{platform.system()} {platform.machine()}"},
        "order": "parent first in even pairs (0, 2, ...), change first in "
                 "odd ones; per workload the pairs at the seed, then the "
                 "held-out pairs; workloads one after the other",
        "directories": "parent and change each copied without __pycache__, "
                       "run with PYTHONDONTWRITEBYTECODE=1",
        "quartiles": "statistics.quantiles(method='inclusive')",
        "bounds": {m["name"]: m["bound"] for m in end_to_end},
        "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="kernel_ab_bench_") as tmp:
        roots = (copy_tree(old_src, Path(tmp) / "parent"),
                 copy_tree(new_src, Path(tmp) / "change"))
        record["src_sha256"] = {"parent": tree_digest(roots[0]),
                                "change": tree_digest(roots[1])}
        for name in (w["name"] for w in spec["workloads"]):
            entry, main_ok = bench_pairs(roots, name, seed, seconds, PAIRS,
                                         end_to_end)
            held, held_ok = bench_pairs(roots, name, seed + 1, seconds,
                                        HELD_OUT, end_to_end)
            entry["held_out"] = held
            record["workloads"][name] = entry
            ok &= main_ok and held_ok
    Path(out_path).write_text(json.dumps(record, indent=1) + "\n",
                              encoding="utf-8")
    return 0 if ok else 1


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
    mode.add_argument("--bench", metavar="OUT.json",
                      help="run benchmark/run.py of both trees in "
                           "alternating pairs and write the record here")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.bench is not None:
        return compare_bench(args.old, args.new, args.bench, args.seed)
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
    print(f"acts_like pairs decided without apply: old "
          f"{old.without_apply()}, new {new.without_apply()} of "
          f"{len(old.pairs)}")
    return int(first_old != first_new)


if __name__ == "__main__":
    sys.exit(main())
