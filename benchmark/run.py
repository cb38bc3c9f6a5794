"""End-to-end benchmark of the autsplit command line.

Usage (from the repository root):

    python3 benchmark/run.py --workload synth-wide --seed 1 --seconds 35 --trace 0

A plain run (--trace 0) times the set-up (building every field table the
workload uses, in fresh child processes) and then repeats whole rounds of
the workload's commands through ``autsplit.cli.main`` for --seconds,
single-threaded.  It prints setup_s, compute_s (the median round after
the first, which warms up) and peak_rss_mb; both times are calibrated
against the machine's speed (see calibrate.py).  A traced run (--trace 1) wraps the layers' public functions
(see layertrace.py) and prints, per wrapped function, its calls and self
seconds for one set-up plus one round.

Outputs are checked after the timed part (see oracle.py), the SHA-256 of
every command's JSON report is printed, and the last line of standard
output is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import oracle
from calibrate import Calibration, scaled
from layertrace import COUNTERS, SPAN_NAMES, Tracer
from workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_SECONDS = 4.0         # budget for fresh-process table builds ...
SETUP_MIN_SAMPLES = 3       # ... of which a plain run takes at least 3
SETUP_MAX_SAMPLES = 12
SECTION_PROPERTY_SAMPLES = 2


def _fail_early(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_command(cli, argv):
    """One CLI call: (exit code or None if it raised, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(["--output", "json", *argv])
    except Exception:   # a crash is a failed operation, not a dead benchmark
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buf.getvalue(), time.perf_counter() - start


def run_round(cli, commands):
    """(seconds, outputs, failures) for one pass over the commands."""
    gc.collect()
    total, outs, failed = 0.0, [], 0
    for cmd in commands:
        code, out, secs = run_command(cli, cmd.argv)
        total += secs
        outs.append(out)
        failed += code is None or code == 2
    return total, outs, failed


def time_left(start, seconds, last_round):
    """Whether another round, as long as the last, ends within the run."""
    return time.perf_counter() - start + last_round <= seconds


def setup_samples(tables, calibration):
    """(build seconds, calibration seconds) for the tables, each sample in
    a fresh process.

    The first sample is this process's own build, which the rounds then
    use; the others come from child processes until SETUP_SECONDS have
    passed (at least SETUP_MIN_SAMPLES in all), so small tables get more
    samples than large ones.
    """
    from autsplit.gftower import build_tower

    before = calibration.seconds()
    start = time.perf_counter()
    for key in tables:
        build_tower(*key)
    build_s = time.perf_counter() - start
    samples = [(build_s, (before + calibration.seconds()) / 2)]
    while len(samples) < SETUP_MIN_SAMPLES or (
            len(samples) < SETUP_MAX_SAMPLES
            and time.perf_counter() - start < SETUP_SECONDS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "build_tables.py"), json.dumps(tables)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"table build failed: {proc.stderr.strip()}")
        build_s, calibration_s = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(build_s), float(calibration_s)))
    return samples


def check_outputs(workload, outs, seed):
    """Failure messages for the first round's reports."""
    import jsonschema   # imported here, after the peak RSS was read
    from autsplit.gftower import build_tower

    schema = json.loads((SRC / "autsplit" / "schemas" /
                         "report.schema.json").read_text(encoding="utf-8"))
    fields = {}

    def field(p, i, d):
        if (p, i, d) not in fields:
            desc = build_tower(p, i, d, 1).descriptor()
            fields[p, i, d] = oracle.Field(p, desc["modulus"], desc["generator"])
        return fields[p, i, d]

    bad = []
    for k, (cmd, out) in enumerate(zip(workload.commands, outs)):
        try:
            doc = json.loads(out)
            jsonschema.validate(doc, schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            bad.append(f"command {k}: report is not a valid JSON report: {exc}")
            continue
        info = cmd.info
        try:
            if cmd.kind == "synth":
                found = oracle.check_synth(doc, info)
                if not found and doc["exit_code"] == 0:
                    found = section_property(info, seed)
            elif cmd.kind == "split-check":
                found = oracle.check_split_check(doc, info)
            elif cmd.kind == "hanke":
                found = oracle.check_hanke(doc, info,
                                           field(info["p"], info["i"], 3))
            elif cmd.kind == "nrd":
                found = oracle.check_nrd(doc, info,
                                         field(info["p"], info["i"], info["d"]))
            elif cmd.kind == "extension":
                found = oracle.check_complement(doc, info["group"],
                                                "complement_elements")
            elif cmd.kind == "ses-verdict":
                found = oracle.check_complement(doc, info["group"], "complement")
            elif cmd.kind == "descent-form":
                found = oracle.check_descent_form(doc, info)
            else:
                found = oracle.check_brauer(doc, info)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            found = [f"report does not have the expected form: {exc!r}"]
        bad.extend(f"command {k} ({' '.join(cmd.argv[:2])}): {msg}"
                   for msg in found)
    return bad


def section_property(info, seed):
    """Draw automorphisms of K from the seed and check the glued section
    restricts to each of them."""
    from autsplit.autk import LocalFieldAuto
    from autsplit.sections import SectionContext
    from autsplit.series import LaurentSeries

    p, i, prec = info["p"], info["i"], info["prec"]
    ctx = SectionContext(p, i, info["d"], info["r"], info["n"], prec)
    step = (ctx.tower.q - 1) // (p ** i - 1)
    rng = random.Random(f"section-property:{seed}:{info['seed']}")
    alphas = []
    for _ in range(SECTION_PROPERTY_SAMPLES):
        pairs = [(1, rng.randrange(p ** i - 1) * step)]
        pairs += [(k, rng.randrange(p ** i - 1) * step)
                  for k in range(2, prec) if rng.random() < 0.5]
        img = LaurentSeries.from_pairs(ctx.tower, i, pairs, prec)
        alphas.append(LocalFieldAuto(ctx.tower, i, rng.randrange(i), img))
    return oracle.section_property(ctx, alphas)


def traced_run(cli, workload, seconds, tracer):
    """Traced set-up, a warm-up round, then plain and traced rounds in
    turn for ``seconds``; alternating them makes the overhead estimate
    see the same machine speed on both sides.

    Returns (per-layer metrics, outputs of the first round, attempted,
    failed, problems found in the trace itself).
    """
    from autsplit import gftower

    gftower.build_tower.cache_clear()
    gc.collect()
    tracer.install()
    for key in workload.tables:
        gftower.build_tower(*key)
    setup_calls, setup_self = tracer.summary(0)
    tracer.uninstall()
    _, first_outs, failed = run_round(cli, workload.commands)
    attempted = len(workload.commands)

    plain, rounds, problems = [], [], []
    keep = tracer.mark()
    start = time.perf_counter()
    while True:
        plain_s, outs, fails = run_round(cli, workload.commands)
        plain.append(plain_s)
        if outs != first_outs:
            problems.append("a plain round's reports differ from the first's")
        tracer.install()
        lo = tracer.mark()
        before = dict(tracer.counters)
        secs, outs, more = run_round(cli, workload.commands)
        hi = tracer.mark()
        tracer.uninstall()
        attempted += 2 * len(workload.commands)
        failed += fails + more
        if outs != first_outs:
            problems.append("a traced round's reports differ from the plain ones")
        calls, self_s = tracer.summary(lo, hi)
        counts = {c: tracer.counters[c] - before[c] for c in COUNTERS}
        for dur, tot in tracer.root_balance(lo, hi):
            if abs(dur - tot) > 1e-6 * max(dur, 1e-3):
                problems.append(f"self times sum to {tot} in a {dur} s command")
        if rounds and (calls, counts) != (rounds[0][1], rounds[0][3]):
            problems.append("call counts differ between identical rounds")
        rounds.append((secs, calls, self_s, counts))
        if lo > keep:            # spans past the first round are summarised
            tracer.truncate(lo)
        if not time_left(start, seconds, plain_s + secs):
            break

    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"trace-{workload.name}.tsv.gz", "wt",
                   encoding="utf-8") as fh:
        tracer.write(fh)
    plain_s = statistics.median(plain)
    traced_s = statistics.median(r[0] for r in rounds)
    print(f"trace: median plain round {plain_s:.4f} s, median traced round "
          f"{traced_s:.4f} s, {len(rounds)} of each, overhead "
          f"{100 * (traced_s / plain_s - 1):.1f}%")
    metrics = {}
    for name in SPAN_NAMES:
        calls = setup_calls[name] + rounds[0][1][name]
        self_s = setup_self[name] + statistics.median(r[2][name] for r in rounds)
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in COUNTERS:
        metrics[name] = {"value": rounds[0][3][name], "unit": "count"}
    return metrics, first_outs, attempted, failed, problems


def plain_run(cli, workload, seconds):
    """Set-up samples, then whole rounds for ``seconds``.

    Each round and each set-up sample is scaled by the mean of the
    calibrations just before and just after it (calibrate.py); setup_s and
    compute_s are medians of the scaled times.
    """
    calibration = Calibration()
    setup = setup_samples(workload.tables, calibration)
    rounds, first_outs, attempted, failed, problems = [], None, 0, 0, []
    start = time.perf_counter()
    before = calibration.seconds()
    while True:
        secs, outs, fails = run_round(cli, workload.commands)
        after = calibration.seconds()
        calibration_s, before = (before + after) / 2, after
        rounds.append((secs, calibration_s))
        attempted += len(workload.commands)
        failed += fails
        if first_outs is None:
            first_outs = outs
        elif outs != first_outs:
            problems.append("a round's reports differ from the first round's")
        if not time_left(start, seconds, secs + calibration_s):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for label, pairs in (("setup samples", setup), ("round times", rounds)):
        print(f"{label} (s): " + " ".join(f"{s:.4f}" for s, _ in pairs))
        print(f"{label}, calibration (s): "
              + " ".join(f"{c:.4f}" for _, c in pairs))
    metrics = {
        "setup_s": {"value": statistics.median(scaled(*s) for s in setup),
                    "unit": "s"},
        # the first round warms the interpreter and the allocator up
        "compute_s": {"value": statistics.median(
            scaled(*r) for r in (rounds[1:] or rounds)), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return metrics, first_outs, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "autsplit" / "__init__.py").is_file():
        return _fail_early(f"no autsplit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from autsplit import cli
    if Path(cli.__file__).resolve().parent != SRC / "autsplit":
        return _fail_early(f"imported autsplit from {cli.__file__}")

    workload = make_workload(args.workload, args.seed, OUT / "inputs")
    if args.trace:
        result = traced_run(cli, workload, args.seconds, Tracer())
    else:
        result = plain_run(cli, workload, args.seconds)
    metrics, outs, attempted, failed, problems = result

    for k, (cmd, out) in enumerate(zip(workload.commands, outs)):
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        print(f"report {k:2d} sha256={digest} {' '.join(cmd.argv)[:100]}")
    problems += check_outputs(workload, outs, args.seed)
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
