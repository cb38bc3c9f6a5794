"""Run ``section synth`` over a fixed grid of inputs and record every report.

    python tests/verdict_grid.py OUT.json [--src DIR]

For each input the output maps the command line (joined by spaces) to
[exit code, SHA-256 of the JSON report].  Running it on two checkouts and
diffing the two files shows any verdict or report that a change moves:

    python tests/verdict_grid.py parent.json --src ../parent/src
    python tests/verdict_grid.py change.json
    diff parent.json change.json

The grid: p in {2, 3, 5, 7}, i <= 3, d in {2, 3} with gcd(d, p) = 1, b the
d-part of p^i - 1 with p^(idb) <= 2^14, 1 <= r <= 2d + 1 with r prime to d,
n in {1, 2, 3, 4, 6} and prec in {2, 3, 4, 5, 8}, each with
``--samples 6 --seed 1``: 525 inputs, 135 of them non-split (exit 1).
The commands run in one process, in about 12 s on a 2-vCPU VM.  Pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path


def grid() -> list[list[str]]:
    from autsplit.brauer import d_part
    out = []
    for p in (2, 3, 5, 7):
        for i in (1, 2, 3):
            for d in (2, 3):
                if gcd(d, p) != 1:
                    continue
                b = d_part(p ** i - 1, d)[1]
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1]
                                         / "src"),
                    help="directory holding the autsplit package to run "
                         "(default: this checkout's src/)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from autsplit.cli import main as autsplit_main

    results = {}
    for cmd in grid():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = autsplit_main(["--output", "json"] + cmd)
        results[" ".join(cmd)] = [
            code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()]
    # one input a line, so that a diff names the inputs that moved
    Path(args.out).write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in results.items())
        + "\n}\n")
    codes = [code for code, _ in results.values()]
    print(f"{len(results)} inputs: " + ", ".join(
        f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
