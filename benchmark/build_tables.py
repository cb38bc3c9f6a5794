"""Build the given field tables in a fresh process and print the seconds.

Usage: python3 build_tables.py '[[p, i, d, b], ...]'

This is the set-up cost every new autsplit process pays before its first
command; run.py times it in a child so that each sample starts from an
empty table cache and a fresh allocator.  The last line holds the build's
seconds and the mean of the calibrations just before and after it.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from autsplit.gftower import build_tower  # noqa: E402
from calibrate import Calibration  # noqa: E402

tables = json.loads(sys.argv[1])
calibration = Calibration()
before = calibration.seconds()
start = time.perf_counter()
for key in tables:
    build_tower(*key)
build_s = time.perf_counter() - start
print(repr(build_s), repr((before + calibration.seconds()) / 2))
