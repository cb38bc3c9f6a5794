"""Smoke test of the two-tree comparison tool, which pytest does not
collect: one timed command with this checkout's src/ as both trees, and
the verdict grid's size."""

import importlib.util
from pathlib import Path

from autsplit.brauer import splits_globally_charp

TESTS = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("kernel_ab",
                                              TESTS / "kernel_ab.py")
kernel_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_ab)


def test_command_mode_on_one_tree(capsys):
    src = str(TESTS.parent / "src")
    assert kernel_ab.main([src, src, "--command", "brauer inv --d 3 --r 1",
                           "--rounds", "1"]) == 0
    assert "JSON reports identical" in capsys.readouterr().out


def test_grid_size_and_non_split_inputs():
    grid = kernel_ab.grid()
    assert len(grid) == 525
    # argv: section synth --p P --i I --d D --r R --n N ...
    non_split = [argv for argv in grid if not splits_globally_charp(
        int(argv[11]), int(argv[7]), int(argv[3]), int(argv[5]))]
    assert len(non_split) == 135
