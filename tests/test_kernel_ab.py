"""Smoke test of the two-tree comparison tool, which pytest does not
collect: one timed command and one kernel pass with this checkout's src/
as both trees, a kernel pass against a tree whose apply images differ,
and the verdict grid's size."""

import importlib.util
import shutil
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


KERNEL = ["--params", "2,1,3,1,3", "--prec", "6", "--samples", "1",
          "--rounds", "1"]


def test_kernel_mode_on_one_tree(capsys):
    src = str(TESTS.parent / "src")
    assert kernel_ab.main([src, src, *KERNEL]) == 0
    out = capsys.readouterr().out
    assert "apply images identical" in out
    assert "acts_like verdicts identical" in out


def test_kernel_mode_fails_on_differing_images(tmp_path, capsys):
    # the changed tree's apply stores an extra zero entry in every row:
    # the matrices stay equal, so every acts_like verdict agrees, but the
    # images differ in their stored keys
    src = tmp_path / "src"
    shutil.copytree(TESTS.parent / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "autsplit" / "cyclic.py", "a") as f:
        f.write("""
_apply = SemilinearAuto.apply
SemilinearAuto.apply = lambda self, M, images=None: AlgebraMatrix(
    self.alg, [{**row, -1: self.alg.zero()}
               for row in _apply(self, M, images).entries])
""")
    assert kernel_ab.main([str(TESTS.parent / "src"), str(src),
                           *KERNEL]) == 1
    out = capsys.readouterr().out
    assert "apply images DIFFER" in out
    assert "acts_like verdicts identical" in out


def test_grid_size_and_non_split_inputs():
    grid = kernel_ab.grid()
    assert len(grid) == 525
    # argv: section synth --p P --i I --d D --r R --n N ...
    non_split = [argv for argv in grid if not splits_globally_charp(
        int(argv[11]), int(argv[7]), int(argv[3]), int(argv[5]))]
    assert len(non_split) == 135
