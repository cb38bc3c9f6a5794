"""Smoke test of the two-tree comparison tool, which pytest does not
collect: one timed command and one kernel pass with this checkout's src/
as both trees, a kernel pass against a tree whose apply images differ,
the verdict grid's size, and the summary of the benchmark pairs."""

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


KERNEL = ["--params", "2,2,3,1,3", "--prec", "6", "--samples", "1",
          "--rounds", "1"]


def test_kernel_mode_on_one_tree(capsys):
    src = str(TESTS.parent / "src")
    assert kernel_ab.main([src, src, *KERNEL]) == 0
    out = capsys.readouterr().out
    assert "apply images identical" in out
    assert "acts_like verdicts identical" in out
    # both sides are this tree: of the two pairs, the one that acts alike
    # stores data that agree up to a constant of E, which the data rule
    # decides (a tree that compares equal data alone applies it)
    assert "acts_like pairs decided without apply: old 1, new 1 of 2" in out


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


def test_bench_summary():
    end_to_end = [{"name": "compute_s", "better": "lower", "bound": 0.25},
                  {"name": "rate", "better": "higher", "bound": 0.1}]
    pairs = [({"compute_s": 1.0, "rate": 10.0}, {"compute_s": 0.5,
                                                 "rate": 8.0}),
             ({"compute_s": 2.0, "rate": 10.0}, {"compute_s": 2.5,
                                                 "rate": 9.5}),
             ({"compute_s": 3.0, "rate": 10.0}, {"compute_s": 1.0,
                                                 "rate": 12.0})]
    out = kernel_ab.summarize(pairs, end_to_end)
    c = out["compute_s"]
    assert c["parent_runs"] == [1.0, 2.0, 3.0]
    assert c["change_runs"] == [0.5, 2.5, 1.0]
    assert c["change_wins"] == "2/3"
    assert c["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert c["change"] == {"median": 1.0, "q1": 0.75, "q3": 1.75}
    assert c["change_over_parent"] == 0.5 and c["within_bound"]
    r = out["rate"]
    assert r["change_wins"] == "1/3"
    assert r["change_over_parent"] == 0.95 and r["within_bound"]
    slower = kernel_ab.summarize([({"compute_s": 1.0, "rate": 10.0},
                                   {"compute_s": 1.3, "rate": 8.9})],
                                 end_to_end)
    assert slower["compute_s"]["change"] == {"median": 1.3, "q1": 1.3,
                                             "q3": 1.3}
    assert not slower["compute_s"]["within_bound"]
    assert not slower["rate"]["within_bound"]



def test_bench_records_commits_and_held_out_pairs(tmp_path, monkeypatch):
    # the benchmark runs replaced by a stub: per workload, PAIRS pairs at
    # the seed and HELD_OUT pairs at seed + 1, and each tree's commit
    old, new = tmp_path / "old" / "src", TESTS.parent / "src"
    old.mkdir(parents=True)
    calls = []

    def stub(root, workload, seed, seconds):
        calls.append((root.name, workload, seed))
        return {"metrics": {"setup_s": 1.0, "compute_s": 2.0,
                            "peak_rss_mb": 3.0},
                "correct": True, "attempted": 1, "failed": 0,
                "calibration_s": 0.1, "digests": [f"d{seed}"]}
    monkeypatch.setattr(kernel_ab, "bench_run", stub)
    monkeypatch.setattr(kernel_ab, "copy_tree",
                        lambda src, dest: dest)
    out = tmp_path / "bench.json"
    assert kernel_ab.compare_bench(str(old), str(new), out, 4) == 0
    record = kernel_ab.json.loads(out.read_text())
    assert record["commits"]["parent"] is None
    change = record["commits"]["change"]
    assert change is None or set(change) == {"head", "src_dirty"}
    assert record["held_out_seed"] == 5
    workloads = record["workloads"]
    assert list(workloads) == ["synth-wide", "synth-deep", "queries"]
    for name, entry in workloads.items():
        assert len(entry["runs"]) == kernel_ab.PAIRS
        held = entry["held_out"]
        assert len(held["runs"]) == kernel_ab.HELD_OUT
        assert held["reports"]["digests_agree"]
        seeds = [seed for _, w, seed in calls if w == name]
        assert seeds == ([4] * 2 * kernel_ab.PAIRS
                         + [5] * 2 * kernel_ab.HELD_OUT)
    # the parent goes first in even pairs, the change in odd ones
    firsts = [calls[k][0] for k in range(0, 2 * kernel_ab.PAIRS, 2)]
    assert firsts == ["parent", "change"] * (kernel_ab.PAIRS // 2)
