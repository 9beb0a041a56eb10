"""``scripts/bench_pairs.py``: the pure summary (medians, quartiles,
win counts and ratios over alternating benchmark pairs) and the
working-tree snapshot both sides run from."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"
sys.path.insert(0, str(SCRIPT.parent))
from bench_pairs import (  # noqa: E402
    extract, render, snapshot_tree, summarize)

BETTER = {"samples_per_s": "higher", "latency_p50_ms": "lower"}


def _pairs(base, head, name="samples_per_s"):
    return [{"base": {name: b}, "head": {name: h}} for b, h in zip(base, head)]


def test_medians_quartiles_and_ratio():
    summary = summarize(_pairs([10, 20, 30, 40, 50], [15, 25, 35, 45, 55]),
                        BETTER)
    row = summary["samples_per_s"]
    assert row["base"] == {"median": 30, "q1": 20, "q3": 40}
    assert row["head"] == {"median": 35, "q1": 25, "q3": 45}
    assert row["ratio"] == pytest.approx(35 / 30)
    assert (row["base_wins"], row["head_wins"], row["pairs"]) == (0, 5, 5)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    pairs = _pairs([5.0, 5.0, 5.0, 5.0], [4.0, 6.0, 5.0, 3.0],
                   name="latency_p50_ms")
    row = summarize(pairs, BETTER)["latency_p50_ms"]
    assert (row["head_wins"], row["base_wins"]) == (2, 1)


def test_workload_prefixes_and_unknown_or_partial_metrics():
    pairs = [{"base": {"fleet-tick.samples_per_s": 1.0, "other": 1.0,
                       "offline.samples_per_s": 2.0},
              "head": {"fleet-tick.samples_per_s": 2.0, "other": 2.0}}]
    summary = summarize(pairs, BETTER)
    assert list(summary) == ["fleet-tick.samples_per_s"]
    assert summary["fleet-tick.samples_per_s"]["base"] == {
        "median": 1.0, "q1": 1.0, "q3": 1.0}
    assert summarize([], BETTER) == {}


def test_render_lists_every_metric():
    text = render(summarize(_pairs([1, 2], [3, 4]), BETTER))
    assert "samples_per_s" in text and "0/2" in text


def _git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
         *args], cwd=root, check=True, capture_output=True,
        text=True).stdout


def test_head_runs_from_a_snapshot_of_the_working_tree(tmp_path):
    """The snapshot holds the working tree's edits and untracked files
    but not ignored ones, and leaves the repository's index alone."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("cache/\n")
    (repo / "tracked.txt").write_text("committed\n")
    (repo / "staged.txt").write_text("committed\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "tracked.txt").write_text("edited\n")
    (repo / "staged.txt").write_text("staged\n")
    _git(repo, "add", "staged.txt")
    (repo / "new.txt").write_text("untracked\n")
    (repo / "cache").mkdir()
    (repo / "cache" / "input.bin").write_text("ignored\n")
    status = _git(repo, "status", "--porcelain")

    head = tmp_path / "head"
    extract(snapshot_tree(repo), head, repo)
    assert (head / "tracked.txt").read_text() == "edited\n"
    assert (head / "staged.txt").read_text() == "staged\n"
    assert (head / "new.txt").read_text() == "untracked\n"
    assert not (head / "cache").exists()
    assert _git(repo, "status", "--porcelain") == status

    base = tmp_path / "base"
    extract("HEAD", base, repo)
    assert (base / "tracked.txt").read_text() == "committed\n"
    assert not (base / "new.txt").exists()
