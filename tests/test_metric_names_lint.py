"""Regression gate: every emitted metric name is snake_case and listed
in the ``docs/observability.md`` reference table, and every row of that
table names an emitted metric.

Runs ``scripts/check_metric_names.py`` the way CI would, and unit-tests
the collector so a silently broken lint cannot pass the gate.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_metric_names.py"

sys.path.insert(0, str(SCRIPT.parent))
from check_metric_names import (  # noqa: E402
    documented_names,
    find_metric_names,
    violations,
)


def test_every_emitted_metric_name_is_documented():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"metric name violations:\n{result.stderr}"
    )


def test_finder_sees_literal_names_only(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(registry, obs, name):\n"
        "    registry.counter('samples_scored').inc()\n"
        "    registry.histogram('verdict_stage', labels={'a': 'b'})\n"
        "    obs.observe('push_latency', 0.1)\n"
        "    obs.count(name)\n"            # dynamic: skipped
        "    registry.gauge(name)\n"       # dynamic: skipped
        "    unrelated.method('not_a_metric')\n"
    )
    assert find_metric_names(source) == [
        (2, "samples_scored"),
        (3, "verdict_stage"),
        (4, "push_latency"),
    ]


def test_finder_sees_observe_many_batches(tmp_path):
    """A histogram fed only in batches is still a declared name."""
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(obs, stages):\n"
        "    obs.observe_many('verdict_stage', stages)\n"
    )
    assert find_metric_names(source) == [(2, "verdict_stage")]


def test_documented_names_reads_backticked_identifiers(tmp_path):
    doc = tmp_path / "obs.md"
    doc.write_text("| `samples_scored` | counter |\nAnd `push_latency`.\n")
    names = documented_names(doc)
    assert names == frozenset({"samples_scored", "push_latency"})
    assert documented_names(tmp_path / "absent.md") == frozenset()


def test_violations_flag_bad_case_and_undocumented(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(
        "def f(registry):\n"
        "    registry.counter('BadName').inc()\n"
        "    registry.counter('undocumented_thing').inc()\n"
        "    registry.counter('fine_metric').inc()\n"
    )
    doc = tmp_path / "obs.md"
    doc.write_text("`fine_metric`\n")
    problems = violations(src, doc)
    assert len(problems) == 2
    assert "'BadName' (not snake_case)" in problems[0]
    assert "'undocumented_thing' (not documented" in problems[1]


def test_violations_flag_table_rows_nothing_emits(tmp_path):
    """A reference-table row outlives its metric only until the lint
    runs; backticked names outside the table are not rows."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(
        "def f(registry):\n"
        "    registry.counter('fine_metric').inc()\n"
    )
    doc = tmp_path / "obs.md"
    doc.write_text(
        "| name | kind | emitted by | meaning |\n"
        "| --- | --- | --- | --- |\n"
        "| `fine_metric` | counter | scorer | kept |\n"
        "| `gone_metric` | counter | scorer | deleted from the code |\n"
        "| `/metrics` | Prometheus text | always 200 |\n"
        "Prose may still mention `some_identifier`.\n"
    )
    assert violations(src, doc) == [
        "obs.md: 'gone_metric' (table row, but no code emits it)"]


def test_repo_lint_is_exercising_real_files():
    problems = violations()
    assert problems == []
    names = {name for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
             for _line, name in find_metric_names(path)}
    assert "samples_scored" in names
    assert "telemetry_requests" in names
    assert "verdict_stage" in names
