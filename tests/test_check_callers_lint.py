"""Regression gate: every public callable in ``src/repro`` has a caller.

Runs ``scripts/check_callers.py`` the way CI would, and unit-tests the
checker on a planted tree so a silently broken lint cannot pass the
gate.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_callers.py"

sys.path.insert(0, str(SCRIPT.parent))
from check_callers import find_violations  # noqa: E402

KEEP_TABLE = """\
# API

## Kept without an in-tree caller

| name | reason |
|---|---|
{rows}
## Next section

| name | purpose |
|---|---|
| `not_a_keep_row` | rows of other tables are not keep rows |
"""


def test_src_repro_has_no_uncalled_public_callables():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"public callables without an in-tree caller:\n{result.stderr}"
    )


def _plant(tmp_path, module, example, rows=""):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'EXPORTS = {".mod": ("used", "only_tested", "dead_helper")}\n')
    (package / "mod.py").write_text(textwrap.dedent(module))
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(textwrap.dedent(example))
    api_doc = tmp_path / "api.md"
    api_doc.write_text(KEEP_TABLE.format(rows=rows))
    return find_violations(package, [examples], api_doc)


def _names(violations):
    return sorted(line.split()[1] for line in violations)


def test_test_only_and_transitively_dead_callables_are_flagged(tmp_path):
    violations = _plant(tmp_path, '''
        def used():
            """See only_tested(): a docstring mention is not a call."""
            return _private()


        def _private():
            return 1


        def only_tested():
            return dead_helper()


        def dead_helper():
            return 2


        class Widget:
            def __init__(self):
                self.size = 1

            def spin(self):
                return self.size

            def unused_method(self):
                return 0
    ''', '''
        from pkg.mod import Widget, used

        used()
        Widget().spin()
    ''')
    # ``dead_helper`` is only called from ``only_tested``, itself dead.
    assert _names(violations) == [
        "Widget.unused_method", "dead_helper", "only_tested"]


def test_registry_strings_reach_but_export_tables_do_not(tmp_path):
    violations = _plant(tmp_path, '''
        RUNNERS = {"fig1": "run_figure"}


        def run_figure():
            return 1


        def used():
            return 0
    ''', '''
        import pkg.mod

        pkg.mod.used()
    ''')
    # ``pkg/__init__.py`` names ``only_tested`` in its export table, but
    # only a non-``__init__`` string counts as a caller.
    assert violations == []


def test_keep_rows_excuse_callables_and_stale_rows_fail(tmp_path):
    violations = _plant(tmp_path, '''
        def embedding_hook():
            return 1


        class Store:
            def level_of(self):
                return 0
    ''', '''
        from pkg.mod import Store

        Store()
    ''', rows=(
        "| `embedding_hook` | host processes call it |\n"
        "| `Store.level_of` | pending decision |\n"
        "| `deleted_function` | kept for a caller that is gone |\n"
    ))
    assert len(violations) == 1
    assert "keep row `deleted_function` names no callable" in violations[0]
