"""Regression gate: the public API surface stays documented.

Runs ``scripts/check_docstrings.py`` the way CI would, and unit-tests
the collector so a silently broken lint cannot pass the gate.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docstrings.py"

sys.path.insert(0, str(SCRIPT.parent))
from check_docstrings import collect_violations, missing_docstrings  # noqa: E402


def test_public_surface_is_documented():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"undocumented public definitions:\n{result.stderr}"
    )


def test_collector_flags_each_undocumented_kind(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class Widget:\n"
        "    pass\n"
        "def tool():\n"
        "    pass\n"
    )
    found = missing_docstrings(path)
    assert [(kind, name) for _, kind, name in found] == [
        ("module", "module"), ("class", "Widget"), ("function", "tool"),
    ]


def test_collector_skips_private_and_nested(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        '"""Documented module."""\n'
        "def _helper():\n"
        "    pass\n"
        "def public():\n"
        '    """Documented."""\n'
        "    def inner():\n"
        "        pass\n"
        "class Widget:\n"
        '    """Documented."""\n'
        "    def method(self):\n"
        "        pass\n"
    )
    assert missing_docstrings(path) == []


def test_collector_scans_a_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("def tool():\n    pass\n")
    flagged = collect_violations(tmp_path)
    assert any("tool" in line for line in flagged)
    assert any("mod" in line for line in flagged)
