#!/usr/bin/env python
"""Lint: every emitted metric name is snake_case and documented.

Walks ``src/repro`` for metric-emitting calls — ``.counter(...)``,
``.gauge(...)``, ``.histogram(...)`` on registries and ``.count(...)``,
``.observe(...)``, ``.observe_many(...)`` on observers — whose first
argument is a string literal, and checks three rules:

* the name matches ``^[a-z][a-z0-9_]*$`` (lower snake_case, so the
  Prometheus exposition never has to mangle it);
* the name appears in the metric reference table of
  ``docs/observability.md`` — an operator reading a scrape must be able
  to look every series up;
* every row of that table names a metric some call emits — a row for a
  deleted metric would send an operator looking for a series that no
  longer exists.

Dynamically-built names (non-literal first arguments) are skipped: the
lint gates the declared vocabulary, not string plumbing.

Run from the repository root::

   python scripts/check_metric_names.py

Exits 1 listing ``path:line: name (reason)`` for each violation, 0 when
clean.  The test suite runs this as a regression gate
(``tests/test_metric_names_lint.py``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
DOC_PATH = REPO_ROOT / "docs" / "observability.md"

#: Attribute calls that declare a metric name in their first argument.
METRIC_METHODS = frozenset({"counter", "gauge", "histogram",
                            "count", "observe", "observe_many"})

#: A row of the metric reference table: ``| `name` | kind | ...``.
TABLE_ROW = re.compile(
    r"^\| `([a-z][a-z0-9_]*)` \| (?:counter|gauge|histogram) \|",
    re.MULTILINE)

#: The snake_case contract metric names must satisfy.
NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*$")


def find_metric_names(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` for every literal metric name in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            found.append((node.lineno, node.args[0].value))
    return sorted(found)


def documented_names(doc_path: Path = DOC_PATH) -> frozenset[str]:
    """Backticked identifiers mentioned in the observability doc."""
    if not doc_path.exists():
        return frozenset()
    return frozenset(re.findall(r"`([a-z][a-z0-9_]*)`",
                                doc_path.read_text()))


def table_rows(doc_path: Path = DOC_PATH) -> list[str]:
    """Metric names with a row in the doc's reference table, in order."""
    if not doc_path.exists():
        return []
    return TABLE_ROW.findall(doc_path.read_text())


def violations(src_root: Path = SRC_ROOT,
               doc_path: Path = DOC_PATH) -> list[str]:
    """Every ``path:line: name (reason)`` the lint objects to."""
    documented = documented_names(doc_path)
    problems = []
    emitted = set()
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root.parent.parent).as_posix()
        for line, name in find_metric_names(path):
            emitted.add(name)
            if not NAME_PATTERN.match(name):
                problems.append(
                    f"{relative}:{line}: {name!r} (not snake_case)")
            elif name not in documented:
                problems.append(
                    f"{relative}:{line}: {name!r} "
                    f"(not documented in docs/observability.md)")
    for name in table_rows(doc_path):
        if name not in emitted:
            problems.append(f"{doc_path.name}: {name!r} (table row, but "
                            f"no code emits it)")
    return problems


def main() -> int:
    problems = violations()
    if problems:
        print("metric name violations — every emitted name must be "
              "snake_case and listed in docs/observability.md, and every "
              "listed name emitted:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
