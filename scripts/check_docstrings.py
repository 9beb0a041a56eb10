#!/usr/bin/env python
"""Lint: the public API surface must be documented where it is defined.

Walks ``src/repro`` and flags every module, top-level public class and
top-level public function that has no docstring.  Private names
(leading underscore) and nested/method definitions are out of scope —
the gate protects the surface a reader meets first, without legislating
every helper.  The check is AST-based; nothing is imported.

Run from the repository root::

   python scripts/check_docstrings.py

Exits 1 listing ``path:line: kind name`` for each violation, 0 when
clean.  The test suite runs this as a regression gate
(``tests/test_docstrings_lint.py``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def missing_docstrings(path: Path) -> list[tuple[int, str, str]]:
    """``(line, kind, name)`` for each undocumented public definition.

    Covers the module itself plus its top-level public classes and
    functions — the definitions a reader of the file sees first.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[tuple[int, str, str]] = []
    if ast.get_docstring(tree) is None:
        found.append((1, "module", path.stem))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                found.append((node.lineno, "class", node.name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _is_public(node.name):
            if ast.get_docstring(node) is None:
                found.append((node.lineno, "function", node.name))
    return found


def collect_violations(root: Path = SRC_ROOT) -> list[str]:
    """All violations under ``root`` as ``path:line: kind name`` lines."""
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for line, kind, name in missing_docstrings(path):
            violations.append(f"src/repro/{relative}:{line}: {kind} {name}")
    return violations


def main() -> int:
    violations = collect_violations()
    if violations:
        print("public definitions without docstrings:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
