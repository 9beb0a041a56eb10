#!/usr/bin/env python
"""Lint: every public callable in ``src/repro`` has an in-tree caller,
and every name a module imports is used.

A public top-level function or class, or a public method of a public
class, must be reached from ``src/``, ``examples/`` or ``perfbench/``
(its ``tests/`` excepted), or be listed in the "Kept without an
in-tree caller" table of ``docs/api.md`` with a one-line reason.  A row
of that table that names no existing callable fails too.

How "reached" is decided:

* Every module is parsed once and each identifier use is filed under
  the definition that encloses it: a top-level function or class, or a
  method.  Uses are ``Name`` loads, attribute names, ``import ... as``
  sources and the identifiers inside non-docstring string literals, so
  registry strings and ``getattr`` names count.  Strings in
  ``__init__.py`` do not: an export table is not a caller.
* Module-level code, ``examples/`` and ``perfbench/`` are live from the
  start.  A definition becomes live when a live use names it (a method
  also needs its class live; dunder methods are live with their class).
  This runs to a fixpoint, so a name reached only from dead code is
  dead too.

Known blind spot: matching is by bare name, not by type.  A method
called ``run`` or ``records`` is reached by any live use of that
identifier, whichever object it belongs to, and so is any name that
appears as a word in a live string (help texts included).  The lint
therefore under-reports; what it does report has no use at all.

Imports are checked per module (``__init__.py`` export tables and
``__future__`` aside): a name bound by ``import`` or ``from ...
import`` must be loaded somewhere in the same module, or appear as a
word in one of its non-docstring strings (string annotations).

Run from the repository root::

   python scripts/check_callers.py

Exits 1 listing ``path:line name`` for each unreached callable, each
stale table row and each unused import, 0 when clean.  The test suite
runs this as a regression gate (``tests/test_check_callers_lint.py``).
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Heading of the keep table in ``docs/api.md``.
KEEP_HEADING = "## Kept without an in-tree caller"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ROW_NAME = re.compile(r"^\|\s*`([^`]+)`\s*\|")

#: The context of module-level code and of every root file.
ROOT = -1


@dataclass(frozen=True)
class Definition:
    """One function, class or method that the fixpoint can reach."""

    module: str
    qualname: str
    path: Path
    line: int
    parent: int | None  # index of the enclosing class, for methods

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def public(self) -> bool:
        return not any(part.startswith("_")
                       for part in self.qualname.split("."))

    @property
    def dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")


def _docstring_ids(tree: ast.Module) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _uses(node: ast.AST, strings: bool, skip: set[int]) -> set[str]:
    """Identifiers ``node`` uses, not descending into ``skip`` nodes."""
    found: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.alias) and current.asname:
            found.update(current.name.split("."))
        elif (strings and isinstance(current, ast.Constant)
              and isinstance(current.value, str)
              and id(current) not in skip):
            found.update(_IDENTIFIER.findall(current.value))
        stack.extend(child for child in ast.iter_child_nodes(current)
                     if id(child) not in skip)
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class CallGraph:
    """Definitions and the identifiers each context uses."""

    def __init__(self) -> None:
        self.definitions: list[Definition] = []
        self.uses: dict[int, set[str]] = defaultdict(set)

    def add_source(self, path: Path, module: str) -> None:
        """File ``path``'s definitions and the uses inside each."""
        tree = ast.parse(path.read_text(), filename=str(path))
        strings = path.name != "__init__.py"
        docstrings = _docstring_ids(tree)
        top = [node for node in tree.body if isinstance(node, _DEFS)]
        self.uses[ROOT] |= _uses(tree, strings,
                                 docstrings | {id(node) for node in top})
        for node in top:
            index = self._define(node, module, node.name, path, None)
            methods = ([item for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))]
                       if isinstance(node, ast.ClassDef) else [])
            # The def's own name is not a use; its decorators, bases,
            # annotations and body are.
            self.uses[index] |= _uses(
                node, strings, docstrings | {id(item) for item in methods})
            for method in methods:
                child = self._define(method, module,
                                     f"{node.name}.{method.name}", path,
                                     index)
                self.uses[child] |= _uses(method, strings, docstrings)

    def add_root(self, path: Path) -> None:
        """Every use in ``path`` is live from the start."""
        tree = ast.parse(path.read_text(), filename=str(path))
        self.uses[ROOT] |= _uses(tree, True, _docstring_ids(tree))

    def _define(self, node: ast.AST, module: str, qualname: str,
                path: Path, parent: int | None) -> int:
        self.definitions.append(
            Definition(module, qualname, path, node.lineno, parent))
        return len(self.definitions) - 1

    def live(self) -> set[int]:
        """Indexes of the definitions reachable from the roots."""
        by_name: dict[str, list[int]] = defaultdict(list)
        members: dict[int, list[int]] = defaultdict(list)
        for index, definition in enumerate(self.definitions):
            by_name[definition.name].append(index)
            if definition.parent is not None:
                members[definition.parent].append(index)
        named: set[int] = set()
        live: set[int] = set()
        pending = [ROOT]
        while pending:
            context = pending.pop()
            woken: list[int] = []
            for identifier in self.uses.get(context, ()):
                for index in by_name.get(identifier, ()):
                    if index not in named:
                        named.add(index)
                        woken.append(index)
            if context != ROOT:
                woken.extend(member for member in members[context]
                             if self.definitions[member].dunder
                             or member in named)
            for index in woken:
                parent = self.definitions[index].parent
                ready = parent is None or parent in live
                if ready and index not in live:
                    live.add(index)
                    pending.append(index)
        return live


def build_graph(src: Path, roots: list[Path]) -> CallGraph:
    """Index ``src`` (the package directory) and every root tree."""
    graph = CallGraph()
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        graph.add_source(path, ".".join(parts))
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            if "tests" not in path.relative_to(root.parent).parts:
                graph.add_root(path)
    return graph


def read_keep_table(api_doc: Path) -> dict[str, int]:
    """``{name: line}`` for each row of the keep table."""
    rows: dict[str, int] = {}
    inside = False
    for number, line in enumerate(api_doc.read_text().splitlines(), 1):
        if line.startswith("## "):
            inside = line.strip() == KEEP_HEADING
            continue
        match = _ROW_NAME.match(line) if inside else None
        if match and match.group(1) != "name":
            rows[match.group(1)] = number
    return rows


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = _uses(tree, True, _docstring_ids(tree))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name != "*")


def _kept_by(definition: Definition, keep: dict[str, int]) -> bool:
    return definition.qualname in keep or definition.module in keep


def find_violations(src: Path, roots: list[Path],
                    api_doc: Path) -> list[str]:
    """One line per unreached public callable and per stale keep row."""
    graph = build_graph(src, roots)
    live = graph.live()
    keep = read_keep_table(api_doc)
    violations = []
    for index, definition in enumerate(graph.definitions):
        if (index in live or not definition.public or definition.dunder
                or _kept_by(definition, keep)):
            continue
        if definition.parent is not None and definition.parent not in live:
            continue  # its class is reported instead
        where = definition.path.relative_to(src.parent.parent).as_posix()
        violations.append(f"{where}:{definition.line} "
                          f"{definition.qualname} has no caller")
    known = ({d.qualname for d in graph.definitions}
             | {d.module for d in graph.definitions})
    for name, line in keep.items():
        if name not in known:
            violations.append(f"{api_doc.name}:{line} keep row `{name}` "
                              f"names no callable")
    for path in sorted(src.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        where = path.relative_to(src.parent.parent).as_posix()
        violations.extend(f"{where}:{line} import {name} is unused"
                          for line, name in unused_imports(path))
    return violations


def main() -> int:
    violations = find_violations(
        REPO_ROOT / "src" / "repro",
        [REPO_ROOT / "examples", REPO_ROOT / "perfbench"],
        REPO_ROOT / "docs" / "api.md")
    if violations:
        print("public callables with no in-tree caller — delete them or "
              f"list them under '{KEEP_HEADING}' in docs/api.md — "
              "and unused imports:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
