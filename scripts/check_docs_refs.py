#!/usr/bin/env python
"""Lint: the docs must track the code — modules, subcommands, flags,
links and the top-level API table.

Six checks:

1. Walks ``src/repro`` and collects the dotted name of every public
   module — packages (directories with an ``__init__.py``) and
   non-underscore ``.py`` files — then checks that each name appears
   verbatim somewhere in ``docs/api.md``.  Modules whose file name
   starts with ``_`` are implementation details and exempt.
2. Parses ``src/repro/serve/cli.py`` for ``add_parser("name", ...)``
   calls and checks that every ``repro-serve`` subcommand is documented
   as ``repro-serve <name>`` in ``docs/api.md``, so a new subcommand
   cannot ship without its CLI grammar entry.
3. Parses every CLI module (``repro-characterize``, ``repro-serve``,
   ``repro-learn``) for ``add_argument("--flag", ...)`` calls and
   checks that each long option is mentioned verbatim somewhere under
   ``docs/`` — a flag you can pass but cannot read about is docs
   drift.
4. Resolves every relative ``](...)`` link inside ``docs/*.md`` (and
   ``README.md``) against the file that contains it, so a renamed or
   deleted target cannot leave a dead link behind.
5. Reads every ``$ repro-characterize``, ``$ repro-serve`` and
   ``$ repro-learn`` console line in ``docs/*.md`` and ``README.md``,
   with its indented continuation lines, and checks that each
   ``--flag`` on it is registered by that program's parser — so a
   removed flag cannot live on in an example.
6. Reads the export table of ``src/repro/__init__.py`` (the
   ``{module: names}`` dict it hands ``lazy_exports``) and the first
   column of the ``## Top level`` table in ``docs/api.md``: every
   exported name must have a row, and every name in that column must
   be exported or bound on ``repro`` — so a deleted export cannot keep
   its row, nor a new one ship without one.

Run from the repository root::

   python scripts/check_docs_refs.py

Exits 1 listing each missing item, 0 when clean.  The test suite runs
this as a regression gate (``tests/test_docs_refs_lint.py``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
DOCS_ROOT = REPO_ROOT / "docs"
API_DOC = DOCS_ROOT / "api.md"
SERVE_CLI = SRC_ROOT / "serve" / "cli.py"
PACKAGE_INIT = SRC_ROOT / "__init__.py"

#: Every console-script entry point whose flag surface the docs must
#: cover, as (program name, parser module path) pairs.
CLI_MODULES: tuple[tuple[str, Path], ...] = (
    ("repro-characterize", SRC_ROOT / "cli.py"),
    ("repro-serve", SRC_ROOT / "serve" / "cli.py"),
    ("repro-learn", SRC_ROOT / "learn" / "cli.py"),
)

#: Markdown inline link targets: ``[text](target)``.  Good enough for
#: these docs — no reference-style links are used.
_LINK_PATTERN = re.compile(r"\]\(([^)\s]+)\)")

#: A long option on a console line (not the tail of ``a--b``).
_FLAG_PATTERN = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: The leading identifier of a table cell's name, e.g. ``save_bundle``
#: in ``save_bundle(bundle, path)``.
_NAME_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: A markdown table's column separator (``\|`` is a literal pipe).
_CELL_SEPARATOR = re.compile(r"(?<!\\)\|")


def public_modules(src_root: Path = SRC_ROOT) -> list[str]:
    """Dotted names of every public module under ``src_root``.

    The root package itself is excluded (documenting ``repro`` says
    nothing); subpackages count once, via their ``__init__.py``.
    """
    names: set[str] = set()
    for path in src_root.rglob("*.py"):
        relative = path.relative_to(src_root)
        if any(part.startswith("_") and part != "__init__.py"
               for part in relative.parts):
            continue
        if relative.name == "__init__.py":
            parts = relative.parts[:-1]
            if not parts:  # the repro/__init__.py root package
                continue
        else:
            parts = relative.parts[:-1] + (relative.stem,)
        names.add(".".join(("repro",) + parts))
    return sorted(names)


def undocumented_modules(doc_path: Path = API_DOC) -> list[str]:
    """Public modules whose dotted name never appears in the API doc."""
    try:
        text = doc_path.read_text()
    except OSError:
        return public_modules()
    return [name for name in public_modules() if name not in text]


def serve_cli_subcommands(cli_path: Path = SERVE_CLI) -> list[str]:
    """Subcommand names registered by ``repro-serve``'s parser.

    Found syntactically: every ``<x>.add_parser("name", ...)`` call
    with a literal first argument inside the CLI module.
    """
    tree = ast.parse(cli_path.read_text(), filename=str(cli_path))
    names: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_parser"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            names.add(node.args[0].value)
    return sorted(names)


def undocumented_subcommands(doc_path: Path = API_DOC) -> list[str]:
    """``repro-serve`` subcommands never named in the API doc."""
    try:
        text = doc_path.read_text()
    except OSError:
        return serve_cli_subcommands()
    return [name for name in serve_cli_subcommands()
            if f"repro-serve {name}" not in text]


def cli_flags(cli_modules: tuple[tuple[str, Path], ...] = CLI_MODULES,
              ) -> list[tuple[str, str]]:
    """Every long option each CLI registers, as (program, flag) pairs.

    Found syntactically: ``add_argument`` calls whose first literal
    string argument starts with ``--`` (short aliases like ``-v`` ride
    along with their long form and are exempt on their own).
    """
    flags: set[tuple[str, str]] = set()
    for program, path in cli_modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                continue
            for arg in node.args:
                if (isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("--")):
                    flags.add((program, arg.value))
    return sorted(flags)


def _doc_pages(docs_root: Path = DOCS_ROOT) -> list[Path]:
    """``docs/*.md`` plus the repository ``README.md`` when present."""
    pages = sorted(docs_root.glob("*.md"))
    readme = docs_root.parent / "README.md"
    if readme.exists():
        pages.append(readme)
    return pages


def _shown(page: Path) -> str:
    """A page's name for reports: repo-relative when inside the repo."""
    try:
        return str(page.relative_to(REPO_ROOT))
    except ValueError:  # a docs tree outside the repo (tests)
        return str(page)


def _docs_corpus(docs_root: Path = DOCS_ROOT) -> str:
    """All documentation text the flag check searches, concatenated."""
    return "\n".join(page.read_text() for page in _doc_pages(docs_root))


def undocumented_flags(docs_root: Path = DOCS_ROOT,
                       cli_modules: tuple[tuple[str, Path], ...]
                       = CLI_MODULES) -> list[tuple[str, str]]:
    """CLI long options never mentioned anywhere under ``docs/``."""
    corpus = _docs_corpus(docs_root)
    return [(program, flag) for program, flag in cli_flags(cli_modules)
            if flag not in corpus]


def broken_doc_links(docs_root: Path = DOCS_ROOT) -> list[tuple[str, str]]:
    """Relative markdown links that do not resolve, as (file, target).

    Checks every ``](...)`` target in ``docs/*.md`` and the repository
    ``README.md``.  External schemes (``http(s)://``, ``mailto:``) and
    in-page anchors (``#...``) are skipped; a ``path#fragment`` target
    is checked by path only.
    """
    broken: list[tuple[str, str]] = []
    for page in _doc_pages(docs_root):
        for target in _LINK_PATTERN.findall(page.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (page.parent / path).exists():
                broken.append((_shown(page), target))
    return broken


def unknown_console_flags(docs_root: Path = DOCS_ROOT,
                          cli_modules: tuple[tuple[str, Path], ...]
                          = CLI_MODULES) -> list[tuple[str, str, str]]:
    """Flags on documented console lines that the program does not
    register, as (page, program, flag).

    A console line starts with ``$ <program>``; the indented lines right
    after it continue it.  Text after `` #`` is a comment and skipped.
    """
    known = set(cli_flags(cli_modules))
    console = re.compile(r"^\$ (%s)(?=\s|$)(.*)$" % "|".join(
        re.escape(program) for program, _ in cli_modules))
    unknown: list[tuple[str, str, str]] = []
    for page in _doc_pages(docs_root):
        program = None
        for line in page.read_text().splitlines():
            match = console.match(line)
            if match:
                program, text = match.group(1), match.group(2)
            elif program is not None and line[:1].isspace():
                text = line
            else:
                program = None
                continue
            for flag in _FLAG_PATTERN.findall(text.split(" #", 1)[0]):
                if flag != "--help" and (program, flag) not in known:
                    unknown.append((_shown(page), program, flag))
    return unknown


def export_table(init_path: Path = PACKAGE_INIT) -> dict[str, str]:
    """A package ``__init__``'s export table as ``{name: module}``.

    Found syntactically: the ``{module: names}`` dict literal passed to
    ``lazy_exports`` — the one place a package declares its exports.
    """
    tree = ast.parse(init_path.read_text(), filename=str(init_path))
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Dict)):
            for key, names in zip(node.args[1].keys, node.args[1].values):
                table.update((element.value, key.value)
                             for element in names.elts)
    return table


def package_exports(init_path: Path = PACKAGE_INIT,
                    ) -> tuple[list[str], set[str]]:
    """A package's exported names and every name it binds.

    The exports are the export table's names; the bindings add every
    plain module-level assignment (e.g. ``__version__``).
    """
    exported = list(export_table(init_path))
    tree = ast.parse(init_path.read_text(), filename=str(init_path))
    bound = set(exported)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return exported, bound


def top_level_table_names(doc_path: Path = API_DOC) -> list[str]:
    """Names in the first column of the API doc's ``## Top level`` table.

    A cell such as ``save_bundle(bundle, path) / load_bundle(path)``
    names each ``/``-separated entry by its leading identifier.
    """
    names: list[str] = []
    in_section = False
    for line in doc_path.read_text().splitlines():
        if line.startswith("## "):
            in_section = line.startswith("## Top level")
            continue
        if not in_section or not line.startswith("|"):
            continue
        cell = _CELL_SEPARATOR.split(line)[1].strip().strip("`")
        if cell == "name" or set(cell) <= set("-: "):
            continue  # the header row and the rule under it
        for entry in cell.split(" / "):
            match = _NAME_PATTERN.match(entry.strip())
            if match:
                names.append(match.group(0))
    return names


def top_level_table_drift(doc_path: Path = API_DOC,
                          init_path: Path = PACKAGE_INIT,
                          ) -> tuple[list[str], list[str]]:
    """``(exported names with no row, row names not bound on repro)``."""
    exported, bound = package_exports(init_path)
    try:
        rows = top_level_table_names(doc_path)
    except OSError:
        rows = []
    missing = [name for name in exported if name not in rows]
    unbound = [name for name in rows if name not in bound]
    return missing, unbound


def main() -> int:
    status = 0
    missing = undocumented_modules()
    if missing:
        print("public modules missing from docs/api.md:", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        status = 1
    commands = undocumented_subcommands()
    if commands:
        print("repro-serve subcommands missing from docs/api.md "
              "(document as 'repro-serve <name>'):", file=sys.stderr)
        for name in commands:
            print(f"  {name}", file=sys.stderr)
        status = 1
    flags = undocumented_flags()
    if flags:
        print("CLI flags never mentioned anywhere under docs/:",
              file=sys.stderr)
        for program, flag in flags:
            print(f"  {program} {flag}", file=sys.stderr)
        status = 1
    stale = unknown_console_flags()
    if stale:
        print("console examples pass flags their program does not "
              "register:", file=sys.stderr)
        for page, program, flag in stale:
            print(f"  {page}: {program} {flag}", file=sys.stderr)
        status = 1
    missing_rows, unbound_rows = top_level_table_drift()
    if missing_rows:
        print("repro.__all__ names missing from the '## Top level' table "
              "of docs/api.md:", file=sys.stderr)
        for name in missing_rows:
            print(f"  {name}", file=sys.stderr)
        status = 1
    if unbound_rows:
        print("'## Top level' rows of docs/api.md that do not resolve on "
              "repro:", file=sys.stderr)
        for name in unbound_rows:
            print(f"  {name}", file=sys.stderr)
        status = 1
    links = broken_doc_links()
    if links:
        print("broken relative links in the docs:", file=sys.stderr)
        for page, target in links:
            print(f"  {page}: ]({target})", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
