"""Regression gate: ``docs/api.md`` covers modules and CLI subcommands.

Runs ``scripts/check_docs_refs.py`` the way CI would, and unit-tests the
collectors so a silently broken lint cannot pass the gate.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs_refs.py"

sys.path.insert(0, str(SCRIPT.parent))
from check_docs_refs import (  # noqa: E402
    broken_doc_links,
    cli_flags,
    export_table,
    public_modules,
    serve_cli_subcommands,
    top_level_table_drift,
    top_level_table_names,
    undocumented_flags,
    undocumented_modules,
    undocumented_subcommands,
    unknown_console_flags,
)


def test_api_doc_indexes_every_public_module():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"undocumented public modules:\n{result.stderr}"
    )


def test_collector_finds_modules_and_packages(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "widget.py").write_text("")
    (tmp_path / "pkg" / "_internal.py").write_text("")
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "tool.py").write_text("")
    assert public_modules(tmp_path) == [
        "repro.pkg", "repro.pkg.widget", "repro.tool",
    ]


def test_known_modules_are_collected():
    names = public_modules()
    assert "repro.experiments.registry" in names
    assert "repro.data.cache" in names
    assert "repro.core.pipeline" in names
    assert "repro.cli" in names


def test_missing_doc_means_everything_undocumented(tmp_path):
    missing = undocumented_modules(tmp_path / "absent.md")
    assert missing == public_modules()


def test_mentioned_modules_are_not_flagged(tmp_path):
    doc = tmp_path / "api.md"
    doc.write_text(" ".join(public_modules()))
    assert undocumented_modules(doc) == []


def test_serve_subcommands_are_collected():
    names = serve_cli_subcommands()
    assert "score" in names
    assert "watch" in names
    assert "daemon" in names
    assert "replay" in names
    assert "recover" in names


def test_documented_subcommands_are_not_flagged(tmp_path):
    doc = tmp_path / "api.md"
    doc.write_text(" ".join(f"repro-serve {name}"
                            for name in serve_cli_subcommands()))
    assert undocumented_subcommands(doc) == []


def test_bare_subcommand_mention_is_not_enough(tmp_path):
    doc = tmp_path / "api.md"
    doc.write_text(" ".join(serve_cli_subcommands()))
    assert undocumented_subcommands(doc) == serve_cli_subcommands()


def _fake_cli(tmp_path, source):
    path = tmp_path / "cli.py"
    path.write_text(source)
    return (("fake-tool", path),)


def test_flag_collector_takes_long_options_only(tmp_path):
    modules = _fake_cli(tmp_path, (
        'import argparse\n'
        'p = argparse.ArgumentParser()\n'
        'p.add_argument("positional")\n'
        'p.add_argument("-v", "--verbose", action="count")\n'
        'p.add_argument("--seed", type=int)\n'
        'p.add_argument("-x")\n'
    ))
    assert cli_flags(modules) == [
        ("fake-tool", "--seed"), ("fake-tool", "--verbose"),
    ]


def test_known_flags_are_collected():
    flags = cli_flags()
    assert ("repro-serve", "--wal-dir") in flags
    assert ("repro-serve", "--learn") in flags
    assert ("repro-learn", "--rollback") in flags
    assert ("repro-characterize", "--export-model") in flags


def test_mentioned_flags_are_not_flagged(tmp_path):
    modules = _fake_cli(tmp_path, 'p.add_argument("--seed")\n')
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text("pass `--seed` to pin the run")
    assert undocumented_flags(docs, modules) == []


def test_unmentioned_flag_is_flagged(tmp_path):
    modules = _fake_cli(
        tmp_path, 'p.add_argument("--seed")\np.add_argument("--out")\n')
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text("only `--seed` is written up")
    assert undocumented_flags(docs, modules) == [("fake-tool", "--out")]


def test_readme_counts_as_flag_documentation(tmp_path):
    modules = _fake_cli(tmp_path, 'p.add_argument("--seed")\n')
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text("nothing here")
    (tmp_path / "README.md").write_text("use `--seed` for determinism")
    assert undocumented_flags(docs, modules) == []


def test_console_lines_pass_only_registered_flags(tmp_path):
    modules = _fake_cli(
        tmp_path, 'p.add_argument("--seed")\np.add_argument("--out")\n')
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text(
        "```console\n"
        "$ fake-tool --seed 1 --help \\\n"
        "      --jobs 4                      # --comment is not a flag\n"
        "$ other-tool --gone\n"
        "      --also-gone\n"
        "```\n"
        "Prose may name `--retired` freely.\n"
        "$ fake-tool --out x\n"
        "--stale at column 0 is not a continuation\n")
    (tmp_path / "README.md").write_text("$ fake-tool --no-wal\n")
    found = unknown_console_flags(docs, modules)
    assert [(program, flag) for _, program, flag in found] == [
        ("fake-tool", "--jobs"), ("fake-tool", "--no-wal"),
    ]
    assert found[0][0].endswith("guide.md")
    assert found[1][0].endswith("README.md")


def test_top_level_table_tracks_the_package_exports(tmp_path):
    """Every export-table name needs a ``## Top level`` row, and every
    row must name something the package exports or binds; a row in
    another section does not count."""
    init = tmp_path / "__init__.py"
    init.write_text("from repro._lazy import lazy_exports\n"
                    "__version__ = '1'\n"
                    "__getattr__, __dir__, __all__ = lazy_exports(\n"
                    "    globals(), {\n"
                    "    '.alpha': ('Alpha', 'beta'),\n"
                    "    '.sub.delta': ('delta',),\n"
                    "})\n")
    assert export_table(init) == {"Alpha": ".alpha", "beta": ".alpha",
                                  "delta": ".sub.delta"}
    doc = tmp_path / "api.md"
    header = ("# API\n\n## Top level (`repro`)\n\n"
              "| name | purpose |\n|---|---|\n")
    doc.write_text(header +
                   "| `Alpha(mode=\"a\"\\|\"b\")` | one |\n"
                   "| `delta / removed_fn(x)` | two |\n"
                   "| `__version__` | bound, not exported |\n\n"
                   "## `repro.sub`\n\n| name | purpose |\n|---|---|\n"
                   "| `beta` | documented elsewhere only |\n")
    assert top_level_table_names(doc) == ["Alpha", "delta", "removed_fn",
                                          "__version__"]
    assert top_level_table_drift(doc, init) == (["beta"], ["removed_fn"])
    doc.write_text(header + "| `Alpha` | one |\n| `beta` | two |\n"
                   "| `delta` | three |\n")
    assert top_level_table_drift(doc, init) == ([], [])


def test_link_checker_resolves_relative_targets(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "other.md").write_text("target page")
    (docs / "guide.md").write_text(
        "[ok](other.md) [anchored](other.md#section) [self](#here)\n"
        "[ext](https://example.com/x) [gone](missing.md)\n"
        "[updir](../README.md)\n")
    (tmp_path / "README.md").write_text("[into docs](docs/other.md)")
    broken = broken_doc_links(docs)
    assert len(broken) == 1
    page, target = broken[0]
    assert page.endswith("guide.md")
    assert target == "missing.md"


def test_repo_docs_have_no_broken_links():
    assert broken_doc_links() == []
