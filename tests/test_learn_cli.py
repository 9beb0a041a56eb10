"""``repro-learn`` CLI tests: the drill document and the push plane.

The drill subcommand is exercised once at test-tier sizing (one
prepare is two fleet simulations plus two pipeline runs); push is
exercised against a real in-process daemon so the CLI's HTTP paths —
promote, force, rollback, and every refusal — run over the wire.
"""

import json

import pytest

from repro.learn.cli import main as learn_main
from repro.serve.bundle import (build_bundle, content_hash, save_bundle,
                                stamp_lineage)
from repro.serve.daemon import ServingDaemon


@pytest.fixture(scope="module")
def champion(mid_report):
    return build_bundle(mid_report, seed=7)


@pytest.fixture(scope="module")
def challenger_path(champion, tmp_path_factory):
    path = tmp_path_factory.mktemp("learn-cli") / "challenger.bundle.json"
    save_bundle(stamp_lineage(champion, champion), path)
    return path


# -- drill ------------------------------------------------------------------

def test_drill_writes_a_self_consistent_document(tmp_path, capsys):
    out = tmp_path / "drill.json"
    assert learn_main(["drill", "--drives", "240",
                       "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "drill complete" in err
    assert "promote=True" in err
    document = json.loads(out.read_text())
    core = document["core"]
    assert core["alarms"]
    assert core["decision"]["promote"] is True
    assert "runs" not in document
    run = document["run"]
    assert run["matches_offline"] is True
    assert run["verdict_sha256"] == core["verdict_sha256"]


def test_drill_rejects_a_tiny_fleet(capsys):
    assert learn_main(["drill", "--drives", "50"]) == 2
    assert "100 drives" in capsys.readouterr().err


def test_drill_reports_an_unwritable_output(capsys):
    assert learn_main(["drill", "--drives", "240",
                       "--output", "/nonexistent/dir/drill.json"]) == 2
    assert "error:" in capsys.readouterr().err


# -- push -------------------------------------------------------------------

def test_push_promotes_then_rolls_back(champion, challenger_path, capsys):
    champion_sha = content_hash(champion.to_payload())
    with ServingDaemon(champion) as daemon:
        assert learn_main(["push", "--url", daemon.url,
                           "--bundle", str(challenger_path)]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["status"] == "promoted"
        assert reply["generation"] == 1

        assert learn_main(["push", "--url", daemon.url,
                           "--rollback"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["status"] == "rolled_back"
        assert reply["bundle_sha256"] == champion_sha


def test_push_surfaces_a_daemon_refusal(champion, challenger_path,
                                        capsys):
    with ServingDaemon(champion) as daemon:
        assert learn_main(["push", "--url", daemon.url,
                           "--bundle", str(challenger_path)]) == 0
        capsys.readouterr()
        # Promoting the serving bundle again is a 409 → exit 2.
        assert learn_main(["push", "--url", daemon.url,
                           "--bundle", str(challenger_path)]) == 2
        err = capsys.readouterr().err
        assert "409" in err
        assert "identical" in err


def test_push_force_overrides_a_lineage_break(champion, tmp_path,
                                              capsys):
    orphan = stamp_lineage(champion,
                           stamp_lineage(champion, champion))
    orphan_path = tmp_path / "orphan.bundle.json"
    save_bundle(orphan, orphan_path)
    with ServingDaemon(champion) as daemon:
        assert learn_main(["push", "--url", daemon.url,
                           "--bundle", str(orphan_path)]) == 2
        assert "409" in capsys.readouterr().err
        assert learn_main(["push", "--url", daemon.url, "--force",
                           "--bundle", str(orphan_path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "promoted"


def test_push_argument_contract(capsys):
    assert learn_main(["push", "--url", "http://127.0.0.1:1"]) == 2
    assert "--bundle" in capsys.readouterr().err
    assert learn_main(["push", "--url", "http://127.0.0.1:1",
                       "--rollback", "--bundle", "x.json"]) == 2
    assert "--rollback takes no --bundle" in capsys.readouterr().err


def test_push_reports_an_unreachable_daemon(challenger_path, capsys):
    assert learn_main(["push", "--url", "http://127.0.0.1:1",
                       "--bundle", str(challenger_path)]) == 2
    assert "cannot reach daemon" in capsys.readouterr().err
