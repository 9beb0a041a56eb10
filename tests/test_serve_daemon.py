"""End-to-end tests for the serving daemon: HTTP in, verdicts out.

The daemon's acceptance criteria live here: HTTP-ingested verdicts are
byte-identical to offline ``repro-serve score`` output for shard counts
1, 2 and 4; a saturated shard answers 429 with a ``Retry-After`` header
and never partially scores the rejected batch; ``POST /drain`` (and the
CLI's signal path) drains in-flight work and writes the final snapshot;
and alert sinks receive exactly the alerting verdicts.
"""

import csv
import json
import socket
import threading

import pytest

from repro.errors import ObservabilityError, ServeError
from repro.faults.chaos_serve import BlackholeSink
from repro.obs.observer import NULL_OBSERVER
from repro.obs.recorder import FlightRecorder
from repro.serve.bundle import build_bundle, content_hash, save_bundle
from repro.serve.cli import main as serve_main
from repro.serve.daemon import ServingDaemon
from repro.serve.scorer import VerdictBlock
from repro.serve.sinks import (CallbackAlertSink, DeliveryPolicy,
                               JsonlAlertSink, reprocess_dead_letter)
from repro.serve.wal import ShardWal

from tests.oracle import oracle_lines, oracle_monitor, oracle_verdicts
from tests.test_obs_http import _get, _post


@pytest.fixture(scope="module")
def bundle(mid_report):
    return build_bundle(mid_report, seed=7)


@pytest.fixture(scope="module")
def bundle_path(bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("daemon") / "fleet.bundle.json"
    save_bundle(bundle, path)
    return path


@pytest.fixture(scope="module")
def samples(mid_fleet):
    """(serial, hour, values) rows mixing failed and good drives."""
    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:4] + dataset.good_profiles[:8]
    rows = []
    for profile in profiles:
        keep = None if profile.failed else 6
        for hour, row in zip(profile.hours[:keep], profile.matrix[:keep]):
            rows.append((profile.serial, int(hour),
                         [float(v) for v in row]))
    return rows


@pytest.fixture(scope="module")
def score_reference(bundle, bundle_path, samples, tmp_path_factory):
    """Offline ``repro-serve score`` output bytes for the sample stream."""
    root = tmp_path_factory.mktemp("daemon-golden")
    stream = root / "stream.csv"
    with open(stream, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["serial", "hour", *bundle.attributes])
        for serial, hour, values in samples:
            writer.writerow([serial, hour, *(repr(v) for v in values)])
    output = root / "score.jsonl"
    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(stream),
                       "--output", str(output)]) == 0
    return output.read_bytes()


def _json_doc(batch):
    """The JSON-document ingest body for a slice of sample rows."""
    return json.dumps(
        {"samples": [[serial, hour, values]
                     for serial, hour, values in batch]}).encode("utf-8")


def _batches(rows, size=64):
    return [rows[i:i + size] for i in range(0, len(rows), size)]


# -- byte identity over HTTP ------------------------------------------------

@pytest.mark.parametrize("n_batches", [1, 2, 4])
def test_http_verdicts_byte_identical_to_score_cli(bundle, samples,
                                                   score_reference,
                                                   n_batches):
    """The golden contract: POST /ingest?verdicts=all replies, batch by
    batch, concatenate to exactly the offline score output — and both
    are the per-sample oracle's lines — however the stream is cut into
    ``n_batches`` batches of 64 samples or fewer."""
    size = min(64, -(-len(samples) // n_batches))
    collected = b""
    with ServingDaemon(bundle) as daemon:
        for batch in _batches(samples, size):
            status, headers, body = _post(
                daemon.url + "/ingest?verdicts=all", _json_doc(batch))
            assert status == 200
            assert headers["Content-Type"].startswith("application/jsonl")
            collected += body.encode("utf-8")
        assert daemon.samples_accepted == len(samples)
    oracle = "".join(line + "\n" for line in oracle_lines(bundle, samples))
    assert collected == score_reference == oracle.encode("utf-8")


def test_verdicts_alerts_filter_returns_only_alerting(bundle, samples):
    with ServingDaemon(bundle) as daemon:
        lines = []
        for batch in _batches(samples):
            status, _headers, body = _post(
                daemon.url + "/ingest?verdicts=alerts", _json_doc(batch))
            assert status == 200
            lines.extend(body.splitlines())
        assert daemon.alerts_emitted > 0
        assert len(lines) == daemon.alerts_emitted
    assert all(json.loads(line)["level"] != "HEALTHY" for line in lines)


def test_jsonl_ingest_form(bundle, samples):
    batch = samples[:32]
    body = "".join(
        json.dumps({"serial": serial, "hour": hour, "values": values}) + "\n"
        for serial, hour, values in batch).encode("utf-8")
    with ServingDaemon(bundle) as daemon:
        # Explicit ?format=jsonl and the auto-detect fallback both work.
        for url in (daemon.url + "/ingest?format=jsonl",
                    daemon.url + "/ingest"):
            status, _headers, reply = _post(url, body)
            assert status == 200
            assert json.loads(reply)["accepted"] == len(batch)
        assert daemon.samples_accepted == 2 * len(batch)


def test_malformed_bodies_are_400(bundle):
    cases = (
        b"not json at all",
        b'{"rows": []}',                       # wrong document shape
        b'{"serial": "X"}\n',                  # JSONL missing keys
        b'{"samples": [["X", 1, [1.0, 2.0]]]}',  # wrong attribute count
    )
    with ServingDaemon(bundle) as daemon:
        for body in cases:
            status, _headers, reply = _post(daemon.url + "/ingest", body)
            assert status == 400, body
            assert "error" in json.loads(reply)
        status, _headers, reply = _post(daemon.url + "/ingest",
                                        b'{"samples": []}')
        assert status == 200
        assert json.loads(reply) == {"accepted": 0, "alerts": 0}
        metrics = _get(daemon.url + "/metrics")[2]
        assert ('repro_ingest_requests_total{outcome="bad_request"} 4'
                in metrics)


def test_non_finite_values_are_400_naming_the_sample(bundle, samples):
    """``json.loads`` accepts NaN/Infinity; ingest refuses them with a
    400 naming the first offending sample (JSON) or line (JSONL) and
    scores nothing of the batch — refusal, not quarantine."""
    batch = samples[:6]
    rows = [[serial, hour, list(values)] for serial, hour, values in batch]
    rows[2][2][1] = float("nan")
    rows[4][2][0] = float("inf")
    document = json.dumps({"samples": rows}).encode("utf-8")
    jsonl = ("\n" + "".join(
        json.dumps({"serial": serial, "hour": hour, "values": values}) + "\n"
        for serial, hour, values in rows)).encode("utf-8")
    assert b"NaN" in document and b"Infinity" in jsonl
    cases = (("/ingest", document, "sample 2"),
             ("/ingest?format=jsonl", jsonl, "line 4"),
             ("/ingest", jsonl, "line 4"))
    with ServingDaemon(bundle) as daemon:
        for path, body, where in cases:
            status, _headers, reply = _post(daemon.url + path, body)
            assert status == 400, path
            assert json.loads(reply)["error"] == (
                f"malformed batch: {where}: non-finite value")
        assert daemon.samples_accepted == 0
        metrics = _get(daemon.url + "/metrics")[2]
        assert ('repro_ingest_requests_total{outcome="bad_request"} 3'
                in metrics)


def test_every_jsonl_refusal_names_its_line(bundle, samples):
    """Syntax errors, bad hours and bad values answer 400 naming the line
    they sit on; a non-array ``values`` (a digit string or an object of
    the right length, which used to be scored character by character or
    key by key) is refused too, and so are a fractional or boolean hour
    and a non-string serial (which used to be truncated to hour 1 and
    renamed ``"None"``), and an hour outside ``int64`` (which used to
    be refused without its line).  Nothing of a refused batch is
    scored."""
    width = len(bundle.attributes)
    good = [json.dumps({"serial": serial, "hour": hour, "values": values})
            for serial, hour, values in samples[:3]]
    cases = (
        (good + ['{"serial": "X", "hour": 1 "values": []}'],
         "line 4: Expecting ',' delimiter: line 1 column 27 (char 26)"),
        (good[:1] + [json.dumps({"serial": "X", "hour": "1h",
                                 "values": samples[0][2]})],
         "line 2: invalid literal for int() with base 10: '1h'"),
        (good[:2] + [json.dumps({"serial": "X", "hour": 1,
                                 "values": ["q"] * width})],
         "line 3: could not convert string to float: 'q'"),
        (good[:1] + [json.dumps({"serial": "X", "hour": 1,
                                 "values": "7" * width})],
         'line 2: "values" must be an array, got string'),
        ([json.dumps({"serial": "X", "hour": 1,
                      "values": {str(i): i for i in range(width)}})],
         'line 1: "values" must be an array, got object'),
        (good[:1] + [json.dumps({"serial": "X", "hour": 1.5,
                                 "values": samples[0][2]})],
         'line 2: "hour" must be an integer, got 1.5'),
        (good[:2] + [json.dumps({"serial": "X", "hour": True,
                                 "values": samples[0][2]})],
         'line 3: "hour" must be an integer, got true'),
        ([json.dumps({"serial": None, "hour": 1,
                      "values": samples[0][2]})],
         'line 1: "serial" must be a string, got null'),
        (good[:1] + [json.dumps({"serial": 7, "hour": 1,
                                 "values": samples[0][2]})],
         'line 2: "serial" must be a string, got number'),
        (good[:2] + [json.dumps({"serial": "X", "hour": 10**20,
                                 "values": samples[0][2]})],
         'line 3: "hour" 100000000000000000000 is outside the int64 range'),
    )
    with ServingDaemon(bundle) as daemon:
        for lines, expected in cases:
            body = ("\n".join(lines) + "\n").encode("utf-8")
            for path in ("/ingest?format=jsonl", "/ingest"):
                status, _headers, reply = _post(daemon.url + path, body)
                assert status == 400, (path, expected)
                assert json.loads(reply)["error"] == (
                    f"malformed batch: {expected}")
        document = json.dumps({"samples": [
            [samples[0][0], 1, samples[0][2]], ["X", 2, "7" * width]]})
        status, _headers, reply = _post(daemon.url + "/ingest",
                                        document.encode("utf-8"))
        assert status == 400
        assert json.loads(reply)["error"] == (
            'malformed batch: sample 1: "values" must be an array, '
            'got string')
        assert daemon.samples_accepted == 0
        assert daemon.partition.drives_tracked() == 0


# -- backpressure -----------------------------------------------------------

def test_saturated_shard_answers_429_with_retry_after(bundle, samples):
    """Concurrent posts against capacity 1: the loser gets 429 + a
    Retry-After hint, and its samples are never scored."""
    daemon = ServingDaemon(bundle, queue_capacity=1,
                           throttle_s=0.4, retry_after_s=2.5).start()
    barrier = threading.Barrier(3)
    replies = []

    def poster(batch):
        barrier.wait()
        replies.append((_post(daemon.url + "/ingest", _json_doc(batch)),
                        len(batch)))

    threads = [threading.Thread(target=poster, args=(samples[:200],))
               for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)

    accepted = [n for (status, _h, _b), n in replies if status == 200]
    rejected = [(headers, body) for (status, headers, body), _n in replies
                if status == 429]
    assert accepted and rejected
    headers, body = rejected[0]
    assert headers["Retry-After"] == "2.5"
    payload = json.loads(body)
    assert payload["retry_after_s"] == 2.5
    assert sorted(payload) == ["error", "retry_after_s"]
    metrics = _get(daemon.url + "/metrics")[2]
    assert 'repro_ingest_requests_total{outcome="backpressure"}' in metrics
    snapshot = daemon.stop()
    # All-or-nothing: exactly the accepted posts' samples were scored.
    assert snapshot["samples_scored"] == sum(accepted)
    assert daemon.samples_accepted == sum(accepted)


# -- drain and shutdown -----------------------------------------------------

def test_drain_endpoint_stops_serve_forever(bundle, samples, tmp_path):
    snapshot_path = tmp_path / "final.json"
    daemon = ServingDaemon(bundle, final_snapshot=snapshot_path).start()
    loop = threading.Thread(target=daemon.serve_forever)
    loop.start()
    for batch in _batches(samples[:300]):
        assert _post(daemon.url + "/ingest", _json_doc(batch))[0] == 200
    status, _headers, body = _post(daemon.url + "/drain", b"")
    assert status == 202
    assert json.loads(body) == {"status": "draining"}
    loop.join(timeout=30)
    assert not loop.is_alive()

    document = json.loads(snapshot_path.read_text())
    assert document["samples_accepted"] == 300
    assert "n_shards" not in document and "shards" not in document
    assert document["bundle_sha256"] == daemon.health_payload()["bundle_sha256"]
    assert document["partition"]["samples_scored"] == 300
    assert document["partition"]["drives_tracked"] == len(
        document["partition"]["state"]["drives"])
    assert daemon.stop() == document["partition"]


def test_health_reports_draining_after_stop_request(bundle):
    daemon = ServingDaemon(bundle).start()
    try:
        status, _ctype, body = _get(daemon.url + "/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        daemon.request_stop()
        status, _ctype, body = _get(daemon.url + "/health")
        assert status == 503  # load balancers stop routing to a drainer
        assert json.loads(body)["status"] == "draining"
    finally:
        daemon.stop()


def test_status_payload_describes_the_shard_plane(bundle, samples, tmp_path):
    sink = JsonlAlertSink(tmp_path / "alerts.jsonl")
    with ServingDaemon(bundle, sinks=[sink]) as daemon:
        _post(daemon.url + "/ingest", _json_doc(samples[:100]))
        payload = json.loads(_get(daemon.url + "/status")[2])
    for gone in ("n_shards", "backend", "shard_status", "shard_restarts"):
        assert gone not in payload
    assert payload["samples_accepted"] == 100
    assert payload["sinks"] == [f"jsonl:{tmp_path / 'alerts.jsonl'}"]
    assert payload["draining"] is False
    assert payload["inflight"] == 0
    assert payload["partition"] == "serving"
    assert payload["restarts"] == 0


# -- sinks ------------------------------------------------------------------

def test_alerting_verdicts_fan_out_to_sinks(bundle, samples, tmp_path):
    path = tmp_path / "alerts.jsonl"
    seen = []
    daemon = ServingDaemon(
        bundle, sinks=[JsonlAlertSink(path), CallbackAlertSink(seen.append)])
    block = daemon.ingest_block(*_columnar(samples))
    daemon.stop()
    expected = [line for line in oracle_lines(bundle, samples)
                if '"level":"HEALTHY"' not in line]
    assert expected and len(expected) == block.n_alerting
    assert path.read_text().splitlines() == expected
    assert seen == expected
    assert (daemon.registry.counter("alert_sink_emits").value
            == 2 * len(expected))
    alerts = [e for e in daemon.recorder.tail() if e.kind == "alert"]
    assert len(alerts) == len(expected)


def test_alert_lines_render_once_per_batch(bundle, samples, monkeypatch):
    """With a sink attached, each ``?verdicts=alerts`` batch encodes its
    alerting rows once: the sink and the reply share those lines."""
    calls = []
    render = VerdictBlock.to_json_lines

    def counting(self, rows=None):
        calls.append(rows)
        return render(self, rows)

    monkeypatch.setattr(VerdictBlock, "to_json_lines", counting)
    seen, replies = [], []
    batches = list(_batches(samples))
    with ServingDaemon(bundle, sinks=[CallbackAlertSink(seen.append)]) \
            as daemon:
        for batch in batches:
            status, _headers, body = _post(
                daemon.url + "/ingest?verdicts=alerts", _json_doc(batch))
            assert status == 200
            replies.extend(body.splitlines())
    assert len(calls) == len(batches)
    expected = [line for line in oracle_lines(bundle, samples)
                if '"level":"HEALTHY"' not in line]
    assert expected and replies == expected
    assert seen == expected


def test_sink_failures_are_counted_never_raised(bundle, samples):
    def explode(_line):
        raise RuntimeError("pager down")

    daemon = ServingDaemon(bundle, sinks=[CallbackAlertSink(explode)])
    block = daemon.ingest_block(*_columnar(samples))
    daemon.stop()
    assert block.n_alerting  # scoring was unaffected
    assert (daemon.registry.counter("alert_sink_errors").value
            == daemon.alerts_emitted > 0)
    errors = [e for e in daemon.recorder.tail() if e.kind == "sink-error"]
    assert errors and errors[0].context["sink"] == "callback:explode"


def test_alert_lines_reach_sinks_recorder_and_dead_letter(bundle, samples,
                                                           tmp_path):
    """One stream, every alert exit: the JSONL sink and the dead letter
    behind a hard-down sink each hold the oracle's alerting lines byte
    for byte, each recorder ``alert`` event carries the oracle verdict's
    fields, and redelivering the dead letter reproduces the same bytes
    and empties it."""
    alerting = [verdict for verdict
                in oracle_verdicts(oracle_monitor(bundle), samples)
                if verdict.alerting]
    expected = "".join(verdict.to_json_line() + "\n" for verdict in alerting)
    assert alerting
    sink_path = tmp_path / "alerts.jsonl"
    dead_letter = tmp_path / "dead.jsonl"
    daemon = ServingDaemon(
        bundle, sinks=[JsonlAlertSink(sink_path), BlackholeSink()],
        dead_letter=dead_letter,
        delivery_policy=DeliveryPolicy(max_attempts=2, backoff_s=0.0,
                                       backoff_cap_s=0.0),
        recorder=FlightRecorder(capacity=len(samples)))
    for batch in _batches(samples):
        daemon.ingest_block(*_columnar(batch))
    daemon.stop()
    assert sink_path.read_text() == expected
    assert dead_letter.read_text() == expected
    assert (daemon.registry.counter("dead_letter_alerts").value
            == len(alerting))
    events = [e for e in daemon.recorder.tail() if e.kind == "alert"]
    assert [(event.message, event.context) for event in events] == [
        (f"drive {v.serial} {v.level} at hour {v.hour}",
         {"serial": v.serial, "hour": v.hour, "level": v.level,
          "stage": v.stage, "likely_type": v.likely_type})
        for v in alerting]
    redelivered = tmp_path / "redelivered.jsonl"
    sink = JsonlAlertSink(redelivered)
    assert reprocess_dead_letter(dead_letter, sink) == (len(alerting), 0)
    sink.close()
    assert redelivered.read_text() == expected
    assert dead_letter.read_text() == ""


def _columnar(rows):
    serials = [serial for serial, _hour, _values in rows]
    hours = [hour for _serial, hour, _values in rows]
    matrix = [values for _serial, _hour, values in rows]
    return serials, hours, matrix


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_ingest_block_refuses_non_finite_before_the_wal(bundle, samples,
                                                        tmp_path, bad):
    """A NaN/±Inf batch is refused before admission: no WAL record is
    written, no drive starts being tracked, and the partition keeps
    serving."""
    wal_dir = tmp_path / "wal"
    with ServingDaemon(bundle, wal_dir=wal_dir) as daemon:
        daemon.ingest_block(*_columnar(samples[:20]))
        tracked = daemon.partition.drives_tracked()
        appends = daemon.registry.counter("wal_appends").value
        _serials, hours, matrix = _columnar(samples[20:40])
        serials = [f"fresh-{index}" for index in range(len(hours))]
        matrix = [list(values) for values in matrix]
        matrix[3][1] = bad
        with pytest.raises(ServeError) as refused:
            daemon.ingest_block(serials, hours, matrix)
        assert str(refused.value) == (
            f"record row 3, column 1 ({bundle.attributes[1]!r}) is not "
            f"finite ({bad!r})")
        assert daemon.partition.drives_tracked() == tracked
        assert daemon.registry.counter("wal_appends").value == appends == 1
        assert daemon.samples_accepted == 20
        assert daemon.partition.status() == "serving"
    with ShardWal(wal_dir / "shard-000",
                  bundle_sha256=content_hash(bundle.to_payload()),
                  generation=bundle.generation) as wal:
        wal.open()
        assert wal.last_seq == 1


# -- configuration ----------------------------------------------------------

def test_daemon_requires_metrics_observer(bundle):
    with pytest.raises(ServeError, match="metrics registry"):
        ServingDaemon(bundle, observer=NULL_OBSERVER)


def test_port_in_use_leaves_no_delivery_thread_or_open_wal(bundle,
                                                           tmp_path):
    """A daemon whose port is taken refuses to start and leaves nothing
    behind: no delivery thread runs and its WAL is closed cleanly."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        with pytest.raises(ObservabilityError, match="cannot bind"):
            ServingDaemon(bundle, sinks=[CallbackAlertSink(list.append)],
                          port=port, wal_dir=tmp_path / "wal")
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("repro-delivery-")]
    # The shard set was stopped: its final checkpoint is on disk.
    assert list((tmp_path / "wal" / "shard-000").glob("snapshot-*.json"))


def test_stop_is_idempotent(bundle, samples):
    daemon = ServingDaemon(bundle).start()
    daemon.ingest_block(*_columnar(samples[:50]))
    assert daemon.stop() == daemon.stop()


# -- CLI --------------------------------------------------------------------

def test_daemon_cli_end_to_end(bundle_path, samples, tmp_path, capsys):
    """The operator path: launch, discover the port, ingest, drain.

    ``--shards`` and ``--backend`` change nothing but must still be
    accepted: ``perfbench/workloads.py`` launches the daemon with them."""
    import time

    port_file = tmp_path / "port.txt"
    alerts = tmp_path / "alerts.jsonl"
    snapshot = tmp_path / "final.json"
    result = {}

    def run():
        result["status"] = serve_main(
            ["daemon", "--bundle", str(bundle_path),
             "--shards", "2", "--backend", "thread",
             "--wal-dir", str(tmp_path / "wal"),
             "--port-file", str(port_file),
             "--alert-sink", f"jsonl:{alerts}",
             "--final-snapshot", str(snapshot)])

    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 30
    while not port_file.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    url = f"http://127.0.0.1:{int(port_file.read_text())}"

    status, _headers, body = _post(url + "/ingest", _json_doc(samples[:200]))
    assert status == 200
    accepted = json.loads(body)
    assert accepted["accepted"] == 200
    assert _post(url + "/drain", b"")[0] == 202
    thread.join(timeout=30)
    assert result["status"] == 0

    document = json.loads(snapshot.read_text())
    assert document["samples_accepted"] == 200
    assert document["partition"]["samples_scored"] == 200
    assert [path.name for path in (tmp_path / "wal").iterdir()] == [
        "shard-000"]
    if accepted["alerts"]:
        assert len(alerts.read_text().splitlines()) == accepted["alerts"]
    err = capsys.readouterr().err
    assert "serving daemon on" in err
    assert "daemon drained: 200 samples accepted" in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_daemon_cli_refuses_a_bad_retry_after(bundle_path, value, tmp_path,
                                              capsys):
    """A negative or non-finite ``--retry-after`` would go verbatim into
    ``Retry-After`` headers; the daemon refuses it before it listens or
    starts a delivery thread."""
    port_file = tmp_path / "port.txt"
    threads = set(threading.enumerate())
    assert serve_main(["daemon", "--bundle", str(bundle_path),
                       "--retry-after", value,
                       "--alert-sink", f"jsonl:{tmp_path / 'alerts.jsonl'}",
                       "--port-file", str(port_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: retry_after_s must be finite and >= 0, "
                   f"got {float(value)}"]
    assert not port_file.exists()
    assert set(threading.enumerate()) <= threads
