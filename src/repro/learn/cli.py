"""``repro-learn`` — drive the continuous-learning loop offline.

Two subcommands (the loop's two halves an operator touches directly;
the in-daemon drift plane is ``repro-serve daemon --learn``):

* ``drill`` — run the deterministic end-to-end drift drill
  (:class:`~repro.learn.drill.DriftDrill`): simulate a baseline and a
  drifted fleet, detect the drift, refit a challenger, shadow-score,
  decide promotion, then serve the stream through a live scoring
  partition with a mid-stream promotion and verify byte-identity
  against offline scoring.  Prints one canonical JSON document; the
  same seed always prints the same bytes.
* ``push`` — promote (or roll back) a bundle on a *running* daemon:
  POST a bundle file to its ``/promote`` endpoint.

Examples::

   repro-learn drill --seed 11
   repro-learn push --url http://127.0.0.1:9200 \\
       --bundle challenger.bundle.json
   repro-learn push --url http://127.0.0.1:9200 --rollback
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request

from repro.core.serialize import canonical_json_dumps
from repro.errors import LearnError, ReproError
from repro.learn.drill import DriftDrill
from repro.obs import logging as obs_logging
from repro.obs.observer import NULL_OBSERVER, TelemetryObserver


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-learn`` argument grammar (``drill``/``push``)."""
    parser = argparse.ArgumentParser(
        prog="repro-learn",
        description="Continuous-learning tooling: the deterministic "
                    "drift drill and live bundle promotion.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress (-vv for debug)")
    commands = parser.add_subparsers(dest="command", required=True)

    drill = commands.add_parser(
        "drill", help="run the end-to-end drift drill: detect, refit, "
                      "shadow, promote, verify byte-identity")
    drill.add_argument("--seed", type=int, default=11,
                       help="master seed (baseline fleet; the drifted "
                            "fleet uses seed+1; default 11)")
    drill.add_argument("--drives", type=int, default=360, metavar="N",
                       help="fleet size of both simulated populations "
                            "(default 360)")
    drill.add_argument("--block-size", type=int, default=256, metavar="N",
                       help="samples per streamed ingest block "
                            "(default 256)")
    drill.add_argument("--drift-delta", type=float, default=8.0,
                       metavar="CELSIUS",
                       help="inlet-temperature rise injected into the "
                            "drifted fleet (default 8.0)")
    drill.add_argument("--output", metavar="PATH", default=None,
                       help="write the drill document here "
                            "(default: stdout)")

    push = commands.add_parser(
        "push", help="promote or roll back a bundle on a running daemon")
    push.add_argument("--url", required=True, metavar="URL",
                      help="daemon base URL, e.g. http://127.0.0.1:9200")
    push.add_argument("--bundle", metavar="PATH", default=None,
                      help="bundle file to POST to /promote (required "
                           "unless --rollback)")
    push.add_argument("--rollback", action="store_true",
                      help="swap back to the previously serving bundle "
                           "instead of pushing a new one")
    push.add_argument("--force", action="store_true",
                      help="skip the daemon's lineage check (promote a "
                           "bundle that does not name the champion as "
                           "its parent)")
    return parser


def run_drill(args: argparse.Namespace, observer: object) -> int:
    """``drill``: prepare, serve the stream once, print the document."""
    drill = DriftDrill(seed=args.seed, n_drives=args.drives,
                       block_size=args.block_size,
                       drift_delta_c=args.drift_delta,
                       observer=observer).prepare()
    document = {
        "core": drill.core_payload(),
        "run": drill.run(),
    }
    text = canonical_json_dumps(document)
    if args.output:
        with open(args.output, "w") as sink:
            sink.write(text)
        print(f"drill document written to {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    alarms = document["core"]["alarms"]
    decision = document["core"]["decision"]
    print(f"drill complete: {len(alarms)} drift alarm(s), "
          f"promote={decision['promote']}, "
          "served stream byte-identical to offline",
          file=sys.stderr)
    return 0


def run_push(args: argparse.Namespace) -> int:
    """``push``: POST a bundle (or a rollback) to a daemon's /promote."""
    base = args.url.rstrip("/")
    if args.rollback:
        if args.bundle is not None:
            raise LearnError("--rollback takes no --bundle (it swaps back "
                             "to the daemon's previous bundle)")
        url = f"{base}/promote?rollback=1"
        body = b""
    else:
        if args.bundle is None:
            raise LearnError("push needs --bundle (or --rollback)")
        with open(args.bundle, "rb") as handle:
            body = handle.read()
        url = f"{base}/promote"
        if args.force:
            url += "?force=1"
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            reply = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", "replace").strip()
        raise LearnError(
            f"daemon refused the request ({error.code}): {detail}"
        ) from error
    except urllib.error.URLError as error:
        raise LearnError(f"cannot reach daemon at {base}: "
                         f"{error.reason}") from error
    print(canonical_json_dumps(reply), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: any library or I/O failure exits 2 with one line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    obs_logging.configure(
        level=obs_logging.verbosity_to_level(args.verbose))
    observer = TelemetryObserver() if args.verbose else NULL_OBSERVER
    try:
        if args.command == "drill":
            return run_drill(args, observer)
        return run_push(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
