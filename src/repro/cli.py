"""Command-line interface: ``repro-lid``.

Subcommands:

* ``analyze``   — static + dynamic analysis of a named topology;
* ``verify``    — run the safety-property campaign;
* ``reproduce`` — regenerate every paper artifact (tables to stdout);
* ``figure1`` / ``figure2`` — print the evolution traces of the paper's
  two figures;
* ``deadlock``  — skeleton liveness check of a named topology;
* ``inject``    — fault-injection campaign with verdict classification
  (masked / detected / silent-corruption / deadlock / timeout);
* ``trace``     — run with event tracing on; export JSONL or a Chrome
  trace viewable in Perfetto / ``chrome://tracing``;
* ``profile``   — run with the phase profiler on; print wall time per
  scheduler phase, cycles/sec and events/sec;
* ``obs``       — cross-run observability: ``ls``/``show``/``diff``
  over the persistent run ledger, ``regress`` over bench records and
  ledger trajectories;
* ``export``    — emit a topology as DOT or JSON, or a protocol block
  as VHDL.

``inject``, ``deadlock``, ``reproduce`` and ``series`` accept
``--ledger [FILE]`` to append a content-addressed run record (see
``docs/observability.md``); ``inject`` and ``reproduce`` accept
``--progress`` for a live stderr status line (stdout bytes are
untouched either way).

``main`` builds the subparser of the one command it runs: building all
of them cost more than a short ``analyze``.  Top-level help,
``--version``, a missing or unknown command and top-level errors go to
the full parser, built from the same per-command builders
(``_COMMANDS``), so every help text, usage line and error is the same
either way (``tests/integration/test_cli_parser.py``).

``inject``, ``deadlock`` and ``series`` validate their flags into a
:class:`repro.serve.Manifest` and run it with
:func:`repro.serve.execute_manifest`, the path ``serve`` runs too, so
offline and served report bytes and run ids agree by construction.

Topology arguments take the form ``name[:key=value,...]``, e.g.
``ring:shells=3,relays=2`` or ``reconvergent:long=2+1,short=1``.
``feedback`` is an alias for the paper's Figure 2 loop; ``dag:...`` and
``loopy:...`` build seeded random topologies using the global
``--seed`` (the one deterministic seed every randomized consumer —
topology generation, fault-list sampling — derives from; it is echoed
in report headers so runs can be reproduced from their output alone).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import analyze
from .bench.runner import EXPERIMENTS, run_all, run_figure1, run_figure2
from .graph.specs import parse_topology
from .lid.variant import ProtocolVariant
from .serve.manifest import BACKENDS, ENGINES, FORMATS

#: Backward-compatible alias — the spec parser moved to
#: :mod:`repro.graph.specs` so non-CLI consumers (GraphRef
#: materialization, scripts) don't import argparse machinery.
_parse_topology = parse_topology


def _variant(text: str) -> ProtocolVariant:
    return ProtocolVariant(text)


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (e.g. ``--jobs``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, "
                                         f"got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _version_string() -> str:
    """``<version> (git <rev>)`` — the one version line, shared by
    ``repro-lid --version`` and ``python -m repro --version``."""
    from ._version import __version__
    from .bench.runner import git_rev

    rev = git_rev()
    suffix = f" (git {rev})" if rev != "unknown" else ""
    return f"{__version__}{suffix}"


def _add_seed(parser) -> None:
    # Accept --seed after the subcommand too; SUPPRESS keeps a value
    # given before the subcommand from being clobbered by a default.
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)


def _add_jobs(parser) -> None:
    parser.add_argument(
        "--jobs", "-j", type=_positive_int, default=1, metavar="N",
        help="worker processes for independent simulation units "
             "(default 1 = serial; output is byte-identical for any "
             "value, see docs/parallelism.md)")


def _add_ledger(parser) -> None:
    parser.add_argument(
        "--ledger", nargs="?", const="", default=None, metavar="FILE",
        help="append a content-addressed run record to this JSONL "
             "ledger (bare --ledger uses $REPRO_LID_LEDGER or "
             "~/.cache/repro-lid/ledger.jsonl)")


def _add_progress(parser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="live progress line on stderr (done/total, cache hits, "
             "ETA); stdout bytes are unchanged")


def _add_variant(parser) -> None:
    parser.add_argument("--variant", type=_variant,
                        default=ProtocolVariant.CASU,
                        choices=list(ProtocolVariant))


def _build_analyze(sub):
    p = sub.add_parser("analyze", help="analyze a topology")
    _add_seed(p)
    p.add_argument("topology")
    _add_variant(p)
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="also run an instrumented simulation and "
                        "write its metrics snapshot as JSON")
    p.add_argument("--cycles", type=int, default=200,
                   help="cycles for the --metrics-out run")
    p.add_argument("--max-cycles", type=int, default=50_000,
                   help="skeleton cycle budget for the dynamic "
                        "analyses; exceeding it exits 2 with a "
                        "diagnostic instead of a traceback")


def _build_verify(sub):
    _add_seed(sub.add_parser("verify",
                             help="run the safety-property campaign"))


def _build_reproduce(sub):
    p = sub.add_parser("reproduce", help="regenerate all paper artifacts")
    _add_seed(p)
    _add_jobs(p)
    _add_ledger(p)
    _add_progress(p)
    p.add_argument("--experiment", choices=sorted(EXPERIMENTS),
                   help="run a single experiment id")
    p.add_argument("--output", "-o", default=None,
                   help="write one table file per experiment "
                        "into this directory")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write per-experiment wall time and row "
                        "counts as a JSON metrics snapshot")


def _build_figure1(sub):
    _add_seed(sub.add_parser("figure1",
                             help="print the Figure 1 evolution"))


def _build_figure2(sub):
    _add_seed(sub.add_parser("figure2", help="print the Figure 2 sweep"))


def _build_deadlock(sub):
    p = sub.add_parser("deadlock", help="skeleton liveness check")
    _add_seed(p)
    _add_ledger(p)
    p.add_argument("topology")
    _add_variant(p)
    p.add_argument("--max-cycles", type=int, default=10_000,
                   help="cycle budget for reaching the periodic "
                        "regime; an inconclusive verdict exits 2")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="instrument the liveness probes and write "
                        "their metrics snapshot as JSON")


def _build_inject(sub):
    p = sub.add_parser(
        "inject", help="fault-injection campaign with verdict "
                       "classification")
    _add_seed(p)
    _add_jobs(p)
    _add_ledger(p)
    _add_progress(p)
    p.add_argument("--topology", default="feedback",
                   help="topology spec (default: feedback, the "
                        "paper's Figure 2 loop)")
    _add_variant(p)
    p.add_argument("--faults", default="stop,void",
                   help="comma-separated fault classes or kinds "
                        "(see repro.inject.FAULT_CLASSES)")
    p.add_argument("--cycles", type=int, default=200,
                   help="run length of every experiment")
    p.add_argument("--samples", type=int, default=64,
                   help="seeded-random sample size from the "
                        "fault universe")
    p.add_argument("--exhaustive", action="store_true",
                   help="run every kind x target x cycle of the "
                        "window instead of sampling")
    p.add_argument("--window", default=None, metavar="LO:HI",
                   help="restrict injection cycles to [LO, HI)")
    p.add_argument("--engine", choices=ENGINES, default="lid",
                   help="lid: token-level scalar engine with "
                        "monitors; skeleton: batched "
                        "valid/stop-only engine (boundary "
                        "control faults)")
    p.add_argument("--backend", choices=BACKENDS, default="auto",
                   help="skeleton engine backend (auto/bitsim: "
                        "one bit-parallel run, one plane per "
                        "fault; scalar: the reference engine)")
    p.add_argument("--strict", action="store_true",
                   help="arm the strict stop-shape monitor "
                        "(detects stops landing on voids under "
                        "the refined protocol)")
    p.add_argument("--smoke", action="store_true",
                   help="small fast campaign for CI (64 cycles, "
                        "12 samples)")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--output", "-o", default=None,
                   help="write the report here (default: stdout)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write campaign verdict metrics as a "
                        "JSON metrics snapshot")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write one merged Chrome trace: parent "
                        "events plus a (pid, tid) lane per "
                        "worker chunk under --jobs")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk golden-run cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="golden-run cache directory (default: "
                        "$REPRO_LID_CACHE_DIR or "
                        "~/.cache/repro-lid; keys include the "
                        "git revision, so stale entries are "
                        "never reused across commits)")


def _build_liveness(sub):
    p = sub.add_parser(
        "liveness", help="exhaustive liveness proof over all environments")
    _add_seed(p)
    p.add_argument("topology")
    _add_variant(p)
    p.add_argument("--max-states", type=_positive_int, default=100_000)


def _build_trace(sub):
    p = sub.add_parser(
        "trace", help="run with event tracing and export the stream")
    _add_seed(p)
    p.add_argument("topology")
    p.add_argument("--cycles", type=int, default=200)
    _add_variant(p)
    p.add_argument("--format", choices=["jsonl", "chrome"],
                   default="jsonl",
                   help="jsonl: one event per line; chrome: "
                        "Chrome Trace Event JSON (Perfetto)")
    p.add_argument("--engine", choices=["lid", "skeleton"],
                   default="lid",
                   help="lid: full token-level simulation; "
                        "skeleton: valid/stop skeleton only")
    p.add_argument("--output", "-o", default=None,
                   help="output file (default: stdout)")


def _build_profile(sub):
    p = sub.add_parser(
        "profile", help="run with the phase profiler and report timings")
    _add_seed(p)
    p.add_argument("topology")
    p.add_argument("--cycles", type=int, default=2000)
    _add_variant(p)
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of a "
                        "table")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="also write a Chrome trace (events + "
                        "profiler phase slices)")
    p.add_argument("--output", "-o", default=None,
                   help="write the report here (default: stdout)")


def _build_stats(sub):
    p = sub.add_parser(
        "stats", help="simulate a topology and print run statistics")
    _add_seed(p)
    p.add_argument("topology")
    p.add_argument("--cycles", type=int, default=200)
    _add_variant(p)


def _build_series(sub):
    from .analysis.sweep import SERIES_GENERATORS

    p = sub.add_parser("series",
                       help="emit a figure-style data series as CSV")
    _add_seed(p)
    _add_ledger(p)
    p.add_argument("which", choices=sorted(SERIES_GENERATORS))
    p.add_argument("--output", "-o", default=None)


def _build_serve(sub):
    p = sub.add_parser(
        "serve",
        help="run the campaign service: an asyncio HTTP/JSON front end "
             "with a shared result cache, request coalescing and a "
             "persistent worker pool (see docs/serving.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377,
                   help="listen port (0 = ephemeral; the bound "
                        "port is announced on stderr)")
    p.add_argument("--jobs", "-j", type=_positive_int, default=1,
                   metavar="N",
                   help="persistent worker pool size for cold "
                        "manifests")
    p.add_argument("--mode", choices=["process", "thread"],
                   default="process",
                   help="worker pool flavor (thread: in-process, "
                        "for tests and low-latency smoke runs)")
    p.add_argument("--queue-depth", type=_positive_int, default=8,
                   metavar="N",
                   help="max outstanding uncoalesced runs before "
                        "503 backpressure (default 8)")
    p.add_argument("--rate", type=float, default=0.0, metavar="R",
                   help="per-client token-bucket refill rate in "
                        "requests/second (default 0 = unlimited)")
    p.add_argument("--burst", type=float, default=None, metavar="B",
                   help="token-bucket capacity (default: "
                        "max(2*RATE, 1))")
    p.add_argument("--ledger", nargs="?", const="", default=None,
                   metavar="FILE",
                   help="append a run record for every executed "
                        "manifest (bare --ledger uses the "
                        "default ledger path)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the shared response/golden-run "
                        "cache (every request executes)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default: "
                        "$REPRO_LID_CACHE_DIR or "
                        "~/.cache/repro-lid)")


def _build_client(sub):
    p = sub.add_parser(
        "client",
        help="talk to a running campaign service: POST a manifest "
             "(optionally N concurrent copies), or query "
             "health/stats")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377)
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="manifest JSON file ('-' = stdin)")
    p.add_argument("--concurrency", type=_positive_int, default=1,
                   metavar="N",
                   help="POST the same manifest N times "
                        "concurrently; all responses must be "
                        "byte-identical (coalescing check)")
    p.add_argument("--stream", action="store_true",
                   help="request NDJSON progress streaming; "
                        "progress lines go to stderr, the "
                        "report body to stdout/--output")
    p.add_argument("--health", action="store_true",
                   help="GET /healthz and exit")
    p.add_argument("--stats", action="store_true",
                   help="GET /v1/stats and exit")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="socket timeout in seconds")
    p.add_argument("--output", "-o", default=None,
                   help="write the response body here "
                        "(default: stdout)")


def _build_obs(sub):
    p = sub.add_parser(
        "obs", help="cross-run observability: run ledger & regression "
                    "tracking")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="ledger file (default: $REPRO_LID_LEDGER "
                        "or ~/.cache/repro-lid/ledger.jsonl)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    obs_sub.add_parser("ls", help="summary table of the run ledger")
    p_show = obs_sub.add_parser(
        "show", help="print one ledger record (@index or run-id prefix)")
    p_show.add_argument("ref")
    p_show.add_argument("--canonical", action="store_true",
                        help="print only the canonical payload "
                             "line (the byte-deterministic part; "
                             "what CI cmp-compares)")
    p_diff = obs_sub.add_parser(
        "diff", help="verdict/timing/attribution delta of two records")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_regress = obs_sub.add_parser(
        "regress", help="flag wall-time / rate regressions across "
                        "bench records and ledger trajectory; exits 1 "
                        "on regression")
    p_regress.add_argument("--bench", action="append", default=[],
                           metavar="DIR",
                           help="BENCH_*.json directory; pass "
                                "repeatedly, oldest first (each "
                                "directory is one trajectory "
                                "position)")
    p_regress.add_argument("--threshold", type=float, default=1.5,
                           help="tolerated slowdown ratio "
                                "(default 1.5)")
    p_regress.add_argument("--baseline", choices=["first", "best"],
                           default="first",
                           help="compare the newest point against "
                                "the first or the best prior point")
    p_regress.add_argument("--no-ledger", action="store_true",
                           help="ignore the ledger; scan only "
                                "--bench directories")


def _build_export(sub):
    p = sub.add_parser("export", help="export artifacts")
    _add_seed(p)
    p.add_argument(
        "what",
        choices=["dot", "json", "relay-vhdl", "half-relay-vhdl",
                 "shell-vhdl"],
    )
    p.add_argument("--topology", help="for dot/json: topology to export")
    p.add_argument("--width", type=int, default=8,
                   help="for vhdl: data width")
    p.add_argument("--output", "-o", default=None,
                   help="output file (default: stdout)")


#: Subcommand -> builder that adds its subparser, in the order the full
#: parser lists them.
_COMMANDS = {
    "analyze": _build_analyze,
    "verify": _build_verify,
    "reproduce": _build_reproduce,
    "figure1": _build_figure1,
    "figure2": _build_figure2,
    "deadlock": _build_deadlock,
    "inject": _build_inject,
    "liveness": _build_liveness,
    "trace": _build_trace,
    "profile": _build_profile,
    "stats": _build_stats,
    "series": _build_series,
    "serve": _build_serve,
    "client": _build_client,
    "obs": _build_obs,
    "export": _build_export,
}


def _requested_command(argv):
    """The subcommand *argv* runs, read without building a parser.

    Skips top-level ``--seed N`` / ``--seed=N``; anything else before a
    known command (``-h``, ``--version``, an unknown command, none)
    returns ``None``, and the full parser answers it.
    """
    index = 0
    while index < len(argv):
        token = argv[index]
        if token == "--seed":
            index += 2
        elif token.startswith("--seed="):
            index += 1
        else:
            return token if token in _COMMANDS else None
    return None


class _OneCommandParser(argparse.ArgumentParser):
    """A top-level parser holding one subcommand.  Its own errors (a bad
    ``--seed``, arguments the subcommand left unrecognized) are printed
    by the full parser, whose usage line lists every command."""

    def error(self, message):
        _build_parser()[0].error(message)


def _build_parser(command=None):
    """``(parser, subparsers action)`` with every subcommand, or with
    *command* only; both give the same help, usage and errors."""
    parser = (_OneCommandParser if command else argparse.ArgumentParser)(
        prog="repro-lid",
        description="Latency-insensitive protocol toolkit "
                    "(Casu & Macchiarulo, DATE 2004 reproduction)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {_version_string()}",
        help="print version and git revision, then exit")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="global seed for every randomized consumer (dag:/loopy: "
             "topology generation, inject fault sampling); fixed "
             "default keeps all output reproducible")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    for build in ([_COMMANDS[command]] if command
                  else _COMMANDS.values()):
        build(sub)
    return parser, sub


def _topology(args):
    """Parse ``args.topology``; a bad parameter exits 1 with one line,
    as ``inject`` and ``deadlock`` report it."""
    try:
        return parse_topology(args.topology, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(f"repro-lid {args.command}: bad topology "
                         f"{args.topology!r}: {exc}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub = _build_parser(_requested_command(argv))
    args = parser.parse_args(argv)
    command_parser = sub.choices[args.command]

    if args.command == "analyze":
        from .errors import PeriodicityTimeout

        graph = _topology(args)
        if args.topology.startswith(("dag", "loopy")):
            print(f"seed: {args.seed}")
        try:
            report = analyze(graph, variant=args.variant,
                             max_cycles=args.max_cycles)
        except PeriodicityTimeout as exc:
            print(f"inconclusive: {exc} — raise --max-cycles",
                  file=sys.stderr)
            return 2
        print(report.render())
        if args.metrics_out:
            _write_metrics_snapshot(graph, args)
    elif args.command == "verify":
        from .verify import results_table, verify_all

        print(results_table(verify_all()))
    elif args.command == "reproduce":
        _reproduce(args)
    elif args.command == "trace":
        return _trace(args)
    elif args.command == "profile":
        return _profile(args)
    elif args.command == "figure1":
        table, _rows = run_figure1()
        print(table)
    elif args.command == "figure2":
        table, _rows = run_figure2()
        print(table)
    elif args.command == "deadlock":
        return _deadlock(args, command_parser)
    elif args.command == "inject":
        return _inject(args, command_parser)
    elif args.command == "stats":
        import json as _json

        graph = _topology(args)
        system = graph.elaborate(variant=args.variant)
        system.run(args.cycles)
        stats = dict(system.stats(), seed=args.seed)
        print(_json.dumps(stats, indent=2, sort_keys=True))
    elif args.command == "liveness":
        from .errors import StateSpaceExceeded
        from .verify import verify_system_liveness

        graph = _topology(args)
        try:
            result = verify_system_liveness(graph, variant=args.variant,
                                            max_states=args.max_states)
        except StateSpaceExceeded:
            print(f"inconclusive: {args.topology}: state space exceeded "
                  f"{args.max_states} states — raise --max-states",
                  file=sys.stderr)
            return 2
        if result.live:
            print(f"LIVE for all environments: "
                  f"{result.reachable_states} reachable states, "
                  f"{result.transitions} transitions explored, "
                  f"{result.ambiguous_states} with ambiguous stop "
                  f"fixpoints")
        else:
            print(f"STUCK STATE reachable after exploring "
                  f"{result.reachable_states} states: "
                  f"{result.stuck_state}")
            print(result.render_witness())
        return 0 if result.live else 1
    elif args.command == "series":
        outcome = _run_manifest(args, command_parser,
                                {"kind": "series", "which": args.which})
        _emit(outcome, args.output)
        if args.ledger is not None:
            _ledger_note(args.ledger, outcome.record)
    elif args.command == "serve":
        return _serve(args)
    elif args.command == "client":
        return _client(args)
    elif args.command == "obs":
        return _obs(args)
    elif args.command == "export":
        text = _export(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text)
    return 0


def _ledger_note(ledger_arg: str, record) -> None:
    """Append *record* and confirm on stderr (stdout stays canonical).

    ``--ledger`` without a file argument parses to ``""`` — the
    sentinel for "use the default ledger path".
    """
    from .obs import append_record, default_ledger_path

    path = ledger_arg or default_ledger_path()
    run_id = append_record(path, record)
    print(f"ledger: appended {record['payload']['kind']} {run_id} "
          f"to {path}", file=sys.stderr)


def _run_manifest(args, parser, fields, **side_channels):
    """Validate *fields* as a :class:`~repro.serve.Manifest` and run it
    through :func:`repro.serve.execute_manifest`, the path the campaign
    service runs too.  A field the manifest rejects exits 2 through
    *parser*; an execution-time refusal exits 1 with one line."""
    from .serve import DispatchError, Manifest, ManifestError, execute_manifest

    try:
        manifest = Manifest.from_dict(fields)
    except ManifestError as exc:
        parser.error(str(exc))
    try:
        return execute_manifest(manifest, jobs=getattr(args, "jobs", 1),
                                cache_dir=getattr(args, "cache_dir", None),
                                **side_channels)
    except DispatchError as exc:
        raise SystemExit(f"repro-lid {args.command}: {exc}")


def _emit(outcome, output) -> None:
    """Write the outcome body to *output*, or to stdout."""
    text = outcome.body.decode()
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _write_metrics(path: str, metrics, **fields) -> None:
    """Write a ``repro-metrics/v1`` snapshot file and say so."""
    import json

    from .bench.runner import git_rev

    payload = dict(fields, schema="repro-metrics/v1", git_rev=git_rev(),
                   metrics=metrics)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _deadlock(args, parser) -> int:
    """``deadlock``: liveness check + optional metrics/ledger record."""
    telemetry = None
    if args.metrics_out:
        from .obs import Telemetry

        telemetry = Telemetry.metrics_only()
    # The liveness check never touches the disk cache.
    outcome = _run_manifest(args, parser, {
        "kind": "deadlock", "topology": args.topology, "seed": args.seed,
        "variant": str(args.variant), "max_cycles": args.max_cycles,
    }, use_cache=False, telemetry=telemetry)
    _emit(outcome, None)
    if args.metrics_out:
        _write_metrics(args.metrics_out, telemetry.metrics.snapshot(),
                       topology=args.topology, variant=str(args.variant),
                       max_cycles=args.max_cycles)
    if args.ledger is not None:
        _ledger_note(args.ledger, outcome.record)
    return outcome.exit_code


def _serve(args) -> int:
    """``serve``: run the campaign service in the foreground."""
    from .serve import CampaignScheduler, CampaignServer, run_server

    ledger = None
    if args.ledger is not None:
        from .obs import default_ledger_path

        ledger = args.ledger or default_ledger_path()
    scheduler = CampaignScheduler(
        jobs=args.jobs, mode=args.mode, queue_depth=args.queue_depth,
        use_cache=not args.no_cache, cache_dir=args.cache_dir,
        ledger=ledger)
    server = CampaignServer(scheduler, host=args.host, port=args.port,
                            rate=args.rate, burst=args.burst)

    def announce(srv) -> None:
        print(f"repro-lid serve: listening on "
              f"http://{srv.host}:{srv.port} "
              f"({args.mode} pool, jobs={args.jobs}, "
              f"queue-depth={args.queue_depth})", file=sys.stderr)

    return run_server(server, announce=announce)


def _client(args) -> int:
    """``client``: POST a manifest (or query health/stats)."""
    import http.client
    import json

    def request(method: str, path: str, body=None, headers=None):
        conn = http.client.HTTPConnection(args.host, args.port,
                                          timeout=args.timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return (response.status, dict(response.getheaders()),
                    response.read())
        finally:
            conn.close()

    def emit(body: bytes) -> None:
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(body)
            print(f"wrote {args.output} ({len(body)} bytes)",
                  file=sys.stderr)
        else:
            sys.stdout.buffer.write(body)
            sys.stdout.buffer.flush()

    if args.health or args.stats:
        path = "/healthz" if args.health else "/v1/stats"
        status, _headers, body = request("GET", path)
        emit(body)
        return 0 if status == 200 else 1

    if not args.manifest:
        raise SystemExit("repro-lid client: --manifest FILE required "
                         "(or use --health/--stats)")
    if args.manifest == "-":
        manifest_text = sys.stdin.read()
    else:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest_text = fh.read()
    try:
        payload = json.loads(manifest_text)
    except ValueError as exc:
        raise SystemExit(f"repro-lid client: bad manifest JSON: {exc}")

    if args.stream:
        return _client_stream(args, payload)

    body_bytes = json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"}

    def post(_index: int):
        return request("POST", "/v1/run", body=body_bytes,
                       headers=headers)

    if args.concurrency == 1:
        results = [post(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
            results = list(pool.map(post, range(args.concurrency)))

    status0, headers0, body0 = results[0]
    distinct = {(status, body) for status, _h, body in results}
    if len(distinct) != 1:
        raise SystemExit(
            f"repro-lid client: {len(distinct)} distinct responses "
            f"from {args.concurrency} identical requests — the "
            f"service broke its determinism contract")
    sources = [h.get("X-Repro-Cache", "?") for _s, h, _b in results]
    from collections import Counter

    tally = "  ".join(f"{name}={count}" for name, count
                      in sorted(Counter(sources).items()))
    print(f"client: {args.concurrency} request(s), status {status0}, "
          f"{tally}", file=sys.stderr)
    emit(body0)
    if status0 != 200:
        return 1
    return int(headers0.get("X-Repro-Exit", "0") or 0)


def _client_stream(args, payload) -> int:
    """NDJSON streaming client: progress to stderr, body to stdout."""
    import http.client
    import json

    payload = dict(payload, stream=True)
    conn = http.client.HTTPConnection(args.host, args.port,
                                      timeout=args.timeout)
    try:
        conn.request("POST", "/v1/run", body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        if response.status != 200:
            sys.stderr.write(response.read().decode("utf-8",
                                                    "replace"))
            return 1
        exit_code = 1
        for raw in response:
            line = raw.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("event") == "result":
                body = event["body"].encode()
                if args.output:
                    with open(args.output, "wb") as fh:
                        fh.write(body)
                else:
                    sys.stdout.buffer.write(body)
                    sys.stdout.buffer.flush()
                print(f"client: {event.get('cache')} run "
                      f"{event.get('run_id')}", file=sys.stderr)
                exit_code = int(event.get("exit_code", 0))
            elif event.get("event") == "error":
                print(f"client: error: {event.get('message')}",
                      file=sys.stderr)
                exit_code = 1
            else:
                print(f"progress: {event.get('done')}/"
                      f"{event.get('total')}", file=sys.stderr)
        return exit_code
    finally:
        conn.close()


def _obs(args) -> int:
    """``obs``: ls / show / diff over the ledger, plus ``regress``."""
    import json

    from .obs import (
        bench_trend,
        default_ledger_path,
        diff_records,
        find_regressions,
        format_report,
        ledger_trend,
        read_ledger,
        resolve_record,
    )
    from .obs.ledger import canonical_payload_bytes, format_diff, format_ls

    path = args.ledger or default_ledger_path()
    if args.obs_command == "ls":
        records = read_ledger(path)
        if not records:
            print(f"ledger {path} is empty")
            return 0
        print(format_ls(records))
        return 0
    if args.obs_command == "show":
        try:
            _index, record = resolve_record(read_ledger(path), args.ref)
        except ValueError as exc:
            raise SystemExit(f"repro-lid obs show: {exc}")
        if args.canonical:
            sys.stdout.buffer.write(canonical_payload_bytes(record))
            sys.stdout.buffer.flush()
        else:
            print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.obs_command == "diff":
        records = read_ledger(path)
        try:
            _ia, record_a = resolve_record(records, args.a)
            _ib, record_b = resolve_record(records, args.b)
        except ValueError as exc:
            raise SystemExit(f"repro-lid obs diff: {exc}")
        print(format_diff(diff_records(record_a, record_b)))
        return 0
    # regress: bench directories are explicit trajectory positions,
    # the ledger contributes per-span wall-time history.
    points = list(bench_trend(args.bench)) if args.bench else []
    if not args.no_ledger:
        points.extend(ledger_trend(read_ledger(path)))
    regressions = find_regressions(points, threshold=args.threshold,
                                   baseline=args.baseline)
    print(format_report(regressions, threshold=args.threshold))
    return 1 if regressions else 0


def _run_instrumented(graph, variant, cycles, telemetry):
    """Elaborate *graph*, attach *telemetry*, run *cycles* cycles."""
    from .lid.monitor import watch_system

    system = graph.elaborate(variant=variant)
    system.attach_telemetry(telemetry)
    watch_system(system)
    if telemetry.events is not None:
        telemetry.events.emit("run", "start", 0, topology=graph.name,
                              variant=str(variant), cycles=cycles)
    system.run(cycles)
    if telemetry.events is not None:
        telemetry.events.emit("run", "end", cycles)
    return system


def _write_metrics_snapshot(graph, args) -> None:
    """``analyze --metrics-out``: instrumented run + JSON snapshot."""
    from .obs import Telemetry

    telemetry = Telemetry.metrics_only()
    system = _run_instrumented(graph, args.variant, args.cycles, telemetry)
    _write_metrics(args.metrics_out, system.metrics_snapshot(),
                   topology=args.topology, variant=str(args.variant),
                   cycles=args.cycles)


def _reproduce(args) -> None:
    import json
    from time import perf_counter

    overall_started = perf_counter()
    registry = None
    if args.metrics_out:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()

    def record(exp_id: str, wall: float, n_rows: int) -> None:
        if registry is None:
            return
        registry.gauge(f"bench/{exp_id}/wall_seconds").set(wall)
        registry.counter(f"bench/{exp_id}/rows").inc(n_rows)

    ledger_path = None
    if args.ledger is not None:
        from .obs import default_ledger_path

        ledger_path = args.ledger or default_ledger_path()
    progress = None
    if args.progress:
        from .obs import ProgressReporter

        progress = ProgressReporter(0, label="reproduce")

    if args.output:
        from .bench.runner import write_results

        for path in write_results(args.output, jobs=args.jobs,
                                  ledger=ledger_path,
                                  progress=progress):
            print(f"wrote {path}")
            if registry is not None and path.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    rec = json.load(fh)
                record(rec["bench"], rec["wall_seconds"],
                       rec["counters"].get("rows", 0))
        if ledger_path:
            print(f"ledger: appended bench records to {ledger_path}",
                  file=sys.stderr)
    elif args.experiment:
        description, runner = EXPERIMENTS[args.experiment]
        started = perf_counter()
        table, rows = runner()
        record(args.experiment, perf_counter() - started, len(rows))
        print(f"[{args.experiment}] {description}\n")
        print(table)
    elif registry is not None:
        chunks = []
        for exp_id, (description, runner) in EXPERIMENTS.items():
            started = perf_counter()
            table, rows = runner()
            record(exp_id, perf_counter() - started, len(rows))
            chunks.append(f"[{exp_id}] {description}\n\n{table}\n")
        print("\n".join(chunks))
    else:
        print(run_all())

    if registry is not None:
        _write_metrics(args.metrics_out, registry.snapshot())

    if ledger_path and not args.output:
        from .obs import make_record

        _ledger_note(args.ledger, make_record(
            "reproduce",
            params={"experiment": args.experiment or "all"},
            meta={"wall_seconds":
                  round(perf_counter() - overall_started, 6),
                  "jobs": args.jobs}))


def _inject(args, parser) -> int:
    """``inject``: run a fault campaign and emit the report."""
    fields = {"kind": "campaign", "topology": args.topology,
              "seed": args.seed, "variant": str(args.variant),
              "engine": args.engine, "backend": args.backend,
              "faults": args.faults, "window": args.window,
              "strict": args.strict, "format": args.format}
    if args.smoke:
        # The manifest's smoke flag pins cycles/samples/exhaustive.
        fields["smoke"] = True
    else:
        fields.update(cycles=args.cycles, samples=args.samples,
                      exhaustive=args.exhaustive)
    telemetry = trace = progress = None
    if args.metrics_out or args.trace_out:
        from .obs import EventStream, MetricsRegistry, Profiler, Telemetry

        telemetry = Telemetry(
            events=EventStream() if args.trace_out else None,
            metrics=MetricsRegistry() if args.metrics_out else None,
            profiler=Profiler() if args.trace_out else None)
    if args.trace_out:
        from .exec import TraceCollection

        trace = TraceCollection()
    if args.progress:
        from .obs import ProgressReporter

        progress = ProgressReporter(
            0, label="inject",
            stream=telemetry.events if telemetry is not None else None)
    outcome = _run_manifest(args, parser, fields,
                            use_cache=not args.no_cache,
                            telemetry=telemetry, progress=progress,
                            trace=trace)
    _emit(outcome, args.output)
    if args.output:
        counts = outcome.record["payload"]["verdict"]
        summary = "  ".join(f"{k}={v}" for k, v in counts.items())
        extra = f"  jobs={args.jobs}"
        if outcome.cache is not None:
            extra += (f" cache-hits={outcome.cache['hits']}"
                      f" cache-misses={outcome.cache['misses']}")
        print(f"wrote {args.output}: {sum(counts.values())} experiments "
              f"(seed {args.seed}): {summary}{extra}")

    if args.metrics_out:
        _write_metrics(args.metrics_out, telemetry.metrics.snapshot(),
                       topology=args.topology, variant=str(args.variant),
                       seed=args.seed)

    if args.trace_out:
        from .obs import write_merged_chrome_trace

        merged = write_merged_chrome_trace(
            telemetry.events, trace.traces, args.trace_out,
            profiler=telemetry.profiler, run_id=outcome.span)
        other = merged.get("otherData", {})
        print(f"wrote {args.trace_out}: merged trace, "
              f"{other.get('worker_lanes', 0)} worker lane(s), "
              f"{other.get('emitted', 0)} events emitted, "
              f"{other.get('dropped', 0)} dropped")

    if args.ledger is not None:
        _ledger_note(args.ledger, outcome.record)
    return outcome.exit_code


def _trace(args) -> int:
    import sys as _sys

    from .obs import Telemetry
    from .obs.exporters import export_stream

    graph = _topology(args)
    telemetry = Telemetry.full()
    if args.engine == "skeleton":
        from .skeleton import SkeletonSim

        sim = SkeletonSim(graph, variant=args.variant,
                          telemetry=telemetry)
        for _ in range(args.cycles):
            sim.step()
    else:
        _run_instrumented(graph, args.variant, args.cycles, telemetry)
    stream = telemetry.events
    if args.output:
        export_stream(stream, args.output, args.format)
        first, last = stream.cycle_span()
        print(f"wrote {args.output}: {len(stream)} events retained "
              f"({stream.emitted} emitted, {stream.dropped} dropped), "
              f"cycles {first}..{last}")
    else:
        export_stream(stream, _sys.stdout, args.format)
    if stream.dropped:
        print(f"warning: dropped={stream.dropped} of {stream.emitted} "
              f"events (ring capacity {stream.capacity}; oldest "
              f"evicted first)", file=_sys.stderr)
    return 0


def _profile(args) -> int:
    import json

    from .obs import Telemetry
    from .obs.exporters import write_chrome_trace

    graph = _topology(args)
    telemetry = Telemetry.full()
    _run_instrumented(graph, args.variant, args.cycles, telemetry)
    profiler = telemetry.profiler
    if args.json:
        text = json.dumps(profiler.report(), indent=2, sort_keys=True)
    else:
        text = profiler.format_table(
            title=f"profile: {args.topology} ({args.cycles} cycles, "
                  f"{args.variant})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.trace_out:
        write_chrome_trace(telemetry.events.events(), args.trace_out,
                           profiler=profiler)
        print(f"wrote {args.trace_out}")
    return 0


def _export(args) -> str:
    if args.what in ("dot", "json"):
        if not args.topology:
            raise SystemExit("--topology required for dot/json export")
        graph = _topology(args)
        if args.what == "dot":
            from .graph import to_dot

            return to_dot(graph)
        import json as _json

        from .graph import to_dict

        return _json.dumps(to_dict(graph), indent=2, sort_keys=True)
    from .rtl import (
        emit_vhdl,
        full_relay_station_netlist,
        half_relay_station_netlist,
        identity_shell_netlist,
    )

    builders = {
        "relay-vhdl": full_relay_station_netlist,
        "half-relay-vhdl": half_relay_station_netlist,
        "shell-vhdl": identity_shell_netlist,
    }
    return emit_vhdl(builders[args.what](args.width))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
