"""Command-line interface.

Two families of commands:

- experiment replay (``python -m repro table1``, ``fig6ab``, ``all``,
  ``list``) — regenerate the paper's tables and figures on synthetic
  data;
- mining utilities — run DMC on your own transactions file or write a
  synthetic data set to disk:

  ::

      python -m repro generate News --out news.txt --scale 0.5
      python -m repro mine-imp news.txt --minconf 0.9
      python -m repro mine-sim news.txt --minsim 0.75 --limit 20
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.harness import (
    EXPERIMENTS,
    render_table,
    run_experiment,
)

_EXPERIMENT_COMMANDS = ("list", "all") + tuple(EXPERIMENTS)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dynamic Miss-Counting rule mining (ICDE 2000 reproduction): "
            "replay the paper's experiments or mine your own data."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in _EXPERIMENT_COMMANDS:
        if name == "list":
            help_text = "list the available experiments"
        elif name == "all":
            help_text = "run every experiment"
        else:
            doc = EXPERIMENTS[name].__doc__ or ""
            help_text = doc.strip().splitlines()[0]
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--scale", type=float, default=1.0,
            help="dataset scale factor (default 1.0)",
        )
        sub.add_argument(
            "--seed", type=int, default=0,
            help="generator seed (default 0)",
        )

    mine_imp = subparsers.add_parser(
        "mine-imp", help="mine implication rules from a transactions file"
    )
    mine_imp.add_argument("path", help="transactions file (see matrix/io)")
    mine_imp.add_argument(
        "--minconf", type=float, default=0.9,
        help="confidence threshold in (0, 1] (default 0.9)",
    )
    mine_imp.add_argument(
        "--limit", type=int, default=50,
        help="print at most this many rules (default 50)",
    )

    mine_sim = subparsers.add_parser(
        "mine-sim", help="mine similar column pairs from a transactions file"
    )
    mine_sim.add_argument("path", help="transactions file (see matrix/io)")
    mine_sim.add_argument(
        "--minsim", type=float, default=0.75,
        help="similarity threshold in (0, 1] (default 0.75)",
    )
    mine_sim.add_argument(
        "--limit", type=int, default=50,
        help="print at most this many pairs (default 50)",
    )
    for sub in (mine_imp, mine_sim):
        sub.add_argument(
            "--summary", action="store_true",
            help="print aggregate statistics instead of rules",
        )
        sub.add_argument(
            "--engine",
            choices=("auto", "dmc", "stream", "partitioned", "vector"),
            default="auto",
            help="mining engine (default auto: picked from the other "
                 "flags, with the blocked numpy second pass); dmc runs "
                 "the serial row-at-a-time scan; vector forces the "
                 "numpy pass in memory — combine with --workers to run "
                 "it inside each partition (--stream already uses it)",
        )
        sub.add_argument(
            "--stream", action="store_true",
            help="mine with the two-pass streaming pipeline (never "
                 "loads the matrix; numeric ids only)",
        )
        sub.add_argument(
            "--validate", choices=("strict", "skip", "clamp"), default=None,
            help="malformed-row policy: strict rejects with a line-"
                 "numbered diagnostic, skip drops and counts, clamp "
                 "repairs (default: strict)",
        )
        sub.add_argument(
            "--checkpoint", metavar="DIR", default=None,
            help="persist pass-1 state in DIR and resume pass 2 from it "
                 "after a crash (implies --stream)",
        )
        sub.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="mine with the partitioned engine on N worker "
                 "processes (--engine auto, partitioned or vector; "
                 "incompatible with --stream)",
        )
        sub.add_argument(
            "--partitions", type=int, default=4, metavar="N",
            help="row partitions for the partitioned engine (default 4)",
        )
        sub.add_argument(
            "--preflight-disk", action="store_true",
            help="check free disk space against the estimated spill "
                 "footprint before the streaming pass 1 writes anything",
        )
        sub.add_argument(
            "--metrics", metavar="PATH", default=None,
            help="write run metrics to PATH (JSON, or Prometheus text "
                 "when PATH ends in .prom/.txt)",
        )
        sub.add_argument(
            "--trace", metavar="PATH", default=None,
            help="write the run's span trace to PATH as JSON",
        )
        sub.add_argument(
            "--progress", action="store_true",
            help="print live progress lines to stderr",
        )
        sub.add_argument(
            "--journal", metavar="PATH", default=None,
            help="append one JSONL event per state change (phases, "
                 "bitmap switch, retries, pruning-curve samples) to "
                 "PATH; inspect with `repro journal tail|summarize`",
        )
        sub.add_argument(
            "--serve-metrics", type=int, default=None, metavar="PORT",
            help="serve /metrics (Prometheus text), /healthz and "
                 "/runs/<run_id> on 127.0.0.1:PORT while mining "
                 "(0 picks an ephemeral port)",
        )
        sub.add_argument(
            "--profile", metavar="PATH", default=None,
            help="sample the run's wall-clock stacks and write them "
                 "to PATH in folded format (feed to flamegraph.pl or "
                 "speedscope)",
        )

    mine_topk = subparsers.add_parser(
        "mine-topk",
        help="mine the k strongest implication rules from a file",
    )
    mine_topk.add_argument("path", help="transactions file")
    mine_topk.add_argument(
        "-k", type=int, default=20, help="rule count target (default 20)"
    )

    journal = subparsers.add_parser(
        "journal", help="inspect a run journal written by --journal"
    )
    journal.add_argument(
        "action", choices=("tail", "summarize"),
        help="tail: print the last events; summarize: fold the "
             "journal into a run summary",
    )
    journal.add_argument("path", help="journal file (JSONL)")
    journal.add_argument(
        "--count", type=int, default=20, metavar="N",
        help="events to print with tail (default 20; 0 for all)",
    )
    journal.add_argument(
        "--follow", "-f", action="store_true",
        help="after printing the tail, keep following the journal as "
             "it grows (tail -F: survives truncation and rotation; "
             "stop with Ctrl-C)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="inspect a span-trace file (a --trace document or a "
             "service trace archive)",
    )
    trace.add_argument(
        "action", choices=("export", "summarize"),
        help="export: convert to Chrome-trace JSON (load in Perfetto "
             "or chrome://tracing); summarize: print a per-span-name "
             "duration table",
    )
    trace.add_argument("path", help="trace JSON file")
    trace.add_argument(
        "--out", metavar="PATH", default=None,
        help="with export: write the Chrome trace here instead of "
             "stdout",
    )

    watch = subparsers.add_parser(
        "watch",
        help="tail the rule churn of a continuous-mining (live) run: "
             "delta applies, rule appear/disappear events",
    )
    watch.add_argument(
        "path",
        help="journal file (JSONL), or a service state dir (its "
             "service.jsonl is watched)",
    )
    watch.add_argument(
        "--job", default=None, metavar="ID",
        help="only show events of this live job id",
    )
    watch.add_argument(
        "--from-start", action="store_true",
        help="replay the whole journal before following (default: "
             "start at the end)",
    )
    watch.add_argument(
        "--no-follow", action="store_true",
        help="print the existing churn and exit instead of following",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the mining service: a durable job runtime with a "
             "REST API (POST /jobs, GET /jobs/<id>, ...)",
    )
    serve.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable service state (job index, results, work dirs, "
             "service journal); reused across restarts",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="TCP port (default 0: pick an ephemeral port; the chosen "
             "URL is printed and written to <state-dir>/service.url)",
    )
    serve.add_argument(
        "--slots", type=int, default=2, metavar="N",
        help="concurrent job slots (default 2)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=None, metavar="N",
        help="per-tenant running-job cap (default: unlimited)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        help="per-tenant queued-job cap; further submits get 429 "
             "(default: unlimited)",
    )
    serve.add_argument(
        "--max-rows", type=int, default=None, metavar="N",
        help="largest admissible job by row count (default: unlimited)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock limit (a spec's "
             "timeout_seconds overrides; default: none)",
    )
    serve.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="default per-job counter-array budget for engine=auto "
             "jobs; a scan that exceeds it hands over to the "
             "DMC-bitmap tail (default: none)",
    )
    serve.add_argument(
        "--min-free-bytes", type=int, default=None, metavar="BYTES",
        help="refuse new jobs (429) while the state dir's filesystem "
             "has less free space than this (default: no disk gate)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM, seconds running jobs get to finish before "
             "being re-queued for the next boot (default 30)",
    )

    generate = subparsers.add_parser(
        "generate", help="write a synthetic data set as a transactions file"
    )
    generate.add_argument(
        "name", help="registry data set (Wlog, plinkT, News, dicD, ...)"
    )
    generate.add_argument("--out", required=True, help="output path")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)

    check = subparsers.add_parser(
        "check",
        help="run the reproduction scorecard (one qualitative claim "
             "per paper figure)",
    )
    check.add_argument("--scale", type=float, default=1.0)
    check.add_argument("--seed", type=int, default=0)

    report = subparsers.add_parser(
        "report",
        help="run every experiment and write a markdown results report",
    )
    report.add_argument("--out", required=True, help="output .md path")
    report.add_argument("--scale", type=float, default=1.0)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--only", nargs="*", default=None,
        help="restrict to these experiment ids",
    )

    return parser


def _run_experiments(args: argparse.Namespace) -> int:
    if args.command == "list":
        for experiment_id, fn in EXPERIMENTS.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{experiment_id:12s} {summary}")
        return 0
    ids = list(EXPERIMENTS) if args.command == "all" else [args.command]
    for experiment_id in ids:
        result = run_experiment(
            experiment_id, scale=args.scale, seed=args.seed
        )
        print(render_table(result))
        print()
    return 0


def _build_observer(args: argparse.Namespace):
    """The observer implied by --metrics/--trace/--progress (or None)."""
    from repro.observe import ConsoleProgress, RunObserver

    progress = (
        ConsoleProgress() if getattr(args, "progress", False) else None
    )
    if getattr(args, "metrics", None) or getattr(args, "trace", None):
        return RunObserver(progress=progress)
    return progress


def _export_observations(args: argparse.Namespace, observer) -> None:
    """Write the --metrics/--trace files after a successful run."""
    from repro.observe import RunObserver, write_metrics, write_trace

    if not isinstance(observer, RunObserver):
        return
    if getattr(args, "metrics", None):
        fmt = write_metrics(observer.metrics, args.metrics)
        print(f"wrote metrics ({fmt}) to {args.metrics}", file=sys.stderr)
    if getattr(args, "trace", None):
        write_trace(observer.tracer, args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)


def _mine(args: argparse.Namespace) -> int:
    from repro.runtime.validation import RowValidationError, RowValidator

    validator = None
    if getattr(args, "validate", None) is not None:
        validator = RowValidator(args.validate)
    use_stream = bool(
        getattr(args, "stream", False) or getattr(args, "checkpoint", None)
    )
    workers = getattr(args, "workers", None)
    if use_stream and workers is not None:
        print(
            "--workers uses the partitioned engine "
            "and cannot be combined with --stream/--checkpoint",
            file=sys.stderr,
        )
        return 2
    if use_stream and getattr(args, "engine", "auto") in (
        "dmc", "partitioned", "vector",
    ):
        hint = (
            " (--stream already runs the vector pass 2)"
            if args.engine == "vector" else ""
        )
        print(
            f"--engine {args.engine} mines in memory and cannot be "
            f"combined with --stream/--checkpoint{hint}",
            file=sys.stderr,
        )
        return 2
    config = None
    if args.command != "mine-topk":
        from repro.api import MiningConfig

        engine = getattr(args, "engine", "auto")
        if workers is not None and engine == "auto":
            engine = "partitioned"
        # Every setting is checked here, before the input is read: a
        # bad one is a usage error, not an unreadable file.
        try:
            config = MiningConfig(
                task="implication" if args.command == "mine-imp"
                else "similarity",
                threshold=args.minconf if args.command == "mine-imp"
                else args.minsim,
                engine=engine,
                n_partitions=args.partitions,
                n_workers=workers,
            )
        except (TypeError, ValueError) as error:
            print(f"invalid configuration: {error}", file=sys.stderr)
            return 2
    observer = _build_observer(args)

    try:
        from repro.matrix.io import load_transactions
        from repro.matrix.stream import FileSource

        read = FileSource if use_stream else load_transactions
        data = read(args.path, validator)
        vocabulary = getattr(data, "vocabulary", None)
        if args.command == "mine-topk":
            from repro.core.topk import top_k_implication_rules

            rules, cut = top_k_implication_rules(data, args.k)
        else:
            from repro.api import mine

            serve_port = getattr(args, "serve_metrics", None)
            if serve_port is not None:
                where = (
                    f"http://127.0.0.1:{serve_port}"
                    if serve_port
                    else "an OS-assigned free port"
                )
                print(
                    f"serving /metrics /healthz /runs/<run_id> on "
                    f"{where} for the duration of the run",
                    file=sys.stderr,
                )
            result = mine(
                data,
                config=config,
                checkpoint_dir=getattr(args, "checkpoint", None),
                preflight_disk=getattr(args, "preflight_disk", False),
                observer=observer,
                journal_path=getattr(args, "journal", None),
                serve_metrics_port=serve_port,
                profile=getattr(args, "profile", None),
            )
            rules = result.rules
            if result.stats.degradations:
                print(
                    "storage degradations taken: "
                    + ", ".join(result.stats.degradations),
                    file=sys.stderr,
                )
    except RowValidationError as error:
        print(f"invalid input: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as error:
        print(f"cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    _export_observations(args, observer)

    if args.command == "mine-imp":
        kind = f"implication rules at minconf={args.minconf}"
    elif args.command == "mine-topk":
        cut_text = "none" if cut is None else f"{cut} ({float(cut):.3f})"
        kind = f"strongest rules (k={args.k}, cut={cut_text})"
    else:
        kind = f"similar pairs at minsim={args.minsim}"

    if validator is not None and validator.rows_skipped:
        print(
            f"skipped {validator.rows_skipped} malformed row(s)",
            file=sys.stderr,
        )
    if validator is not None and validator.rows_clamped:
        print(
            f"clamped {validator.rows_clamped} malformed row(s) "
            f"({validator.tokens_dropped} token(s) dropped)",
            file=sys.stderr,
        )

    if getattr(args, "summary", False):
        from repro.mining.summarize import summarize_rules

        print(f"summary of {kind}:")
        print(summarize_rules(rules, vocabulary).render())
        return 0

    ordered = rules.sorted()
    limit = getattr(args, "limit", 50)
    print(f"{len(ordered)} {kind}")
    for rule in ordered[:limit]:
        print("  " + rule.format(vocabulary))
    if len(ordered) > limit:
        print(f"  ... and {len(ordered) - limit} more")
    return 0


def _journal(args: argparse.Namespace) -> int:
    import json

    from repro.observe import summarize_journal, tail_journal

    try:
        if args.action == "tail":
            try:
                for record in tail_journal(args.path, count=args.count):
                    print(json.dumps(record, separators=(",", ":")))
            except FileNotFoundError:
                if not args.follow:
                    raise
                # --follow waits for the journal to appear.
            if args.follow:
                from repro.observe import follow_journal

                try:
                    for record in follow_journal(args.path, from_end=True):
                        print(
                            json.dumps(record, separators=(",", ":")),
                            flush=True,
                        )
                except KeyboardInterrupt:
                    pass
            return 0
        summary = summarize_journal(args.path)
    except (OSError, ValueError) as error:
        print(f"cannot read journal {args.path}: {error}", file=sys.stderr)
        return 1

    wall = summary["wall_seconds"]
    header = f"run {summary['run_id']}"
    if summary.get("engine"):
        header += f" [{summary['engine']}]"
    if summary["rules"] is not None:
        header += f": {summary['rules']} rules"
    if wall is not None:
        header += f" in {wall:.2f}s"
    print(header)
    if summary["phases"]:
        print("phases:")
        for phase in summary["phases"]:
            seconds = phase["seconds"]
            timing = "?" if seconds is None else f"{seconds:.3f}s"
            print(f"  {phase['name']:24s} {timing}")
    if summary.get("span_table"):
        print("spans:")
        for row in summary["span_table"]:
            print(
                f"  {row['name']:24s} x{row['count']:<4d} "
                f"total {row['total_seconds']:.3f}s  "
                f"mean {row['mean_seconds']:.3f}s  "
                f"max {row['max_seconds']:.3f}s"
            )
    deltas = summary.get("deltas")
    if deltas:
        line = (
            f"live deltas: {deltas['batches']} batches, "
            f"{deltas['rows']} rows, +{deltas['appeared']}"
            f"/-{deltas['disappeared']} rules"
        )
        if deltas.get("n_rules") is not None:
            line += f" ({deltas['n_rules']} now)"
        print(line)
    events = " ".join(
        f"{name}={count}"
        for name, count in sorted(summary["events"].items())
    )
    print(f"events: {events}")
    incidents = summary["incidents"]
    print(f"incidents: {len(incidents)}")
    for record in incidents:
        detail = {
            key: value
            for key, value in record.items()
            if key not in ("run_id", "seq", "ts", "event")
        }
        print(f"  {record.get('event')}: {detail}")
    for scan, points in summary["pruning_curves"].items():
        if not points:
            continue
        rows, live, misses, rules = points[-1]
        print(
            f"pruning curve [{scan}]: {len(points)} points, final "
            f"rows={rows} live={live} misses={misses} rules={rules}"
        )
    return 0


def _trace(args: argparse.Namespace) -> int:
    import json

    from repro.observe import Tracer, trace_to_chrome, write_chrome_trace

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.path}: {error}", file=sys.stderr)
        return 1
    if not isinstance(document, dict):
        print(f"not a trace document: {args.path}", file=sys.stderr)
        return 1

    if args.action == "export":
        chrome = (
            document
            if "traceEvents" in document
            else trace_to_chrome(document)
        )
        if args.out:
            write_chrome_trace(chrome, args.out)
            print(f"wrote Chrome trace to {args.out}", file=sys.stderr)
        else:
            print(json.dumps(chrome, indent=2))
        return 0

    if "traceEvents" in document:
        print(
            "summarize needs the native trace document, not a "
            "Chrome-trace export",
            file=sys.stderr,
        )
        return 1
    tracer = Tracer.from_dict(document)

    def walk(span):
        yield span
        for child in span.children:
            for descendant in walk(child):
                yield descendant

    table, order = {}, []
    total_spans, failed_spans = 0, 0
    for root in tracer.spans:
        for span in walk(root):
            total_spans += 1
            if span.attributes.get("failed"):
                failed_spans += 1
            row = table.get(span.name)
            if row is None:
                row = table[span.name] = {
                    "count": 0, "seconds": 0.0, "max": 0.0,
                }
                order.append(span.name)
            row["count"] += 1
            row["seconds"] += span.seconds
            row["max"] = max(row["max"], span.seconds)
    trace_id = tracer.trace_id or "<no trace id>"
    header = f"trace {trace_id}: {total_spans} spans"
    if failed_spans:
        header += f" ({failed_spans} on failed attempts)"
    print(header)
    for name in order:
        row = table[name]
        print(
            f"  {name:24s} x{row['count']:<4d} "
            f"total {row['seconds']:.3f}s  max {row['max']:.3f}s"
        )
    return 0


def _generate(args: argparse.Namespace) -> int:
    from repro.datasets.registry import DATASETS, load_dataset
    from repro.matrix.io import save_transactions

    if args.name not in DATASETS:
        names = ", ".join(DATASETS)
        print(
            f"unknown data set {args.name!r}; choose from: {names}",
            file=sys.stderr,
        )
        return 2
    matrix = load_dataset(args.name, scale=args.scale, seed=args.seed)
    save_transactions(matrix, args.out)
    print(
        f"wrote {args.name} ({matrix.n_rows} rows x "
        f"{matrix.n_columns} columns, {matrix.nnz} ones) to {args.out}"
    )
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    try:
        count = write_report(
            args.out,
            scale=args.scale,
            seed=args.seed,
            experiment_ids=args.only,
        )
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"wrote {count} experiments to {args.out}")
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.service import MiningService, QuotaPolicy, TenantQuota

    policy = QuotaPolicy(
        default=TenantQuota(
            max_concurrent=args.max_concurrent,
            max_queued=args.max_queued,
            max_rows=args.max_rows,
        )
    )
    service = MiningService(
        args.state_dir,
        policy=policy,
        n_slots=args.slots,
        serve=True,
        port=args.port,
        host=args.host,
        default_memory_budget=args.memory_budget,
        default_timeout=args.job_timeout,
        min_free_bytes=args.min_free_bytes,
    )
    recovery = service.recovery
    if recovery.completed or recovery.requeued or recovery.queued:
        print(
            f"recovered: {len(recovery.completed)} completed, "
            f"{len(recovery.requeued)} re-queued, "
            f"{len(recovery.queued)} still queued",
            flush=True,
        )
    print(f"serving on {service.server.url} (state: {args.state_dir})",
          flush=True)
    try:
        service.serve_forever(drain_timeout=args.drain_timeout)
    except KeyboardInterrupt:
        service.drain(timeout=args.drain_timeout)
        service.close()
    return 0


def _check(args: argparse.Namespace) -> int:
    from repro.experiments.shapes import render_scorecard, run_all_checks

    checks = run_all_checks(scale=args.scale, seed=args.seed)
    print(render_scorecard(checks))
    return 0 if all(check.passed for check in checks) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exiting quietly is correct.
        return 0


#: Journal events `repro watch` renders (everything else is skipped).
#: `live-degrade`, like `delta-applied`'s `recovered` flag, comes only
#: from journals written by older miners.
_WATCH_EVENTS = frozenset(
    (
        "live-open", "delta-commit", "delta-applied",
        "rule-appear", "rule-disappear", "live-degrade",
    )
)


def _format_watch_line(record: dict) -> Optional[str]:
    """One human line per live event, or None to skip the record."""
    event = record.get("event")
    if event not in _WATCH_EVENTS:
        return None
    job = record.get("job_id")
    prefix = f"[{job}] " if job else ""
    seq = record.get("seq")
    if event == "rule-appear":
        return f"{prefix}seq {seq}: + {record.get('rule')}"
    if event == "rule-disappear":
        return f"{prefix}seq {seq}: - {record.get('rule')}"
    if event == "delta-applied":
        line = (
            f"{prefix}seq {seq}: applied {record.get('rows')} rows, "
            f"+{record.get('appeared', 0)}/-{record.get('disappeared', 0)} "
            f"rules ({record.get('n_rules', 0)} total)"
        )
        if record.get("recovered"):
            line += " [recovered]"
        return line
    if event == "delta-commit":
        return f"{prefix}seq {seq}: committed {record.get('rows')} rows"
    if event == "live-degrade":
        return f"{prefix}! full re-mine: {record.get('reason')}"
    return (
        f"{prefix}= session open (watermark "
        f"{record.get('watermark')}, {record.get('n_rules')} rules, "
        f"{record.get('n_rows')} rows)"
    )


def _watch(args: argparse.Namespace) -> int:
    import os

    from repro.observe import follow_journal, read_journal

    path = args.path
    if os.path.isdir(path):
        # A service state dir: watch its service journal.
        path = os.path.join(path, "service.jsonl")

    def emit(record: dict) -> bool:
        if args.job is not None and record.get("job_id") != args.job:
            return False
        line = _format_watch_line(record)
        if line is None:
            return False
        print(line, flush=True)
        return True

    if args.no_follow:
        try:
            for record in read_journal(path):
                emit(record)
        except (OSError, ValueError) as error:
            print(
                f"cannot read journal {path}: {error}", file=sys.stderr
            )
            return 1
        return 0
    try:
        for record in follow_journal(path, from_end=not args.from_start):
            emit(record)
    except KeyboardInterrupt:
        pass
    return 0


def _dispatch(argv: Optional[List[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _EXPERIMENT_COMMANDS:
        return _run_experiments(args)
    if args.command in ("mine-imp", "mine-sim", "mine-topk"):
        return _mine(args)
    if args.command == "journal":
        return _journal(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "watch":
        return _watch(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "generate":
        return _generate(args)
    if args.command == "report":
        return _report(args)
    if args.command == "check":
        return _check(args)
    parser.error(f"unhandled command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
