"""The :func:`repro.mine` facade: one call for every DMC pipeline.

The library has six mining entry points (in-memory DMC-imp/DMC-sim,
their partitioned variants, the two-pass streaming pipelines), each
with its own calling convention.  This module unifies them behind a
single keyword-only configuration:

    import repro

    matrix = repro.BinaryMatrix.from_transactions(
        [["bread", "butter"], ["bread", "butter", "jam"], ["jam"]]
    )
    result = repro.mine(matrix, minconf=0.9)
    for rule in result.rules.sorted():
        print(rule.format(matrix.vocabulary))

:func:`mine` accepts a :class:`BinaryMatrix`, a
:class:`~repro.matrix.stream.TransactionSource`, a transactions-file
path, or a plain list of transactions; dispatches on the
:class:`MiningConfig` to the right engine; and always returns a
:class:`MiningResult` carrying the rules, the run's
:class:`~repro.core.stats.PipelineStats` and (when a tracing observer
watched the run) the finished trace.  The legacy entry points remain
supported — the facade calls them, so both mine identical rule sets.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional

from repro.core.dmc_imp import PruningOptions, mine_matrix, vector_exact
from repro.core.miss_counting import BitmapConfig
from repro.core.partitioned import (
    find_implication_rules_partitioned,
    find_similarity_rules_partitioned,
)
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary
from repro.matrix.stream import (
    FileSource,
    MatrixSource,
    TransactionSource,
    _stream_rules,
)
from repro.observe.progress import NULL_OBSERVER
from repro.runtime.guards import MemoryGuard, graceful_interrupts
from repro.runtime.storage import io_error_kind, terminal_io_error

#: The two rule kinds of the paper (Sections 4 and 5).
TASKS = ("implication", "similarity")

#: Valid values of :attr:`MiningConfig.engine`.
ENGINES = ("auto", "dmc", "stream", "partitioned", "vector")


@dataclass(frozen=True)
class MiningConfig:
    """Keyword-only configuration for :func:`mine`.

    Parameters
    ----------
    task:
        ``"implication"`` (confidence rules) or ``"similarity"``.
    threshold:
        ``minconf`` / ``minsim`` — a float, :class:`fractions.Fraction`
        or ``"p/q"`` string in ``(0, 1]``.
    engine:
        Which pipeline mines the rules (every engine produces the
        identical rule set; see :func:`resolve_engine` for the full
        resolution contract):

        - ``"auto"`` (default) — streaming sources stream, everything
          else runs in memory on the vector scan.
        - ``"dmc"`` — the serial in-memory pipeline.
        - ``"vector"`` — the blocked numpy second-pass engine
          (:mod:`repro.core.vector`); combined with
          ``n_workers > 1`` it runs inside each partition.
        - ``"stream"`` — the two-pass on-disk pipeline (an in-memory
          matrix is wrapped in a
          :class:`~repro.matrix.stream.MatrixSource`).  Its spill
          buckets are the Section 4.1 reordering, so it rejects
          ``options.row_reordering=False``.
        - ``"partitioned"`` — divide-and-conquer candidate generation.
    vector_block_rows:
        Rows per block for the vector engine (None = the engine's
        :data:`repro.core.vector.DEFAULT_BLOCK_ROWS`); overrides
        ``options.vector_block_rows``.
    options:
        A :class:`~repro.core.dmc_imp.PruningOptions` (ablation
        toggles, memory guard, scan engine).
    bitmap:
        Shorthand overriding ``options.bitmap`` — a
        :class:`~repro.core.miss_counting.BitmapConfig` tuning the
        DMC-bitmap switch.  Leave ``None`` to keep the options' value
        (pass ``options=PruningOptions(bitmap=None)`` to disable the
        switch entirely).
    n_partitions / n_workers:
        Partitioned-engine tuning, both at least 1 (``n_workers > 1``
        mines partitions on a spawn process pool; ``None`` or 1 mines
        them in-process).
    memory_budget:
        Hard counter-array budget in bytes for the in-memory scan: it
        sets ``options.memory_guard`` to a
        :class:`~repro.runtime.guards.MemoryGuard`, and a scan that
        exceeds it hands over to the DMC-bitmap tail at once (the
        rules are unchanged; in-memory data only).
    spill_dir / checkpoint_dir:
        Streaming-engine directories (see :mod:`repro.matrix.stream`).
    storage:
        The durable-I/O backend every checkpoint, spill bucket and
        journal write goes through (a :class:`repro.runtime.storage.
        Storage`; ``None`` means the local filesystem with full fsync
        discipline).  Inject a
        :class:`~repro.runtime.storage.FaultyStorage` in tests, or
        ``LocalStorage(durable=False)`` to skip the physical fsyncs.
    spill_degrade:
        When a terminal storage fault (disk full / read-only) hits the
        streaming spill, redo the run on the in-memory engine instead
        of raising :class:`~repro.runtime.storage.StorageFull`
        (default True; rules are identical either way).  Checkpoint and
        journal writes always degrade to "off with a warning".
    preflight_disk:
        Check free disk space against the estimated spill footprint
        before the streaming pass 1 writes anything (degrades or raises
        per ``spill_degrade``).
    observer:
        Any :class:`~repro.observe.ProgressObserver`; pass a
        :class:`~repro.observe.RunObserver` to collect a trace and
        metrics.  :func:`mine` calls ``observer.finish(stats)`` for
        you.
    run_id:
        Identifier stamped on the journal, the live-status routes and
        the :class:`MiningResult` (default: a fresh
        :func:`repro.observe.new_run_id`).
    journal_path:
        Append one JSONL event per notable state change (phase
        transitions, bitmap switch, guard trips, degradations,
        checkpoints, pruning-curve samples, ...) to this file
        through the durable ``storage`` backend.  Inspect with
        ``python -m repro journal tail|summarize``.
    serve_metrics_port:
        Serve ``/metrics`` (Prometheus text), ``/healthz`` and
        ``/runs/<run_id>`` on ``127.0.0.1:PORT`` for the duration of
        the run (``0`` picks an ephemeral port).  The server is
        reachable as ``observer.server`` while mining and is closed on
        completion — including a SIGTERM unwinding through
        :func:`repro.runtime.guards.graceful_interrupts`.

    profile:
        Write a sampling wall-clock profile of the run to this path, in
        folded-stack format (``module:func;module:func count`` lines,
        ready for a flamegraph tool).  The profiler is a stdlib-only
        daemon thread sampling ``sys._current_frames()`` every few
        milliseconds — opt-in and cheap, but not free; leave ``None``
        (the default) for production runs.

    ``journal_path`` / ``serve_metrics_port`` need a
    :class:`~repro.observe.RunObserver`; one is created automatically
    when ``observer`` is absent or is a plain progress sink.
    """

    task: str = "implication"
    threshold: Any = None
    engine: str = "auto"
    vector_block_rows: Optional[int] = None
    options: Optional[PruningOptions] = None
    bitmap: Optional[BitmapConfig] = None
    n_partitions: int = 4
    n_workers: Optional[int] = None
    memory_budget: Optional[int] = None
    spill_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    storage: Optional[object] = None
    spill_degrade: bool = True
    preflight_disk: bool = False
    observer: Optional[object] = None
    run_id: Optional[str] = None
    journal_path: Optional[str] = None
    serve_metrics_port: Optional[int] = None
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(
                f"unknown task {self.task!r}; expected one of {TASKS}"
            )
        if self.threshold is None:
            raise ValueError(
                "a threshold is required (threshold=, minconf= or minsim=)"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.vector_block_rows is not None and self.vector_block_rows < 1:
            raise ValueError("vector_block_rows must be at least 1")
        if self.engine == "stream" and self.memory_budget is not None:
            raise ValueError(
                "engine='stream' cannot be combined with memory_budget= "
                "(the streaming pipeline is single-process)"
            )
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be at least 1")
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(
                "n_workers must be at least 1 (or None for in-process)"
            )
        if self.serve_metrics_port is not None and not (
            0 <= self.serve_metrics_port <= 65535
        ):
            raise ValueError(
                "serve_metrics_port must be a TCP port (0 for ephemeral)"
            )
        if self.profile is not None and (
            not isinstance(self.profile, str) or not self.profile.strip()
        ):
            raise ValueError(
                "profile must be a path for the folded-stack output"
            )


@dataclass
class MiningResult:
    """What every :func:`mine` call returns.

    ``engine`` names the pipeline that produced the rules — the
    carrier, plus a vector suffix when the blocked numpy scan ran under
    it: ``"dmc"``, ``"vector"``, ``"stream"``, ``"stream+vector"``,
    ``"partitioned"`` or ``"partitioned+vector"``.  ``trace`` is the observer's
    span tree (the :meth:`repro.observe.Tracer.to_dict` document) when
    a tracing observer watched the run, else ``None``.  Iterating the
    result iterates its rules.
    """

    rules: RuleSet
    stats: PipelineStats
    engine: str
    trace: Optional[Dict[str, Any]] = None
    vocabulary: Optional[Vocabulary] = None
    run_id: Optional[str] = None

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator:
        return iter(self.rules)


def _resolve_config(
    config: Optional[MiningConfig], overrides: Dict[str, Any]
) -> MiningConfig:
    """Build the effective config from a base and/or keyword shorthand."""
    aliases = {}
    if "minconf" in overrides:
        aliases["task"] = "implication"
        aliases["threshold"] = overrides.pop("minconf")
    if "minsim" in overrides:
        if "threshold" in aliases:
            raise TypeError("pass minconf= or minsim=, not both")
        aliases["task"] = "similarity"
        aliases["threshold"] = overrides.pop("minsim")
    if "task" in overrides and aliases.get("task") not in (
        None, overrides["task"],
    ):
        raise TypeError(
            f"task={overrides['task']!r} contradicts the "
            f"{aliases['task']}-threshold alias"
        )
    overrides.update(aliases)
    if config is None:
        return MiningConfig(**overrides)
    if overrides:
        return replace(config, **overrides)
    return config


@dataclass(frozen=True)
class EnginePlan:
    """The resolved execution plan of one :func:`mine` call.

    ``carrier`` is the pipeline that owns the passes: ``"dmc"``
    (in-memory), ``"stream"`` (two-pass on disk) or ``"partitioned"``
    (divide and conquer).  ``scan_engine`` is what runs the
    miss-counting passes inside the carrier: ``"serial"`` or
    ``"vector"``.  ``name`` is the user-facing combination recorded on
    :attr:`MiningResult.engine`, :attr:`PipelineStats.engine` and the
    journal's ``run-start`` event.
    """

    name: str
    carrier: str
    scan_engine: str


def _engine_name(carrier: str, scan_engine: str) -> str:
    """The recorded engine name for a carrier/scan combination."""
    if scan_engine != "vector":
        return carrier
    if carrier == "dmc":
        return "vector"
    return f"{carrier}+vector"


def resolve_engine(
    config: MiningConfig, *, streaming: bool
) -> tuple[EnginePlan, PruningOptions]:
    """Resolve ``config.engine`` to an execution plan — the one place
    engine selection happens.

    Returns ``(plan, options)`` where ``options`` is the effective
    :class:`~repro.core.dmc_imp.PruningOptions` (the configured ones
    with ``bitmap`` / ``memory_guard`` / ``scan_engine`` /
    ``vector_block_rows`` overrides applied).  ``streaming`` says
    whether the data arrived as a source rather than an in-memory
    matrix.

    The contract, per ``engine=`` value:

    - ``"auto"`` — streaming data streams; anything else is in-memory
      (``"vector"``).
    - ``"dmc"`` / ``"vector"`` — the in-memory pipeline with the serial
      or vector scan; needs an in-memory matrix.  ``"vector"``
      combined with ``n_workers > 1`` runs the vector scan inside each
      partition (``"partitioned+vector"``).
    - ``"stream"`` — the two-pass streaming pipeline
      (``"stream+vector"``); an in-memory matrix is wrapped in a
      :class:`~repro.matrix.stream.MatrixSource`.  Its spill buckets
      are the Section 4.1 row reordering, so
      ``options.row_reordering=False`` is rejected.
    - ``"partitioned"`` — divide and conquer.

    ``memory_budget`` guards the in-memory scan with a
    :class:`~repro.runtime.guards.MemoryGuard` (``options.memory_guard``).
    Every carrier but ``"dmc"`` runs the vector scan unless
    ``options.scan_engine`` names one.  A pass whose policy's int64
    twins are inexact runs serial instead, and :attr:`MiningResult.
    engine` names the scan that ran (``"dmc"``, ``"stream"``...);
    only ``engine="vector"`` raises there (see :func:`mine`).

    Contradictions raise ``ValueError`` (e.g. ``engine="vector"`` on a
    streaming source, ``engine="dmc"`` with
    ``options.scan_engine="vector"``, or the stream carrier with
    ``options.row_reordering=False``); config-only conflicts are
    already rejected by :class:`MiningConfig`.
    """
    options = (
        config.options if config.options is not None else PruningOptions()
    )
    if config.bitmap is not None:
        options = replace(options, bitmap=config.bitmap)
    if config.memory_budget is not None:
        options = replace(
            options, memory_guard=MemoryGuard(config.memory_budget)
        )

    engine = config.engine
    scan = options.scan_engine
    if engine == "dmc":
        if scan == "vector":
            raise ValueError(
                "engine='dmc' is the serial pipeline but "
                "options.scan_engine='vector'; pass engine='vector' "
                "(or drop the scan_engine override)"
            )
        scan = "serial"
    elif engine == "vector":
        scan = "vector"

    if streaming:
        if engine in ("dmc", "vector", "partitioned"):
            hint = (
                " (engine='stream' already runs the vector pass 2)"
                if engine == "vector"
                else ""
            )
            raise ValueError(
                f"engine={engine!r} needs in-memory data; load the "
                f"source into a BinaryMatrix first{hint}"
            )
        if config.memory_budget is not None:
            raise ValueError(
                "memory-budget mining needs in-memory data; load the "
                "source into a BinaryMatrix first"
            )
        carrier = "stream"
    elif engine in ("stream", "partitioned"):
        carrier = engine
    elif engine == "vector" and (config.n_workers or 0) > 1:
        carrier = "partitioned"
    else:  # auto, dmc, vector
        carrier = "dmc"
    if carrier == "stream" and not options.row_reordering:
        raise ValueError(
            "the streaming pipeline's spill buckets are the Section 4.1 "
            "row reordering; row_reordering=False needs in-memory data "
            "and engine='dmc' or engine='vector'"
        )

    block_rows = (
        config.vector_block_rows
        if config.vector_block_rows is not None
        else options.vector_block_rows
    )
    scan = scan or "vector"
    if scan == "vector" and block_rows is None:
        from repro.core.vector import DEFAULT_BLOCK_ROWS

        block_rows = DEFAULT_BLOCK_ROWS
    options = replace(
        options, scan_engine=scan, vector_block_rows=block_rows
    )
    name = _engine_name(carrier, scan)
    return EnginePlan(name=name, carrier=carrier, scan_engine=scan), options


def _resolve_telemetry(
    config: MiningConfig, stats: PipelineStats, plan: EnginePlan
):
    """The effective observer, plus the journal/server owned by mine().

    A journal or metrics server needs a :class:`RunObserver`; when the
    configured observer is absent or a plain progress sink, one is
    created around it.  Only objects created *here* are returned for
    closing — a journal or status the caller attached to their own
    observer stays theirs to manage.
    """
    observer = (
        config.observer if config.observer is not None else NULL_OBSERVER
    )
    status = getattr(observer, "status", None)
    if status is not None:
        status.engine = plan.name
    if config.journal_path is None and config.serve_metrics_port is None:
        return observer, None, None
    from repro.observe import (
        LiveRunStatus,
        MetricsServer,
        RunJournal,
        RunObserver,
    )

    if not isinstance(observer, RunObserver):
        progress = (
            observer if getattr(observer, "enabled", False) else None
        )
        observer = RunObserver(progress=progress, run_id=config.run_id)
    elif config.run_id is not None:
        observer.run_id = config.run_id

    journal = None
    if config.journal_path is not None and observer.journal is None:
        try:
            journal = RunJournal(
                config.journal_path, observer.run_id,
                storage=config.storage,
            )
        except OSError as error:
            if not terminal_io_error(error):
                raise
            # Unwritable journal path: telemetry must never abort the
            # mine, so run without the journal (same ladder step as a
            # mid-run disk death).
            stats.degradations.append("journal-off")
            if observer.enabled:
                observer.on_io_error(io_error_kind(error))
                observer.on_degradation("journal-off")
            warnings.warn(
                f"run journal disabled: {error}", RuntimeWarning,
                stacklevel=3,
            )
        else:
            observer.journal = journal
            journal.emit(
                "run-start",
                task=config.task,
                threshold=str(config.threshold),
                engine=plan.name,
                vector_block_rows=stats.vector_block_rows,
                n_workers=config.n_workers,
            )

    server = None
    if config.serve_metrics_port is not None:
        if observer.status is None:
            observer.status = LiveRunStatus(observer.run_id)
            observer.status.engine = plan.name
        server = MetricsServer(
            observer.metrics,
            port=config.serve_metrics_port,
            status=observer.status,
        )
        observer.server = server
    return observer, journal, server


def _as_input(data):
    """Normalize ``data`` to a matrix or a streaming source."""
    if isinstance(data, BinaryMatrix):
        return data, None
    if isinstance(data, TransactionSource):
        return None, data
    if isinstance(data, str):
        return None, FileSource(data)
    try:
        return BinaryMatrix.from_transactions(data), None
    except TypeError:
        raise TypeError(
            "mine() expects a BinaryMatrix, a TransactionSource, a "
            f"transactions-file path, or transactions; got {type(data)!r}"
        ) from None


def mine(data, *, config: Optional[MiningConfig] = None, **kwargs):
    """Mine implication or similarity rules with any DMC engine.

    ``data`` may be a :class:`BinaryMatrix`, any
    :class:`~repro.matrix.stream.TransactionSource`, a path to a
    transactions text file (mined by the two-pass streaming pipeline),
    or an iterable of label transactions (converted via
    :meth:`BinaryMatrix.from_transactions`).

    Configuration comes from ``config`` and/or keyword shorthand —
    every :class:`MiningConfig` field is accepted as a keyword, plus
    the ``minconf=`` / ``minsim=`` aliases that set the task and the
    threshold together.  Returns a :class:`MiningResult`; the mined
    rules are identical to the corresponding legacy entry point's.
    """
    config = _resolve_config(config, kwargs)
    matrix, source = _as_input(data)
    plan, options = resolve_engine(config, streaming=matrix is None)
    if config.engine == "vector" and not vector_exact(
        config.task, config.threshold, matrix.column_ones()
    ):
        raise ValueError(
            "this threshold's exact fractions exceed the vector engine's "
            "int64 range; use engine='auto' (which falls back to the "
            "serial scan) or engine='dmc'"
        )
    if plan.carrier == "stream" and source is None:
        source = MatrixSource(matrix)
    stats = PipelineStats()
    stats.engine = plan.name
    if plan.scan_engine == "vector":
        stats.vector_block_rows = options.vector_block_rows
    observer, journal, server = _resolve_telemetry(config, stats, plan)

    # A live server/journal should also see a SIGTERM'd run unwind
    # cleanly (handler close, journal fsync) instead of dying torn.
    if journal is not None or server is not None:
        interruptible = graceful_interrupts()
    else:
        interruptible = nullcontext()
    profiler = None
    if config.profile is not None:
        from repro.observe.profiler import SamplingProfiler

        profiler = SamplingProfiler(config.profile, storage=config.storage)
        profiler.start()
    try:
        with interruptible:
            rules = _run_plan(
                plan, config, matrix, source, options, stats, observer
            )
        # The carriers stamp the block size of the scan that ran (None
        # for serial).
        engine = _engine_name(
            plan.carrier,
            "serial" if stats.vector_block_rows is None else "vector",
        )
        stats.engine = engine
        observer.finish(stats=stats, guard=options.memory_guard)
    except BaseException as error:
        status = getattr(observer, "status", None)
        if status is not None and not status.finished:
            status.finish(failed=f"{type(error).__name__}: {error}")
        if journal is not None:
            journal.emit(
                "run-end",
                failed=f"{type(error).__name__}: {error}",
            )
        raise
    finally:
        if profiler is not None:
            try:
                profiler.stop()
            except OSError as error:
                # Same ladder as the journal: telemetry output must
                # never abort a finished mine.
                warnings.warn(
                    f"profile not written: {error}", RuntimeWarning,
                    stacklevel=2,
                )
        if server is not None:
            server.close()
        if journal is not None:
            journal.close()
    tracer = getattr(observer, "tracer", None)
    trace = tracer.to_dict() if tracer is not None else None
    vocabulary = matrix.vocabulary if matrix is not None else None
    return MiningResult(
        rules=rules,
        stats=stats,
        engine=engine,
        trace=trace,
        vocabulary=vocabulary,
        run_id=getattr(observer, "run_id", config.run_id),
    )


def _run_plan(plan, config, matrix, source, options, stats, observer):
    """Run a resolved :class:`EnginePlan`; returns its rules.

    All selection logic lives in :func:`resolve_engine`; this is pure
    dispatch on ``plan.carrier``.
    """
    if plan.carrier == "stream":
        return _stream_rules(
            source,
            config.threshold,
            config.task,
            options,
            spill_dir=config.spill_dir,
            checkpoint_dir=config.checkpoint_dir,
            stats=stats,
            observer=observer,
            storage=config.storage,
            spill_degrade=config.spill_degrade,
            preflight=config.preflight_disk,
        )
    if plan.carrier == "partitioned":
        partitioner = (
            find_implication_rules_partitioned
            if config.task == "implication"
            else find_similarity_rules_partitioned
        )
        return partitioner(
            matrix,
            config.threshold,
            n_partitions=config.n_partitions,
            n_workers=config.n_workers,
            stats=stats,
            observer=observer,
            scan_engine=options.scan_engine,
            vector_block_rows=options.vector_block_rows,
        )
    return mine_matrix(
        config.task, matrix, config.threshold, options, stats, observer
    )
