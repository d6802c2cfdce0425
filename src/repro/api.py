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
watched the run) the finished trace.  It calls what the direct entry
points call — :func:`~repro.core.dmc_imp.mine_matrix` in memory,
``matrix.stream._stream_rules`` for the stream, and the partitioned
finders — so both mine identical rule sets.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional

from repro.core.dmc_imp import PruningOptions, mine_matrix
from repro.core.miss_counting import BitmapConfig
from repro.core.partitioned import (
    find_implication_rules_partitioned,
    find_similarity_rules_partitioned,
)
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats
from repro.core.thresholds import as_fraction
from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary
from repro.matrix.stream import (
    FileSource,
    MatrixSource,
    TransactionSource,
    _stream_rules,
)
from repro.observe.progress import NULL_OBSERVER
from repro.runtime.guards import graceful_interrupts
from repro.runtime.storage import degrade, terminal_io_error

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
        - ``"dmc"`` — the serial in-memory pipeline (the only engine
          that runs the paper's row-at-a-time scan; every other one
          runs the vector scan).
        - ``"vector"`` — the blocked numpy second-pass engine
          (:mod:`repro.core.vector`); combined with
          ``n_workers > 1`` it runs inside each partition.
        - ``"stream"`` — the two-pass on-disk pipeline (an in-memory
          matrix is wrapped in a
          :class:`~repro.matrix.stream.MatrixSource`).  Its spill
          buckets are the Section 4.1 reordering, so it rejects
          ``options.row_reordering=False``.
        - ``"partitioned"`` — divide-and-conquer candidate generation.
    options:
        A :class:`~repro.core.dmc_imp.PruningOptions` (ablation
        toggles, the bitmap switch).
    bitmap:
        Shorthand overriding ``options.bitmap`` — a
        :class:`~repro.core.miss_counting.BitmapConfig` tuning the
        DMC-bitmap switch.  Leave ``None`` to keep the options' value
        (pass ``options=PruningOptions(bitmap=None)`` to disable the
        switch entirely).
    n_partitions / n_workers:
        Partitioned-engine tuning, both at least 1 (``n_workers > 1``
        mines partitions on a spawn process pool and needs
        ``engine="partitioned"`` or ``"vector"``; ``None`` or 1 mines
        them in-process).
    memory_budget:
        Hard counter-array budget in bytes: it sets the bitmap
        switch's ``hard_budget_bytes`` (see :func:`resolve_engine`),
        and a scan that exceeds it hands over to the DMC-bitmap tail
        at once (the rules are unchanged).  The partitioned carrier
        does not take one.
    spill_dir / checkpoint_dir:
        Streaming-engine directories (see :mod:`repro.matrix.stream`).
    storage:
        The durable-I/O backend every checkpoint, spill bucket and
        journal write goes through (a :class:`repro.runtime.storage.
        Storage`; ``None`` means the local filesystem with full fsync
        discipline).  Inject a
        :class:`~repro.runtime.storage.FaultyStorage` in tests, or
        ``LocalStorage(durable=False)`` to skip the physical fsyncs.
        A terminal storage fault (disk full / read-only) never aborts
        the mine: it takes a rung of the degradation ladder
        (:data:`repro.runtime.storage.LADDER` — the spill redone in
        memory, or the checkpoint, journal or profile switched off),
        with a warning and an entry in ``stats.degradations``; the
        rules are identical either way.
    preflight_disk:
        Check free disk space against the estimated spill footprint
        before the streaming pass 1 writes anything (a shortfall
        redoes the run in memory at once).
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
    options: Optional[PruningOptions] = None
    bitmap: Optional[BitmapConfig] = None
    n_partitions: int = 4
    n_workers: Optional[int] = None
    memory_budget: Optional[int] = None
    spill_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    storage: Optional[object] = None
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
        as_fraction(self.threshold)  # raises on a threshold outside (0, 1]
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.memory_budget is not None and (
            self.engine == "partitioned"
            or (self.engine == "vector" and (self.n_workers or 0) > 1)
        ):
            raise ValueError(
                "memory_budget= does not reach the partitioned carrier's "
                "scans; use engine='dmc', 'vector' (one worker) or "
                "'stream'"
            )
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be at least 1")
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(
                "n_workers must be at least 1 (or None for in-process)"
            )
        if (self.n_workers or 0) > 1 and self.engine not in (
            "partitioned", "vector",
        ):
            raise ValueError(
                f"n_workers > 1 needs engine='partitioned' or 'vector', "
                f"not {self.engine!r}"
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

    ``engine`` names the plan that produced the rules
    (:attr:`EnginePlan.name`): ``"dmc"``, ``"vector"``,
    ``"stream+vector"`` or ``"partitioned+vector"``.  ``trace`` is the
    observer's span tree (the :meth:`repro.observe.Tracer.to_dict`
    document) when a tracing observer watched the run, else ``None``.
    Iterating the result iterates its rules.
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
    (divide and conquer).  ``scan_engine`` is the scan its passes run:
    ``"serial"`` for ``engine="dmc"``, ``"vector"`` for every other
    engine.  ``name`` is the user-facing combination recorded on the
    journal's ``run-start`` event and on :attr:`MiningResult.engine`.
    """

    name: str
    carrier: str
    scan_engine: str


def resolve_engine(
    config: MiningConfig, *, streaming: bool
) -> tuple[EnginePlan, PruningOptions]:
    """Resolve ``config.engine`` to an execution plan — the one place
    engine selection happens.

    Returns ``(plan, options)`` where ``options`` is the effective
    :class:`~repro.core.dmc_imp.PruningOptions` (the configured ones
    with the ``bitmap`` / ``memory_budget`` overrides applied).
    ``streaming`` says whether the data arrived as a source rather than
    an in-memory matrix.

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

    ``memory_budget=N`` becomes the bitmap switch's
    ``hard_budget_bytes`` (on ``BitmapConfig(switch_rows=0)`` when the
    options carry no switch, so only the budget hands over); the dmc,
    vector and stream carriers honour it.
    ``engine="dmc"`` runs the serial scan; every other engine runs the
    vector scan.  Both are exact at any threshold, so every plan runs
    the scan it names.

    Contradictions raise ``ValueError`` (e.g. ``engine="vector"`` on a
    streaming source, or the stream carrier with
    ``options.row_reordering=False``); config-only conflicts are
    already rejected by :class:`MiningConfig`.
    """
    options = (
        config.options if config.options is not None else PruningOptions()
    )
    if config.bitmap is not None:
        options = replace(options, bitmap=config.bitmap)
    if config.memory_budget is not None:
        switch = options.bitmap or BitmapConfig(switch_rows=0)
        options = replace(
            options,
            bitmap=replace(switch, hard_budget_bytes=config.memory_budget),
        )

    engine = config.engine
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

    if engine == "dmc":
        plan = EnginePlan(name="dmc", carrier="dmc", scan_engine="serial")
    else:
        name = "vector" if carrier == "dmc" else f"{carrier}+vector"
        plan = EnginePlan(name=name, carrier=carrier, scan_engine="vector")
    return plan, options


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
        # Telemetry must never abort the mine: a journal that cannot
        # open, or whose disk dies mid-run, takes the journal-off rung.
        def journal_off(error: OSError) -> None:
            degrade(stats, observer, "journal-off", error)

        try:
            journal = RunJournal(
                config.journal_path, observer.run_id,
                storage=config.storage, on_disable=journal_off,
            )
        except OSError as error:
            if not terminal_io_error(error):
                raise
            journal_off(error)
        else:
            observer.journal = journal
            journal.emit(
                "run-start",
                task=config.task,
                threshold=str(config.threshold),
                engine=plan.name,
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
    rules are identical to the corresponding legacy entry point's, and
    ``result.engine`` is the plan :func:`resolve_engine` made, at any
    threshold.
    """
    config = _resolve_config(config, kwargs)
    matrix, source = _as_input(data)
    plan, options = resolve_engine(config, streaming=matrix is None)
    if plan.carrier == "stream" and source is None:
        source = MatrixSource(matrix)
    stats = PipelineStats()
    stats.engine = plan.name
    observer, journal, server = _resolve_telemetry(config, stats, plan)
    budget = options.bitmap and options.bitmap.hard_budget_bytes
    metrics = getattr(observer, "metrics", None)
    if budget and metrics is not None:
        metrics.gauge(
            f"{metrics.prefix}_guard_budget_bytes",
            "Hard counter-array budget (memory_budget=).",
        ).set(budget)

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
        _stop_profiler(profiler, stats, observer)  # before run-end
        observer.finish(stats=stats)
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
        _stop_profiler(profiler, stats, observer)
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
        engine=plan.name,
        trace=trace,
        vocabulary=vocabulary,
        run_id=getattr(observer, "run_id", config.run_id),
    )


def _stop_profiler(profiler, stats, observer) -> None:
    """Write the profile, once; telemetry output must never abort a
    mine, so an unwritable one takes the ``profile-off`` rung."""
    if profiler is None:
        return
    try:
        profiler.stop()
    except OSError as error:
        degrade(stats, observer, "profile-off", error)


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
        )
    return mine_matrix(
        config.task, matrix, config.threshold, options, stats, observer,
        plan.scan_engine,
    )
