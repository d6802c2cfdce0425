"""The mining workloads: what a library user runs, and its layers.

End-to-end, every timed round mines a freshly built ``BinaryMatrix``
(so the lazy ``column_ones`` / ``flat_rows`` caches are paid inside
``repro.mine()``, as for a user who mines a matrix once) with the
default engine and with ``engine="vector"``, then runs the batch job:
``repro.mine(path)`` on the two-pass streaming engine with a durable
spill, followed by ``rules_to_json``, exactly the calls the service's
``execute_mining_job`` makes for a ``"stream"`` job.  An untimed
warm-up round on the workload's smoke-size input comes first.  (A
slice of the full input is no substitute: a few hundred rows of
``Wlog`` or ``dicD`` mine ~300k rules, far more than all of them do.)
Every time is paced (:mod:`e2ebench.pace`): scaled to the host's
reference speed.

The traced run re-runs the DMC-imp / DMC-sim phase sequence from
outside, one public call per layer, each wrapped in a span of the
benchmark's own :class:`repro.observe.Tracer`; the span durations are
the per-layer numbers.  The tracing overhead is the exception: it is
the ratio of two paced mines, because the difference it measures is
smaller than the host's noise.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro
from repro.core.miss_counting import (
    BitmapConfig,
    miss_counting_scan,
    zero_miss_scan,
)
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.core.rules import RuleSet
from repro.core.stats import ScanStats
from repro.core.thresholds import (
    as_fraction,
    confidence_removal_cutoff,
    similarity_removal_cutoff,
)
from repro.core.vector import vector_scan
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order
from repro.matrix.stream import FileSource
from repro.mining.export import rules_to_json
from repro.observe import RunObserver, Tracer

from e2ebench.inputs import (
    Rows,
    document_digest,
    mine_kwargs,
    rules_digest,
    seeded_rows,
    write_numeric,
)
from e2ebench.pace import paced
from e2ebench.report import Tally, median_of, medians, ratio

#: Timed rounds a run takes even when they take longer than
#: ``--seconds``: a median of three still holds when one round hits a
#: burst of host load.
MIN_ROUNDS = 3

#: Rounds of the traced per-layer run (per-layer values are medians).
TRACED_ROUNDS = 3


@dataclass
class MiningInput:
    """One mining input: rows, their numeric file, config, reference."""

    rows: Rows
    n_columns: int
    spec: dict
    #: Digest of the expected rules, in the base data set's ids.
    digest: str
    path: str
    #: ``base_id[c]``: the base data set's id of column ``c``.
    base_id: Optional[List[int]] = None
    #: The first rule set that matched ``digest``; later outputs are
    #: compared with it directly, which is ~15x cheaper than hashing.
    reference: Optional[RuleSet] = None

    def matrix(self) -> BinaryMatrix:
        return BinaryMatrix(self.rows, self.n_columns)

    def rules_ok(self, rules: RuleSet) -> bool:
        if self.reference is not None:
            return rules == self.reference
        if rules_digest(rules, self.base_id) != self.digest:
            return False
        self.reference = rules
        return True

    def document_ok(self, text: str) -> bool:
        return document_digest(text, self.base_id) == self.digest


def attempt(tally: Tally, what: str, call: Callable, check: Callable):
    """Time ``call`` (paced, see :mod:`e2ebench.pace`); check its output
    outside the timed region.

    Returns ``(seconds, output)``, or ``(None, None)`` when the call
    raised.  A raise or a failed check counts one failed operation; a
    wrong answer is still timed.  A metric none of whose tries returned
    is NaN, so a run with failures still reports every metric and says
    ``"correct": false``.
    """
    gc.collect()
    try:
        seconds, output = paced(call)
    except Exception as error:  # noqa: BLE001 — any raise is a failed op
        tally.record(False, f"{what}: {type(error).__name__}: {error}")
        return None, None
    tally.record(check(output), f"{what}: rules differ")
    return seconds, output


def batch_job(path: str, kwargs: dict, job_dir: str) -> str:
    """File to rules JSON, as a ``"stream"`` service job runs it."""
    result = repro.mine(
        path,
        engine="stream",
        checkpoint_dir=os.path.join(job_dir, "checkpoint"),
        spill_dir=os.path.join(job_dir, "spill"),
        preflight_disk=True,
        **kwargs,
    )
    return rules_to_json(
        result.rules, vocabulary=result.vocabulary, stats=result.stats
    )


def prepare(spec: dict, size: dict, seed: int, path: str) -> MiningInput:
    """The rows ``seed`` draws at one size of a workload, written to
    ``path`` as a numeric transactions file."""
    rows, n_columns, base_id = seeded_rows(size["data"], seed)
    write_numeric(rows, n_columns, path)
    return MiningInput(rows, n_columns, spec, size["digest"], path, base_id)


def measure(
    data: MiningInput, warm: MiningInput, seconds: float, workdir: str,
    tally: Tally,
) -> Dict[str, float]:
    """The end-to-end metrics of one mining workload run.

    An untimed warm-up round on ``warm`` (the workload's smoke-size
    input) comes first: it pays the lazy imports and first calls of
    every path in well under a second.  Its outputs are checked too.
    """
    kwargs = mine_kwargs(data.spec)
    samples: Dict[str, List[float]] = {
        "setup_s": [], "mine_s": [], "mine_vector_s": [], "batch_job_s": [],
    }

    def keep(metric: str, value: Optional[float]) -> None:
        if value is not None:
            samples[metric].append(value)

    def one_round(source: MiningInput, index: int) -> None:
        for engine, metric in (("auto", "mine_s"), ("vector", "mine_vector_s")):
            setup, matrix = paced(source.matrix)
            keep("setup_s", setup)
            keep(metric, attempt(
                tally, metric,
                lambda: repro.mine(matrix, engine=engine, **kwargs),
                lambda result: source.rules_ok(result.rules),
            )[0])
            del matrix
        job_dir = os.path.join(workdir, f"job-{index}")
        keep("batch_job_s", attempt(
            tally, "batch_job",
            lambda: batch_job(source.path, kwargs, job_dir),
            source.document_ok,
        )[0])
        shutil.rmtree(job_dir, ignore_errors=True)

    one_round(warm, 0)
    for found in samples.values():
        found.clear()
    # A round starts while one as long as the last still ends in time.
    started = last = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or 2 * perf_counter() - last - started < seconds:
        rounds += 1
        last = perf_counter()
        one_round(data, rounds)
    values = {name: median_of(found) for name, found in samples.items()}
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return values


# ----------------------------------------------------------------------
# The traced per-layer probe
# ----------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, call: Callable, **attributes):
    """Run ``call`` inside a span; returns ``(seconds, output)``."""
    gc.collect()
    with tracer.span(name, **attributes) as span:
        output = call()
    return span.seconds, output


def _layer_round(
    index: int, data: MiningInput, tracer: Tracer, tally: Tally,
) -> Dict[str, float]:
    """The per-layer values of one traced round."""
    spec = data.spec
    implication = spec["task"] == "implication"
    threshold = as_fraction(spec["threshold"])
    kwargs = mine_kwargs(spec)
    bitmap = kwargs.get("bitmap", BitmapConfig())
    out: Dict[str, float] = {}

    # repro.matrix + repro.core: the phase sequence of find_*_rules.
    matrix = data.matrix()
    out["matrix.column_ones_s"], ones = _timed(
        tracer, "matrix.column_ones", matrix.column_ones
    )
    order_full, order = _timed(
        tracer, "matrix.scan_order", lambda: scan_order(matrix),
        matrix="full",
    )
    hundred = ScanStats()
    rules_100 = RuleSet()
    out["core.hundred_pass_s"], _ = _timed(
        tracer, "core.hundred_pass",
        lambda: zero_miss_scan(
            matrix,
            HundredPercentPolicy(ones) if implication else IdentityPolicy(ones),
            order=order, stats=hundred, bitmap=bitmap, rules=rules_100,
        ),
    )
    cutoff = (
        confidence_removal_cutoff(threshold) if implication
        else similarity_removal_cutoff(threshold)
    )
    keep = [c for c in range(data.n_columns) if ones[c] > cutoff]
    out["matrix.restrict_columns_s"], restricted = _timed(
        tracer, "matrix.restrict_columns",
        lambda: matrix.restrict_columns(keep),
    )
    order_restricted, restricted_order = _timed(
        tracer, "matrix.scan_order", lambda: scan_order(restricted),
        matrix="restricted",
    )
    out["matrix.scan_order_s"] = order_full + order_restricted
    restricted_ones = restricted.column_ones()

    def policy():
        if implication:
            return ImplicationPolicy(restricted_ones, threshold)
        return SimilarityPolicy(restricted_ones, threshold)

    scans = {}
    for engine, scan in (("serial", miss_counting_scan), ("vector", vector_scan)):
        stats = ScanStats()
        rules = RuleSet(rules_100)
        out[f"core.{engine}_scan_s"], _ = _timed(
            tracer, f"core.{engine}_scan",
            lambda: scan(
                restricted, policy(), order=restricted_order,
                stats=stats, bitmap=bitmap, rules=rules,
            ),
        )
        tally.record(
            data.rules_ok(rules),
            f"core {engine} scan: rules differ",
        )
        scans[engine] = stats
        out[f"core.{engine}_candidates"] = stats.candidates_added
        out[f"core.{engine}_yield"] = ratio(
            stats.rules_emitted, stats.candidates_added
        )
        out[f"core.{engine}_peak_counter_bytes"] = stats.peak_bytes
    serial = scans["serial"]
    out["matrix.columns_removed_frac"] = ratio(
        data.n_columns - len(keep), data.n_columns
    )
    out["core.bitmap_tail_frac"] = ratio(
        hundred.bitmap_seconds + serial.bitmap_seconds,
        hundred.scan_seconds + serial.scan_seconds,
    )
    out["core.bitmap_phase2_columns"] = (
        hundred.bitmap_phase2_columns + serial.bitmap_phase2_columns
    )
    out["core.rules_100"] = len(rules_100)

    # repro.api: a traced mine, split into its phases.
    fresh = data.matrix()
    traced, result = _timed(
        tracer, "api.mine",
        lambda: repro.mine(fresh, observer=RunObserver(), **kwargs),
    )
    tally.record(data.rules_ok(result.rules), "mine: rules differ")
    out["core.rules_partial"] = len(result.rules) - len(rules_100)
    phases = result.stats.breakdown()
    out["api.pre_scan_s"] = phases.get("pre-scan", 0.0)
    out["api.hundred_s"] = phases.get("100%-rules", 0.0)
    out["api.partial_s"] = phases.get("<100%-rules", 0.0)
    out["api.unattributed_s"] = traced - sum(phases.values())

    # repro.observe: the same mine untraced and traced, back to back and
    # paced, the untraced one first in even rounds and second in odd
    # ones, so that neither side always runs first.
    mines = {}
    for observed in ((False, True) if index % 2 == 0 else (True, False)):
        fresh = data.matrix()
        gc.collect()
        mines[observed], mined = paced(lambda: repro.mine(
            fresh, observer=RunObserver() if observed else None, **kwargs
        ))
        tally.record(data.rules_ok(mined.rules), "mine: rules differ")
    out["observe.trace_overhead_frac"] = mines[True] / mines[False] - 1.0

    # repro.mining: the export the batch job commits.
    out["mining.export_s"], _ = _timed(
        tracer, "mining.export",
        lambda: rules_to_json(
            result.rules, vocabulary=result.vocabulary, stats=result.stats
        ),
    )
    out["matrix.file_parse_s"], _ = _timed(
        tracer, "matrix.file_parse",
        lambda: sum(1 for _ in FileSource(data.path).iter_rows()),
    )
    return out


def layer_values(
    data: MiningInput, tracer: Tracer, tally: Tally
) -> Dict[str, float]:
    """Per-layer values of ``repro.matrix``, ``repro.core``,
    ``repro.mining``, ``repro.api``/``repro.observe`` (medians over
    :data:`TRACED_ROUNDS` rounds) and ``repro.runtime`` (one call)."""
    rounds = []
    for index in range(TRACED_ROUNDS):
        with tracer.span("round", index=index):
            rounds.append(_layer_round(index, data, tracer, tally))
    values = medians(rounds)
    matrix = data.matrix()
    values["runtime.partitioned_2w_s"], result = _timed(
        tracer, "runtime.partitioned",
        lambda: repro.mine(
            matrix, engine="partitioned", n_workers=2,
            **mine_kwargs(data.spec),
        ),
        n_workers=2,
    )
    tally.record(
        data.rules_ok(result.rules),
        "partitioned mine: rules differ",
    )
    return values
