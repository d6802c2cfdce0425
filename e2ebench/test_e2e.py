"""Self-test of the end-to-end benchmark at smoke sizes.

Run from the repository root::

    python3 -m pytest e2ebench/test_e2e.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _handle:
    WORKLOADS = json.load(_handle)["workloads"]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
            "--workload", workload, "--smoke", "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[kind]
    }
    assert line["attempted"] >= 1
    assert line["failed"] == 0 and line["correct"] is True
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_seeds_relabel_items_but_mine_the_same_rules():
    # plinkT has implications between equally frequent columns, whose
    # direction a careless relabelling would flip.
    import repro
    from repro.matrix.binary_matrix import BinaryMatrix

    from e2ebench.inputs import mine_kwargs, rules_digest, seeded_rows

    spec = WORKLOADS["plinkT-bitmap-imp"]
    size = spec["sizes"]["smoke"]
    first, second = (seeded_rows(size["data"], seed) for seed in (1, 2))
    assert first[0] != second[0]
    for rows, n_columns, base_id in (first, second):
        result = repro.mine(BinaryMatrix(rows, n_columns), **mine_kwargs(spec))
        assert rules_digest(result.rules, base_id) == size["digest"]


def _wlog_input(tmp_path, digest):
    from e2ebench import mining

    spec = WORKLOADS["wlog-imp"]
    size = dict(spec["sizes"]["smoke"], digest=digest or
                spec["sizes"]["smoke"]["digest"])
    return mining.prepare(spec, size, 0, str(tmp_path / "input.txt"))


def test_tampered_digest_is_a_failed_operation(tmp_path):
    from e2ebench import mining
    from e2ebench.report import Tally, result_line

    data = _wlog_input(tmp_path, "0" * 64)
    tally = Tally()
    values = mining.measure(data, data, 0.0, str(tmp_path), tally)
    assert tally.attempted > 0 and tally.failed == tally.attempted
    line = result_line(values, tally, BENCHMARK["end_to_end"])
    assert line["correct"] is False
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())


def test_a_raising_mine_is_reported_not_raised(tmp_path, monkeypatch):
    import repro
    from e2ebench import mining
    from e2ebench.report import Tally, result_line

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(repro, "mine", broken)
    data = _wlog_input(tmp_path, None)
    tally = Tally()
    values = mining.measure(data, data, 0.0, str(tmp_path), tally)
    assert tally.attempted > 0 and tally.failed == tally.attempted
    line = result_line(values, tally, BENCHMARK["end_to_end"])
    assert line["correct"] is False and line["failed"] == tally.failed
    metrics = line["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for name in ("mine_s", "mine_vector_s", "batch_job_s"):
        assert math.isnan(metrics[name]["value"])
    assert metrics["setup_s"]["value"] > 0
    assert json.loads(json.dumps(line))["failed"] == tally.failed


def test_a_load_with_no_successes_reports_nan(tmp_path):
    from repro.observe import Tracer

    from e2ebench import service

    load = service.Load(setup=[0.5], jobs=[], batch_seconds=1.0,
                        live=service.LiveOutcome(), peak_rss_mb=1.0)
    values = service.load_values(load)
    assert values["service.jobs_per_s"] == 0.0
    assert all(math.isnan(v) for k, v in values.items()
               if k != "service.jobs_per_s")
    plan = service.LivePlan("implication", "4/5", [["a", "b"]], 1, 1, 0)
    layers = service.live_layer_values(
        load, plan, str(tmp_path / "replay"), Tracer()
    )
    assert math.isnan(layers["live.http_s"])


def test_pace_scales_to_the_full_speed():
    import signal
    import time

    from e2ebench.pace import INTERVAL_SECONDS, PROBE_SECONDS, pace, paced

    assert pace(1.5, [PROBE_SECONDS] * 3) == pytest.approx(1.5)
    # On a host running at half speed the probes take twice as long, and
    # so does the call: the paced time is the same.
    slow = 2 * PROBE_SECONDS
    assert pace(3.0, [slow, slow]) == pytest.approx(1.5)
    assert pace(3.0, [PROBE_SECONDS, 3 * PROBE_SECONDS]) == pytest.approx(1.5)

    # A call longer than the interval is sampled; the probes it ran do
    # not count as its time, and the timer is gone afterwards.
    handler = signal.getsignal(signal.SIGALRM)
    seconds, output = paced(lambda: time.sleep(6 * INTERVAL_SECONDS) or "done")
    assert output == "done"
    assert 0 < seconds < 20 * INTERVAL_SECONDS
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


def _document(values, attempted=100, failed=0):
    from e2ebench.report import summarize

    return {"workloads": {"wlog-imp": {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {"mine_s": summarize(values)},
    }}}


@pytest.mark.parametrize("scale, spread, expected", [
    (1.5, 0.01, "regressed"),   # slower by far more than the bound
    (1.05, 0.01, "ok"),         # slower, but within the bound
    (0.5, 0.01, "improved"),    # wins every pair, beyond the spread
    (1.0, 0.5, "unresolved"),   # runs spread wider than the bound
])
def test_compare_verdicts(scale, spread, expected):
    from e2ebench.report import compare

    parent = [1.0 + spread * (i % 5) for i in range(10)]
    child = [value * scale for value in parent]
    rows = compare(_document(parent), _document(child), BENCHMARK)
    assert [row["verdict"] for row in rows] == ["ok", expected]


def test_compare_regresses_on_any_rise_in_failures():
    from e2ebench.report import compare, format_compare

    values = [1.0 + 0.01 * (i % 5) for i in range(10)]
    rows = compare(_document(values), _document(values, failed=1), BENCHMARK)
    assert [(row["metric"], row["verdict"]) for row in rows] == [
        ("failed/attempted", "regressed"), ("mine_s", "ok"),
    ]
    assert "1/100" in format_compare(rows)
    rows = compare(_document(values, failed=1), _document(values), BENCHMARK)
    assert rows[0]["verdict"] == "ok"


def test_a_run_waits_for_every_process_it_started():
    # A spawn-context lock starts multiprocessing's resource tracker,
    # which ignores SIGTERM; the shell leaves an orphaned sleep behind.
    script = "\n".join([
        "import multiprocessing, subprocess, sys",
        "sys.path.insert(0, 'e2ebench')",
        "import run",
        "run.adopt_orphans()",
        "lock = multiprocessing.get_context('spawn').Lock()",
        "subprocess.run(['sh', '-c', 'sleep 60 > /dev/null 2>&1 &'])",
        "assert run.child_pids()",
        "run.stop_children(grace=0.5)",
        "print(run.child_pids())",
    ])
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("work", "__pycache__"),
        )
    done = run("wlog-imp", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "{" not in done.stdout
