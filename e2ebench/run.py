#!/usr/bin/env python3
"""End-to-end benchmark of the DMC mining system.

Run from the repository root::

    python3 e2ebench/run.py                  # every workload, each in its
                                             # own child process; writes
                                             # e2ebench/results/BENCH_e2e.json
    python3 e2ebench/run.py --workload wlog-imp --seed 3 --seconds 10 --trace 0
    python3 e2ebench/run.py compare PARENT.json CHILD.json

One run (``--workload``) prints every metric as ``name = value unit``
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The program is imported from ``src/`` of the checkout
the script sits in; without it the script exits with status 2.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS threads are pinned before numpy loads (children inherit the
# setting): the vector engine's small matmuls gain nothing from a
# second thread on a 2-core host, and a pinned pool keeps the timing
# independent of what else the host runs.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
sys.path[0:1] = [SRC, ROOT]

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS_JSON = os.path.join(HERE, "workloads.json")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

#: A child run that takes longer than this is killed and reported.
CHILD_TIMEOUT_SECONDS = 600

#: How long a run waits for its leftover child processes to end by
#: themselves before it kills them.
REAP_GRACE_SECONDS = 30


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux only), so
    that a grandchild whose parent ended first is waited for here too."""
    import ctypes

    pr_set_child_subreaper = 36
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # not Linux: nothing to adopt
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def child_pids() -> list:
    """Process ids of this process's children, zombies included."""
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        path = f"/proc/self/task/{task}/children"
        try:
            with open(path, encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            pass
    return pids


def stop_children(grace: float = REAP_GRACE_SECONDS) -> None:
    """Stop every process this run started and wait until each has ended.

    The partitioned engine's spawn pool starts ``multiprocessing``'s
    resource tracker, which ignores SIGTERM and would outlive this
    process; it ends once the pipe this process holds to it is closed.
    Any other child gets ``grace`` seconds to end, then SIGKILL.
    """
    import signal
    from multiprocessing import resource_tracker
    from time import monotonic, sleep

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        sleep(0.01)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size_name: str, workdir: str):
    """One run of one workload; returns ``(tally, values)``."""
    from repro.observe import Tracer, write_chrome_trace

    from e2ebench import mining, service
    from e2ebench.report import Tally

    workloads = load_json(WORKLOADS_JSON)["workloads"]
    spec = workloads[name]
    size = spec["sizes"][size_name]
    tally = Tally()
    tracer = Tracer(trace_id=f"{name}-seed{seed}")
    if spec["kind"] == "service":
        values = service.service_workload(
            spec, size, seed, workdir, tracer, tally, trace
        )
    else:
        data = mining.prepare(
            spec, size, seed, os.path.join(workdir, "input.txt")
        )
        if trace:
            # Every traced run reports every per-layer metric, so the
            # service and live layers are measured here too.
            served = workloads["service-mixed"]
            values = mining.layer_values(data, tracer, tally)
            values.update(service.service_layers(
                served, served["sizes"][size_name], seed, data,
                os.path.join(workdir, "service"), tracer, tally,
            ))
        else:
            warm = mining.prepare(
                spec, spec["sizes"]["smoke"], 0,
                os.path.join(workdir, "warm-up.txt"),
            )
            values = mining.measure(data, warm, seconds, workdir, tally)
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        write_chrome_trace(
            tracer, os.path.join(RESULTS, f"e2e-trace.{name}.chrome.json")
        )
    return tally, values


def one_run(args, benchmark: dict) -> int:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    # Spill buckets and any other temporary file stay in the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    adopt_orphans()
    try:
        tally, values = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            "smoke" if args.smoke else "full", workdir,
        )
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    from e2ebench.report import result_line

    line = result_line(
        values, tally, benchmark["per_layer" if args.trace else "end_to_end"]
    )
    for name, metric in line["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(line), flush=True)
    return 0


def child_run(name: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    """One run in its own process; returns its result line."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_SECONDS,
    )
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def suite(args, benchmark: dict) -> int:
    """Every workload ``--runs`` times untraced (seed = run index), then
    once traced; writes the results document."""
    from e2ebench.report import host_block, summarize

    names = list(load_json(WORKLOADS_JSON)["workloads"])
    lines = {name: {"end_to_end": [], "per_layer": []} for name in names}
    for run in range(args.runs):
        for name in names:
            lines[name]["end_to_end"].append(
                child_run(name, run, args.seconds, 0, args.smoke)
            )
    for name in names:
        lines[name]["per_layer"].append(
            child_run(name, 0, args.seconds, 1, args.smoke)
        )
    workloads = {}
    for name in names:
        entry = {"attempted": 0, "failed": 0}
        for kind in ("end_to_end", "per_layer"):
            runs = lines[name][kind]
            entry["attempted"] += sum(r["attempted"] for r in runs)
            entry["failed"] += sum(r["failed"] for r in runs)
            entry[kind] = {
                metric["name"]: dict(
                    summarize([r["metrics"][metric["name"]]["value"]
                               for r in runs]),
                    unit=metric["unit"],
                )
                for metric in benchmark[kind]
            }
        workloads[name] = entry
    os.makedirs(WORK, exist_ok=True)
    document = {
        "benchmark": "e2ebench",
        "seconds": args.seconds,
        "runs": args.runs,
        "smoke": args.smoke,
        "host": host_block(WORK),
        "workloads": workloads,
    }
    out = args.out
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    failed = sum(entry["failed"] for entry in workloads.values())
    print(f"wrote {out}: {len(names)} workloads x {args.runs} runs, "
          f"{failed} failed operations")
    return 0 if failed == 0 else 1


def compare_main(argv, benchmark: dict) -> int:
    from e2ebench.report import compare, format_compare

    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two results documents metric by metric.",
    )
    parser.add_argument("parent")
    parser.add_argument("child")
    args = parser.parse_args(argv)
    rows = compare(load_json(args.parent), load_json(args.child), benchmark)
    print(format_compare(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: the program is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    benchmark = load_json(BENCHMARK_JSON)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:], benchmark)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the DMC mining system."
    )
    parser.add_argument("--workload", help="run this workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="how long one run measures",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs (for the benchmark's own tests)",
    )
    parser.add_argument("--runs", type=int, default=10,
                        help="untraced runs per workload (suite)")
    parser.add_argument(
        "--out", default=os.path.join(RESULTS, "BENCH_e2e.json"),
        help="results document (suite)",
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        return suite(args, benchmark)
    return one_run(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
