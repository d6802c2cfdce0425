"""End-to-end benchmark of the DMC mining system.

Run it with ``python3 e2ebench/run.py`` from the repository root; see
``e2ebench/README.md`` for the workloads, the metrics and how to
compare two sets of results.  The package only calls the program's
public functions: ``repro.mine()``, the ``repro.matrix`` /
``repro.core`` / ``repro.mining`` entry points, and a ``python -m
repro serve`` child process driven over HTTP.
"""
