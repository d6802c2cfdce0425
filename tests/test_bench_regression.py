"""The micro-benchmark regression gate (benchmarks.check_bench_regression)."""

import pytest

from benchmarks.check_bench_regression import (
    BenchmarkRegression,
    check,
    main,
)


def _document(**entries):
    return {
        "module": "bench_engine_micro",
        "benchmarks": [
            dict(name=name, **fields) for name, fields in entries.items()
        ],
    }


class TestMedianGate:
    def test_gates_on_the_median(self):
        """One slow round drags the mean, not the median."""
        committed = _document(scan={
            "mean_seconds": 0.010, "median_seconds": 0.010,
        })
        fresh = _document(scan={
            "mean_seconds": 0.020, "median_seconds": 0.011,
        })
        (verdict,) = check(committed, fresh)
        assert verdict.startswith("scan: median 10.000ms -> 11.000ms")
        fresh["benchmarks"][0]["median_seconds"] = 0.015
        with pytest.raises(BenchmarkRegression, match="scan: median"):
            check(committed, fresh)

    def test_falls_back_to_the_mean_without_a_committed_median(self):
        committed = _document(scan={"mean_seconds": 0.010})
        fresh = _document(scan={
            "mean_seconds": 0.020, "median_seconds": 0.010,
        })
        with pytest.raises(BenchmarkRegression, match="scan: mean"):
            check(committed, fresh)
        fresh["benchmarks"][0]["mean_seconds"] = 0.011
        (verdict,) = check(committed, fresh)
        assert verdict.startswith("scan: mean 10.000ms -> 11.000ms")

    def test_threshold_and_floor_are_unchanged(self, tmp_path):
        import json

        committed = _document(
            slow={"mean_seconds": 0.100, "median_seconds": 0.100},
            tiny={"mean_seconds": 0.001, "median_seconds": 0.001},
        )
        fresh = _document(
            slow={"mean_seconds": 0.124, "median_seconds": 0.124},
            tiny={"mean_seconds": 0.0025, "median_seconds": 0.0025},
        )
        assert len(check(committed, fresh)) == 2
        paths = []
        for name, document in (("old", committed), ("new", fresh)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            paths.append(str(path))
        assert main(paths) == 0
        fresh["benchmarks"][0]["median_seconds"] = 0.126
        with pytest.raises(BenchmarkRegression):
            check(committed, fresh)


class TestWorkloadIdentity:
    @pytest.mark.parametrize("key,committed_value,fresh_value", [
        ("module", "bench_live", "bench_service"),
        ("scale", 1.0, 0.05),
        ("seed", 0, 1),
    ])
    def test_mismatch_is_refused(
        self, tmp_path, key, committed_value, fresh_value
    ):
        """A document at another scale or seed times another workload:
        the gate refuses to compare rather than pass a smaller run."""
        import json

        committed = _document(scan={"median_seconds": 0.100,
                                    "mean_seconds": 0.100})
        fresh = _document(scan={"median_seconds": 0.010,
                                 "mean_seconds": 0.010})
        committed[key] = committed_value
        fresh[key] = fresh_value
        with pytest.raises(ValueError, match=f"{key} mismatch"):
            check(committed, fresh)
        paths = []
        for name, document in (("old", committed), ("new", fresh)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            paths.append(str(path))
        assert main(paths) == 1
        fresh[key] = committed_value
        (verdict,) = check(committed, fresh)
        assert verdict.startswith("scan: median")
