"""Every committed BENCH_*.json carries each end-to-end metric of each workload.

A BENCH file records perfbench/run.py's last stdout line for each workload
and seed, and per metric the median and quartiles over those runs. The
workload and metric names are read from BENCHMARK.json, so a file that
misses one, or that the benchmark has outgrown, fails here.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def test_a_baseline_is_committed():
    assert os.path.join(ROOT, "BENCH_baseline.json") in BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_carries_every_end_to_end_metric(path):
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in WORKLOADS:
        entry = bench["workloads"][workload]
        assert entry["runs"], workload
        for run in entry["runs"]:
            result = run["result"]
            assert result["correct"] is True and result["failed"] == 0, (workload, run["seed"])
            assert set(METRICS) <= set(result["metrics"]), (workload, run["seed"])
        for metric in METRICS:
            values = [run["result"]["metrics"][metric]["value"] for run in entry["runs"]]
            stats = entry["summary"][metric]
            assert min(values) <= stats["q1"] <= stats["median"] <= stats["q3"] <= max(values)
            assert stats["iqr"] == pytest.approx(stats["q3"] - stats["q1"])
