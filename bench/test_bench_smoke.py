"""Smoke test of the benchmark itself, in ``--quick`` mode (about a minute).

Not part of tier-1 (``testpaths`` is ``tests``); run it when the benchmark
changes::

    python3 -m pytest bench/test_bench_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import run


def quick_suite(tmp_path, tag):
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--quick",
         "--seed", "7", "--out", str(out)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0
    # The printed summary is the file, and it claims nothing.
    assert proc.stdout.rstrip().endswith('"claim": null\n}')
    with open(out) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return quick_suite(tmp, "a"), quick_suite(tmp, "b")


def test_schema_matches_benchmark_json(suites):
    spec = run.load_spec()
    a, __ = suites
    assert list(a["workloads"]) == [w["name"] for w in spec["workloads"]]
    for entry in a["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            assert list(entry[section]) == [m["name"] for m in spec[section]]
            for metric in spec[section]:
                assert entry[section][metric["name"]]["unit"] == metric["unit"]


def test_results_are_correct(suites):
    for suite in suites:
        for name, entry in suite["workloads"].items():
            assert entry["wrong_results"] == 0, name
            assert entry["failed"] == 0, name
            assert entry["correct"], name


def test_virtual_metrics_repeat_exactly(suites):
    a, b = suites
    for name, entry in a["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric, rec in entry[section].items():
                if not run.is_host_metric(metric):
                    other = b["workloads"][name][section][metric]
                    assert rec["value"] == other["value"], (name, metric)


def test_end_to_end_metrics_are_never_zero(suites):
    for entry in suites[0]["workloads"].values():
        for metric, rec in entry["end_to_end"].items():
            assert rec["value"] > 0, metric


def test_layers_account_for_the_traced_wall(suites):
    for name, entry in suites[0]["workloads"].items():
        share = entry["per_layer"]["profile.attributed_share"]["value"]
        assert 0.95 <= share <= 1.05, (name, share)


def test_compare_accepts_the_same_commit(suites, capsys):
    a, b = suites
    spec = run.load_spec()
    # Quick rounds are too short for the host-time bounds to hold; the
    # virtual-time rows must still all read ok and identical.
    compare.compare(a, b, spec, exact=False)
    table = capsys.readouterr().out
    assert "virtual/count metrics that differ: 0" in table
    for line in table.splitlines():
        if any(f" {m} " in line for m in ("vlat_p50", "vlat_p99",
                                          "msgs_per_op", "ok_share")):
            assert line.endswith("ok"), line


def test_driver_command_prints_one_json_line():
    spec = run.load_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            spec["command"] + ["--workload", "rpc_storm", "--seed", "3",
                               "--seconds", "1", "--trace", str(trace),
                               "--quick"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
        assert proc.returncode == 0
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[section]]


def test_hang_guard_kills_and_reports():
    with pytest.raises(run.BenchError, match="hang guard"):
        run.run_round("rpc_storm", seed=1, scale=1, mode="", timeout=0.5)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: fail, and print no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rpc_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
