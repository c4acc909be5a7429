"""Self-test of the ledger benchmark: run the smoke, check its output.

    PYTHONPATH=src python -m pytest benchmarks/ledger

The smoke runs all four workloads at tiny sizes (about 10 s untraced
and 10 s traced on a 2-CPU host).
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

sys.path.insert(0, str(HERE))
from run import end_to_end  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CAL_REF_S, LAYER_TARGETS, WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "benchmarks/ledger/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _smoke(trace: int) -> tuple[dict, dict]:
    proc = _run("--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, record_line, verdict_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["ledger"], json.loads(verdict_line)


@pytest.fixture(scope="module")
def untraced():
    return _smoke(0)


@pytest.fixture(scope="module")
def traced():
    return _smoke(1)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == WORKLOADS
    assert set(LAYER_TARGETS) == {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for name, targets in LAYER_TARGETS.items():
        assert targets, name
        for metric, workload in targets:
            assert metric in e2e and workload in WORKLOADS, (name, metric, workload)


def test_emitted_names_are_well_formed(untraced, traced):
    for record, verdict in (untraced, traced):
        names = [*verdict["metrics"], *record["workloads"]]
        for entry in record["workloads"].values():
            names += entry["metrics"]
        for name in names:
            assert NAME.match(name), name


def test_every_end_to_end_metric_for_every_workload(untraced):
    record, verdict = untraced
    for workload in WORKLOADS:
        got = record["workloads"][workload]["metrics"]
        for m in BENCH["end_to_end"]:
            entry = got[m["name"]]
            assert entry["unit"] == m["unit"]
            assert entry["samples"] >= 1
            assert entry["value"] > 0
            assert verdict["metrics"][f"{workload}.{m['name']}"]["value"] == entry["value"]


def test_every_per_layer_metric_for_every_workload(traced):
    _record, verdict = traced
    for workload in WORKLOADS:
        for m in BENCH["per_layer"]:
            assert verdict["metrics"][f"{workload}.{m['name']}"]["unit"] == m["unit"]


def test_run_record(untraced):
    record, _verdict = untraced
    assert record["cpu_count"] and record["python"] and record["numpy"]
    assert "git_sha" in record and record["seed"] == 0 and record["trace"] is False


def test_no_failed_op_and_no_leak(untraced, traced):
    for record, verdict in (untraced, traced):
        assert verdict["correct"] and verdict["failed"] == 0
        assert verdict["attempted"] >= len(WORKLOADS)
        for entry in record["workloads"].values():
            assert entry["error_rate"] == 0 and not entry["checks"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cc-binary-local", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_timings_are_scaled_by_the_calibration():
    # A host twice as slow as the reference halves every timing.
    slow = 2 * CAL_REF_S
    metrics = end_to_end(dict(
        kind="cc", setups=[[0.2, slow]] * 3, cals=[slow] * 4,
        walls=[0.4, 0.6, 0.5, 0.5], pixels=10**6, maxrss_kib=2048,
    ))
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(250.0)
    assert metrics["mpx_per_s"]["value"] == pytest.approx(4.0)
    assert metrics["peak_rss_mib"]["value"] == 2.0


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    inner = tracer.wrap("inner", leaf)

    def body():
        inner()
        inner()
        return sum(range(20000))

    root = tracer.wrap("root", body)
    t0 = time.perf_counter()
    root()
    wall = time.perf_counter() - t0
    self_s, calls, _items = tracer.snapshot()
    assert calls == {"inner": 2, "root": 1}
    assert 0 < sum(self_s.values()) <= wall
    assert all(v > 0 for v in self_s.values())
