"""Per-layer performance ledger: four workloads, one JSON verdict.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py                           # all workloads
    python3 benchmarks/ledger/run.py --workload cc-grey-mmap --seed 3
    python3 benchmarks/ledger/run.py --workload svc-mixed --trace 1
    python3 benchmarks/ledger/run.py --smoke                   # tiny, < 20 s

For each workload this process has a subprocess generate the seeded
inputs and the oracle digests (outside any timed window), times the
cold starts behind ``setup_s``, runs the workload in a fresh
subprocess, checks it leaked no shared memory or spill directory, and
reports the metrics declared in ``BENCHMARK.json``: the end-to-end ones
untraced, with timings scaled by the host calibration, the per-layer
ones with ``--trace 1``.  The next-to-last stdout line is
the run record (host, versions, samples per metric); the last is the
verdict ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from workloads import CAL_REF_S, WORKLOADS, LedgerError, kind_of, layer_kind

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Cold starts behind ``setup_s`` (median reported).
SETUP_REPS = 5

#: Length of one slice of the service window.  Between slices both
#: streams are idle for the calibration and, traced, the metrics scrapes
#: that bracket odd slices.
SVC_SLICE_S = 2.0

#: Seconds one workload (inputs, cold starts, window) may take beyond its
#: window before its subprocesses are killed and the run fails; keeps a
#: single-workload run under three minutes even when the program hangs.
WORKLOAD_GRACE_S = 140.0

#: Environment the program under test must not inherit: every run uses
#: the shipped defaults (numpy kernel, pool workers = min(p, cpus)).
SCRUBBED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_TASK_TIMEOUT", "REPRO_TASK_RETRIES")

#: ``multiprocessing.resource_tracker`` complaining about a segment it
#: no longer tracks; counted, not failed on (see README).
_TRACKER_KEYERROR = re.compile(
    r"Traceback \(most recent call last\):\n(?:[ \t].*\n)*?"
    r"[ \t]+File \".*resource_tracker\.py\".*\n(?:[ \t].*\n)*KeyError",
)

#: Longest path the routed tier binds under the work dir (its TMPDIR).
_SHARD_SOCKET_TAIL = "/repro-shards-xxxxxxxx/shard-0.sock"


def _fail(msg: str) -> int:
    print(f"ledger: {msg}", file=sys.stderr)
    return 2


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _work_dir() -> pathlib.Path:
    """A per-workload scratch dir, inside the checkout when sockets fit.

    It is also the workload's ``TMPDIR``, so spill directories and the
    shard sockets of the routed tier land in it.
    """
    from repro.service import SUN_PATH_MAX

    base = ROOT / ".ledger"
    longest = str(base / "xxxxxxxx") + _SHARD_SOCKET_TAIL
    if len(os.fsencode(longest)) <= SUN_PATH_MAX:
        base.mkdir(exist_ok=True)
        return pathlib.Path(tempfile.mkdtemp(prefix="", dir=base))
    return pathlib.Path(tempfile.mkdtemp(prefix="ledger-"))


def _child_env(work: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    prev = env.get("PYTHONPATH")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src if not prev else src + os.pathsep + prev
    env["TMPDIR"] = str(work)
    return env


def _reap_shards(work: pathlib.Path) -> None:
    """Retire shard processes a killed router left running (own sessions)."""
    import asyncio

    from repro.service import request_over_socket

    for sock in work.glob("repro-shards-*/shard-*.sock"):
        try:
            asyncio.run(asyncio.wait_for(
                request_over_socket(str(sock), {"op": "shutdown"}), timeout=5.0))
        except (OSError, asyncio.TimeoutError):
            pass


def _run_child(mode: str, spec_path, env, work, deadline: float) -> tuple[str, str]:
    """Run child.py to completion; kill its process group at ``deadline``."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, str(spec_path)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _reap_shards(work)
            raise LedgerError(f"child {mode} did not finish in time") from None
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise LedgerError(f"child {mode} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return (lines[-1] if lines else ""), err


def run_workload(name: str, args, seconds: float) -> dict:
    """Inputs + oracle, cold starts, the measured child, leak checks.

    Inputs and oracle are made in their own subprocess: a child inherits
    its parent's resident set as the floor of ``ru_maxrss``, so this
    process stays small for ``peak_rss_mib`` to belong to the workload.
    """
    from repro.faults.leakcheck import leaked_since, shm_segments

    work = _work_dir()
    reps = 1 if args.smoke else SETUP_REPS
    deadline = time.monotonic() + seconds + WORKLOAD_GRACE_S
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(dict(
            workload=name, seed=args.seed, smoke=args.smoke, seconds=seconds,
            trace=bool(args.trace), work=str(work),
            setup_reps=reps, slice_s=SVC_SLICE_S / 4 if args.smoke else SVC_SLICE_S,
        )))
        env = _child_env(work)
        _run_child("prepare", spec_path, env, work, deadline)
        setups = []
        if kind_of(name) == "cc":
            for _ in range(reps):
                line, _err = _run_child("setup", spec_path, env, work, deadline)
                setups.append(json.loads(line))
        before = shm_segments()
        line, err = _run_child("run", spec_path, env, work, deadline)
        result = json.loads(line)
        leaked = sorted(leaked_since(before, grace_s=2.0))
        spilled = sorted(p.name for p in work.glob("repro-darray-*"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setups"] = result.get("setups") or setups
    result["tracker_errors"] = len(_TRACKER_KEYERROR.findall(err))
    if leaked:
        result["checks"].append(f"leaked shared-memory segments: {leaked}")
    if spilled:
        result["checks"].append(f"leftover spill directories: {spilled}")
    return result


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics (with sample counts) of one workload run.

    Timings are scaled to the reference host by the run's median
    calibration (``workloads.CAL_REF_S``); the record keeps the raw ones.
    """
    setups, setup_cals = zip(*result["setups"])
    setup_scale = CAL_REF_S / statistics.median(setup_cals)
    scale = CAL_REF_S / statistics.median(result["cals"])
    out = {
        "setup_s": _metric(statistics.median(setups) * setup_scale, "s", len(setups)),
        "peak_rss_mib": _metric(result["maxrss_kib"] / 1024.0, "MiB", 1),
    }
    if result["kind"] == "cc":
        ops, busy = result["walls"], sum(result["walls"])
        pixels, done = result["pixels"] * len(ops), len(ops)
    else:
        ops, hist = result["cc_latencies"], result["hist_latencies"]
        busy = result["window"]
        pixels = len(ops) * result["cc_pixels"] + len(hist) * result["hist_pixels"]
        done = len(ops) + len(hist)
    out["op_p50_ms"] = _metric(statistics.median(ops) * scale * 1e3, "ms", len(ops))
    out["mpx_per_s"] = _metric(pixels / (busy * scale) / 1e6, "Mpx/s", done)
    return out


def _tail(label: str, latencies: list[float]) -> dict:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90.0, 99.0, 99.9):
        if len(latencies) * (1 - q / 100) >= 10:
            best = q
    if best is None:
        return {}
    key = f"{label}_p{best:g}_ms".replace(".", "_")
    value = float(np.percentile(latencies, best)) * 1e3
    return {key: _metric(value, "ms", len(latencies))}


def _extras(result: dict) -> dict:
    """Record-only, unscaled figures: the calibration, raw timings,
    latency tails and the service's second stream."""
    cals, setups = result["cals"], [s for s, _cal in result["setups"]]
    ops = result["walls"] if result["kind"] == "cc" else result["cc_latencies"]
    out = {
        "cal_ms": _metric(statistics.median(cals) * 1e3, "ms", len(cals)),
        "setup_raw_s": _metric(statistics.median(setups), "s", len(setups)),
        "op_p50_raw_ms": _metric(statistics.median(ops) * 1e3, "ms", len(ops)),
        **_tail("op", ops),
    }
    if result["kind"] == "cc":
        return out
    hist = result["hist_latencies"]
    n = len(ops) + len(hist)
    return {
        **out,
        "hist_p50_ms": _metric(statistics.median(hist) * 1e3, "ms", len(hist)),
        **_tail("hist", hist),
        "req_per_s": _metric(n / result["window"], "req/s", n),
    }


def per_layer(name: str, result: dict, declared: list[dict]) -> dict:
    """Every declared per-layer metric; 0 where this kind has no such layer."""
    layers = dict(result.get("layers") or {})
    layers["shm.tracker_errors"] = result["tracker_errors"]
    unknown = set(layers) - {m["name"] for m in declared}
    if unknown:
        raise LedgerError(f"{name}: undeclared per-layer metrics {sorted(unknown)}")
    out = {}
    for m in declared:
        if m["name"] in layers:
            value = layers[m["name"]]
        elif layer_kind(m["name"]) in ("all", kind_of(name)):
            raise LedgerError(f"{name}: per-layer metric {m['name']} not measured")
        else:
            value = 0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, 1 s windows, one cold start")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "tests" / "conftest.py").is_file():
        return _fail(f"{ROOT} has no src/repro or tests/conftest.py to benchmark")
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    sys.path.insert(0, str(ROOT / "src"))
    bench = _bench()
    if args.workload is not None and args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {WORKLOADS}")
    names = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds or (1.0 if args.smoke else float(bench["run_seconds"]))

    record = {
        "schema": "ledger/v1", "git_sha": _git_sha(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke,
        "seconds": seconds, "workloads": {},
    }
    verdict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        t0 = time.perf_counter()
        try:
            result = run_workload(name, args, seconds)
            if args.trace:
                shown = metrics = per_layer(name, result, bench["per_layer"])
            else:
                shown = end_to_end(result)
                metrics = {k: {"value": v["value"], "unit": v["unit"]}
                           for k, v in shown.items()}
                shown = {**shown, **_extras(result)}
        except (LedgerError, OSError, ValueError) as exc:
            return _fail(f"{name}: {exc}")
        correct = result["failed"] == 0 and not result["checks"]
        record["workloads"][name] = {
            "metrics": shown, "attempted": result["attempted"],
            "failed": result["failed"],
            "error_rate": result["failed"] / max(result["attempted"], 1),
            "correct": correct, "checks": result["checks"],
            "errors": result["errors"], "tracker_errors": result["tracker_errors"],
            "elapsed_s": time.perf_counter() - t0,
        }
        if "attributed_pct" in result:
            record["workloads"][name]["attributed_pct"] = result["attributed_pct"]
        for key, m in shown.items():
            n = f"  (n={m['samples']})" if "samples" in m else ""
            print(f"{name:<16} {key:<34} {m['value']:>14.4f} {m['unit']}{n}")
        for msg in result["checks"] + result["errors"]:
            print(f"{name:<16} CHECK FAILED: {msg}")
        prefix = "" if args.workload else f"{name}."
        verdict["metrics"].update({prefix + k: v for k, v in metrics.items()})
        verdict["correct"] = verdict["correct"] and correct
        verdict["attempted"] += result["attempted"]
        verdict["failed"] += result["failed"]
    print(json.dumps({"ledger": record}))
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
