"""Workload subprocess of the ledger benchmark.

``run.py`` runs every workload in a fresh interpreter (so imports,
pools and RSS start cold and ``ru_maxrss`` belongs to one workload)::

    python benchmarks/ledger/child.py prepare SPEC.json # inputs + oracle
    python benchmarks/ledger/child.py setup SPEC.json   # one cold start
    python benchmarks/ledger/child.py run SPEC.json     # warm-up + window

``run`` prints one JSON object on its last stdout line: raw samples,
the calibrations taken between them, op/failure counts and, with
tracing, the per-layer numbers.  Load comes from this one process: a
single calling thread for ``cc-*``, one asyncio thread with two
connections for ``svc-*``; both closed loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time
import warnings
from collections import Counter

import numpy as np

from workloads import CONNECTIVITY, LEVELS, LedgerError, calibrate, digest, make_inputs

#: Requests per stream sent before the service window opens: stream A
#: warms both shards' workers, stream B fills the cache.
SVC_WARM_CC = 4

#: Seconds a server may take to answer ``ping`` with every shard healthy.
SVC_READY_S = 60.0

#: Errors kept verbatim in the result (the rest are only counted).
MAX_ERRORS = 5


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _maxrss_kib() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


class Ops:
    """Attempted/failed accounting shared by both workload kinds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)

    def result(self) -> dict:
        return dict(attempted=self.attempted, failed=self.failed, errors=self.errors)


# -- cc-* workloads -----------------------------------------------------------


def _cc_source(spec):
    return spec["image"] if spec["transport"] == "mmap" else np.load(spec["image"])


def _cc_options(spec) -> dict:
    return dict(
        p=spec["p"], transport=spec["transport"], connectivity=CONNECTIVITY,
        grey=spec["grey"], resident_tiles=1,
    )


def setup_cc(spec) -> tuple[float, float]:
    """Seconds to import ``repro.darray`` and open+close one array, and
    the calibration taken right after."""
    source = _cc_source(spec)
    t0 = time.perf_counter()
    from repro.core.tiles import ProcessorGrid
    from repro.darray import DistributedArray

    grid = ProcessorGrid(spec["p"], (spec["n"], spec["n"]), strict=False)
    opts = _cc_options(spec)
    opts.pop("p")
    DistributedArray.open(opts.pop("transport"), grid, source, **opts).close()
    return time.perf_counter() - t0, calibrate()


#: ``TransportStats`` fields: exact per-job counts, reported per layer.
_STATS = ("border_bytes", "change_bytes", "spill_reads", "spill_writes",
          "resident_highwater")


def _border_bound(grid) -> int:
    """Border bytes when every internal tile edge is fetched once.

    Each merge fetches both sides (int64 labels + colors, 16 bytes per
    pixel) of the edges it joins, and each internal edge is joined in
    exactly one round.
    """
    return 16 * 2 * (grid.rows * (grid.w - 1) + grid.cols * (grid.v - 1))


def run_cc(spec) -> dict:
    from repro.core.tiles import ProcessorGrid
    from repro.darray import darray_components
    from repro.utils.errors import DegradedRunWarning
    from spans import Tracer

    source = _cc_source(spec)
    opts = _cc_options(spec)
    tracer = Tracer() if spec["trace"] else None
    traced_job = tracer.wrap("job", darray_components) if tracer else None
    ops = Ops()
    walls: list[float] = []
    traced_jobs: list[tuple[float, tuple[dict, dict, dict]]] = []
    stats_seen: set[tuple] = set()
    checks: list[str] = []

    def one(traced: bool):
        """One job: its wall time and span deltas (traced), or None if it failed."""
        ops.attempted += 1
        spans = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradedRunWarning)
            try:
                if traced:
                    before = tracer.snapshot()
                    with tracer.patched():
                        t0 = time.perf_counter()
                        res = traced_job(source, **opts)
                        wall = time.perf_counter() - t0
                    spans = tuple(
                        {k: v - b.get(k, 0) for k, v in a.items()}
                        for a, b in zip(tracer.snapshot(), before)
                    )
                else:
                    t0 = time.perf_counter()
                    res = darray_components(source, **opts)
                    wall = time.perf_counter() - t0
            except Exception as exc:  # a failed op is counted, not fatal
                ops.fail(f"{type(exc).__name__}: {exc}")
                return None
        if any(issubclass(w.category, DegradedRunWarning) for w in caught):
            ops.fail("DegradedRunWarning")
            return None
        got = digest(res.labels)
        stats_seen.add(tuple(getattr(res.stats, f) for f in _STATS))
        del res  # unmaps an out-of-core result before the next job
        if got != spec["expected"]:
            ops.fail("labels differ from the oracle")
            return None
        return wall, spans

    one(False)  # warm-up: caches, lazy imports, first-touch allocation
    cals: list[float] = []
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    # A traced run makes at least one untraced and one traced job.
    while time.perf_counter() < deadline or (tracer is not None and i < 2):
        traced = tracer is not None and i % 2 == 1
        done = one(traced)
        cals.append(calibrate())
        if done is not None:
            if traced:
                traced_jobs.append(done)
            else:
                walls.append(done[0])
        i += 1

    if len(stats_seen) > 1:
        checks.append(f"transport stats drift across jobs: {sorted(stats_seen)}")
    bound = _border_bound(ProcessorGrid(spec["p"], (spec["n"], spec["n"]), strict=False))
    border = max((s[0] for s in stats_seen), default=0)
    if border > bound:
        checks.append(f"border_bytes {border} > bound {bound}")
    counts = {(tuple(sorted(c.items())), tuple(sorted(n.items())))
              for _w, (_s, c, n) in traced_jobs}
    if len(counts) > 1:
        checks.append("per-layer call/item counts drift across traced jobs")
    out = dict(kind="cc", walls=walls, cals=cals, pixels=spec["n"] ** 2, checks=checks,
               **ops.result())
    if stats_seen:
        out.update(zip(_STATS, min(stats_seen)))
    if traced_jobs:
        traced_walls = [w for w, _spans in traced_jobs]
        middle = _middle(traced_jobs)
        out["layers"] = _cc_layers(middle, out)
        out["layers"]["trace_overhead_pct"] = _overhead_pct(traced_walls, walls)
        # Self times (the residual included) partition each traced job,
        # so their means over the middle jobs add up to about the median.
        attributed = sum(sum(s.values()) for _s, (s, _c, _n) in middle) / len(middle)
        out["attributed_pct"] = 100.0 * attributed / statistics.median(traced_walls)
    return out


def _middle(jobs: list) -> list:
    """The traced jobs whose wall times lie between the quartiles."""
    jobs = sorted(jobs, key=lambda job: job[0])
    return jobs[len(jobs) // 4 : len(jobs) - len(jobs) // 4]


def _cc_layers(jobs, out) -> dict:
    """Per-job layer metrics: mean self times over ``jobs``, counts of one job."""

    def self_ms(span):
        return _ms(statistics.fmean(s.get(span, 0.0) for _w, (s, _c, _n) in jobs))

    _w, (_s, calls, items) = jobs[0]
    layers = {
        f"kernels.{k}.self_ms": self_ms(f"kernels.{k}")
        for k in ("tile_label", "union", "relabel", "border_extract")
    }
    layers.update({
        f"darray.{v}.self_ms": self_ms(f"darray.{v}")
        for v in ("label", "border", "publish", "finalize", "gather")
    })
    layers.update({
        "kernels.tile_label.calls": calls.get("kernels.tile_label", 0),
        "kernels.union.pairs": items.get("kernels.union", 0),
        "core.solve.self_ms": self_ms("core.solve"),
        "core.solve.calls": calls.get("core.solve", 0),
        "core.hooks.self_ms": self_ms("core.hooks"),
        "darray.open_ms": self_ms("darray.open"),
        "darray.close_ms": self_ms("darray.close"),
        "darray.count_ms": self_ms("darray.count"),
        "dispatch.round_trips": calls.get("dispatch.wait", 0),
        "dispatch.wait_ms": self_ms("dispatch.wait"),
        "residual_ms": self_ms("job"),
    })
    layers.update({f"darray.{key}": out.get(key, 0) for key in _STATS})
    return layers


def _overhead_pct(traced, untraced) -> float:
    if not traced or not untraced:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


# -- svc-* workloads ----------------------------------------------------------


def _server_argv(spec, sock: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve", "--socket", sock,
        "--shards", str(spec["shards"]), "--workers", str(spec["workers"]),
        "--cache-bytes", str(spec["cache_bytes"]),
    ]


async def _ask(sock: str, op: str):
    from repro.service import raise_reply_error, request_over_socket

    return raise_reply_error(await request_over_socket(sock, {"op": op}))["result"]


async def start_server(spec, sock: str) -> tuple[asyncio.subprocess.Process, float]:
    """Spawn the routed tier; return it and seconds until all shards ping."""
    from repro.utils.errors import ReproError

    t0 = time.perf_counter()
    proc = await asyncio.create_subprocess_exec(
        *_server_argv(spec, sock), stdout=asyncio.subprocess.DEVNULL
    )
    try:
        while True:
            if proc.returncode is not None:
                raise LedgerError(f"server exited with {proc.returncode}")
            if os.path.exists(sock):
                with contextlib.suppress(OSError, ReproError):
                    if (await _ask(sock, "ping")).get("healthy") == spec["shards"]:
                        return proc, time.perf_counter() - t0
            if time.perf_counter() - t0 > SVC_READY_S:
                raise LedgerError(f"server not ready after {SVC_READY_S:g}s")
            await asyncio.sleep(0.01)
    except BaseException:
        await stop_server(proc, sock)
        raise


async def stop_server(proc: asyncio.subprocess.Process, sock: str) -> None:
    """Ask the router to drain and retire its shards; kill if it will not."""
    from repro.utils.errors import ReproError

    with contextlib.suppress(OSError, ReproError):
        await _ask(sock, "shutdown")
    try:
        await asyncio.wait_for(proc.wait(), 30)
    except asyncio.TimeoutError:
        proc.kill()
        await proc.wait()


async def _scrape(router_sock: str) -> Counter:
    """Cumulative shard + router counters, summed over shards."""
    from repro.obs import parse_prometheus_text

    totals: Counter = Counter()

    def add_metrics(text: str, prefix: str) -> None:
        for family in parse_prometheus_text(text).values():
            for s in family["samples"]:
                if s["name"].endswith("_bucket"):
                    continue
                labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
                totals[f"{prefix}{s['name']}{{{labels}}}"] += s["value"]

    router = await _ask(router_sock, "stats")
    totals["router.reroutes"] += router["router"]["reroutes"]
    totals["router.hedges"] += router["router"]["hedges"]
    add_metrics(await _ask(router_sock, "metrics"), "router:")
    for shard in router["shards"].values():
        stats = await _ask(shard["socket"], "stats")
        totals["svc.coalesced"] += stats["service"]["coalesced"]
        totals["svc.shed"] += stats["admission"]["shed"]
        totals["svc.expired"] += stats["admission"]["expired"]
        add_metrics(await _ask(shard["socket"], "metrics"), "")
    return totals


class Stream:
    """One closed-loop connection cycling through seeded images."""

    def __init__(self, client, op, images, expected, offset, params):
        self.client = client
        self.op = op
        self.images = images
        self.expected = expected
        self.offset = offset
        self.params = params
        self.sent = 0
        self.slices: list[int] = []
        self.latencies: list[float] = []

    async def request(self, ops: Ops) -> float | None:
        from repro.utils.errors import ReproError

        idx = (self.offset + self.sent) % len(self.images)
        self.sent += 1
        ops.attempted += 1
        t0 = time.perf_counter()
        try:
            out = await self.client.compute(self.op, self.images[idx], **self.params)
        except ReproError as exc:  # typed error reply, shed, draining
            ops.fail(f"{self.op}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        if digest(out) != self.expected[idx]:
            ops.fail(f"{self.op} reply differs from the oracle")
            return None
        return dt

    async def run(self, ops: Ops, end: float, slice_index: int) -> None:
        while time.perf_counter() < end:
            dt = await self.request(ops)
            if dt is not None:
                self.slices.append(slice_index)
                self.latencies.append(dt)


async def run_svc(spec) -> dict:
    """Cold starts, warm-up, then the window in equal slices.

    Between slices both streams are idle: the calibration runs there,
    and on a traced run the ``stats``/``metrics`` scrapes that bracket
    every odd slice, so neither is timed as part of a request.
    """
    from repro.service import WireClient

    work = pathlib.Path(spec["work"])
    setups = []
    proc = sock = None
    try:
        for i in range(spec["setup_reps"]):
            if proc is not None:
                await stop_server(proc, sock)
            cal = calibrate()
            sock = str(work / f"s{i}.sock")
            proc, dt = await start_server(spec, sock)
            setups.append((dt, cal))
        cc_images = np.load(spec["cc_images"])
        hist_images = np.load(spec["hist_images"])
        ops = Ops()
        async with WireClient(sock, wire="shmem") as ca, \
                WireClient(sock, wire="ndjson") as cb:
            a = Stream(ca, "components", cc_images, spec["cc_expected"],
                       spec["cc_offset"], dict(grey=True, connectivity=CONNECTIVITY))
            b = Stream(cb, "histogram", hist_images, spec["hist_expected"],
                       spec["hist_offset"], dict(k=LEVELS))
            for _ in range(len(hist_images)):
                await b.request(ops)
            for _ in range(min(SVC_WARM_CC, len(cc_images))):
                await a.request(ops)
            n_slices = max(1, math.ceil(spec["seconds"] / spec["slice_s"]))
            slice_s = spec["seconds"] / n_slices
            window, cals, deltas = 0.0, [], Counter()
            for k in range(n_slices):
                traced = spec["trace"] and k % 2 == 1
                if traced:
                    before = await _scrape(sock)
                t0 = time.perf_counter()
                await asyncio.gather(a.run(ops, t0 + slice_s, k), b.run(ops, t0 + slice_s, k))
                window += time.perf_counter() - t0
                if traced:
                    after = await _scrape(sock)
                    deltas.update({key: after[key] - before[key] for key in after})
                cals.append(calibrate())
    finally:
        if proc is not None:
            await stop_server(proc, sock)
    out = dict(kind="svc", setups=setups, window=window, cals=cals,
               cc_latencies=a.latencies, hist_latencies=b.latencies,
               cc_pixels=int(cc_images[0].size), hist_pixels=int(hist_images[0].size),
               checks=[], **ops.result())
    if spec["trace"]:
        out["layers"] = _svc_layers(deltas, a, b, window)
    return out


def _svc_layers(d: Counter, a: Stream, b: Stream, window: float) -> dict:
    def mean_ms(family: str, labels: str = "", prefix: str = "") -> float:
        n = d[f"{prefix}{family}_count{{{labels}}}"]
        return _ms(d[f"{prefix}{family}_sum{{{labels}}}"] / n) if n else 0.0

    def split(stream: Stream) -> tuple[list, list]:
        traced, untraced = [], []
        for k, dt in zip(stream.slices, stream.latencies):
            (traced if k % 2 else untraced).append(dt)
        return traced, untraced

    a_traced, a_untraced = split(a)
    b_traced, _ = split(b)
    hits, misses = d["repro_cache_hits_total{}"], d["repro_cache_misses_total{}"]
    batch_n = d["repro_batch_size_count{}"]
    layers = {
        f"svc.{stage}.{wire}.mean_ms": mean_ms(f"repro_{stage}_seconds", f"wire={wire}")
        for stage in ("decode", "encode") for wire in ("ndjson", "shmem")
    }
    layers.update({
        f"svc.server.{op}.mean_ms": mean_ms("repro_request_latency_seconds", f"op={op}")
        for op in ("components", "histogram")
    })
    layers.update({
        "svc.cache.lookup.mean_ms": mean_ms("repro_cache_lookup_seconds"),
        "svc.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "svc.queue_wait.mean_ms": mean_ms("repro_queue_wait_seconds"),
        "svc.batch_assembly.mean_ms": mean_ms("repro_batch_assembly_seconds"),
        "svc.batch_size.mean": d["repro_batch_size_sum{}"] / batch_n if batch_n else 0.0,
        "svc.exec.components.mean_ms": mean_ms("repro_exec_seconds", "op=components"),
        "svc.router.mean_ms": mean_ms("repro_router_request_seconds", prefix="router:"),
        "svc.req_per_s": (len(a.latencies) + len(b.latencies)) / window,
        "svc.cc.p90_ms": _ms(float(np.percentile(a.latencies, 90))),
        "svc.hist.p50_ms": _ms(float(np.percentile(b.latencies, 50))),
        "svc.hist.p99_ms": _ms(float(np.percentile(b.latencies, 99))),
        "trace_overhead_pct": _overhead_pct(a_traced, a_untraced),
    })
    for key in ("svc.coalesced", "svc.shed", "svc.expired", "router.reroutes",
                "router.hedges"):
        layers[key] = d[key]

    def shard_side(op: str, wire: str) -> float:
        return (layers[f"svc.server.{op}.mean_ms"] + layers[f"svc.decode.{wire}.mean_ms"]
                + layers[f"svc.encode.{wire}.mean_ms"])

    # Client-observed time the shards do not account for: client wire
    # codec, socket hops and the router.
    layers["svc.router_hop.histogram.mean_ms"] = (
        _ms(statistics.fmean(b_traced)) - shard_side("histogram", "ndjson")
        if b_traced else 0.0)
    layers["residual_ms"] = (
        _ms(statistics.fmean(a_traced)) - shard_side("components", "shmem")
        if a_traced else 0.0)
    return layers


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    spec_path = pathlib.Path(spec_path)
    spec = json.loads(spec_path.read_text())
    if mode == "prepare":
        # The oracle lives in tests/conftest.py, under the repository root.
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
        spec.update(make_inputs(spec["workload"], spec["seed"], spec["smoke"],
                                pathlib.Path(spec["work"])))
        spec_path.write_text(json.dumps(spec))
        return 0
    if mode == "setup":
        print(json.dumps(setup_cc(spec)))
        return 0
    if spec["kind"] == "cc":
        result = run_cc(spec)
    else:
        result = asyncio.run(run_svc(spec))
    result["maxrss_kib"] = _maxrss_kib()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
