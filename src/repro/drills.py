"""What the ``repro`` commands run beyond one library call.

:mod:`repro.cli` only parses arguments and dispatches here; every
function takes typed keyword arguments, never an argparse namespace.

* :func:`run_sim` / :func:`run_darray` -- the one run path per engine
  for ``histogram`` and ``components``, with an optional recorder and
  fault plan (``repro histogram``, ``components``, ``trace`` and the
  chaos matrix all call them);
* :func:`chaos_matrix` -- the seeded single-fault matrix;
* :class:`SocketHarness` -- seeded images streamed through a service
  socket, every reply checked against the serial reference, inside a
  private temp directory and the ``/dev/shm`` leak check, both released
  on every path; :func:`serve_selftest`, :func:`router_selftest` and
  :func:`chaos_service` drive it;
* :func:`follow_trace` -- one request's span tree;
* :func:`top` -- the live dashboard's sampler and renderer.

The plain ``repro serve`` path never imports this module.  Only the
socket drills import :mod:`asyncio` and :mod:`repro.service`, so the
one-shot commands (``histogram``, ``components``, ``trace``, the chaos
matrix) do not load them.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import time
import warnings
from typing import TYPE_CHECKING, Awaitable, Callable

import numpy as np

from repro.bdm.machine import Machine
from repro.core.connected_components import parallel_components
from repro.core.histogram import parallel_histogram
from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.faults import FaultPlan, assert_no_shm_leak, single_fault_plans
from repro.images import darpa_like
from repro.kernels import get as get_kernel
from repro.machines import MachineParams, load_machine
from repro.obs import MachineRecorder, WallRecorder, parse_prometheus_text
from repro.utils.errors import DegradedRunWarning, FaultError, ReproError

if TYPE_CHECKING:  # repro.service is imported only by the socket drills
    from repro.service import ServiceConfig

# -- one run path per engine --------------------------------------------------


def run_sim(workload: str, image: np.ndarray, *, p: int, params: MachineParams,
            levels: int = 256, connectivity: int = 8, grey: bool = False,
            record: bool = False, fault_plan: FaultPlan | None = None):
    """Run ``workload`` on the BDM simulator: ``(result, recorder)``.

    ``record=True`` attaches a :class:`~repro.obs.MachineRecorder` to a
    fresh machine; otherwise the recorder is ``None``.
    """
    machine = rec = None
    if record:
        machine = Machine(p, params)
        rec = MachineRecorder(machine)
    if workload == "histogram":
        if fault_plan is not None and not fault_plan.is_empty:
            raise ReproError(
                "the simulator fault model covers components only; "
                "use --engine darray --transport shmem for histogram "
                "fault injection"
            )
        res = parallel_histogram(image, levels, p, params, machine=machine)
    else:
        res = parallel_components(
            image, p, params, connectivity=connectivity, grey=grey,
            machine=machine, fault_plan=fault_plan,
        )
    return res, rec


def run_darray(workload: str, source, *, p: int, transport: str, levels: int = 256,
               connectivity: int = 8, grey: bool = False, record: bool = False,
               fault_plan: FaultPlan | None = None,
               timeout: float | None = None, max_retries: int | None = None,
               spill_dir: str | None = None, resident_tiles: int = 1):
    """Run ``workload`` on the darray engine: ``(result, recorder)``.

    ``record=True`` installs a :class:`~repro.obs.WallRecorder`;
    otherwise the recorder is ``None``.
    """
    from repro.darray import darray_components, darray_histogram

    rec = WallRecorder() if record else None
    opts = dict(
        p=p, transport=transport, recorder=rec,
        fault_plan=fault_plan, timeout=timeout, max_retries=max_retries,
        spill_dir=spill_dir, resident_tiles=resident_tiles,
    )
    if workload == "histogram":
        return darray_histogram(source, levels, **opts), rec
    return darray_components(source, connectivity=connectivity, grey=grey, **opts), rec


# -- the engine chaos matrix --------------------------------------------------


def _chaos_case(run_one, plan, baseline) -> tuple[str, list[str], bool]:
    """One plan's verdict: (outcome text, fault event names, ok?)."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, rec = run_one(plan)
    except FaultError as exc:
        # A typed, prompt failure is an acceptable outcome: the run did
        # not hang and did not return wrong labels.
        return f"typed {type(exc).__name__}", [], True
    events = [i.name for i in rec.fault_events()]
    degraded = any(isinstance(w.message, DegradedRunWarning) for w in caught)
    if not np.array_equal(result, baseline):
        return "MISMATCH vs unfaulted baseline", events, False
    return ("recovered, identical (degraded)" if degraded
            else "recovered, identical"), events, True


def chaos_matrix(image: np.ndarray, *, workload: str, engine: str, p: int,
                 machine: str = "cm5", levels: int = 256, connectivity: int = 8,
                 grey: bool = False, seed: int = 0,
                 timeout: float = 2.0, retries: int = 2,
                 list_only: bool = False) -> int:
    """Run every seeded single-fault plan; 1 if any plan failed."""
    if engine == "sim" and workload == "histogram":
        raise ReproError("the simulator fault model covers components only")
    n_rounds = 0
    if workload == "components":
        grid = ProcessorGrid(p, image.shape, strict=engine == "sim")
        n_rounds = len(merge_schedule(grid))
    plans = single_fault_plans(
        workload=workload, engine=engine, n_rounds=n_rounds, n_tasks=p, seed=seed,
    )
    print(
        f"chaos matrix: {len(plans)} single-fault plan(s) for {workload} "
        f"on the {engine} engine ({p} tasks, {n_rounds} merge rounds)"
    )
    if list_only:
        for plan in plans:
            print(f"  {plan.describe()}")
        return 0

    run = dict(p=p, levels=levels, connectivity=connectivity, grey=grey)
    if engine == "darray":
        if workload == "histogram":
            baseline = get_kernel("histogram")(image, levels)
        else:
            baseline = get_kernel("tile_label")(image, connectivity=connectivity, grey=grey)

        def run_one(plan):
            res, rec = run_darray(
                workload, image, transport="shmem", record=True, fault_plan=plan,
                timeout=timeout, max_retries=retries, **run,
            )
            return (res if workload == "histogram" else res.labels), rec
    else:
        params = load_machine(machine)
        baseline = run_sim(workload, image, params=params, **run)[0].labels

        def run_one(plan):
            res, rec = run_sim(
                workload, image, params=params, record=True, fault_plan=plan, **run
            )
            return res.labels, rec

    failures = 0
    with assert_no_shm_leak():
        for i, plan in enumerate(plans, start=1):
            outcome, events, ok = _chaos_case(run_one, plan, baseline)
            failures += not ok
            suffix = f"  [{', '.join(events)}]" if events else ""
            print(f"  [{i:>2}/{len(plans)}] {plan.describe():<32} {outcome}{suffix}")
    if failures:
        print(f"{failures} plan(s) FAILED")
        return 1
    print("all plans recovered (no hangs, no mismatches, no leaked shm segments)")
    return 0


# -- the socket harness -------------------------------------------------------


def seeded_images(seed: int, n: int) -> list[np.ndarray]:
    """``n`` seeded 48x48 8-bit images, the socket drills' workload."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=(48, 48), dtype=np.uint8) for _ in range(n)]


class SocketHarness:
    """Streams images through a service socket against the serial reference.

    Each reply to a ``histogram`` request must equal
    :func:`repro.service.ops.compute` on the same image; :attr:`served`
    and :attr:`mismatches` count the replies.  :meth:`run` gives the
    drill a private temp directory (:attr:`socket_path`, and the sockets
    of a router's ``shards`` shards, live there) inside the ``/dev/shm``
    leak check, and releases both on every path.
    """

    def __init__(self, images, *, k: int = 256, prefix: str = "repro-drill-",
                 shards: int = 0):
        from repro.service.ops import canonical_params, compute

        self.images = list(images)
        self.k = k
        self.refs = [
            compute("histogram", im, canonical_params("histogram", im, {"k": k}))
            for im in self.images
        ]
        self.prefix = prefix
        self.shards = shards
        self.dir: str | None = None
        self.served = 0
        self.mismatches = 0

    def run(self, drill: Callable[["SocketHarness"], Awaitable], *,
            grace_s: float = 1.0):
        """``asyncio.run(drill(self))`` in a fresh temp dir, leak-checked."""
        import asyncio

        from repro.service import socket_dir

        longest = f"shard-{self.shards - 1}.sock" if self.shards else "svc.sock"
        self.dir = socket_dir(self.prefix, longest)
        try:
            with assert_no_shm_leak(grace_s=grace_s):
                return asyncio.run(drill(self))
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    @property
    def socket_path(self) -> str:
        return os.path.join(self.dir, "svc.sock")

    @contextlib.asynccontextmanager
    async def serving(self, make: Callable[[str], object]):
        """Start ``make(socket_path)`` (a ``ServiceServer`` or a
        ``ShardRouter``) on :attr:`socket_path`; stop it on every path."""
        server = make(self.socket_path)
        await server.start()
        try:
            yield server
        finally:
            await server.stop()

    async def stream(self, n: int | None = None, *, wire: str = "ndjson",
                     before: Callable[[int, np.ndarray], None] | None = None) -> None:
        """Send ``n`` requests (default one per image) to
        :attr:`socket_path` on one connection, cycling over the images;
        ``before(i, image)`` runs before each."""
        from repro.service import WireClient

        async with WireClient(self.socket_path, wire=wire) as client:
            for i in range(len(self.images) if n is None else n):
                idx = i % len(self.images)
                if before is not None:
                    before(i, self.images[idx])
                out = await client.compute("histogram", self.images[idx], k=self.k)
                self.served += 1
                self.mismatches += not np.array_equal(out, self.refs[idx])


def serve_selftest(config: ServiceConfig, *, recorder: WallRecorder | None = None,
                   wire: str = "ndjson") -> int:
    """In-process round trip (batched, then a cache hit on repeat), then
    one socket round trip in ``wire`` mode; both must equal the serial
    reference."""
    from repro.service import BatchService, Client, ServiceServer

    image = darpa_like(64, 256)
    with Client(config, recorder=recorder) as client:
        first = client.submit("histogram", image, k=256)
        again = client.submit("histogram", image, k=256)
        if not np.array_equal(first, again):
            raise ReproError("selftest: cache returned a different histogram")
        labels = client.submit("components", image, grey=True)
        if labels.shape != image.shape:
            raise ReproError("selftest: bad label-map shape")
        snap = client.stats()
    cache = snap.get("cache", {})
    if config.cache and not cache.get("hits"):
        raise ReproError("selftest: repeated request did not hit the cache")

    harness = SocketHarness([image], prefix="repro-selftest-")
    if not np.array_equal(first, harness.refs[0]):
        raise ReproError("selftest: in-process histogram diverged from the serial reference")

    async def drill(h: SocketHarness) -> None:
        async with h.serving(lambda path: ServiceServer(BatchService(config), path)):
            await h.stream(wire=wire)

    harness.run(drill)
    if harness.mismatches:
        raise ReproError(f"selftest: {wire} socket round trip diverged")
    print(
        f"selftest OK: {snap['service']['completed']} request(s) served, "
        f"{snap['batcher']['batches']} batch(es), "
        f"{cache.get('hits', 0)} cache hit(s), "
        f"socket round trip via {wire} wire"
    )
    return 0


def router_selftest(*, shards: int, workers: int, wire: str, shard_args: list[str],
                    drain_deadline: float, cache: bool = True) -> int:
    """Routed-tier round trip: ``shards`` spawned shards behind one router.

    Two passes of six distinct images must match the serial reference;
    the repeat pass must be answered from the shard caches (digest
    affinity pins each image to one shard), traffic must spread across
    shards, and nothing may leak in ``/dev/shm``.
    """
    import asyncio

    from repro.service import RouterConfig, ShardRouter, request_over_socket

    harness = SocketHarness(seeded_images(0, 6), prefix="repro-router-", shards=shards)

    async def drill(h: SocketHarness) -> tuple[dict, int]:
        config = RouterConfig(
            shards=shards, runtime_dir=h.dir, workers_per_shard=workers,
            shard_args=shard_args, drain_deadline_s=drain_deadline,
        )
        async with h.serving(lambda path: ShardRouter(path, config)) as router:
            await h.stream(2 * len(h.images), wire=wire)
            cache_hits = 0
            for sid in router.shard_ids:
                reply = await asyncio.wait_for(request_over_socket(
                    router.shard_sockets[sid], {"op": "stats"}
                ), timeout=5.0)
                cache_hits += reply["result"].get("cache", {}).get("hits", 0)
            return router.snapshot(), cache_hits

    snap, cache_hits = harness.run(drill)
    if harness.mismatches:
        raise ReproError("router selftest: reply diverged from the serial reference")
    rt = snap["router"]
    shards_hit = sum(1 for s in snap["shards"].values() if s["forwards"])
    if rt["completed"] != harness.served or rt["errors"]:
        raise ReproError(
            f"router selftest: {rt['completed']}/{harness.served} request(s) "
            f"completed, {rt['errors']} error(s)"
        )
    if shards > 1 and shards_hit < 2:
        raise ReproError(
            "router selftest: all traffic landed on one shard "
            "(consistent-hash affinity is not spreading)"
        )
    if cache and cache_hits < len(harness.images):
        raise ReproError(
            f"router selftest: repeat pass hit the partitioned cache only "
            f"{cache_hits}x (expected >= {len(harness.images)})"
        )
    print(
        f"router selftest OK: {rt['completed']} request(s) over {wire} "
        f"wire across {shards_hit}/{shards} shard(s), "
        f"{cache_hits} partitioned cache hit(s), "
        f"{rt['reroutes']} reroute(s), healthy={rt['healthy']}"
    )
    return 0


def chaos_service(*, shards: int, requests: int, kill_after: int | None, seed: int,
                  levels: int, timeout: float, retries: int) -> int:
    """The service-tier chaos drill: SIGKILL one of N shards mid-load.

    A seeded repeated-image workload streams through the router over
    the ndjson wire while one shard -- the home shard of the *next*
    request, so the failure sits on the critical path -- is killed with
    SIGKILL.  Acceptance: every request completes bit-identical to the
    serial reference, the killed shard's breaker walks open ->
    half-open -> closed against the respawned process, at least one
    respawn happened, and ``/dev/shm`` ends clean.
    """
    import asyncio

    from repro.service import RouterConfig, ShardRouter, encode_array
    from repro.service.router import routing_key

    if requests < 2:
        raise ReproError("--tier service needs at least 2 requests")
    kill_at = kill_after if kill_after is not None else max(1, requests // 3)
    if not 0 < kill_at < requests:
        raise ReproError(
            f"--kill-after must be in 1..{requests - 1} "
            f"(the kill must land mid-load)"
        )
    harness = SocketHarness(
        seeded_images(seed, min(8, requests)), k=levels,
        prefix="repro-chaos-svc-", shards=shards,
    )
    shard_args = ["--timeout", str(timeout), "--retries", str(retries)]

    async def drill(h: SocketHarness) -> tuple[int, dict, dict]:
        config = RouterConfig(
            shards=shards, runtime_dir=h.dir, workers_per_shard=1, open_s=0.2,
            probe_interval_s=0.05, hedge_s=0.5, shard_args=shard_args,
        )
        async with h.serving(lambda path: ShardRouter(path, config)) as router:
            killed = []

            def kill(i: int, image: np.ndarray) -> None:
                if i != kill_at:
                    return
                # The router's affinity key for this image's ndjson request.
                line = json.dumps({"image": encode_array(image)}).encode()
                sid = router.ring.route(routing_key(line))
                killed.append(sid)
                router.kill_shard(sid)
                print(f"  [kill] SIGKILL shard {sid} before request {i}", flush=True)

            await h.stream(requests, before=kill)
            # Load is done; let the breaker finish its open -> half-open
            # -> closed walk against the respawned shard.
            breaker = router.breakers[killed[0]]
            deadline = time.monotonic() + 30.0
            while not breaker.recovered() and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            return killed[0], breaker.snapshot(), router.snapshot()

    print(
        f"service chaos: {shards} shard(s), {requests} request(s), "
        f"SIGKILL before request {kill_at} (seed {seed})"
    )
    sid, br, snap = harness.run(drill, grace_s=2.0)
    rt = snap["router"]
    print(
        f"  {harness.served}/{requests} request(s) served, "
        f"{harness.mismatches} mismatch(es) vs the serial reference"
    )
    print(
        f"  shard {sid}: breaker opened {br['opened']}x, "
        f"half-opened {br['half_opened']}x, closed {br['closed']}x "
        f"(recovered={br['recovered']}); {rt['respawns']} respawn(s), "
        f"{rt['reroutes']} reroute(s), {rt['hedges']} hedge(s)"
    )
    if (harness.served != requests or harness.mismatches or not br["recovered"]
            or rt["respawns"] < 1):
        print("service chaos FAILED")
        return 1
    print(
        "service chaos OK: kill absorbed, replies bit-identical, "
        "breaker recovered, no leaked shm segments"
    )
    return 0


# -- trace --follow -----------------------------------------------------------


def follow_trace(trace_id: str, *, socket: str | None = None,
                 path: str | None = None) -> int:
    """Print one trace's span tree from a live server or a trace file."""
    if socket:
        import asyncio

        from repro.service import request_over_socket

        resp = asyncio.run(request_over_socket(socket, {"op": "trace"}))
        if not resp.get("ok"):
            err = resp.get("error", {})
            raise ReproError(f"trace op failed: {err.get('message', err)}")
        obj, source = resp["result"], socket
    else:
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ReproError(
                f"cannot read trace file {path!r} ({exc}); "
                f"use --socket for a live server or --trace-file for an export"
            ) from None
        source = path
    events = obj.get("traceEvents", [])
    lanes = {
        (e.get("pid"), e.get("tid")): e.get("args", {}).get("name")
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    spans = [
        e for e in events
        if e.get("ph") == "X"
        and str(e.get("args", {}).get("trace", "")).startswith(trace_id)
    ]
    if not spans:
        known = sorted({
            str(e["args"]["trace"])[:8]
            for e in events
            if e.get("ph") == "X" and e.get("args", {}).get("trace")
        })
        raise ReproError(
            f"no spans for trace {trace_id!r} in {source}; "
            f"known trace(s): {', '.join(known) or 'none'}"
        )
    by_id = {e["args"]["span"]: e for e in spans if e["args"].get("span")}
    children: dict = {}
    roots = []
    for e in sorted(spans, key=lambda e: e.get("ts", 0.0)):
        parent = e["args"].get("parent")
        if parent in by_id:
            children.setdefault(parent, []).append(e)
        else:
            roots.append(e)
    t_base = min(e.get("ts", 0.0) for e in spans)
    total_ms = (max(e.get("ts", 0.0) + e.get("dur", 0.0) for e in spans) - t_base) / 1e3
    print(
        f"trace {spans[0]['args']['trace']}: {len(spans)} span(s), "
        f"{total_ms:.2f} ms ({source})"
    )

    def _print(e, prefix: str, last: bool) -> None:
        lane = lanes.get((e.get("pid"), e.get("tid")), "")
        extra = f"  links={len(e['args']['links'])}" if e["args"].get("links") else ""
        if e["args"].get("coalesced_onto"):
            extra += f"  coalesced_onto={e['args']['coalesced_onto']}"
        branch = "`- " if last else "|- "
        print(
            f"{prefix}{branch}{e['name']}  [{lane}]  "
            f"{e.get('dur', 0.0) / 1e3:.2f} ms @ "
            f"{(e.get('ts', 0.0) - t_base) / 1e3:+.2f} ms{extra}"
        )
        kids = children.get(e["args"].get("span"), [])
        for i, kid in enumerate(kids):
            _print(kid, prefix + ("   " if last else "|  "), i == len(kids) - 1)

    for i, root in enumerate(roots):
        _print(root, "", i == len(roots) - 1)
    return 0


# -- top ----------------------------------------------------------------------


def _gauge_value(families: dict, name: str) -> float:
    fam = families.get(name)
    return sum(s["value"] for s in fam["samples"]) if fam else 0.0


def _render_top(snap: dict, families: dict, *, clear: bool) -> None:
    """One frame of the live dashboard from a stats + metrics sample."""
    svc = snap.get("service", {})
    adm = snap.get("admission", {})
    bat = snap.get("batcher", {})
    cache = snap.get("cache", {})
    execu = snap.get("executor", {})
    if clear:
        print("\x1b[2J\x1b[H", end="")
    print(
        f"requests {svc.get('requests', 0)}  "
        f"(ok {svc.get('completed', 0)}, err {svc.get('errors', 0)})   "
        f"in-flight {_gauge_value(families, 'repro_inflight_requests'):.0f}   "
        f"queue depth {_gauge_value(families, 'repro_queue_depth'):.0f} "
        f"(hwm {adm.get('depth_highwater', 0)})"
    )
    print(
        f"cache: hits {cache.get('hits', 0)} misses {cache.get('misses', 0)} "
        f"hit-rate {cache.get('hit_rate', 0.0) * 100:.1f}%   "
        f"coalesced {svc.get('coalesced', 0)}   "
        f"shed {adm.get('shed', 0)}   expired {adm.get('expired', 0)}"
    )
    print(
        f"batches {bat.get('batches', 0)} "
        f"(mean {bat.get('mean_batch', 0.0):.1f}, max {bat.get('max_batch', 0)})   "
        f"degraded {execu.get('degraded', 0)}   "
        f"respawns {execu.get('respawns', 0)}"
    )
    latency = snap.get("latency", {})
    if latency:
        print(f"{'latency (ms)':<16} {'count':>8} {'p50':>8} {'p95':>8} {'p99':>8}")
        for op, row in sorted(latency.items()):
            print(
                f"  {op:<14} {row['count']:>8} {row['p50_ms']:>8.2f} "
                f"{row['p95_ms']:>8.2f} {row['p99_ms']:>8.2f}"
            )


def top(socket: str, *, interval: float, count: int, no_clear: bool) -> int:
    """Render ``count`` dashboard frames (0 = until interrupted)."""
    import asyncio

    from repro.service import request_over_socket

    async def _sample() -> tuple[dict, dict]:
        stats = await request_over_socket(socket, {"op": "stats"})
        metrics = await request_over_socket(socket, {"op": "metrics"})
        for resp, what in ((stats, "stats"), (metrics, "metrics")):
            if not resp.get("ok"):
                err = resp.get("error", {})
                raise ReproError(f"{what} op failed: {err.get('message', err)}")
        return stats["result"], parse_prometheus_text(metrics["result"])

    frames = count if count > 0 else None
    i = 0
    try:
        while True:
            snap, families = asyncio.run(_sample())
            _render_top(snap, families, clear=frames != 1 and not no_clear)
            print(
                f"-- {socket}  interval {interval:g}s  "
                f"frame {i + 1}{f'/{frames}' if frames else ''}",
                flush=True,
            )
            i += 1
            if frames is not None and i >= frames:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
