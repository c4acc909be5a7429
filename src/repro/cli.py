"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``    write one of the Figure-1 test patterns (or the
                DARPA-like scene) as a PBM/PGM file.
``histogram``   histogram a PGM/PBM image with the parallel algorithm
                on a simulated machine; optionally equalize.
``components``  label connected components; print statistics, optionally
                write the label map / an ASCII rendering.
``machines``    list the available machine models.
``check``       run the static-analysis engine over the repo: the
                ASYNC/RES/ERR/COST/OBS rule families, with
                ``--select``/``--ignore``, JSON/SARIF output, a findings
                baseline, and an optional dynamic smoke-run of the
                paper's algorithms under the shadow-memory race detector.
``trace``       run a workload under the observability layer and export
                a Chrome trace-event JSON (open in Perfetto /
                ``chrome://tracing``) plus a metrics snapshot, on either
                the simulated machine or the distributed array's
                shared-memory process pool; ``--follow TRACE_ID`` instead prints one
                request's cross-process span tree from a live server's
                ``trace`` control op or an exported trace file.
``chaos``       run the seeded single-fault chaos matrix against a
                workload and report each plan's recovery outcome
                (``histogram``/``components`` also accept a
                ``--fault-plan`` JSON for one specific plan).
``serve``       run the async batch-serving layer on a unix socket:
                micro-batched dispatch onto a shared worker pool,
                content-addressed result caching, bounded queues with
                load shedding, per-request tracing (``--trace-out``),
                and a Prometheus-style metrics plane
                (``--metrics-interval`` writes a JSON time series;
                ``--selftest`` runs an in-process round-trip and exits).
``top``         live terminal dashboard over a running server: request
                rates, queue depth, cache hit-rate, and per-op
                p50/p95/p99 latency, refreshed from the ``stats`` and
                ``metrics`` control ops.

This module only parses arguments and dispatches.  What a command runs
beyond one library call lives in :mod:`repro.drills`, imported lazily:
the plain ``repro serve`` path never loads it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.images import binary_test_image, darpa_like
from repro.images.io import read_pnm, write_pbm, write_pgm
from repro.machines import MACHINES, load_machine
from repro.utils.errors import ReproError


def _package_version() -> str:
    """The installed distribution's version, else the in-tree fallback."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _load_image(args) -> np.ndarray:
    if args.pattern is not None:
        if args.pattern == 0:
            return darpa_like(args.size, 256)
        return binary_test_image(args.pattern, args.size)
    if not args.image:
        raise ReproError("provide an image file or --pattern")
    return read_pnm(args.image)


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("image", nargs="?", help="PGM/PBM input file")
    sub.add_argument(
        "--pattern",
        type=int,
        choices=range(0, 10),
        help="generate input: 1-9 = Figure 1 test images, 0 = DARPA-like scene",
    )
    sub.add_argument("--size", type=int, default=512, help="pattern size (default 512)")
    sub.add_argument("-p", "--processors", type=int, default=16)
    sub.add_argument(
        "--machine",
        default="cm5",
        help=f"machine model ({', '.join(sorted(MACHINES))}) or a JSON spec file",
    )
    sub.add_argument(
        "--report", action="store_true", help="print the per-phase cost breakdown"
    )
    sub.add_argument(
        "--trace-out",
        metavar="OUT.json",
        help="write a Chrome trace-event JSON of the run (Perfetto-loadable)",
    )
    sub.add_argument(
        "--metrics-out",
        metavar="OUT.json",
        help="write a metrics snapshot (per-phase counters/gauges) as JSON",
    )


def _add_darray_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--engine",
        choices=("sim", "darray"),
        default="sim",
        help="execution engine: sim = BDM cost simulator (default), "
        "darray = DistributedArray over a pluggable transport "
        "(--transport shmem runs it process-parallel)",
    )
    sub.add_argument(
        "--transport",
        choices=("local", "shmem", "mmap"),
        default="local",
        help="darray tile placement: local = in-process, shmem = "
        "shared-memory shards on a supervised pool, mmap = out-of-core "
        "spill files over a memory-mapped PGM (--engine darray only)",
    )
    sub.add_argument(
        "--resident-tiles",
        type=int,
        default=1,
        metavar="N",
        help="out-of-core working-set budget: max tile run tables "
        "resident at once (mmap transport, default 1)",
    )
    sub.add_argument(
        "--spill-dir",
        metavar="DIR",
        help="out-of-core spill directory (mmap transport; default: a "
        "private temp dir removed on exit)",
    )


def _darray_run(args) -> dict:
    """The image source and options of a ``--engine darray`` run.

    A file path is handed through untouched so the ``mmap`` transport
    can map it instead of reading it; generated patterns come back as
    arrays (``mmap`` stages them to its spill directory).
    """
    source = args.image if args.pattern is None and args.image else _load_image(args)
    return dict(
        source=source, p=args.processors, transport=args.transport,
        spill_dir=args.spill_dir, resident_tiles=args.resident_tiles,
    )


def cmd_generate(args) -> int:
    if args.pattern == 0:
        img = darpa_like(args.size, 256)
        write_pgm(args.output, img)
    else:
        img = binary_test_image(args.pattern, args.size)
        if args.output.endswith(".pgm"):
            write_pgm(args.output, img)
        else:
            write_pbm(args.output, img)
    print(f"wrote {args.output} ({args.size}x{args.size})")
    return 0


def _load_fault_plan(args):
    """Load and announce the ``--fault-plan`` JSON, if given."""
    path = getattr(args, "fault_plan", None)
    if not path:
        return None
    from repro.faults import FaultPlan

    plan = FaultPlan.load(path)
    print(f"fault plan: {plan.describe()} (seed {plan.seed})")
    return plan


def _print_fault_events(rec) -> None:
    """Summarize recorded ``fault:*`` instants (wall or sim recorder)."""
    events = rec.fault_events()
    if events:
        print(f"fault events: {', '.join(i.name for i in events)}")
    else:
        print("fault events: none")


def _write_exports(rec, trace_out: str | None, metrics_out: str | None) -> None:
    """The one writer of ``--trace-out`` and ``--metrics-out``.

    A wall-clock recorder is drained first and exports
    :func:`~repro.obs.wall_metrics`; a simulator recorder exports
    :func:`~repro.obs.sim_metrics`.
    """
    if rec is None:
        return
    from repro.obs import (
        WallRecorder,
        sim_metrics,
        wall_metrics,
        write_chrome_trace,
        write_metrics,
    )

    wall = isinstance(rec, WallRecorder)
    if wall:
        rec.drain()
    if trace_out:
        write_chrome_trace(trace_out, rec.log)
        print(
            f"trace written to {trace_out} "
            f"({len(rec.log.spans)} spans; open in Perfetto)",
            flush=True,
        )
    if metrics_out:
        snap = wall_metrics(rec.log, workers=len(rec.worker_lanes)) if wall else sim_metrics(rec)
        write_metrics(metrics_out, snap)
        print(f"metrics written to {metrics_out}", flush=True)


def cmd_histogram(args) -> int:
    from repro.drills import run_darray, run_sim

    params = load_machine(args.machine)
    plan = _load_fault_plan(args)
    record = bool(args.trace_out or args.metrics_out)
    image = None
    if args.engine == "darray":
        hist, rec = run_darray(
            "histogram", levels=args.levels, record=record or plan is not None,
            fault_plan=plan, **_darray_run(args),
        )
        print(
            f"histogram k={args.levels} via darray/{args.transport}, "
            f"p={args.processors}"
        )
        if plan is not None:
            _print_fault_events(rec)
    else:
        image = _load_image(args)
        res, rec = run_sim(
            "histogram", image, p=args.processors, params=params,
            levels=args.levels, record=record, fault_plan=plan,
        )
        hist = res.histogram
        print(
            f"histogram of {image.shape[0]}x{image.shape[1]} image, k={args.levels}, "
            f"p={args.processors} on simulated {params.name}"
        )
        print(f"simulated time: {res.elapsed_s * 1e3:.3f} ms")
        if args.report:
            print(res.report.summary())
    _write_exports(rec, args.trace_out, args.metrics_out)
    occupied = np.flatnonzero(hist)
    print(f"occupied levels: {len(occupied)}/{args.levels}")
    top = np.argsort(hist)[::-1][:8]
    for level in top:
        if hist[level]:
            bar = "#" * max(1, int(40 * hist[level] / hist.max()))
            print(f"  level {level:>4}: {hist[level]:>9}  {bar}")
    if args.equalize:
        from repro.core.equalization import parallel_equalize

        if image is None:
            image = _load_image(args)
        eq = parallel_equalize(image, args.levels, args.processors, params)
        write_pgm(args.equalize, eq.image)
        print(f"equalized image written to {args.equalize}")
    return 0


def _emit_label_map(args, labels: np.ndarray) -> None:
    """The ``--ascii`` rendering and the ``-o`` compacted PGM label map."""
    if args.ascii:
        from repro.utils.render import ascii_labels

        print(ascii_labels(labels, width=args.ascii))
    if args.output:
        from repro.analysis.regions import compact_labels

        compacted = compact_labels(labels)
        n_regions = int(compacted.max(initial=0))
        if n_regions > 255:
            raise ReproError(
                f"label map has {n_regions} components, which does not fit an "
                f"8-bit PGM (max 255); use a smaller image or coarser levels"
            )
        write_pgm(args.output, compacted)
        print(f"label map written to {args.output} (compacted labels)")


def cmd_components(args) -> int:
    from repro.drills import run_darray, run_sim

    record = bool(args.trace_out or args.metrics_out)
    kind = f"({args.connectivity}-connectivity, {'grey' if args.grey else 'binary'})"
    if args.engine == "darray":
        plan = _load_fault_plan(args)
        res, rec = run_darray(
            "components", connectivity=args.connectivity, grey=args.grey,
            record=record or plan is not None, fault_plan=plan, **_darray_run(args),
        )
        labels, stats = res.labels, res.stats
        print(
            f"darray/{args.transport}: {labels.shape[0]}x{labels.shape[1]}, "
            f"p={args.processors} ({res.grid.v}x{res.grid.w} tiles)"
        )
        print(f"{res.n_components} components {kind}")
        print(
            f"darray stats: border {stats.border_bytes} B, "
            f"changes {stats.change_bytes} B, "
            f"spills {stats.spill_reads}r/{stats.spill_writes}w, "
            f"resident highwater {stats.resident_highwater}"
        )
        if plan is not None:
            _print_fault_events(rec)
        _write_exports(rec, args.trace_out, args.metrics_out)
        _emit_label_map(args, np.asarray(labels))
        return 0
    from repro.analysis.regions import region_table

    image = _load_image(args)
    params = load_machine(args.machine)
    plan = _load_fault_plan(args)
    res, rec = run_sim(
        "components", image, p=args.processors, params=params,
        connectivity=args.connectivity, grey=args.grey,
        record=record or plan is not None, fault_plan=plan,
    )
    print(
        f"simulated {params.name}, p={args.processors}: "
        f"{res.elapsed_s * 1e3:.3f} ms"
    )
    if plan is not None:
        nf = sum(s.n_failovers for s in res.step_stats)
        print(f"merge-round failovers: {nf}")
        _print_fault_events(rec)
    if args.report:
        print(res.report.summary(top=8))
    _write_exports(rec, args.trace_out, args.metrics_out)
    table = region_table(res.labels, image)
    print(f"{len(table)} components {kind}")
    for rank, idx in enumerate(np.argsort(table.areas)[::-1][:5], start=1):
        r0, c0, r1, c1 = table.bbox[idx]
        print(
            f"  #{rank}: area {table.areas[idx]:>8}, level {table.colors[idx]:>4}, "
            f"bbox ({r0},{c0})-({r1},{c1})"
        )
    _emit_label_map(args, res.labels)
    return 0


def cmd_verify(args) -> int:
    from repro.analysis.verification import VerificationError, verify_labels

    image = read_pnm(args.image)
    labels = read_pnm(args.labels)
    try:
        # Label maps written by this CLI are compacted, so verify the
        # partition up to renaming.
        verify_labels(
            image,
            labels.astype("int64"),
            connectivity=args.connectivity,
            grey=args.grey,
            reference_engine=args.reference,
            canonical=False,
        )
    except VerificationError as exc:
        print(f"FAILED: {exc}")
        return 1
    print(
        f"OK: {args.labels} is a correct "
        f"{args.connectivity}-connectivity {'grey' if args.grey else 'binary'} "
        f"labeling of {args.image}"
    )
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import assemble_report

    text = assemble_report(args.results)
    if args.output:
        import pathlib as _pathlib

        _pathlib.Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_check(args) -> int:
    from repro.checker.engine import run_check

    return run_check(
        args.paths, select=args.select, ignore=args.ignore, fmt=args.format,
        output=args.output, baseline=args.baseline, no_baseline=args.no_baseline,
        update_baseline=args.update_baseline, list_rules=args.list_rules,
        dynamic=args.dynamic, tool_version=_package_version(),
    )


def cmd_trace(args) -> int:
    from repro import drills

    if args.follow:
        return drills.follow_trace(
            args.follow, socket=args.socket, path=args.trace_file or args.trace_out
        )
    image = _load_image(args)
    run = dict(
        p=args.processors, levels=args.levels, connectivity=args.connectivity,
        grey=args.grey, record=True,
    )
    if args.engine == "sim":
        from repro.obs import comm_heatmap

        params = load_machine(args.machine)
        _res, rec = drills.run_sim(args.workload, image, params=params, **run)
        report = rec.machine.report()
        print(
            f"traced {args.workload} on simulated {params.name}, "
            f"p={args.processors}: {len(report.phases)} phases, "
            f"{report.words_moved} words moved, "
            f"{report.elapsed_s * 1e3:.3f} ms simulated"
        )
        if args.report:
            print(report.summary(top=8))
        if args.heatmap:
            print(comm_heatmap(rec.comm_matrix))
    else:
        _res, rec = drills.run_darray(args.workload, image, transport="shmem", **run)
        print(
            f"traced {args.workload} on darray/shmem, p={args.processors} "
            f"({len(rec.worker_lanes)} workers): "
            f"{rec.log.end_s * 1e3:.2f} ms wall, {len(rec.log.spans)} spans"
        )
    _write_exports(rec, args.trace_out, args.metrics_out)
    return 0


def cmd_chaos(args) -> int:
    from repro import drills

    if args.tier == "service":
        return drills.chaos_service(
            shards=args.shards, requests=args.requests, kill_after=args.kill_after,
            seed=args.seed, levels=args.levels,
            timeout=args.timeout, retries=args.retries,
        )
    return drills.chaos_matrix(
        _load_image(args), workload=args.workload, engine=args.engine,
        p=args.processors, machine=args.machine, levels=args.levels,
        connectivity=args.connectivity, grey=args.grey,
        seed=args.seed, timeout=args.timeout, retries=args.retries,
        list_only=args.list,
    )


def _shard_passthrough(args) -> list[str]:
    """The ``repro serve`` argv forwarded to every spawned shard."""
    argv = [
        "--batch-size", str(args.batch_size),
        "--max-delay", str(args.max_delay),
        "--queue-depth", str(args.queue_depth),
        "--cache-entries", str(args.cache_entries),
        "--cache-bytes", str(args.cache_bytes),
        "--drain-deadline", str(args.drain_deadline),
    ]
    if args.no_cache:
        argv.append("--no-cache")
    if args.timeout is not None:
        argv.extend(["--timeout", str(args.timeout)])
    if args.retries is not None:
        argv.extend(["--retries", str(args.retries)])
    return argv


def _serve_router(args) -> int:
    """``repro serve --shards N``: spawn N shards, route on --socket."""
    import asyncio

    from repro.service import RouterConfig, ShardRouter

    config = RouterConfig(
        shards=args.shards,
        workers_per_shard=args.workers,
        shard_args=_shard_passthrough(args),
        drain_deadline_s=args.drain_deadline,
    )

    async def _run() -> None:
        router = ShardRouter(args.socket, config)
        await router.start()
        print(
            f"routing on {args.socket}: {args.shards} shard(s) x "
            f"{args.workers} worker(s), vnodes={config.vnodes}, "
            f"hedge after {config.hedge_s * 1e3:.0f}ms",
            flush=True,
        )
        try:
            await router.serve_until_shutdown()
        finally:
            rt = router.snapshot()["router"]
            print(
                f"routed {rt['completed']} request(s); "
                f"{rt['reroutes']} reroute(s), {rt['hedges']} hedge(s), "
                f"{rt['respawns']} respawn(s)",
                flush=True,
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", flush=True)
    return 0



def cmd_serve(args) -> int:
    import asyncio
    import contextlib

    from repro.obs import WallRecorder
    from repro.service import ServiceConfig, ServiceServer

    if args.shards > 1:
        dropped = [
            flag for flag, value in (
                ("--trace-out", args.trace_out),
                ("--metrics-out", args.metrics_out),
                ("--metrics-interval", args.metrics_interval),
                ("--fault-plan", args.fault_plan),
            ) if value
        ]
        if dropped:
            raise ReproError(
                f"--shards {args.shards} does not support {', '.join(dropped)}: "
                f"the router forwards none of them to its shards; serve one "
                f"shard (--shards 1) to use them"
            )
    plan = _load_fault_plan(args)
    recorder = (
        WallRecorder(source="repro-serve")
        if (args.metrics_out or args.trace_out or plan is not None)
        else None
    )
    config = ServiceConfig(
        workers=args.workers,
        max_batch=args.batch_size,
        max_delay_s=args.max_delay,
        queue_depth=args.queue_depth,
        cache=not args.no_cache,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        timeout_s=args.timeout,
        retries=args.retries,
        fault_plan=plan,
        drain_deadline_s=args.drain_deadline,
    )
    if args.shards > 1:
        if args.selftest:
            from repro.drills import router_selftest

            return router_selftest(
                shards=args.shards, workers=args.workers, wire=args.wire,
                shard_args=_shard_passthrough(args),
                drain_deadline=args.drain_deadline, cache=not args.no_cache,
            )
        if not args.socket:
            raise ReproError("provide --socket PATH (or use --selftest)")
        return _serve_router(args)
    if args.selftest:
        from repro.drills import serve_selftest

        code = serve_selftest(config, recorder=recorder, wire=args.wire)
        _write_exports(recorder, args.trace_out, args.metrics_out)
        return code
    if not args.socket:
        raise ReproError("provide --socket PATH (or use --selftest)")

    async def _serve() -> None:
        from repro.service import BatchService

        service = BatchService(config, recorder=recorder)
        server = ServiceServer(service, args.socket, shard_id=args.shard_id)
        await server.start()
        print(
            f"serving on {args.socket} "
            f"({config.workers} worker(s), "
            f"batch<={config.max_batch}, window={config.max_delay_s * 1e3:.1f}ms, "
            f"queue depth {config.queue_depth}, "
            f"cache={'on' if config.cache else 'off'})",
            flush=True,
        )
        samples: list[dict] = []
        writer_task = None
        if args.metrics_interval:
            from repro.obs import write_timeseries

            async def _write_series() -> None:
                while True:
                    await asyncio.sleep(args.metrics_interval)
                    samples.append(service.metrics.snapshot())
                    write_timeseries(args.metrics_series, samples)

            writer_task = asyncio.ensure_future(_write_series())
        try:
            await server.serve_until_shutdown()
        finally:
            if writer_task is not None:
                writer_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await writer_task
            snap = service.snapshot()
            print(
                f"served {snap['service']['completed']} request(s) in "
                f"{snap.get('batcher', {}).get('batches', 0)} batch(es); "
                f"shed {snap.get('admission', {}).get('shed', 0)}",
                flush=True,
            )
            if args.metrics_interval:
                from repro.obs import write_timeseries

                samples.append(service.metrics.snapshot())
                write_timeseries(args.metrics_series, samples)
                print(
                    f"metrics time series ({len(samples)} sample(s)) "
                    f"written to {args.metrics_series}",
                    flush=True,
                )
            _write_exports(recorder, args.trace_out, args.metrics_out)
            if recorder is not None and args.trace_out:
                print(
                    f"follow one request with 'repro trace --follow "
                    f"<trace_id> --trace-file {args.trace_out}'",
                    flush=True,
                )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", flush=True)
    return 0


def cmd_top(args) -> int:
    from repro.drills import top

    return top(
        args.socket, interval=args.interval, count=args.count, no_clear=args.no_clear
    )


def cmd_machines(args) -> int:
    print(f"{'key':<9} {'name':<16} {'latency':>9} {'bandwidth':>12} {'op':>8}")
    for key in sorted(MACHINES):
        m = MACHINES[key]
        print(
            f"{key:<9} {m.name:<16} {m.latency_s * 1e6:>7.1f}us "
            f"{m.bandwidth_Bps / 1e6:>9.2f}MB/s {m.op_ns:>6.0f}ns"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel image histogramming and connected components "
        "(Bader & JaJa, PPoPP 1995 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a test image")
    gen.add_argument("--pattern", type=int, choices=range(0, 10), required=True)
    gen.add_argument("--size", type=int, default=512)
    gen.add_argument("output")
    gen.set_defaults(func=cmd_generate)

    hist = subs.add_parser("histogram", help="parallel histogramming")
    _add_input_args(hist)
    hist.add_argument("-k", "--levels", type=int, default=256)
    hist.add_argument("--equalize", metavar="OUT.pgm", help="write equalized image")
    _add_darray_args(hist)
    hist.add_argument(
        "--fault-plan",
        metavar="PLAN.json",
        help="inject faults from a repro-faults/v1 plan at the darray:hist "
        "site (requires --engine darray --transport shmem)",
    )
    hist.set_defaults(func=cmd_histogram)

    comp = subs.add_parser("components", help="parallel connected components")
    _add_input_args(comp)
    comp.add_argument("--grey", action="store_true", help="grey-scale CC (Section 6)")
    comp.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    _add_darray_args(comp)
    comp.add_argument(
        "--fault-plan",
        metavar="PLAN.json",
        help="inject faults from a repro-faults/v1 plan (darray:* sites with "
        "--engine darray --transport shmem, sim:merge "
        "shadow-manager failover with the default sim engine)",
    )
    comp.add_argument("--ascii", type=int, metavar="WIDTH", help="print an ASCII label map")
    comp.add_argument("-o", "--output", metavar="OUT.pgm", help="write the label map")
    comp.set_defaults(func=cmd_components)

    ver = subs.add_parser("verify", help="verify a label map against an image")
    ver.add_argument("image", help="PGM/PBM input image")
    ver.add_argument("labels", help="PGM label map to verify")
    ver.add_argument("--grey", action="store_true")
    ver.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    ver.add_argument("--reference", default="sv", help="independent engine for the canonical labeling")
    ver.set_defaults(func=cmd_verify)

    rep = subs.add_parser("report", help="assemble the reproduction report")
    rep.add_argument(
        "--results", default="benchmarks/results", help="artifact directory"
    )
    rep.add_argument("-o", "--output", help="write the report to a file")
    rep.set_defaults(func=cmd_report)

    chk = subs.add_parser(
        "check",
        help="run the static-analysis engine (ASYNC/RES/ERR/COST/OBS) "
        "and optionally smoke-run the race detector",
    )
    chk.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: src and examples, else .)",
    )
    chk.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated families or rule IDs to report "
        "(e.g. ASYNC,RES or ASYNC102,RES201)",
    )
    chk.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated families or rule IDs to suppress",
    )
    chk.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    chk.add_argument(
        "-o",
        "--output",
        help="write json/sarif output to a file instead of stdout",
    )
    chk.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of grandfathered findings "
        "(default: .repro-checker-baseline.json when it exists)",
    )
    chk.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    chk.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit",
    )
    chk.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    chk.add_argument(
        "--dynamic",
        action="store_true",
        help="also run transpose, broadcast, parallel_histogram and "
        "parallel_components under the shadow-memory race detector",
    )
    chk.set_defaults(func=cmd_check)

    trc = subs.add_parser(
        "trace",
        help="run a workload under the observability layer and export "
        "a Chrome trace + metrics snapshot",
    )
    _add_input_args(trc)
    trc.add_argument(
        "--workload",
        choices=("components", "histogram"),
        default="components",
        help="workload to trace (default components)",
    )
    trc.add_argument(
        "--engine",
        choices=("sim", "darray"),
        default="sim",
        help="sim = BDM simulator (simulated clock), "
        "darray = shared-memory shards on a process pool (wall clock)",
    )
    trc.add_argument("-k", "--levels", type=int, default=256)
    trc.add_argument("--grey", action="store_true", help="grey-scale CC workload")
    trc.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    trc.add_argument(
        "--heatmap",
        action="store_true",
        help="print the (server, mover) communication matrix (sim engine)",
    )
    trc.add_argument(
        "--follow",
        metavar="TRACE_ID",
        help="print one request's span tree (id or unique prefix) instead of "
        "running a workload; reads spans from --socket or --trace-file",
    )
    trc.add_argument(
        "--socket", metavar="PATH",
        help="with --follow: fetch the span log from a live server's "
        "'trace' control op",
    )
    trc.add_argument(
        "--trace-file", metavar="TRACE.json",
        help="with --follow: read spans from a Chrome-trace export "
        "(default: the --trace-out path)",
    )
    trc.set_defaults(func=cmd_trace, trace_out="trace.json")

    cha = subs.add_parser(
        "chaos",
        help="run the seeded single-fault chaos matrix and report recovery",
    )
    cha.add_argument("image", nargs="?", help="PGM/PBM input file")
    cha.add_argument(
        "--pattern",
        type=int,
        choices=range(0, 10),
        help="generate input: 1-9 = Figure 1 test images, 0 = DARPA-like scene",
    )
    cha.add_argument("--size", type=int, default=128, help="pattern size (default 128)")
    cha.add_argument("-p", "--processors", type=int, default=16)
    cha.add_argument(
        "--workload", choices=("components", "histogram"), default="components"
    )
    cha.add_argument(
        "--engine",
        choices=("darray", "sim"),
        default="darray",
        help="darray = shared-memory shards on a supervised process pool "
        "(darray:* sites), sim = BDM simulator (shadow-manager failover; "
        "components only)",
    )
    cha.add_argument(
        "--machine",
        default="cm5",
        help=f"machine model for --engine sim ({', '.join(sorted(MACHINES))})",
    )
    cha.add_argument("-k", "--levels", type=int, default=256)
    cha.add_argument("--grey", action="store_true")
    cha.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    cha.add_argument(
        "--tier",
        choices=("engine", "service"),
        default="engine",
        help="engine = seeded single-fault matrix inside one run (default); "
        "service = SIGKILL a live shard process mid-load behind the router "
        "and require bit-identical replies, breaker recovery, a respawn, "
        "and zero /dev/shm leaks",
    )
    cha.add_argument(
        "--shards", type=int, default=3,
        help="shard count for --tier service (default 3)",
    )
    cha.add_argument(
        "--requests", type=int, default=30,
        help="requests to drive for --tier service (default 30)",
    )
    cha.add_argument(
        "--kill-after", type=int, default=None,
        help="kill the target shard before this request index "
        "(default: a third of the way in)",
    )
    cha.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    cha.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-task deadline in seconds (default 2.0; crash/hang plans "
        "recover via deadline expiry, so this bounds each plan's cost)",
    )
    cha.add_argument(
        "--retries", type=int, default=2, help="retry budget per task (default 2)"
    )
    cha.add_argument(
        "--list", action="store_true", help="print the matrix and exit without running"
    )
    cha.set_defaults(func=cmd_chaos)

    srv = subs.add_parser(
        "serve",
        help="run the async batch-serving layer on a unix socket",
    )
    srv.add_argument(
        "--socket", metavar="PATH", help="unix-domain socket path to listen on"
    )
    srv.add_argument(
        "--selftest",
        action="store_true",
        help="serve a short in-process workload (batched + cached) and exit; "
        "with --shards N, spin a routed shard tier and check affinity instead",
    )
    srv.add_argument("--workers", type=int, default=2, help="pool workers (default 2)")
    srv.add_argument(
        "--shards", type=int, default=1,
        help="front N shard processes with a consistent-hash router on "
        "--socket (default 1 = a single plain server, no router); N > 1 "
        "rejects --trace-out, --metrics-out, --metrics-interval and --fault-plan",
    )
    srv.add_argument(
        "--shard-id", type=int, default=None,
        help="identity of this server inside a sharded tier (set by the "
        "router when it spawns shards; echoed in ping/stats replies)",
    )
    srv.add_argument(
        "--drain-deadline", type=float, default=5.0,
        help="seconds graceful shutdown waits for in-flight requests "
        "before cancelling them (default 5.0)",
    )
    srv.add_argument(
        "--batch-size", type=int, default=8,
        help="max requests coalesced per dispatch (default 8)",
    )
    srv.add_argument(
        "--max-delay", type=float, default=0.002,
        help="batching window in seconds (default 0.002)",
    )
    srv.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission bound; beyond it requests are shed (default 64)",
    )
    srv.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    srv.add_argument(
        "--cache-entries", type=int, default=256,
        help="result-cache entry bound (default 256)",
    )
    srv.add_argument(
        "--cache-bytes", type=int, default=64 << 20,
        help="result-cache byte bound (default 64 MiB)",
    )
    srv.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds (default $REPRO_TASK_TIMEOUT or 300)",
    )
    srv.add_argument(
        "--retries", type=int, default=None,
        help="per-task retry budget (default $REPRO_TASK_RETRIES or 2)",
    )
    srv.add_argument(
        "--wire", choices=("ndjson", "shmem"), default="ndjson",
        help="wire mode for the --selftest socket round trip: ndjson = "
        "base64 pixels inline, shmem = zero-copy shared-memory descriptors",
    )
    srv.add_argument(
        "--fault-plan",
        metavar="PLAN.json",
        help="inject faults from a repro-faults/v1 plan (site svc:exec) so "
        "degraded serving can be exercised",
    )
    srv.add_argument(
        "--metrics-out",
        metavar="OUT.json",
        help="trace the service and write the traced spans' per-name "
        "aggregates (a repro-obs-metrics/v1 snapshot) on shutdown",
    )
    srv.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        help="export the request span tree as Chrome trace-event JSON on "
        "shutdown (also enables tracing for --selftest)",
    )
    srv.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="append a metrics snapshot to --metrics-series every SECONDS "
        "(default 0 = off)",
    )
    srv.add_argument(
        "--metrics-series",
        metavar="OUT.json",
        default="metrics_series.json",
        help="JSON time-series file for --metrics-interval "
        "(default metrics_series.json)",
    )
    srv.set_defaults(func=cmd_serve)

    top = subs.add_parser(
        "top",
        help="live terminal dashboard over a running server's stats + metrics",
    )
    top.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix-domain socket of the server to watch",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    top.add_argument(
        "--count", type=int, default=0,
        help="number of frames to render, 0 = until interrupted (default 0)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (pipe-friendly)",
    )
    top.set_defaults(func=cmd_top)

    mach = subs.add_parser("machines", help="list machine models")
    mach.set_defaults(func=cmd_machines)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
