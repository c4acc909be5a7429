"""The ledger's workloads: parameters, seeded inputs, oracle digests,
and the host calibration that scales the end-to-end timings.

Each workload stresses a different layer (see README.md for why each
exists).  ``--seed`` changes only the generated inputs: a cyclic shift
of the pattern images, the ``darpa_like`` seeds, and the start offsets
of the service request streams.  Expected outputs are stored as sha256
digests computed once per run from the scipy oracle in
``tests/conftest.py``, outside the timed window; comparing digests lets
the out-of-core workload verify labels without holding them in RAM.
"""

from __future__ import annotations

import hashlib
import pathlib
import statistics
import time

import numpy as np

#: Connectivity of every labeling in the ledger.
CONNECTIVITY = 8

#: Iterations of the calibration loop (about 5 ms of pure Python).
CAL_ITERS = 100_000

#: The reference host's :func:`calibrate` reading (about what a 2-CPU
#: x86 VM with CPython 3.11 reads when idle).  End-to-end timings are
#: reported as if taken there: raw time * CAL_REF_S / the median
#: calibration of the same run, taken between samples while the
#: program under test is idle.
CAL_REF_S = 0.005

#: Grey levels of the DARPA-like scenes and bins of the histogram op.
LEVELS = 256

#: Rows hashed per digest block (bounds the bytes materialized at once).
_DIGEST_ROWS = 128

#: ``n`` is the image side; ``smoke_n`` replaces it under ``--smoke``.
CC_WORKLOADS = {
    "cc-binary-local": dict(
        transport="local", image="pattern4", n=2048, smoke_n=256, p=16, grey=False
    ),
    "cc-grey-mmap": dict(
        transport="mmap", image="darpa", n=2048, smoke_n=256, p=16, grey=True
    ),
    "cc-binary-shmem": dict(
        transport="shmem", image="pattern4", n=1024, smoke_n=128, p=64, grey=False
    ),
}

#: Stream A: grey ``components`` over the shmem wire; its results exceed
#: the shard cache bound, so every request computes.  Stream B:
#: ``histogram`` over ndjson; after one cycle every request is a hit.
SVC_WORKLOADS = {
    "svc-mixed": dict(
        cc_n=256, cc_images=32, hist_n=128, hist_images=8,
        smoke=dict(cc_n=32, cc_images=4, hist_n=16, hist_images=2, cache_bytes=6144),
        shards=2, workers=1, cache_bytes=262144,
    ),
}

WORKLOADS = [*CC_WORKLOADS, *SVC_WORKLOADS]


class LedgerError(Exception):
    """A workload could not be run or measured to completion."""


#: Per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move.  Names under ``svc.``/``router.`` are measured on service
#: workloads, names under ``kernels.``/``core.``/``darray.``/``dispatch.``
#: on ``cc-*`` workloads (0 elsewhere); the rest on every workload.
LAYER_TARGETS = {
    "kernels.tile_label.self_ms": [
        ("op_p50_ms", "cc-binary-local"), ("op_p50_ms", "svc-mixed")],
    "kernels.tile_label.calls": [("op_p50_ms", "cc-binary-local")],
    "kernels.union.self_ms": [("op_p50_ms", "cc-grey-mmap")],
    "kernels.union.pairs": [("op_p50_ms", "cc-grey-mmap")],
    "kernels.relabel.self_ms": [("op_p50_ms", "cc-binary-local")],
    "kernels.border_extract.self_ms": [("op_p50_ms", "cc-binary-local")],
    "core.solve.self_ms": [("op_p50_ms", "cc-binary-shmem")],
    "core.solve.calls": [("op_p50_ms", "cc-binary-shmem")],
    "core.hooks.self_ms": [("op_p50_ms", "cc-grey-mmap")],
    "darray.open_ms": [("setup_s", "cc-binary-shmem"), ("op_p50_ms", "cc-binary-shmem")],
    "darray.close_ms": [("setup_s", "cc-binary-shmem"), ("op_p50_ms", "cc-binary-shmem")],
    "darray.label.self_ms": [("op_p50_ms", "cc-binary-local")],
    "darray.border.self_ms": [("op_p50_ms", "cc-binary-shmem")],
    "darray.publish.self_ms": [("op_p50_ms", "cc-binary-shmem")],
    "darray.finalize.self_ms": [("op_p50_ms", "cc-grey-mmap")],
    "darray.gather.self_ms": [("op_p50_ms", "cc-grey-mmap")],
    "darray.count_ms": [("op_p50_ms", "cc-grey-mmap")],
    "dispatch.round_trips": [("op_p50_ms", "cc-binary-shmem")],
    "dispatch.wait_ms": [("op_p50_ms", "cc-binary-shmem")],
    "darray.border_bytes": [("op_p50_ms", "cc-binary-shmem")],
    "darray.change_bytes": [("op_p50_ms", "cc-binary-shmem")],
    "darray.spill_reads": [("op_p50_ms", "cc-grey-mmap"), ("peak_rss_mib", "cc-grey-mmap")],
    "darray.spill_writes": [("op_p50_ms", "cc-grey-mmap")],
    "darray.resident_highwater": [("peak_rss_mib", "cc-grey-mmap")],
    "residual_ms": [("op_p50_ms", "cc-binary-local")],
    "trace_overhead_pct": [("op_p50_ms", "cc-binary-local")],
    "shm.tracker_errors": [("op_p50_ms", "cc-binary-shmem")],
    "svc.decode.ndjson.mean_ms": [("mpx_per_s", "svc-mixed")],
    "svc.decode.shmem.mean_ms": [("op_p50_ms", "svc-mixed")],
    "svc.encode.ndjson.mean_ms": [("mpx_per_s", "svc-mixed")],
    "svc.encode.shmem.mean_ms": [("op_p50_ms", "svc-mixed")],
    "svc.cache.lookup.mean_ms": [("mpx_per_s", "svc-mixed")],
    "svc.cache.hit_ratio": [("mpx_per_s", "svc-mixed")],
    "svc.queue_wait.mean_ms": [("op_p50_ms", "svc-mixed")],
    "svc.batch_assembly.mean_ms": [("op_p50_ms", "svc-mixed")],
    "svc.batch_size.mean": [("op_p50_ms", "svc-mixed")],
    "svc.exec.components.mean_ms": [("op_p50_ms", "svc-mixed")],
    "svc.server.components.mean_ms": [("op_p50_ms", "svc-mixed")],
    "svc.server.histogram.mean_ms": [("mpx_per_s", "svc-mixed")],
    "svc.router.mean_ms": [("mpx_per_s", "svc-mixed")],
    "svc.router_hop.histogram.mean_ms": [("mpx_per_s", "svc-mixed")],
    "svc.coalesced": [("mpx_per_s", "svc-mixed")],
    "svc.shed": [("mpx_per_s", "svc-mixed")],
    "svc.expired": [("mpx_per_s", "svc-mixed")],
    "router.reroutes": [("mpx_per_s", "svc-mixed")],
    "router.hedges": [("mpx_per_s", "svc-mixed")],
    "svc.req_per_s": [("mpx_per_s", "svc-mixed")],
    "svc.cc.p90_ms": [("op_p50_ms", "svc-mixed")],
    "svc.hist.p50_ms": [("mpx_per_s", "svc-mixed")],
    "svc.hist.p99_ms": [("mpx_per_s", "svc-mixed")],
}


def layer_kind(name: str) -> str:
    """Which workload kind measures a per-layer metric: cc, svc or all."""
    head = name.split(".", 1)[0]
    if head in ("svc", "router"):
        return "svc"
    if head in ("kernels", "core", "darray", "dispatch"):
        return "cc"
    return "all"


def kind_of(workload: str) -> str:
    return "cc" if workload in CC_WORKLOADS else "svc"


def calibrate() -> float:
    """Seconds this host takes, right now, for a fixed pure-Python loop.

    The median of three runs of a loop that uses nothing of the program
    under test.  On a machine shared with other tenants the CPU time a
    process gets drifts by tens of percent over minutes; this loop
    drifts with it, so dividing by it leaves the program's own cost.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ITERS):
            acc += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(arr) -> str:
    """sha256 of an array's shape and int64 values, hashed in row blocks.

    Streams a ``numpy.memmap`` block by block, so verifying an
    out-of-core result never materializes it.
    """
    h = hashlib.sha256(repr(tuple(arr.shape)).encode())
    for lo in range(0, max(arr.shape[0], 1), _DIGEST_ROWS):
        block = np.ascontiguousarray(arr[lo : lo + _DIGEST_ROWS], dtype="<i8")
        h.update(block.tobytes())
    return h.hexdigest()


def make_inputs(workload: str, seed: int, smoke: bool, work: pathlib.Path) -> dict:
    """Generate one workload's inputs under ``work``; return the child spec.

    The spec carries file paths, the oracle digests, and every
    parameter the workload subprocess needs.
    """
    from repro.images import binary_test_image, darpa_like
    from repro.images.io import write_pgm
    from tests.conftest import oracle_binary_labels, oracle_grey_labels

    rng = np.random.default_rng(seed)
    if workload in CC_WORKLOADS:
        cfg = CC_WORKLOADS[workload]
        n = cfg["smoke_n"] if smoke else cfg["n"]
        if cfg["image"] == "pattern4":
            shift = tuple(int(s) for s in rng.integers(0, n, size=2))
            image = np.roll(binary_test_image(4, n), shift, axis=(0, 1))
            expected = digest(oracle_binary_labels(image, CONNECTIVITY))
        else:
            image = darpa_like(n, LEVELS, seed=seed)
            expected = digest(oracle_grey_labels(image, CONNECTIVITY))
        if cfg["transport"] == "mmap":
            path = work / "image.pgm"
            write_pgm(path, image)
        else:
            path = work / "image.npy"
            np.save(path, image)
        return dict(
            kind="cc", image=str(path), n=n, p=cfg["p"],
            transport=cfg["transport"], grey=cfg["grey"], expected=expected,
        )
    cfg = dict(SVC_WORKLOADS[workload])
    if smoke:
        cfg.update(cfg["smoke"])
    cc_images = np.stack([
        darpa_like(cfg["cc_n"], LEVELS, seed=1000 * seed + i)
        for i in range(cfg["cc_images"])
    ]).astype(np.uint8)
    hist_images = np.stack([
        darpa_like(cfg["hist_n"], LEVELS, seed=1000 * seed + 500 + i)
        for i in range(cfg["hist_images"])
    ]).astype(np.uint8)
    np.save(work / "cc_images.npy", cc_images)
    np.save(work / "hist_images.npy", hist_images)
    return dict(
        kind="svc",
        cc_images=str(work / "cc_images.npy"),
        hist_images=str(work / "hist_images.npy"),
        cc_expected=[digest(oracle_grey_labels(im, CONNECTIVITY)) for im in cc_images],
        hist_expected=[
            digest(np.bincount(im.ravel(), minlength=LEVELS)) for im in hist_images
        ],
        cc_offset=int(rng.integers(cfg["cc_images"])),
        hist_offset=int(rng.integers(cfg["hist_images"])),
        shards=cfg["shards"], workers=cfg["workers"], cache_bytes=cfg["cache_bytes"],
    )
