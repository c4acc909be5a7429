"""Real-runtime backends: wall-clock of serial vs multiprocessing.

Measures the actual (not simulated) execution of the histogram and CC
implementations: the serial kernels against the distributed array's
``shmem`` transport (one image and one label array in one memfd per
job, mapped task by task by the process's warm fork pool, which the
first process row forks).
On a multi-core host the process backend should approach core-count
speedups for large images;
on a single-core host (like some CI containers) it documents the
pool's overhead instead -- the host's core count is recorded with the
artifact so readers can interpret the numbers.
"""

import os
import time

from benchmarks.conftest import emit
from benchmarks.emit import emit_json
from repro.baselines import run_label
from repro.darray import darray_components, darray_histogram
from repro.images import darpa_like
from repro.kernels import get as get_kernel

N = 512
K = 256


def _wall(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _measure():
    img = darpa_like(N, K)
    rows = {}
    shmem = dict(transport="shmem")
    rows["histogram serial"] = _wall(get_kernel("histogram"), img, K)
    rows["histogram process x2"] = _wall(darray_histogram, img, K, p=2, **shmem)
    rows["histogram process x4"] = _wall(darray_histogram, img, K, p=4, **shmem)
    rows["components serial"] = _wall(get_kernel("tile_label"), img, grey=True)
    rows["components process x2"] = _wall(darray_components, img, grey=True, p=2, **shmem)
    rows["components process x4"] = _wall(darray_components, img, grey=True, p=4, **shmem)
    return rows


def test_runtime_backends(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    lines = [f"Runtime backends on this host ({cores} cores), {N}x{N}, wall time"]
    for name, t in rows.items():
        lines.append(f"  {name:<26} {t * 1e3:9.2f} ms")
    if cores == 1:
        lines.append("  NOTE: single-core host; process backend cannot speed up here.")
    emit("runtime_backends", "\n".join(lines))
    emit_json(
        "runtime_backends",
        params={"n": N, "k": K, "clock": "wall"},
        rows=[{"name": name, "wall_s": t} for name, t in rows.items()],
        notes="process backend cannot speed up on a single-core host"
        if cores == 1
        else "",
    )

    # Correctness regardless of backend was asserted in tests; here just
    # sanity-check the measurements exist and are positive.
    assert all(t > 0 for t in rows.values())
    if cores >= 4:
        # Expect at least some speedup for the embarrassingly parallel tally.
        assert rows["histogram process x4"] < rows["histogram serial"] * 0.9


def test_components_serial_baseline(benchmark):
    """pytest-benchmark timing of the vectorized sequential CC engine."""
    img = darpa_like(N, K)
    labels = benchmark(run_label, img, grey=True)
    assert labels.shape == (N, N)
