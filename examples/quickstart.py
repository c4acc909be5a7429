#!/usr/bin/env python
"""Quickstart: histogram and connected components in five minutes.

Runs the paper's two primitives on one of the Figure-1 test images,
both on the simulated CM-5 (with the full cost report) and on a real
process pool over shared-memory tiles, and checks them against the sequential
baselines.

Usage:
    python examples/quickstart.py [image-index 1..9] [size]
"""

import sys

import numpy as np

import repro
from repro.baselines import count_components
from repro.images import binary_test_image
from repro.darray import darray_components
from repro.machines import CM5


def main() -> None:
    index = int(sys.argv[1]) if len(sys.argv) > 1 else 9   # dual spiral
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 256

    image = binary_test_image(index, n)
    print(f"test image {index} at {n}x{n}: {int(image.sum())} foreground pixels")

    # --- histogramming on the simulated CM-5 ---------------------------
    hist = repro.parallel_histogram(image, k=2, p=16, machine_params=CM5)
    assert hist.histogram.sum() == n * n
    print(
        f"histogram (p=16, simulated CM-5): background={hist.histogram[0]}, "
        f"foreground={hist.histogram[1]}, simulated time "
        f"{hist.elapsed_s * 1e3:.2f} ms"
    )

    # --- connected components on the simulated CM-5 --------------------
    cc = repro.parallel_components(image, p=16, machine_params=CM5)
    print(
        f"components  (p=16, simulated CM-5): {cc.n_components} components, "
        f"simulated time {cc.elapsed_s * 1e3:.2f} ms"
    )
    print("phase breakdown (top 5):")
    breakdown = sorted(cc.report.breakdown().items(), key=lambda kv: -kv[1])
    for name, t in breakdown[:5]:
        print(f"  {name:<16} {t * 1e3:8.3f} ms")

    # --- the same computation, truly parallel ---------------------------
    labels = darray_components(image, p=4, transport="shmem").labels
    assert np.array_equal(labels, cc.labels)
    seq = repro.sequential_components(image)
    assert np.array_equal(labels, seq)
    print(
        f"process-parallel run agrees with the simulator and the sequential "
        f"baseline: {count_components(labels)} components."
    )


if __name__ == "__main__":
    main()
