"""Kernel backends: python reference vs vectorized numpy, wall-clock.

Times the registered :mod:`repro.kernels` implementations of the two
hot local steps -- ``tile_label`` (per-tile connected components) and
``histogram`` (local tally) -- on a pattern image and the DARPA-like
grey scene at several sizes, and writes a ``repro-bench/v1`` artifact
to ``benchmarks/results/kernels.json``.  Both backends are asserted
bit-identical on every input before timing, so the artifact never
records a speedup of a wrong answer.

Run as a script (CI runs the smoke variant)::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke  # tiny, fast
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np  # noqa: E402

from benchmarks.emit import emit_json, validate_bench_json  # noqa: E402
from repro.images import binary_test_image, darpa_like  # noqa: E402
from repro.kernels import available_backends, get as get_kernel  # noqa: E402

PATTERN = 4  # the paper's checkerboard-of-crosses: many small components
K = 256

FULL_SIZES = (64, 128, 256, 512)
SMOKE_SIZES = (32, 64)


def _wall(fn, *args, repeats: int = 3, **kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def _sweep(sizes: tuple[int, ...], repeats: int) -> tuple[list[dict], list[dict]]:
    backends = available_backends()
    times: dict[str, list[float]] = {
        f"{kern} {backend}": [] for kern in ("tile_label", "histogram") for backend in backends
    }
    rows: list[dict] = []
    for n in sizes:
        binary = binary_test_image(PATTERN, n)
        grey = darpa_like(n, K)
        per_kernel: dict[str, dict[str, float]] = {}
        for kern, args, kwargs in (
            ("tile_label", (binary,), {"connectivity": 8}),
            ("histogram", (grey, K), {}),
        ):
            outputs = {b: get_kernel(kern, backend=b)(*args, **kwargs) for b in backends}
            reference = outputs["python"]
            for backend, out in outputs.items():
                assert np.array_equal(out, reference), (kern, backend, n)
            per_kernel[kern] = {
                b: _wall(get_kernel(kern, backend=b), *args, repeats=repeats, **kwargs)
                for b in backends
            }
            for backend, t in per_kernel[kern].items():
                times[f"{kern} {backend}"].append(t)
            rows.append(
                {
                    "kernel": kern,
                    "n": n,
                    **{f"{b}_s": per_kernel[kern][b] for b in backends},
                    "speedup": per_kernel[kern]["python"] / per_kernel[kern]["numpy"],
                }
            )
    series = [
        {"label": label, "x": list(sizes), "y": ys} for label, ys in times.items()
    ]
    return series, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, single repeat, separate artifact (CI sanity check)",
    )
    opts = parser.parse_args(argv)

    sizes = SMOKE_SIZES if opts.smoke else FULL_SIZES
    repeats = 1 if opts.smoke else 3
    series, rows = _sweep(sizes, repeats)

    name = "kernels_smoke" if opts.smoke else "kernels"
    path = emit_json(
        name,
        params={
            "pattern": PATTERN,
            "k": K,
            "sizes": list(sizes),
            "repeats": repeats,
            "clock": "wall",
        },
        series=series,
        rows=rows,
        notes="speedup = python_s / numpy_s; backends asserted bit-identical first",
    )
    validate_bench_json(json.loads(path.read_text()))

    for row in rows:
        print(
            f"  {row['kernel']:<11} n={row['n']:<4d} "
            f"python {row['python_s'] * 1e3:9.2f} ms   "
            f"numpy {row['numpy_s'] * 1e3:8.2f} ms   "
            f"speedup {row['speedup']:6.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
