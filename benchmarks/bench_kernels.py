"""Kernel backends: python reference vs vectorized numpy, wall-clock.

Times the registered :mod:`repro.kernels` implementations of the two
hot local steps -- ``tile_label`` (per-tile connected components) and
``histogram`` (local tally) -- on a pattern image and the DARPA-like
grey scene at several sizes, and writes a ``repro-bench/v1`` artifact
to ``benchmarks/results/kernels.json``.  Both backends are asserted
bit-identical on every input before timing, so the artifact never
records a speedup of a wrong answer.

Each numpy ``tile_label`` row also splits the call into its four
phases (see :mod:`repro.baselines.run_label`): ``runs``
(``extract_runs``), ``pairs`` (``_adjacent_run_pairs``), ``union``
(``UnionFind`` over the run pairs, through ``roots()``) and ``paint``,
the rest of the full call.  The bench times the first three by calling
those functions itself, so the kernel carries no timers.

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
from repro.baselines.run_label import _adjacent_run_pairs, extract_runs  # noqa: E402
from repro.baselines.union_find import UnionFind  # noqa: E402
from repro.images import binary_test_image, darpa_like  # noqa: E402
from repro.kernels import BACKENDS, get as get_kernel  # noqa: E402

PATTERN = 4  # the paper's checkerboard-of-crosses: many small components
K = 256
CONNECTIVITY = 8

FULL_SIZES = (64, 128, 256, 512, 2048)
SMOKE_SIZES = (32, 64)

#: The numpy ``tile_label`` phases, in call order.
PHASES = ("runs", "pairs", "union", "paint")


def _wall(fn, *args, repeats: int = 3, **kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def _phases(image: np.ndarray, grey: bool, full_s: float, repeats: int) -> dict:
    """Best-of times of the numpy ``tile_label`` phases, plus their work.

    ``paint_s`` is ``full_s`` (the whole call) minus the other three, so
    it also holds the input checks and the label-array allocation.
    """
    dilate = int(CONNECTIVITY == 8)
    runs = extract_runs(image, grey=grey)
    a, b = _adjacent_run_pairs(runs, dilate, grey)

    def union():
        uf = UnionFind(len(runs))
        uf.union_edges(a, b)
        return uf.roots()

    times = {
        "runs": _wall(extract_runs, image, grey=grey, repeats=repeats),
        "pairs": _wall(_adjacent_run_pairs, runs, dilate, grey, repeats=repeats),
        "union": _wall(union, repeats=repeats),
    }
    times["paint"] = full_s - sum(times.values())
    return {
        **{f"{phase}_s": times[phase] for phase in PHASES},
        "n_runs": len(runs),
        "n_pairs": len(a),
    }


def _sweep(sizes: tuple[int, ...], repeats: int) -> tuple[list[dict], list[dict]]:
    cases = (
        ("tile_label", f"pattern{PATTERN}"),
        ("tile_label", "darpa"),
        ("histogram", "darpa"),
    )
    times: dict[str, list[float]] = {
        f"{kern} {image} {backend}": [] for kern, image in cases for backend in BACKENDS
    }
    rows: list[dict] = []
    for n in sizes:
        images = {f"pattern{PATTERN}": binary_test_image(PATTERN, n), "darpa": darpa_like(n, K)}
        for kern, image in cases:
            grey = image == "darpa"
            if kern == "tile_label":
                args, kwargs = (images[image],), {"connectivity": CONNECTIVITY, "grey": grey}
            else:
                args, kwargs = (images[image], K), {}
            outputs = {b: get_kernel(kern, backend=b)(*args, **kwargs) for b in BACKENDS}
            reference = outputs["python"]
            for backend, out in outputs.items():
                assert np.array_equal(out, reference), (kern, image, backend, n)
            walls = {
                b: _wall(get_kernel(kern, backend=b), *args, repeats=repeats, **kwargs)
                for b in BACKENDS
            }
            for backend, t in walls.items():
                times[f"{kern} {image} {backend}"].append(t)
            row = {
                "kernel": kern,
                "image": image,
                "n": n,
                **{f"{b}_s": walls[b] for b in BACKENDS},
                "speedup": walls["python"] / walls["numpy"],
            }
            if kern == "tile_label":
                row.update(_phases(images[image], grey, walls["numpy"], repeats))
            rows.append(row)
    series = [{"label": label, "x": list(sizes), "y": ys} for label, ys in times.items()]
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
            "connectivity": CONNECTIVITY,
            "sizes": list(sizes),
            "repeats": repeats,
            "clock": "wall",
            "phases": list(PHASES),
        },
        series=series,
        rows=rows,
        notes=(
            "speedup = python_s / numpy_s; backends asserted bit-identical first. "
            "tile_label rows split numpy_s into runs_s, pairs_s and union_s (each "
            "best of repeats, timed by calling the phase functions directly) and "
            "paint_s = numpy_s minus those three"
        ),
    )
    validate_bench_json(json.loads(path.read_text()))

    for row in rows:
        line = (
            f"  {row['kernel']:<11} {row['image']:<9} n={row['n']:<5d}"
            f"python {row['python_s'] * 1e3:9.2f} ms   "
            f"numpy {row['numpy_s'] * 1e3:8.2f} ms   "
            f"speedup {row['speedup']:6.1f}x"
        )
        if row["kernel"] == "tile_label":
            line += "   " + "  ".join(
                f"{phase} {row[f'{phase}_s'] * 1e3:.2f}" for phase in PHASES
            )
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
