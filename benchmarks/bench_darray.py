"""DistributedArray transports: throughput, residency, border traffic.

Measures connected-components wall time through the ``local`` and
``mmap`` transports at large image sizes, recording the out-of-core
working set (resident-table highwater, spill transfers) and the border
traffic, which must equal its exact figure ``16 * 2 * (rows * (w - 1) +
cols * (v - 1))`` bytes -- the measured evidence that the paper's
border-only communication structure is what makes the out-of-core
placement practical.

Run as a script (CI runs the smoke variant)::

    PYTHONPATH=src python benchmarks/bench_darray.py           # full
    PYTHONPATH=src python benchmarks/bench_darray.py --smoke   # tiny, fast
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import tempfile
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from benchmarks.emit import emit_json, validate_bench_json  # noqa: E402
from repro.darray import darray_components  # noqa: E402
from repro.images import binary_test_image  # noqa: E402
from repro.images.io import write_pgm  # noqa: E402

FULL_SIZES = (2048, 4096)
SMOKE_SIZES = (256, 512)
PATTERN = 4
P = 16  # 4x4 grid; resident budget 1 -> 16x image/working-set ratio
BUDGET = 1


def border_exact_bytes(grid) -> int:
    """Border bytes when every internal tile edge is fetched once.

    Each merge fetches both sides of the edges it joins, at 16 bytes per
    pixel (int64 label + int64 color), and each internal edge of the
    ``v x w`` grid is joined in exactly one round.
    """
    return 16 * 2 * (grid.rows * (grid.w - 1) + grid.cols * (grid.v - 1))


def border_paper_bytes(n: int, p: int) -> int:
    """The paper's ``16 * 4n * log p`` bound on the same traffic.

    On a square grid the exact figure is ``(sqrt(p) - 1) / log2(p)`` of
    it: under the bound up to ``p = 32``, over it above (7/6 at p=64).
    """
    return 16 * 4 * n * int(math.log2(p))


def _run(source, transport: str, **opts):
    t0 = time.perf_counter()
    res = darray_components(source, p=P, transport=transport, **opts)
    wall = time.perf_counter() - t0
    return wall, res


def _sweep(sizes, repeats: int):
    rows = []
    local_y, mmap_y = [], []
    with tempfile.TemporaryDirectory(prefix="bench-darray-") as tmp:
        for n in sizes:
            img = binary_test_image(PATTERN, n)
            path = f"{tmp}/img-{n}.pgm"
            write_pgm(path, img)
            walls = {"local": [], "mmap": []}
            stats = {}
            grids = {}
            for _ in range(repeats):
                w, res = _run(img, "local")
                walls["local"].append(w)
                stats["local"], grids["local"] = res.stats, res.grid
                w, res = _run(path, "mmap", resident_tiles=BUDGET)
                walls["mmap"].append(w)
                stats["mmap"], grids["mmap"] = res.stats, res.grid
            pixels = n * n
            for transport in ("local", "mmap"):
                wall = min(walls[transport])
                st = stats[transport]
                rows.append(
                    {
                        "transport": transport,
                        "n": n,
                        "wall_s": wall,
                        "mpixels_per_s": pixels / wall / 1e6,
                        "border_bytes": st.border_bytes,
                        "border_exact_bytes": border_exact_bytes(grids[transport]),
                        "border_bound_bytes": border_paper_bytes(n, P),
                        "change_bytes": st.change_bytes,
                        "spill_reads": st.spill_reads,
                        "spill_writes": st.spill_writes,
                        "resident_highwater": st.resident_highwater,
                        "resident_budget": BUDGET if transport == "mmap" else None,
                    }
                )
            local_y.append(min(walls["local"]))
            mmap_y.append(min(walls["mmap"]))
    series = [
        {"label": "local", "x": list(sizes), "y": local_y},
        {"label": f"mmap (budget {BUDGET})", "x": list(sizes), "y": mmap_y},
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
    repeats = 1 if opts.smoke else 2
    series, rows = _sweep(sizes, repeats)

    name = "darray_smoke" if opts.smoke else "darray"
    path = emit_json(
        name,
        params={
            "pattern": PATTERN,
            "p": P,
            "resident_tiles": BUDGET,
            "sizes": list(sizes),
            "repeats": repeats,
            "clock": "wall",
        },
        series=series,
        rows=rows,
        notes="mmap labels tiles through a 1-table working set (16x "
        "smaller than the image); border_bytes must equal "
        "border_exact_bytes, 16*2*(rows*(w-1) + cols*(v-1)), and stay "
        "under border_bound_bytes, the paper's 16*4n*log p, which holds "
        "up to p=32",
    )
    validate_bench_json(json.loads(path.read_text()))

    for row in rows:
        budget = row["resident_budget"]
        print(
            f"  {row['transport']:<6} n={row['n']:<5d} "
            f"{row['wall_s'] * 1e3:9.1f} ms  "
            f"{row['mpixels_per_s']:7.2f} Mpx/s  "
            f"border {row['border_bytes'] / 1024:9.1f} KiB "
            f"(exact {row['border_exact_bytes'] / 1024:9.1f}, "
            f"paper bound {row['border_bound_bytes'] / 1024:9.1f} KiB)  "
            f"highwater {row['resident_highwater']}"
            + (f"/{budget}" if budget else "")
        )
        assert row["border_bytes"] == row["border_exact_bytes"], row
        if P <= 32:  # where the paper's bound holds (border_paper_bytes)
            assert row["border_bytes"] <= row["border_bound_bytes"], row
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
