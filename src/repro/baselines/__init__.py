"""Sequential engines and literature baselines.

The parallel algorithm needs a "standard sequential algorithm" for the
per-tile initialization (the paper uses breadth-first search) and for
the border graphs.  :data:`~repro.baselines.sequential.ENGINES` holds
four interchangeable engines, among them the Shiloach-Vishkin
algorithm (the classic PRAM baseline several entries of the paper's
Table 2 implement):

* ``"bfs"`` -- :func:`~repro.baselines.bfs_label.bfs_label`, row-major
  BFS, exactly the paper's Section 5.1 procedure (the ``python``
  kernel backend);
* ``"runs"`` -- :func:`~repro.baselines.run_label.run_label`,
  run-length two-pass union-find, vectorized (the ``numpy`` kernel
  backend, which every parallel engine labels its tiles with);
* ``"sv"`` -- :func:`~repro.baselines.shiloach_vishkin.shiloach_vishkin_image`,
  hook-and-shortcut CC, vectorized;
* ``"twopass"`` -- :func:`~repro.baselines.two_pass.two_pass_label`,
  the classic raster-scan two-pass labeler.

All engines share one labeling convention: a component's label is
``1 + min(row * n_cols + col)`` over its pixels (the row-major BFS seed
label), and background pixels get 0 -- so outputs are bit-identical
across engines and match the parallel algorithm's final labels.
"""

from repro.baselines.union_find import UnionFind
from repro.baselines.bfs_label import bfs_label
from repro.baselines.run_label import run_label, extract_runs
from repro.baselines.shiloach_vishkin import (
    shiloach_vishkin,
    shiloach_vishkin_image,
)
from repro.baselines.two_pass import two_pass_label
from repro.baselines.bond_label import bond_label, bond_label_bfs, swendsen_wang_bonds, wolff_cluster
from repro.baselines.stripe_dc import stripe_components, StripeResult
from repro.baselines.sequential import (
    sequential_histogram,
    sequential_histogram_loop,
    sequential_components,
    count_components,
    ENGINES,
)

__all__ = [
    "UnionFind",
    "bfs_label",
    "run_label",
    "extract_runs",
    "shiloach_vishkin",
    "shiloach_vishkin_image",
    "two_pass_label",
    "bond_label",
    "bond_label_bfs",
    "swendsen_wang_bonds",
    "wolff_cluster",
    "stripe_components",
    "StripeResult",
    "sequential_histogram",
    "sequential_histogram_loop",
    "sequential_components",
    "count_components",
    "ENGINES",
]
