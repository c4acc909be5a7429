"""Sequential reference algorithms and the engine registry.

``sequential_components`` is the single-processor counterpart of the
parallel algorithm -- the denominator of the paper's efficiency metric
("an algorithm with efficiency near one runs approximately p times
faster on p processors than ... on a single processor").
"""

from __future__ import annotations

import numpy as np

from repro.baselines.bfs_label import bfs_label
from repro.baselines.run_label import run_label
from repro.baselines.shiloach_vishkin import shiloach_vishkin_image
from repro.baselines.two_pass import two_pass_label
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_power_of_two

#: Interchangeable labeling engines (identical outputs).
ENGINES = {
    "bfs": bfs_label,
    "runs": run_label,
    "sv": shiloach_vishkin_image,
    "twopass": two_pass_label,
}


def sequential_histogram(image: np.ndarray, k: int) -> np.ndarray:
    """Histogram ``H[0..k-1]`` of the image (vectorized tally).

    ``H[i]`` counts the pixels with grey level ``i``; the paper's
    correctness criterion ``sum(H) == n^2`` holds by construction.
    Registered as-is as the numpy ``histogram`` kernel.
    """
    image = check_image(image, square=False)
    check_power_of_two("k", k)
    if image.max(initial=0) >= k:
        raise ValidationError(f"image has grey levels >= k={k}")
    return np.bincount(image.ravel(), minlength=k).astype(np.int64)


def sequential_histogram_loop(image: np.ndarray, k: int) -> np.ndarray:
    """Pure-Python tally loop: the python ``histogram`` kernel, the
    reference for the vectorized version."""
    image = check_image(image, square=False)
    check_power_of_two("k", k)
    hist = np.zeros(k, dtype=np.int64)
    for value in image.ravel().tolist():
        if value >= k:
            raise ValidationError(f"grey level {value} >= k={k}")
        hist[value] += 1
    return hist


def sequential_components(
    image: np.ndarray,
    *,
    connectivity: int = 8,
    grey: bool = False,
    engine: str = "runs",
) -> np.ndarray:
    """Label connected components with the selected sequential engine.

    All engines produce identical labels: a component is labeled with
    the 1-based row-major index of its first pixel, background is 0.
    """
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}; known: {sorted(ENGINES)}")
    return ENGINES[engine](image, connectivity=connectivity, grey=grey)


def count_components(labels: np.ndarray) -> int:
    """Number of distinct non-background labels in a label image."""
    labels = np.asarray(labels)
    nonzero = labels[labels != 0]
    return int(np.unique(nonzero).size)
