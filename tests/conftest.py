"""Shared fixtures and oracles for the test suite.

scipy.ndimage and networkx are used ONLY here, as independent oracles
for connected components -- the library itself never imports them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy import ndimage

# Pinned Hypothesis profiles: ``derandomize=True`` makes every run
# (locally and in CI) explore the same example sequence, so the
# differential kernel suite is a deterministic gate rather than a coin
# flip.  ``repro-ci`` digs deeper; select it with
# ``HYPOTHESIS_PROFILE=repro-ci`` (the CI kernels job does).
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "repro-ci",
    derandomize=True,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))

STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
STRUCT_8 = np.ones((3, 3), dtype=bool)


def oracle_binary_labels(image: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """scipy-based binary CC, renamed to our min-pixel-index convention."""
    struct = STRUCT_8 if connectivity == 8 else STRUCT_4
    raw, _ = ndimage.label(image != 0, structure=struct)
    return canonicalize(raw)


def oracle_grey_labels(image: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """scipy-based grey CC: label each grey level separately, then rename."""
    struct = STRUCT_8 if connectivity == 8 else STRUCT_4
    out = np.zeros(image.shape, dtype=np.int64)
    next_id = 1
    for level in np.unique(image):
        if level == 0:
            continue
        raw, count = ndimage.label(image == level, structure=struct)
        mask = raw > 0
        out[mask] = raw[mask] + next_id
        next_id += count + 1
    return canonicalize(out)


def canonicalize(labels: np.ndarray) -> np.ndarray:
    """Rename labels to 1 + min row-major pixel index per component."""
    labels = np.asarray(labels)
    rows, cols = labels.shape
    flat = labels.ravel()
    out = np.zeros_like(flat, dtype=np.int64)
    fg = flat != 0
    if fg.any():
        idx = np.arange(flat.size, dtype=np.int64)
        # min index per raw label
        uniq, inv = np.unique(flat[fg], return_inverse=True)
        mins = np.full(len(uniq), flat.size, dtype=np.int64)
        np.minimum.at(mins, inv, idx[fg])
        out[fg] = mins[inv] + 1
    return out.reshape(rows, cols)


@pytest.fixture(autouse=True)
def _no_leaked_sink():
    """Fail any test that leaves a ``repro.obs.trace`` sink installed.

    The sink is process-wide, so a leaked one would record every later
    test's spans; it is uninstalled either way.
    """
    from repro.obs import trace

    yield
    leaked = trace.set_sink(None)
    assert leaked is None, f"test left a trace sink installed: {leaked!r}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260706)


@pytest.fixture
def small_binary(rng) -> np.ndarray:
    """A 32x32 random binary image at near-percolation density."""
    return (rng.random((32, 32)) < 0.55).astype(np.int32)


@pytest.fixture
def small_grey(rng) -> np.ndarray:
    """A 32x32 random 8-level grey image."""
    return rng.integers(0, 8, size=(32, 32)).astype(np.int32)
