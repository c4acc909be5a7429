"""Tests for the processor grid and tile geometry (Section 3)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.tiles import ProcessorGrid, edge_indices, perimeter_indices
from repro.utils.errors import ConfigurationError


class TestGridShape:
    @pytest.mark.parametrize(
        "p,v,w",
        [(1, 1, 1), (2, 1, 2), (4, 2, 2), (8, 2, 4), (16, 4, 4), (32, 4, 8), (64, 8, 8), (128, 8, 16)],
    )
    def test_paper_grid_shapes(self, p, v, w):
        """v = 2^floor(d/2), w = 2^ceil(d/2) -- wider than tall for odd d."""
        g = ProcessorGrid(p, 256)
        assert (g.v, g.w) == (v, w)

    def test_tile_dims(self):
        g = ProcessorGrid(32, 512)
        assert (g.q, g.r) == (128, 64)  # the paper's Figure 4 example

    def test_rejects_non_power_p(self):
        with pytest.raises(ConfigurationError):
            ProcessorGrid(6, 64)

    def test_rejects_indivisible_n(self):
        with pytest.raises(ConfigurationError):
            ProcessorGrid(8, 30)  # w = 4 does not divide 30

    def test_rejects_p_above_pixels(self):
        with pytest.raises(ConfigurationError):
            ProcessorGrid(16, 2)


class TestCoordinates:
    def test_row_major_assignment(self):
        g = ProcessorGrid(8, 64)  # 2 x 4 grid
        assert g.coords(0) == (0, 0)
        assert g.coords(3) == (0, 3)
        assert g.coords(4) == (1, 0)
        assert g.coords(7) == (1, 3)

    def test_pid_at_inverse(self):
        g = ProcessorGrid(32, 512)
        for pid in range(32):
            assert g.pid_at(*g.coords(pid)) == pid

    def test_bounds_checked(self):
        g = ProcessorGrid(4, 64)
        with pytest.raises(ConfigurationError):
            g.coords(4)
        with pytest.raises(ConfigurationError):
            g.pid_at(2, 0)

    def test_tile_origin(self):
        g = ProcessorGrid(32, 512)
        assert g.tile_origin(0) == (0, 0)
        assert g.tile_origin(9) == (128, 64)  # grid (1,1): I*q, J*r


class TestScatterGather:
    def test_roundtrip(self):
        g = ProcessorGrid(8, 32)
        img = np.arange(32 * 32, dtype=np.int32).reshape(32, 32)
        tiles = g.scatter(img)
        assert len(tiles) == 8
        assert tiles[0].shape == (g.q, g.r)
        assert np.array_equal(g.gather(tiles), img)

    def test_tiles_partition_image(self):
        g = ProcessorGrid(16, 64)
        img = np.ones((64, 64), dtype=np.int32)
        tiles = g.scatter(img)
        assert sum(t.sum() for t in tiles) == img.sum()

    def test_scatter_checks_size(self):
        g = ProcessorGrid(4, 64)
        with pytest.raises(ConfigurationError):
            g.scatter(np.ones((32, 32), dtype=np.int32))

    def test_gather_checks_tile_shape(self):
        g = ProcessorGrid(4, 64)
        bad = [np.ones((4, 4), dtype=np.int32)] * 4
        with pytest.raises(ConfigurationError):
            g.gather(bad)

    def test_gather_checks_count(self):
        g = ProcessorGrid(4, 64)
        with pytest.raises(ConfigurationError):
            g.gather([np.ones((32, 32), dtype=np.int32)] * 3)

    def test_scatter_copies(self):
        g = ProcessorGrid(4, 8)
        img = np.zeros((8, 8), dtype=np.int32)
        tiles = g.scatter(img)
        tiles[0][:] = 9
        assert img.sum() == 0


class TestEdges:
    def test_edge_contents(self):
        # 3x4 tile, flat indices 0..11
        assert np.array_equal(edge_indices(3, 4, "top"), [0, 1, 2, 3])
        assert np.array_equal(edge_indices(3, 4, "bottom"), [8, 9, 10, 11])
        assert np.array_equal(edge_indices(3, 4, "left"), [0, 4, 8])
        assert np.array_equal(edge_indices(3, 4, "right"), [3, 7, 11])

    def test_unknown_edge(self):
        with pytest.raises(ConfigurationError):
            edge_indices(3, 4, "diagonal")

    def test_perimeter_count(self):
        per = perimeter_indices(5, 7)
        assert len(per) == 2 * (5 + 7) - 4

    def test_perimeter_degenerate_row(self):
        assert np.array_equal(perimeter_indices(1, 4), [0, 1, 2, 3])

    def test_perimeter_degenerate_col(self):
        assert np.array_equal(perimeter_indices(4, 1), [0, 1, 2, 3])

    def test_perimeter_sorted_unique(self):
        per = perimeter_indices(6, 6)
        assert np.array_equal(per, np.unique(per))

    def test_perimeter_is_boundary_of_mask(self):
        q, r = 6, 9
        mask = np.zeros((q, r), dtype=bool)
        mask.ravel()[perimeter_indices(q, r)] = True
        expected = np.zeros((q, r), dtype=bool)
        expected[0, :] = expected[-1, :] = True
        expected[:, 0] = expected[:, -1] = True
        assert np.array_equal(mask, expected)

    def test_perimeter_cached_read_only(self):
        per = perimeter_indices(6, 9)
        assert perimeter_indices(6, 9) is per
        assert not per.flags.writeable
        with pytest.raises(ValueError):
            per[0] = 1

    def test_darray_run_does_not_import_numpy_ma(self):
        """``np.unique`` imports ``numpy.ma`` lazily, which costs a fresh
        pool worker tens of milliseconds on its first task; a labeling
        run in a fresh interpreter must not pull it in."""
        code = (
            "import sys\n"
            "from repro.darray import darray_components\n"
            "from repro.images import binary_test_image\n"
            "darray_components(binary_test_image(4, 32), p=4, transport='local')\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        env = dict(os.environ)
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestRectangularGrids:
    def test_rect_construction(self):
        g = ProcessorGrid(8, (32, 64))  # 2x4 grid
        assert (g.rows, g.cols) == (32, 64)
        assert (g.q, g.r) == (16, 16)

    def test_n_alias_square_only(self):
        assert ProcessorGrid(4, (16, 16)).n == 16
        with pytest.raises(ConfigurationError):
            _ = ProcessorGrid(4, (16, 32)).n

    def test_rect_scatter_gather(self):
        g = ProcessorGrid(8, (16, 32))
        img = np.arange(16 * 32, dtype=np.int32).reshape(16, 32)
        assert np.array_equal(g.gather(g.scatter(img)), img)

    def test_rect_divisibility(self):
        # (30, 32) is fine with the 2x4 grid (30%2 == 0, 32%4 == 0) ...
        ProcessorGrid(8, (30, 32))
        # ... but the transpose is not: w=4 does not divide 30.
        with pytest.raises(ConfigurationError):
            ProcessorGrid(8, (32, 30))

    def test_bad_shape_arg(self):
        with pytest.raises(ConfigurationError):
            ProcessorGrid(4, "16x16")
        with pytest.raises(ConfigurationError):
            ProcessorGrid(4, (16, 0))


class TestBalancedPartition:
    """Non-strict (balanced) tilings: n need not divide by v or w."""

    def test_strict_default_still_rejects(self):
        with pytest.raises(ConfigurationError):
            ProcessorGrid(8, 30)
        with pytest.raises(ConfigurationError):
            ProcessorGrid(8, 30, strict=True)

    def test_balanced_accepts_indivisible(self):
        g = ProcessorGrid(8, 30, strict=False)  # 2x4 grid over 30x30
        assert (g.v, g.w) == (2, 4)
        assert not g.uniform

    @pytest.mark.parametrize("p,rows,cols", [(8, 30, 30), (4, 7, 9), (16, 17, 23), (2, 5, 3)])
    def test_tiles_partition_exactly(self, p, rows, cols):
        g = ProcessorGrid(p, (rows, cols), strict=False)
        seen = np.zeros((rows, cols), dtype=np.int64)
        for pid in range(p):
            sl = g.tile_slices(pid)
            seen[sl] += 1
            assert g.tile_shape(pid) == seen[sl].shape
        assert (seen == 1).all()

    @pytest.mark.parametrize("p,rows,cols", [(8, 30, 30), (16, 17, 23)])
    def test_tile_shapes_within_one_pixel(self, p, rows, cols):
        g = ProcessorGrid(p, (rows, cols), strict=False)
        hs = {g.tile_shape(pid)[0] for pid in range(p)}
        ws = {g.tile_shape(pid)[1] for pid in range(p)}
        assert max(hs) - min(hs) <= 1
        assert max(ws) - min(ws) <= 1

    def test_uniform_accessors_raise_on_balanced(self):
        g = ProcessorGrid(8, 30, strict=False)
        with pytest.raises(ConfigurationError, match="non-uniform"):
            g.q
        with pytest.raises(ConfigurationError, match="non-uniform"):
            g.r

    def test_uniform_accessors_work_when_divisible(self):
        # strict=False on a divisible image still yields uniform tiles.
        g = ProcessorGrid(8, 32, strict=False)
        assert g.uniform
        assert (g.q, g.r) == (16, 8)

    def test_rejects_empty_tiles(self):
        # 2x4 grid needs at least 2 rows and 4 cols.
        with pytest.raises(ConfigurationError, match="empty"):
            ProcessorGrid(8, (1, 16), strict=False)

    def test_scatter_gather_roundtrip_balanced(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 9, size=(13, 21))
        g = ProcessorGrid(4, img.shape, strict=False)
        assert np.array_equal(g.gather(g.scatter(img)), img)


class TestShapeOverride:
    """Explicit (v, w) grids: strips and columns."""

    def test_row_strip_1xp(self):
        g = ProcessorGrid(4, (8, 64), shape=(1, 4))
        assert (g.v, g.w) == (1, 4)
        assert g.tile_shape(0) == (8, 16)

    def test_column_strip_px1(self):
        g = ProcessorGrid(4, (64, 8), shape=(4, 1))
        assert (g.v, g.w) == (4, 1)
        assert g.tile_shape(0) == (16, 8)

    def test_strip_balanced_indivisible(self):
        g = ProcessorGrid(4, (10, 64), shape=(4, 1), strict=False)
        assert sum(g.tile_shape(pid)[0] for pid in range(4)) == 10

    def test_shape_product_must_be_p(self):
        with pytest.raises(ConfigurationError):
            ProcessorGrid(4, 64, shape=(2, 4))

    def test_strict_strip_must_divide(self):
        with pytest.raises(ConfigurationError):
            ProcessorGrid(4, (10, 64), shape=(4, 1))
