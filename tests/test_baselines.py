"""Tests for the sequential engines: BFS, run-length, Shiloach-Vishkin,
union-find, and sequential histogram -- cross-checked against scipy and
networkx oracles."""

import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines import (
    UnionFind,
    bfs_label,
    count_components,
    extract_runs,
    run_label,
    sequential_components,
    sequential_histogram,
    sequential_histogram_loop,
    shiloach_vishkin,
    shiloach_vishkin_image,
)
from repro.baselines.run_label import LABEL_DTYPE, tile_runs
from repro.utils.errors import ValidationError
from tests.conftest import oracle_binary_labels, oracle_grey_labels

# Edge lists over 4 vertices that both union_edges and shiloach_vishkin
# must reject instead of wrapping a negative index, truncating a float
# or failing with a bare IndexError.
BAD_ENDPOINTS = [
    pytest.param([-1], [0], id="negative"),
    pytest.param([0.7], [0], id="float"),
    pytest.param([1], [4], id="past-end"),
    pytest.param([True], [0], id="bool"),
]


@st.composite
def forest_and_edges(draw):
    """``n``, a scalar-union prefix and an edge list over ``0 .. n-1``.

    The prefix strings random chains of vertices together, uniting each
    chain's pairs from its far end, so it leaves trees up to ``n - 1``
    deep: the forest ``union_edges`` starts from is not flat.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n), max_size=n)))
    prefix = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        chain = sorted(order[lo:hi])
        prefix += [(chain[i], chain[i + 1]) for i in reversed(range(len(chain) - 1))]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=n))
    # Every list but the empty one also gets duplicates and self-loops.
    edges += edges[::2] + [(x, x) for x, _ in edges[:2]]
    return n, prefix, edges


class TestUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind(5)
        assert uf.n_sets() == 5

    def test_union_reduces_sets(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.n_sets() == 3

    def test_root_is_minimum_member(self):
        uf = UnionFind(10)
        uf.union(7, 3)
        uf.union(3, 9)
        assert uf.find(9) == 3
        uf.union(9, 1)
        assert uf.find(7) == 1

    def test_union_edges_array(self):
        uf = UnionFind(6)
        uf.union_edges(np.array([0, 2, 4]), np.array([1, 3, 5]))
        assert uf.n_sets() == 3

    def test_union_edges_shape_mismatch(self):
        uf = UnionFind(4)
        with pytest.raises(ValidationError):
            uf.union_edges(np.array([0]), np.array([1, 2]))

    def test_roots_vector(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert np.array_equal(uf.roots(), [0, 0, 0, 3])

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            UnionFind(-1)

    def test_chain_compression(self):
        uf = UnionFind(100)
        for i in range(99):
            uf.union(i, i + 1)
        assert uf.find(99) == 0
        assert uf.n_sets() == 1

    @given(forest_and_edges())
    def test_union_edges_matches_scalar_loop(self, case):
        n, prefix, edges = case
        fast, slow = UnionFind(n), UnionFind(n)
        for x, y in prefix:  # leaves a forest that is not flat
            fast.union(x, y)
            slow.union(x, y)
        a = np.array([x for x, _ in edges], dtype=np.int64)
        b = np.array([y for _, y in edges], dtype=np.int64)
        fast.union_edges(a, b)
        for x, y in edges:
            slow.union(x, y)
        assert (fast.parent <= np.arange(n)).all()
        assert np.array_equal(fast.roots(), slow.roots())
        assert fast.n_sets() == slow.n_sets()

    def test_union_edges_flattens_scalar_forest_first(self):
        # union(2, 3); union(1, 2) leaves the chain 3 -> 2 -> 1.  Hooking
        # the non-root 2 (the parent of 3) onto 0 would cut 1 out: [0, 1, 0, 0].
        uf = UnionFind(4)
        uf.union(2, 3)
        uf.union(1, 2)
        uf.union_edges(np.array([3]), np.array([0]))
        assert np.array_equal(uf.roots(), [0, 0, 0, 0])

    def test_union_edges_random_path_converges(self):
        # A randomly numbered path has diameter n - 1: the hardest
        # convergence case for hook-and-shortcut.  It takes ~11 rounds
        # and ~10 ms at n = 1e5; the bound only catches a loop that
        # needs far more rounds than O(log n).
        n = 100_000
        path = np.random.default_rng(0).permutation(n)
        uf = UnionFind(n)
        t0 = time.perf_counter()
        uf.union_edges(path[:-1], path[1:])
        assert time.perf_counter() - t0 < 2.0
        assert (uf.roots() == 0).all()

    @pytest.mark.parametrize("a, b", BAD_ENDPOINTS)
    def test_union_edges_rejects_bad_endpoints(self, a, b):
        uf = UnionFind(4)
        with pytest.raises(ValidationError):
            uf.union_edges(np.array(a), np.array(b))
        assert uf.n_sets() == 4

    def test_union_edges_accepts_any_integer_dtype(self):
        uf = UnionFind(4)
        uf.union_edges(np.array([3], dtype=np.uint8), np.array([1], dtype=np.int32))
        assert np.array_equal(uf.roots(), [0, 1, 2, 1])


class TestExtractRuns:
    def test_binary_runs(self):
        img = np.array([[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 1, 1]], dtype=np.int32)
        runs = extract_runs(img)
        assert len(runs) == 4
        assert np.array_equal(runs.row, [0, 0, 2, 2])
        assert np.array_equal(runs.start, [0, 3, 0, 2])
        assert np.array_equal(runs.stop, [2, 4, 1, 4])

    def test_grey_runs_break_on_level_change(self):
        img = np.array([[2, 2, 3, 3, 0, 2]], dtype=np.int32)
        runs = extract_runs(img, grey=True)
        assert len(runs) == 3
        assert np.array_equal(runs.color, [2, 3, 2])

    def test_binary_runs_span_level_changes(self):
        img = np.array([[2, 3, 1]], dtype=np.int32)
        runs = extract_runs(img, grey=False)
        assert len(runs) == 1
        assert runs.stop[0] - runs.start[0] == 3

    def test_empty_image(self):
        runs = extract_runs(np.zeros((4, 4), dtype=np.int32))
        assert len(runs) == 0

    def test_full_image(self):
        runs = extract_runs(np.ones((3, 5), dtype=np.int32))
        assert len(runs) == 3
        assert (runs.stop - runs.start == 5).all()

    def test_rejects_negative_levels(self):
        with pytest.raises(ValidationError, match="non-negative"):
            extract_runs(np.array([[1, -1]], dtype=np.int32))

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_tile_runs_validates_its_tile_once(self, backend, monkeypatch):
        import importlib

        from repro.kernels import get as get_kernel

        calls = []
        for name in ("bfs_label", "run_label"):
            module = importlib.import_module(f"repro.baselines.{name}")
            check = module.check_image
            monkeypatch.setattr(
                module, "check_image",
                lambda image, check=check, **kw: calls.append(1) or check(image, **kw),
            )
        img = np.array([[1, 0, 2], [1, 1, 0]], dtype=np.uint8)
        runs = get_kernel("tile_runs", backend)(img, grey=True)
        assert runs.n_components == 2
        assert len(calls) == 1


class TestTileRunsPaint:
    """``TileRuns.paint`` writes every pixel of its tile, background too,
    so it paints over whatever ``out`` held (here -1)."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("grey", [False, True], ids=["binary", "grey"])
    def test_paint_over_minus_one_equals_bfs(self, rng, connectivity, grey):
        for _ in range(25):
            rows, cols = rng.integers(1, 24, size=2)
            img = rng.integers(0, 4 if grey else 2, size=(rows, cols)).astype(np.uint8)
            runs = tile_runs(img, connectivity=connectivity, grey=grey)
            assert runs.labels.dtype == runs.lengths.dtype == runs.starts.dtype == LABEL_DTYPE
            out = np.full(img.shape, -1, dtype=LABEL_DTYPE)
            runs.paint(out)
            assert np.array_equal(out, bfs_label(img, connectivity=connectivity, grey=grey))

    def test_all_background_tile(self):
        img = np.zeros((5, 7), dtype=np.uint8)
        runs = tile_runs(img)
        assert len(runs.labels) == 0
        out = np.full(img.shape, -1, dtype=LABEL_DTYPE)
        runs.paint(out)
        assert np.array_equal(out, bfs_label(img))

    @pytest.mark.parametrize("grey", [False, True], ids=["binary", "grey"])
    def test_strided_view(self, small_grey, grey):
        rows, cols = small_grey.shape
        frame = np.full((rows + 3, 2 * cols + 5), -1, dtype=LABEL_DTYPE)
        view = frame[1 : rows + 1, 2 : 2 + 2 * cols : 2]  # every other column
        tile_runs(small_grey, grey=grey).paint(view)
        assert np.array_equal(view, bfs_label(small_grey, grey=grey))
        assert (frame == -1).sum() == frame.size - view.size

    def test_a_label_beyond_the_dtype_is_rejected(self):
        img = np.ones((2, 2), dtype=np.uint8)
        assert tile_runs(img, label_base=2**31 - 1).labels.tolist() == [2**31 - 1] * 2
        with pytest.raises(ValidationError, match="int32"):
            tile_runs(img, label_base=2**31)


class TestLabelConventions:
    def test_background_zero(self):
        img = np.zeros((4, 4), dtype=np.int32)
        img[1, 1] = 1
        for fn in (bfs_label, run_label, shiloach_vishkin_image):
            lab = fn(img)
            assert lab[0, 0] == 0
            assert lab[1, 1] == 1 * 4 + 1 + 1  # row-major index + 1

    def test_label_is_seed_index(self):
        img = np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0]], dtype=np.int32)
        lab = bfs_label(img, connectivity=4)
        # component {(0,1),(0,2),(1,2)} seeded at flat index 1
        assert lab[0, 1] == 2
        assert lab[1, 2] == 2
        # isolated (2,0) seeded at flat index 6
        assert lab[2, 0] == 7

    def test_offsets_shift_labels(self):
        img = np.ones((2, 2), dtype=np.int32)
        lab = run_label(img, label_stride=100, row_offset=3, col_offset=5)
        assert lab[0, 0] == 1 + 3 * 100 + 5

    def test_rectangular_images_supported(self):
        img = np.ones((2, 6), dtype=np.int32)
        for fn in (bfs_label, run_label, shiloach_vishkin_image):
            assert fn(img)[0, 0] == 1

    def test_invalid_connectivity(self):
        img = np.ones((2, 2), dtype=np.int32)
        for fn in (bfs_label, run_label, shiloach_vishkin_image):
            with pytest.raises(ValidationError):
                fn(img, connectivity=6)


class TestEnginesAgainstOracle:
    @pytest.mark.parametrize("engine", ["bfs", "runs", "sv"])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_binary_random(self, engine, connectivity, small_binary):
        ours = sequential_components(small_binary, connectivity=connectivity, engine=engine)
        oracle = oracle_binary_labels(small_binary, connectivity)
        assert np.array_equal(ours, oracle)

    @pytest.mark.parametrize("engine", ["bfs", "runs", "sv"])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_grey_random(self, engine, connectivity, small_grey):
        ours = sequential_components(
            small_grey, connectivity=connectivity, grey=True, engine=engine
        )
        oracle = oracle_grey_labels(small_grey, connectivity)
        assert np.array_equal(ours, oracle)

    def test_unknown_engine(self, small_binary):
        with pytest.raises(ValidationError):
            sequential_components(small_binary, engine="magic")

    def test_diagonal_only_connectivity_difference(self):
        img = np.eye(6, dtype=np.int32)
        assert count_components(sequential_components(img, connectivity=8)) == 1
        assert count_components(sequential_components(img, connectivity=4)) == 6


class TestShiloachVishkinGraph:
    def test_empty_graph(self):
        assert np.array_equal(shiloach_vishkin(3, [], []), [0, 1, 2])

    def test_matches_networkx(self, rng):
        n = 60
        m = 90
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        parent = shiloach_vishkin(n, u, v)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(u.tolist(), v.tolist()))
        for comp in nx.connected_components(g):
            comp = sorted(comp)
            assert all(parent[x] == comp[0] for x in comp)

    def test_self_loops_harmless(self):
        parent = shiloach_vishkin(3, [0, 1], [0, 1])
        assert np.array_equal(parent, [0, 1, 2])

    def test_endpoint_validation(self):
        with pytest.raises(ValidationError):
            shiloach_vishkin(3, [0], [3])
        with pytest.raises(ValidationError):
            shiloach_vishkin(3, [0, 1], [1])

    @pytest.mark.parametrize("u, v", BAD_ENDPOINTS)
    def test_rejects_bad_endpoints(self, u, v):
        with pytest.raises(ValidationError):
            shiloach_vishkin(4, u, v)


class TestSequentialHistogram:
    def test_matches_loop_reference(self, small_grey):
        fast = sequential_histogram(small_grey, 8)
        slow = sequential_histogram_loop(small_grey, 8)
        assert np.array_equal(fast, slow)

    def test_sums_to_pixel_count(self, small_grey):
        assert sequential_histogram(small_grey, 8).sum() == small_grey.size

    def test_level_overflow_rejected(self):
        img = np.full((2, 2), 9, dtype=np.int32)
        with pytest.raises(ValidationError):
            sequential_histogram(img, 8)
        with pytest.raises(ValidationError):
            sequential_histogram_loop(img, 8)

    def test_k_power_of_two(self, small_grey):
        with pytest.raises(ValidationError):
            sequential_histogram(small_grey, 10)

    def test_count_components_empty(self):
        assert count_components(np.zeros((3, 3), dtype=np.int64)) == 0


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.int32, (12, 12), elements=st.integers(min_value=0, max_value=2)),
    st.sampled_from([4, 8]),
)
def test_property_engines_identical_binary(img, connectivity):
    """All three engines produce bit-identical binary labelings."""
    a = bfs_label(img, connectivity=connectivity)
    b = run_label(img, connectivity=connectivity)
    c = shiloach_vishkin_image(img, connectivity=connectivity)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.int32, (10, 10), elements=st.integers(min_value=0, max_value=3)),
    st.sampled_from([4, 8]),
)
def test_property_engines_identical_grey(img, connectivity):
    """All three engines produce bit-identical grey labelings."""
    a = bfs_label(img, connectivity=connectivity, grey=True)
    b = run_label(img, connectivity=connectivity, grey=True)
    c = shiloach_vishkin_image(img, connectivity=connectivity, grey=True)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(arrays(np.int32, (10, 10), elements=st.integers(min_value=0, max_value=1)))
def test_property_labels_partition_foreground(img):
    """Labels are constant on components and distinct across them."""
    lab = run_label(img)
    assert ((lab == 0) == (img == 0)).all()
    # every label value equals 1 + min flat index of its support
    for value in np.unique(lab[lab != 0]):
        support = np.flatnonzero(lab.ravel() == value)
        assert value == support.min() + 1
