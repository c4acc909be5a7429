"""Tests for the border graph construction and merge solving."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.border_graph import BorderSide, solve_border_merge
from repro.kernels import get as get_kernel
from repro.utils.errors import ValidationError


def side(labels, colors=None):
    labels = np.asarray(labels, dtype=np.int64)
    if colors is None:
        colors = (labels != 0).astype(np.int64)
    return BorderSide(labels, np.asarray(colors, dtype=np.int64))


def oracle_changes(left, right, connectivity, grey):
    """networkx reference: same graph, min-label components."""
    L = len(left)
    g = nx.Graph()
    labels = np.concatenate([left.labels, right.labels])
    colors = np.concatenate([left.colors, right.colors])
    for vid in range(2 * L):
        if colors[vid] != 0:
            g.add_node(vid)
    # within-side: same label means same region component
    for base, s in ((0, left), (L, right)):
        by_label = {}
        for pos in range(L):
            if s.colors[pos] != 0:
                by_label.setdefault(int(s.labels[pos]), []).append(base + pos)
        for verts in by_label.values():
            for a, b in zip(verts, verts[1:]):
                g.add_edge(a, b)
    offsets = (-1, 0, 1) if connectivity == 8 else (0,)
    for j in range(L):
        for d in offsets:
            jj = j + d
            if 0 <= jj < L and left.colors[j] != 0 and right.colors[jj] != 0:
                if grey and left.colors[j] != right.colors[jj]:
                    continue
                g.add_edge(j, L + jj)
    mapping = {}
    for comp in nx.connected_components(g):
        new = min(int(labels[v]) for v in comp)
        for v in comp:
            old = int(labels[v])
            if old != new:
                mapping[old] = new
    return mapping


class TestBasics:
    def test_empty_border(self):
        solve = solve_border_merge(side([]), side([]))
        assert len(solve.changes) == 0
        assert solve.n_vertices == 0

    def test_all_background(self):
        solve = solve_border_merge(side([0, 0, 0]), side([0, 0, 0]))
        assert solve.n_vertices == 0
        assert len(solve.changes) == 0

    def test_facing_pixels_merge_to_min(self):
        solve = solve_border_merge(side([5, 0]), side([3, 0]))
        assert np.array_equal(solve.changes.alphas, [5])
        assert np.array_equal(solve.changes.betas, [3])

    def test_no_contact_no_changes(self):
        solve = solve_border_merge(side([5, 0]), side([0, 3]), connectivity=4)
        assert len(solve.changes) == 0

    def test_diagonal_contact_only_under_8(self):
        left = side([5, 0])
        right = side([0, 3])
        assert len(solve_border_merge(left, right, connectivity=8).changes) == 1
        assert len(solve_border_merge(left, right, connectivity=4).changes) == 0

    def test_within_side_chains_propagate(self):
        """Two touches of one component must unify the other side's labels."""
        # left positions 0 and 2 share label 9 (same region component);
        # right positions 0 and 2 have distinct labels 4 and 6.
        solve = solve_border_merge(side([9, 0, 9]), side([4, 0, 6]), connectivity=4)
        got = dict(zip(solve.changes.alphas.tolist(), solve.changes.betas.tolist()))
        assert got == {6: 4, 9: 4}

    def test_grey_requires_equal_colors(self):
        left = BorderSide(np.array([5]), np.array([2]))
        right = BorderSide(np.array([3]), np.array([7]))
        assert len(solve_border_merge(left, right, grey=True).changes) == 0
        assert len(solve_border_merge(left, right, grey=False).changes) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            solve_border_merge(side([1]), side([1, 2]))

    def test_invalid_connectivity(self):
        with pytest.raises(ValidationError):
            solve_border_merge(side([1]), side([1]), connectivity=5)

    def test_edge_bound_five_per_vertex(self):
        """|E| <= 5|V|/... the paper's bound: at most 5 edges per vertex."""
        rng = np.random.default_rng(0)
        left = side(rng.integers(0, 5, 64))
        right = side(rng.integers(0, 5, 64))
        solve = solve_border_merge(left, right)
        assert solve.n_edges <= 5 * solve.n_vertices


class TestAgainstOracle:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("grey", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_borders(self, connectivity, grey, seed):
        rng = np.random.default_rng(seed)
        L = 40
        # labels repeat to exercise within-side chains; colors 0..3
        def rand_side():
            colors = rng.integers(0, 4, L)
            labels = np.where(colors != 0, rng.integers(1, 12, L), 0)
            # make labels consistent with colors within a side: same
            # label -> same color (as real borders guarantee)
            for lbl in np.unique(labels[labels != 0]):
                positions = labels == lbl
                colors[positions] = colors[positions][0]
            return BorderSide(labels.astype(np.int64), colors.astype(np.int64))

        left, right = rand_side(), rand_side()
        # Invariant of the real algorithm: a label is the min pixel index
        # of a component *within its region*, and the two sides belong to
        # disjoint regions -- so the label universes never overlap.
        right = BorderSide(
            np.where(right.labels != 0, right.labels + 1000, 0), right.colors
        )
        solve = solve_border_merge(left, right, connectivity=connectivity, grey=grey)
        got = dict(zip(solve.changes.alphas.tolist(), solve.changes.betas.tolist()))
        assert got == oracle_changes(left, right, connectivity, grey)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30),
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30),
    st.sampled_from([4, 8]),
)
def test_property_changes_map_downward(left_labels, right_labels, connectivity):
    """Every change strictly decreases the label (min-label convention)."""
    L = min(len(left_labels), len(right_labels))
    left = side(left_labels[:L])
    # Disjoint label universes, as on real borders (labels are pixel
    # indices of disjoint regions).
    right = side([x + 100 if x else 0 for x in right_labels[:L]])
    solve = solve_border_merge(left, right, connectivity=connectivity)
    assert (solve.changes.betas < solve.changes.alphas).all()
    # Applying the changes twice is idempotent on the border labels.
    relabel = get_kernel("relabel")
    alphas, betas = solve.changes.alphas, solve.changes.betas
    merged_once = relabel(left.labels, alphas, betas)
    merged_twice = relabel(merged_once, alphas, betas)
    assert np.array_equal(merged_once, merged_twice)
