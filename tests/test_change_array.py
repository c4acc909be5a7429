"""Tests for change arrays (Procedure 1) and their application by the
``relabel`` kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.change_array import ChangeArray, create_change_array
from repro.utils.errors import ValidationError


def _relabel(labels, changes: ChangeArray) -> np.ndarray:
    """Relabel ``labels`` through ``changes`` with the registry's kernel."""
    return kernels.get("relabel")(labels, changes.alphas, changes.betas)


class TestCreate:
    def test_identity_pairs_dropped(self):
        ch = create_change_array(np.array([1, 2, 3]), np.array([1, 2, 3]))
        assert len(ch) == 0

    def test_sorted_by_alpha(self):
        ch = create_change_array(np.array([9, 4, 7]), np.array([1, 1, 1]))
        assert np.array_equal(ch.alphas, [4, 7, 9])

    def test_duplicates_collapsed(self):
        ch = create_change_array(np.array([5, 5, 5, 2]), np.array([1, 1, 1, 1]))
        assert np.array_equal(ch.alphas, [2, 5])
        assert np.array_equal(ch.betas, [1, 1])

    def test_conflicting_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            create_change_array(np.array([5, 5]), np.array([1, 2]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            create_change_array(np.array([1, 2]), np.array([1]))

    def test_empty_input(self):
        ch = create_change_array(np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(ch) == 0


class TestApply:
    def test_basic_mapping(self):
        ch = ChangeArray(np.array([3, 7]), np.array([1, 2]))
        out = _relabel(np.array([3, 5, 7, 3]), ch)
        assert np.array_equal(out, [1, 5, 2, 1])

    def test_misses_pass_through(self):
        ch = ChangeArray(np.array([10]), np.array([1]))
        data = np.array([0, 9, 11, 1000])
        assert np.array_equal(_relabel(data, ch), data)

    def test_empty_changes(self):
        data = np.array([1, 2, 3])
        out = _relabel(data, ChangeArray.empty())
        assert np.array_equal(out, data)
        out[0] = 99  # must be a copy
        assert data[0] == 1

    def test_values_above_all_alphas(self):
        """searchsorted clipping must not map out-of-range values."""
        ch = ChangeArray(np.array([2, 4]), np.array([1, 1]))
        assert np.array_equal(_relabel(np.array([5, 6]), ch), [5, 6])

    def test_values_below_all_alphas(self):
        ch = ChangeArray(np.array([10, 20]), np.array([1, 2]))
        assert np.array_equal(_relabel(np.array([1, 9]), ch), [1, 9])

    def test_2d_input_preserved(self):
        ch = ChangeArray(np.array([1]), np.array([5]))
        data = np.array([[1, 2], [1, 0]])
        assert np.array_equal(_relabel(data, ch), [[5, 2], [5, 0]])


class TestSerialization:
    def test_roundtrip(self):
        ch = ChangeArray(np.array([1, 5, 9]), np.array([0, 2, 4]))
        back = ChangeArray.from_words(ch.to_words())
        assert np.array_equal(back.alphas, ch.alphas)
        assert np.array_equal(back.betas, ch.betas)

    def test_empty_roundtrip(self):
        back = ChangeArray.from_words(ChangeArray.empty().to_words())
        assert len(back) == 0

    def test_odd_length_rejected(self):
        with pytest.raises(ValidationError):
            ChangeArray.from_words(np.array([1, 2, 3]))

    def test_vector_shape_enforced(self):
        with pytest.raises(ValidationError):
            ChangeArray(np.zeros((2, 2)), np.zeros((2, 2)))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=60,
    )
)
def test_property_apply_matches_dict_semantics(pairs):
    """The relabel kernel == looking each value up in {alpha: beta}."""
    # Deduplicate alphas to keep the mapping consistent.
    mapping = {}
    for a, b in pairs:
        mapping.setdefault(a, b)
    old = np.array(sorted(mapping), dtype=np.int64)
    new = np.array([mapping[a] for a in sorted(mapping)], dtype=np.int64)
    ch = create_change_array(old, new)
    data = np.arange(60, dtype=np.int64)
    expected = np.array([mapping.get(x, x) for x in range(60)])
    # create_change_array drops identity pairs; the lookup maps those to
    # themselves anyway.
    assert np.array_equal(_relabel(data, ch), expected)
