"""Tests for the BDM matrix transpose (Algorithm 1) and gather."""

import numpy as np
import pytest

from repro.analysis import predict_transpose
from repro.bdm import GlobalArray, Machine, gather_to, transpose
from repro.machines import CM5, IDEAL
from repro.utils.errors import ValidationError


def reference_transpose_layout(mat: np.ndarray, p: int) -> np.ndarray:
    """Expected block layout: proc t's slot r holds A[r, t*q/p:(t+1)*q/p]."""
    q = mat.shape[1]
    size = q // p
    out = np.zeros((p, q), dtype=mat.dtype)
    for t in range(p):
        for r in range(p):
            out[t, r * size : (r + 1) * size] = mat[r, t * size : (t + 1) * size]
    return out


class TestBlockedTranspose:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 8), (4, 4), (4, 16), (8, 64), (16, 16)])
    def test_correct_layout(self, p, q):
        m = Machine(p, IDEAL)
        A = GlobalArray(m, q)
        mat = np.arange(p * q).reshape(p, q)
        A.scatter_rows(mat)
        AT = transpose(m, A)
        assert np.array_equal(AT.gather_rows(), reference_transpose_layout(mat, p))

    def test_involution(self):
        """Transposing twice restores the original distribution."""
        p, q = 4, 16
        m = Machine(p, IDEAL)
        A = GlobalArray(m, q)
        mat = np.arange(p * q).reshape(p, q)
        A.scatter_rows(mat)
        ATT = transpose(m, transpose(m, A))
        assert np.array_equal(ATT.gather_rows(), mat)

    def test_requires_divisibility(self):
        m = Machine(4, IDEAL)
        A = GlobalArray(m, 6)
        with pytest.raises(ValidationError):
            transpose(m, A)

    def test_requires_equal_blocks(self):
        m = Machine(4, IDEAL)
        A = GlobalArray(m, [4, 4, 4, 8])
        with pytest.raises(ValidationError):
            transpose(m, A)


class TestTruncatedTranspose:
    def test_q_less_than_p(self):
        """Row i of the small matrix lands whole on processor i."""
        p, q = 8, 4
        m = Machine(p, IDEAL)
        A = GlobalArray(m, q)
        mat = np.arange(p * q).reshape(p, q)  # proc i holds column i as a row
        A.scatter_rows(mat)
        AT = transpose(m, A)
        for i in range(p):
            if i < q:
                assert np.array_equal(AT.local(i), mat[:, i])
            else:
                assert AT.block_length(i) == 0


class TestTransposeCost:
    def test_matches_equation_one(self):
        """Simulated comm time equals tau + (q - q/p) word-times exactly."""
        p, q = 8, 64
        m = Machine(p, CM5)
        A = GlobalArray(m, q)
        transpose(m, A)
        ph = m.report().phases[0]
        model = predict_transpose(CM5, q, p)
        assert ph.comm_s == pytest.approx(model["comm_s"])
        assert ph.comp_s == pytest.approx(model["comp_s"])

    def test_comm_independent_of_machine_compute(self):
        p, q = 4, 32
        slow = CM5.with_(op_ns=10 * CM5.op_ns)
        m1, m2 = Machine(p, CM5), Machine(p, slow)
        for m in (m1, m2):
            A = GlobalArray(m, q)
            transpose(m, A)
        assert m1.report().phases[0].comm_s == pytest.approx(m2.report().phases[0].comm_s)


class TestGather:
    def test_collects_in_processor_order(self):
        m = Machine(4, IDEAL)
        A = GlobalArray(m, 3)
        mat = np.arange(12).reshape(4, 3)
        A.scatter_rows(mat)
        assert np.array_equal(gather_to(m, A, 0), mat.ravel())

    def test_nonzero_root(self):
        m = Machine(4, IDEAL)
        A = GlobalArray(m, 2)
        mat = np.arange(8).reshape(4, 2)
        A.scatter_rows(mat)
        assert np.array_equal(gather_to(m, A, 2), mat.ravel())

    def test_unequal_blocks(self):
        m = Machine(4, IDEAL)
        A = GlobalArray(m, [2, 0, 1, 3])
        for pid, vals in enumerate(([1, 2], [], [3], [4, 5, 6])):
            if vals:
                A.write(m.procs[pid], pid, vals)
        assert np.array_equal(gather_to(m, A), [1, 2, 3, 4, 5, 6])

    def test_root_charged_for_remote_words(self):
        m = Machine(4, CM5)
        A = GlobalArray(m, 8)
        gather_to(m, A, 0)
        # Root reads 3 remote blocks of 8 (its own is free), pipelined.
        expected = CM5.latency_s + 24 * CM5.word_time_s()
        assert m.procs[0].cost.comm_s == pytest.approx(expected)


class TestTransposeProperties:
    """Hypothesis property tests over random matrices and machine sizes."""

    def test_property_transpose_preserves_multiset(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=30, deadline=None)
        @given(
            st.sampled_from([2, 4, 8]),
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=0, max_value=10_000),
        )
        def inner(p, mult, seed):
            rng = np.random.default_rng(seed)
            q = p * mult
            mat = rng.integers(0, 1000, (p, q))
            m = Machine(p, IDEAL)
            A = GlobalArray(m, q)
            A.scatter_rows(mat)
            AT = transpose(m, A).gather_rows()
            assert np.array_equal(np.sort(AT.ravel()), np.sort(mat.ravel()))

        inner()

    def test_property_double_transpose_identity(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=30, deadline=None)
        @given(
            st.sampled_from([2, 4]),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=0, max_value=10_000),
        )
        def inner(p, mult, seed):
            rng = np.random.default_rng(seed)
            q = p * mult
            mat = rng.integers(0, 100, (p, q))
            m = Machine(p, IDEAL)
            A = GlobalArray(m, q)
            A.scatter_rows(mat)
            back = transpose(m, transpose(m, A)).gather_rows()
            assert np.array_equal(back, mat)

        inner()

    def test_property_block_mapping_exact(self):
        """AT[t][r*s:(r+1)*s] == A[r][t*s:(t+1)*s] for every (t, r)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=20, deadline=None)
        @given(st.sampled_from([2, 4, 8]), st.integers(min_value=0, max_value=10_000))
        def inner(p, seed):
            rng = np.random.default_rng(seed)
            q = p * 3
            size = q // p
            mat = rng.integers(0, 9, (p, q))
            m = Machine(p, IDEAL)
            A = GlobalArray(m, q)
            A.scatter_rows(mat)
            AT = transpose(m, A).gather_rows()
            for t in range(p):
                for r in range(p):
                    assert np.array_equal(
                        AT[t, r * size : (r + 1) * size],
                        mat[r, t * size : (t + 1) * size],
                    )

        inner()
