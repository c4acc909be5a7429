"""Tests for the BDM broadcast (Algorithm 2)."""

import numpy as np
import pytest

from repro.analysis import predict_broadcast, predict_transpose
from repro.bdm import GlobalArray, Machine, broadcast
from repro.machines import CM5, IDEAL, SP2
from repro.utils.errors import ValidationError


class TestCorrectness:
    @pytest.mark.parametrize("p,q", [(2, 4), (4, 8), (8, 8), (4, 64)])
    def test_all_processors_receive_payload(self, p, q):
        m = Machine(p, IDEAL)
        A = GlobalArray(m, q)
        payload = np.arange(1, q + 1)
        A.write(m.procs[0], 0, payload)
        m.reset()
        out = broadcast(m, A)
        for pid in range(p):
            assert np.array_equal(out.local(pid), payload)

    def test_nonzero_root(self):
        p, q = 4, 8
        m = Machine(p, IDEAL)
        A = GlobalArray(m, q)
        payload = np.arange(10, 10 + q)
        A.write(m.procs[2], 2, payload)
        m.reset()
        out = broadcast(m, A, root=2)
        for pid in range(p):
            assert np.array_equal(out.local(pid), payload)

    def test_divisibility_required(self):
        m = Machine(4, IDEAL)
        A = GlobalArray(m, 6)
        with pytest.raises(ValidationError):
            broadcast(m, A)


class TestCost:
    def test_matches_equation_two(self):
        p, q = 8, 64
        m = Machine(p, SP2)
        A = GlobalArray(m, q)
        broadcast(m, A)
        rep = m.report()
        model = predict_broadcast(SP2, q, p)
        assert rep.comm_s == pytest.approx(model["comm_s"])

    def test_roughly_twice_the_transpose(self):
        """The paper: 'broadcasting takes roughly twice the time of the
        transpose' -- exact in the model, since it IS two transposes."""
        p, q = 8, 512
        bc = predict_broadcast(CM5, q, p)["comm_s"]
        tr = predict_transpose(CM5, q, p)["comm_s"]
        assert bc == pytest.approx(2 * tr)

    def test_two_phases_recorded(self):
        m = Machine(4, CM5)
        A = GlobalArray(m, 8)
        broadcast(m, A, phase_name="bc")
        names = [ph.name for ph in m.report().phases]
        assert names == ["bc:spread", "bc:collect"]
