"""Shadow-manager failover tests on the BDM simulator.

The paper's merge protocol already contains its redundancy: the shadow
manager (the processor directly across the border) independently holds
one sorted border side.  These tests pin the failover golden cases --
for every merge round, losing a group's manager OR shadow still yields
labels bit-identical to the unfaulted run, and the takeover is visible
as instants on the simulated timeline.
"""

import numpy as np
import pytest

from repro.bdm.machine import Machine
from repro.core.connected_components import parallel_components
from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.faults import FaultPlan, FaultSpec
from repro.obs import (
    FAULT_FAILOVER,
    FAULT_MANAGER_CRASH,
    FAULT_SHADOW_CRASH,
    MachineRecorder,
)
from repro.utils.errors import FailoverError

P = 16
N = 32


@pytest.fixture(scope="module")
def image():
    rng = np.random.default_rng(7)
    return (rng.random((N, N)) < 0.55).astype(np.int64)


@pytest.fixture(scope="module")
def baseline(image):
    return parallel_components(image, P)


@pytest.fixture(scope="module")
def schedule(image):
    return merge_schedule(ProcessorGrid(P, image.shape))


def _plan(round=None, group=None, target="manager", times=1):
    return FaultPlan(faults=(
        FaultSpec(
            site="sim:merge", kind="crash",
            round=round, group=group, target=target, times=times,
        ),
    ))


def _run(image, plan, **kw):
    machine = Machine(P)
    rec = MachineRecorder(machine)
    res = parallel_components(image, P, machine=machine, fault_plan=plan, **kw)
    return res, rec


class TestManagerFailover:
    """Golden case per merge round: manager lost, shadow takes over."""

    @pytest.mark.parametrize("rnd", range(4))  # log2(16) rounds for p=16
    def test_bit_identical_labels(self, rnd, image, baseline):
        res, rec = _run(image, _plan(round=rnd, group=0))
        assert np.array_equal(res.labels, baseline.labels)
        assert res.n_components == baseline.n_components

    @pytest.mark.parametrize("rnd", range(4))
    def test_failover_instants_name_the_right_processors(
        self, rnd, image, schedule
    ):
        res, rec = _run(image, _plan(round=rnd, group=0))
        group = schedule[rnd].groups[0]
        crashes = [i for i in rec.log.instants if i.name == FAULT_MANAGER_CRASH]
        failovers = [i for i in rec.log.instants if i.name == FAULT_FAILOVER]
        assert len(crashes) == 1 and len(failovers) == 1
        assert crashes[0].lane == group.manager
        assert failovers[0].lane == group.shadow  # the shadow takes over
        assert failovers[0].args["manager"] == group.manager
        assert failovers[0].args["round"] == rnd

    @pytest.mark.parametrize("rnd", range(4))
    def test_step_stats_count_the_failover(self, rnd, image):
        res, _ = _run(image, _plan(round=rnd, group=0))
        per_round = [s.n_failovers for s in res.step_stats]
        expect = [1 if s.t - 1 == rnd else 0 for s in res.step_stats]
        assert per_round == expect

    def test_failover_counted_on_sim_clock(self, image):
        # Round 2's boundary is after two merge phases: its instants
        # must carry a strictly positive simulated timestamp.
        _, rec = _run(image, _plan(round=2, group=0))
        assert all(i.t_s > 0 for i in rec.fault_events())

    def test_every_round_faulted_still_identical(self, image, baseline):
        # Wildcard selectors: every group of every round loses its
        # manager, and every shadow fails over.
        res, rec = _run(image, _plan(target="manager", times=-1))
        assert np.array_equal(res.labels, baseline.labels)
        assert [s.n_failovers for s in res.step_stats] == [
            s.n_groups for s in res.step_stats
        ]

    def test_transpose_distribution_failover(self, image, baseline):
        res, _ = _run(image, _plan(round=1, group=0), distribution="transpose")
        assert np.array_equal(res.labels, baseline.labels)


class TestShadowLoss:
    """Manager survives a lost shadow by fetching both sides itself."""

    @pytest.mark.parametrize("rnd", range(4))
    def test_bit_identical_labels(self, rnd, image, baseline):
        res, rec = _run(image, _plan(round=rnd, group=0, target="shadow"))
        assert np.array_equal(res.labels, baseline.labels)
        names = [i.name for i in rec.fault_events()]
        assert names == [FAULT_SHADOW_CRASH]
        assert res.step_stats[rnd].n_failovers == 1

    def test_without_shadow_manager_shadow_loss_is_inert(self, image, baseline):
        # shadow_manager=False: the across-border processor has no
        # protocol role, so "losing" it changes nothing.
        res, rec = _run(
            image, _plan(round=0, group=0, target="shadow"),
            shadow_manager=False,
        )
        assert np.array_equal(res.labels, baseline.labels)
        assert rec.fault_events() == []
        assert sum(s.n_failovers for s in res.step_stats) == 0


class TestUnrecoverable:
    def test_both_lost_raises(self, image):
        with pytest.raises(FailoverError, match="shadow .* lost too"):
            parallel_components(image, P, fault_plan=_plan(round=0, target="both"))

    def test_manager_and_shadow_specs_combine_to_double_loss(self, image):
        plan = FaultPlan(faults=(
            FaultSpec(site="sim:merge", kind="crash", round=1, group=0,
                      target="manager"),
            FaultSpec(site="sim:merge", kind="crash", round=1, group=0,
                      target="shadow"),
        ))
        with pytest.raises(FailoverError):
            parallel_components(image, P, fault_plan=plan)

    def test_manager_lost_without_shadow_manager_raises(self, image):
        with pytest.raises(FailoverError, match="no shadow manager"):
            parallel_components(
                image, P, shadow_manager=False,
                fault_plan=_plan(round=0, group=0),
            )

    def test_error_is_typed_with_site(self, image):
        with pytest.raises(FailoverError) as err:
            parallel_components(image, P, fault_plan=_plan(round=0, target="both"))
        assert err.value.site == "sim:merge"


class TestFaultModelScope:
    def test_process_sites_ignored_by_simulator(self, image, baseline):
        # A plan aimed at the process-parallel engine must not disturb
        # a simulated run (the CLI passes one plan to either engine).
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:border", kind="crash", round=0, group=0),
            FaultSpec(site="darray:label", kind="exception", task=0),
        ))
        res, rec = _run(image, plan)
        assert np.array_equal(res.labels, baseline.labels)
        assert rec.fault_events() == []

    def test_no_plan_no_events(self, image, baseline):
        res, rec = _run(image, None)
        assert np.array_equal(res.labels, baseline.labels)
        assert rec.fault_events() == []
        assert all(s.n_failovers == 0 for s in res.step_stats)

    def test_grey_mode_failover(self):
        rng = np.random.default_rng(3)
        grey = rng.integers(0, 8, size=(N, N)).astype(np.int64)
        base = parallel_components(grey, P, grey=True)
        res, _ = _run(grey, _plan(round=0, group=0), grey=True)
        assert np.array_equal(res.labels, base.labels)
