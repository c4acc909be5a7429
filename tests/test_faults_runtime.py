"""Chaos tests: the process-parallel engine under seeded fault plans.

The process-parallel engine is :mod:`repro.darray` over the ``shmem``
transport.  The contract under test (docs/FAULTS.md): for every seeded
single-fault plan, components and histogram alike, the run either
recovers to a **bit-identical** result or raises a typed
:class:`~repro.utils.errors.FaultError` within its deadline -- never a
hang, never a wrong answer, never a leaked ``/dev/shm`` segment, and
every recovery step visible as ``fault:*`` obs events.  A recovered
plan must also be seen to fire (a ``fault:retry``): a plan whose site
never fires would pass on its result alone.

The plans of the merge-protocol sites (``darray:border``,
``darray:fetch``) run in tests/test_darray.py::TestShmemChaosMatrix;
every other plan runs here.
"""

import os
import warnings

import numpy as np
import pytest

from repro.baselines import sequential_components, sequential_histogram
from repro.darray import darray_components, darray_histogram
from repro.faults import (
    FaultPlan,
    FaultSpec,
    assert_no_shm_leak,
    shm_segments,
    single_fault_plans,
)
from repro.images import binary_test_image, random_greyscale
from repro.obs import WallRecorder
from repro.utils.errors import (
    DegradedRunWarning,
    FaultError,
    TaskTimeoutError,
)

P = 4
N = 32  # 2x2 grid of 16x16 tiles for p=4 -> 2 merge rounds
N_ROUNDS = 2
K = 64
# Short deadlines keep crash/hang recovery quick; faulted tasks on this
# image take milliseconds, so the margin is still ~100x.
FAST = dict(p=P, transport="shmem", workers=P, timeout=1.5, max_retries=2)


@pytest.fixture(scope="module")
def image():
    return binary_test_image(4, N)


@pytest.fixture(scope="module")
def serial_labels(image):
    return sequential_components(image, connectivity=8)


@pytest.fixture(scope="module")
def grey_image():
    return random_greyscale(N, K, seed=5)


@pytest.fixture(scope="module")
def serial_hist(grey_image):
    return sequential_histogram(grey_image, K)


def _plans(workload):
    return single_fault_plans(
        workload=workload, engine="darray", n_rounds=N_ROUNDS, n_tasks=P
    )


def _plan_id(plan):
    # Every site in the matrix is darray's, so the ids leave the prefix out.
    return plan.describe().replace("@darray:", "@")


def _matrix(workload):
    return [pytest.param(p, id=_plan_id(p)) for p in _plans(workload)]


def _numpy_matrix(workload):
    """The plans, less the merge-protocol sites' (tests/test_darray.py::
    TestShmemChaosMatrix runs those), with the ``-numpy`` id suffix of
    the kernels every engine runs."""
    return [
        pytest.param(p, id=f"{_plan_id(p)}-numpy")
        for p in _plans(workload)
        if p.faults[0].site not in ("darray:border", "darray:fetch")
    ]


def _recover(run, plan, **opts):
    """``run(fault_plan=plan, recorder=..., **opts)``'s result, checked
    to leak nothing, not to degrade, and to have fired the plan."""
    rec = WallRecorder()
    with assert_no_shm_leak():
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRunWarning)
            out = run(fault_plan=plan, recorder=rec, **opts)
    assert "fault:retry" in [i.name for i in rec.fault_events()], plan.describe()
    return out


def _block_plans():
    """Plans faulting an item other than the first of its dispatch, with
    two workers at p=4.  Label runs two blocks of two tiles, one round-1
    region each, and merges round 0 inside them; final runs the same
    two blocks.  Task 1 is the second tile of the first label block and
    task 3 the second item of the second final block; round 0's group 1
    is the second block's, so its border sides and its change array
    fault inside the second label task, after that block painted its
    tiles."""
    selectors = [
        ("darray:label", dict(task=1)),
        ("darray:final", dict(task=P - 1)),
        ("darray:border", dict(round=0, group=1)),
        ("darray:fetch", dict(round=0, group=1)),
    ]
    return [
        pytest.param(
            FaultPlan(faults=(FaultSpec(site=site, kind=kind, **sel),)),
            id=f"{kind}@{site.split(':')[1]}",
        )
        for site, sel in selectors
        for kind in ("crash", "hang", "exception")
    ]


class TestComponentsChaosMatrix:
    """Every single-fault plan recovers bit-identically."""

    @pytest.mark.parametrize("plan", _numpy_matrix("components"))
    def test_single_fault_recovers(self, plan, image, serial_labels):
        res = _recover(darray_components, plan, source=image, **FAST)
        assert np.array_equal(res.labels, serial_labels)

    @pytest.mark.parametrize("plan", _block_plans())
    def test_fault_inside_a_block_recovers(self, plan, image, serial_labels):
        # The whole block retries; every item is idempotent.
        opts = dict(FAST, workers=2)
        res = _recover(darray_components, plan, source=image, **opts)
        assert np.array_equal(res.labels, serial_labels)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("plan", _matrix("components"))
    def test_single_fault_recovers_in_block_local_rounds(
        self, plan, workers, image, serial_labels
    ):
        # One worker merges both rounds inside its label block; two merge
        # round 0 there and dispatch round 1.
        opts = dict(FAST, workers=workers)
        res = _recover(darray_components, plan, source=image, **opts)
        assert np.array_equal(res.labels, serial_labels)

    @pytest.mark.parametrize("kind", ["crash", "hang"])
    def test_block_killed_after_its_writes_recovers(self, kind, image):
        # Round 1's change array is applied inside the only label block,
        # after the block painted its tiles and merged round 0: the
        # respawned pool's retry repaints and merges again.
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:fetch", kind=kind, round=1, group=0),
        ))
        opts = dict(FAST, workers=1)
        rec = WallRecorder()
        with assert_no_shm_leak():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradedRunWarning)
                res = darray_components(image, fault_plan=plan, recorder=rec, **opts)
        names = [i.name for i in rec.fault_events()]
        assert "fault:respawn" in names and "fault:retry" in names
        want = darray_components(image, p=P, transport="local")
        assert np.array_equal(res.labels, want.labels)
        assert res.n_components == want.n_components

    @pytest.mark.parametrize("plan", _matrix("components"))
    def test_serial_engine_ignores_plans(self, plan, image, serial_labels):
        # The in-process transports have no workers to fault: plans are
        # inert, never installed in the driver (a crash spec would kill
        # the test process otherwise).
        for transport in ("local", "mmap"):
            res = darray_components(image, p=P, transport=transport, fault_plan=plan)
            assert np.array_equal(np.asarray(res.labels), serial_labels), transport


class TestHistogramChaosMatrix:
    @pytest.mark.parametrize("plan", _numpy_matrix("histogram"))
    def test_single_fault_recovers(self, plan, grey_image, serial_hist):
        got = _recover(darray_histogram, plan, source=grey_image, k=K, **FAST)
        assert np.array_equal(got, serial_hist)

    @pytest.mark.parametrize("plan", _matrix("histogram"))
    def test_serial_engine_ignores_plans(self, plan, grey_image, serial_hist):
        for transport in ("local", "mmap"):
            got = darray_histogram(grey_image, K, p=P, transport=transport, fault_plan=plan)
            assert np.array_equal(got, serial_hist), transport


def _persistent_fault(site, **selectors):
    """A plan no retry budget can beat: every attempt of one task."""
    return FaultPlan(faults=(
        FaultSpec(site=site, kind="exception", times=-1, **selectors),
    ))


class TestDegradation:
    def test_exhausted_recovery_degrades_to_serial(self, image, serial_labels):
        rec = WallRecorder()
        with assert_no_shm_leak():
            with pytest.warns(DegradedRunWarning, match="degraded to the serial"):
                res = darray_components(
                    image, recorder=rec,
                    fault_plan=_persistent_fault("darray:border", round=0, group=0),
                    **FAST,
                )
        assert np.array_equal(res.labels, serial_labels)  # still bit-identical
        names = [i.name for i in rec.fault_events()]
        assert "fault:retry" in names
        assert "fault:giveup" in names
        assert names[-1] == "fault:degrade"

    def test_histogram_degrades_to_serial(self, grey_image, serial_hist):
        rec = WallRecorder()
        with assert_no_shm_leak():
            with pytest.warns(DegradedRunWarning, match="degraded to the serial"):
                got = darray_histogram(
                    grey_image, K, recorder=rec,
                    fault_plan=_persistent_fault("darray:hist", task=0), **FAST,
                )
        assert np.array_equal(got, serial_hist)
        assert [i.name for i in rec.fault_events()][-1] == "fault:degrade"

    def test_degrade_false_raises_typed_error(self, image):
        with assert_no_shm_leak():
            with pytest.raises(FaultError) as err:
                darray_components(
                    image,
                    fault_plan=_persistent_fault("darray:border", round=0, group=0),
                    degrade=False, **FAST,
                )
        assert err.value.site == "darray:border"

    @pytest.mark.parametrize(
        "site, selectors",
        [
            ("darray:label", dict(task=0)),
            ("darray:fetch", dict(round=1, group=0)),
            ("darray:final", dict(task=P - 1)),
            ("darray:hist", dict(task=0)),
        ],
    )
    def test_typed_error_names_its_site(self, image, grey_image, site, selectors):
        plan = _persistent_fault(site, **selectors)
        with assert_no_shm_leak():
            with pytest.raises(FaultError) as err:
                if site == "darray:hist":
                    darray_histogram(
                        grey_image, K, fault_plan=plan, degrade=False, **FAST
                    )
                else:
                    darray_components(image, fault_plan=plan, degrade=False, **FAST)
        assert err.value.site == site

    def test_persistent_hang_becomes_timeout_error(self, image):
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:label", kind="hang", task=0, times=-1),
        ))
        with assert_no_shm_leak():
            with pytest.raises(TaskTimeoutError):
                darray_components(
                    image, p=P, transport="shmem", workers=P,
                    timeout=0.5, max_retries=1, degrade=False, fault_plan=plan,
                )


class TestFaultEventStreams:
    """Recovery paths are visible and correctly ordered in repro.obs."""

    def test_crash_chain(self, image, serial_labels):
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:label", kind="crash", task=0),
        ))
        rec = WallRecorder()
        res = darray_components(image, recorder=rec, fault_plan=plan, **FAST)
        assert np.array_equal(res.labels, serial_labels)
        names = [i.name for i in rec.fault_events()]
        # deadline expiry -> pool respawn -> retry, in that order
        assert names.index("fault:timeout") < names.index("fault:respawn")
        assert names.index("fault:respawn") < names.index("fault:retry")

    def test_corrupt_payload_detected_in_worker(self, image, serial_labels):
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:border", kind="corrupt", round=1, group=0),
        ))
        rec = WallRecorder()
        res = darray_components(image, recorder=rec, fault_plan=plan, **FAST)
        assert np.array_equal(res.labels, serial_labels)
        names = {i.name for i in rec.fault_events()}
        assert "fault:corrupt-detected" in names  # worker-side validation
        assert "fault:retry" in names

    def test_unfaulted_run_has_no_fault_events(self, image, serial_labels):
        rec = WallRecorder()
        res = darray_components(image, recorder=rec, **FAST)
        assert np.array_equal(res.labels, serial_labels)
        assert rec.fault_events() == []


class TestLeakChecker:
    @staticmethod
    def _named_segment():
        from multiprocessing.shared_memory import SharedMemory

        return SharedMemory(create=True, size=32)

    def test_shm_segments_lists_strings(self):
        assert all(isinstance(s, str) for s in shm_segments())

    def test_assert_no_shm_leak_passes_clean_block(self):
        with assert_no_shm_leak(grace_s=0.0):
            pass

    def test_assert_no_shm_leak_flags_leak(self):
        leaked = None
        try:
            with pytest.raises(AssertionError, match="leaked"):
                with assert_no_shm_leak(grace_s=0.0):
                    leaked = self._named_segment()
        finally:
            if leaked is not None:
                leaked.close()
                leaked.unlink()

    def test_checks_even_when_block_raises(self):
        leaked = None
        try:
            with pytest.raises(AssertionError, match="leaked"):
                with assert_no_shm_leak(grace_s=0.0):
                    leaked = self._named_segment()
                    raise RuntimeError("boom")
        finally:
            if leaked is not None:
                leaked.close()
                leaked.unlink()

    def test_flags_a_memfd_left_open(self):
        from repro.runtime import share_array

        desc = None
        try:
            with pytest.raises(AssertionError, match="memfd.*inode"):
                with assert_no_shm_leak(grace_s=0.0):
                    desc = share_array(np.zeros(4, dtype=np.uint8))
        finally:
            if desc is not None:
                os.close(desc.fd)

    def test_memfd_closed_in_the_block_passes(self):
        from repro.runtime import share_array

        with assert_no_shm_leak(grace_s=0.0):
            os.close(share_array(np.zeros(4, dtype=np.uint8)).fd)

    def test_memfd_held_before_the_block_is_not_its_leak(self):
        from repro.runtime import share_array

        desc = share_array(np.zeros(4, dtype=np.uint8))
        try:
            with assert_no_shm_leak(grace_s=0.0):
                pass
        finally:
            os.close(desc.fd)
