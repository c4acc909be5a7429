"""Tests for wall-clock observability of the process-parallel engine
(:mod:`repro.darray` over the ``shmem`` transport)."""

import json
import os

import numpy as np
import pytest

from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.images import darpa_like
from repro.obs import (
    WallRecorder,
    chrome_trace,
    install,
    traced_span,
    validate_chrome_trace,
    wall_metrics,
)
from repro.darray import darray_components, darray_histogram
from repro.darray.shmem_transport import block_local_rounds

N = 64
K = 256
SHMEM = dict(transport="shmem")


@pytest.fixture(scope="module")
def image():
    return darpa_like(N, K)


class TestHistogramTrace:
    def test_spans_per_worker(self, image):
        rec = WallRecorder()
        darray_histogram(image, K, p=2, workers=2, recorder=rec, **SHMEM)
        assert len(rec.worker_lanes) == 2  # every pool process traced
        tallies = [s for s in rec.log.spans if s.name.startswith("darray:hist:t")]
        assert len(tallies) == 2

    def test_driver_spans_present(self, image):
        rec = WallRecorder()
        darray_histogram(image, K, p=2, workers=2, recorder=rec, **SHMEM)
        names = {s.name for s in rec.log.spans if s.lane == "driver"}
        assert "darray:hist" in names

    def test_result_unchanged_by_recording(self, image):
        rec = WallRecorder()
        traced = darray_histogram(image, K, p=2, recorder=rec, **SHMEM)
        plain = darray_histogram(image, K, p=2, **SHMEM)
        assert np.array_equal(traced, plain)

    def test_serial_backend_records_nothing_from_workers(self, image):
        rec = WallRecorder()
        darray_histogram(image, K, p=2, transport="local", recorder=rec)
        assert rec.worker_lanes == []


class TestComponentsTrace:
    @pytest.fixture(scope="class")
    def traced(self, image):
        rec = WallRecorder()
        res = darray_components(
            image, grey=True, p=4, workers=4, recorder=rec, **SHMEM
        )
        return rec, res.labels

    def test_span_per_worker(self, traced):
        rec, _ = traced
        assert len(rec.worker_lanes) == 4

    def test_span_per_merge_round(self, traced, image):
        rec, _ = traced
        rounds = len(merge_schedule(ProcessorGrid(4, image.shape)))
        driver_rounds = [
            s for s in rec.log.spans if s.name.startswith("darray:merge:r")
        ]
        assert len(driver_rounds) == rounds

    def test_merge_group_tasks_recorded(self, traced):
        rec, _ = traced
        groups = [s for s in rec.log.spans if s.name.startswith("darray:border:s")]
        assert groups  # at least one border task span came through the queue

    def test_chrome_trace_validates(self, traced):
        rec, _ = traced
        obj = chrome_trace(rec.log)
        validate_chrome_trace(json.loads(json.dumps(obj)))

    def test_result_unchanged_by_recording(self, traced, image):
        _, labels = traced
        plain = darray_components(image, grey=True, p=4, **SHMEM).labels
        assert np.array_equal(labels, plain)

    def test_wall_metrics_shape(self, traced):
        rec, _ = traced
        snap = wall_metrics(rec.log, workers=len(rec.worker_lanes))
        assert snap["engine"] == "runtime"
        assert snap["clock"] == "wall"
        assert snap["p"] == 4
        assert snap["totals"]["elapsed_s"] > 0
        names = {ph["name"] for ph in snap["phases"]}
        assert "darray:label" in names and "worker:init" in names
        json.dumps(snap)  # must be serializable


def _check_round_trips(rec, p, workers, shape):
    """A traced job's pins: exactly ``2 + rounds - merged_rounds``
    dispatches of at most ``workers`` tasks each; every dispatched round
    a driver span holding its one border dispatch, and every block-local
    round one span per label block, on a worker lane."""
    spans = rec.log.spans

    def dispatches(site=None, within=None):
        return [
            s for s in spans
            if s.name.startswith("dispatch:")
            and (site is None or s.name == f"dispatch:darray:{site}")
            and (within is None
                 or within.start_s <= s.start_s and s.end_s <= within.end_s)
        ]

    schedule = merge_schedule(ProcessorGrid(p, shape))
    merged = block_local_rounds(p, workers)
    (label,) = dispatches("label")
    assert len(dispatches("final")) == 1
    blocks = label.args["tasks"]
    for step in schedule[merged:]:
        (rnd,) = [s for s in spans if s.name == f"darray:merge:r{step.t}"]
        assert rnd.lane == "driver", rnd.name
        assert len(dispatches(within=rnd)) == 1, rnd.name
        assert len(dispatches("border", rnd)) == 1, rnd.name
    for step in schedule[:merged]:
        local = [s for s in spans if s.name == f"darray:merge:r{step.t}"]
        assert len(local) == blocks, step.t
        assert "driver" not in {s.lane for s in local}, step.t
    assert dispatches("fetch") == []
    assert len(dispatches()) == 2 + len(schedule) - merged
    assert all(1 <= s.args["tasks"] <= workers for s in dispatches())


class TestDispatchRoundTrips:
    """One pool round trip per verb call that reads: label, which also
    merges the block-local rounds, one border dispatch per cross-block
    merge round (carrying the previous round's change arrays), final.
    Publishing a round sends nothing."""

    @pytest.mark.parametrize("p", [4, 16])
    def test_one_dispatch_per_verb_per_round(self, image, p):
        rec = WallRecorder()
        res = darray_components(image, grey=True, p=p, recorder=rec, **SHMEM)
        workers = min(p, os.cpu_count() or 1, 16)
        _check_round_trips(rec, p, workers, image.shape)
        want = darray_components(image, grey=True, p=p, transport="local")
        assert np.array_equal(res.labels, want.labels)

    @pytest.mark.parametrize("p, workers", [(4, 1), (4, 2), (4, 4), (16, 1), (16, 3)])
    def test_block_local_rounds_leave_the_driver(self, image, p, workers):
        rec = WallRecorder()
        res = darray_components(
            image, grey=True, p=p, workers=workers, recorder=rec, **SHMEM
        )
        _check_round_trips(rec, p, workers, image.shape)
        want = darray_components(image, grey=True, p=p, transport="local")
        assert np.array_equal(res.labels, want.labels)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_dispatch_sends_at_most_one_task_per_worker(
        self, image, workers, monkeypatch
    ):
        from repro.darray import shmem_transport

        sizes = []
        run_tasks = shmem_transport.run_tasks

        def counting(supervisor, fn, payloads, **kw):
            payloads = list(payloads)
            sizes.append(len(payloads))
            return run_tasks(supervisor, fn, payloads, **kw)

        monkeypatch.setattr(shmem_transport, "run_tasks", counting)
        res = darray_components(image, p=16, workers=workers, **SHMEM)
        darray_histogram(image, K, p=16, workers=workers, **SHMEM)
        want = darray_components(image, p=16, transport="local")
        assert np.array_equal(res.labels, want.labels)
        rounds = len(merge_schedule(ProcessorGrid(16, image.shape)))
        assert len(sizes) == 2 + rounds - block_local_rounds(16, workers) + 1
        assert max(sizes) == workers
        assert all(1 <= n <= workers for n in sizes), sizes


class TestKernelSpans:
    @pytest.mark.parametrize("transport", ["local", "shmem"])
    def test_traced_run_records_kernel_spans(self, image, transport):
        rec = WallRecorder()
        darray_components(image, grey=True, p=4, transport=transport, recorder=rec)
        kernels = [s for s in rec.log.spans if s.name == "kernel:tile_runs"]
        assert len(kernels) == 4  # one per tile
        if transport == "local":
            (label,) = [s for s in rec.log.spans if s.name == "darray:label"]
            for span in kernels:
                assert span.lane == "driver"
                assert label.start_s <= span.start_s and span.end_s <= label.end_s
        else:
            assert {s.lane for s in kernels} <= set(rec.worker_lanes)
        validate_chrome_trace(json.loads(json.dumps(chrome_trace(rec.log))))


class TestWallRecorder:
    def test_driver_span_timing(self):
        rec = WallRecorder()
        with install(rec), traced_span("work"):
            pass
        (span,) = rec.log.spans
        assert span.lane == "driver"
        assert span.dur_s >= 0
        assert span.start_s >= 0

    def test_drain_without_queue_is_noop(self):
        rec = WallRecorder()
        assert rec.drain() == 0
