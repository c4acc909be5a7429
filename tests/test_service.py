"""Tests for repro.service: cache, admission, batching, and the service.

The async pieces are driven with ``asyncio.run`` from synchronous
tests (no pytest-asyncio dependency); each test builds its own service
so pool lifetimes stay scoped to the test.
"""

import asyncio

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, assert_no_shm_leak
from repro.images import binary_test_image, darpa_like
from repro.kernels import get as get_kernel
from repro.obs import MetricsRegistry, WallRecorder
from repro.service import (
    AdmissionQueue,
    BatchKey,
    BatchService,
    Client,
    MicroBatcher,
    PendingRequest,
    ResultCache,
    ServiceConfig,
    ServiceInstruments,
    canonical_params,
    image_digest,
    result_key,
)
from repro.service.ops import svc_task
from repro.utils.errors import (
    ServiceClosedError,
    ServiceOverloadError,
    TaskTimeoutError,
    ValidationError,
)


class TestCache:
    def test_hit_returns_stored_value(self):
        cache = ResultCache()
        value = np.arange(8)
        assert cache.put("a", value)
        assert cache.get("a") is value
        assert cache.stats.hits == 1

    def test_miss_is_counted(self):
        cache = ResultCache()
        assert cache.get("nope") is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_lru_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", np.arange(4))
        cache.put("b", np.arange(4))
        cache.put("c", np.arange(4))
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", np.arange(4))
        cache.put("b", np.arange(4))
        cache.get("a")
        cache.put("c", np.arange(4))
        assert "a" in cache  # b, not a, was the LRU victim
        assert "b" not in cache

    def test_byte_bound_evicts(self):
        one_kb = np.zeros(128, dtype=np.int64)  # 1024 bytes
        cache = ResultCache(max_entries=100, max_bytes=3000)
        cache.put("a", one_kb)
        cache.put("b", one_kb)
        cache.put("c", one_kb)  # 3072 bytes > 3000 -> evict "a"
        assert "a" not in cache
        assert cache.stats.bytes <= 3000

    def test_oversized_result_is_uncacheable(self):
        cache = ResultCache(max_bytes=100)
        assert not cache.put("big", np.zeros(1000, dtype=np.int64))
        assert "big" not in cache
        assert cache.stats.uncacheable == 1
        assert cache.stats.evictions == 0

    def test_replacement_updates_bytes(self):
        cache = ResultCache()
        cache.put("a", np.zeros(100, dtype=np.int64))
        cache.put("a", np.zeros(10, dtype=np.int64))
        assert cache.stats.bytes == 80
        assert len(cache) == 1

    def test_clear(self):
        cache = ResultCache()
        cache.put("a", np.arange(4))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes == 0

    def test_bounds_validated(self):
        with pytest.raises(ValidationError):
            ResultCache(max_entries=0)
        with pytest.raises(ValidationError):
            ResultCache(max_bytes=-1)

    def test_digest_separates_shape_and_dtype(self):
        flat = np.arange(16, dtype=np.int64)
        square = flat.reshape(4, 4)
        assert image_digest(flat) != image_digest(square)
        assert image_digest(flat) != image_digest(flat.astype(np.int32))
        assert image_digest(square) == image_digest(square.copy())

    def test_result_key_separates_ops_and_params(self):
        img = darpa_like(16, 16, seed=3)
        digest = image_digest(img)
        k1 = result_key(digest, "histogram", (("k", 16),))
        k2 = result_key(digest, "histogram", (("k", 256),))
        k3 = result_key(digest, "equalize", (("k", 16),))
        assert len({k1, k2, k3}) == 3


class TestCanonicalParams:
    def test_defaults_are_filled(self):
        img = binary_test_image(1, 16)
        assert canonical_params("components", img, {}) == (
            ("connectivity", 8), ("grey", False),
        )
        assert canonical_params("histogram", img, {}) == (("k", 256),)

    def test_spelling_is_canonical(self):
        img = binary_test_image(1, 16)
        a = canonical_params("components", img, {"grey": False, "connectivity": 8})
        b = canonical_params("components", img, {})
        assert a == b

    def test_unknown_op(self):
        with pytest.raises(ValidationError, match="unknown service op"):
            canonical_params("edges", binary_test_image(1, 8), {})

    def test_unknown_param(self):
        with pytest.raises(ValidationError, match="unknown parameter"):
            canonical_params("histogram", binary_test_image(1, 8), {"bins": 4})

    def test_k_must_cover_image(self):
        img = darpa_like(16, 256, seed=1)
        with pytest.raises(ValidationError, match="grey levels"):
            canonical_params("histogram", img, {"k": 16})

    def test_k_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            canonical_params("histogram", binary_test_image(1, 8), {"k": 100})

    def test_connectivity_values(self):
        img = binary_test_image(1, 8)
        with pytest.raises(ValidationError, match="connectivity"):
            canonical_params("components", img, {"connectivity": 6})


def _queue(**kw) -> AdmissionQueue:
    """A standalone queue counting on its own registry."""
    return AdmissionQueue(instruments=ServiceInstruments(MetricsRegistry()), **kw)


class TestAdmission:
    def test_sheds_beyond_depth(self):
        async def scenario():
            queue = _queue(depth=2, timeout_s=30)
            loop = asyncio.get_running_loop()
            reqs = [
                PendingRequest("histogram", None, (), loop.create_future())
                for _ in range(3)
            ]
            queue.admit(reqs[0])
            queue.admit(reqs[1])
            with pytest.raises(ServiceOverloadError) as err:
                queue.admit(reqs[2])
            assert err.value.depth == 2
            assert queue.snapshot()["shed"] == 1
            assert queue.snapshot()["admitted"] == 2
            assert len(queue.drain_nowait()) == 2

        asyncio.run(scenario())

    def test_deadline_is_stamped(self):
        async def scenario():
            queue = _queue(depth=2, timeout_s=5.0)
            req = PendingRequest(
                "histogram", None, (), asyncio.get_running_loop().create_future()
            )
            queue.admit(req)
            assert req.deadline_s == pytest.approx(req.enqueued_s + 5.0)
            assert not req.expired()

        asyncio.run(scenario())

    def test_get_records_wait(self):
        async def scenario():
            queue = _queue(depth=2, timeout_s=5.0)
            req = PendingRequest(
                "histogram", None, (), asyncio.get_running_loop().create_future()
            )
            queue.admit(req)
            got = await queue.get()
            assert got is req
            assert queue.snapshot()["max_wait_ms"] >= 0.0

        asyncio.run(scenario())


class TestBatcher:
    def test_expired_request_fails_without_dispatch(self):
        async def scenario():
            queue = _queue(depth=4, timeout_s=30)
            dispatched = []

            async def execute(key, reqs):
                dispatched.append(reqs)

            batcher = MicroBatcher(queue, execute)
            loop = asyncio.get_running_loop()
            req = PendingRequest("histogram", None, (), loop.create_future())
            req.deadline_s = req.enqueued_s - 1.0  # already expired
            batcher._absorb(req)
            assert batcher.snapshot()["expired"] == 1
            assert not dispatched
            with pytest.raises(TaskTimeoutError):
                req.future.result()

        asyncio.run(scenario())

    def test_batches_by_key_and_flushes_at_max(self):
        async def scenario():
            queue = _queue(depth=64, timeout_s=30)
            batches = []

            async def execute(key, reqs):
                batches.append((key, len(reqs)))
                for r in reqs:
                    r.future.set_result(None)

            batcher = MicroBatcher(queue, execute, max_batch=3, max_delay_s=10.0)
            loop = asyncio.get_running_loop()
            reqs = [
                PendingRequest("histogram", None, (("k", 256),), loop.create_future())
                for _ in range(3)
            ] + [
                PendingRequest("components", None, (), loop.create_future())
            ]
            for r in reqs:
                queue.admit(r)
            task = asyncio.ensure_future(batcher.run())
            # The size-3 histogram bucket flushes on its own; the lone
            # components request waits out the window until cancellation.
            await asyncio.wait_for(
                asyncio.gather(*[r.future for r in reqs[:3]]), timeout=5
            )
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            assert (BatchKey("histogram", (("k", 256),)), 3) in batches
            # Cancellation flushed the remaining components bucket too.
            assert (BatchKey("components", ()), 1) in batches

        asyncio.run(scenario())

    def test_validates_knobs(self):
        queue = object()
        with pytest.raises(ValidationError):
            MicroBatcher(queue, None, max_batch=0)
        with pytest.raises(ValidationError):
            MicroBatcher(queue, None, max_delay_s=-1)


def _serial_reference(op, image, **params):
    if op == "histogram":
        return get_kernel("histogram", backend="numpy")(image, params.get("k", 256))
    if op == "components":
        return get_kernel("tile_label", backend="numpy")(
            image,
            connectivity=params.get("connectivity", 8),
            grey=params.get("grey", False),
        )
    raise AssertionError(op)


class TestBatchService:
    def test_results_match_serial_reference(self):
        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            await service.start()
            try:
                img = darpa_like(48, 256, seed=7)
                pat = binary_test_image(4, 32)
                hist, labels = await asyncio.gather(
                    service.submit("histogram", img, k=256),
                    service.submit("components", pat, connectivity=4),
                )
                assert np.array_equal(hist, _serial_reference("histogram", img, k=256))
                assert np.array_equal(
                    labels, _serial_reference("components", pat, connectivity=4)
                )
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_equalize_matches_lut_path(self):
        from repro.core.equalization import equalization_lut

        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            await service.start()
            try:
                img = darpa_like(32, 256, seed=9)
                eq = await service.submit("equalize", img, k=256)
                hist = _serial_reference("histogram", img, k=256)
                assert np.array_equal(eq, equalization_lut(hist)[img])
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_repeat_hits_cache_and_burst_batches(self):
        async def scenario():
            service = BatchService(
                ServiceConfig(workers=2, max_batch=8, max_delay_s=0.05)
            )
            await service.start()
            try:
                img = darpa_like(32, 256, seed=2)
                first = await service.submit("histogram", img, k=256)
                again = await service.submit("histogram", img, k=256)
                assert np.array_equal(first, again)
                assert service.cache.stats.hits == 1
                # A concurrent burst of distinct images coalesces into
                # fewer dispatches than requests.
                imgs = [darpa_like(32, 256, seed=s) for s in range(10, 16)]
                await asyncio.gather(
                    *[service.submit("histogram", im, k=256) for im in imgs]
                )
                snap = service.snapshot()
                assert snap["batcher"]["max_batch"] > 1
                assert snap["executor"]["batches"] < 1 + len(imgs)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            service = BatchService(
                ServiceConfig(workers=2, max_batch=4, max_delay_s=0.05)
            )
            await service.start()
            try:
                img = darpa_like(32, 256, seed=5)
                results = await asyncio.gather(
                    *[service.submit("histogram", img, k=256) for _ in range(6)]
                )
                for r in results[1:]:
                    assert np.array_equal(results[0], r)
                snap = service.snapshot()
                # One computation served all six: the rest were coalesced
                # onto the in-flight future, not dispatched.
                assert snap["executor"]["tasks"] == 1
                assert snap["service"]["coalesced"] == 5
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_overload_sheds_with_typed_error(self):
        async def scenario():
            service = BatchService(
                ServiceConfig(
                    workers=2, max_batch=2, max_delay_s=0.0,
                    queue_depth=3, cache=False,
                )
            )
            await service.start()
            try:
                imgs = [darpa_like(24, 256, seed=s) for s in range(20, 36)]
                results = await asyncio.gather(
                    *[service.submit("histogram", im, k=256) for im in imgs],
                    return_exceptions=True,
                )
                shed = [r for r in results if isinstance(r, ServiceOverloadError)]
                served = [r for r in results if isinstance(r, np.ndarray)]
                assert shed, "expected at least one shed request"
                assert served, "expected at least one served request"
                assert len(shed) + len(served) == len(imgs)
                assert all(e.depth == 3 for e in shed)
                assert service.snapshot()["admission"]["shed"] == len(shed)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_submit_after_stop_raises(self):
        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosedError):
                await service.submit("histogram", binary_test_image(1, 16))

        asyncio.run(scenario())

    def test_bad_request_rejected_at_admission(self):
        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            await service.start()
            try:
                with pytest.raises(ValidationError):
                    await service.submit("histogram", darpa_like(16, 256), k=16)
                with pytest.raises(ValidationError):
                    await service.submit("edges", binary_test_image(1, 16))
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_no_shm_leak_across_lifecycle(self):
        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            await service.start()
            try:
                await service.submit("histogram", darpa_like(24, 256, seed=1), k=256)
            finally:
                await service.stop()

        with assert_no_shm_leak():
            asyncio.run(scenario())


class TestWorkerTask:
    def test_error_marker_instead_of_exception(self):
        marker = svc_task(((0, "edges", None, (), None), 0))
        assert marker[0] == "err"
        assert marker[1] == "ValidationError"

    def test_ok_marker(self):
        img = binary_test_image(2, 16)
        tag, hist = svc_task(((0, "histogram", img, (("k", 2),), None), 0))
        assert tag == "ok"
        assert np.array_equal(hist, _serial_reference("histogram", img, k=2))

    def test_error_marker_keeps_its_type_across_the_pool(self):
        from repro.service.server import _worker_error
        from repro.utils.errors import FaultError, ReproError, ValidationError

        exc = _worker_error("ValidationError", "bad k")
        assert type(exc) is ValidationError
        exc = _worker_error("FaultError", "injected")
        assert type(exc) is FaultError
        # Unknown names (or names that aren't ReproError subclasses)
        # fall back to the base class rather than a mislabeled subtype.
        assert type(_worker_error("KeyboardInterrupt", "x")) is ReproError
        assert type(_worker_error("NoSuchError", "x")) is ReproError


class TestFaultyService:
    def test_transient_fault_is_retried_transparently(self):
        plan = FaultPlan(seed=3, faults=(FaultSpec("svc:exec", "exception", times=1),))

        async def scenario():
            rec = WallRecorder()
            service = BatchService(
                ServiceConfig(workers=2, fault_plan=plan, timeout_s=30, retries=2),
                recorder=rec,
            )
            await service.start()
            try:
                img = darpa_like(24, 256, seed=4)
                hist = await service.submit("histogram", img, k=256)
                assert np.array_equal(hist, _serial_reference("histogram", img, k=256))
            finally:
                await service.stop()
            assert service.snapshot()["executor"]["degraded"] == 0
            assert any(i.name.startswith("fault:") for i in rec.fault_events())

        asyncio.run(scenario())

    def test_crash_recovers_via_respawn(self):
        plan = FaultPlan(seed=5, faults=(FaultSpec("svc:exec", "crash", times=1),))

        async def scenario():
            service = BatchService(
                ServiceConfig(workers=2, fault_plan=plan, timeout_s=1.5, retries=2)
            )
            await service.start()
            try:
                img = darpa_like(24, 256, seed=6)
                hist = await service.submit("histogram", img, k=256)
                assert np.array_equal(hist, _serial_reference("histogram", img, k=256))
            finally:
                await service.stop()

        with assert_no_shm_leak():
            asyncio.run(scenario())

    def test_persistent_fault_degrades_to_serial(self):
        plan = FaultPlan(seed=7, faults=(FaultSpec("svc:exec", "exception", times=-1),))

        async def scenario():
            service = BatchService(
                ServiceConfig(workers=2, fault_plan=plan, timeout_s=30, retries=1)
            )
            await service.start()
            try:
                img = darpa_like(24, 256, seed=8)
                hist = await service.submit("histogram", img, k=256)
                # Degraded serving still returns the bit-identical answer.
                assert np.array_equal(hist, _serial_reference("histogram", img, k=256))
                assert service.snapshot()["executor"]["degraded"] == 1
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_persistent_fault_with_degrade_off_raises(self):
        from repro.utils.errors import FaultError

        plan = FaultPlan(seed=9, faults=(FaultSpec("svc:exec", "exception", times=-1),))

        async def scenario():
            service = BatchService(
                ServiceConfig(
                    workers=2, fault_plan=plan, timeout_s=30, retries=1, degrade=False
                )
            )
            await service.start()
            try:
                with pytest.raises(FaultError):
                    await service.submit(
                        "histogram", darpa_like(24, 256, seed=10), k=256
                    )
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestClient:
    def test_sync_facade_round_trip(self):
        with Client(ServiceConfig(workers=2)) as client:
            img = darpa_like(32, 256, seed=11)
            first = client.submit("histogram", img, k=256)
            again = client.submit("histogram", img, k=256)
            assert np.array_equal(first, _serial_reference("histogram", img, k=256))
            assert np.array_equal(first, again)
            assert client.stats()["cache"]["hits"] == 1

    def test_submit_before_start_raises(self):
        client = Client(ServiceConfig(workers=2))
        with pytest.raises(ServiceClosedError):
            client.submit("histogram", binary_test_image(1, 16))

    def test_threaded_clients_share_batches(self):
        import concurrent.futures

        with Client(ServiceConfig(workers=2, max_batch=8, max_delay_s=0.05)) as client:
            imgs = [darpa_like(24, 256, seed=s) for s in range(40, 48)]
            with concurrent.futures.ThreadPoolExecutor(8) as tpe:
                results = list(
                    tpe.map(lambda im: client.submit("histogram", im, k=256), imgs)
                )
            for im, hist in zip(imgs, results):
                assert np.array_equal(hist, _serial_reference("histogram", im, k=256))
            assert client.stats()["batcher"]["max_batch"] >= 2
