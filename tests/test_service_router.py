"""Tests for the shard router: ring, breakers, routing, failover.

The expensive multi-process paths (spawned shards, SIGKILL chaos) live
in the CLI selftest and chaos drill; everything here runs shards
*in-process* -- ``RouterConfig(shard_sockets=[...])`` -- so one event
loop hosts the router and its shards and the suite stays fast.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, assert_no_shm_leak
from repro.faults.inject import install_plan
from repro.images import darpa_like
from repro.obs import MetricsRegistry, parse_prometheus_text
from repro.service import (
    BatchService,
    CircuitBreaker,
    HashRing,
    RouterConfig,
    RouterInstruments,
    ServiceConfig,
    ServiceServer,
    encode_array,
    request_over_socket,
)
from repro.service.health import CLOSED, HALF_OPEN, OPEN, probe_timeout
from repro.service.router import ShardRouter, request_op, routing_key
from repro.utils.aio import cancel_and_reap
from repro.utils.errors import ValidationError


class TestRoutingKey:
    def test_digest_wins_over_everything(self):
        digest = "ab" * 32
        line = (
            b'{"op": "histogram", "image": {"shm": {"digest": "%s"}},'
            b' "data_b64": "QUJD"}' % digest.encode()
        )
        assert routing_key(line) == digest.encode()

    def test_payload_bytes_key_ndjson(self):
        a = b'{"op": "histogram", "image": {"data_b64": "QUJDRA=="}}'
        b = b'{"id": 9, "op": "histogram", "image": {"data_b64": "QUJDRA=="}}'
        # Same pixels, different envelope -> same affinity key.
        assert routing_key(a) == routing_key(b)

    def test_whole_line_fallback_is_stable(self):
        line = b'{"op": "components", "image": {"pattern": 3, "size": 16}}'
        assert routing_key(line) == routing_key(line)
        other = b'{"op": "components", "image": {"pattern": 4, "size": 16}}'
        assert routing_key(line) != routing_key(other)

    def test_request_op(self):
        assert request_op(b'{"op": "ping"}') == "ping"
        assert request_op(b'{"id": 1, "op": "stats"}') == "stats"
        assert request_op(b"not json at all") is None


class TestHashRing:
    def test_route_is_deterministic(self):
        a = HashRing([0, 1, 2])
        b = HashRing([2, 0, 1])  # order must not matter
        for i in range(50):
            key = f"key-{i}".encode()
            assert a.route(key) == b.route(key)

    def test_walk_covers_every_shard_once(self):
        ring = HashRing([0, 1, 2, 3])
        for i in range(20):
            order = ring.walk(f"key-{i}".encode())
            assert sorted(order) == [0, 1, 2, 3]
            assert order[0] == ring.route(f"key-{i}".encode())

    def test_partition_is_reasonably_balanced(self):
        ring = HashRing([0, 1, 2], vnodes=64)
        counts = {0: 0, 1: 0, 2: 0}
        for i in range(600):
            counts[ring.route(f"image-{i}".encode())] += 1
        # 64 vnodes/shard keeps the spread well inside 2x of fair share.
        assert min(counts.values()) > 0
        assert max(counts.values()) < 2 * (600 / 3)

    def test_single_shard_ring(self):
        ring = HashRing([7])
        assert ring.walk(b"anything") == [7]

    def test_rejects_empty_and_bad_vnodes(self):
        with pytest.raises(ValidationError):
            HashRing([])
        with pytest.raises(ValidationError):
            HashRing([0], vnodes=0)


class _Clock:
    """Deterministic monotonic clock for breaker cooldown tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _breaker(**kw):
    return CircuitBreaker(
        0, instruments=RouterInstruments(MetricsRegistry(), [0]), **kw
    )


class TestCircuitBreaker:
    def _tripped(self, clock, **kw):
        b = _breaker(fail_threshold=3, open_s=0.5, clock=clock, **kw)
        for _ in range(3):
            b.record_failure()
        return b

    def test_trips_after_threshold_consecutive_failures(self):
        clock = _Clock()
        b = _breaker(fail_threshold=3, open_s=0.5, clock=clock)
        b.record_failure()
        b.record_failure()
        b.record_success()  # success resets the consecutive count
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()

    def test_half_open_trial_after_cooldown_then_close(self):
        clock = _Clock()
        b = self._tripped(clock)
        clock.now += 0.6  # past open_s
        assert b.allow()  # the single half-open trial
        assert b.state == HALF_OPEN
        b.record_success()
        assert b.state == CLOSED
        assert b.recovered()

    def test_failed_trial_doubles_the_cooldown(self):
        clock = _Clock()
        b = self._tripped(clock)
        clock.now += 0.6
        assert b.allow()
        b.record_failure()  # trial failed: re-open, cooldown doubles
        assert b.state == OPEN
        assert b.cooldown_s == pytest.approx(1.0)
        clock.now += 0.6  # inside the doubled cooldown
        assert not b.allow()
        clock.now += 0.6  # now past it
        assert b.allow()
        assert b.state == HALF_OPEN

    def test_cooldown_is_capped(self):
        clock = _Clock()
        b = self._tripped(clock)
        for _ in range(12):  # keep failing every trial
            clock.now += 100.0
            assert b.allow()
            b.record_failure()
        assert b.cooldown_s == pytest.approx(8.0)  # MAX_OPEN_S

    def test_recovered_needs_the_full_arc(self):
        clock = _Clock()
        b = _breaker(fail_threshold=1, open_s=0.5, clock=clock)
        assert not b.recovered()  # never opened
        b.record_failure()
        assert not b.recovered()  # open, not yet back
        clock.now += 1.0
        b.allow()
        assert not b.recovered()  # half-open, not yet closed
        b.record_success()
        assert b.recovered()

    def test_snapshot_shape(self):
        b = _breaker()
        b.record_failure()
        snap = b.snapshot()
        assert snap["state"] == CLOSED
        assert snap["failures"] == 1
        assert "cooldown_s" in snap and "recovered" in snap

    def test_probe_timeout_clamps(self):
        assert probe_timeout(None) <= 0.5
        assert probe_timeout(0.1) == pytest.approx(0.1)


def _router_scenario(handler, *, shards=3, **config_kw):
    """Run ``handler(router, servers)`` against in-process shards.

    Each shard is a real :class:`ServiceServer` (own BatchService, own
    cache) on a temp socket; the router fronts them in the external
    (``spawn=False``) mode.  The whole scenario runs under the shm leak
    check.
    """

    async def scenario(tmp_path):
        servers = []
        for sid in range(shards):
            service = BatchService(ServiceConfig(workers=1))
            server = ServiceServer(
                service, str(tmp_path / f"shard-{sid}.sock"), shard_id=sid
            )
            await server.start()
            servers.append(server)
        config_kw.setdefault("probe_interval_s", 0.02)
        config_kw.setdefault("open_s", 0.1)
        router = ShardRouter(
            str(tmp_path / "router.sock"),
            RouterConfig(
                shard_sockets=[s.socket_path for s in servers], **config_kw
            ),
        )
        await router.start()
        try:
            await handler(router, servers)
        finally:
            await router.stop()
            for server in servers:
                await server.stop()

    def run(tmp_path):
        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario(tmp_path))

    return run


async def _raw_request(path: str, line: bytes) -> dict:
    reader, writer = await asyncio.open_unix_connection(path)
    try:
        writer.write(line)
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


def _compute_line(pattern: int, size: int = 16) -> bytes:
    obj = {"op": "components", "image": {"pattern": pattern, "size": size}}
    return (json.dumps(obj) + "\n").encode()


#: ``stats`` ``shards.<sid>.breaker`` key -> (family, label, value); the
#: ``shard`` label is the shard id.
BREAKER_FAMILIES = {
    "failures": ("repro_router_breaker_reports_total", "outcome", "failure"),
    "successes": ("repro_router_breaker_reports_total", "outcome", "success"),
    "opened": ("repro_router_breaker_transitions_total", "to", "open"),
    "half_opened": ("repro_router_breaker_transitions_total", "to", "half_open"),
    "closed": ("repro_router_breaker_transitions_total", "to", "closed"),
}


class TestShardRouter:
    def test_digest_affinity_lands_on_the_home_shard(self, tmp_path):
        async def handler(router, servers):
            for pattern in range(1, 7):
                line = _compute_line(pattern)
                home = router.ring.route(routing_key(line))
                before = router.snapshot()["shards"][str(home)]["forwards"]
                reply = await _raw_request(router.socket_path, line)
                assert reply["ok"]
                after = router.snapshot()["shards"][str(home)]["forwards"]
                assert after == before + 1  # served exactly by its home
            snap = router.snapshot()["router"]
            assert snap["completed"] == 6
            assert snap["reroutes"] == 0

        _router_scenario(handler)(tmp_path)

    def test_repeat_image_hits_the_same_shards_cache(self, tmp_path):
        async def handler(router, servers):
            img = darpa_like(24, 256, seed=31)
            req = {"op": "histogram", "image": encode_array(img),
                   "params": {"k": 256}}
            first = await request_over_socket(router.socket_path, req)
            second = await request_over_socket(router.socket_path, req)
            assert first["ok"] and second["ok"]
            assert first["result"] == second["result"]
            hits = sum(s.service.snapshot()["cache"]["hits"] for s in servers)
            assert hits == 1  # repeat routed to the shard holding it

        _router_scenario(handler)(tmp_path)

    def test_router_ping_and_stats_answer_locally(self, tmp_path):
        async def handler(router, servers):
            pong = await request_over_socket(router.socket_path, {"op": "ping"})
            assert pong["result"]["router"] is True
            assert pong["result"]["shards"] == 3
            assert pong["result"]["healthy"] == 3
            stats = await request_over_socket(router.socket_path, {"op": "stats"})
            assert stats["result"]["schema"] == "repro-router-stats/v1"
            assert set(stats["result"]["shards"]) == {"0", "1", "2"}

        _router_scenario(handler)(tmp_path)

    def test_counts_balance_and_forwards_sum_to_completed(self, tmp_path):
        async def handler(router, servers):
            for pattern in (1, 2, 3):
                assert (await _raw_request(router.socket_path, _compute_line(pattern)))["ok"]
            for server in servers:
                await server.stop()
            down = await _raw_request(router.socket_path, _compute_line(4))
            assert down["error"]["type"] == "ShardDownError"
            snap = router.snapshot()
            r = snap["router"]
            assert (r["requests"], r["completed"], r["errors"]) == (4, 3, 1)
            assert r["requests"] == r["completed"] + r["errors"] + r["open_requests"]
            assert sum(s["forwards"] for s in snap["shards"].values()) == r["completed"]
            # Each count is its registry family read back.
            families = parse_prometheus_text(router.metrics.prometheus_text())
            for key, name in (("requests", "repro_router_requests_total"),
                              ("completed", "repro_router_forwards_total"),
                              ("errors", "repro_router_request_errors_total")):
                assert r[key] == sum(x["value"] for x in families[name]["samples"])

        _router_scenario(handler, shards=2)(tmp_path)

    def test_dead_shard_reroutes_to_ring_successor(self, tmp_path):
        async def handler(router, servers):
            line = _compute_line(2, size=24)
            home = router.ring.route(routing_key(line))
            expected = await _raw_request(router.socket_path, line)
            await servers[home].stop()  # the home shard goes away
            reply = await _raw_request(router.socket_path, line)
            assert reply["ok"]
            assert reply["result"] == expected["result"]  # bit-identical
            assert router.snapshot()["router"]["reroutes"] >= 1

        _router_scenario(handler)(tmp_path)

    def test_open_breaker_skips_the_shard_without_an_attempt(self, tmp_path):
        async def handler(router, servers):
            line = _compute_line(3)
            home = router.ring.route(routing_key(line))
            await servers[home].stop()
            # Let the probes trip the breaker all the way open.
            deadline = asyncio.get_running_loop().time() + 5.0
            while (router.breakers[home].state != OPEN
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.02)
            assert router.breakers[home].state == OPEN
            reply = await _raw_request(router.socket_path, line)
            assert reply["ok"]
            assert router.snapshot()["shards"][str(home)]["forwards"] == 0

        _router_scenario(handler)(tmp_path)

    def test_all_shards_down_is_a_typed_error(self, tmp_path):
        async def handler(router, servers):
            for server in servers:
                await server.stop()
            reply = await _raw_request(
                router.socket_path, _compute_line(1)
            )
            assert not reply["ok"]
            assert reply["error"]["type"] == "ShardDownError"

        _router_scenario(handler, shards=2)(tmp_path)

    def test_hedged_request_wins_on_the_successor(self, tmp_path):
        async def handler(router, servers):
            line = _compute_line(5, size=24)
            home = router.ring.route(routing_key(line))
            expected = await _raw_request(router.socket_path, line)
            # Hang the *forward* to the home shard (router-side fault
            # site); the hedge fires after hedge_s and wins.
            install_plan(FaultPlan(seed=1, faults=(
                FaultSpec("svc:route", "hang", task=home),
            )))
            try:
                reply = await asyncio.wait_for(
                    _raw_request(router.socket_path, line), timeout=10
                )
            finally:
                install_plan(None)
            assert reply["ok"]
            assert reply["result"] == expected["result"]
            assert router.snapshot()["router"]["hedges"] == 1
            assert router.snapshot()["router"]["hedge_wins"] == 1

        _router_scenario(handler, hedge_s=0.05)(tmp_path)

    def test_abandoned_half_open_trial_reopens_the_breaker(self, tmp_path):
        """A half-open breaker's trial forward that loses to the hedge is
        a failure: the breaker re-opens (it does not stay half-open,
        where no probe is admitted) and the resumed probes close it."""

        async def handler(router, servers):
            loop = asyncio.get_running_loop()
            line = _compute_line(5, size=24)
            home = router.ring.route(routing_key(line))
            breaker = router.breakers[home]

            def gauges():  # (healthy shards, the home shard's state)
                families = parse_prometheus_text(router.metrics.prometheus_text())
                (healthy,) = families["repro_router_healthy_shards"]["samples"]
                (state,) = [s for s in families["repro_router_shard_state"]["samples"]
                            if s["labels"] == {"shard": str(home)}]
                return healthy["value"], state["value"]

            await cancel_and_reap(router._tasks[home])  # the home shard's monitor
            for _ in range(breaker.fail_threshold):
                breaker.record_failure()
            assert breaker.state == OPEN
            await asyncio.sleep(breaker.cooldown_s * 1.5)  # cooldown long past
            # The request's allow() takes the half-open trial; the forward
            # hangs, so the hedge to the ring successor wins.
            install_plan(FaultPlan(seed=1, faults=(
                FaultSpec("svc:route", "hang", task=home),
            )))
            try:
                reply = await asyncio.wait_for(
                    _raw_request(router.socket_path, line), timeout=10
                )
            finally:
                install_plan(None)
            assert reply["ok"]
            r = router.snapshot()["router"]
            assert (r["hedges"], r["hedge_wins"]) == (1, 1)
            assert breaker.state == OPEN
            assert breaker.cooldown_s == pytest.approx(2 * router.config.open_s)
            assert not breaker.recovered()
            assert gauges() == (2, 2.0)
            monitor = asyncio.ensure_future(router.monitors[home].run())
            try:
                deadline = loop.time() + 5.0
                while not breaker.recovered() and loop.time() < deadline:
                    await asyncio.sleep(0.02)
            finally:
                await cancel_and_reap(monitor)
            assert breaker.recovered()
            assert breaker.state == CLOSED
            assert router.healthy_shards == 3
            assert gauges() == (3, 0.0)

        _router_scenario(handler, hedge_s=0.05)(tmp_path)

    def test_breaker_counts_equal_their_families(self, tmp_path):
        """Every ``shards.*.breaker`` count in ``stats`` is its registry
        family read back, after a breaker opens and recovers."""

        async def handler(router, servers):
            loop = asyncio.get_running_loop()
            for pattern in (1, 2, 3):
                assert (await _raw_request(router.socket_path, _compute_line(pattern)))["ok"]
            breaker = router.breakers[1]
            install_plan(FaultPlan(seed=1, faults=(
                FaultSpec("svc:health", "exception", task=1, times=-1),
            )))
            try:
                deadline = loop.time() + 5.0
                while breaker.state != OPEN and loop.time() < deadline:
                    await asyncio.sleep(0.02)
            finally:
                install_plan(None)
            deadline = loop.time() + 5.0
            while not breaker.recovered() and loop.time() < deadline:
                await asyncio.sleep(0.02)
            assert breaker.recovered()
            # No await between the two reads: no probe can land in between.
            snap = router.snapshot()
            families = parse_prometheus_text(router.metrics.prometheus_text())

            def sample(name, labels):
                (value,) = [s["value"] for s in families[name]["samples"]
                            if s["labels"] == labels]
                return value

            for sid, shard in snap["shards"].items():
                counts = shard["breaker"]
                for key, (name, label, value) in BREAKER_FAMILIES.items():
                    want = sample(name, {"shard": sid, label: value})
                    assert counts[key] == want, (sid, key)
            one = snap["shards"]["1"]["breaker"]
            assert one["failures"] >= router.config.fail_threshold
            assert one["opened"] >= 1 and one["half_opened"] >= 1
            assert one["closed"] >= 1 and one["successes"] >= 1

        _router_scenario(handler)(tmp_path)

    def test_shutdown_op_drains_new_requests(self, tmp_path):
        async def handler(router, servers):
            reply = await request_over_socket(
                router.socket_path, {"op": "shutdown"}
            )
            assert reply["ok"] and reply["result"] == "draining"
            pong = await request_over_socket(router.socket_path, {"op": "ping"})
            assert pong["result"]["draining"] is True
            shed = await _raw_request(router.socket_path, _compute_line(1))
            assert not shed["ok"]
            assert shed["error"]["type"] == "ServiceDrainingError"

        _router_scenario(handler, shards=2)(tmp_path)

    def test_metrics_op_exposes_router_series(self, tmp_path):
        async def handler(router, servers):
            await _raw_request(router.socket_path, _compute_line(4))
            text = (await request_over_socket(
                router.socket_path, {"op": "metrics"}
            ))["result"]
            assert "repro_router_requests_total" in text
            assert "repro_router_healthy_shards" in text

        _router_scenario(handler, shards=2)(tmp_path)


class TestCancelAndReap:
    """Teardown robustness: stop() must survive a swallowed cancel.

    ``asyncio.wait_for`` on 3.11 can consume an external cancellation
    that lands as its inner future settles; a monitor/batcher loop then
    keeps running with the cancel request spent and a bare
    ``task.cancel(); await task`` hangs forever (the flake this guards
    against showed up as a 60s timeout in ``ShardRouter.stop()``).
    """

    def test_reaps_a_task_that_swallows_the_first_cancel(self):
        async def scenario():
            swallowed = asyncio.Event()

            async def stubborn():
                # Model of the wait_for race: the first cancellation is
                # absorbed and the loop keeps going; only a *second*
                # cancel terminates it.
                absorbed = False
                while True:
                    try:
                        await asyncio.sleep(3600)
                    except asyncio.CancelledError:
                        if absorbed:
                            raise
                        absorbed = True
                        swallowed.set()

            task = asyncio.ensure_future(stubborn())
            await asyncio.sleep(0)  # let it park in the sleep
            await asyncio.wait_for(
                cancel_and_reap(task, poke_s=0.01), timeout=5.0
            )
            assert task.done()
            assert swallowed.is_set()  # the race actually happened

        asyncio.run(scenario())

    def test_plain_task_is_reaped_on_the_first_cancel(self):
        async def scenario():
            task = asyncio.ensure_future(asyncio.sleep(3600))
            await asyncio.sleep(0)
            await asyncio.wait_for(cancel_and_reap(task), timeout=5.0)
            assert task.cancelled()

        asyncio.run(scenario())


class TestRouterConfig:
    def test_shard_sockets_fix_the_shard_count(self):
        cfg = RouterConfig(shards=5, shard_sockets=["/tmp/a", "/tmp/b"])
        assert cfg.shards == 2
        assert not cfg.spawn

    def test_spawn_mode_by_default(self):
        assert RouterConfig().spawn

    def test_validation(self):
        with pytest.raises(ValidationError):
            RouterConfig(shards=0)
        with pytest.raises(ValidationError):
            RouterConfig(hedge_s=0.0)
        with pytest.raises(ValidationError):
            RouterConfig(workers_per_shard=0)
        with pytest.raises(ValidationError):
            RouterConfig(drain_deadline_s=-1.0)

    def test_long_shard_socket_fails_at_construction(self, tmp_path):
        long_path = "/tmp/" + "x" * 120
        with pytest.raises(ValidationError, match="sun_path"):
            ShardRouter(
                str(tmp_path / "r.sock"),
                RouterConfig(shard_sockets=[long_path]),
            )


def _instruments():
    from repro.service import ServiceInstruments

    return ServiceInstruments(MetricsRegistry())


def _cache(**kw):
    from repro.service import ResultCache

    return ResultCache(instruments=_instruments(), **kw)


class TestAdmissionExpiryVsShed:
    """The documented race between deadline expiry and load shedding:
    expiry is settled at *dequeue* time, so an expired-but-undequeued
    request still occupies its admission slot and new arrivals shed."""

    def test_expired_residents_still_hold_their_slots(self):
        from repro.service import AdmissionQueue, MicroBatcher, PendingRequest
        from repro.utils.errors import ServiceOverloadError, TaskTimeoutError

        async def scenario():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(depth=2, timeout_s=0.01, instruments=_instruments())
            r1 = PendingRequest("histogram", None, (), loop.create_future())
            r2 = PendingRequest("histogram", None, (), loop.create_future())
            queue.admit(r1)
            queue.admit(r2)
            await asyncio.sleep(0.05)  # both expire *while queued*
            assert r1.expired() and r2.expired()
            # Shedding is depth-based, not expiry-aware: the expired
            # residents are not silently evicted to make room.
            shed = PendingRequest("histogram", None, (), loop.create_future())
            with pytest.raises(ServiceOverloadError):
                queue.admit(shed)
            assert queue.snapshot()["shed"] == 1
            assert len(queue) == 2

            # The consumer settles the race: both residents fail with
            # the timeout (never dispatched), freeing their slots.
            dispatched = []

            async def execute(key, reqs):
                dispatched.append(reqs)

            batcher = MicroBatcher(queue, execute)
            batcher._absorb(await queue.get())
            batcher._absorb(await queue.get())
            assert batcher.snapshot()["expired"] == 2
            assert not dispatched
            with pytest.raises(TaskTimeoutError):
                r1.future.result()
            with pytest.raises(TaskTimeoutError):
                r2.future.result()
            # Admission resumes immediately on the freed slots.
            fresh = PendingRequest("histogram", None, (), loop.create_future())
            queue.admit(fresh)
            assert queue.snapshot()["admitted"] == 3

        asyncio.run(scenario())

    def test_expiry_does_not_count_as_shed(self):
        from repro.service import AdmissionQueue, MicroBatcher, PendingRequest

        async def scenario():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(depth=4, timeout_s=0.01, instruments=_instruments())
            req = PendingRequest("histogram", None, (), loop.create_future())
            queue.admit(req)
            await asyncio.sleep(0.05)

            async def execute(key, reqs):
                pass

            batcher = MicroBatcher(queue, execute)
            batcher._absorb(await queue.get())
            # The two overload paths stay distinct in the stats.
            assert queue.snapshot()["shed"] == 0
            assert batcher.snapshot()["expired"] == 1

        asyncio.run(scenario())


class TestCacheByteBounds:
    """A single result larger than ``max_bytes`` must be refused
    outright -- not admitted at the cost of evicting every resident."""

    def test_oversized_entry_is_uncacheable_not_an_eviction_storm(self):
        cache = _cache(max_entries=8, max_bytes=64)
        small = np.zeros(8, dtype=np.uint8)  # 8 bytes each
        assert cache.put("a", small)
        assert cache.put("b", small)
        big = np.zeros(128, dtype=np.uint8)  # 128 > 64
        assert not cache.put("big", big)
        assert "big" not in cache
        assert cache.snapshot()["uncacheable"] == 1
        assert cache.snapshot()["evictions"] == 0  # residents untouched
        assert len(cache) == 2
        assert cache.get("a") is not None
        assert cache.get("b") is not None
        assert cache.snapshot()["bytes"] == 16

    def test_exactly_at_limit_is_admitted_and_evicts_lru(self):
        cache = _cache(max_entries=8, max_bytes=64)
        small = np.zeros(8, dtype=np.uint8)
        cache.put("a", small)
        cache.put("b", small)
        exact = np.zeros(64, dtype=np.uint8)  # == max_bytes: cacheable
        assert cache.put("exact", exact)
        assert "exact" in cache
        # Fitting it required evicting both LRU residents.
        assert cache.snapshot()["evictions"] == 2
        assert len(cache) == 1
        assert cache.snapshot()["bytes"] == 64
