"""Tests for the unix-socket JSON front-end of repro.service."""

import asyncio
import contextlib
import json
import logging
import os
import socket
import tempfile

import numpy as np
import pytest

from repro.faults.leakcheck import assert_no_shm_leak
from repro.images import darpa_like
from repro.runtime import share_array
from repro.runtime.shmem import MEMFD_TAG
from repro.service import (
    SUN_PATH_MAX,
    BatchService,
    RouterConfig,
    ServiceConfig,
    ServiceServer,
    ShardRouter,
    WireClient,
    check_socket_path,
    decode_array,
    encode_array,
    request_over_socket,
    socket_dir,
)
from repro.utils.errors import ServiceDrainingError, ValidationError


class TestWireEncoding:
    def test_round_trip(self):
        img = darpa_like(16, 256, seed=1)
        assert np.array_equal(decode_array(encode_array(img)), img)

    def test_round_trip_preserves_dtype(self):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        back = decode_array(encode_array(img))
        assert back.dtype == np.uint8
        assert back.shape == (2, 3)

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValidationError, match="dtype"):
            decode_array({"shape": [2], "dtype": "float64", "data_b64": ""})

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            decode_array({"shape": [2, -1], "dtype": "uint8", "data_b64": ""})

    def test_rejects_bad_base64(self):
        with pytest.raises(ValidationError, match="base64"):
            decode_array({"shape": [1], "dtype": "uint8", "data_b64": "!!!"})

    def test_rejects_size_mismatch(self):
        enc = encode_array(np.arange(4, dtype=np.uint8))
        enc["shape"] = [8]
        with pytest.raises(ValidationError, match="byte"):
            decode_array(enc)

    def test_rejects_overflowing_shape(self):
        # np.prod would wrap to 0 at int64 here and let empty data pass.
        with pytest.raises(ValidationError, match="exceeds"):
            decode_array({"shape": [2**32, 2**32], "dtype": "uint8",
                          "data_b64": ""})

    def test_rejects_over_cap_shape(self):
        with pytest.raises(ValidationError, match="exceeds"):
            decode_array({"shape": [1 << 20, 1 << 10], "dtype": "int64",
                          "data_b64": ""})


def _serve_scenario(handler):
    """Run ``handler(server)`` against a live server on a temp socket.

    Every live-socket scenario -- including ones that end in client
    disconnects or server shutdown -- runs inside the shared-memory
    leak check: a test that leaves a ``/dev/shm`` segment behind, or a
    request or reply memfd open, fails even if its assertions all
    passed.
    """

    async def scenario(tmp_path):
        service = BatchService(ServiceConfig(workers=2))
        server = ServiceServer(service, str(tmp_path / "svc.sock"))
        await server.start()
        try:
            await handler(server)
        finally:
            await server.stop()

    def run(tmp_path):
        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario(tmp_path))

    return run


@contextlib.asynccontextmanager
async def _front_end(kind: str, tmp_path):
    """A started ``ServiceServer`` (``kind="server"``) or a ``ShardRouter``
    over one in-process shard (``kind="router"``); stopped on exit."""
    shard = ServiceServer(
        BatchService(ServiceConfig(workers=1)), str(tmp_path / f"{kind}-shard.sock")
    )
    await shard.start()
    try:
        if kind == "server":
            yield shard
        else:
            router = ShardRouter(
                str(tmp_path / "router.sock"), RouterConfig(shard_sockets=[shard.socket_path])
            )
            await router.start()
            try:
                yield router
            finally:
                await router.stop()
    finally:
        await shard.stop()


#: The two socket front-ends, for the tests that run against both.
FRONT_ENDS = ("server", "router")


class TestSocketServer:
    def test_compute_round_trip(self, tmp_path):
        async def handler(server):
            img = darpa_like(24, 256, seed=2)
            reply = await request_over_socket(
                server.socket_path,
                {"id": 7, "op": "histogram", "image": encode_array(img),
                 "params": {"k": 256}},
            )
            assert reply["ok"] and reply["id"] == 7
            hist = decode_array(reply["result"])
            assert np.array_equal(hist, np.bincount(img.ravel(), minlength=256))

        _serve_scenario(handler)(tmp_path)

    def test_pattern_image_spec(self, tmp_path):
        async def handler(server):
            reply = await request_over_socket(
                server.socket_path,
                {"op": "components", "image": {"pattern": 5, "size": 32}},
            )
            assert reply["ok"]
            labels = decode_array(reply["result"])
            assert labels.shape == (32, 32)

        _serve_scenario(handler)(tmp_path)

    def test_ping_stats_and_cache_hit(self, tmp_path):
        async def handler(server):
            assert (await request_over_socket(
                server.socket_path, {"op": "ping"}
            ))["result"] == "pong"
            img = encode_array(darpa_like(24, 256, seed=3))
            req = {"op": "histogram", "image": img, "params": {"k": 256}}
            await request_over_socket(server.socket_path, req)
            await request_over_socket(server.socket_path, req)
            stats = (await request_over_socket(
                server.socket_path, {"op": "stats"}
            ))["result"]
            assert stats["cache"]["hits"] == 1
            assert stats["service"]["completed"] == 2

        _serve_scenario(handler)(tmp_path)

    def test_errors_are_typed_not_fatal(self, tmp_path):
        async def handler(server):
            bad = await request_over_socket(server.socket_path, {"op": "edges"})
            assert not bad["ok"]
            assert bad["error"]["type"] == "ValidationError"
            garbage = await self._raw_line(server.socket_path, b"not json\n")
            assert not garbage["ok"]
            # The connection-level failure did not wedge the server.
            assert (await request_over_socket(
                server.socket_path, {"op": "ping"}
            ))["result"] == "pong"

        _serve_scenario(handler)(tmp_path)

    async def _raw_line(self, path, line: bytes) -> dict:
        reader, writer = await asyncio.open_unix_connection(path)
        try:
            writer.write(line)
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()

    def test_pipelined_requests_share_one_connection(self, tmp_path):
        async def handler(server):
            reader, writer = await asyncio.open_unix_connection(server.socket_path)
            try:
                for i in range(3):
                    obj = {"id": i, "op": "components",
                           "image": {"pattern": i + 1, "size": 24}}
                    writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                ids = []
                for _ in range(3):
                    reply = json.loads(await reader.readline())
                    assert reply["ok"]
                    ids.append(reply["id"])
                assert sorted(ids) == [0, 1, 2]
            finally:
                writer.close()

        _serve_scenario(handler)(tmp_path)

    def test_large_request_line_is_served(self, tmp_path):
        # A 256x256 int32 image is ~350 KB of base64 -- far past the
        # 64 KiB default StreamReader limit that used to drop the
        # connection before the request was ever parsed.
        async def handler(server):
            img = darpa_like(256, 256, seed=4)
            reply = await request_over_socket(
                server.socket_path,
                {"op": "histogram", "image": encode_array(img),
                 "params": {"k": 256}},
            )
            assert reply["ok"]
            hist = decode_array(reply["result"])
            assert np.array_equal(hist, np.bincount(img.ravel(), minlength=256))

        _serve_scenario(handler)(tmp_path)

    def test_oversized_line_gets_typed_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.lines.MAX_REQUEST_BYTES", 4096)

        async def scenario(kind):
            async with _front_end(kind, tmp_path) as front:
                reader, writer = await asyncio.open_unix_connection(front.socket_path)
                try:
                    writer.write(b"x" * 8192 + b"\n")
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    assert not reply["ok"]
                    assert reply["error"]["type"] == "ValidationError"
                    assert "too large" in reply["error"]["message"]
                    # The unparseable stream is then closed, not resynced.
                    assert await asyncio.wait_for(reader.readline(), timeout=5) == b""
                finally:
                    writer.close()
                # Other connections are unaffected.
                assert (await request_over_socket(
                    front.socket_path, {"op": "ping"}
                ))["ok"]

        for kind in FRONT_ENDS:
            with assert_no_shm_leak(grace_s=2.0):
                asyncio.run(scenario(kind))

    def test_stop_closes_open_connections(self, tmp_path):
        """A connection opened before ``stop()`` reads EOF once ``stop()``
        returns, instead of being answered by a stopped front-end."""

        async def scenario(kind):
            async with _front_end(kind, tmp_path) as front:
                reader, writer = await asyncio.open_unix_connection(front.socket_path)
                try:
                    writer.write(b'{"op": "ping"}\n')
                    await writer.drain()
                    assert json.loads(await reader.readline())["ok"]
                    await front.stop()
                    assert not os.path.exists(front.socket_path)
                    assert await asyncio.wait_for(reader.readline(), timeout=5) == b""
                finally:
                    writer.close()

        for kind in FRONT_ENDS:
            with assert_no_shm_leak(grace_s=2.0):
                asyncio.run(scenario(kind))

    def test_internal_errors_reply_typed(self, tmp_path):
        async def handler(server):
            # int("nope") raises a plain ValueError (not a ReproError);
            # the client must still get a reply, not a hung connection.
            reply = await request_over_socket(
                server.socket_path,
                {"op": "histogram", "image": {"pattern": 1, "size": 8},
                 "params": {"k": "nope"}},
            )
            assert not reply["ok"]
            assert "internal error" in reply["error"]["message"]
            assert (await request_over_socket(
                server.socket_path, {"op": "ping"}
            ))["result"] == "pong"

        _serve_scenario(handler)(tmp_path)

    def test_bad_levels_is_a_validation_error(self, tmp_path):
        async def handler(server):
            reply = await request_over_socket(
                server.socket_path,
                {"op": "histogram",
                 "image": {"pattern": 0, "size": 16, "levels": "many"}},
            )
            assert not reply["ok"]
            assert reply["error"]["type"] == "ValidationError"
            assert "levels" in reply["error"]["message"]

        _serve_scenario(handler)(tmp_path)

    def test_shutdown_request_stops_server(self, tmp_path):
        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            server = ServiceServer(service, str(tmp_path / "svc.sock"))
            await server.start()
            reply = await request_over_socket(server.socket_path, {"op": "shutdown"})
            assert reply["ok"]
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            assert not service.running

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())

    def test_server_stopped_by_shutdown_serves_again(self, tmp_path):
        async def scenario():
            service = BatchService(ServiceConfig(workers=1))
            server = ServiceServer(service, str(tmp_path / "svc.sock"))
            await server.start()
            await request_over_socket(server.socket_path, {"op": "shutdown"})
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            await server.start()
            serving = asyncio.ensure_future(server.serve_until_shutdown())
            try:
                await asyncio.sleep(0.05)
                # The first shutdown request is spent: the restarted
                # server keeps serving until the next one.
                assert not serving.done()
                reply = await request_over_socket(server.socket_path, {"op": "ping"})
                assert reply["result"] == "pong"
                await request_over_socket(server.socket_path, {"op": "shutdown"})
                await asyncio.wait_for(serving, timeout=10)
            finally:
                await server.stop()
            assert not service.running

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())

    def test_shutdown_triggered_before_start_holds(self, tmp_path):
        async def scenario():
            server = ServiceServer(
                BatchService(ServiceConfig(workers=1)), str(tmp_path / "svc.sock")
            )
            server.trigger_shutdown()
            await server.start()
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            assert not os.path.exists(server.socket_path)

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())

    def test_idle_connection_at_shutdown_logs_no_traceback(self, tmp_path, caplog):
        """A handler still waiting for its client's next line when
        ``asyncio.run`` cancels the leftover tasks ends like a hang-up:
        asyncio 3.11's stream callback logs any handler that ends
        cancelled as "Exception in callback"."""
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.setblocking(False)

        async def scenario():
            loop = asyncio.get_running_loop()
            service = BatchService(ServiceConfig(workers=1))
            server = ServiceServer(service, str(tmp_path / "svc.sock"))
            await server.start()
            await loop.sock_connect(client, server.socket_path)
            await loop.sock_sendall(client, b'{"op": "ping"}\n')
            assert json.loads(await loop.sock_recv(client, 1 << 16))["ok"]
            reply = await request_over_socket(server.socket_path, {"op": "shutdown"})
            assert reply["ok"]
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)

        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                with assert_no_shm_leak(grace_s=2.0):
                    asyncio.run(scenario())
        finally:
            client.close()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestSocketPathValidation:
    """sun_path length is checked at *config* time, not at bind()."""

    def test_ok_path_round_trips(self, tmp_path):
        p = tmp_path / "svc.sock"
        assert check_socket_path(p) == str(p)

    def test_bytes_path_is_decoded(self):
        assert check_socket_path(b"/tmp/svc.sock") == "/tmp/svc.sock"

    def test_over_limit_is_a_typed_config_error(self):
        long_path = "/tmp/" + "x" * SUN_PATH_MAX
        with pytest.raises(ValidationError, match="sun_path"):
            check_socket_path(long_path)

    def test_limit_boundary(self):
        exactly = "/" + "x" * (SUN_PATH_MAX - 1)
        assert check_socket_path(exactly) == exactly
        with pytest.raises(ValidationError):
            check_socket_path(exactly + "x")

    def test_server_rejects_long_path_at_construction(self):
        service = BatchService(ServiceConfig(workers=1))
        with pytest.raises(ValidationError, match="sun_path"):
            ServiceServer(service, "/tmp/" + "y" * 200)


class TestSocketDir:
    """A socket directory lands under /tmp when the temp dir is too deep."""

    def test_stays_in_a_temp_dir_with_room(self, tmp_path, monkeypatch):
        base = tmp_path / "t"
        base.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(base))
        name = "s" * (SUN_PATH_MAX - len(os.fsencode(base)) - len("/p-xxxxxxxx/"))
        path = socket_dir("p-", name)
        try:
            assert os.path.dirname(path) == str(base)
            assert check_socket_path(os.path.join(path, name))
        finally:
            os.rmdir(path)

    def test_falls_back_to_tmp_under_a_deep_temp_dir(self, tmp_path, monkeypatch):
        deep = tmp_path / ("d" * 100)
        deep.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(deep))
        path = socket_dir("repro-test-", "shard-9.sock")
        try:
            assert os.path.dirname(path) == "/tmp"
            assert os.path.basename(path).startswith("repro-test-")
            assert check_socket_path(os.path.join(path, "shard-9.sock"))
        finally:
            os.rmdir(path)
        assert list(deep.iterdir()) == []


class TestDrainProtocol:
    def test_draining_sheds_new_submits_but_finishes_admitted(self):
        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            await service.start()
            try:
                img = darpa_like(24, 256, seed=20)
                first = asyncio.ensure_future(
                    service.submit("histogram", img, k=256)
                )
                await asyncio.sleep(0.01)  # let it get admitted
                service.begin_drain()
                assert service.draining
                with pytest.raises(ServiceDrainingError):
                    await service.submit("histogram", img, k=2)
                # The already-admitted request still resolves normally.
                hist = await first
                assert np.array_equal(
                    hist, np.bincount(img.ravel(), minlength=256)
                )
                assert await service.drain() is True
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_drain_deadline_zero_reports_unfinished_work(self):
        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            await service.start()
            try:
                # Pin an open request deterministically (a real compute
                # can finish before a zero-budget drain even looks).
                service._open_requests += 1
                assert await service.drain(0.0) is False
                assert service.draining  # drain still flipped the gate
                service._open_requests -= 1
                assert await service.drain() is True
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_shutdown_op_drains_inflight_compute(self, tmp_path):
        """The shutdown/drain race regression: a compute already on the
        wire when ``shutdown`` lands must still get its typed reply."""

        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            server = ServiceServer(service, str(tmp_path / "svc.sock"))
            await server.start()
            img = darpa_like(64, 256, seed=22)
            inflight = asyncio.ensure_future(request_over_socket(
                server.socket_path,
                {"op": "histogram", "image": encode_array(img),
                 "params": {"k": 256}},
            ))
            await asyncio.sleep(0.01)
            reply = await request_over_socket(
                server.socket_path, {"op": "shutdown"}
            )
            assert reply["ok"] and reply["result"] == "draining"
            first = await inflight
            assert first["ok"]
            hist = decode_array(first["result"])
            assert np.array_equal(hist, np.bincount(img.ravel(), minlength=256))
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=15)
            assert not service.running

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())


class TestShmemWire:
    """Zero-copy wire lifetime rules at the server boundary."""

    def test_shmem_cache_hit_reads_zero_segments(self, tmp_path):
        """A repeated shmem request must be served from the cache
        without touching the request file at all.

        Proven destructively: after the first (miss) request the client
        *closes* the file, so any server-side read on the second request
        would fail with a cannot-open error.  A successful bit-identical
        reply is therefore a proof of zero file reads.
        """

        async def handler(server):
            img = darpa_like(24, 256, seed=9)
            expected = np.bincount(img.ravel(), minlength=256)
            desc = share_array(img)
            async with WireClient(server.socket_path, wire="ndjson") as client:
                try:
                    first = await client.compute("histogram", desc, k=256)
                finally:
                    os.close(desc.fd)  # the file is gone with its only fd
                second = await client.compute("histogram", desc, k=256)
                stats = (await client.request({"op": "stats"}))["result"]
            assert np.array_equal(first, expected)
            assert np.array_equal(second, expected)
            assert stats["cache"]["hits"] == 1

        _serve_scenario(handler)(tmp_path)

    def test_client_disconnect_mid_request_releases_reply_segments(self, tmp_path):
        """A client that vanishes without sending ``shm_release`` --
        before or after reading its shmem reply -- must not leak the
        server's reply file; the connection teardown closes it
        (verified by the leak check around the scenario)."""

        async def handler(server):
            img = darpa_like(24, 256, seed=10)
            for read_reply in (True, False):
                desc = share_array(img)
                try:
                    reader, writer = await asyncio.open_unix_connection(
                        server.socket_path)
                    try:
                        obj = {"op": "histogram",
                               "image": {"shm": desc.to_wire()},
                               "params": {"k": 256}, "wire": "shmem"}
                        writer.write((json.dumps(obj) + "\n").encode())
                        await writer.drain()
                        if read_reply:
                            reply = json.loads(await reader.readline())
                            assert reply["ok"] and "shm" in reply["result"]
                    finally:
                        # Vanish without releasing the reply file.
                        writer.close()
                finally:
                    os.close(desc.fd)
            # Give the server's connection teardown a beat, then prove
            # the arena is empty while the server is still running.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 2.0
            while len(server.arena) and loop.time() < deadline:
                await asyncio.sleep(0.02)
            assert len(server.arena) == 0

        _serve_scenario(handler)(tmp_path)

    def test_respawned_workers_hold_no_reply_files(self, tmp_path):
        """A worker forked while the server holds a reply file -- after
        a respawn, say -- lets go of the fd it inherited, so a released
        reply is freed at once, not when that worker dies."""

        def held(pid: int) -> list[str]:
            fds = f"/proc/{pid}/fd"
            out = []
            for name in os.listdir(fds):
                with contextlib.suppress(OSError):
                    if os.readlink(f"{fds}/{name}").startswith(MEMFD_TAG):
                        out.append(name)
            return out

        async def handler(server):
            img = darpa_like(24, 256, seed=12)
            async with WireClient(server.socket_path) as client:
                reply = await client.request({
                    "op": "histogram", "image": encode_array(img),
                    "params": {"k": 256}, "wire": "shmem",
                })
                inode = reply["result"]["shm"]["inode"]
                supervisor = server.service.executor._supervisor
                supervisor.respawn(reason="test")
                pids = supervisor.worker_pids()  # forks the fresh workers
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while any(held(pid) for pid in pids) and loop.time() < deadline:
                    await asyncio.sleep(0.02)  # their initializer runs after fork
                assert {pid: held(pid) for pid in pids} == {pid: [] for pid in pids}
                ok = await client.request({"op": "shm_release", "inode": inode})
                assert ok["ok"]

        _serve_scenario(handler)(tmp_path)

    def test_server_stop_sweeps_unreleased_reply_segments(self, tmp_path):
        """``stop()`` must close reply files a live client still holds
        -- shutdown beats politeness."""

        async def scenario():
            service = BatchService(ServiceConfig(workers=2))
            server = ServiceServer(service, str(tmp_path / "svc.sock"))
            await server.start()
            img = darpa_like(24, 256, seed=11)
            desc = share_array(img)
            try:
                client = WireClient(server.socket_path, wire="shmem")
                await client.connect()
                reply = await client.request({
                    "op": "histogram", "image": {"shm": desc.to_wire()},
                    "params": {"k": 256}, "wire": "shmem",
                })
                assert reply["ok"] and "shm" in reply["result"]
                assert len(server.arena) == 1
                # Stop with the connection open and the reply unreleased.
                await server.stop()
                assert len(server.arena) == 0
                await client.aclose()
            finally:
                os.close(desc.fd)

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())
