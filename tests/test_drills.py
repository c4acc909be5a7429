"""Tests for :mod:`repro.drills` and the commands that call it."""

import asyncio
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro import drills
from repro.cli import main
from repro.faults import assert_no_shm_leak
from repro.service import (
    BatchService,
    RouterConfig,
    ServiceConfig,
    ServiceServer,
    ShardRouter,
    request_over_socket,
)
from repro.service.router import shard_environment
from repro.utils.errors import ReproError, ValidationError


@pytest.fixture
def short_tmp(tmp_path):
    """``tmp_path``, or a fresh directory under /tmp when ``tmp_path`` is
    too long for a unix socket nested two levels inside it."""
    if len(os.fsencode(tmp_path)) <= 60:
        yield tmp_path
        return
    path = pathlib.Path(tempfile.mkdtemp(prefix="drills-", dir="/tmp"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class TestTempDirsReleased:
    """Drills and routers leave nothing behind in the temp directory."""

    def test_serve_selftest(self, short_tmp, monkeypatch, capsys):
        monkeypatch.setattr(tempfile, "tempdir", str(short_tmp))
        assert main(["serve", "--selftest", "--workers", "1"]) == 0
        assert "selftest OK" in capsys.readouterr().out
        assert list(short_tmp.iterdir()) == []

    def test_router_removes_the_dir_it_made(self, short_tmp, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(short_tmp))

        async def scenario():
            router = ShardRouter(str(short_tmp / "r.sock"), RouterConfig(shards=1))
            await router.start()
            await router.stop()

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())
        # stop() unlinks the socket it bound (asyncio leaves it before 3.13).
        assert list(short_tmp.iterdir()) == []

    def test_server_removes_the_socket_it_bound(self, short_tmp):
        async def scenario():
            server = ServiceServer(
                BatchService(ServiceConfig(workers=1)), str(short_tmp / "svc.sock")
            )
            await server.start()
            await server.stop()

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())
        assert list(short_tmp.iterdir()) == []

    def test_router_removes_its_dir_when_construction_fails(self, monkeypatch):
        # A limit with room for the router's own socket but for no shard
        # socket, not even under /tmp: construction fails after the
        # router made its runtime dir.
        import repro.service.lines as lines

        made = []
        mkdtemp = tempfile.mkdtemp

        def spy(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", spy)
        monkeypatch.setattr(lines, "SUN_PATH_MAX", len("/tmp/r.sock"))
        with pytest.raises(ValidationError, match="sun_path"):
            ShardRouter("/tmp/r.sock", RouterConfig(shards=1))
        assert len(made) == 1 and not os.path.exists(made[0])

    def test_router_binds_under_tmp_when_the_temp_dir_is_too_deep(
        self, tmp_path, monkeypatch
    ):
        deep = tmp_path / ("d" * 100)
        deep.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(deep))
        router = ShardRouter("/tmp/repro-test-r.sock", RouterConfig(shards=2))
        try:
            runtime = os.path.dirname(router.shard_sockets[1])
            assert os.path.dirname(runtime) == "/tmp"
            assert os.path.basename(runtime).startswith("repro-shards-")
        finally:
            router._remove_own_dir()
        assert not os.path.exists(runtime)
        assert list(deep.iterdir()) == []

    def test_serve_selftest_under_a_deep_temp_dir(self, tmp_path, monkeypatch, capsys):
        deep = tmp_path / ("d" * 100)
        deep.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(deep))
        assert main(["serve", "--selftest", "--workers", "1"]) == 0
        assert "selftest OK" in capsys.readouterr().out
        assert list(deep.iterdir()) == []

    def test_router_keeps_a_dir_it_was_given(self, tmp_path):
        runtime = tmp_path / "rt"
        runtime.mkdir()

        async def scenario():
            router = ShardRouter(
                str(tmp_path / "r.sock"),
                RouterConfig(shards=1, runtime_dir=str(runtime)),
            )
            await router.start()
            await router.stop()

        asyncio.run(scenario())
        assert runtime.is_dir()


class TestTraceCommand:
    @pytest.mark.parametrize("engine", ["sim", "darray"])
    def test_writes_a_valid_trace_and_metrics(self, engine, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        code = main([
            "trace", "--engine", engine, "--pattern", "4", "--size", "64",
            "-p", "4", "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 0, capsys.readouterr().err
        obj = json.loads(trace.read_text())
        validate_chrome_trace(obj)
        assert any(e.get("ph") == "X" for e in obj["traceEvents"])
        snap = json.loads(metrics.read_text())
        assert snap["schema"] == "repro-obs-metrics/v1"
        assert snap["clock"] == ("sim" if engine == "sim" else "wall")


class _WrongReference(drills.SocketHarness):
    """A harness whose last reference histogram is off by one count."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refs[-1] = self.refs[-1].copy()
        self.refs[-1][0] += 1


class TestSocketHarness:
    def test_counts_the_reply_that_differs(self):
        harness = _WrongReference(drills.seeded_images(1, 3))

        async def drill(h):
            def make(path):
                return ServiceServer(BatchService(ServiceConfig(workers=1)), path)

            async with h.serving(make):
                await h.stream()

        harness.run(drill)
        assert (harness.served, harness.mismatches) == (3, 1)
        assert not os.path.exists(harness.dir)

    def test_removes_its_dir_when_the_drill_raises(self):
        harness = drills.SocketHarness(drills.seeded_images(2, 1))

        async def drill(h):
            raise ReproError("drill failed")

        with pytest.raises(ReproError, match="drill failed"):
            harness.run(drill)
        assert not os.path.exists(harness.dir)

    def test_router_selftest_fails_on_a_wrong_reply(self, monkeypatch, capsys):
        monkeypatch.setattr(drills, "SocketHarness", _WrongReference)
        code = main(["serve", "--selftest", "--shards", "2", "--workers", "1"])
        assert code == 2
        assert "diverged from the serial reference" in capsys.readouterr().err


class TestPlainServeImports:
    def test_serve_never_imports_the_drills(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        log = tmp_path / "importtime.log"
        argv = [sys.executable, "-X", "importtime", "-m", "repro", "serve",
                "--socket", sock, "--workers", "1"]
        with open(log, "w") as err:
            proc = subprocess.Popen(
                argv, env=shard_environment(), stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                deadline = time.monotonic() + 60.0
                while True:
                    try:
                        reply = asyncio.run(request_over_socket(sock, {"op": "ping"}))
                        break
                    except OSError:
                        assert proc.poll() is None, "server exited early"
                        assert time.monotonic() < deadline, "server never came up"
                        time.sleep(0.05)
                assert reply["ok"]
                assert asyncio.run(request_over_socket(sock, {"op": "shutdown"}))["ok"]
                assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        modules = log.read_text()
        assert "repro.cli" in modules and "repro.service" in modules
        assert "repro.drills" not in modules


def test_seeded_images_are_reproducible():
    a, b = drills.seeded_images(7, 2), drills.seeded_images(7, 2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert a[0].shape == (48, 48) and a[0].dtype == np.uint8
