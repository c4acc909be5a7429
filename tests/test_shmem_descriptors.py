"""Property tests for the zero-copy wire plane's validation surface.

Descriptors are the only thing the socket carries for a shmem request,
so :meth:`ShmDescriptor.from_wire` is a parser of hostile input and is
fuzzed as one: bad file fields, alien dtypes, adversarial shapes,
digest strings that are almost hex.  Every rejection must be a typed
:class:`ValidationError`.  A well-formed descriptor can still name the
wrong thing -- a closed fd, a pipe, a socket, a file on disk, a process
that is gone -- and :func:`open_memfd` must refuse each without
blocking.  On a live server every failure mode must come back as a
typed JSON error on that request alone, with the connection, the
worker pool, and the next request all unharmed.

The :class:`ShmArena` ownership rules get direct unit tests:
exactly-once release is a protocol guarantee the leakcheck relies on.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import socket

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.leakcheck import assert_no_shm_leak
from repro.images import binary_test_image
from repro.runtime.shmem import (
    MAX_SEGMENT_BYTES,
    SHARABLE_DTYPES,
    ShmArena,
    ShmDescriptor,
    array_digest,
    open_memfd,
    share_array,
    verify_descriptor_digest,
)
from repro.service import (
    BatchService,
    ServiceConfig,
    ServiceServer,
    WireClient,
    encode_array,
)
from repro.service.ops import materialize_request_image
from repro.utils.errors import CorruptPayloadError, ValidationError

# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------


def _wire(pid=1, fd=3, inode=7, dtype="uint8", shape=(4, 4), digest="0" * 64):
    return {"pid": pid, "fd": fd, "inode": inode, "dtype": dtype,
            "shape": list(shape), "digest": digest}


def _naming(fd: int, *, pid: int | None = None, inode: int | None = None,
            shape=(16, 16)) -> ShmDescriptor:
    """A well-formed descriptor naming fd ``fd`` of ``pid`` (this process)."""
    return ShmDescriptor(
        pid=os.getpid() if pid is None else pid, fd=fd,
        inode=os.fstat(fd).st_ino if inode is None else inode,
        dtype="uint8", shape=shape, digest="0" * 64,
    )


@contextlib.contextmanager
def _shared(img):
    """``share_array(img)``, its fd closed on the way out."""
    desc = share_array(img)
    try:
        yield desc
    finally:
        os.close(desc.fd)


class TestDescriptorParsing:
    @given(
        dtype=st.sampled_from(SHARABLE_DTYPES),
        shape=st.lists(st.integers(1, 64), min_size=1, max_size=3),
        pid=st.integers(1, 2 ** 22),
        fd=st.integers(0, 2 ** 20),
        inode=st.integers(1, 2 ** 64),
    )
    def test_roundtrip_identity(self, dtype, shape, pid, fd, inode):
        arr = np.zeros(shape, dtype=dtype)
        desc = ShmDescriptor(pid=pid, fd=fd, inode=inode, dtype=dtype,
                             shape=tuple(shape), digest=array_digest(arr))
        again = ShmDescriptor.from_wire(desc.to_wire())
        assert again == desc
        assert again.nbytes == arr.nbytes

    @given(obj=st.one_of(st.none(), st.integers(), st.text(), st.lists(st.integers())))
    def test_non_object_rejected(self, obj):
        with pytest.raises(ValidationError):
            ShmDescriptor.from_wire(obj)

    @given(name=st.one_of(st.just("psm_segment"), st.text(max_size=16)))
    def test_bad_names_rejected(self, name):
        """A descriptor that names its array by a segment name -- the
        schema before memfds -- names no file: it lacks pid, fd and
        inode, and is rejected."""
        obj = _wire()
        for key in ("pid", "fd", "inode"):
            del obj[key]
        obj["name"] = name
        with pytest.raises(ValidationError, match="pid"):
            ShmDescriptor.from_wire(obj)

    @given(
        field=st.sampled_from(["pid", "fd", "inode"]),
        value=st.one_of(
            st.booleans(),
            st.integers(max_value=-1),
            st.floats(allow_nan=True),
            st.text(max_size=8),
            st.none(),
            st.lists(st.integers(), max_size=2),
        ),
    )
    def test_bad_file_fields_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ShmDescriptor.from_wire(_wire(**{field: value}))

    @pytest.mark.parametrize("field", ["pid", "fd", "inode"])
    def test_missing_file_field_rejected(self, field):
        obj = _wire()
        del obj[field]
        with pytest.raises(ValidationError, match=field):
            ShmDescriptor.from_wire(obj)

    @pytest.mark.parametrize("field", ["pid", "inode"])
    def test_zero_pid_or_inode_rejected(self, field):
        with pytest.raises(ValidationError, match=field):
            ShmDescriptor.from_wire(_wire(**{field: 0}))

    @given(dtype=st.one_of(
        st.sampled_from(["float32", "float64", "complex64", "uint64", "bool", "object"]),
        st.text(max_size=8),
        st.none(),
    ))
    def test_bad_dtypes_rejected(self, dtype):
        with pytest.raises(ValidationError, match="dtype"):
            ShmDescriptor.from_wire(_wire(dtype=dtype))

    @given(shape=st.one_of(
        st.just([]),
        st.just([0]),
        st.just([-1, 4]),
        st.just([True, 4]),
        st.just([4, "4"]),
        st.just("4x4"),
        st.none(),
        st.just([2.0, 2]),
    ))
    def test_bad_shapes_rejected(self, shape):
        obj = _wire()
        obj["shape"] = shape
        with pytest.raises(ValidationError, match="shape"):
            ShmDescriptor.from_wire(obj)

    def test_oversize_shape_rejected_without_overflow(self):
        # An adversarial shape whose byte count wraps int64 must not
        # sneak under the cap via wraparound.
        huge = [2 ** 31, 2 ** 31, 4]
        with pytest.raises(ValidationError, match="cap"):
            ShmDescriptor.from_wire(_wire(dtype="int64", shape=huge))
        just_over = [MAX_SEGMENT_BYTES + 1]
        with pytest.raises(ValidationError, match="cap"):
            ShmDescriptor.from_wire(_wire(dtype="uint8", shape=just_over))

    @given(digest=st.one_of(
        st.text(alphabet="0123456789abcdef", min_size=0, max_size=63),
        st.text(alphabet="0123456789abcdef", min_size=65, max_size=70),
        st.just("G" * 64),
        st.just("0" * 63 + "Z"),
        st.integers(),
        st.none(),
    ))
    def test_bad_digests_rejected(self, digest):
        with pytest.raises(ValidationError, match="digest"):
            ShmDescriptor.from_wire(_wire(digest=digest))


# ---------------------------------------------------------------------------
# the one opener: what a descriptor may name
# ---------------------------------------------------------------------------


class TestOpenMemfd:
    def test_opens_the_named_memfd(self):
        with _shared(np.arange(16, dtype=np.uint8)) as desc:
            fd = open_memfd(desc.pid, desc.fd, desc.inode, desc.nbytes)
            try:
                assert os.pread(fd, 16, 0) == bytes(range(16))
            finally:
                os.close(fd)

    def test_wrong_inode_rejected(self):
        with _shared(np.zeros(4, dtype=np.uint8)) as desc:
            with pytest.raises(ValidationError, match="inode"):
                open_memfd(desc.pid, desc.fd, desc.inode + 1, 4)

    def test_undersized_file_rejected(self):
        with _shared(np.zeros(4, dtype=np.uint8)) as desc:
            with pytest.raises(ValidationError, match="holds only 4"):
                open_memfd(desc.pid, desc.fd, desc.inode, 5)

    def test_pipe_rejected_without_blocking(self):
        r, w = os.pipe()  # empty, with a live writer: a blocking read would hang
        try:
            for fd in (r, w):
                with pytest.raises(ValidationError, match="not a repro"):
                    _naming(fd).read()
        finally:
            os.close(r)
            os.close(w)

    def test_socket_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(ValidationError, match="cannot open"):
                _naming(a.fileno()).read()

    def test_regular_file_rejected(self, tmp_path):
        path = tmp_path / "pixels.bin"
        path.write_bytes(bytes(256))
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(ValidationError, match="not a repro"):
                _naming(fd).read()
        finally:
            os.close(fd)

    def test_closed_fd_and_gone_process_rejected(self):
        desc = share_array(np.zeros((16, 16), dtype=np.uint8))
        os.close(desc.fd)
        with pytest.raises(ValidationError, match="cannot open"):
            desc.read()
        with open("/proc/sys/kernel/pid_max") as fh:
            no_such_pid = int(fh.read()) + 1
        with pytest.raises(ValidationError, match="cannot open"):
            dataclasses.replace(desc, pid=no_such_pid).read()


# ---------------------------------------------------------------------------
# digest verification + worker-side materialization
# ---------------------------------------------------------------------------


class TestMaterialization:
    def test_unknown_segment_is_validation_error(self):
        desc = share_array(np.zeros((4, 4), dtype=np.uint8))
        os.close(desc.fd)  # the file is gone: its only fd is closed
        with pytest.raises(ValidationError, match="cannot open fd"):
            materialize_request_image(desc)

    def test_shape_mismatch_vs_segment_size_is_validation_error(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        with assert_no_shm_leak():
            with _shared(img) as desc:
                # Same file, but a claimed view far past its real size.
                lying = dataclasses.replace(desc, dtype="int64", shape=(256, 256))
                with pytest.raises(ValidationError, match="holds only"):
                    materialize_request_image(lying)

    def test_tampered_pixels_raise_corrupt_payload(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        with assert_no_shm_leak():
            with _shared(img) as desc:
                os.pwrite(desc.fd, b"\xff", 0)  # tamper after digesting
                with pytest.raises(CorruptPayloadError, match="digest"):
                    materialize_request_image(desc)

    def test_reads_the_shared_pixels(self):
        img = binary_test_image(5, 16).astype(np.int32)
        with assert_no_shm_leak():
            with _shared(img) as desc:
                out = materialize_request_image(desc)
        assert out.dtype == img.dtype and np.array_equal(out, img)

    @given(shape=st.lists(st.integers(1, 16), min_size=1, max_size=2))
    def test_verify_accepts_only_the_hashed_bytes(self, shape):
        arr = np.ones(shape, dtype=np.int32)
        desc = ShmDescriptor(pid=1, fd=3, inode=7, dtype="int32",
                             shape=tuple(shape), digest=array_digest(arr))
        verify_descriptor_digest(desc, arr)  # identical bytes pass
        with pytest.raises(CorruptPayloadError):
            verify_descriptor_digest(desc, arr * 2)

    def test_digest_matches_cache_digest(self):
        from repro.service import image_digest

        img = binary_test_image(2, 16)
        assert array_digest(img) == image_digest(img)


# ---------------------------------------------------------------------------
# arena lifetime rules
# ---------------------------------------------------------------------------


class TestArena:
    def test_mint_release_exactly_once(self):
        with assert_no_shm_leak():
            arena = ShmArena()
            desc = arena.mint(np.arange(16, dtype=np.int64))
            assert desc.inode in arena
            assert np.array_equal(desc.read(), np.arange(16))
            arena.release(desc.inode)
            assert desc.inode not in arena
            with pytest.raises(ValidationError, match="already-released"):
                arena.release(desc.inode)

    def test_release_unknown_name_rejected(self):
        arena = ShmArena()
        with pytest.raises(ValidationError, match="unknown"):
            arena.release(12345)

    def test_release_is_keyed_by_inode_not_fd(self):
        with assert_no_shm_leak():
            with ShmArena() as arena:
                first = arena.mint(np.zeros(4, dtype=np.uint8))
                arena.release(first.inode)
                second = arena.mint(np.ones(4, dtype=np.uint8))
                assert second.fd == first.fd  # the fd number was reused...
                with pytest.raises(ValidationError, match="already-released"):
                    arena.release(first.inode)  # ...but not the key
                assert second.inode in arena
                assert np.array_equal(second.read(), np.ones(4))

    def test_release_all_is_idempotent_teardown(self):
        with assert_no_shm_leak():
            with ShmArena() as arena:
                for i in range(4):
                    arena.mint(np.full(8, i, dtype=np.int16))
                assert len(arena) == 4
                assert arena.release_all() == 4
                assert arena.release_all() == 0
            # context exit after manual teardown: still clean

    def test_full_arena_rejects_mint(self):
        with assert_no_shm_leak():
            with ShmArena(max_segments=2) as arena:
                arena.mint(np.zeros(4, dtype=np.uint8))
                arena.mint(np.zeros(4, dtype=np.uint8))
                with pytest.raises(ValidationError, match="full"):
                    arena.mint(np.zeros(4, dtype=np.uint8))


# ---------------------------------------------------------------------------
# live-socket typed error replies (never a worker crash)
# ---------------------------------------------------------------------------


@contextlib.asynccontextmanager
async def _live_server(tmp_path):
    sock = str(tmp_path / "svc.sock")
    server = ServiceServer(BatchService(ServiceConfig(workers=1)), sock)
    await server.start()
    try:
        yield sock, server
    finally:
        await server.stop()


class TestLiveSocketErrors:
    def test_each_failure_mode_is_a_typed_reply(self, tmp_path):
        img = binary_test_image(3, 16)
        scratch = tmp_path / "pixels.bin"
        scratch.write_bytes(bytes(img.size))

        async def typed_error(client, desc, match):
            # One worker: had it blocked on a read, this would time out.
            with pytest.raises(ValidationError, match=match):
                await asyncio.wait_for(
                    client.compute("histogram", desc, k=256), timeout=30
                )

        async def scenario():
            async with _live_server(tmp_path) as (sock, _server):
                async with WireClient(sock, wire="shmem") as client:
                    # 1. a file that is gone (its only fd closed)
                    ghost = share_array(img)
                    os.close(ghost.fd)
                    await typed_error(client, ghost, "cannot open fd")

                    # 2-5. well-formed descriptors naming what is no
                    # memfd: the client's own pipe (an empty one, with a
                    # live writer), its socket, a regular file (each with
                    # its true inode), and a process that does not exist.
                    r, w = os.pipe()
                    fd = os.open(scratch, os.O_RDONLY)
                    try:
                        await typed_error(client, _naming(r), "not a repro")
                        conn = client._conn._writer.get_extra_info("socket")
                        await typed_error(client, _naming(conn.fileno()), "cannot open")
                        await typed_error(client, _naming(fd), "not a repro")
                        with open("/proc/sys/kernel/pid_max") as fh:
                            no_such_pid = int(fh.read()) + 1
                        await typed_error(
                            client, _naming(r, pid=no_such_pid), "cannot open"
                        )
                    finally:
                        os.close(r)
                        os.close(w)
                        os.close(fd)

                    with _shared(img) as desc:
                        # 6. dtype/shape mismatch vs the file's true size
                        lying = dataclasses.replace(desc, dtype="int64", shape=(512, 512))
                        await typed_error(client, lying, "holds only")

                        # 7. digest mismatch (tampered pixels)
                        tampered = dataclasses.replace(desc, digest="f" * 64)
                        with pytest.raises(CorruptPayloadError):
                            await client.compute("histogram", tampered, k=256)

                        # ...and the service is unharmed: the very same
                        # connection serves a good request right after.
                        good = await client.compute("histogram", desc, k=256)
                        assert int(good.sum()) == img.size

                        # 8. double release of a reply file
                        reply = await client.request({
                            "op": "components",
                            "image": {"shm": desc.to_wire()},
                            "wire": "shmem",
                        })
                        # (cache hit is fine -- the reply file is minted
                        # either way because the reply wire asks for shmem)
                        inode = reply["result"]["shm"]["inode"]
                        ok = await client.request({"op": "shm_release", "inode": inode})
                        assert ok["ok"]
                        dup = await client.request({"op": "shm_release", "inode": inode})
                        assert not dup["ok"]
                        assert dup["error"]["type"] == "ValidationError"
                        assert "already-released" in dup["error"]["message"]

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())

    def test_release_is_pinned_to_the_connection(self, tmp_path):
        img = binary_test_image(4, 16)

        async def scenario():
            async with _live_server(tmp_path) as (sock, server):
                async with WireClient(sock) as owner, WireClient(sock) as other:
                    reply = await owner.request({
                        "op": "components", "image": encode_array(img), "wire": "shmem",
                    })
                    inode = reply["result"]["shm"]["inode"]
                    stolen = await other.request({"op": "shm_release", "inode": inode})
                    assert not stolen["ok"]
                    assert stolen["error"]["type"] == "ValidationError"
                    assert inode in server.arena
                    ok = await owner.request({"op": "shm_release", "inode": inode})
                    assert ok["ok"] and inode not in server.arena

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())

    def test_malformed_descriptor_never_reaches_a_worker(self, tmp_path):
        async def scenario():
            async with _live_server(tmp_path) as (sock, server):
                async with WireClient(sock) as client:
                    bad = _wire(fd=True)
                    reply = await client.request({
                        "op": "histogram",
                        "image": {"shm": bad},
                        "params": {"k": 256},
                    })
                    assert not reply["ok"]
                    assert reply["error"]["type"] == "ValidationError"
                # Rejected at descriptor parse: no task was ever dispatched.
                assert server.service.snapshot()["executor"]["tasks"] == 0

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())
