"""Property tests for the zero-copy wire plane's validation surface.

Descriptors are the only thing the socket carries for a shmem request,
so :meth:`ShmDescriptor.from_wire` is a parser of hostile input and is
fuzzed as one: malformed names, alien dtypes, adversarial shapes,
digest strings that are almost hex.  Every rejection must be a typed
:class:`ValidationError` -- and on a live server every failure mode
(unknown segment, undersized segment, tampered pixels, double release)
must come back as a typed JSON error on that request alone, with the
connection, the worker pool, and the next request all unharmed.

The :class:`ShmArena` refcount/ownership rules get direct unit tests:
exactly-once release is a protocol guarantee the leakcheck relies on.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.leakcheck import assert_no_shm_leak
from repro.images import binary_test_image
from repro.runtime.shmem import (
    MAX_SEGMENT_BYTES,
    SHARABLE_DTYPES,
    SharedNDArray,
    ShmArena,
    ShmDescriptor,
    array_digest,
    verify_descriptor_digest,
)
from repro.service import (
    BatchService,
    ServiceConfig,
    ServiceServer,
    WireClient,
    mint_shared_image,
)
from repro.service.ops import materialize_request_image
from repro.utils.errors import CorruptPayloadError, ValidationError

# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------


def _wire(name="psm_test", dtype="uint8", shape=(4, 4), digest="0" * 64):
    return {"name": name, "dtype": dtype, "shape": list(shape), "digest": digest}


class TestDescriptorParsing:
    @given(
        dtype=st.sampled_from(SHARABLE_DTYPES),
        shape=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    )
    def test_roundtrip_identity(self, dtype, shape):
        arr = np.zeros(shape, dtype=dtype)
        desc = ShmDescriptor.for_array("psm_roundtrip", arr)
        again = ShmDescriptor.from_wire(desc.to_wire())
        assert again == desc
        assert again.nbytes == arr.nbytes

    @given(obj=st.one_of(st.none(), st.integers(), st.text(), st.lists(st.integers())))
    def test_non_object_rejected(self, obj):
        with pytest.raises(ValidationError):
            ShmDescriptor.from_wire(obj)

    @given(name=st.one_of(
        st.just(""),
        st.just("/psm_absolute"),
        st.just("../escape"),
        st.just("a/b"),
        st.text(alphabet="/\\\x00 \n\t$", min_size=1, max_size=8),
        st.text(min_size=251, max_size=260, alphabet="a"),
        st.integers(),
        st.none(),
    ))
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValidationError, match="name"):
            ShmDescriptor.from_wire(_wire(name=name))

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
# digest verification + worker-side materialization
# ---------------------------------------------------------------------------


class TestMaterialization:
    def test_unknown_segment_is_validation_error(self):
        desc = ShmDescriptor(
            name="psm_never_created_0xdead", dtype="uint8",
            shape=(4, 4), digest="0" * 64,
        )
        with pytest.raises(ValidationError, match="unknown shared-memory segment"):
            materialize_request_image(desc)

    def test_shape_mismatch_vs_segment_size_is_validation_error(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        with assert_no_shm_leak():
            seg, desc = mint_shared_image(img)
            try:
                # Same segment, but a claimed view far past its real size
                # (well past page rounding).
                lying = ShmDescriptor(
                    name=desc.name, dtype="int64",
                    shape=(256, 256), digest=desc.digest,
                )
                with pytest.raises(ValidationError, match="holds only"):
                    materialize_request_image(lying)
            finally:
                seg.close()
                seg.unlink()

    def test_tampered_pixels_raise_corrupt_payload(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        with assert_no_shm_leak():
            seg, desc = mint_shared_image(img)
            try:
                seg.array[0, 0] += 1  # tamper after digesting
                with pytest.raises(CorruptPayloadError, match="digest"):
                    materialize_request_image(desc)
            finally:
                seg.close()
                seg.unlink()

    @given(shape=st.lists(st.integers(1, 16), min_size=1, max_size=2))
    def test_verify_accepts_only_the_hashed_bytes(self, shape):
        arr = np.ones(shape, dtype=np.int32)
        desc = ShmDescriptor.for_array("psm_x", arr)
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
            assert desc.name in arena
            arena.release(desc.name)
            assert desc.name not in arena
            with pytest.raises(ValidationError, match="already-released"):
                arena.release(desc.name)

    def test_release_unknown_name_rejected(self):
        arena = ShmArena()
        with pytest.raises(ValidationError, match="unknown"):
            arena.release("psm_never_minted")

    def test_checkout_refcounts_one_mapping(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        with assert_no_shm_leak():
            seg, desc = mint_shared_image(img)
            try:
                arena = ShmArena()
                a = arena.checkout(desc)
                b = arena.checkout(desc)
                assert a is b  # shared mapping under refcount
                arena.checkin(desc.name)
                assert desc.name in arena  # still one ref out
                arena.checkin(desc.name)
                assert desc.name not in arena
                with pytest.raises(ValidationError):
                    arena.checkin(desc.name)
            finally:
                seg.close()
                seg.unlink()

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

        async def scenario():
            async with _live_server(tmp_path) as (sock, _server):
                async with WireClient(sock, wire="shmem") as client:
                    # 1. unknown segment name
                    ghost = ShmDescriptor(
                        name="psm_ghost_segment", dtype="uint8",
                        shape=(16, 16), digest="0" * 64,
                    )
                    with pytest.raises(ValidationError, match="unknown shared-memory"):
                        await client.compute("histogram", ghost, k=256)

                    # 2. dtype/shape mismatch vs the segment's true size
                    seg, desc = mint_shared_image(img)
                    try:
                        lying = ShmDescriptor(
                            name=desc.name, dtype="int64",
                            shape=(512, 512), digest=desc.digest,
                        )
                        with pytest.raises(ValidationError, match="holds only"):
                            await client.compute("histogram", lying, k=256)

                        # 3. digest mismatch (tampered pixels)
                        tampered = ShmDescriptor(
                            name=desc.name, dtype=desc.dtype,
                            shape=desc.shape, digest="f" * 64,
                        )
                        with pytest.raises(CorruptPayloadError):
                            await client.compute("histogram", tampered, k=256)

                        # ...and the service is unharmed: the very same
                        # connection serves a good request right after.
                        good = await client.compute("histogram", desc, k=256)
                        assert int(good.sum()) == img.size

                        # 4. double release of a reply segment
                        reply = await client.request({
                            "op": "components",
                            "image": {"shm": desc.to_wire()},
                            "wire": "shmem",
                        })
                        # (cache hit is fine -- the reply segment is
                        # minted either way because the reply wire asks
                        # for shmem)
                        name = reply["result"]["shm"]["name"]
                        ok = await client.request(
                            {"op": "shm_release", "name": name})
                        assert ok["ok"]
                        dup = await client.request(
                            {"op": "shm_release", "name": name})
                        assert not dup["ok"]
                        assert dup["error"]["type"] == "ValidationError"
                        assert "already-released" in dup["error"]["message"]
                    finally:
                        seg.close()
                        seg.unlink()

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())

    def test_malformed_descriptor_never_reaches_a_worker(self, tmp_path):
        async def scenario():
            async with _live_server(tmp_path) as (sock, server):
                async with WireClient(sock) as client:
                    reply = await client.request({
                        "op": "histogram",
                        "image": {"shm": {"name": "/etc/passwd", "dtype": "uint8",
                                          "shape": [4], "digest": "0" * 64}},
                        "params": {"k": 256},
                    })
                    assert not reply["ok"]
                    assert reply["error"]["type"] == "ValidationError"
                # Rejected at descriptor parse: no task was ever dispatched.
                assert server.service.snapshot()["executor"]["tasks"] == 0

        with assert_no_shm_leak(grace_s=2.0):
            asyncio.run(scenario())
