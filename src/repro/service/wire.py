"""Client-side wire codecs for the socket front-end.

:class:`~repro.service.lines.LineConnection` is the shared client
connection (one JSON line out, one line back).  This module layers the
two wire modes of ``docs/SERVICE.md`` on top of it:

* ``ndjson`` -- pixels ride the socket as base64 (portable fallback;
  works across hosts sharing nothing but the socket).
* ``shmem``  -- the zero-copy plane: the client writes its image into
  a POSIX shared segment once, stamps a content digest, and the socket
  carries a ~200 byte descriptor; replies come back the same way as
  server-minted segments the client must ``shm_release``.

:class:`WireClient` is the protocol-complete client: one persistent
connection (reply-segment lifetime is pinned to the connection that
requested it, so release must happen on the *same* connection), both
wire modes, typed error rehydration, and guaranteed teardown of every
segment it ever minted -- ``async with`` it and the leakcheck holds.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from repro.obs.trace import TraceContext
from repro.runtime.shmem import (
    SharedNDArray,
    ShmDescriptor,
    verify_descriptor_digest,
)
from repro.service.lines import LineConnection, json_line
from repro.service.ops import OPS
from repro.service.server import decode_array, encode_array
from repro.utils import errors as _errors
from repro.utils.errors import ReproError

__all__ = [
    "WireClient",
    "mint_shared_image",
    "raise_reply_error",
]


def raise_reply_error(reply: dict) -> dict:
    """Pass an ok reply through; raise the typed error of a failed one.

    The error object's ``type`` is looked up in the
    :mod:`repro.utils.errors` hierarchy (exactly as the service's own
    worker-marker rehydration does), so a client sees the same
    exception class it would have seen calling in-process.
    """
    if not isinstance(reply, dict):
        raise ReproError(f"malformed service reply: {reply!r}")
    if reply.get("ok"):
        return reply
    err = reply.get("error") or {}
    name, message = err.get("type", "ReproError"), err.get("message", "")
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        raise cls(message)
    raise ReproError(f"service error ({name}): {message}")


def mint_shared_image(image: np.ndarray) -> tuple[SharedNDArray, ShmDescriptor]:
    """Copy ``image`` into a fresh client-owned segment + its descriptor.

    The caller owns the segment: keep it alive until every request that
    names it has been *answered* (a worker may attach on a cache miss),
    then ``close()`` and ``unlink()`` it.  The digest is computed here,
    client-side -- the server keys its cache on it without reading a
    pixel.
    """
    seg = None
    try:
        seg = SharedNDArray.from_array(np.ascontiguousarray(image))
        desc = ShmDescriptor.for_array(seg.name, seg.array)
        out, seg = seg, None  # ownership transferred to the caller
    finally:
        if seg is not None:
            seg.close()
            seg.unlink()
    return out, desc


class WireClient:
    """Async client for the ndjson socket protocol, both wire modes.

    ::

        async with WireClient(path, wire="shmem") as client:
            hist = await client.compute("histogram", image, k=256)

    ``wire`` picks the default for both directions: how the image
    leaves this process and how the reply is asked for.  Per-call
    ``wire=`` overrides it; passing a pre-minted
    :class:`~repro.runtime.shmem.ShmDescriptor` as the image skips the
    segment copy entirely (the steady-state shape for a client hammering
    one image).
    """

    def __init__(self, socket_path: str, *, wire: str = "ndjson"):
        if wire not in ("ndjson", "shmem"):
            raise _errors.ValidationError(
                f"unknown wire mode {wire!r}; known: ['ndjson', 'shmem']"
            )
        self.socket_path = str(socket_path)
        self.wire = wire
        self._conn: LineConnection | None = None
        self._next_id = 0

    async def connect(self) -> "WireClient":
        if self._conn is None:
            self._conn = await LineConnection.open(self.socket_path)
        return self

    async def aclose(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.aclose()

    async def __aenter__(self) -> "WireClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def request(self, obj: dict) -> dict:
        """Send one raw request object, await its reply (not rehydrated)."""
        if self._conn is None:
            await self.connect()
        return json.loads(await self._conn.exchange(json_line(obj)))

    async def compute(self, op: str, image, *, wire: str | None = None,
                      trace: TraceContext | None = None, **params) -> np.ndarray:
        """One compute round trip; returns the result array.

        Raises the same typed errors the in-process client would.
        """
        if op not in OPS:
            raise _errors.ValidationError(
                f"unknown service op {op!r}; known: {list(OPS)}"
            )
        wire = self.wire if wire is None else wire
        self._next_id += 1
        obj = {
            "id": self._next_id,
            "op": op,
            "params": dict(params),
            "wire": wire,
            "trace": (trace if trace is not None else TraceContext.mint()).to_wire(),
        }
        seg = None
        try:
            if isinstance(image, ShmDescriptor):
                obj["image"] = {"shm": image.to_wire()}
            elif wire == "shmem":
                seg, desc = mint_shared_image(np.asarray(image))
                obj["image"] = {"shm": desc.to_wire()}
            else:
                obj["image"] = encode_array(np.asarray(image))
            reply = raise_reply_error(await self.request(obj))
        finally:
            # The request segment outlived its answer; a cache hit never
            # read it, a miss is done with it -- either way it dies now.
            if seg is not None:
                seg.close()
                seg.unlink()
        return await self._materialize_result(reply["result"])

    async def _materialize_result(self, result) -> np.ndarray:
        """Decode a reply payload; shmem replies are copied, verified,
        and released (on this same connection, which owns them)."""
        if isinstance(result, dict) and "shm" in result:
            desc = ShmDescriptor.from_wire(result["shm"])
            try:
                seg = SharedNDArray.attach_descriptor(desc)
                try:
                    out = np.array(seg.array, copy=True)
                finally:
                    seg.close()
                verify_descriptor_digest(desc, out)
            finally:
                with contextlib.suppress(ReproError):
                    raise_reply_error(
                        await self.request({"op": "shm_release", "name": desc.name})
                    )
            return out
        return decode_array(result)
