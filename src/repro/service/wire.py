"""Client-side wire codecs for the socket front-end.

:class:`~repro.service.lines.LineConnection` is the shared client
connection (one JSON line out, one line back).  This module layers the
two wire modes of ``docs/SERVICE.md`` on top of it:

* ``ndjson`` -- pixels ride the socket as base64 (portable fallback;
  works across hosts sharing nothing but the socket).
* ``shmem``  -- the zero-copy plane: the client writes its image into
  a memfd once, stamps a content digest, and the socket carries a
  ~200 byte descriptor; replies come back the same way, as server
  files the client must ``shm_release``.

:class:`WireClient` is the protocol-complete client: one persistent
connection (a reply file's lifetime is pinned to the connection that
requested it, so release must happen on the *same* connection), both
wire modes, typed error rehydration, and guaranteed closing of every
request file it ever made -- ``async with`` it and the leakcheck holds.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from repro.obs.trace import TraceContext
from repro.runtime.shmem import ShmDescriptor, share_array, verify_descriptor_digest
from repro.service.lines import LineConnection, json_line
from repro.service.ops import OPS
from repro.service.server import decode_array, encode_array
from repro.utils import errors as _errors
from repro.utils.errors import ReproError

__all__ = [
    "WireClient",
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


class WireClient:
    """Async client for the ndjson socket protocol, both wire modes.

    ::

        async with WireClient(path, wire="shmem") as client:
            hist = await client.compute("histogram", image, k=256)

    ``wire`` picks the default for both directions: how the image
    leaves this process and how the reply is asked for.  Per-call
    ``wire=`` overrides it; passing a
    :class:`~repro.runtime.shmem.ShmDescriptor` from
    :func:`~repro.runtime.shmem.share_array` as the image skips the copy
    into a fresh file entirely (the steady-state shape for a client
    hammering one image).
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
        request_file = None
        try:
            if isinstance(image, ShmDescriptor):
                obj["image"] = {"shm": image.to_wire()}
            elif wire == "shmem":
                request_file = share_array(np.asarray(image))
                obj["image"] = {"shm": request_file.to_wire()}
            else:
                obj["image"] = encode_array(np.asarray(image))
            reply = raise_reply_error(await self.request(obj))
        finally:
            # The request file outlived its answer; a cache hit never
            # read it, a miss is done with it -- either way it goes now.
            if request_file is not None:
                os.close(request_file.fd)
        return await self._materialize_result(reply["result"])

    async def _materialize_result(self, result) -> np.ndarray:
        """Decode a reply payload; shmem replies are copied, verified,
        and released (on this same connection, which owns them)."""
        if isinstance(result, dict) and "shm" in result:
            desc = ShmDescriptor.from_wire(result["shm"])
            try:
                out = desc.read()
                verify_descriptor_digest(desc, out)
            finally:
                with contextlib.suppress(ReproError):
                    raise_reply_error(
                        await self.request({"op": "shm_release", "inode": desc.inode})
                    )
            return out
        return decode_array(result)
