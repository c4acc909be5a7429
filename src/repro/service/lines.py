"""The service tier's socket plumbing: one JSON request line in, one
reply line out, over a unix socket.  :class:`LineServer` is the listener
under ``ServiceServer`` and ``ShardRouter``; every other socket is a
:class:`LineConnection`, and :func:`request_over_socket` is the one-shot.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import tempfile

from repro.obs.trace import TraceContext
from repro.service.ops import OPS
from repro.utils.errors import ReproError, ValidationError

#: Hard cap on one wire request line (64 MiB of base64 covers a
#: 4096x4096 int16 image; anything bigger is a client bug or an attack),
#: and the limit of every stream below: without one, readline() raises
#: on lines past 64 KiB and even a modest base64 image goes unanswered.
MAX_REQUEST_BYTES = 64 << 20

#: Longest usable unix socket path: ``sockaddr_un.sun_path`` is 108
#: bytes on Linux *including* the trailing NUL.  ``bind()`` past it
#: fails with a bare OSError naming neither the limit nor the path;
#: tmpdir-nested shard sockets (pytest tmp_path, mkdtemp under a deep
#: CWD) hit this in practice, so it is validated at config time.
SUN_PATH_MAX = 107


def check_socket_path(path) -> str:
    """Validate a unix socket path against the ``sun_path`` limit.

    Returns the path as ``str``; raises
    :class:`~repro.utils.errors.ValidationError` (instead of the raw
    ``OSError`` a late ``bind()`` would give) when its *encoded* length
    exceeds :data:`SUN_PATH_MAX` bytes.
    """
    path = os.fspath(path)
    if isinstance(path, bytes):
        encoded, path = path, os.fsdecode(path)
    else:
        encoded = os.fsencode(path)
    if len(encoded) > SUN_PATH_MAX:
        raise ValidationError(
            f"unix socket path is {len(encoded)} bytes, over the "
            f"{SUN_PATH_MAX}-byte sun_path limit: {path!r} -- bind under a "
            f"shorter directory (e.g. /tmp)"
        )
    return path


def socket_dir(prefix: str, longest_name: str) -> str:
    """A fresh directory for unix sockets, made with ``tempfile.mkdtemp``.

    It lives in the temp directory unless a socket called
    ``longest_name`` inside it would pass :data:`SUN_PATH_MAX` bytes;
    then it lives under ``/tmp``, so a deep ``TMPDIR`` does not stop a
    socket from binding.  The caller removes it.
    """
    base = tempfile.gettempdir()
    # mkdtemp appends 8 random characters to the prefix.
    longest = os.path.join(base, prefix + "x" * 8, longest_name)
    if len(os.fsencode(longest)) > SUN_PATH_MAX:
        base = "/tmp"
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def json_line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def ok_line(req_id, result, *, trace_id: str | None = None) -> bytes:
    payload = {"id": req_id, "ok": True, "result": result}
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return json_line(payload)


def error_line(req_id, exc: Exception) -> bytes:
    error = {"type": type(exc).__name__, "message": str(exc)}
    return json_line({"id": req_id, "ok": False, "error": error})


class LineServer:
    """A unix-socket listener answering each request line with a reply line.

    The binding, the read-and-reply loop, shutdown and the stop order
    are written here once.  A subclass supplies its owner's part:
    ``_setup()`` starts it before the socket is bound;
    ``_connection_opened()`` returns a connection's state, which each
    ``_respond(line, state)`` gets and ``_connection_closed(state)``
    releases however the connection ends; ``_drain()`` and
    ``_teardown()`` are steps 2 and 4 of :meth:`stop`.
    """

    def __init__(self, socket_path) -> None:
        self.socket_path = check_socket_path(socket_path)
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        #: Writers of the connections being served, closed by stop().
        self._writers: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        """Start the owner, then listen; a start that fails or is
        cancelled stops what it started before it re-raises."""
        try:
            await self._setup()
            self._server = await asyncio.start_unix_server(
                self._serve, path=self.socket_path, limit=MAX_REQUEST_BYTES
            )
        except BaseException:
            await self.stop()
            raise

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`trigger_shutdown`),
        then stop.  A cancelled wait (Ctrl-C under ``asyncio.run``) stops too."""
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    def trigger_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Stop in order; safe to call more than once.

        1. The listener closes and the socket file is unlinked.
        2. In-flight requests drain.
        3. Connections still open are closed: each client reads EOF.
        4. The owner tears down.

        The shutdown request is then forgotten, so a later :meth:`start`
        serves until the next one; one made before the first start holds.
        """
        server, self._server = self._server, None
        if server is not None:
            # No wait_closed(): from 3.12 on it waits for the connections,
            # which close only at step 3.
            server.close()
            with contextlib.suppress(OSError):  # asyncio leaves it before 3.13
                os.unlink(self.socket_path)
        try:
            await self._drain()
        finally:
            for writer in list(self._writers):
                writer.close()
            try:
                await self._teardown()
            finally:
                self._shutdown.clear()

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        if self._server is None:  # accepted as stop() closed the listener
            writer.close()
            return
        self._writers.add(writer)
        state = self._connection_opened()
        try:
            # The loop survives a shutdown request on purpose: while the
            # owner drains, requests still deserve their typed draining
            # reply (so a router can retry them elsewhere) rather than a
            # silently dropped connection.
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    # Only loop teardown cancels this wait, and a handler
                    # that ended cancelled would make 3.11's stream
                    # callback log a traceback: end it like a hang-up.
                    break
                except (ValueError, asyncio.IncompleteReadError):
                    # A line past the stream limit surfaces as ValueError
                    # (readline wraps LimitOverrunError); the stream can't
                    # be resynced mid-line, so reply once and hang up.
                    writer.write(error_line(None, ValidationError(
                        f"request too large (limit {MAX_REQUEST_BYTES} bytes)"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                writer.write(await self._respond(line, state))
                await writer.drain()
        except ConnectionError:
            pass  # the client hung up, or stop() closed the connection
        finally:
            self._writers.discard(writer)
            self._connection_closed(state)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class LineConnection:
    """The client end of one connection to a line server."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, socket_path: str) -> "LineConnection":
        return cls(*await asyncio.open_unix_connection(
            socket_path, limit=MAX_REQUEST_BYTES
        ))

    async def exchange(self, line: bytes) -> bytes:
        """Send one request line and return its reply line."""
        self._writer.write(line)
        await self._writer.drain()
        reply = await self._reader.readline()
        if not reply:
            raise ReproError("service closed the connection without replying")
        return reply

    def close(self) -> None:
        self._writer.close()

    async def aclose(self) -> None:
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()


async def request_over_socket(socket_path: str, obj: dict,
                              *, trace: TraceContext | None = None) -> dict:
    """One-shot client helper: one request object on a fresh connection.

    Compute requests are stamped with a trace context (the given one,
    or a freshly minted one) so the server can tie every hop of the
    request to a single trace id -- echoed back as ``trace_id`` in the
    response for ``repro trace --follow``.
    """
    obj = dict(obj)
    if "trace" not in obj and obj.get("op") in OPS:
        obj["trace"] = (trace if trace is not None else TraceContext.mint()).to_wire()
    conn = await LineConnection.open(socket_path)
    try:
        return json.loads(await conn.exchange(json_line(obj)))
    finally:
        await conn.aclose()
