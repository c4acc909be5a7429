"""The shard router: consistent-hash front-end over N service shards.

One socket in front, N independent :class:`~repro.service.server.
ServiceServer` shard processes behind -- each with its own listener,
worker pool, and result cache.  Requests are routed by **content
digest** (the same ``array_digest`` the cache is keyed on), so every
repeat of an image lands on the shard already holding its result:
digest affinity partitions the cache instead of replicating it, and
aggregate cache capacity scales with the shard count.

Topology (request path)::

    client ---> ShardRouter (one unix socket)
                  |  route(digest) on a consistent-hash ring
                  |  breaker per shard (closed / half-open / open)
                  v
        shard 0        shard 1        shard 2     ... each:
        ServiceServer  ServiceServer  ServiceServer    own socket,
        BatchService   BatchService   BatchService     PoolSupervisor,
        + cache        + cache        + cache          ResultCache

Robustness model, in one paragraph: a :class:`~repro.service.health.
HealthMonitor` pings every shard on a deadline and drives its
:class:`~repro.service.health.CircuitBreaker`; a request whose shard
is open (or whose forward fails mid-flight -- the in-flight *replay*
path) walks the ring to the next live successor; a request stuck past
the ``hedge_s`` latency budget is duplicated to the successor and the
first reply wins (results are bit-identical by construction, so
first-wins is safe); a shard *process* that dies is reaped (its whole
session group, so orphaned pool workers go with it), its un-released
reply segments are reclaimed, and it is respawned on the same socket.
Under the seeded chaos drill (``repro chaos --tier service``) all of
this happens with a SIGKILL mid-load and every request still completes
bit-identically with zero ``/dev/shm`` leaks.

The router speaks the exact wire protocol of a single server --
:class:`~repro.service.wire.WireClient` works unchanged against it.
Compute lines are forwarded **verbatim** (the routing key is extracted
with anchored regexes, no JSON re-serialization on the hot path);
``ping`` / ``stats`` / ``metrics`` answer at the router; ``shm_release``
follows the segment to the shard that minted it.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.faults.inject import fire_async
from repro.obs.registry import MetricsRegistry
from repro.runtime.shmem import _attach_segment
from repro.service.health import (
    CLOSED,
    DEFAULT_FAIL_THRESHOLD,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthMonitor,
)
from repro.service.instruments import op_label
from repro.service.ops import OPS
from repro.utils.aio import cancel_and_reap
from repro.service.server import (
    MAX_REQUEST_BYTES,
    _error_line,
    _ok_line,
    check_socket_path,
    socket_dir,
)
from repro.utils.errors import (
    ReproError,
    ServiceDrainingError,
    ShardDownError,
    ValidationError,
)

# -- hot-path request scanning ----------------------------------------------
#
# The router must not pay json.loads + json.dumps per forwarded request
# (that would re-serialize megabytes of base64 just to read a 64-char
# digest).  The request grammar makes targeted regexes sound: base64
# text cannot contain a double quote, so a quoted key like "digest"
# can only appear as an actual key.

#: The request's op name (first "op" key wins; json.dumps emits keys in
#: insertion order and every client writes op near the front).
_OP_RE = re.compile(rb'"op"\s*:\s*"(\w+)"')

#: A shm-descriptor request's content digest -- the routing key the
#: client already computed for the cache.
_DIGEST_RE = re.compile(rb'"digest"\s*:\s*"([0-9a-f]{64})"')

#: An ndjson request's pixel payload; its sha256 *is* digest affinity
#: (same bytes -> same span -> same shard) without decoding base64.
_DATA_RE = re.compile(rb'"data_b64"\s*:\s*"([A-Za-z0-9+/=]*)"')

#: A reply's minted shared-segment name (shmem-wire results only).
_SEG_RE = re.compile(rb'"name"\s*:\s*"(psm_[^"]+)"')


def routing_key(line: bytes) -> bytes:
    """The affinity key of one raw request line.

    Preference order: the shm descriptor digest (zero extra hashing),
    the sha256 of the base64 pixel span, else the sha256 of the whole
    line (pattern-image and malformed requests still route stably).
    """
    m = _DIGEST_RE.search(line)
    if m is not None:
        return m.group(1)
    m = _DATA_RE.search(line)
    if m is not None:
        return hashlib.sha256(m.group(1)).digest()
    return hashlib.sha256(line).digest()


def request_op(line: bytes) -> str | None:
    m = _OP_RE.search(line)
    return m.group(1).decode("ascii") if m is not None else None


class HashRing:
    """Consistent-hash ring over shard ids, ``vnodes`` points per shard.

    Virtual nodes smooth the partition (64 points per shard keeps the
    largest/smallest arc ratio near 1) and make failover *diffuse*: a
    down shard's keys spill to *many* successors, not one unlucky
    neighbor.
    """

    def __init__(self, shard_ids, *, vnodes: int = 64):
        shard_ids = list(shard_ids)
        if not shard_ids:
            raise ValidationError("hash ring needs at least one shard")
        if vnodes < 1:
            raise ValidationError("vnodes must be at least 1")
        self.shard_ids = sorted(shard_ids)
        points: list[tuple[int, int]] = []
        for sid in self.shard_ids:
            for v in range(vnodes):
                token = f"shard:{sid}:vnode:{v}".encode()
                points.append((self._position(token), sid))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [sid for _, sid in points]

    @staticmethod
    def _position(key: bytes) -> int:
        return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")

    def walk(self, key: bytes) -> list[int]:
        """All shards in successor order from ``key``'s ring position.

        ``walk(key)[0]`` is the home shard; the rest is the failover
        order a router follows when breakers are open.
        """
        start = bisect.bisect_right(self._hashes, self._position(key))
        n = len(self._owners)
        order: list[int] = []
        seen: set[int] = set()
        for j in range(n):
            sid = self._owners[(start + j) % n]
            if sid not in seen:
                seen.add(sid)
                order.append(sid)
                if len(order) == len(self.shard_ids):
                    break
        return order

    def route(self, key: bytes) -> int:
        return self.walk(key)[0]


# -- shard processes ---------------------------------------------------------


class ShardProcess:
    """One spawned ``repro serve`` shard and its lifecycle.

    Spawned with ``start_new_session=True`` so the shard leads its own
    process group: when chaos SIGKILLs the shard, its pool workers are
    orphaned mid-task (a SIGKILLed parent runs no atexit), and
    :meth:`reap`'s ``killpg`` is what sweeps them.
    """

    def __init__(self, shard_id: int, socket_path: str, argv: list[str],
                 env: dict[str, str]):
        self.shard_id = shard_id
        self.socket_path = socket_path
        self.argv = argv
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.spawns = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def spawn(self) -> None:
        # A respawn binds the same path; the dead shard never got to
        # unlink its socket.
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        self.proc = subprocess.Popen(
            self.argv,
            env=self.env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.spawns += 1

    def kill(self) -> None:
        """SIGKILL the shard process itself (the chaos drill's hammer)."""
        if self.proc is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.proc.pid, signal.SIGKILL)

    def reap(self) -> None:
        """Sweep the whole process group and collect the zombie."""
        if self.proc is None:
            return
        with contextlib.suppress(ProcessLookupError, PermissionError, OSError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        with contextlib.suppress(Exception):
            self.proc.wait(timeout=10)


def shard_environment() -> dict[str, str]:
    """Subprocess env for a shard: inherit, and make sure the running
    ``repro`` package wins the import race (tests run from src)."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    prev = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not prev else src_dir + os.pathsep + prev
    return env


# -- configuration -----------------------------------------------------------


@dataclass
class RouterConfig:
    """Everything tunable about a :class:`ShardRouter`.

    With ``shard_sockets`` unset the router *owns* its shards: it
    spawns ``shards`` ``repro serve`` subprocesses (``shard_args``
    appended to each command line) and supervises them.  With
    ``shard_sockets`` given, the shards are externally managed -- the
    router only routes, probes, and breaks; nothing is spawned or
    respawned (the cheap mode tests use).
    """

    shards: int = 3
    vnodes: int = 64
    shard_sockets: list[str] | None = None
    #: Where spawned shards bind their sockets; unset, the router makes
    #: a ``repro-shards-*`` temp dir (under ``/tmp`` when the temp dir
    #: is too deep for a socket, see :func:`socket_dir`) and
    #: :meth:`ShardRouter.stop` removes it.  A directory given here
    #: stays the caller's.
    runtime_dir: str | None = None
    workers_per_shard: int = 1
    shard_args: list[str] = field(default_factory=list)
    fail_threshold: int = DEFAULT_FAIL_THRESHOLD
    open_s: float = 0.2
    probe_interval_s: float = 0.05
    probe_timeout_s: float | None = None
    #: Latency budget before a stuck request is hedged to the successor.
    hedge_s: float = 0.25
    respawn: bool = True
    poll_interval_s: float = 0.05
    drain_deadline_s: float = 5.0
    ready_timeout_s: float = 30.0

    def __post_init__(self):
        if self.shard_sockets is not None:
            self.shards = len(self.shard_sockets)
        if self.shards < 1:
            raise ValidationError("router needs at least one shard")
        if self.hedge_s <= 0:
            raise ValidationError("hedge_s must be positive")
        if self.drain_deadline_s < 0:
            raise ValidationError("drain_deadline_s must be non-negative")
        if self.workers_per_shard < 1:
            raise ValidationError("workers_per_shard must be at least 1")

    @property
    def spawn(self) -> bool:
        return self.shard_sockets is None


# -- metrics -----------------------------------------------------------------

M_ROUTER_REQUESTS = "repro_router_requests_total"
M_ROUTER_FORWARDS = "repro_router_forwards_total"
M_ROUTER_REROUTES = "repro_router_reroutes_total"
M_ROUTER_HEDGES = "repro_router_hedges_total"
M_ROUTER_HEDGE_WINS = "repro_router_hedge_wins_total"
M_ROUTER_ERRORS = "repro_router_request_errors_total"
M_ROUTER_RESPAWNS = "repro_router_shard_respawns_total"
M_ROUTER_TRANSITIONS = "repro_router_breaker_transitions_total"
M_ROUTER_BREAKER_REPORTS = "repro_router_breaker_reports_total"
M_ROUTER_SHARD_STATE = "repro_router_shard_state"
M_ROUTER_HEALTHY = "repro_router_healthy_shards"
M_ROUTER_LATENCY = "repro_router_request_seconds"

#: Gauge encoding of breaker states (alerting reads ``> 0`` as "not
#: fully closed", ``== 2`` as "down").
BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class RouterInstruments:
    """The router's metric catalog; per-shard labels, bounded by the
    shard count (pre-resolved handles, same idiom as
    :class:`~repro.service.instruments.ServiceInstruments`).  Like the
    service's, it is the router's only store of event counts: every
    answered request is one forward, so ``completed`` reads the
    forwards family, and each shard's
    :class:`~repro.service.health.CircuitBreaker` counts its reports
    and transitions here."""

    def __init__(self, registry: MetricsRegistry, shard_ids):
        self.registry = registry
        ops = (*OPS, "other")
        self._requests = {
            op: registry.counter(M_ROUTER_REQUESTS, "Requests routed",
                                 labels={"op": op})
            for op in ops
        }
        self._forwards = {
            sid: registry.counter(M_ROUTER_FORWARDS,
                                  "Requests answered, by serving shard",
                                  labels={"shard": str(sid)})
            for sid in shard_ids
        }
        self._state = {
            sid: registry.gauge(
                M_ROUTER_SHARD_STATE,
                "Breaker state (0 closed, 1 half-open, 2 open)",
                labels={"shard": str(sid)})
            for sid in shard_ids
        }
        self._transitions = {
            (sid, to): registry.counter(
                M_ROUTER_TRANSITIONS, "Breaker transitions",
                labels={"shard": str(sid), "to": to})
            for sid in shard_ids for to in BREAKER_STATE_VALUES
        }
        self._reports = {
            (sid, ok): registry.counter(
                M_ROUTER_BREAKER_REPORTS,
                "Probe and forward outcomes reported to a breaker",
                labels={"shard": str(sid), "outcome": "success" if ok else "failure"})
            for sid in shard_ids for ok in (True, False)
        }
        self._reroutes = registry.counter(
            M_ROUTER_REROUTES, "Requests moved to a ring successor")
        self._hedges = registry.counter(
            M_ROUTER_HEDGES, "Hedged duplicates sent")
        self._hedge_wins = registry.counter(
            M_ROUTER_HEDGE_WINS, "Requests won by the hedged duplicate")
        self._healthy = registry.gauge(
            M_ROUTER_HEALTHY, "Shards with a closed breaker")
        self._latency = registry.histogram(
            M_ROUTER_LATENCY, "Route-to-reply latency at the router",
            unit="seconds")
        self._healthy.set(len(self._state))

    def request(self, op) -> None:
        self._requests[op_label(op)].inc()

    def forwarded(self, sid: int) -> None:
        if sid in self._forwards:
            self._forwards[sid].inc()

    def forwards(self, sid: int) -> int:
        return int(self._forwards[sid].value)

    def rerouted(self) -> None:
        self._reroutes.inc()

    def hedged(self) -> None:
        self._hedges.inc()

    def hedge_won(self) -> None:
        self._hedge_wins.inc()

    def request_done(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def request_error(self, exc: BaseException) -> None:
        self.registry.counter(
            M_ROUTER_ERRORS, "Routed requests failed, by error type",
            labels={"type": type(exc).__name__},
        ).inc()

    def respawned(self, sid: int) -> None:
        self.registry.counter(
            M_ROUTER_RESPAWNS, "Dead shard processes respawned",
            labels={"shard": str(sid)},
        ).inc()

    def transition(self, sid: int, to: str) -> None:
        self._transitions[sid, to].inc()
        self._state[sid].set(BREAKER_STATE_VALUES[to])
        closed = BREAKER_STATE_VALUES[CLOSED]
        self._healthy.set(sum(g.value == closed for g in self._state.values()))

    def breaker_report(self, sid: int, *, ok: bool) -> None:
        self._reports[sid, ok].inc()

    def breaker_counts(self, sid: int) -> dict:
        """One shard's breaker counts, read back (its ``stats`` keys)."""
        return {
            "failures": int(self._reports[sid, False].value),
            "successes": int(self._reports[sid, True].value),
            "opened": int(self._transitions[sid, OPEN].value),
            "half_opened": int(self._transitions[sid, HALF_OPEN].value),
            "closed": int(self._transitions[sid, CLOSED].value),
        }


# -- the router --------------------------------------------------------------


class ShardRouter:
    """The consistent-hash front-end; see the module docstring.

    Lifecycle::

        router = ShardRouter(socket_path, RouterConfig(shards=3))
        await router.start()       # spawns + readies shards, starts probes
        ...                        # clients speak the normal wire protocol
        await router.stop()        # drain, retire shards, reclaim segments
    """

    def __init__(self, socket_path: str, config: RouterConfig | None = None):
        self.config = config or RouterConfig()
        self.socket_path = check_socket_path(socket_path)
        cfg = self.config
        self.shard_ids = list(range(cfg.shards))
        #: The runtime dir this router made itself (removed by stop()).
        self._own_dir: str | None = None
        if cfg.shard_sockets is not None:
            self.shard_sockets = {
                sid: check_socket_path(path)
                for sid, path in enumerate(cfg.shard_sockets)
            }
            self.procs: dict[int, ShardProcess] = {}
        else:
            base = cfg.runtime_dir
            if base is None:
                base = self._own_dir = socket_dir(
                    "repro-shards-", f"shard-{cfg.shards - 1}.sock"
                )
            env = shard_environment()
            self.shard_sockets = {}
            self.procs = {}
            try:
                for sid in self.shard_ids:
                    path = check_socket_path(os.path.join(base, f"shard-{sid}.sock"))
                    self.shard_sockets[sid] = path
                    self.procs[sid] = ShardProcess(
                        sid, path, self._shard_argv(sid, path), env
                    )
            except ValidationError:
                self._remove_own_dir()
                raise
        self.ring = HashRing(self.shard_ids, vnodes=cfg.vnodes)
        #: The one store of the router's event counts (see :meth:`snapshot`).
        self.metrics = MetricsRegistry()
        self.instruments = RouterInstruments(self.metrics, self.shard_ids)
        self.breakers = {
            sid: CircuitBreaker(
                sid,
                instruments=self.instruments,
                fail_threshold=cfg.fail_threshold,
                open_s=cfg.open_s,
            )
            for sid in self.shard_ids
        }
        self.monitors = {
            sid: HealthMonitor(
                sid, self.shard_sockets[sid], self.breakers[sid],
                interval_s=cfg.probe_interval_s,
                timeout_s=cfg.probe_timeout_s,
            )
            for sid in self.shard_ids
        }
        #: Reply segments each shard minted and no client released yet;
        #: what :meth:`_reclaim_minted` sweeps when the shard dies hard.
        self._minted: dict[int, set[str]] = {sid: set() for sid in self.shard_ids}
        self._server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []
        self._shutdown = asyncio.Event()
        self._draining = False
        self._open_requests = 0

    def _shard_argv(self, sid: int, socket_path: str) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", socket_path,
            "--shard-id", str(sid),
            "--workers", str(self.config.workers_per_shard),
        ]
        argv.extend(self.config.shard_args)
        return argv

    # -- lifecycle ---------------------------------------------------------

    @property
    def healthy_shards(self) -> int:
        return sum(1 for b in self.breakers.values() if b.state == CLOSED)

    async def start(self) -> None:
        self._draining = False
        if self._own_dir is not None:
            os.makedirs(self._own_dir, exist_ok=True)  # a restart after stop()
        for sid, proc in self.procs.items():
            proc.spawn()
        for sid in self.shard_ids:
            await self._wait_ready(sid, self.config.ready_timeout_s)
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path, limit=MAX_REQUEST_BYTES
        )
        self._tasks = [
            asyncio.ensure_future(mon.run()) for mon in self.monitors.values()
        ]
        if self.procs:
            self._tasks.append(asyncio.ensure_future(self._supervise()))

    async def _wait_ready(self, sid: int, timeout_s: float) -> None:
        """Block until the shard answers ``ping`` on its socket."""
        deadline = time.monotonic() + timeout_s
        last: Exception | None = None
        while time.monotonic() < deadline:
            proc = self.procs.get(sid)
            if proc is not None and proc.proc is not None and not proc.alive:
                raise ReproError(
                    f"shard {sid} exited during startup "
                    f"(rc={proc.proc.returncode}); command: {' '.join(proc.argv)}"
                )
            try:
                reply = json.loads(await self._one_shot(sid, b'{"op": "ping"}\n'))
                if reply.get("ok"):
                    return
            except Exception as exc:
                # Not up yet (connect refused, deadline, partial JSON);
                # remembered so the timeout error can say what the last
                # attempt actually hit.
                last = exc
            await asyncio.sleep(0.02)
        detail = f"; last attempt: {type(last).__name__}: {last}" if last else ""
        raise ReproError(
            f"shard {sid} did not become ready within {timeout_s:.0f}s{detail}"
        )

    async def _one_shot(self, sid: int, line: bytes, *,
                        timeout_s: float = 1.0) -> bytes:
        """One request on a fresh connection to a shard (control plane)."""

        async def _go() -> bytes:
            reader, writer = await asyncio.open_unix_connection(
                self.shard_sockets[sid], limit=MAX_REQUEST_BYTES
            )
            try:
                writer.write(line)
                await writer.drain()
                return await reader.readline()
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

        return await asyncio.wait_for(_go(), timeout=timeout_s)

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    def trigger_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Drain, retire every shard, reclaim what the dead left behind."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            with contextlib.suppress(OSError):  # asyncio leaves it before 3.13
                os.unlink(self.socket_path)
        deadline = time.monotonic() + self.config.drain_deadline_s
        while self._open_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            # Not a plain ``await task``: a monitor parked in its probe's
            # wait_for can swallow the first cancel (3.11 race) and spin
            # forever; cancel_and_reap re-cancels until the task dies.
            await cancel_and_reap(task)
        for sid, proc in self.procs.items():
            if proc.alive:
                # Polite retirement: the shard drains its own in-flight
                # work inside its stop() before exiting.
                with contextlib.suppress(Exception):
                    await self._one_shot(
                        sid, b'{"op": "shutdown"}\n',
                        timeout_s=self.config.drain_deadline_s + 1.0,
                    )
            exit_by = time.monotonic() + self.config.drain_deadline_s + 2.0
            while proc.alive and time.monotonic() < exit_by:
                await asyncio.sleep(0.02)
            proc.reap()
            self._reclaim_minted(sid)
            with contextlib.suppress(OSError):
                os.unlink(self.shard_sockets[sid])
        for sid in list(self._minted):
            self._reclaim_minted(sid)
        self._remove_own_dir()

    def _remove_own_dir(self) -> None:
        if self._own_dir is not None:
            shutil.rmtree(self._own_dir, ignore_errors=True)

    # -- supervision -------------------------------------------------------

    async def _supervise(self) -> None:
        """Respawn loop for router-owned shards.

        A dead shard is reaped group-wide (its orphaned pool workers
        die here), its un-released reply segments are reclaimed, and a
        fresh process is spawned on the same socket.  In-flight
        requests that were cut off are not lost: their forwards fail
        with a connection error and the routing loop replays the raw
        line on the ring successor.
        """
        while True:
            await asyncio.sleep(self.config.poll_interval_s)
            if self._draining:
                continue
            for sid, proc in self.procs.items():
                if proc.proc is None or proc.alive:
                    continue
                self._reclaim_minted(sid)
                proc.reap()
                if not self.config.respawn:
                    continue
                proc.spawn()
                self.instruments.respawned(sid)
                try:
                    await self._wait_ready(sid, self.config.ready_timeout_s)
                except ReproError:
                    # Leave the breaker open; the next poll retries if
                    # the fresh process died too.
                    continue

    def _reclaim_minted(self, sid: int) -> int:
        """Unlink reply segments a hard-killed shard could not sweep.

        A SIGKILLed shard never runs its arena teardown, so whatever it
        minted and no client released would leak in ``/dev/shm``.  The
        router learned every minted name from the replies it forwarded;
        attaching (tracker-neutral) and unlinking here restores the
        leakcheck contract.
        """
        reclaimed = 0
        for name in sorted(self._minted.get(sid, ())):
            try:
                seg = _attach_segment(name)
            except FileNotFoundError:
                continue
            seg.close()
            with contextlib.suppress(FileNotFoundError):
                seg.unlink()
            reclaimed += 1
        self._minted[sid] = set()
        return reclaimed

    def kill_shard(self, sid: int) -> None:
        """SIGKILL a router-owned shard (the chaos drill's entry point)."""
        proc = self.procs.get(sid)
        if proc is None:
            raise ValidationError(
                f"shard {sid} is not router-owned; only spawned shards can be killed"
            )
        proc.kill()

    # -- client handling ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        #: Lazily opened upstream connection per shard, for this client.
        #: Reply-segment lifetime is pinned to the upstream connection,
        #: so per-client upstreams give each client the same ownership
        #: story it would have against a single server.
        conns: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        #: Reply segment name -> shard that minted it, for this client.
        owned: dict[str, int] = {}
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except (ValueError, asyncio.IncompleteReadError):
                    writer.write(_error_line(None, ValidationError(
                        f"request too large (limit {MAX_REQUEST_BYTES} bytes)"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._respond(line, conns, owned)
                writer.write(response)
                await writer.drain()
        finally:
            # Closing the upstreams makes each shard reclaim whatever
            # this client failed to release (connection-pinned lifetime).
            for name, sid in owned.items():
                self._minted.get(sid, set()).discard(name)
            for sid in list(conns):
                self._drop_conn(conns, sid)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    def _drop_conn(conns: dict, sid: int) -> None:
        entry = conns.pop(sid, None)
        if entry is not None:
            entry[1].close()

    @staticmethod
    def _req_id(line: bytes):
        try:
            obj = json.loads(line)
        except (ValueError, UnicodeDecodeError):
            return None
        return obj.get("id") if isinstance(obj, dict) else None

    async def _respond(self, line: bytes, conns: dict,
                       owned: dict[str, int]) -> bytes:
        op = request_op(line)
        if op == "ping":
            return _ok_line(self._req_id(line), {
                "pong": True,
                "router": True,
                "shards": len(self.shard_ids),
                "healthy": self.healthy_shards,
                "draining": self._draining,
            })
        if op == "stats":
            return _ok_line(self._req_id(line), self.snapshot())
        if op == "metrics":
            return _ok_line(self._req_id(line), self.metrics.prometheus_text())
        if op == "shutdown":
            self._draining = True
            self._shutdown.set()
            return _ok_line(self._req_id(line), "draining")
        if op == "shm_release":
            return await self._respond_release(line, conns, owned)
        return await self._respond_routed(line, conns, owned, op)

    async def _respond_release(self, line: bytes, conns: dict,
                               owned: dict[str, int]) -> bytes:
        """Follow a segment release to the shard that minted it."""
        req_id = self._req_id(line)
        try:
            obj = json.loads(line)
            name = obj.get("name")
        except (ValueError, UnicodeDecodeError):
            name = None
        if not isinstance(name, str):
            return _error_line(
                req_id, ValidationError("'name' must be a segment name string")
            )
        sid = owned.get(name)
        if sid is None:
            return _error_line(
                req_id, ValidationError(f"unknown or already-released segment {name!r}")
            )
        if name not in self._minted.get(sid, ()):
            # The minting shard died and the router already reclaimed
            # the segment; the client's release is honored, not failed.
            owned.pop(name, None)
            return _ok_line(req_id, "released")
        try:
            reply = await self._forward_once(sid, line, conns)
        except (ReproError, OSError):
            # Shard just died; the supervisor's reclaim owns the segment.
            self._drop_conn(conns, sid)
            owned.pop(name, None)
            return _ok_line(req_id, "released")
        owned.pop(name, None)
        self._minted[sid].discard(name)
        return reply

    async def _respond_routed(self, line: bytes, conns: dict,
                              owned: dict[str, int], op) -> bytes:
        """Route one compute (or unknown -- the shard owns the error
        semantics) request: home shard first, ring successors on
        failure, a hedge when stuck past the latency budget."""
        req_id_of = self._req_id  # parsed lazily, cold paths only
        if self._draining:
            return _error_line(req_id_of(line), ServiceDrainingError(
                "router is draining for shutdown; retry later"
            ))
        self.instruments.request(op)
        self._open_requests += 1
        t0 = time.perf_counter()
        winner = None
        try:
            order = self.ring.walk(routing_key(line))
            tried: set[int] = set()
            failures: list[str] = []
            reply = None
            for rank, sid in enumerate(order):
                if sid in tried:
                    continue
                breaker = self.breakers[sid]
                if not breaker.allow():
                    failures.append(f"shard {sid}: breaker {breaker.state}")
                    continue
                if tried or rank > 0:
                    self.instruments.rerouted()
                tried.add(sid)
                try:
                    reply, winner = await self._forward_hedged(
                        sid, order, tried, line, conns, rank
                    )
                    break
                except Exception as exc:
                    failures.append(f"shard {sid}: {type(exc).__name__}: {exc}")
            if reply is None:
                raise ShardDownError(
                    "no shard could serve the request "
                    f"({len(failures)} candidate(s) failed): "
                    + "; ".join(failures),
                    attempts=failures,
                )
            m = _SEG_RE.search(reply)
            if m is not None:
                name = m.group(1).decode("ascii")
                owned[name] = winner
                self._minted[winner].add(name)
            self.instruments.forwarded(winner)
            return reply
        except ReproError as exc:
            self.instruments.request_error(exc)
            return _error_line(req_id_of(line), exc)
        finally:
            self._open_requests -= 1
            self.instruments.request_done(time.perf_counter() - t0)

    async def _forward_once(self, sid: int, line: bytes, conns: dict, *,
                            rank: int = 0) -> bytes:
        """One attempt against one shard, on this client's upstream."""
        await fire_async("svc:route", task=sid, attempt=rank)
        if sid not in conns:
            conns[sid] = await asyncio.open_unix_connection(
                self.shard_sockets[sid], limit=MAX_REQUEST_BYTES
            )
        reader, writer = conns[sid]
        writer.write(line)
        await writer.drain()
        reply = await reader.readline()
        if not reply:
            raise ReproError(f"shard {sid} closed the connection without replying")
        return reply

    async def _forward_hedged(self, sid: int, order: list[int],
                              tried: set[int], line: bytes, conns: dict,
                              rank: int) -> tuple[bytes, int]:
        """Forward to ``sid``; past the latency budget, duplicate to the
        ring successor and take the first reply.

        Both attempts compute the same bits (digest-identified input,
        deterministic ops), so first-wins cannot change the answer.
        The losing attempt is abandoned (see :meth:`_abandon`).
        """
        primary = asyncio.ensure_future(
            self._forward_once(sid, line, conns, rank=rank)
        )
        try:
            done, _ = await asyncio.wait({primary}, timeout=self.config.hedge_s)
        except asyncio.CancelledError:
            self._abandon(primary, sid, conns)
            raise
        if primary in done:
            return self._settle(primary, sid, conns), sid
        hedge_sid = next(
            (s for s in order
             if s != sid and s not in tried and self.breakers[s].state == CLOSED),
            None,
        )
        if hedge_sid is None:
            # Nowhere to hedge; keep waiting on the primary alone.
            await self._guard(primary, sid, conns)
            return self._settle(primary, sid, conns), sid
        tried.add(hedge_sid)
        self.instruments.hedged()
        hedge = asyncio.ensure_future(
            self._forward_once(hedge_sid, line, conns, rank=rank + 1)
        )
        pending = {primary: sid, hedge: hedge_sid}
        last_exc: Exception | None = None
        try:
            while pending:
                done, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    task_sid = pending.pop(task)
                    exc = task.exception()
                    if exc is None:
                        if task is hedge:
                            self.instruments.hedge_won()
                        await self._cancel_losers(pending, conns)
                        return self._settle(task, task_sid, conns), task_sid
                    last_exc = exc
                    self.breakers[task_sid].record_failure()
                    self._drop_conn(conns, task_sid)
        except asyncio.CancelledError:
            await self._cancel_losers(pending, conns)
            raise
        raise last_exc if last_exc is not None else ReproError(
            "hedged forward resolved without a reply"
        )

    async def _guard(self, task: asyncio.Task, sid: int, conns: dict):
        """Await a lone forward, abandoning it on cancellation."""
        try:
            await asyncio.wait({task})
        except asyncio.CancelledError:
            self._abandon(task, sid, conns)
            raise
        return task

    def _abandon(self, task: asyncio.Task, sid: int, conns: dict) -> None:
        """Cancel a forward nobody waits for any more.

        The abandoned request may still be computing on the shard;
        closing the upstream pins its (possible) reply segment's
        teardown to the shard's disconnect sweep, and the next request
        reopens cleanly.  A forward that was a half-open breaker's one
        trial missed its latency budget, so it reports a failure: the
        breaker re-opens with a doubled cooldown and the next probe can
        close it.  Unreported, the breaker would stay half-open, where
        ``allow()`` admits no probe.
        """
        task.cancel()
        self._drop_conn(conns, sid)
        breaker = self.breakers[sid]
        if breaker.state == HALF_OPEN:
            breaker.record_failure()

    async def _cancel_losers(self, pending: dict, conns: dict) -> None:
        for loser, loser_sid in pending.items():
            self._abandon(loser, loser_sid, conns)
            # CancelledError is a BaseException: suppress(Exception)
            # would let the loser's own cancellation escape and take
            # the whole client handler down with it.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await loser
        pending.clear()

    def _settle(self, task: asyncio.Task, sid: int, conns: dict) -> bytes:
        """Harvest one finished forward, folding its outcome into the
        shard's breaker."""
        exc = task.exception()
        if exc is not None:
            self.breakers[sid].record_failure()
            self._drop_conn(conns, sid)
            raise exc
        self.breakers[sid].record_success()
        return task.result()

    # -- reading back ------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``stats`` reply; every count is read back from :attr:`metrics`."""
        count = self.metrics.count
        out = {
            "schema": "repro-router-stats/v1",
            "router": {
                "requests": count(M_ROUTER_REQUESTS),
                "completed": count(M_ROUTER_FORWARDS),
                "errors": count(M_ROUTER_ERRORS),
                "reroutes": count(M_ROUTER_REROUTES),
                "hedges": count(M_ROUTER_HEDGES),
                "hedge_wins": count(M_ROUTER_HEDGE_WINS),
                "respawns": count(M_ROUTER_RESPAWNS),
                "draining": self._draining,
                "open_requests": self._open_requests,
                "healthy": self.healthy_shards,
                "shards": len(self.shard_ids),
            },
            "shards": {},
        }
        for sid in self.shard_ids:
            proc = self.procs.get(sid)
            out["shards"][str(sid)] = {
                "socket": self.shard_sockets[sid],
                "breaker": self.breakers[sid].snapshot(),
                "forwards": self.instruments.forwards(sid),
                "probes": self.monitors[sid].probes,
                "minted_live": len(self._minted.get(sid, ())),
                "spawns": proc.spawns if proc is not None else None,
                "alive": proc.alive if proc is not None else None,
            }
        return out
