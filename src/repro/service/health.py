"""Per-shard health probing and the circuit-breaker state machine.

The router never *guesses* that a shard is healthy: each shard gets a
:class:`HealthMonitor` coroutine sending ``ping`` probes with a hard
deadline, and a :class:`CircuitBreaker` folds probe results together
with live forwarding outcomes into the classic three-state machine:

* **closed** -- traffic flows; consecutive failures are counted.
* **open** -- tripped after ``fail_threshold`` consecutive failures;
  every routing decision skips the shard (requests go to its ring
  successor) until the cooldown elapses.
* **half-open** -- after the cooldown one trial is let through; success
  closes the breaker, failure re-opens it with an exponentially longer
  cooldown.

The deadline/backoff vocabulary is deliberately the dispatcher's
(:mod:`repro.runtime.dispatch`): probe deadlines default through
:func:`~repro.runtime.dispatch.resolve_timeout` (clamped to stay
probe-sized) and the re-open cooldown grows as ``open_s * 2**n`` --
the same ``backoff * 2**attempt`` schedule task retries use -- so the
service tier and the batch runtime below it speak one timeout
language.

Probes honor the ``svc:health`` fault site: a seeded plan can hang or
fail a probe deterministically, driving a breaker open (and back
closed) without harming a real process.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.faults.inject import fire_async
from repro.runtime.dispatch import resolve_timeout
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # the router imports this module
    from repro.service.router import RouterInstruments

#: Breaker states.
CLOSED = "closed"
HALF_OPEN = "half_open"
OPEN = "open"

#: Consecutive failures that trip a closed breaker.
DEFAULT_FAIL_THRESHOLD = 3

#: Base cooldown before an open breaker admits a half-open trial.
DEFAULT_OPEN_S = 0.5

#: Cap on the exponential cooldown (``open_s * 2**n`` stops doubling
#: here, so a long-dead shard is still re-probed within seconds of its
#: respawn instead of minutes later).
MAX_OPEN_S = 8.0

#: Default wall budget of one health probe.  ``resolve_timeout`` feeds
#: task deadlines (seconds-to-minutes); a liveness probe must stay two
#: orders of magnitude tighter, hence the clamp in :func:`probe_timeout`.
DEFAULT_PROBE_TIMEOUT_S = 0.5

#: StreamReader limit for a probe connection.  A ``ping`` reply is a
#: few hundred bytes of JSON; this is generous headroom, not the wire's
#: ``MAX_REQUEST_BYTES`` (a probe never carries image payloads).
PROBE_LIMIT_BYTES = 16 * 1024

#: Most recent transitions a breaker keeps for its snapshot.
TRANSITION_LOG_LIMIT = 64


def probe_timeout(timeout_s: float | None = None) -> float:
    """Resolve a probe deadline: explicit value, else the dispatcher's
    resolved task timeout clamped to probe scale."""
    if timeout_s is not None:
        if timeout_s <= 0:
            raise ValidationError("probe timeout must be positive")
        return float(timeout_s)
    return min(resolve_timeout(None), DEFAULT_PROBE_TIMEOUT_S)


@dataclass
class Transition:
    """One recorded state change, timed on the monotonic clock."""

    t_s: float
    frm: str
    to: str


class CircuitBreaker:
    """Closed / open / half-open availability state for one shard.

    Success and failure reports may come from health probes *or* from
    live request forwards -- both are evidence about the same shard.
    The breaker keeps only its state machine and transition log: each
    report and each transition is counted once, into ``instruments``
    (the router's registry, whose per-shard state gauge follows every
    transition), and :meth:`snapshot` reads the counts back.
    """

    def __init__(self, shard_id: int, *,
                 instruments: RouterInstruments,
                 fail_threshold: int = DEFAULT_FAIL_THRESHOLD,
                 open_s: float = DEFAULT_OPEN_S,
                 max_open_s: float = MAX_OPEN_S,
                 clock=time.monotonic):
        if fail_threshold < 1:
            raise ValidationError("fail_threshold must be at least 1")
        if open_s <= 0:
            raise ValidationError("open_s must be positive")
        self.shard_id = shard_id
        self.fail_threshold = int(fail_threshold)
        self.open_s = float(open_s)
        self.max_open_s = float(max_open_s)
        self.instruments = instruments
        self.state = CLOSED
        self.transitions: list[Transition] = []
        self._consecutive = 0
        self._opened_at = 0.0
        self._reopen_count = 0  # consecutive OPEN entries without a recovery
        self._clock = clock

    # -- state machine -----------------------------------------------------

    def _transition(self, to: str) -> None:
        frm, self.state = self.state, to
        if to == OPEN:
            self._opened_at = self._clock()
        elif to == CLOSED:
            self._reopen_count = 0
        self.transitions.append(Transition(self._clock(), frm, to))
        del self.transitions[:-TRANSITION_LOG_LIMIT]
        self.instruments.transition(self.shard_id, to)

    @property
    def cooldown_s(self) -> float:
        """Current re-open cooldown (exponential, like task backoff)."""
        return min(self.open_s * (2 ** max(self._reopen_count - 1, 0)),
                   self.max_open_s)

    def allow(self) -> bool:
        """May a request (or probe) be sent to this shard right now?

        An open breaker whose cooldown has elapsed flips to half-open
        and admits exactly this one trial; further calls say no until
        the trial reports back.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock() - self._opened_at >= self.cooldown_s:
                self._transition(HALF_OPEN)
                return True
            return False
        # HALF_OPEN: the single trial is already in flight.
        return False

    def record_success(self) -> None:
        self.instruments.breaker_report(self.shard_id, ok=True)
        self._consecutive = 0
        if self.state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        self.instruments.breaker_report(self.shard_id, ok=False)
        self._consecutive += 1
        if self.state == HALF_OPEN:
            self._reopen_count += 1
            self._transition(OPEN)
        elif self.state == CLOSED and self._consecutive >= self.fail_threshold:
            self._reopen_count += 1
            self._transition(OPEN)

    # -- reading back ------------------------------------------------------

    def recovered(self) -> bool:
        """Did this breaker ever complete a full open -> half-open ->
        closed recovery?  (What the chaos acceptance asserts.)"""
        states = [t.to for t in self.transitions]
        try:
            i = states.index(OPEN)
            j = states.index(HALF_OPEN, i + 1)
            states.index(CLOSED, j + 1)
        except ValueError:
            return False
        return True

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "cooldown_s": self.cooldown_s,
            **self.instruments.breaker_counts(self.shard_id),
            "recovered": self.recovered(),
        }


class HealthMonitor:
    """One shard's probe loop: ``ping`` with a deadline, on a cadence.

    Each probe opens a fresh connection (a dead listener must fail the
    probe, which a cached connection would mask), sends ``ping``, and
    demands a well-formed reply within :func:`probe_timeout` seconds.
    Outcomes feed the shard's :class:`CircuitBreaker`; the monitor
    respects ``allow()`` so an open breaker is only probed once per
    cooldown (the half-open trial).
    """

    def __init__(self, shard_id: int, socket_path: str,
                 breaker: CircuitBreaker, *,
                 interval_s: float = 0.1,
                 timeout_s: float | None = None):
        if interval_s <= 0:
            raise ValidationError("probe interval must be positive")
        self.shard_id = shard_id
        self.socket_path = str(socket_path)
        self.breaker = breaker
        self.interval_s = float(interval_s)
        self.timeout_s = probe_timeout(timeout_s)
        self.probes = 0
        #: Why the most recent failed probe failed (``None`` after a
        #: success) -- surfaced so a stats snapshot can say *why* a
        #: breaker is open, not just that it is.
        self.last_error: str | None = None

    async def probe_once(self) -> bool:
        """One probe round trip; records the outcome on the breaker."""
        seq, self.probes = self.probes, self.probes + 1
        try:
            # The fault site fires *inside* the deadline on purpose: an
            # injected hang must miss the deadline exactly as a wedged
            # shard would.
            ok = await asyncio.wait_for(
                self._probe(seq), timeout=self.timeout_s
            )
        except Exception as exc:
            # Any failure mode -- refused connect, missed deadline,
            # malformed reply, injected fault -- is the same verdict
            # (unhealthy); the cause is kept for the snapshot.
            self.last_error = f"{type(exc).__name__}: {exc}"
            ok = False
        if ok:
            self.last_error = None
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        return ok

    async def _probe(self, seq: int) -> bool:
        await fire_async("svc:health", task=self.shard_id, attempt=seq)
        reader = writer = None
        try:
            reader, writer = await asyncio.open_unix_connection(
                self.socket_path, limit=PROBE_LIMIT_BYTES
            )
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            line = await reader.readline()
        finally:
            if writer is not None:
                writer.close()
        if not line:
            return False
        reply = json.loads(line)
        if not reply.get("ok"):
            return False
        result = reply.get("result")
        if isinstance(result, dict):
            # A sharded server echoes its identity; a probe answered by
            # the wrong shard (stale socket path) is a failure, and a
            # draining shard stops taking traffic before it exits.
            if result.get("shard_id") not in (None, self.shard_id):
                return False
            if result.get("draining"):
                return False
        return True

    async def run(self) -> None:
        """Probe forever (cancelled by the router's stop())."""
        while True:
            if self.breaker.allow():
                await self.probe_once()
            await asyncio.sleep(self.interval_s)
