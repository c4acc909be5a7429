"""Tests for the deadline-aware dispatcher (repro.runtime.dispatch)."""

import multiprocessing as mp
import os
import sys
import threading
import time

import pytest

from repro.obs import FAULT_RESPAWN, FAULT_RETRY, FAULT_TIMEOUT, WallRecorder, install, trace
from repro.runtime.dispatch import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    ENV_RETRIES,
    ENV_TIMEOUT,
    PoolSupervisor,
    resolve_retries,
    resolve_timeout,
    run_tasks,
)
from repro.utils.errors import (
    RecoveryExhaustedError,
    TaskTimeoutError,
    TransientTaskError,
    ValidationError,
)


def _ctx():
    return mp.get_context("fork")


# Task functions must be module-level (pickled by name into workers).
# Each receives ``(payload, attempt)`` per the dispatch contract.

def _double(arg):
    (x, attempt) = arg
    return 2 * x


def _flaky_first_attempt(arg):
    (x, attempt) = arg
    if attempt == 0:
        raise TransientTaskError(f"transient on task {x}", site="test")
    return 2 * x


def _always_transient(arg):
    raise TransientTaskError("never succeeds", site="test")


def _always_transient_at_inner_site(arg):
    raise TransientTaskError("never succeeds", site="inner")


def _always_transient_without_site(arg):
    raise TransientTaskError("never succeeds")


def _real_bug(arg):
    raise ValueError("a genuine defect")


def _crash_first_attempt(arg):
    (x, attempt) = arg
    if x == 1 and attempt == 0:
        os._exit(70)
    return 2 * x


def _hang_first_attempt(arg):
    (x, attempt) = arg
    if x == 0 and attempt == 0:
        time.sleep(3600)
    return 2 * x


#: Worker events per chatty task: well past one pipe buffer (64 KiB).
_CHATTY_EVENTS = 3000


def _chatty(arg):
    (x, attempt) = arg
    for i in range(_CHATTY_EVENTS):
        trace.instant("test:chatty", i=i)
    return x


class TestResolveKnobs:
    def test_timeout_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_TIMEOUT, "7.0")
        assert resolve_timeout(1.5) == 1.5

    def test_timeout_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_TIMEOUT, "7.5")
        assert resolve_timeout() == 7.5

    def test_timeout_default(self, monkeypatch):
        monkeypatch.delenv(ENV_TIMEOUT, raising=False)
        assert resolve_timeout() == DEFAULT_TIMEOUT_S

    def test_timeout_garbage_env(self, monkeypatch):
        monkeypatch.setenv(ENV_TIMEOUT, "soon")
        with pytest.raises(ValidationError):
            resolve_timeout()

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValidationError):
            resolve_timeout(0)

    def test_retries_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_RETRIES, "5")
        assert resolve_retries() == 5

    def test_retries_default(self, monkeypatch):
        monkeypatch.delenv(ENV_RETRIES, raising=False)
        assert resolve_retries() == DEFAULT_RETRIES

    def test_retries_garbage_env(self, monkeypatch):
        monkeypatch.setenv(ENV_RETRIES, "many")
        with pytest.raises(ValidationError):
            resolve_retries()

    def test_retries_non_negative(self):
        with pytest.raises(ValidationError):
            resolve_retries(-1)

    # -- environment-variable edge cases ----------------------------------
    # An unset knob and a set-but-empty knob must behave identically
    # (shells export empty strings more easily than they unset), while
    # anything non-empty must either parse or fail loudly -- a typo'd
    # deadline silently becoming the default would mask a config error.

    @pytest.mark.parametrize("raw", ["", "   ", "\t"], ids=["empty", "spaces", "tab"])
    def test_timeout_empty_env_is_default(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_TIMEOUT, raw)
        assert resolve_timeout() == DEFAULT_TIMEOUT_S

    @pytest.mark.parametrize("raw", ["", "   ", "\t"], ids=["empty", "spaces", "tab"])
    def test_retries_empty_env_is_default(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_RETRIES, raw)
        assert resolve_retries() == DEFAULT_RETRIES

    @pytest.mark.parametrize("raw", ["soon", "1.5s", "1,5", "0x10", "nan km"])
    def test_timeout_non_numeric_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_TIMEOUT, raw)
        with pytest.raises(ValidationError, match=ENV_TIMEOUT):
            resolve_timeout()

    @pytest.mark.parametrize("raw", ["many", "2.5", "1e2", "two"])
    def test_retries_non_integer_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_RETRIES, raw)
        with pytest.raises(ValidationError, match=ENV_RETRIES):
            resolve_retries()

    @pytest.mark.parametrize("raw", ["-1", "-0.5", "0"])
    def test_timeout_non_positive_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_TIMEOUT, raw)
        with pytest.raises(ValidationError, match="positive"):
            resolve_timeout()

    def test_retries_negative_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_RETRIES, "-3")
        with pytest.raises(ValidationError, match="non-negative"):
            resolve_retries()

    def test_retries_zero_env_is_valid(self, monkeypatch):
        # Zero retries is a legitimate budget (fail fast), not an error.
        monkeypatch.setenv(ENV_RETRIES, "0")
        assert resolve_retries() == 0

    def test_argument_bypasses_garbage_env(self, monkeypatch):
        # An explicit argument must win without even parsing the env.
        monkeypatch.setenv(ENV_TIMEOUT, "soon")
        monkeypatch.setenv(ENV_RETRIES, "many")
        assert resolve_timeout(2.0) == 2.0
        assert resolve_retries(1) == 1


class TestRunTasks:
    def test_results_in_payload_order(self):
        with PoolSupervisor(_ctx(), 2) as sup:
            out = run_tasks(sup, _double, [3, 1, 4, 1, 5], site="test", timeout=30)
        assert out == [6, 2, 8, 2, 10]

    def test_transient_error_is_retried(self):
        rec = WallRecorder()
        with install(rec), PoolSupervisor(_ctx(), 2) as sup:
            out = run_tasks(
                sup, _flaky_first_attempt, [0, 1], site="test",
                timeout=30, backoff_s=0.01,
            )
        assert out == [0, 2]
        retries = [i for i in rec.fault_events() if i.name == FAULT_RETRY]
        assert len(retries) == 2
        assert sup.respawns == 0  # a clean exception does not nuke the pool

    def test_transient_budget_exhausted(self):
        rec = WallRecorder()
        with install(rec), PoolSupervisor(_ctx(), 2) as sup:
            with pytest.raises(RecoveryExhaustedError) as err:
                run_tasks(
                    sup, _always_transient, [0], site="test",
                    timeout=30, max_retries=1, backoff_s=0.01,
                )
        assert err.value.site == "test"
        names = [i.name for i in rec.fault_events()]
        assert names.count(FAULT_RETRY) == 1
        assert "fault:giveup" in names

    @pytest.mark.parametrize(
        "fn, site",
        [(_always_transient_at_inner_site, "inner"), (_always_transient_without_site, "outer")],
    )
    def test_exhausted_error_names_the_fault_site(self, fn, site):
        # A task may fire a site other than its dispatch's (a change
        # array applied inside the final dispatch fires darray:fetch):
        # the typed error names the fault's own site when it has one.
        with PoolSupervisor(_ctx(), 1) as sup:
            with pytest.raises(RecoveryExhaustedError) as err:
                run_tasks(
                    sup, fn, [0], site="outer",
                    timeout=30, max_retries=0, backoff_s=0.01,
                )
        assert err.value.site == site

    def test_real_bug_propagates_unwrapped(self):
        with PoolSupervisor(_ctx(), 2) as sup:
            with pytest.raises(ValueError, match="genuine defect"):
                run_tasks(sup, _real_bug, [0], site="test", timeout=30)

    def test_crashed_worker_detected_and_retried(self):
        rec = WallRecorder()
        with install(rec), PoolSupervisor(_ctx(), 2) as sup:
            out = run_tasks(
                sup, _crash_first_attempt, [0, 1], site="test",
                timeout=1.0, backoff_s=0.01,
            )
        assert out == [0, 2]
        assert sup.respawns == 1
        names = [i.name for i in rec.fault_events()]
        assert FAULT_TIMEOUT in names
        assert FAULT_RESPAWN in names
        assert FAULT_RETRY in names

    def test_chatty_workers_never_fill_the_event_pipe(self):
        # The driver drains worker events while it waits, so a worker
        # never blocks on a full pipe (which would look like a hang).
        rec = WallRecorder()
        with install(rec), PoolSupervisor(_ctx(), 1) as sup:
            out = run_tasks(sup, _chatty, [7], site="test", timeout=30, max_retries=0)
            rec.drain()
        assert out == [7]
        assert rec.fault_events() == []
        chatty = [i for i in rec.log.instants if i.name == "test:chatty"]
        assert len(chatty) == _CHATTY_EVENTS

    def test_concurrent_drains_lose_and_block_nothing(self):
        # A service drains from its event loop (the trace op) while its
        # dispatcher thread drains inside run_tasks: every event must
        # arrive exactly once and neither drainer may block on a queue
        # the other just emptied.
        rec = WallRecorder()
        out = []
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                rec.drain()

        def dispatch():
            with PoolSupervisor(_ctx(), 3) as sup:
                out.extend(run_tasks(
                    sup, _chatty, [1, 2, 3], site="test", timeout=30, max_retries=0,
                ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with install(rec):
                pumper = threading.Thread(target=pump, daemon=True)
                runner = threading.Thread(target=dispatch, daemon=True)
                pumper.start()
                runner.start()
                runner.join(timeout=60)
                stop.set()
                pumper.join(timeout=10)
                assert not runner.is_alive() and not pumper.is_alive()
                rec.drain()
        finally:
            sys.setswitchinterval(interval)
        assert out == [1, 2, 3]
        chatty = [i for i in rec.log.instants if i.name == "test:chatty"]
        assert len(chatty) == 3 * _CHATTY_EVENTS

    def test_hung_task_cut_off_at_deadline(self):
        rec = WallRecorder()
        t0 = time.monotonic()
        with install(rec), PoolSupervisor(_ctx(), 2) as sup:
            out = run_tasks(
                sup, _hang_first_attempt, [0, 1], site="test",
                timeout=0.8, backoff_s=0.01,
            )
        assert out == [0, 2]
        assert time.monotonic() - t0 < 30  # nowhere near the 3600s sleep
        assert sup.respawns == 1

    def test_deadline_exhaustion_raises_timeout_error(self):
        with PoolSupervisor(_ctx(), 1) as sup:
            with pytest.raises(TaskTimeoutError) as err:
                run_tasks(
                    sup, _hang_first_attempt, [(0)], site="test",
                    timeout=0.4, max_retries=0, backoff_s=0.01,
                )
            # The worker still running the hung task is gone, so the
            # next dispatch neither waits behind it nor misses its own
            # deadline.
            assert sup.respawns == 1
            assert run_tasks(sup, _double, [1], site="test", timeout=5, max_retries=0) == [2]
        assert err.value.site == "test"

    def test_empty_payloads(self):
        with PoolSupervisor(_ctx(), 1) as sup:
            assert run_tasks(sup, _double, [], site="test", timeout=5) == []


class TestPoolSupervisor:
    def test_pool_is_lazy(self):
        sup = PoolSupervisor(_ctx(), 1)
        assert sup._pool is None
        sup.pool  # touch -> builds
        assert sup._pool is not None
        sup.close()
        assert sup._pool is None

    def test_respawn_replaces_pool(self):
        with PoolSupervisor(_ctx(), 1) as sup:
            first = sup.pool
            sup.respawn(reason="test")
            assert sup.pool is not first
            assert sup.respawns == 1

    def test_initializer_reruns_after_respawn(self):
        # _flaky_first_attempt needs no initializer state; instead prove
        # the respawned pool still runs tasks end to end.
        with PoolSupervisor(_ctx(), 2) as sup:
            sup.respawn(reason="test")
            out = run_tasks(sup, _double, [1, 2], site="test", timeout=30)
        assert out == [2, 4]
