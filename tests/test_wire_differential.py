"""Cross-process differential harness: wire x engine matrix.

The zero-copy plane's acceptance test.  A real ``repro serve`` process
is spawned (its own interpreter, its own pool -- descriptors must cross
genuine process boundaries), and both wire modes are driven against it
and asserted **bit-identical** to the serial python-backend reference
computed in this process.  The serial legs of the engine axis are
covered directly: ``ops.compute`` on each backend's kernels must equal
the reference too.

The chaos legs re-run the matrix under an installed fault plan --
worker crashes, injected transient exceptions, and ``svc:shmem``
corruption of the copied-out pixels -- and require byte-identical
answers *and* an empty ``/dev/shm`` afterwards: recovery may cost
retries, never correctness or segments.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro import kernels
from repro.faults.leakcheck import assert_no_shm_leak, shm_segments
from repro.images import darpa_like
from repro.service import (
    WireClient,
    canonical_params,
    compute,
    ops,
    request_over_socket,
)

WIRES = ("ndjson", "shmem")

#: The compute matrix: every service op, both connectivities, grey mode.
CASES = (
    ("histogram", {"k": 256}),
    ("components", {"connectivity": 4}),
    ("components", {"connectivity": 8}),
    ("components", {"connectivity": 8, "grey": True}),
    ("equalize", {"k": 256}),
)


def _image() -> np.ndarray:
    return darpa_like(48, 256)


def _serial(op: str, image: np.ndarray, params: dict, backend: str) -> np.ndarray:
    """``ops.compute`` in this process, on ``backend``'s kernels."""
    with mock.patch.object(ops, "get_kernel", functools.partial(kernels.get, backend=backend)):
        return compute(op, image, canonical_params(op, image, dict(params)))


def _reference(image: np.ndarray) -> list[np.ndarray]:
    """Serial python-backend answers -- the bit-identity anchor."""
    return [_serial(op, image, params, "python") for op, params in CASES]


@contextlib.contextmanager
def serve_subprocess(tmp_path, *, workers: int = 2,
                     plan: dict | None = None, timeout_s: float | None = None):
    """A live ``repro serve`` in its own interpreter; yields the socket."""
    sock = str(tmp_path / "svc.sock")
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--socket", sock, "--workers", str(workers),
    ]
    if timeout_s is not None:
        # An injected crash is only *detected* by the task deadline
        # expiring; the default deadline would stretch chaos runs into
        # minutes for no extra coverage.
        cmd += ["--timeout", str(timeout_s)]
    if plan is not None:
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        cmd += ["--fault-plan", str(plan_path)]
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(sock):
            if proc.poll() is not None:
                raise AssertionError(
                    f"server exited {proc.returncode} before serving:\n"
                    f"{proc.communicate()[0]}"
                )
            if time.monotonic() > deadline:
                raise AssertionError("server socket never appeared")
            time.sleep(0.05)
        yield sock
    finally:
        if proc.poll() is None:
            with contextlib.suppress(Exception):
                asyncio.run(request_over_socket(sock, {"op": "shutdown"}))
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


async def _drive_matrix(sock: str, image: np.ndarray,
                        cases=CASES) -> dict:
    """Every (wire, case) round trip over one connection per wire."""
    out = {}
    for wire in WIRES:
        async with WireClient(sock, wire=wire) as client:
            for i, (op, params) in enumerate(cases):
                out[(wire, i)] = await client.compute(op, image, **dict(params))
    return out


def _assert_matrix(results: dict, reference: list, label: str) -> None:
    for (wire, i), arr in sorted(results.items()):
        op, params = CASES[i]
        ref = reference[i]
        assert arr.dtype == ref.dtype, (
            f"{label}: {op} {params} via {wire}: dtype {arr.dtype} != {ref.dtype}"
        )
        assert np.array_equal(arr, ref), (
            f"{label}: {op} {params} via {wire}: result diverged"
        )


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_serial_engine_matches_reference(backend):
    """The serial engine legs: every backend, bit-identical, no service."""
    image = _image()
    reference = _reference(image)
    for i, (op, params) in enumerate(CASES):
        out = _serial(op, image, params, backend)
        assert out.dtype == reference[i].dtype
        assert np.array_equal(out, reference[i]), f"{op} {params} on {backend}"


@pytest.mark.parametrize("backend", [kernels.DEFAULT_BACKEND])
def test_process_engine_full_wire_matrix(tmp_path, backend):
    """Both wires against a real out-of-process server, which runs the
    ``backend`` kernels."""
    image = _image()
    reference = _reference(image)
    with assert_no_shm_leak(grace_s=2.0):
        with serve_subprocess(tmp_path) as sock:
            results = asyncio.run(_drive_matrix(sock, image))
    _assert_matrix(results, reference, f"process/{backend}")


def test_chaos_crash_and_exception_recover_bit_identically(tmp_path):
    """Every request's first attempt dies; retries must restore the matrix.

    Two cases suffice here (one per op family): each crash costs a full
    task deadline to detect, so this leg trades breadth for wall clock
    -- the full matrix already ran fault-free above.
    """
    image = _image()
    cases = CASES[:2]
    reference = _reference(image)[: len(cases)]
    plan = {
        "schema": "repro-faults/v1",
        "seed": 11,
        "faults": [
            {"site": "svc:exec", "kind": "crash", "times": 1},
            {"site": "svc:exec", "kind": "exception", "times": 1},
        ],
    }
    with assert_no_shm_leak(grace_s=2.0):
        with serve_subprocess(tmp_path, plan=plan, timeout_s=2.0) as sock:
            results = asyncio.run(_drive_matrix(sock, image, cases))
    _assert_matrix(results, reference, "chaos/crash+exception")


def test_chaos_shmem_corruption_detected_and_recovered(tmp_path):
    """``svc:shmem`` corrupt: the digest check must catch the tampered
    copy (CorruptPayloadError), the retry must heal it, and the answers
    must still be bit-identical on both wires."""
    image = _image()
    reference = _reference(image)
    plan = {
        "schema": "repro-faults/v1",
        "seed": 3,
        "faults": [{"site": "svc:shmem", "kind": "corrupt", "times": 1}],
    }
    with assert_no_shm_leak(grace_s=2.0):
        with serve_subprocess(tmp_path, plan=plan) as sock:
            results = asyncio.run(_drive_matrix(sock, image))
    _assert_matrix(results, reference, "chaos/shmem-corrupt")


def test_no_segments_survive_the_whole_module(tmp_path):
    """Belt and braces: one more full run, then an explicit /dev/shm scan."""
    image = _image()
    before = shm_segments()
    with serve_subprocess(tmp_path) as sock:
        results = asyncio.run(_drive_matrix(sock, image))
    _assert_matrix(results, _reference(image), "final-scan")
    deadline = time.monotonic() + 3.0
    while shm_segments() - before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert shm_segments() - before == set(), "segments leaked past shutdown"
