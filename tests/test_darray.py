"""Tests for repro.darray: transports, engine, bit-identity, chaos.

The subsystem contract: every transport (in-process, shared-memory,
out-of-core) produces labels **bit-identical** to the serial reference,
leaks no ``/dev/shm`` segment, and -- for the dispatched transport --
recovers from every seeded single fault or fails typed.  The
merge-protocol sites are checked here; the rest of the chaos matrix
(every other site, histogram too) lives in tests/test_faults_runtime.py.
"""

import gc
import importlib
import inspect
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import repro
from repro import kernels
from repro.baselines.run_label import LABEL_DTYPE, check_label_capacity
from repro.baselines.sequential import sequential_components
from repro.bdm.machine import Machine
from repro.core.change_array import ChangeArray
from repro.core.connected_components import BdmTransport, parallel_components
from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.darray import (
    DistributedArray,
    TRANSPORTS,
    count_components,
    darray_components,
    darray_histogram,
    label_components,
    open_transport,
)
from repro.darray.shmem_transport import block_local_rounds
from repro.faults import (
    FaultPlan,
    FaultSpec,
    assert_no_shm_leak,
    shm_segments,
    single_fault_plans,
)
from repro.images import binary_test_image, random_greyscale
from repro.utils.errors import (
    ConfigurationError,
    DegradedRunWarning,
    FailoverError,
    FaultError,
    ValidationError,
)

N = 32
P = 4  # 2x2 grid -> 2 merge rounds
N_ROUNDS = 2
TRANSPORT_NAMES = ("local", "shmem", "mmap")
# Short deadlines keep the shmem chaos legs quick; faulted tasks on a
# 32x32 image take milliseconds, so the margin is still huge.
FAST = dict(timeout=1.5, max_retries=2, workers=P)


@pytest.fixture(scope="module")
def image():
    return binary_test_image(4, N)


@pytest.fixture(scope="module")
def serial_labels(image):
    return sequential_components(image, connectivity=8)


@pytest.fixture(scope="module")
def grey_image():
    return random_greyscale(N, 64, seed=5)


class TestBitIdentityMatrix:
    """Every transport (local, shmem, mmap) == the serial reference."""

    # The ids keep the suffix of the kernels every transport runs.
    @pytest.mark.parametrize("transport", TRANSPORT_NAMES, ids=lambda t: f"{t}-numpy")
    def test_binary_8conn(self, transport, image, serial_labels):
        with assert_no_shm_leak():
            res = darray_components(image, p=P, transport=transport, resident_tiles=1)
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        assert res.n_components == count_components(serial_labels)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_binary_4conn(self, transport, image):
        expect = sequential_components(image, connectivity=4)
        res = darray_components(image, p=P, transport=transport, connectivity=4)
        assert np.array_equal(np.asarray(res.labels), expect)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_grey(self, transport, grey_image):
        expect = sequential_components(grey_image, grey=True)
        res = darray_components(grey_image, p=P, transport=transport, grey=True)
        assert np.array_equal(np.asarray(res.labels), expect)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_non_divisible_image(self, transport):
        # 30x30 with a 2x2 grid: balanced 15-pixel tiles; 29x31 is
        # uneven in both axes.
        for shape in ((30, 30), (29, 31)):
            img = binary_test_image(2, max(shape))[: shape[0], : shape[1]]
            expect = sequential_components(img, connectivity=8)
            res = darray_components(img, p=P, transport=transport)
            assert np.array_equal(np.asarray(res.labels), expect), (transport, shape)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_strip_grid(self, transport, image, serial_labels):
        res = darray_components(image, p=P, transport=transport, shape=(1, P))
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        res = darray_components(image, p=P, transport=transport, shape=(P, 1))
        assert np.array_equal(np.asarray(res.labels), serial_labels)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_histogram_parity(self, transport, grey_image):
        expect = np.bincount(grey_image.ravel(), minlength=64)
        with assert_no_shm_leak():
            got = darray_histogram(grey_image, 64, p=P, transport=transport)
        assert np.array_equal(got, expect)


class TestLabelDtype:
    """Stored labels are int32 on every transport; ``tile_label`` and
    the service's ``components`` reply stay int64."""

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_gather_is_int32(self, transport, image, serial_labels):
        with DistributedArray.open(transport, ProcessorGrid(P, N), image) as da:
            labels, _n = label_components(da, connectivity=8, grey=False)
            assert labels.dtype == da.gather().dtype == LABEL_DTYPE == np.int32
            assert np.array_equal(labels, serial_labels)

    def test_tile_label_and_components_reply_stay_int64(self, image):
        from repro.service import canonical_params, compute

        for backend in kernels.BACKENDS:
            assert kernels.get("tile_label", backend=backend)(image).dtype == np.int64
        reply = compute("components", image, canonical_params("components", image, {}))
        assert reply.dtype == np.int64


class TestLabelCapacity:
    """Labels are int32, so ``darray_components`` rejects an image of
    2**31 pixels or more before any transport opens."""

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_rejects_2_31_pixels_on_every_transport(self, transport, tmp_path, monkeypatch):
        # A zero-stride view: 2**31 pixels in one byte, so nothing is
        # allocated, and the spill directory shows nothing was staged.
        # Opening a transport would start the job, so it fails the test.
        big = np.broadcast_to(np.uint8(1), (65_536, 32_768))
        spill = tmp_path / "spill"

        def no_open(cls, *args, **kwargs):
            raise AssertionError("a transport opened")

        monkeypatch.setattr(DistributedArray, "open", classmethod(no_open))
        children = set(multiprocessing.active_children())
        files = _memfd_links()
        with pytest.raises(ValidationError, match=r"fewer than 2\*\*31 = 2,147,483,648"):
            darray_components(big, p=P, transport=transport, spill_dir=spill)
        assert not spill.exists()
        assert set(multiprocessing.active_children()) == children
        assert _memfd_links() == files

    def test_the_largest_square_passes(self):
        check_label_capacity(np.broadcast_to(np.uint8(1), (46_340, 46_340)).shape)
        with pytest.raises(ValidationError, match="46341x46341"):
            check_label_capacity((46_341, 46_341))


class TestEngine:
    def test_streaming_count_matches_unique(self, image):
        res = darray_components(image, p=P)
        lab = np.asarray(res.labels)
        assert count_components(lab) == int(np.unique(lab[lab != 0]).size)

    def test_border_traffic_counted(self, image):
        res = darray_components(image, p=P)
        # 2 merge rounds x 2 groups x 2 sides of 16 pixels, labels +
        # colors at 8 bytes each: traffic must be counted and bounded.
        assert res.stats.border_bytes > 0
        assert res.stats.border_bytes <= 32 * N * 16  # << O(n^2)

    def test_local_transport_keeps_everything_resident(self, image):
        res = darray_components(image, p=P, transport="local")
        assert res.stats.spill_reads == 0
        assert res.stats.spill_writes == 0
        assert res.stats.resident_highwater == 0

    def test_obs_counts_emitted(self, image):
        from repro.obs import WallRecorder

        rec = WallRecorder()
        darray_components(image, p=P, recorder=rec)
        names = {s.name for s in rec.log.spans}
        assert "darray:label" in names
        assert "darray:merge:r1" in names
        assert "darray:final" in names

    def test_file_source(self, tmp_path, image, serial_labels):
        from repro.images.io import write_pgm

        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        for transport in TRANSPORT_NAMES:
            res = darray_components(str(path), p=P, transport=transport)
            assert np.array_equal(np.asarray(res.labels), serial_labels), transport


def _count_identity_inputs(n: int):
    """``(name, image, grey)``: the nine patterns, then seeded DARPA grey,
    random binary and random 4-level images in both modes."""
    from repro.images import darpa_like

    for pattern in range(1, 10):
        yield f"pattern{pattern}", binary_test_image(pattern, n), False
    rng = np.random.default_rng(17)
    others = {
        "darpa": darpa_like(n, 256, seed=3),
        "binary": (rng.random((n, n)) < 0.55).astype(np.int32),
        "levels4": rng.integers(0, 4, size=(n, n)).astype(np.int32),
    }
    for name, img in others.items():
        for grey in (False, True):
            yield f"{name}-{'grey' if grey else 'binary'}", img, grey


class TestCountIdentity:
    """``n_components`` comes from the merges: the per-tile component
    counts minus the published change-array lengths.  It must equal the
    count read off the labels.

    The merge traffic is exact on every transport too: each internal
    tile edge is fetched once, both sides, at 16 bytes per pixel, and
    the change bytes are those of the ``local`` reference."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("p", [4, 16, 64])
    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_merges_give_the_component_count(self, transport, p, connectivity):
        n = 128 if transport == "shmem" else 256
        for name, img, grey in _count_identity_inputs(n):
            opts = dict(p=p, connectivity=connectivity, grey=grey)
            res = darray_components(img, transport=transport, **opts)
            expected = count_components(np.asarray(res.labels))
            assert res.n_components == expected, (name, res.n_components, expected)
            g = res.grid
            border = 16 * 2 * (g.rows * (g.w - 1) + g.cols * (g.v - 1))
            assert res.stats.border_bytes == border, (name, res.stats.border_bytes)
            if transport != "local":
                ref = darray_components(img, transport="local", **opts)
                assert res.stats.change_bytes == ref.stats.change_bytes, name

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("p", [4, 16, 64])
    @pytest.mark.parametrize("workers", [1, 2, 3, "p"])
    def test_shmem_block_local_rounds_match_local(self, workers, p, connectivity):
        # One worker merges every round inside its label block, two
        # merge all but the last, three leave blocks of unequal size,
        # and one worker per tile (at p=64 the default cap of 16, which
        # merges 2 rounds) dispatches every round, or nearly.
        workers = min(p, 16) if workers == "p" else workers
        for name, img, grey in _count_identity_inputs(128):
            opts = dict(p=p, connectivity=connectivity, grey=grey)
            res = darray_components(
                img, transport="shmem", workers=workers, degrade=False, **opts
            )
            ref = darray_components(img, transport="local", **opts)
            assert np.array_equal(res.labels, ref.labels), name
            assert res.n_components == ref.n_components, name
            assert res.stats.border_bytes == ref.stats.border_bytes, name
            assert res.stats.change_bytes == ref.stats.change_bytes, name


class TestBdmTransport:
    """The simulator's unregistered transport runs the shared driver:
    labels and count equal ``local``'s, border traffic is the exact
    figure, and change traffic is ``local``'s."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_matches_local_labels_count_and_traffic(self, p, connectivity):
        opts = dict(connectivity=connectivity)
        for name, img, grey in _count_identity_inputs(128):
            grid = ProcessorGrid(p, img.shape)
            bdm = BdmTransport(grid, img, Machine(p), grey=grey, **opts)
            labels, n_components = label_components(
                DistributedArray(grid, bdm), grey=grey, **opts
            )
            ref = darray_components(img, p=p, transport="local", grey=grey, **opts)
            assert np.array_equal(labels, ref.labels), name
            assert n_components == ref.n_components, name
            border = 16 * 2 * (grid.rows * (grid.w - 1) + grid.cols * (grid.v - 1))
            assert bdm.stats.border_bytes == border, name
            assert bdm.stats.change_bytes == ref.stats.change_bytes, name

    def test_histogram_names_the_simulated_one(self, image):
        grid = ProcessorGrid(P, N)
        with pytest.raises(ConfigurationError, match="parallel_histogram"):
            DistributedArray(grid, BdmTransport(grid, image, Machine(P))).histogram(2)

    def test_failover_error_propagates_without_degrading(self, image):
        plan = FaultPlan(faults=(
            FaultSpec(site="sim:merge", kind="crash", round=0, target="both"),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRunWarning)
            with pytest.raises(FailoverError, match="lost too"):
                parallel_components(image, P, fault_plan=plan)


class TestTransportRegistry:
    def test_known_names(self):
        assert set(TRANSPORTS) == {"local", "shmem", "mmap"}

    def test_unknown_name_raises(self, image):
        grid = ProcessorGrid(P, N)
        with pytest.raises(ValidationError, match="unknown transport"):
            open_transport("carrier-pigeon", grid, image)

    @pytest.mark.parametrize("opts", [{"kernel": "python"}, {"resident_tile": 2}])
    def test_option_no_transport_takes_raises(self, image, opts):
        grid = ProcessorGrid(P, N)
        (option,) = opts
        with pytest.raises(ValidationError, match=option):
            DistributedArray.open("local", grid, image, **opts)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_another_transports_options_are_accepted(self, transport, image):
        with DistributedArray.open(
            transport, ProcessorGrid(P, N), image, resident_tiles=1, workers=2
        ) as da:
            assert da.transport.name == transport

    def test_declared_options_are_the_constructors(self):
        for target, takes in TRANSPORTS.values():
            module_name, _, class_name = target.partition(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            params = inspect.signature(cls).parameters.values()
            assert takes == tuple(
                prm.name for prm in params if prm.kind is prm.KEYWORD_ONLY
            ), target

    def test_in_process_transports_load_no_pool_runtime(self):
        """Checking options imports no transport: a fresh interpreter that
        opens ``local`` and ``mmap`` with ``shmem``-only options loads
        neither the ``shmem`` transport nor the pool runtime."""
        code = (
            "import sys\n"
            "from repro.core.tiles import ProcessorGrid\n"
            "from repro.darray import DistributedArray\n"
            "from repro.images import binary_test_image\n"
            "image = binary_test_image(4, 32)\n"
            "for name in ('local', 'mmap'):\n"
            "    DistributedArray.open(name, ProcessorGrid(4, 32), image,\n"
            "                          workers=2, fault_plan=None).close()\n"
            "loaded = {'repro.darray.shmem_transport', 'repro.runtime.dispatch'}\n"
            "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
        )
        env = dict(os.environ)
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


def _first_round(transport, image, changes=None):
    """Label, then fetch the first merge round's borders; with
    ``changes``, publish them for that round.  ``"bdm"`` is the
    simulator's unregistered transport; ``shmem`` runs one worker per
    tile, so it dispatches round 0."""
    grid = ProcessorGrid(P, N)
    step = merge_schedule(grid)[0]
    if transport == "bdm":
        da = DistributedArray(grid, BdmTransport(grid, image, Machine(P)))
    else:
        da = DistributedArray.open(transport, grid, image, workers=P)
    with da:
        da.label()
        sides = da.border(0, step)
        if changes is not None:
            da.publish(0, step, changes)
    return step, sides


def _first_dispatched_round(transport, image, p, workers):
    """Label, run the driver's rounds up to ``shmem``'s first dispatched
    one at ``workers``, then fetch that round's borders:
    ``(round index, sides)``."""
    from repro.core.border_graph import solve_border_merge

    grid = ProcessorGrid(p, image.shape)
    schedule = merge_schedule(grid)
    first = block_local_rounds(p, workers)
    with DistributedArray.open(transport, grid, image, workers=workers) as da:
        da.label()
        for si in range(da.merged_rounds, first):
            changes = [
                solve_border_merge(a, b, connectivity=8, grey=False).changes
                for a, b in da.border(si, schedule[si])
            ]
            da.publish(si, schedule[si], changes)
        return first, da.border(first, schedule[first])


class TestRoundVerbs:
    """Verbs 2 and 3 take a whole merge round."""

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES + ("bdm",))
    def test_border_fetches_every_group_of_the_round(self, transport, image):
        step, sides = _first_round(transport, image)
        _, expect = _first_round("local", image)
        assert len(sides) == len(step.groups) == 2
        for (a, b), (ea, eb) in zip(sides, expect):
            for got, want in ((a, ea), (b, eb)):
                assert np.array_equal(got.labels, want.labels)
                assert np.array_equal(got.colors, want.colors)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES + ("bdm",))
    def test_publish_needs_one_change_array_per_group(self, transport, image):
        with assert_no_shm_leak():
            with pytest.raises(ValidationError, match="2 groups but 1 change arrays"):
                _first_round(transport, image, changes=[ChangeArray.empty()])

    @pytest.mark.parametrize("verb", ["border", "publish"])
    def test_block_local_rounds_are_not_dispatched(self, verb, image):
        # Two workers at p=4 hold one round-1 region each: round 0 runs
        # inside the label blocks, and only round 1 is the driver's.
        grid = ProcessorGrid(P, N)
        schedule = merge_schedule(grid)
        with assert_no_shm_leak():
            with DistributedArray.open("shmem", grid, image, workers=2) as da:
                assert da.merged_rounds == 1
                da.label()
                with pytest.raises(ValidationError, match="round 0 runs inside"):
                    if verb == "border":
                        da.border(0, schedule[0])
                    else:
                        da.publish(0, schedule[0], [ChangeArray.empty()] * 2)
                assert len(da.border(1, schedule[1])) == 1

    @pytest.mark.parametrize("p, workers", [(4, 2), (16, 2), (16, 3), (64, 2)])
    def test_first_dispatched_round_sides_match_local(self, p, workers):
        img = binary_test_image(4, 128)
        first, sides = _first_dispatched_round("shmem", img, p, workers)
        assert first > 0
        again, expect = _first_dispatched_round("local", img, p, workers)
        assert again == first and len(sides) == len(expect)
        for (a, b), (ea, eb) in zip(sides, expect):
            for got, want in ((a, ea), (b, eb)):
                assert np.array_equal(got.labels, want.labels)
                assert np.array_equal(got.colors, want.colors)


class TestBlockLocalRounds:
    """``shmem``'s label blocks merge the rounds inside them."""

    @pytest.mark.parametrize(
        "p, workers, rounds",
        [(64, 1, 6), (64, 2, 5), (64, 4, 4), (64, 16, 2), (64, 3, 3),
         (64, 5, 4), (64, 7, 1), (16, 2, 3), (4, 4, 0), (4, 16, 0), (1, 1, 0)],
    )
    def test_rounds_from_p_and_workers(self, p, workers, rounds):
        assert block_local_rounds(p, workers) == rounds

    @pytest.mark.parametrize("workers, sizes", [(2, [32, 32]), (3, [16, 24, 24])])
    def test_blocks_hold_whole_regions(self, workers, sizes):
        grid = ProcessorGrid(64, 2 * N)
        with DistributedArray.open("shmem", grid, binary_test_image(4, 2 * N),
                                   workers=workers) as da:
            blocks = da.transport._label_blocks
            rounds = da.merged_rounds
        assert [len(b) for b in blocks] == sizes
        assert sorted(pid for b in blocks for pid in b) == list(range(64))
        regions = merge_schedule(grid)[rounds - 1].groups
        for group in regions:
            assert sum(set(group.region) <= set(b) for b in blocks) == 1

    @pytest.mark.parametrize("transport", ["local", "mmap", "bdm"])
    def test_other_transports_merge_no_round_themselves(self, transport, image):
        grid = ProcessorGrid(P, N)
        if transport == "bdm":
            da = DistributedArray(grid, BdmTransport(grid, image, Machine(P)))
        else:
            da = DistributedArray.open(transport, grid, image)
        with da:
            assert da.merged_rounds == 0


class TestShmemSharedArrays:
    """``shmem``'s pool reads the image it inherits by fork (the caller
    must not change it while the transport is open) and shares one label
    array."""

    def test_creates_no_named_segment(self, image):
        before = shm_segments()
        with DistributedArray.open("shmem", ProcessorGrid(P, N), image, workers=2) as da:
            assert shm_segments() == before
            da.label()
            assert shm_segments() == before

    def test_gather_outlives_close_and_later_jobs(self, image):
        want = darray_components(image, p=P, transport="local").labels
        # darray_components gathers, then closes the transport.
        labels = darray_components(image, p=P, transport="shmem", workers=2).labels
        assert labels.flags.writeable
        assert np.array_equal(labels, want)
        later = darray_components(image, p=P, transport="shmem", workers=2).labels
        assert np.array_equal(labels, want)
        assert np.array_equal(later, want)
        assert not np.shares_memory(labels, later)

    def test_more_workers_than_cores_share_one_label_array(self, image):
        # Neighbouring tiles share pages of the one label array; a write
        # lost between workers would break bit-identity with local.
        workers = min((os.cpu_count() or 1) + 2, 16)
        want = darray_components(image, p=16, transport="local").labels
        got = darray_components(
            image, p=16, transport="shmem", workers=workers, timeout=60, degrade=False
        )
        assert np.array_equal(got.labels, want)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_a_pool_without_workers(self, image, workers):
        children = set(multiprocessing.active_children())
        with pytest.raises(ValidationError, match="workers must be a positive"):
            darray_components(image, p=P, transport="shmem", workers=workers)
        assert set(multiprocessing.active_children()) == children

    def test_needs_the_fork_start_method(self, image, monkeypatch):
        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        children = set(multiprocessing.active_children())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRunWarning)
            with pytest.raises(ConfigurationError, match="fork"):
                DistributedArray.open("shmem", ProcessorGrid(P, N), image)
            with pytest.raises(ConfigurationError, match="fork"):
                darray_components(image, p=P, transport="shmem")
        assert set(multiprocessing.active_children()) == children


def _matrix():
    plans = single_fault_plans(
        workload="components", engine="darray", n_rounds=N_ROUNDS, n_tasks=P
    )
    return [
        pytest.param(p, id=p.describe())
        for p in plans
        if p.faults[0].site in ("darray:border", "darray:fetch")
    ]


class TestShmemChaosMatrix:
    """The merge-protocol sites (border, fetch) recover bit-identically.

    tests/test_faults_runtime.py runs every other plan of the chaos
    matrix.
    """

    @pytest.mark.parametrize("plan", _matrix())
    def test_single_fault_recovers(self, plan, image, serial_labels):
        from repro.obs import WallRecorder

        rec = WallRecorder()
        with assert_no_shm_leak():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradedRunWarning)
                res = darray_components(
                    image, p=P, transport="shmem", fault_plan=plan, recorder=rec, **FAST,
                )
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        # The plan fired: labels alone would pass a site that never does.
        assert "fault:retry" in [i.name for i in rec.fault_events()]

    def test_local_transport_ignores_plans(self, image, serial_labels):
        # No workers to fault: plans are inert, never installed in the
        # driver (a crash spec would kill the test process otherwise).
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:border", kind="crash", times=-1),
        ))
        for transport in ("local", "mmap"):
            res = darray_components(image, p=P, transport=transport, fault_plan=plan)
            assert np.array_equal(np.asarray(res.labels), serial_labels)


def _persistent_border_fault():
    return FaultPlan(faults=(
        FaultSpec(site="darray:border", kind="exception", round=0, group=0, times=-1),
    ))


class TestDegradation:
    def test_exhausted_recovery_degrades_to_serial(self, image, serial_labels):
        from repro.obs import WallRecorder

        rec = WallRecorder()
        with assert_no_shm_leak():
            with pytest.warns(DegradedRunWarning, match="degraded to the serial"):
                res = darray_components(
                    image, p=P, transport="shmem", recorder=rec,
                    fault_plan=_persistent_border_fault(), **FAST,
                )
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        names = [i.name for i in rec.fault_events()]
        assert names[-1] == "fault:degrade"

    def test_degraded_result_keeps_the_label_dtype(self, image, serial_labels):
        # The serial fallback paints int32 too, so a fault does not
        # change the result's dtype.
        with pytest.warns(DegradedRunWarning):
            res = darray_components(
                image, p=P, transport="shmem", degrade=True,
                fault_plan=_persistent_border_fault(), **FAST,
            )
        assert res.labels.dtype == LABEL_DTYPE
        assert np.array_equal(res.labels, serial_labels)
        assert res.n_components == count_components(serial_labels)

    def test_degrade_false_raises_typed_error_without_leak(self, image):
        with assert_no_shm_leak():
            with pytest.raises(FaultError):
                darray_components(
                    image, p=P, transport="shmem", degrade=False,
                    fault_plan=_persistent_border_fault(), **FAST,
                )


def _memfd_links(pid="self") -> set[str]:
    """The fds of process ``pid`` that name a memfd."""
    links = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # the listing's own fd, closed by now
            continue
        if target.startswith("/memfd:"):
            links.add(f"{fd} -> {target}")
    return links


def _maps_memfd(pid: int) -> bool:
    with open(f"/proc/{pid}/maps") as maps:
        return any("/memfd:" in line for line in maps)


def _alive(pid: int) -> bool:
    """Is ``pid`` a running process (not gone, not a zombie)?"""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _fork_child_job():
    """A forked child's job: exit 0 iff ``shmem`` labels like ``local``."""
    image = binary_test_image(4, N)
    want = darray_components(image, p=P, transport="local").labels
    got = darray_components(image, p=P, transport="shmem", workers=2, degrade=False)
    sys.exit(0 if np.array_equal(got.labels, want) else 1)


class TestShmemWarmPool:
    """The jobs of a process share one warm pool: forked once, holding
    no job's state, file or plan between jobs, gone at exit."""

    def test_jobs_in_a_row_fork_once(self, image, serial_labels):
        children = []
        for _ in range(3):
            res = darray_components(image, p=P, transport="shmem", workers=2, degrade=False)
            assert np.array_equal(res.labels, serial_labels)
            children.append(set(multiprocessing.active_children()))
        assert len(children[0]) >= 2
        assert children[0] == children[2]

    def test_concurrent_jobs_leave_only_the_warm_pool(self, image, serial_labels):
        # A job that finds the warm pool held runs on a private pool,
        # which closes with it.
        import threading

        darray_components(image, p=P, transport="shmem", workers=2)
        children = set(multiprocessing.active_children())
        same, errors = [], []

        def jobs():
            try:
                for _ in range(3):
                    res = darray_components(
                        image, p=P, transport="shmem", workers=2, degrade=False
                    )
                    same.append(np.array_equal(res.labels, serial_labels))
            except Exception as exc:  # reported below, in the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=jobs) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and same == [True] * 6
        assert set(multiprocessing.active_children()) == children

    def test_live_results_hold_no_fd_and_unmap_when_freed(self, image, serial_labels):
        def job_maps() -> set[str]:
            with open("/proc/self/maps") as maps:
                return {line for line in maps if "memfd:repro-job" in line}

        gc.collect()
        mapped = job_maps()  # empty unless an earlier test kept a result
        files = _memfd_links()
        kept = [
            darray_components(image, p=P, transport="shmem", workers=2, degrade=False).labels
            for _ in range(5)
        ]
        assert len(job_maps() - mapped) == 5
        assert _memfd_links() == files == set()
        assert all(np.array_equal(labels, serial_labels) for labels in kept)
        del kept
        gc.collect()
        assert job_maps() == mapped

    def test_open_and_close_fork_nothing_and_make_no_file(self, image):
        children = set(multiprocessing.active_children())
        files = _memfd_links()
        DistributedArray.open("shmem", ProcessorGrid(P, N), image, workers=2).close()
        assert set(multiprocessing.active_children()) == children
        assert _memfd_links() == files

    def test_failed_job_leaves_nothing_to_the_next(self, image):
        from repro.obs import WallRecorder

        with pytest.raises(FaultError):
            darray_components(
                image, p=P, transport="shmem", degrade=False,
                fault_plan=_persistent_border_fault(), **FAST,
            )
        rec = WallRecorder()
        res = darray_components(image, p=P, transport="shmem", recorder=rec, **FAST)
        want = darray_components(image, p=P, transport="local").labels
        assert np.array_equal(res.labels, want)
        assert rec.fault_events() == []

    def test_idle_workers_map_no_job_file(self, image):
        kept = darray_components(image, p=P, transport="shmem", workers=2).labels
        # Forked while ``kept`` is mapped, and respawned mid-job: the
        # workers drop the job files they inherit.
        crash = FaultPlan(faults=(FaultSpec(site="darray:label", kind="crash", task=0),))
        res = darray_components(
            image, p=P, transport="shmem", fault_plan=crash, timeout=1.5, workers=3,
        )
        assert np.array_equal(res.labels, kept)
        workers = multiprocessing.active_children()
        assert len(workers) >= 3
        for worker in workers:
            assert not _maps_memfd(worker.pid), worker.pid
            assert _memfd_links(worker.pid) == set(), worker.pid

    def test_no_worker_outlives_the_interpreter(self):
        code = (
            "import json, multiprocessing\n"
            "from repro.darray import darray_components\n"
            "from repro.images import binary_test_image\n"
            "darray_components(binary_test_image(4, 32), p=4, transport='shmem',\n"
            "                  workers=2, degrade=False)\n"
            "print(json.dumps([c.pid for c in multiprocessing.active_children()]))\n"
        )
        env = dict(os.environ)
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        pids = json.loads(proc.stdout.splitlines()[-1])
        assert len(pids) == 2
        deadline = time.monotonic() + 2.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids)), pids

    def test_forked_child_runs_its_own_pool(self, image):
        darray_components(image, p=P, transport="shmem", workers=2)  # warm here
        child = multiprocessing.get_context("fork").Process(target=_fork_child_job)
        child.start()
        child.join(120)
        assert child.exitcode == 0

    def test_task_refuses_a_file_that_is_not_its_jobs(self, image):
        from repro.darray import shmem_transport as st
        from repro.runtime.dispatch import PoolSupervisor, job_file, run_tasks

        grid = ProcessorGrid(P, N)
        fd = job_file(image.size * 9)
        try:
            job = st._Job(
                os.getpid(), fd, os.fstat(fd).st_ino + 1, "|u1", image.size * 8,
                grid, {"connectivity": 8, "grey": False}, 0, None,
            )
            with PoolSupervisor(multiprocessing.get_context("fork"), 1, per_job=True) as sup:
                with pytest.raises(ValidationError, match="inode"):
                    run_tasks(
                        sup, st._shard_block, [(job, False, st._hist_item, [0], 2)],
                        site="test", timeout=30,
                    )
        finally:
            os.close(fd)

    def test_a_held_pool_lends_a_private_one(self):
        from repro.runtime.dispatch import borrow_pool, return_pool

        warm = borrow_pool(2)
        private = borrow_pool(2)  # as a job in another thread would
        assert private is not warm
        assert private.worker_pids()
        return_pool(private, warm=True)
        assert private._pool is None  # closed, though its job went well
        return_pool(warm, warm=True)
        assert borrow_pool(2) is warm
        return_pool(warm, warm=False)  # a failed job's pool is closed
        fresh = borrow_pool(2)
        assert fresh is not warm
        return_pool(fresh, warm=True)
