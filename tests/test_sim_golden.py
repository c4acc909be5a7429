"""Golden simulated costs of the BDM connected-components run.

``tests/golden/sim_reports.json`` pins, for every configuration of the
matrix below, what :func:`~repro.core.connected_components.parallel_components`
charges and computes: a SHA-256 over every field of every
:class:`~repro.bdm.cost.PhaseRecord` of ``machine.report()`` (floats by
``repr``), a SHA-256 over the canonical little-endian int64 label
image, the component count, and a SHA-256 over the per-round step
stats -- or, for a fault plan the simulator cannot recover from, the
:class:`~repro.utils.errors.FailoverError` message.  A moved charge, a
renamed or reordered phase, or a changed label shows up as a digest
mismatch against a value reviewed into git.

The matrix:

* the nine Figure-1 patterns and a seeded DARPA-like grey scene at
  128 x 128, for p in {1, 4, 16, 32} x connectivity {4, 8} on the CM-5,
  and p = 64 on the SP-2;
* at p = 16 (CM-5, 8-connectivity), one option changed at a time: the
  IDEAL machine, no shadow manager, transpose distribution, naive
  (unlimited) updating and split-phase overlap;
* every single ``sim:merge`` plan on the DARPA scene at p = 16 --
  manager, shadow or both lost, in rounds 0-3 and groups 0-1, under the
  direct and the transpose distribution -- plus a manager loss without a
  shadow manager;
* one 64 x 128 image at p = 8.

Regenerate (only when a simulated cost intentionally changes) with::

    PYTHONPATH=src python tests/test_sim_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core.connected_components import parallel_components
from repro.faults import FaultPlan, FaultSpec
from repro.images import binary_test_image, darpa_like
from repro.machines.params import CM5, IDEAL, SP2
from repro.utils.errors import FailoverError

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "sim_reports.json"

N = 128
IMAGES = tuple(f"pattern{i}" for i in range(1, 10)) + ("darpa",)

#: One option changed at a time from the p = 16 CM-5 baseline.
VARIANTS = {
    "ideal": {"machine_params": IDEAL},
    "no-shadow": {"shadow_manager": False},
    "transpose": {"distribution": "transpose"},
    "naive-update": {"limited_updating": False},
    "overlap": {"overlap": True},
}

#: The step-stat fields pinned per merge round.
STEP_FIELDS = (
    "t", "orientation", "n_groups", "border_pixels_per_side",
    "n_vertices", "n_changes", "n_failovers",
)


def _image(name: str) -> np.ndarray:
    if name == "darpa":
        return darpa_like(N, 256, seed=7)
    if name == "wide":
        rng = np.random.default_rng(23)
        return (rng.random((64, 128)) < 0.55).astype(np.int32)
    return binary_test_image(int(name.removeprefix("pattern")), N)


def _merge_loss(target: str, round_: int, group: int) -> FaultPlan:
    return FaultPlan(faults=(
        FaultSpec(site="sim:merge", kind="crash", round=round_, group=group,
                  target=target),
    ))


def _cases() -> dict[str, dict]:
    """Case key -> ``parallel_components`` arguments (``image`` by name)."""
    cases: dict[str, dict] = {}
    for name in IMAGES:
        grey = name == "darpa"
        for p in (1, 4, 16, 32):
            for conn in (4, 8):
                cases[f"{name}/cm5/p{p}/c{conn}"] = dict(
                    image=name, p=p, machine_params=CM5, connectivity=conn, grey=grey
                )
        for conn in (4, 8):
            cases[f"{name}/sp2/p64/c{conn}"] = dict(
                image=name, p=64, machine_params=SP2, connectivity=conn, grey=grey
            )
        for variant, opts in VARIANTS.items():
            cases[f"{name}/cm5/p16/c8/{variant}"] = {
                **dict(image=name, p=16, machine_params=CM5, connectivity=8, grey=grey),
                **opts,
            }
    for distribution in ("direct", "transpose"):
        for target in ("manager", "shadow", "both"):
            for round_ in range(4):
                for group in range(2):
                    key = f"darpa/cm5/p16/{distribution}/lose-{target}/r{round_}/g{group}"
                    cases[key] = dict(
                        image="darpa", p=16, machine_params=CM5, grey=True,
                        distribution=distribution,
                        fault_plan=_merge_loss(target, round_, group),
                    )
    cases["darpa/cm5/p16/no-shadow/lose-manager/r1/g0"] = dict(
        image="darpa", p=16, machine_params=CM5, grey=True, shadow_manager=False,
        fault_plan=_merge_loss("manager", 1, 0),
    )
    cases["wide/cm5/p8/c8"] = dict(image="wide", p=8, machine_params=CM5)
    return cases


CASES = _cases()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _measure(args: dict) -> dict:
    args = dict(args)
    image = _image(args.pop("image"))
    p = args.pop("p")
    try:
        res = parallel_components(image, p, **args)
    except FailoverError as exc:
        return {"failover": str(exc)}
    phases = "\n".join(
        "|".join(repr(getattr(ph, f.name)) for f in dataclasses.fields(ph))
        for ph in res.report.phases
    )
    steps = "\n".join(
        "|".join(repr(getattr(st, f)) for f in STEP_FIELDS) for st in res.step_stats
    )
    return {
        "elapsed_s": repr(res.report.elapsed_s),
        "phases": _digest(phases.encode()),
        "labels": _digest(np.ascontiguousarray(res.labels, dtype="<i8").tobytes()),
        "n_components": int(res.n_components),
        "steps": _digest(steps.encode()),
    }


def regenerate() -> None:
    golden = {key: _measure(args) for key, args in CASES.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), "golden fixture missing; see module docstring"
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_the_matrix(golden):
    assert set(golden) == set(CASES)
    assert sum("failover" in entry for entry in golden.values()) >= 8


@pytest.mark.parametrize("key", sorted(CASES))
def test_simulated_run_matches_golden(golden, key):
    assert _measure(CASES[key]) == golden[key], key


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
