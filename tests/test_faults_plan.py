"""Tests for the declarative fault-plan model (repro.faults.plan) and
the event-loop firing of its specs (``fire_async``)."""

import asyncio
import json
import pathlib
import re
import time

import pytest

from repro.faults import (
    KINDS,
    SCHEMA,
    SITES,
    FaultPlan,
    FaultSpec,
    fire_async,
    install_plan,
    single_fault_plans,
)
from repro.utils.errors import TransientTaskError, ValidationError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(site="darray:border", kind="crash")
        assert spec.round is None and spec.group is None and spec.task is None
        assert spec.times == 1
        assert spec.probability == 1.0

    def test_unknown_site_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="cc:nope", kind="crash")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="darray:border", kind="melt")

    def test_corrupt_only_at_merge(self):
        FaultSpec(site="darray:border", kind="corrupt")  # fine
        with pytest.raises(ValidationError):
            FaultSpec(site="darray:label", kind="corrupt")

    def test_sim_merge_is_crash_only(self):
        FaultSpec(site="sim:merge", kind="crash", target="shadow")  # fine
        with pytest.raises(ValidationError):
            FaultSpec(site="sim:merge", kind="hang")

    def test_bad_target(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="sim:merge", kind="crash", target="everyone")

    def test_times_zero_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="darray:label", kind="crash", times=0)

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="darray:label", kind="crash", probability=1.5)

    def test_wildcard_selectors_match_everything(self):
        spec = FaultSpec(site="darray:border", kind="exception")
        assert spec.matches("darray:border", round=0, group=0)
        assert spec.matches("darray:border", round=3, group=7)
        assert not spec.matches("darray:label", task=0)

    def test_pinned_selectors(self):
        spec = FaultSpec(site="darray:border", kind="exception", round=1, group=2)
        assert spec.matches("darray:border", round=1, group=2)
        assert not spec.matches("darray:border", round=1, group=0)
        assert not spec.matches("darray:border", round=0, group=2)

    def test_times_bounds_attempts(self):
        spec = FaultSpec(site="darray:label", kind="exception", task=0, times=2)
        assert spec.matches("darray:label", task=0, attempt=0)
        assert spec.matches("darray:label", task=0, attempt=1)
        assert not spec.matches("darray:label", task=0, attempt=2)

    def test_times_minus_one_is_every_attempt(self):
        spec = FaultSpec(site="darray:label", kind="exception", task=0, times=-1)
        for attempt in range(10):
            assert spec.matches("darray:label", task=0, attempt=attempt)

    def test_describe_mentions_kind_site_and_selectors(self):
        spec = FaultSpec(site="darray:border", kind="crash", round=1, group=0)
        text = spec.describe()
        assert "crash" in text and "darray:border" in text
        assert "round=1" in text and "group=0" in text


class TestFaultPlanMatching:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.match("darray:label", task=0) is None
        assert plan.match_all("darray:label", task=0) == []

    def test_first_hit_wins(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:label", kind="exception", task=0),
            FaultSpec(site="darray:label", kind="crash", task=0),
        ))
        assert plan.match("darray:label", task=0).kind == "exception"
        assert [s.kind for s in plan.match_all("darray:label", task=0)] == [
            "exception", "crash",
        ]

    def test_probability_is_deterministic(self):
        plan = FaultPlan(seed=3, faults=(
            FaultSpec(site="darray:label", kind="exception", probability=0.5),
        ))
        draws = [
            plan.match("darray:label", task=t, attempt=0) is not None
            for t in range(64)
        ]
        again = [
            plan.match("darray:label", task=t, attempt=0) is not None
            for t in range(64)
        ]
        assert draws == again  # same seed, same decisions
        assert any(draws) and not all(draws)  # ~half fire

    def test_probability_depends_on_seed(self):
        spec = FaultSpec(site="darray:label", kind="exception", probability=0.5)
        a = [FaultPlan(seed=0, faults=(spec,)).match("darray:label", task=t) for t in range(64)]
        b = [FaultPlan(seed=1, faults=(spec,)).match("darray:label", task=t) for t in range(64)]
        assert [x is None for x in a] != [x is None for x in b]

    def test_sites(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:label", kind="crash"),
            FaultSpec(site="darray:border", kind="corrupt"),
        ))
        assert plan.sites() == {"darray:label", "darray:border"}


class TestFaultPlanSerialization:
    def test_json_roundtrip(self):
        plan = FaultPlan(seed=7, faults=(
            FaultSpec(site="darray:border", kind="crash", round=1, group=0),
            FaultSpec(site="sim:merge", kind="crash", target="shadow", times=-1),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_to_json_has_schema(self):
        assert FaultPlan().to_json()["schema"] == SCHEMA

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(site="darray:hist", kind="hang", task=2, delay_s=0.5),
        ))
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan
        # and it is real, human-editable JSON
        obj = json.loads(path.read_text())
        assert obj["faults"][0]["site"] == "darray:hist"

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan.from_json({"schema": "repro-faults/v999", "faults": []})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan.from_json(
                {"faults": [{"site": "darray:label", "kind": "crash", "color": "red"}]}
            )

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            FaultPlan.load(path)

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan.from_json([1, 2, 3])

    def test_plan_is_picklable(self):
        # it must cross the pool-initializer boundary into workers
        import pickle

        plan = FaultPlan(faults=(FaultSpec(site="darray:label", kind="crash"),))
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestSingleFaultPlans:
    def test_process_components_matrix(self):
        plans = single_fault_plans(
            workload="components", engine="darray", n_rounds=2, n_tasks=4
        )
        descrs = [p.describe() for p in plans]
        assert len(plans) == len(set(descrs))  # no duplicates
        assert all(len(p.faults) == 1 for p in plans)
        kinds = {p.faults[0].kind for p in plans}
        assert kinds == {"crash", "hang", "exception", "corrupt"}
        for site in ("darray:border", "darray:fetch"):
            merge_rounds = {p.faults[0].round for p in plans if p.faults[0].site == site}
            assert merge_rounds == {0, 1}, site  # every merge round covered
        sites = {p.faults[0].site for p in plans}
        assert sites == {"darray:label", "darray:border", "darray:fetch", "darray:final"}

    def test_process_histogram_matrix(self):
        plans = single_fault_plans(
            workload="histogram", engine="darray", n_rounds=0, n_tasks=4
        )
        assert {p.faults[0].site for p in plans} == {"darray:hist"}
        assert {p.faults[0].kind for p in plans} == {"crash", "hang", "exception"}
        assert {p.faults[0].task for p in plans} == {0, 3}  # first and last tile

    def test_removed_process_engine_rejected(self):
        with pytest.raises(ValidationError, match="unknown engine"):
            single_fault_plans(
                workload="components", engine="process", n_rounds=2, n_tasks=4
            )

    def test_sim_matrix_covers_both_targets_every_round(self):
        plans = single_fault_plans(
            workload="components", engine="sim", n_rounds=3, n_tasks=16
        )
        combos = {(p.faults[0].round, p.faults[0].target) for p in plans}
        assert combos == {(r, t) for r in range(3) for t in ("manager", "shadow")}

    def test_sim_histogram_rejected(self):
        with pytest.raises(ValidationError):
            single_fault_plans(
                workload="histogram", engine="sim", n_rounds=0, n_tasks=4
            )

    def test_unknown_workload(self):
        with pytest.raises(ValidationError):
            single_fault_plans(
                workload="sorting", engine="darray", n_rounds=0, n_tasks=4
            )


def test_public_site_and_kind_catalogs():
    assert "sim:merge" in SITES
    assert len(SITES) == len(set(SITES)) == 10
    assert set(KINDS) == {"crash", "hang", "exception", "corrupt"}


class TestNoOrphanSites:
    """Every declared site is reachable; every darray site is in the matrix."""

    def test_every_site_is_fired_under_src(self):
        # The workers fire their sites with fire()/fire_async(); the
        # simulator consults its plan with match_all().
        call = re.compile(r"\b(?:fire|fire_async|match_all)\(\s*\"([a-z]+:[a-z]+)\"")
        fired = set()
        for path in SRC.rglob("*.py"):
            fired.update(call.findall(path.read_text()))
        assert set(SITES) <= fired, sorted(set(SITES) - fired)
        assert fired <= set(SITES), sorted(fired - set(SITES))

    def test_every_darray_site_is_in_the_chaos_matrix(self):
        covered = set()
        for workload in ("components", "histogram"):
            for plan in single_fault_plans(
                workload=workload, engine="darray", n_rounds=2, n_tasks=4
            ):
                covered.update(plan.sites())
        assert covered == {s for s in SITES if s.startswith("darray:")}


def _fire_async(plan, site, **selectors):
    """``await fire_async(site, **selectors)`` with ``plan`` installed."""

    async def scenario():
        install_plan(plan)
        try:
            return await fire_async(site, **selectors)
        finally:
            install_plan(None)

    return asyncio.run(scenario())


class TestFireAsync:
    """``fire_async`` acts on a spec as ``fire`` does, except that a hang
    awaits instead of blocking the event loop."""

    def test_no_plan_returns_none(self):
        assert _fire_async(None, "svc:route", task=0) is None

    def test_exception_raises_a_transient_error(self):
        plan = FaultPlan(faults=(FaultSpec(site="svc:route", kind="exception"),))
        with pytest.raises(TransientTaskError, match="svc:route") as info:
            _fire_async(plan, "svc:route", task=1)
        assert info.value.site == "svc:route"

    def test_corrupt_returns_the_spec(self):
        spec = FaultSpec(site="darray:border", kind="corrupt", round=0)
        got = _fire_async(FaultPlan(faults=(spec,)), "darray:border", round=0, group=1)
        assert got == spec

    def test_hang_lets_other_tasks_run(self):
        plan = FaultPlan(faults=(FaultSpec(site="svc:health", kind="hang", delay_s=0.2),))
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0.01)

        async def scenario():
            install_plan(plan)
            task = asyncio.ensure_future(ticker())
            try:
                t0 = time.monotonic()
                got = await fire_async("svc:health", task=0)
                return got, time.monotonic() - t0
            finally:
                task.cancel()
                install_plan(None)

        got, elapsed = asyncio.run(scenario())
        assert got is None
        assert 0.2 <= elapsed < 2.0  # bounded by delay_s, not the default hang
        assert ticks >= 5  # a blocking sleep would not have let the ticker run
