"""Tests for the deterministic fault-injection harness."""

from __future__ import annotations

import pickle
import sqlite3
import time

import pytest

from repro.fleet.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    TransientFault,
)
from repro.fleet.store import DeviceStateStore, StoreError


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic-ray")

    def test_rejects_bad_budget_and_probability(self):
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(kind="transient", max_fires=0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="transient", probability=0.0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="transient", probability=1.5)

    def test_kinds_are_the_service_failure_classes(self):
        assert FAULT_KINDS == ("transient", "crash", "slow", "store_write")


class TestFiring:
    def test_budget_bounds_fires(self):
        plan = FaultPlan([FaultSpec(kind="transient", max_fires=2)])
        with pytest.raises(TransientFault):
            plan.on_device_work("site-a")
        with pytest.raises(TransientFault):
            plan.on_device_work("site-b")
        plan.on_device_work("site-c")  # budget spent: no fault
        assert plan.fires == 2

    def test_target_substring_match(self):
        plan = FaultPlan([FaultSpec(kind="transient", target="device-3", max_fires=9)])
        plan.on_device_work("round1:device-1:a1")
        with pytest.raises(TransientFault):
            plan.on_device_work("round1:device-3:a1")
        assert plan.fires == 1

    def test_soft_crash_raises(self):
        plan = FaultPlan([FaultSpec(kind="crash", hard=False)])
        with pytest.raises(InjectedCrash):
            plan.on_device_work("anywhere")

    def test_slow_sleeps(self):
        plan = FaultPlan([FaultSpec(kind="slow", delay=0.05)])
        started = time.perf_counter()
        plan.on_device_work("s")
        assert time.perf_counter() - started >= 0.05
        started = time.perf_counter()
        plan.on_device_work("s")  # budget spent
        assert time.perf_counter() - started < 0.05

    def test_store_write_raises_operational_error(self):
        plan = FaultPlan([FaultSpec(kind="store_write", target="update")])
        plan.on_store_write("INSERT INTO devices VALUES (1)")
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            plan.on_store_write("UPDATE devices SET x = 1")

    def test_probabilistic_firing_is_deterministic(self):
        def pattern(seed):
            plan = FaultPlan(
                [FaultSpec(kind="transient", probability=0.5, max_fires=1000)],
                seed=seed,
            )
            fired = []
            for k in range(40):
                try:
                    plan.on_device_work(f"site-{k}")
                    fired.append(False)
                except TransientFault:
                    fired.append(True)
            return fired

        first = pattern(seed=11)
        assert pattern(seed=11) == first  # same seed → same schedule
        assert pattern(seed=12) != first  # different seed → different one
        assert any(first) and not all(first)  # genuinely fractional

    def test_plan_is_picklable(self):
        """Plans travel to worker processes inside task payloads."""
        plan = FaultPlan([FaultSpec(kind="crash", hard=True, target="a1")], seed=3)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs[0].kind == "crash"
        assert clone.seed == 3
        assert clone.fires == 0


def _fires_on_device_work(plan):
    try:
        plan.on_device_work("round1:device-0:a0")
    except (TransientFault, InjectedCrash):
        return True
    return False


def _fires_on_store_write(plan):
    try:
        plan.on_store_write("UPDATE devices SET quarantined = 1")
    except sqlite3.OperationalError:
        return True
    return False


class TestInjectionSites:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_spec_fires_only_at_its_own_site(self, kind):
        plan = FaultPlan([FaultSpec(kind=kind, max_fires=9)])
        store_fired = _fires_on_store_write(plan)
        work_fired = _fires_on_device_work(plan)
        if kind == "slow":  # a straggler delays; it never raises
            assert (store_fired, work_fired, plan.fires) == (False, False, 1)
        elif kind == "store_write":
            assert (store_fired, work_fired, plan.fires) == (True, False, 1)
        else:
            assert (store_fired, work_fired, plan.fires) == (False, True, 1)

    def test_budgets_are_per_spec(self):
        plan = FaultPlan(
            [
                FaultSpec(kind="transient", target="device-0", max_fires=1),
                FaultSpec(kind="transient", target="device-1", max_fires=2),
            ]
        )
        fired = []
        for site in ["device-0", "device-0", "device-1", "device-1", "device-1"]:
            try:
                plan.on_device_work(site)
                fired.append(False)
            except TransientFault:
                fired.append(True)
        assert fired == [True, False, True, True, False]
        assert plan.fires == 3

    def test_one_call_can_be_slow_and_then_crash(self):
        plan = FaultPlan(
            [FaultSpec(kind="crash", hard=False), FaultSpec(kind="slow", delay=0.02)]
        )
        started = time.perf_counter()
        with pytest.raises(InjectedCrash):
            plan.on_device_work("s")
        assert time.perf_counter() - started >= 0.02
        assert plan.fires == 2

    def test_store_write_site_is_the_lowercased_sql_verb(self):
        plan = FaultPlan([FaultSpec(kind="store_write", target="devices", max_fires=9)])
        plan.on_store_write("UPDATE devices SET quarantined = 1")  # table names never match
        plan = FaultPlan([FaultSpec(kind="store_write", target="insert", max_fires=9)])
        with pytest.raises(sqlite3.OperationalError):
            plan.on_store_write("  INSERT INTO devices VALUES (1)")


class TestStoreUnderFaults:
    @pytest.mark.parametrize("fires,absorbed", [(1, True), (2, True), (3, False)])
    def test_write_retries_absorb_a_bounded_fault(self, fires, absorbed):
        """A store-write fault is absorbed while its budget is below the
        store's write retries and surfaces as ``StoreError`` once it is not."""
        plan = FaultPlan([FaultSpec(kind="store_write", target="insert", max_fires=fires)])
        with DeviceStateStore(write_retries=3, retry_sleep=0.0) as store:
            store.before_write = plan.on_store_write
            if absorbed:
                store.register_device("d0")
                store.before_write = None
                assert store.create_round(["d0"]) == 1
            else:
                with pytest.raises(StoreError, match="after 3 attempts"):
                    store.register_device("d0")
            assert plan.fires == fires
