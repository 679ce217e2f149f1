"""Recovery tests for the durable fleet calibration service.

Every fault class of the harness (worker crash, transient exception, slow
device/timeout, store-write failure) is injected deterministically and the
round must either complete via retry or quarantine the device — and whenever
it completes, the fleet's final codes must be bit-identical at float64 to the
uninterrupted golden run.  That is the contract that makes the durability
machinery trustworthy: recovery may cost time, never correctness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.fleet import (
    FaultPlan,
    FaultSpec,
    Fleet,
    FleetCalibrator,
    FleetService,
    RetryPolicy,
    dataset_digest,
)
from repro.fleet.service import RoundStatus
from repro.fleet.store import DeviceStateStore, StoreError
from repro.models import build_model

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=16,
    train_per_class=8, val_per_class=1, test_per_class=3,
)

NUM_DEVICES = 3

#: A retry policy with no sleeping — tests exercise logic, not clocks.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def packaged():
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    model = build_model(
        "InceptionTime", data.input_shape, data.num_classes,
        rng=np.random.default_rng(0),
    )
    framework = QCoreFramework(
        levels=(4,), qcore_size=12, train_epochs=3, calibration_epochs=4,
        edge_calibration_epochs=2, seed=0,
    )
    framework.fit(model, data[data.domain_names[0]].train)
    deployment = framework.deploy(bits=4)
    return data, framework, deployment


def _fleet(deployment):
    """A fresh fleet of identical replicas at the packaged state."""
    return Fleet.replicate(deployment, NUM_DEVICES, seed=0)


def _pools(data, device_ids, shared=False):
    target = data[data.domain_names[1]].train
    if shared:
        pool = target.subset(np.arange(12))
        return {device_id: pool for device_id in device_ids}
    return {
        device_id: target.subset(np.arange(k * 6, k * 6 + 12) % len(target))
        for k, device_id in enumerate(device_ids)
    }


@pytest.fixture(scope="module")
def golden(packaged):
    """Digests of an uninterrupted plain-calibrator round (the pin)."""
    data, _, deployment = packaged
    fleet = _fleet(deployment)
    FleetCalibrator().calibrate(fleet, _pools(data, fleet.ids))
    return fleet.codes_digests()


def _drain_round(service, pools):
    round_id = service.submit(pools)
    return round_id, service.drain(round_id, pools)


class TestHappyPath:
    def test_bit_identical_to_plain_calibrator(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.calibrated_devices == NUM_DEVICES
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden

    def test_identical_replicas_dedupe_to_one_group(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        pools = _pools(data, fleet.ids, shared=True)
        service = FleetService(fleet)
        _, outcome = _drain_round(service, pools)
        assert outcome.num_groups == 1
        assert outcome.calibrated_devices == NUM_DEVICES
        # The scatter must equal per-device calibration: all replicas started
        # identical with identical pools, so they must all end identical.
        digests = set(fleet.codes_digests().values())
        assert len(digests) == 1

    def test_scatter_matches_per_device_calibration(self, packaged):
        """The dedupe shortcut (calibrate one representative, scatter the
        state) must be bit-identical to calibrating every replica."""
        data, _, deployment = packaged
        serial = _fleet(deployment)
        pools = _pools(data, serial.ids, shared=True)
        FleetCalibrator().calibrate(serial, pools)

        deduped = _fleet(deployment)
        service = FleetService(deduped)
        _drain_round(service, _pools(data, deduped.ids, shared=True))
        assert deduped.codes_digests() == serial.codes_digests()

    def test_poll_reports_progress(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        round_id = service.submit(pools)
        status = service.poll(round_id)
        assert status.counts == {"pending": NUM_DEVICES}
        assert not status.done
        service.drain(round_id, pools)
        status = service.poll(round_id)
        assert status.counts == {"done": NUM_DEVICES}
        assert status.done and status.quarantined == {}

    def test_submit_requires_pools_for_all_devices(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        pools.pop("device-2")
        with pytest.raises(KeyError, match="device-2"):
            service.submit(pools)


class TestSubsetSubmit:
    """``submit(device_ids=...)`` opens a round for exactly the named devices."""

    def test_subset_round_holds_only_named_devices(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        round_id = service.submit(pools, device_ids=["device-0", "device-2"])
        rows = service.store.device_rounds(round_id)
        assert [row.device_id for row in rows] == ["device-0", "device-2"]
        assert service.store.get_round(round_id).num_devices == 2
        outcome = service.drain(round_id, pools)
        assert set(outcome.statuses) == {"device-0", "device-2"}
        digests = fleet.codes_digests()
        assert digests["device-0"] == golden["device-0"]
        assert digests["device-2"] == golden["device-2"]

    def test_devices_outside_the_subset_keep_their_codes(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        round_id = service.submit(pools, device_ids=["device-1"])
        service.drain(round_id, pools)
        after = fleet.codes_digests()
        assert after["device-0"] == before["device-0"]
        assert after["device-2"] == before["device-2"]
        assert after["device-1"] != before["device-1"]

    def test_duplicate_id_raises(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        with pytest.raises(ValueError, match="duplicate"):
            service.submit(_pools(data, fleet.ids), device_ids=["device-0", "device-0"])
        assert service.store.list_rounds() == []

    def test_unknown_id_raises(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, [*fleet.ids, "device-9"])  # a pool alone is no membership
        with pytest.raises(KeyError, match="device-9"):
            service.submit(pools, device_ids=["device-0", "device-9"])
        assert service.store.list_rounds() == []

    def test_quarantined_id_raises(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        service.store.register_device("device-1")
        service.store.quarantine_device("device-1", "sensor fault")
        with pytest.raises(ValueError, match="quarantined"):
            service.submit(_pools(data, fleet.ids), device_ids=["device-0", "device-1"])
        assert service.store.list_rounds() == []


class TestQuarantineLifecycle:
    def test_released_device_rejoins_the_next_round(self, packaged):
        """``release_device`` is the operator's way back: a released device
        joins the next full round and calibrates like any other."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        service.store.register_device("device-1")
        service.store.quarantine_device("device-1", "sensor fault")
        pools = _pools(data, fleet.ids)
        held = service.submit(pools)
        assert [row.device_id for row in service.store.device_rounds(held)] == [
            "device-0",
            "device-2",
        ]
        service.drain(held, pools)
        service.store.release_device("device-1")
        rejoined = service.submit(pools)
        assert [row.device_id for row in service.store.device_rounds(rejoined)] == list(
            fleet.ids
        )
        outcome = service.drain(rejoined, pools)
        assert outcome.statuses["device-1"] == "done"
        assert service.store.quarantined_devices() == {}

    def test_whole_fleet_quarantined_raises(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        for device_id in fleet.ids:
            service.store.register_device(device_id)
            service.store.quarantine_device(device_id, "bad batch")
        with pytest.raises(ValueError, match="no eligible devices"):
            service.submit(_pools(data, fleet.ids))
        assert service.store.list_rounds() == []

    def test_persistent_straggler_quarantines_on_timeout(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="slow", target="device-2", delay=0.4, max_fires=9)])
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, jitter=0.0, timeout=0.35
        )
        service = FleetService(fleet, retry_policy=policy, fault_plan=plan)
        before = fleet.codes_digests()
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert set(outcome.quarantined) == {"device-2"}
        assert "TimeoutError" in outcome.quarantined["device-2"]
        assert service.store.get_device_round(round_id, "device-2").attempts == 2
        digests = fleet.codes_digests()
        # The straggler keeps its round-start calibration; the rest match golden.
        assert digests["device-2"] == before["device-2"]
        assert digests["device-0"] == golden["device-0"]
        assert digests["device-1"] == golden["device-1"]


class TestFaultInjection:
    def test_transient_fault_retries_to_bit_identical_result(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        # Fire on every group's first attempt; retries are clean.
        plan = FaultPlan([FaultSpec(kind="transient", target=":a1", max_fires=NUM_DEVICES)])
        service = FleetService(fleet, retry_policy=FAST_RETRY, fault_plan=plan)
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert plan.fires >= 1
        assert outcome.retries >= 1
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden
        rows = service.store.device_rounds(round_id)
        assert all(row.status == "done" for row in rows)
        assert all(row.attempts == 2 for row in rows)

    def test_soft_crash_retries_to_bit_identical_result(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="crash", hard=False, target=":a1", max_fires=1)])
        service = FleetService(fleet, retry_policy=FAST_RETRY, fault_plan=plan)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden

    def test_hard_crash_in_worker_is_retried(self, packaged, golden):
        """A worker killed by os._exit mid-calibration (indistinguishable
        from a segfault) must cost one retry, not the round."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="crash", hard=True, target="device-0:a1")])
        service = FleetService(
            fleet,
            retry_policy=FAST_RETRY,
            fault_plan=plan,
            workers=2,
            mp_context="fork",
        )
        with service:
            round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
            assert outcome.quarantined == {}
            assert outcome.retries >= 1
            assert fleet.codes_digests() == golden
            row = service.store.get_device_round(round_id, "device-0")
            assert row.attempts == 2
            assert "died" in (row.last_error or "") or row.last_error is None

    def test_slow_device_times_out_then_succeeds(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan(
            [FaultSpec(kind="slow", target="device-1:a1", delay=0.4)]
        )
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.0, jitter=0.0, timeout=0.35
        )
        service = FleetService(fleet, retry_policy=policy, fault_plan=plan)
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden
        row = service.store.get_device_round(round_id, "device-1")
        assert row.attempts == 2

    def test_store_write_fault_is_absorbed_by_write_retry(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="store_write", target="update", max_fires=2)])
        store = DeviceStateStore(retry_sleep=0.0)
        service = FleetService(
            fleet, store=store, retry_policy=FAST_RETRY, fault_plan=plan
        )
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert plan.fires == 2
        assert outcome.calibrated_devices == NUM_DEVICES
        assert fleet.codes_digests() == golden
        assert all(
            row.status == "done" for row in service.store.device_rounds(round_id)
        )

    def test_poisoned_device_quarantines_round_completes(self, packaged, golden):
        """Graceful degradation: a device that fails every attempt must be
        quarantined with its traceback persisted while the healthy remainder
        still completes — the round never raises."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0", max_fires=99)])
        service = FleetService(fleet, retry_policy=FAST_RETRY, fault_plan=plan)
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert set(outcome.quarantined) == {"device-0"}
        assert "TransientFault" in outcome.quarantined["device-0"]
        assert outcome.statuses["device-1"] == "done"
        assert outcome.statuses["device-2"] == "done"
        # Healthy devices match the golden run exactly.
        digests = fleet.codes_digests()
        assert digests["device-1"] == golden["device-1"]
        assert digests["device-2"] == golden["device-2"]
        # Quarantine is persisted with the traceback, and attempts hit the cap.
        assert "device-0" in service.store.quarantined_devices()
        assert service.store.get_device_round(round_id, "device-0").attempts == 3
        # The next round excludes the quarantined device automatically.
        next_round = service.submit(_pools(data, fleet.ids))
        assert {row.device_id for row in service.store.device_rounds(next_round)} == {
            "device-1",
            "device-2",
        }


    def test_fault_plan_is_the_store_write_hook(self, packaged):
        _, _, deployment = packaged
        plan = FaultPlan([FaultSpec(kind="store_write")])
        service = FleetService(_fleet(deployment), fault_plan=plan)
        assert service.store.before_write == plan.on_store_write
        assert FleetService(_fleet(deployment)).store.before_write is None

    def test_store_failure_past_write_retries_surfaces_from_submit(self, packaged):
        """Store writes are the service's durability: a write that keeps
        failing is raised, never swallowed into a half-recorded round."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="store_write", target="insert", max_fires=99)])
        store = DeviceStateStore(write_retries=2, retry_sleep=0.0)
        service = FleetService(fleet, store=store, fault_plan=plan)
        with pytest.raises(StoreError, match="after 2 attempts"):
            service.submit(_pools(data, fleet.ids))
        assert plan.fires == 2
        assert service.store.list_rounds() == []

    def test_pooled_round_is_bit_identical(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        with FleetService(fleet, workers=2, mp_context="fork") as service:
            round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
            assert outcome.calibrated_devices == NUM_DEVICES
            assert outcome.retries == 0
            assert fleet.codes_digests() == golden
            assert service.poll(round_id).counts == {"done": NUM_DEVICES}


class TestResume:
    def test_interrupted_round_resumes_bit_identical(self, packaged, golden, tmp_path):
        """The headline durability claim: a round interrupted mid-flight and
        resumed from the store by a *fresh* service over a *rebuilt* fleet
        must produce flip decisions bit-identical to the uninterrupted run."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"
        pools_by = lambda fleet: _pools(data, fleet.ids)

        # Process one: submit, then "crash" mid-round — rows are mid-attempt
        # (running) and the in-memory device state has drifted arbitrarily.
        fleet_a = _fleet(deployment)
        service_a = FleetService(fleet_a, store=DeviceStateStore(path))
        round_id = service_a.submit(pools_by(fleet_a))
        for device_id in fleet_a.ids:
            service_a.store.mark_running(round_id, device_id)
        drift_pools = _pools(data, fleet_a.ids, shared=True)
        FleetCalibrator().calibrate(fleet_a, drift_pools)  # simulated partial work
        service_a.store.close()  # the "crash": nothing else is cleaned up

        # Process two: fresh service, fleet rebuilt at round-start state.
        fleet_b = _fleet(deployment)
        service_b = FleetService(fleet_b, store=DeviceStateStore(path))
        assert service_b.store.unfinished_rounds() == [round_id]
        outcomes = service_b.resume(pools_by(fleet_b))
        assert len(outcomes) == 1
        assert outcomes[0].resumed_devices == NUM_DEVICES
        assert outcomes[0].quarantined == {}
        assert fleet_b.codes_digests() == golden
        status = service_b.poll(round_id)
        assert status.done and status.status == "done"
        # Interrupted attempts count: resume is attempt 2 for every device.
        assert all(
            attempts == 2 for attempts in status.attempts.values()
        )

    def test_finished_round_reapplies_idempotently(self, packaged, golden, tmp_path):
        """Draining an already-done round restores the persisted results —
        recovery after a crash *between* rounds costs zero recalibration."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"

        fleet_a = _fleet(deployment)
        service_a = FleetService(fleet_a, store=DeviceStateStore(path))
        round_id, _ = _drain_round(service_a, _pools(data, fleet_a.ids))
        assert fleet_a.codes_digests() == golden
        service_a.store.close()

        fleet_b = _fleet(deployment)
        service_b = FleetService(fleet_b, store=DeviceStateStore(path))
        outcome = service_b.drain(round_id, _pools(data, fleet_b.ids))
        assert outcome.resumed_devices == NUM_DEVICES
        assert outcome.calibrated_devices == NUM_DEVICES
        assert fleet_b.codes_digests() == golden

    def test_resume_closes_out_a_round_without_device_rows(self, packaged, tmp_path):
        """A crash between ``create_round`` and the first
        ``init_device_round`` leaves a round with no device rows: ``resume``
        marks it done without draining or touching any device."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"
        store = DeviceStateStore(path)
        round_id = store.create_round(["device-0", "device-1"])
        store.close()  # the "crash": no device row was ever written

        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        service = FleetService(fleet, store=DeviceStateStore(path))
        assert service.store.unfinished_rounds() == [round_id]
        assert service.resume(_pools(data, fleet.ids)) == []
        assert service.store.get_round(round_id).status == "done"
        assert service.store.unfinished_rounds() == []
        assert fleet.codes_digests() == before

    def test_drain_rejects_mismatched_pools(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        round_id = service.submit(_pools(data, fleet.ids))
        with pytest.raises(ValueError, match="bit-identity"):
            service.drain(round_id, _pools(data, fleet.ids, shared=True))


    def test_drain_unknown_round_raises(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        with pytest.raises(KeyError, match="unknown round"):
            service.drain(7, _pools(data, fleet.ids))

    def test_drain_needs_a_pool_for_every_device_row(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        round_id = service.submit(pools)
        pools.pop("device-1")
        with pytest.raises(KeyError, match="device-1"):
            service.drain(round_id, pools)


class TestRoundStatus:
    @pytest.mark.parametrize(
        "counts,done",
        [
            ({}, True),
            ({"pending": 1, "done": 2}, False),
            ({"running": 1}, False),
            ({"done": 2, "quarantined": 1}, True),
        ],
    )
    def test_done_means_nothing_pending_or_running(self, counts, done):
        status = RoundStatus(round_id=1, status="running", counts=counts,
                             attempts={}, quarantined={})
        assert status.done is done


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base=-1.0)

    def test_backoff_shape_and_determinism(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, max_backoff=0.5, jitter=0.0
        )
        assert policy.backoff("g", 1) == 0.0
        assert policy.backoff("g", 2) == pytest.approx(0.1)
        assert policy.backoff("g", 3) == pytest.approx(0.2)
        assert policy.backoff("g", 6) == pytest.approx(0.5)  # capped

        jittered = RetryPolicy(backoff_base=0.1, jitter=0.25, seed=4)
        first = jittered.backoff("group-a", 2)
        assert first == jittered.backoff("group-a", 2)  # deterministic
        assert first != jittered.backoff("group-b", 2)  # de-synchronised
        assert 0.075 <= first <= 0.125

    def test_dataset_digest_distinguishes_pools(self, packaged):
        data, _, _ = packaged
        target = data[data.domain_names[1]].train
        a = target.subset(np.arange(10))
        b = target.subset(np.arange(1, 11))
        assert dataset_digest(a) == dataset_digest(target.subset(np.arange(10)))
        assert dataset_digest(a) != dataset_digest(b)
