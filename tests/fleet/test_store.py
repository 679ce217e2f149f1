"""Tests for the durable device-state store (SQLite WAL, write retry)."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.fleet.store import DeviceStateStore, StoreError


def _snapshot(seed=0):
    rng = np.random.default_rng(seed)
    return {"codes": rng.integers(0, 16, size=(4, 3)), "moments": rng.normal(size=5)}


class TestLifecycle:
    def test_round_and_device_round_lifecycle(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            store.register_device("d1")
            round_id = store.create_round(["d0", "d1"])
            assert store.get_round(round_id).status == "submitted"
            assert store.get_round(round_id).num_devices == 2

            for device_id in ("d0", "d1"):
                store.init_device_round(
                    round_id, device_id, "digest-a", "pool-a", _snapshot()
                )
            rows = store.device_rounds(round_id)
            assert [row.device_id for row in rows] == ["d0", "d1"]
            assert all(row.status == "pending" and row.attempts == 0 for row in rows)

            store.mark_running(round_id, "d0")
            assert store.get_device_round(round_id, "d0").status == "running"
            assert store.get_device_round(round_id, "d0").attempts == 1

            store.mark_done(round_id, "d0", _snapshot(1), {"flips": 3})
            row = store.get_device_round(round_id, "d0")
            assert row.status == "done"
            assert row.stats == {"flips": 3}

    def test_attempts_accumulate_across_retries(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", None)
            for _ in range(3):
                store.mark_running(round_id, "d0")
                store.mark_failed(round_id, "d0", "boom")
            row = store.get_device_round(round_id, "d0")
            assert row.attempts == 3
            assert row.status == "pending"
            assert row.last_error == "boom"

    def test_mark_done_clears_last_error(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", None)
            store.mark_running(round_id, "d0")
            store.mark_failed(round_id, "d0", "first attempt blew up")
            store.mark_running(round_id, "d0")
            store.mark_done(round_id, "d0", None, None)
            assert store.get_device_round(round_id, "d0").last_error is None

    def test_unfinished_rounds_and_status_transitions(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            first = store.create_round(["d0"])
            second = store.create_round(["d0"])
            assert store.unfinished_rounds() == [first, second]
            store.set_round_status(first, "done")
            assert store.unfinished_rounds() == [second]
            with pytest.raises(ValueError, match="unknown round status"):
                store.set_round_status(second, "exploded")

    def test_validation_errors(self):
        with DeviceStateStore() as store:
            with pytest.raises(KeyError):
                store.get_round(999)
            with pytest.raises(KeyError):
                store.get_device_round(1, "ghost")
            with pytest.raises(ValueError, match="at least one device"):
                store.create_round([])
            with pytest.raises(ValueError):
                DeviceStateStore(write_retries=0)


class TestSnapshotRoundTrip:
    def test_numpy_state_is_byte_exact(self):
        """Pickled blobs must round-trip numpy state losslessly — the
        bit-identity contract forbids any decimal-text detour."""
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            snapshot = _snapshot(7)
            store.init_device_round(round_id, "d0", "x", "y", snapshot)
            loaded = store.get_device_round(round_id, "d0").snapshot
            assert loaded["codes"].dtype == snapshot["codes"].dtype
            np.testing.assert_array_equal(loaded["codes"], snapshot["codes"])
            assert loaded["moments"].tobytes() == snapshot["moments"].tobytes()


class TestQuarantine:
    def test_quarantine_and_release(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", None)
            store.mark_quarantined(round_id, "d0", "Traceback: kaboom")
            assert store.quarantined_devices() == {"d0": "Traceback: kaboom"}
            assert store.get_device_round(round_id, "d0").status == "quarantined"
            store.release_device("d0")
            assert store.quarantined_devices() == {}

    def test_quarantine_survives_reopen(self, tmp_path):
        """Durability: quarantine status and the persisted traceback must
        outlive the process (simulated by close + reopen)."""
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", _snapshot())
            store.mark_quarantined(round_id, "d0", "poisoned")
        with DeviceStateStore(path) as reopened:
            assert reopened.quarantined_devices() == {"d0": "poisoned"}
            assert reopened.unfinished_rounds() == [round_id]
            row = reopened.get_device_round(round_id, "d0")
            assert row.status == "quarantined"
            np.testing.assert_array_equal(
                row.snapshot["codes"], _snapshot()["codes"]
            )

    def test_register_preserves_quarantine(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            store.quarantine_device("d0", "bad")
            store.register_device("d0")
            assert "d0" in store.quarantined_devices()


class TestWriteRetry:
    def test_transient_write_failure_is_retried(self):
        with DeviceStateStore(write_retries=5, retry_sleep=0.0) as store:
            failures = {"left": 2}

            def flaky(sql):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise sqlite3.OperationalError("injected: database is locked")

            store.before_write = flaky
            store.register_device("d0")
            store.before_write = None
            assert failures["left"] == 0
            round_id = store.create_round(["d0"])
            assert store.get_round(round_id).num_devices == 1

    def test_persistent_write_failure_raises_store_error(self):
        with DeviceStateStore(write_retries=3, retry_sleep=0.0) as store:
            calls = {"n": 0}

            def always_fail(sql):
                calls["n"] += 1
                raise sqlite3.OperationalError("disk I/O error")

            store.before_write = always_fail
            with pytest.raises(StoreError, match="after 3 attempts"):
                store.register_device("d0")
            assert calls["n"] == 3


def _registered(store, device_id):
    row = store._conn.execute(
        "SELECT 1 FROM devices WHERE device_id = ?", (device_id,)
    ).fetchone()
    return row is not None


def _seed(store):
    """One registered device with a pending row in one round."""
    store.register_device("d0")
    round_id = store.create_round(["d0"])
    store.init_device_round(round_id, "d0", "x", "y", _snapshot())
    return round_id


def _no_prep(store, round_id):
    pass


#: Every mutating store method: (prepare, write, landed).  ``landed`` reports
#: whether the write's effect is visible — exactly once where that is
#: countable (a retried ``mark_running`` must count one attempt, not two).
WRITES = {
    "register_device": (
        _no_prep,
        lambda store, rid: store.register_device("d1"),
        lambda store, rid: _registered(store, "d1"),
    ),
    "quarantine_device": (
        _no_prep,
        lambda store, rid: store.quarantine_device("d0", "bad"),
        lambda store, rid: store.quarantined_devices() == {"d0": "bad"},
    ),
    "release_device": (
        lambda store, rid: store.quarantine_device("d0", "bad"),
        lambda store, rid: store.release_device("d0"),
        lambda store, rid: store.quarantined_devices() == {},
    ),
    "create_round": (
        _no_prep,
        lambda store, rid: store.create_round(["d0"]),
        lambda store, rid: len(store.list_rounds()) == 2,
    ),
    "set_round_status": (
        _no_prep,
        lambda store, rid: store.set_round_status(rid, "running"),
        lambda store, rid: store.get_round(rid).status == "running",
    ),
    "init_device_round": (
        _no_prep,
        lambda store, rid: store.init_device_round(rid, "d0", "x2", "y2", None),
        lambda store, rid: store.get_device_round(rid, "d0").state_digest == "x2",
    ),
    "mark_running": (
        _no_prep,
        lambda store, rid: store.mark_running(rid, "d0"),
        lambda store, rid: store.get_device_round(rid, "d0").attempts == 1,
    ),
    "mark_done": (
        _no_prep,
        lambda store, rid: store.mark_done(rid, "d0", _snapshot(1), {"flips": 2}),
        lambda store, rid: store.get_device_round(rid, "d0").stats == {"flips": 2},
    ),
    "mark_failed": (
        _no_prep,
        lambda store, rid: store.mark_failed(rid, "d0", "boom"),
        lambda store, rid: store.get_device_round(rid, "d0").last_error == "boom",
    ),
    "mark_quarantined": (
        _no_prep,
        lambda store, rid: store.mark_quarantined(rid, "d0", "poisoned"),
        lambda store, rid: (
            store.get_device_round(rid, "d0").status == "quarantined"
            and store.quarantined_devices() == {"d0": "poisoned"}
        ),
    ),
}


class TestEveryWriteIsRetried:
    """Each mutating method goes through the bounded write retry: the
    store-write fault class and the single-writer durability both rest on
    no write bypassing it."""

    @pytest.mark.parametrize("name", sorted(WRITES))
    def test_transient_failure_is_retried_and_lands_once(self, name):
        prepare, write, landed = WRITES[name]
        with DeviceStateStore(retry_sleep=0.0) as store:
            round_id = _seed(store)
            prepare(store, round_id)
            failures = {"left": 1}

            def fail_once(sql):
                if failures["left"]:
                    failures["left"] -= 1
                    raise sqlite3.OperationalError("injected: database is locked")

            store.before_write = fail_once
            write(store, round_id)
            store.before_write = None
            assert failures["left"] == 0
            assert landed(store, round_id)

    @pytest.mark.parametrize("name", sorted(WRITES))
    def test_persistent_failure_raises_and_leaves_no_trace(self, name):
        prepare, write, landed = WRITES[name]
        with DeviceStateStore(write_retries=2, retry_sleep=0.0) as store:
            round_id = _seed(store)
            prepare(store, round_id)

            def always_fail(sql):
                raise sqlite3.OperationalError("disk I/O error")

            store.before_write = always_fail
            with pytest.raises(StoreError, match="after 2 attempts"):
                write(store, round_id)
            store.before_write = None
            assert not landed(store, round_id)


class TestRoundsAndRows:
    @pytest.mark.parametrize("status", ["submitted", "running", "done"])
    def test_round_status_round_trips(self, status):
        with DeviceStateStore() as store:
            round_id = _seed(store)
            store.set_round_status(round_id, status)
            assert store.get_round(round_id).status == status
            assert (round_id in store.unfinished_rounds()) == (status != "done")

    def test_list_rounds_is_oldest_first(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            store.register_device("d1")
            first = store.create_round(["d0", "d1"])
            second = store.create_round(["d1"])
            rounds = store.list_rounds()
            assert [record.round_id for record in rounds] == [first, second]
            assert [record.num_devices for record in rounds] == [2, 1]

    def test_device_rows_are_scoped_to_their_round(self):
        with DeviceStateStore() as store:
            first = _seed(store)
            store.register_device("d1")
            second = store.create_round(["d1"])
            store.init_device_round(second, "d1", "x", "y", None)
            store.mark_running(second, "d1")
            assert [row.device_id for row in store.device_rounds(first)] == ["d0"]
            assert [row.device_id for row in store.device_rounds(second)] == ["d1"]
            assert store.get_device_round(first, "d0").attempts == 0
            with pytest.raises(KeyError):
                store.get_device_round(first, "d1")

    def test_reinit_resets_the_row_to_pending(self):
        """Re-initialising a row replaces it: a fresh round-start snapshot
        with no attempts and no error."""
        with DeviceStateStore() as store:
            round_id = _seed(store)
            store.mark_running(round_id, "d0")
            store.mark_failed(round_id, "d0", "boom")
            store.init_device_round(round_id, "d0", "x2", "y2", _snapshot(3))
            row = store.get_device_round(round_id, "d0")
            assert (row.status, row.attempts, row.last_error) == ("pending", 0, None)
            assert (row.state_digest, row.pool_digest) == ("x2", "y2")
            np.testing.assert_array_equal(row.snapshot["codes"], _snapshot(3)["codes"])
            assert len(store.device_rounds(round_id)) == 1

    def test_device_row_needs_a_registered_device_and_a_round(self):
        with DeviceStateStore() as store:
            round_id = _seed(store)
            with pytest.raises(sqlite3.IntegrityError):
                store.init_device_round(round_id, "ghost", "x", "y", None)
            with pytest.raises(sqlite3.IntegrityError):
                store.init_device_round(round_id + 1, "d0", "x", "y", None)
            assert [row.device_id for row in store.device_rounds(round_id)] == ["d0"]

    def test_quarantine_and_release_of_unknown_device_are_no_ops(self):
        with DeviceStateStore() as store:
            store.quarantine_device("ghost", "bad")
            store.release_device("ghost")
            assert store.quarantined_devices() == {}
            assert not _registered(store, "ghost")

    def test_finished_round_survives_reopen(self, tmp_path):
        """Durability of a completed round: results, stats, attempts and
        the round status all outlive the process."""
        path = tmp_path / "fleet.db"
        result = _snapshot(5)
        with DeviceStateStore(path) as store:
            round_id = _seed(store)
            store.mark_running(round_id, "d0")
            store.mark_done(round_id, "d0", result, {"flips": 4})
            store.set_round_status(round_id, "done")
        with DeviceStateStore(path) as reopened:
            assert reopened.unfinished_rounds() == []
            assert reopened.get_round(round_id).status == "done"
            row = reopened.get_device_round(round_id, "d0")
            assert (row.status, row.attempts, row.stats) == ("done", 1, {"flips": 4})
            assert row.result_state["moments"].tobytes() == result["moments"].tobytes()
