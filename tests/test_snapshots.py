"""Snapshot encoding, catalog, corruption detection, restore fidelity."""

import os

import pytest

from rolegate import AccessRequest, ChecksumMismatch, Engine, UnknownSnapshot
from rolegate import directory as d
from rolegate.snapshots import (
    EngineCut,
    SnapshotStore,
    decode_cut,
    encode_cut,
    payload_span,
    read_state_file,
    write_state_file,
)

def small_cut(captured_at=100, reason="test"):
    state = d.create_user(d.DirectoryState.empty(), "alice")
    state = d.create_role(state, "employee")
    state = d.assign_role(state, "alice", "employee", now=42)
    return EngineCut(
        state=state,
        counters=(),
        audit=(),
        anomalies=(),
        captured_at=captured_at,
        reason=reason,
    )


class TestEncoding:
    def test_round_trip_preserves_assignment_times(self):
        cut = small_cut()
        back = decode_cut(encode_cut(cut))
        assert back.state.assignments == {("alice", "employee"): 42}
        assert back.captured_at == 100 and back.reason == "test"

    def test_every_payload_byte_flip_detected(self):
        blob = bytearray(encode_cut(small_cut()))
        start, end = payload_span(bytes(blob))
        for i in range(start, end):
            corrupted = bytearray(blob)
            corrupted[i] ^= 0x01
            with pytest.raises(ChecksumMismatch):
                decode_cut(bytes(corrupted))

    def test_truncated_blob_rejected(self):
        blob = encode_cut(small_cut())
        with pytest.raises(ChecksumMismatch):
            decode_cut(blob[: len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            decode_cut(b"")

    def test_wrong_magic_rejected(self):
        blob = b"XXXX" + encode_cut(small_cut())[4:]
        with pytest.raises(ChecksumMismatch):
            decode_cut(blob)

    def test_deterministic_for_equal_cuts(self):
        assert encode_cut(small_cut()) == encode_cut(small_cut())

    def test_monitor_state_round_trips(self):
        from rolegate.restriction import AnomalyEvent, AuditRecord, TransactionCounter

        cut = EngineCut(
            state=small_cut().state,
            counters=(
                TransactionCounter("lim", "alice", window_start=90, count=3),
                TransactionCounter("cap", "employee", window_start=95, count=1),
            ),
            audit=(
                AuditRecord(1, "r1", "alice", "docs", "read", "permit", "granted", "employee"),
                AuditRecord(2, "r2", "eve", "docs", "read", "deny", "unknown-subject", None),
            ),
            anomalies=(AnomalyEvent(3, "lim", "alice", observed=4, limit=3, request_id="r3"),),
            captured_at=100,
            reason="full",
        )
        back = decode_cut(encode_cut(cut))
        # counters are canonically ordered in the file; content must match
        assert sorted(map(repr, back.counters)) == sorted(map(repr, cut.counters))
        assert back.audit == cut.audit  # audit order is meaningful and kept
        assert back.anomalies == cut.anomalies


class TestStateFile:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "live.rbak"
        write_state_file(path, small_cut())
        cut = read_state_file(path)
        assert "alice" in cut.state.users

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "live.rbak"
        write_state_file(path, small_cut())
        assert os.listdir(tmp_path) == ["live.rbak"]


class TestStore:
    def test_empty_catalog(self, tmp_path):
        assert SnapshotStore(tmp_path).list_entries() == []

    def test_ids_monotonic(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first = store.save(small_cut())
        second = store.save(small_cut())
        assert (first.id, second.id) == (1, 2)
        assert [e.id for e in store.list_entries()] == [1, 2]

    def test_id_continues_after_prune(self, tmp_path):
        store = SnapshotStore(tmp_path, keep_last=2)
        for _ in range(5):
            meta = store.save(small_cut())
        assert meta.id == 5
        assert store.ids() == [4, 5]

    def test_unknown_snapshot(self, tmp_path):
        with pytest.raises(UnknownSnapshot):
            SnapshotStore(tmp_path).load(7)

    def test_load_verifies_checksum(self, tmp_path):
        store = SnapshotStore(tmp_path)
        meta = store.save(small_cut())
        path = store.path_for(meta.id)
        blob = bytearray(path.read_bytes())
        start, _ = payload_span(bytes(blob))
        blob[start + 10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            store.load(meta.id)

    def test_list_verify_flags_only_corrupt_entry(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(small_cut())
        bad = store.save(small_cut())
        store.save(small_cut())
        path = store.path_for(bad.id)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # damage the stored digest itself
        path.write_bytes(bytes(blob))
        entries = store.list_entries(verify=True)
        assert [(e.id, e.verified) for e in entries] == [(1, True), (2, False), (3, True)]

    def test_list_without_verify_does_not_flag(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(small_cut())
        assert [e.verified for e in store.list_entries()] == [None]

    def test_stray_temp_files_not_catalog_entries(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(small_cut())
        (tmp_path / ".snap-9.rbak.tmp").write_bytes(b"partial")
        (tmp_path / "unrelated.txt").write_bytes(b"x")
        assert [e.id for e in store.list_entries()] == [1]

    def test_metadata_carried(self, tmp_path):
        store = SnapshotStore(tmp_path)
        meta = store.save(small_cut(captured_at=777, reason="before-upgrade"))
        entry = store.list_entries()[0]
        assert entry.created_at == 777
        assert entry.checksum == meta.checksum
        assert entry.size_bytes == meta.size_bytes


class TestCrashSafety:
    """Simulated crashes at every step of the write path never corrupt the catalog."""

    def _crash_at(self, monkeypatch, tmp_path, step):
        import rolegate.snapshots as snap_mod

        calls = {"n": 0}
        real_fsync = os.fsync
        real_replace = os.replace

        def fsync_hook(fd):
            calls["n"] += 1
            if step == f"fsync-{calls['n']}":
                raise OSError(5, "injected crash")
            return real_fsync(fd)

        def replace_hook(src, dst):
            if step == "replace":
                raise OSError(5, "injected crash")
            return real_replace(src, dst)

        monkeypatch.setattr(snap_mod.os, "fsync", fsync_hook)
        monkeypatch.setattr(snap_mod.os, "replace", replace_hook)

    @pytest.mark.parametrize("step", ["fsync-1", "replace"])
    def test_failed_save_leaves_catalog_intact(self, tmp_path, monkeypatch, step):
        from rolegate.snapshots import IoFailure

        store = SnapshotStore(tmp_path)
        good = store.save(small_cut())
        self._crash_at(monkeypatch, tmp_path, step)
        with pytest.raises(IoFailure):
            store.save(small_cut())
        monkeypatch.undo()
        entries = store.list_entries(verify=True)
        assert [(e.id, e.verified) for e in entries] == [(good.id, True)]
        assert os.listdir(tmp_path) == [f"snap-{good.id}.rbak"]  # the temp file is gone

    def test_interrupted_rename_never_lists_partial(self, tmp_path, monkeypatch):
        # the temp file may survive a crash; the catalog must never show it
        from rolegate.snapshots import IoFailure
        import rolegate.snapshots as snap_mod

        store = SnapshotStore(tmp_path)

        def no_replace(src, dst):
            raise OSError(5, "injected crash before rename")

        monkeypatch.setattr(snap_mod.os, "replace", no_replace)
        with pytest.raises(IoFailure):
            store.save(small_cut())
        monkeypatch.undo()
        assert store.list_entries() == []
        meta = store.save(small_cut())  # recovery proceeds normally
        assert meta.id == 1


class TestEngineSnapshots:
    def test_snapshot_then_mutate_then_restore(self, engine):
        before = engine.export_xml()
        meta = engine.create_snapshot(reason="checkpoint")
        engine.create_user("carol")
        engine.create_role("intern")
        assert engine.export_xml() != before
        engine.restore_snapshot(meta.id)
        assert engine.export_xml() == before

    def test_restore_appends_audit_record(self, engine):
        meta = engine.create_snapshot()
        engine.restore_snapshot(meta.id)
        records = engine.query_audit(limit=10)
        assert any(r.reason == "restore-performed" for r in records)

    def test_restore_survives_pruning_of_its_snapshot(self, engine):
        meta = engine.create_snapshot()
        store = engine.snapshot_store
        record_audit = engine.monitor.record_audit

        def prune_then_record(record):
            # a concurrent snapshot with keep_last=1 prunes the one being restored
            store.keep_last = 1
            store.save(engine._cut_locked("concurrent"))
            assert meta.id not in store.ids()
            record_audit(record)

        engine.monitor.record_audit = prune_then_record
        restored = engine.restore_snapshot(meta.id)
        assert restored == meta

    def test_restore_unknown_id(self, engine):
        with pytest.raises(UnknownSnapshot):
            engine.restore_snapshot(404)

    def test_corrupt_restore_leaves_state_untouched(self, engine):
        meta = engine.create_snapshot()
        engine.create_user("carol")
        state_before = engine.state
        path = engine.snapshot_store.path_for(meta.id)
        blob = bytearray(path.read_bytes())
        start, _ = payload_span(bytes(blob))
        blob[start] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            engine.restore_snapshot(meta.id)
        assert engine.state is state_before

    def test_empty_engine_snapshot_restores_empty(self, tmp_path, clock):
        store = SnapshotStore(tmp_path / "snaps")
        eng = Engine(clock=clock, snapshot_store=store)
        meta = eng.create_snapshot()
        eng.create_user("u")
        eng.restore_snapshot(meta.id)
        assert eng.state.users == frozenset()

    def test_counters_resume_identically_after_restore(self, engine, clock):
        engine.add_restriction(
            d.RestrictionPolicy(id="lim", scope="per-user", max_transactions=3, window_seconds=60)
        )
        request = lambda rid: AccessRequest("alice", "docs", "write", {}, rid)
        assert engine.check_access(request("a")).effect.value == "permit"
        assert engine.check_access(request("b")).effect.value == "permit"
        meta = engine.create_snapshot()
        capture_time = clock.t

        # uninterrupted continuation: one more permit then quota denial
        tail_one = engine.check_access(request("c")).effect.value
        tail_two = engine.check_access(request("d")).effect.value
        assert (tail_one, tail_two) == ("permit", "deny")

        engine.restore_snapshot(meta.id)
        clock.set(capture_time)
        replay_one = engine.check_access(request("c")).effect.value
        replay_two = engine.check_access(request("d")).effect.value
        assert (replay_one, replay_two) == (tail_one, tail_two)

    def test_live_file_survives_reopen(self, tmp_path, clock):
        live = tmp_path / "live.rbak"
        eng = Engine(clock=clock, live_path=live)
        eng.create_user("alice")
        eng.create_role("employee")
        eng.assign_role("alice", "employee")

        reopened = Engine.open(live, clock=clock)
        assert reopened.state.users == {"alice"}
        assert reopened.state.assignments == eng.state.assignments

    def test_counters_and_audit_survive_reopen(self, tmp_path, clock):
        live = tmp_path / "live.rbak"
        eng = Engine(clock=clock, live_path=live)
        eng.create_user("alice")
        eng.create_role("employee")
        eng.grant_permission("employee", d.Permission("docs", d.Action.READ))
        eng.assign_role("alice", "employee")
        eng.add_restriction(
            d.RestrictionPolicy(id="lim", scope="per-user", max_transactions=2, window_seconds=3600)
        )
        assert eng.check_access(AccessRequest("alice", "docs", "read")).effect.value == "permit"
        eng.flush()

        reopened = Engine.open(live, clock=clock)
        # one quota unit already spent before the restart
        assert reopened.check_access(AccessRequest("alice", "docs", "read")).effect.value == "permit"
        assert reopened.check_access(AccessRequest("alice", "docs", "read")).reason.value == "quota-exceeded"
        assert reopened.monitor.audit_size() == 3

    def test_lost_live_state_recovered_from_snapshot(self, tmp_path, clock):
        """Total loss of the live store is survivable once a snapshot exists."""
        live = tmp_path / "live.rbak"
        store = SnapshotStore(tmp_path / "snaps")
        eng = Engine(clock=clock, live_path=live, snapshot_store=store)
        eng.create_user("alice")
        eng.create_role("employee")
        eng.assign_role("alice", "employee")
        eng.create_snapshot(reason="before-crash")
        expected = eng.export_xml()

        live.unlink()  # the "cloud crash": the live store is gone

        recovered = Engine.open(live, clock=clock, snapshot_store=store)
        assert recovered.state.users == frozenset()  # nothing until restore
        recovered.restore_snapshot(store.latest_id())
        assert recovered.export_xml() == expected
        assert live.is_file()  # restore re-persisted the live state
