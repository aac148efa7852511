"""Engine facade: wiring, evaluation order, plain mode, concurrency."""

import os
import sys
import threading

import pytest

from rolegate import (
    AccessRequest,
    Action,
    Effect,
    Engine,
    FeatureDisabled,
    Permission,
    RbacError,
    Reason,
)
from rolegate import directory as d
from rolegate import engine as engine_module
from rolegate.snapshots import SnapshotStore, StorageFull, read_state_file

def req(subject, resource, action, rid="fixed"):
    return AccessRequest(subject, resource, Action(action), {}, rid)


class TestCapacity:
    def test_role_cap_blocks_assignment(self, engine):
        engine.add_restriction(
            d.RestrictionPolicy(
                id="cap",
                scope="per-role",
                max_transactions=100,
                window_seconds=60,
                target="admin",
                max_users=1,
            )
        )
        engine.create_user("carol")
        with pytest.raises(d.RoleCapacityExceeded):
            engine.assign_role("carol", "admin")  # alice already holds admin

    def test_cap_ignored_in_plain_mode(self, tmp_path):
        eng = Engine(plain_rbac=True)
        eng.create_user("u1")
        eng.create_user("u2")
        eng.create_role("r")
        eng.assign_role("u1", "r")
        eng.assign_role("u2", "r")  # no restriction machinery in plain mode
        assert len(eng.state.assignments) == 2


class TestQuotaOrdering:
    def _limited(self, engine):
        engine.add_restriction(
            d.RestrictionPolicy(id="lim", scope="per-user", max_transactions=1, window_seconds=60)
        )
        return engine

    def test_denied_requests_do_not_consume_quota(self, engine):
        engine = self._limited(engine)
        for _ in range(5):
            decision = engine.check_access(req("bob", "docs", "delete"))
            assert decision.reason is Reason.NO_MATCHING_PERMISSION
        # quota untouched: the single permitted transaction still goes through
        assert engine.check_access(req("bob", "docs", "read")).effect is Effect.PERMIT

    def test_unknown_subject_does_not_consume_quota(self, engine):
        engine = self._limited(engine)
        for _ in range(5):
            engine.check_access(req("ghost", "docs", "read"))
        assert engine.check_access(req("alice", "docs", "read")).effect is Effect.PERMIT

    def test_quota_denial_reason_and_anomaly(self, engine):
        engine = self._limited(engine)
        assert engine.check_access(req("alice", "docs", "read", "r1")).effect is Effect.PERMIT
        decision = engine.check_access(req("alice", "docs", "read", "r2"))
        assert decision.effect is Effect.DENY
        assert decision.reason is Reason.QUOTA_EXCEEDED
        assert decision.matched_role is None
        events = engine.drain_anomalies()
        assert [e.request_id for e in events] == ["r2"]

    def test_per_role_quota_binds_the_matched_role(self, engine):
        # alice's (docs, read) is granted by both admin and employee; the
        # matched role is the lexicographic minimum ("admin"), so a policy
        # targeting "employee" never sees her transactions
        engine.add_restriction(
            d.RestrictionPolicy(
                id="emp-only",
                scope="per-role",
                max_transactions=1,
                window_seconds=3600,
                target="employee",
            )
        )
        for i in range(4):
            decision = engine.check_access(req("alice", "docs", "read", f"r{i}"))
            assert decision.effect is Effect.PERMIT
            assert decision.matched_role == "admin"
        # bob's only granting role is employee: the policy binds him
        assert engine.check_access(req("bob", "docs", "read", "b1")).effect is Effect.PERMIT
        assert engine.check_access(req("bob", "docs", "read", "b2")).reason is Reason.QUOTA_EXCEEDED


class TestAuditCompleteness:
    def test_every_check_appends_exactly_one_record(self, engine):
        checks = [
            req("alice", "docs", "write", "r1"),
            req("bob", "docs", "write", "r2"),
            req("ghost", "docs", "read", "r3"),
        ]
        for r in checks:
            engine.check_access(r)
        records = engine.query_audit(limit=100)
        assert [r.request_id for r in records] == ["r1", "r2", "r3"]
        assert [r.effect for r in records] == ["permit", "deny", "deny"]
        assert records[0].matched_role == "admin"

    def test_audit_filterable_by_subject(self, engine):
        engine.check_access(req("alice", "docs", "read", "r1"))
        engine.check_access(req("bob", "docs", "read", "r2"))
        assert [r.request_id for r in engine.query_audit(subject="bob")] == ["r2"]


class TestPlainMode:
    @pytest.fixture
    def plain(self):
        eng = Engine(plain_rbac=True)
        eng.create_user("alice")
        eng.create_role("employee")
        eng.grant_permission("employee", Permission("docs", Action.READ))
        eng.assign_role("alice", "employee")
        return eng

    def test_capabilities_all_false(self, plain):
        caps = plain.capabilities()
        assert not caps.xml_based_migration
        assert not caps.restricting_user_role
        assert not caps.backup_restoration
        assert not caps.transaction_limit
        assert caps.security_level == "LESS"

    def test_capabilities_all_true_by_default(self, engine):
        caps = engine.capabilities()
        assert caps.xml_based_migration
        assert caps.restricting_user_role
        assert caps.backup_restoration
        assert caps.transaction_limit
        assert caps.security_level == "MORE"

    def test_migration_disabled(self, plain):
        with pytest.raises(FeatureDisabled):
            plain.export_xml()
        with pytest.raises(FeatureDisabled):
            plain.import_xml(b"<migration/>")

    def test_snapshots_disabled(self, plain):
        with pytest.raises(FeatureDisabled):
            plain.create_snapshot()
        with pytest.raises(FeatureDisabled):
            plain.list_snapshots()

    def test_plain_rbac_still_decides(self, plain):
        assert plain.check_access(req("alice", "docs", "read")).effect is Effect.PERMIT
        assert plain.check_access(req("alice", "docs", "write")).effect is Effect.DENY

    def test_obligations_ignored_in_plain_mode(self, plain):
        from rolegate import ObligationPolicy

        plain.set_obligations(
            [
                ObligationPolicy(
                    id="block-all",
                    modality="must-not",
                    action_token="x",
                    applies_to=frozenset({"employee"}),
                )
            ]
        )
        assert plain.check_access(req("alice", "docs", "read")).effect is Effect.PERMIT


class TestApiSurface:
    def test_no_way_to_grant_permission_to_a_user(self, engine):
        # the only grant operation takes a role; user names are not roles
        with pytest.raises(d.UnknownRole):
            engine.grant_permission("alice", Permission("docs", Action.READ))
        grantish = [
            name
            for name in dir(engine)
            if "grant" in name.lower() and not name.startswith("_")
        ]
        assert grantish == ["grant_permission"]

    def test_assignment_value_is_a_timestamp_not_permissions(self, engine):
        for value in engine.state.assignments.values():
            assert isinstance(value, int)


class TestConcurrency:
    def test_decisions_race_mutations_without_torn_state(self, clock):
        eng = Engine(clock=clock)
        eng.create_user("alice")
        eng.create_role("employee")
        eng.grant_permission("employee", Permission("docs", Action.READ))
        eng.assign_role("alice", "employee")
        stop = threading.Event()
        failures = []

        def checker():
            while not stop.is_set():
                decision = eng.check_access(req("alice", "docs", "read"))
                # permit or deny are fine depending on interleaving with import,
                # but an exception or a permit without role would be torn state
                if decision.effect is Effect.PERMIT and decision.matched_role is None:
                    failures.append("permit without matched role")

        def mutator():
            from rolegate.migration import export_bundle

            bundle = export_bundle(eng.state)
            for _ in range(50):
                eng.import_xml(bundle)

        threads = [threading.Thread(target=checker) for _ in range(8)]
        for t in threads:
            t.start()
        mutator()
        stop.set()
        for t in threads:
            t.join()
        assert failures == []

    def test_quota_never_overshoots_under_concurrent_checks(self, clock):
        eng = Engine(clock=clock)
        eng.create_user("alice")
        eng.create_role("employee")
        eng.grant_permission("employee", Permission("docs", Action.READ))
        eng.assign_role("alice", "employee")
        limit = 7
        eng.add_restriction(
            d.RestrictionPolicy(
                id="lim", scope="per-user", max_transactions=limit, window_seconds=3600
            )
        )
        permits = []
        barrier = threading.Barrier(32)

        def hammer(i):
            barrier.wait()
            for j in range(10):
                decision = eng.check_access(req("alice", "docs", "read", f"{i}-{j}"))
                if decision.effect is Effect.PERMIT:
                    permits.append(1)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(permits) == limit


class TestNamesEndAtEndOfString:
    def test_user_name_with_trailing_newline_refused(self, clock, tmp_path):
        eng = Engine.open(tmp_path / "live.rbak", clock=clock)
        eng.create_user("alice")
        with pytest.raises(d.InvalidName):
            eng.create_user("bob\n")
        assert Engine.open(tmp_path / "live.rbak").state.users == {"alice"}


class TestLiveFileWriters:
    """Every write of live.rbak is ordered, and no two writers share a temp file."""

    def _engine(self, clock, live_path):
        eng = Engine.open(live_path, clock=clock)
        if "alice" not in eng.state.users:
            eng.create_user("alice")
        return eng

    def _flush_from_threads(self, engines, rounds=100):
        failures = []
        barrier = threading.Barrier(len(engines))

        def flusher(eng):
            barrier.wait()
            for _ in range(rounds):
                try:
                    eng.flush()
                except RbacError as exc:
                    failures.append(exc)

        threads = [threading.Thread(target=flusher, args=(eng,)) for eng in engines]
        for t in threads:
            t.start()
        return threads, failures

    def _join(self, threads):
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    def test_concurrent_flushes_of_one_engine(self, clock, tmp_path):
        eng = self._engine(clock, tmp_path / "live.rbak")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the write path too
        try:
            threads, failures = self._flush_from_threads([eng, eng])
            self._join(threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert sorted(os.listdir(tmp_path)) == ["live.rbak"]

    def test_two_engines_on_one_path_and_a_reader(self, clock, tmp_path):
        live = tmp_path / "live.rbak"
        first = self._engine(clock, live)
        second = self._engine(clock, live)
        threads, failures = self._flush_from_threads([first, second])
        reads, bad_reads = 0, []
        while any(t.is_alive() for t in threads):
            try:
                assert "alice" in read_state_file(live).state.users
                reads += 1
            except Exception as exc:  # a torn or half-written file
                bad_reads.append(exc)
        self._join(threads)
        assert failures == []
        assert bad_reads == []
        assert reads > 0
        assert sorted(os.listdir(tmp_path)) == ["live.rbak"]


class TestRestrictionBound:
    def test_huge_cap_refused_and_engine_keeps_flushing(self, clock, tmp_path):
        eng = Engine.open(tmp_path / "live.rbak", clock=clock)
        with pytest.raises(d.InvalidRestriction):
            eng.add_restriction(
                d.RestrictionPolicy(
                    id="huge", scope="per-user", max_transactions=10**5000, window_seconds=60
                )
            )
        largest = d.RestrictionPolicy(
            id="max",
            scope="per-user",
            max_transactions=d.MAX_RESTRICTION_VALUE,
            window_seconds=d.MAX_RESTRICTION_VALUE,
        )
        eng.add_restriction(largest)
        eng.create_user("alice")
        assert Engine.open(tmp_path / "live.rbak").state.restrictions == {"max": largest}


class TestFailedFlush:
    """A change whose live-file write fails is not kept in memory either."""

    @pytest.fixture
    def durable(self, clock, tmp_path):
        eng = Engine.open(
            tmp_path / "live.rbak",
            clock=clock,
            snapshot_store=SnapshotStore(tmp_path / "snapshots"),
        )
        eng.create_user("alice")
        eng.create_role("employee")
        eng.grant_permission("employee", Permission("docs", Action.READ))
        eng.assign_role("alice", "employee")
        eng.add_restriction(
            d.RestrictionPolicy(id="lim", scope="per-user", max_transactions=5, window_seconds=60)
        )
        eng.check_access(req("alice", "docs", "read", "r1"))
        eng.create_snapshot("before")
        eng.check_access(req("alice", "docs", "read", "r2"))  # counters move past the snapshot
        return eng

    @pytest.mark.parametrize(
        "change",
        [
            lambda eng, other: eng.create_user("bob"),
            lambda eng, other: eng.create_role("auditor", ["employee"]),
            lambda eng, other: eng.revoke_role("alice", "employee"),
            lambda eng, other: eng.add_restriction(
                d.RestrictionPolicy(id="cap", scope="per-user", max_transactions=1, window_seconds=9)
            ),
            lambda eng, other: eng.import_xml(other),
            lambda eng, other: eng.restore_snapshot(1),
        ],
        ids=["create-user", "create-role", "revoke", "restrict", "import", "restore"],
    )
    def test_state_and_monitor_roll_back(self, durable, clock, monkeypatch, change):
        other = Engine(clock=clock)
        other.create_user("carol")
        bundle = other.export_xml()
        monitor_before = durable.monitor.cut()

        def full(path, cut):
            raise StorageFull("no space left on device")

        monkeypatch.setattr(engine_module, "write_state_file", full)
        with pytest.raises(StorageFull):
            change(durable, bundle)
        monkeypatch.undo()
        assert durable.state == Engine.open(durable.live_path).state
        assert durable.monitor.cut() == monitor_before
        assert durable.check_access(req("alice", "docs", "read", "r3")).effect is Effect.PERMIT


class TestObligationInstall:
    def test_config_can_defer_role_validation(self, clock):
        from rolegate import ObligationPolicy

        eng = Engine(clock=clock)
        policy = ObligationPolicy(
            id="later", modality="must", action_token="x", applies_to=frozenset({"notyet"})
        )
        eng.set_obligations([policy], require_known_roles=False)
        assert eng.obligations == (policy,)


class TestDeepHierarchy:
    DEPTH = 1500

    def chain(self):
        """c01499 at the base up to c00000 at the top, so the sorted walk
        starts at the most senior role and goes the full depth."""
        state = d.DirectoryState.empty()
        below = []
        for i in range(self.DEPTH - 1, -1, -1):
            name = f"c{i:05d}"
            state = d.create_role(state, name, below)
            below = [name]
        return state

    def test_deep_chain_reopens_validates_imports_and_restores(self, tmp_path):
        from rolegate import SnapshotStore, import_bundle, validate_bundle

        state = self.chain()
        store = SnapshotStore(tmp_path / "snapshots")
        Engine(state, live_path=tmp_path / "live.rbak", snapshot_store=store).flush()

        engine = Engine.open(tmp_path / "live.rbak", snapshot_store=store)
        assert engine.state.roles == state.roles
        xml = engine.export_xml()
        assert validate_bundle(xml).ok
        assert import_bundle(xml).roles == state.roles
        engine.import_xml(xml)
        snapshot = engine.create_snapshot()
        engine.create_user("late")
        engine.restore_snapshot(snapshot.id)
        assert engine.state.roles == state.roles
        assert "late" not in engine.state.users

        looped = xml.replace(b'<role name="c01499"/>', b'<role name="c01499"><inherits role="c00000"/></role>')
        (issue,) = [i for i in validate_bundle(looped).issues if "hierarchy cycle" in i.message]
        assert issue.message.startswith("hierarchy cycle: c00000 -> c00001 -> ")
        assert issue.message.endswith(" -> c01499 -> c00000")
        assert issue.locator == "/migration/roles/role[@name='c00000']"
