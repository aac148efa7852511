"""Engine facade: single-writer directory, concurrent decisions, quiesce.

Decision checks share the read side of a writer-preferring RW lock and never
block each other.  Every state change commits through ``_commit``: under the
write side it applies one transition to the immutable state (an
administrative mutation from ``directory``, a bundle import or a snapshot
restore, the last two also reloading the monitor), swaps the state reference
and writes the live state file.  If the transition or the write fails, the
previous state (and monitor) is put back, so the engine never holds a change
that the live file lacks.  In-flight decisions finish first and new ones
queue, so no decision can ever observe a half-applied change.  ``flush``
also takes the write side, so the write lock orders every write of the live
state file.

With ``plain_rbac=True`` the engine reproduces a bare two-phase RBAC system:
migration, snapshots, restriction enforcement and obligation policies are all
disabled, which is exactly the feature matrix the capabilities report calls
security level LESS.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from . import directory as d
from .decision import (
    AccessRequest,
    Decision,
    Effect,
    ObligationPolicy,
    Reason,
    TraceStep,
    evaluate,
    new_request_id,
)
from .directory import (
    Assignment,
    DirectoryMetrics,
    DirectoryState,
    Permission,
    RbacError,
    RestrictionPolicy,
    UnknownRole,
)
from .migration import ValidationReport, export_bundle, import_bundle, validate_bundle
from .restriction import AuditRecord, AnomalyEvent, RestrictionMonitor, check_user_cap
from .snapshots import (
    EngineCut,
    SnapshotEntry,
    SnapshotStore,
    read_state_file,
    write_state_file,
)

SECURITY_MORE = "MORE"
SECURITY_LESS = "LESS"


class FeatureDisabled(RbacError):
    code = "feature-disabled"


@dataclass(frozen=True)
class CapabilitiesReport:
    """Feature matrix of the running engine (policy mode vs. plain RBAC)."""

    xml_based_migration: bool
    restricting_user_role: bool
    backup_restoration: bool
    transaction_limit: bool
    security_level: str

    def rows(self) -> list[tuple[str, bool]]:
        """(feature name, enabled) in report order; the CLI and HTTP render these."""
        return [
            ("xml-based-migration", self.xml_based_migration),
            ("restricting-user-role", self.restricting_user_role),
            ("backup-restoration", self.backup_restoration),
            ("transaction-limit", self.transaction_limit),
        ]


class RWLock:
    """Writer-preferring readers-writer lock.

    A waiting writer blocks new readers, so a quiesce (import/restore) drains
    in-flight decisions and is never starved by a stream of checks.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class Engine:
    """The authorization engine: directory + decisions + monitor + snapshots."""

    def __init__(
        self,
        state: Optional[DirectoryState] = None,
        *,
        monitor: Optional[RestrictionMonitor] = None,
        obligations: Sequence[ObligationPolicy] = (),
        clock: Callable[[], float] = time.time,
        plain_rbac: bool = False,
        snapshot_store: Optional[SnapshotStore] = None,
        live_path: Optional[Path] = None,
    ) -> None:
        self._state = state if state is not None else DirectoryState.empty()
        self._monitor = monitor if monitor is not None else RestrictionMonitor()
        self._obligations: tuple[ObligationPolicy, ...] = tuple(obligations)
        self._clock = clock
        self.plain_rbac = plain_rbac
        self.snapshot_store = snapshot_store
        self.live_path = Path(live_path) if live_path else None
        self._rw = RWLock()

    @classmethod
    def open(cls, live_path: Path, **kwargs) -> "Engine":
        """Load the engine from a live state file, or start empty if absent.

        ``kwargs`` are the keyword parameters of ``Engine.__init__``.
        """
        live_path = Path(live_path)
        engine = cls(live_path=live_path, **kwargs)
        if live_path.is_file():
            engine._install(read_state_file(live_path))
        return engine

    # -- introspection -------------------------------------------------------

    @property
    def state(self) -> DirectoryState:
        """Immutable view of the current directory; safe to hold across calls."""
        return self._state

    @property
    def monitor(self) -> RestrictionMonitor:
        return self._monitor

    @property
    def obligations(self) -> tuple[ObligationPolicy, ...]:
        return self._obligations

    def now(self) -> int:
        return int(self._clock())

    def capabilities(self) -> CapabilitiesReport:
        enabled = not self.plain_rbac
        return CapabilitiesReport(
            xml_based_migration=enabled,
            restricting_user_role=enabled,
            backup_restoration=enabled,
            transaction_limit=enabled,
            security_level=SECURITY_MORE if enabled else SECURITY_LESS,
        )

    def metrics(self) -> DirectoryMetrics:
        with self._rw.read():
            return d.metrics(self._state)

    # -- administrative mutations ---------------------------------------------

    def create_user(self, name: str) -> str:
        self._commit(d.create_user, name)
        return name

    def create_role(self, name: str, parents: Sequence[str] = ()) -> str:
        self._commit(d.create_role, name, parents)
        return name

    def grant_permission(self, role: str, perm: Permission) -> None:
        self._commit(d.grant_permission, role, perm)

    def assign_role(self, user: str, role: str) -> Assignment:
        state = self._commit(self._assign_capped, user, role)
        return Assignment(user, role, state.assignments[(user, role)])

    def _assign_capped(self, state: DirectoryState, user: str, role: str) -> DirectoryState:
        """``d.assign_role`` at the current time, behind the role's member cap."""
        if not self.plain_rbac and role in state.roles:
            saturated = check_user_cap(state, role)
            if saturated is not None:
                raise d.RoleCapacityExceeded(
                    f"role {role!r} is at capacity under policy {saturated!r}"
                )
        return d.assign_role(state, user, role, self.now())

    def revoke_role(self, user: str, role: str) -> None:
        self._commit(d.revoke_role, user, role)

    def add_sod_constraint(self, role_a: str, role_b: str) -> None:
        self._commit(d.add_sod_constraint, role_a, role_b)

    def add_restriction(self, policy: RestrictionPolicy) -> None:
        self._commit(d.add_restriction, policy)

    def _commit(
        self,
        transition: Callable[..., DirectoryState],
        *args,
        reloads_monitor: bool = False,
    ) -> DirectoryState:
        """The one write path: apply ``transition`` and persist, under the write lock.

        Returns the committed state.  A transition or a flush that raises
        leaves the state, the monitor and the live file as they were.  Only
        a transition that ``reloads_monitor`` pays for a cut of the monitor
        to roll back to; the others never touch it.
        """
        with self._rw.write():
            state = self._state
            monitor = self._monitor.cut() if reloads_monitor else None
            try:
                self._state = transition(state, *args)
                self._flush_locked()
            except BaseException:
                self._state = state
                if monitor is not None:
                    self._monitor.load(*monitor)
                raise
            return self._state

    def set_obligations(
        self, policies: Sequence[ObligationPolicy], require_known_roles: bool = True
    ) -> None:
        """Install the obligation policy set (replaces the previous set)."""
        with self._rw.write():
            if require_known_roles:
                for policy in policies:
                    for role in sorted(policy.applies_to):
                        if role not in self._state.roles:
                            raise UnknownRole(
                                f"obligation {policy.id!r} applies to unknown role {role!r}"
                            )
            self._obligations = tuple(policies)

    # -- decisions ----------------------------------------------------------

    def check_access(self, request: AccessRequest) -> Decision:
        """Two-phase check; consumes quota on would-be permits; always audited."""
        return self._decide(request, None)

    def explain(self, request: AccessRequest) -> tuple[Decision, tuple[TraceStep, ...]]:
        """Same decision as check_access, plus the evaluation trace.

        Dry run: no quota is consumed, no audit record or anomaly is written,
        so explaining twice is always idempotent.
        """
        trace: list[TraceStep] = []
        decision = self._decide(request, trace)
        return decision, tuple(trace)

    def _decide(self, request: AccessRequest, trace: Optional[list[TraceStep]]) -> Decision:
        """One decision path for both entry points.

        Without a trace the decision is live: quota is consumed and the audit
        record written.  With a trace list it is a dry run of the same quota
        check that only appends the steps, ending with the verdict.
        """
        with self._rw.read():
            now = self.now()
            state = self._state
            policies = () if self.plain_rbac else self._obligations
            decision = evaluate(state, request, policies, trace)
            if (
                decision.effect is Effect.PERMIT
                and not self.plain_rbac
                and state.restrictions
            ):
                result = self._monitor.consume(
                    state, request.subject, decision.matched_role, now, request.request_id,
                    dry_run=trace is not None,
                )
                if trace is not None:
                    outcome = "admit" if result.admitted else "exhausted"
                    trace.append(TraceStep("quota", result.rejected_by or "", outcome))
                if not result.admitted:
                    decision = Decision(Effect.DENY, Reason.QUOTA_EXCEEDED)
            if trace is not None:
                trace.append(
                    TraceStep("decision", decision.matched_role or "", decision.effect.value)
                )
                return decision
            self._monitor.record_audit(
                AuditRecord(
                    at=now,
                    request_id=request.request_id,
                    subject=request.subject,
                    resource=request.resource,
                    action=request.action.value,
                    effect=decision.effect.value,
                    reason=decision.reason.value,
                    matched_role=decision.matched_role,
                )
            )
            return decision

    # -- monitoring ------------------------------------------------------------

    def query_audit(self, **kwargs) -> list[AuditRecord]:
        with self._rw.read():
            return self._monitor.query_audit(**kwargs)

    def drain_anomalies(self) -> list[AnomalyEvent]:
        with self._rw.read():
            return self._monitor.drain_anomalies()

    # -- migration ---------------------------------------------------------------

    def export_xml(self) -> bytes:
        self._require_policy_mode("xml-based migration")
        with self._rw.read():
            return export_bundle(self._state)

    def import_xml(self, xml: bytes) -> None:
        """Whole-state replace from a validated bundle.

        Quiesces decisions, swaps the directory and resets quota counters (a
        migrated tenant starts with clean windows).  The audit log and pending
        anomalies are operational history of this engine and survive.
        """
        self._require_policy_mode("xml-based migration")
        self._commit(self._imported, xml, reloads_monitor=True)

    def _imported(self, state: DirectoryState, xml: bytes) -> DirectoryState:
        new_state = import_bundle(xml, now=self.now())
        _, audit, anomalies = self._monitor.cut()
        self._monitor.load([], audit, anomalies)
        return new_state

    def validate_xml(self, xml: bytes) -> ValidationReport:
        return validate_bundle(xml)

    # -- backup / restore -----------------------------------------------------

    def cut(self, reason: str = "") -> EngineCut:
        """Consistent capture of directory + counters + audit + anomalies."""
        with self._rw.read():
            return self._cut_locked(reason)

    def _cut_locked(self, reason: str = "") -> EngineCut:
        state = self._state
        counters, audit, anomalies = self._monitor.cut()
        return EngineCut(
            state=state,
            counters=tuple(counters),
            audit=tuple(audit),
            anomalies=tuple(anomalies),
            captured_at=self.now(),
            reason=reason,
        )

    def create_snapshot(self, reason: str = "") -> SnapshotEntry:
        self._require_policy_mode("backup and restoration")
        return self._require_store().save(self.cut(reason))

    def restore_snapshot(self, snapshot_id: int) -> SnapshotEntry:
        """Swap in a snapshot's cut; refuses (state untouched) on bad checksum."""
        self._require_policy_mode("backup and restoration")
        store = self._require_store()
        cut, meta = store.load_with_meta(snapshot_id)  # verified before any mutation
        self._commit(self._restored, cut, snapshot_id, reloads_monitor=True)
        return meta

    def _restored(self, state: DirectoryState, cut: EngineCut, snapshot_id: int) -> DirectoryState:
        self._install(cut)
        self._monitor.record_audit(
            AuditRecord(
                at=self.now(),
                request_id=new_request_id(),
                subject="system",
                resource=f"snapshot:{snapshot_id}",
                action="restore",
                effect="permit",
                reason="restore-performed",
            )
        )
        return cut.state

    def list_snapshots(self, verify: bool = False) -> list[SnapshotEntry]:
        self._require_policy_mode("backup and restoration")
        return self._require_store().list_entries(verify=verify)

    # -- persistence --------------------------------------------------------------

    def flush(self) -> None:
        """Write the live state file, if one is configured."""
        with self._rw.write():
            self._flush_locked()

    def _install(self, cut: EngineCut) -> None:
        """Make ``cut`` the directory and monitor state (write lock held, or unshared)."""
        self._state = cut.state
        self._monitor.load(list(cut.counters), list(cut.audit), list(cut.anomalies))

    def _flush_locked(self) -> None:
        """Write the live state file; only ever called with the write lock held."""
        if self.live_path is not None:
            write_state_file(self.live_path, self._cut_locked("live"))

    # -- helpers -----------------------------------------------------------------

    def _require_policy_mode(self, feature: str) -> None:
        if self.plain_rbac:
            raise FeatureDisabled(f"{feature} is disabled in plain RBAC mode")

    def _require_store(self) -> SnapshotStore:
        if self.snapshot_store is None:
            raise FeatureDisabled("no snapshot directory configured")
        return self.snapshot_store
