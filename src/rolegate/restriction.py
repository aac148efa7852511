"""Transaction quotas, member caps, anomaly events and the audit log.

Quota windows are fixed windows anchored at the first counted transaction:
a counter's window starts when the first admitted transaction lands and the
count resets once ``now - window_start >= window_seconds``.  Rejected attempts
never mutate counters, so an all-or-nothing rejection across overlapping
policies keeps every counter mutually consistent.

Every quota rejection emits one anomaly event per violated policy, queued for
``drain_anomalies`` and appended to the anomaly log file when one is
configured.  That file is the hook for external monitors: one event per line,
in the same tab-separated form as ``GET /v1/anomalies`` (``AnomalyEvent.line``).

All public methods are linearizable: a single internal lock orders them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from .directory import (
    SCOPE_PER_ROLE,
    SCOPE_PER_USER,
    DirectoryState,
    RbacError,
    RestrictionPolicy,
    UnknownRole,
)

# Timestamps slightly behind a live window start are clamped to it; anything
# further back indicates a broken clock and is refused.
CLOCK_SKEW_TOLERANCE = 2


class ClockSkew(RbacError):
    code = "clock-skew"


class InvalidRange(RbacError):
    code = "invalid-range"


MAX_AUDIT_QUERY_LIMIT = 10_000


@dataclass
class TransactionCounter:
    """Running windowed count for one (policy, principal) key."""

    policy_id: str
    principal: str
    window_start: int
    count: int


def iso8601(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_FIELD_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def join_fields(*fields: str) -> str:
    r"""Join the fields of one wire record with TAB.

    TAB, CR, LF and backslash inside a field are written as ``\t``, ``\r``,
    ``\n`` and ``\\``, so no value can add a column or a line.
    """
    return "\t".join(f.translate(_FIELD_ESCAPES) for f in fields)


@dataclass(frozen=True)
class AnomalyEvent:
    """Evidence of a refused over-limit transaction, emitted exactly once."""

    at: int
    policy: str
    principal: str
    observed: int
    limit: int
    request_id: str

    def line(self) -> str:
        """The ``event=`` value and the anomaly log line."""
        return join_fields(
            iso8601(self.at), self.policy, self.principal, str(self.observed),
            str(self.limit), self.request_id,
        )


@dataclass(frozen=True)
class AuditRecord:
    """One access check (or restore event), appended in arrival order."""

    at: int
    request_id: str
    subject: str
    resource: str
    action: str
    effect: str
    reason: str
    matched_role: Optional[str] = None

    def line(self) -> str:
        """The ``record=`` value and the ``audit`` CLI line."""
        return join_fields(
            iso8601(self.at), self.request_id, self.subject, self.resource, self.action,
            self.effect, self.reason, self.matched_role or "-",
        )


@dataclass(frozen=True)
class ConsumeResult:
    admitted: bool
    rejected_by: Optional[str] = None  # policy id of the first violated policy


def applicable_policies(
    state: DirectoryState, subject: str, granting_role: str
) -> list[tuple[RestrictionPolicy, str]]:
    """Policies that bind a transaction, paired with the counted principal.

    Per-user policies count against the subject, per-role policies against the
    role that granted access.  A policy with no target binds every principal
    of its scope.  Sorted by policy id so rejection reporting is deterministic.
    """
    out = []
    for policy in sorted(state.restrictions.values(), key=lambda p: p.id):
        if policy.scope == SCOPE_PER_USER and policy.target in (None, subject):
            out.append((policy, subject))
        elif policy.scope == SCOPE_PER_ROLE and policy.target in (None, granting_role):
            out.append((policy, granting_role))
    return out


def check_user_cap(state: DirectoryState, role: str) -> Optional[str]:
    """Return the id of a member-cap policy the role has saturated, if any.

    A per-role policy with ``max_users`` m caps the role once its direct
    member count reaches m.
    """
    if role not in state.roles:
        raise UnknownRole(role)
    caps = [
        policy
        for policy in sorted(state.restrictions.values(), key=lambda p: p.id)
        if policy.scope == SCOPE_PER_ROLE
        and policy.max_users is not None
        and policy.target in (None, role)
    ]
    if not caps:
        return None  # no cap binds the role: its members need not be counted
    members = len(state.members_of(role))
    return next((policy.id for policy in caps if members >= policy.max_users), None)


class RestrictionMonitor:
    """Holds the running counters, pending anomaly events and the audit log."""

    def __init__(self, anomaly_log_path: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, str], TransactionCounter] = {}
        self._anomalies: list[AnomalyEvent] = []
        self._audit: list[AuditRecord] = []
        self.anomaly_log_path = anomaly_log_path

    # -- quota -------------------------------------------------------------

    def consume(
        self,
        state: DirectoryState,
        subject: str,
        granting_role: str,
        now: int,
        request_id: str,
        *,
        dry_run: bool = False,
    ) -> ConsumeResult:
        """Count one would-be-permitted transaction against every applicable policy.

        All-or-nothing: if any applicable policy would be exceeded, no counter
        moves, one anomaly event is emitted per violated policy and the first
        violated policy id is reported.  A dry run gives the same verdict but
        moves no counter and emits no event.
        """
        bindings = applicable_policies(state, subject, granting_role)
        with self._lock:
            observed: list[tuple[RestrictionPolicy, str, int]] = []
            violated: list[tuple[RestrictionPolicy, str, int]] = []
            for policy, principal in bindings:
                count, eff_now = self._effective(policy, principal, now)
                attempt = count + 1
                observed.append((policy, principal, eff_now))
                if attempt > policy.max_transactions:
                    violated.append((policy, principal, attempt))
            if violated:
                if not dry_run:
                    for policy, principal, attempt in violated:
                        self._emit(
                            AnomalyEvent(
                                at=now,
                                policy=policy.id,
                                principal=principal,
                                observed=attempt,
                                limit=policy.max_transactions,
                                request_id=request_id,
                            )
                        )
                return ConsumeResult(False, violated[0][0].id)
            if not dry_run:
                for policy, principal, eff_now in observed:
                    self._bump(policy, principal, eff_now)
            return ConsumeResult(True)

    def _effective(
        self, policy: RestrictionPolicy, principal: str, now: int
    ) -> tuple[int, int]:
        """Current in-window count and the skew-clamped timestamp."""
        counter = self._counters.get((policy.id, principal))
        if counter is None:
            return 0, now
        if now < counter.window_start:
            behind = counter.window_start - now
            if behind > CLOCK_SKEW_TOLERANCE:
                raise ClockSkew(
                    f"timestamp {now} is {behind}s behind window start of "
                    f"{policy.id}/{principal}"
                )
            now = counter.window_start
        if now - counter.window_start >= policy.window_seconds:
            return 0, now
        return counter.count, now

    def _bump(self, policy: RestrictionPolicy, principal: str, now: int) -> None:
        key = (policy.id, principal)
        counter = self._counters.get(key)
        if counter is None or now - counter.window_start >= policy.window_seconds:
            self._counters[key] = TransactionCounter(policy.id, principal, now, 1)
        else:
            counter.count += 1

    # -- anomalies ----------------------------------------------------------

    def _emit(self, event: AnomalyEvent) -> None:
        self._anomalies.append(event)
        if self.anomaly_log_path:
            with open(self.anomaly_log_path, "a", encoding="utf-8") as fh:
                fh.write(event.line() + "\n")

    def drain_anomalies(self) -> list[AnomalyEvent]:
        """Return and clear all pending events, oldest first, exactly once."""
        with self._lock:
            events, self._anomalies = self._anomalies, []
            return events

    def pending_anomalies(self) -> list[AnomalyEvent]:
        with self._lock:
            return list(self._anomalies)

    # -- audit ---------------------------------------------------------------

    def record_audit(self, record: AuditRecord) -> None:
        with self._lock:
            self._audit.append(record)

    def query_audit(
        self,
        subject: Optional[str] = None,
        effect: Optional[str] = None,
        since: Optional[int] = None,
        until: Optional[int] = None,
        limit: int = 1000,
    ) -> list[AuditRecord]:
        """Matching records ordered by (at, request id), at most ``limit``."""
        if not 1 <= limit <= MAX_AUDIT_QUERY_LIMIT:
            raise ValueError(f"limit must be in 1..{MAX_AUDIT_QUERY_LIMIT}")
        if since is not None and until is not None and since > until:
            raise InvalidRange(f"since {since} > until {until}")
        with self._lock:
            records = list(self._audit)
        out = [
            r
            for r in records
            if (subject is None or r.subject == subject)
            and (effect is None or r.effect == effect)
            and (since is None or r.at >= since)
            and (until is None or r.at <= until)
        ]
        out.sort(key=lambda r: (r.at, r.request_id))
        return out[:limit]

    def audit_size(self) -> int:
        with self._lock:
            return len(self._audit)

    # -- snapshot support ------------------------------------------------------

    def cut(self) -> tuple[list[TransactionCounter], list[AuditRecord], list[AnomalyEvent]]:
        """Atomic copy of counters, audit log and pending anomalies."""
        with self._lock:
            counters = [
                TransactionCounter(c.policy_id, c.principal, c.window_start, c.count)
                for c in self._counters.values()
            ]
            return counters, list(self._audit), list(self._anomalies)

    def load(
        self,
        counters: list[TransactionCounter],
        audit: list[AuditRecord],
        anomalies: list[AnomalyEvent],
    ) -> None:
        """Replace all monitor state with a previously captured cut."""
        with self._lock:
            self._counters = {
                (c.policy_id, c.principal): TransactionCounter(
                    c.policy_id, c.principal, c.window_start, c.count
                )
                for c in counters
            }
            self._audit = list(audit)
            self._anomalies = list(anomalies)
