"""Two-phase access decisions with obligation evaluation.

Phase one of the model is role assignment (owned by the directory).  Phase two
happens here: a request's (resource, action) is checked against the effective
permissions of the subject's effective roles.  Evaluation order is fixed:

    1. subject existence            -> deny unknown-subject
    2. role/permission closure      -> deny no-matching-permission
    3. blocking (must-not) policies -> deny obligation-blocked
    4. restriction quota            -> deny quota-exceeded (engine layer)

The quota step is applied by the engine only to would-be permits, so denied
requests can never drain a victim's quota.  Everything in this module is pure;
the engine supplies state, obligations and the quota hook.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .directory import (
    Action,
    DirectoryState,
    effective_permissions,  # no longer called here; perfbench/tracing.py wraps this name
    effective_roles,
    ensure_token,
)


class Effect(str, Enum):
    PERMIT = "permit"
    DENY = "deny"


class Reason(str, Enum):
    GRANTED = "granted"
    NO_MATCHING_PERMISSION = "no-matching-permission"
    UNKNOWN_SUBJECT = "unknown-subject"
    QUOTA_EXCEEDED = "quota-exceeded"
    OBLIGATION_BLOCKED = "obligation-blocked"


MODALITY_MUST = "must"
MODALITY_MUST_NOT = "must-not"


def new_request_id() -> str:
    return uuid.uuid4().hex


@dataclass(frozen=True)
class AccessRequest:
    """A single authorization question from an untrusted caller."""

    subject: str
    resource: str
    action: Action
    context: Mapping[str, str] = field(default_factory=dict)
    request_id: str = field(default_factory=new_request_id)

    def __post_init__(self) -> None:
        if not isinstance(self.action, Action):
            object.__setattr__(self, "action", Action(self.action))


@dataclass(frozen=True)
class ObligationPolicy:
    """An activity a subject must or must not perform when a condition holds.

    The condition is a conjunction of equality tests over the request context;
    an empty condition is always true, a missing context key makes it false.
    """

    id: str
    modality: str
    action_token: str
    applies_to: frozenset[str]
    condition: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ensure_token(self.id, "obligation id")
        if self.modality not in (MODALITY_MUST, MODALITY_MUST_NOT):
            raise ValueError(f"unknown modality: {self.modality!r}")
        if not self.action_token or any(ord(c) < 0x20 for c in self.action_token):
            raise ValueError(f"invalid action token: {self.action_token!r}")
        for key in self.condition:
            ensure_token(key, "condition key")

    def condition_holds(self, context: Mapping[str, str]) -> bool:
        return all(context.get(k) == v for k, v in self.condition.items())


@dataclass(frozen=True)
class ObligationRef:
    """Reference to a triggered obligation, carried on the decision."""

    policy_id: str
    modality: str
    action_token: str


@dataclass(frozen=True)
class Decision:
    effect: Effect
    reason: Reason
    obligations: tuple[ObligationRef, ...] = ()
    matched_role: Optional[str] = None


@dataclass(frozen=True)
class TraceStep:
    """One line of the explain trace: what was examined and how it went."""

    phase: str
    item: str
    outcome: str


def evaluate_obligations(
    policies: Iterable[ObligationPolicy],
    subject_roles: frozenset[str],
    context: Mapping[str, str],
) -> tuple[list[ObligationPolicy], list[ObligationPolicy]]:
    """Split applicable policies into (blocking must-nots, attached musts).

    A policy is applicable iff its applies-to set intersects the subject's
    roles and every equality test in its condition holds against the context.
    Output is ordered by policy id for reproducible decisions.
    """
    blocking: list[ObligationPolicy] = []
    attached: list[ObligationPolicy] = []
    for policy in sorted(policies, key=lambda p: p.id):
        if not (policy.applies_to & subject_roles):
            continue
        if not policy.condition_holds(context):
            continue
        if policy.modality == MODALITY_MUST_NOT:
            blocking.append(policy)
        else:
            attached.append(policy)
    return blocking, attached


def _refs(policies: list[ObligationPolicy]) -> tuple[ObligationRef, ...]:
    return tuple(ObligationRef(p.id, p.modality, p.action_token) for p in policies)


def evaluate(
    state: DirectoryState,
    request: AccessRequest,
    policies: Sequence[ObligationPolicy] = (),
    trace: Optional[list[TraceStep]] = None,
) -> Decision:
    """Run the quota-free part of the two-phase check.

    A permit carries the lexicographically first granting role and the
    attached must obligations; an obligation-blocked deny carries the blocking
    must-nots.  With a ``trace`` list, steps are appended to it for the
    subject lookup, every examined role and every applicable obligation;
    without one, no step is built.  The engine finishes the trace with the
    quota consultation and the final decision step, since only the engine
    knows whether a quota is in play.
    """
    if request.subject not in state.users:
        if trace is not None:
            trace.append(TraceStep("subject", request.subject, "unknown"))
        return Decision(Effect.DENY, Reason.UNKNOWN_SUBJECT)
    if trace is not None:
        trace.append(TraceStep("subject", request.subject, "found"))

    subject_roles = effective_roles(state, request.subject)
    # match on raw fields: the request is untrusted, and a resource no
    # permission could ever name must deny, not raise
    wanted = (request.resource, request.action)
    matched: Optional[str] = None
    for role in sorted(subject_roles):
        grants = wanted in state.permission_keys(role)
        if grants and matched is None:
            matched = role  # lexicographic minimum: sorted iteration
        if trace is not None:
            trace.append(TraceStep("role", role, "grants" if grants else "no-grant"))

    if matched is None:
        return Decision(Effect.DENY, Reason.NO_MATCHING_PERMISSION)

    blocking, attached = evaluate_obligations(policies, subject_roles, request.context)
    if trace is not None:
        trace.extend(TraceStep("obligation", p.id, "blocks") for p in blocking)
        trace.extend(TraceStep("obligation", p.id, "attaches") for p in attached)

    if blocking:
        return Decision(Effect.DENY, Reason.OBLIGATION_BLOCKED, _refs(blocking))
    return Decision(Effect.PERMIT, Reason.GRANTED, _refs(attached), matched)
