"""Derived indexes on DirectoryState agree with brute-force scans.

The state builds its query indexes lazily and caches them per instance.  These
tests compare every index-backed query with a scan of ``state.assignments``
and ``state.roles`` after each transition, check that a warm state answers
decisions without touching the assignment map, and race first-touch index
builds from several threads.
"""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from rolegate import AccessRequest, Action, Engine, Permission
from rolegate import directory as d

from oracles import (
    decision_oracle,
    permission_closure_oracle,
    random_directory,
    user_closure_oracle,
)

RESOURCES = ["docs", "ledger", "mail", "wiki", "billing", "reports", "nothing"]


def scan_direct_roles(state: d.DirectoryState, user: str) -> frozenset[str]:
    return frozenset(r for (u, r) in state.assignments if u == user)


def scan_members(state: d.DirectoryState, role: str) -> frozenset[str]:
    return frozenset(u for (u, r) in state.assignments if r == role)


def warm(state: d.DirectoryState) -> None:
    """Touch every index-backed query so that all caches of ``state`` exist."""
    for user in state.users:
        d.effective_roles(state, user)
    for role in state.roles:
        state.members_of(role)
        state.permission_keys(role)
        d.effective_permissions(state, role)


def assert_matches_scans(state: d.DirectoryState) -> None:
    for user in sorted(state.users) + ["ghost"]:
        assert state.direct_roles(user) == scan_direct_roles(state, user)
    for user in state.users:
        assert d.effective_roles(state, user) == user_closure_oracle(state, user)
    for role in state.roles:
        assert state.members_of(role) == scan_members(state, role)
        assert d.effective_permissions(state, role) == permission_closure_oracle(state, role)
    engine = Engine(state, plain_rbac=True)  # no quotas or obligations: pure RBAC
    for subject in sorted(state.users) + ["ghost"]:
        for resource in RESOURCES:
            for action in Action:
                effect, granting = decision_oracle(state, subject, resource, action.value)
                decision = engine.check_access(AccessRequest(subject, resource, action))
                assert decision.effect.value == effect
                assert decision.matched_role == (min(granting) if granting else None)


def random_transition(rng: random.Random, state: d.DirectoryState, step: int):
    users = sorted(state.users)
    roles = sorted(state.roles)
    kind = rng.choice(
        ["user", "role", "grant", "assign", "assign", "revoke", "revoke", "sod", "cap"]
    )
    if kind == "user" or not roles:
        return d.create_user(state, f"new{step}")
    if kind == "role":
        parents = rng.sample(roles, k=min(len(roles), rng.randint(0, 2)))
        return d.create_role(state, f"newrole{step}", parents)
    if kind == "grant":
        perm = Permission(rng.choice(RESOURCES[:-1]), rng.choice(list(Action)))
        return d.grant_permission(state, rng.choice(roles), perm)
    if kind == "assign" and users:
        return d.assign_role(state, rng.choice(users), rng.choice(roles), now=step)
    if kind == "revoke" and state.assignments:
        user, role = rng.choice(sorted(state.assignments))
        return d.revoke_role(state, user, role)
    if kind == "sod" and len(roles) >= 2:
        a, b = rng.sample(roles, 2)
        return d.add_sod_constraint(state, a, b)
    policy = d.RestrictionPolicy(
        id=f"cap{step}", scope=d.SCOPE_PER_ROLE, max_transactions=5,
        window_seconds=60, target=rng.choice(roles), max_users=2,
    )
    return d.add_restriction(state, policy)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_indexes_match_scans_after_every_transition(seed):
    rng = random.Random(seed)
    state = random_directory(rng, with_sod=True, with_extras=True)
    assert_matches_scans(state)
    for step in range(12):
        warm(state)  # a cache leaked into the successor would answer for it
        try:
            new_state = random_transition(rng, state, step)
        except d.RbacError:
            continue
        assert_matches_scans(new_state)
        assert_matches_scans(state)  # the old state's indexes are still its own
        state = new_state


class CountingDict(dict):
    """A dict that counts every walk over its keys, values or items."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def test_warm_decisions_never_walk_assignments():
    rng = random.Random(7)
    base = random_directory(rng, max_users=30, with_sod=True, with_extras=True)
    while not base.assignments:
        base = random_directory(rng, max_users=30, with_sod=True, with_extras=True)
    assignments = CountingDict(base.assignments)
    state = d.DirectoryState(
        users=base.users,
        roles=base.roles,
        assignments=assignments,
        sod=base.sod,
        restrictions=base.restrictions,
        tables=base.tables,
    )
    engine = Engine(state)
    subjects = sorted(state.users) + ["ghost"]
    engine.check_access(AccessRequest(subjects[0], "docs", Action.READ))
    assignments.walks = 0
    for k in range(200):
        subject = subjects[k % len(subjects)]
        engine.check_access(AccessRequest(subject, RESOURCES[k % 7], list(Action)[k % 3]))
    assert assignments.walks == 0


def big_directory(seed: int, users: int) -> d.DirectoryState:
    """A fresh state: eight roles in a layered hierarchy, each with its own
    grants, and ``users`` users holding up to three roles each."""
    rng = random.Random(seed)
    state = d.DirectoryState.empty()
    roles = [f"role{i}" for i in range(8)]
    for i, role in enumerate(roles):
        state = d.create_role(state, role, rng.sample(roles[:i], k=min(i, 2)))
        for _ in range(3):
            perm = Permission(rng.choice(RESOURCES[:-1]), rng.choice(list(Action)))
            state = d.grant_permission(state, role, perm)
    names = [f"user{i}" for i in range(users)]
    assignments = {
        (user, role): 1 for user in names for role in rng.sample(roles, k=rng.randint(0, 3))
    }
    return d.DirectoryState(users=frozenset(names), roles=state.roles, assignments=assignments)


def test_first_touch_from_four_threads_matches_oracle():
    base = big_directory(11, 2_000)
    rng = random.Random(12)
    probes = [
        (rng.choice(sorted(base.users)), rng.choice(RESOURCES), rng.choice(list(Action)))
        for _ in range(60)
    ]
    expected = [decision_oracle(base, s, r, a.value) for s, r, a in probes]
    errors: list[str] = []

    def decide(engine: Engine, start: threading.Barrier, lead: int) -> None:
        start.wait()
        # unknown subjects are answered without reading the directory: they
        # stagger the threads' first touches across the index builds
        for _ in range(lead):
            engine.check_access(AccessRequest("ghost", "docs", Action.READ))
        for (subject, resource, action), (effect, granting) in zip(probes, expected):
            decision = engine.check_access(AccessRequest(subject, resource, action))
            if (decision.effect.value, decision.matched_role) != (
                effect, min(granting) if granting else None
            ):
                errors.append(f"{subject} {resource} {action.value}: {decision}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the index builds
    try:
        for _ in range(10):
            # a fresh state over the same containers: no index built yet
            state = d.DirectoryState(
                users=base.users, roles=base.roles, assignments=base.assignments
            )
            engine = Engine(state, plain_rbac=True)
            start = threading.Barrier(4)
            threads = [
                threading.Thread(target=decide, args=(engine, start, rng.randint(0, 200)))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
