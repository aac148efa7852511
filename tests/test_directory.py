"""Directory state transitions, closures, invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolegate import directory as d
from rolegate.directory import Action, Permission

from oracles import random_directory, user_closure_oracle, permission_closure_oracle


def empty():
    return d.DirectoryState.empty()


class TestCreateUser:
    def test_insert_on_empty_state(self):
        state = d.create_user(empty(), "alice")
        assert state.users == frozenset({"alice"})

    def test_duplicate_rejected(self):
        state = d.create_user(empty(), "alice")
        with pytest.raises(d.DuplicateUser):
            d.create_user(state, "alice")

    @pytest.mark.parametrize("bad", ["", "has space", "a" * 65, "tab\t", "naïve"])
    def test_invalid_names(self, bad):
        with pytest.raises(d.InvalidName):
            d.create_user(empty(), bad)

    def test_charset_accepts_dots_dashes_underscores(self):
        state = d.create_user(empty(), "a.b-c_d")
        assert "a.b-c_d" in state.users


class TestCreateRole:
    def test_admin_inherits_employee_grants(self):
        state = d.create_role(empty(), "employee")
        state = d.grant_permission(state, "employee", Permission("docs", Action.READ))
        state = d.create_role(state, "admin", ["employee"])
        assert Permission("docs", Action.READ) in d.effective_permissions(state, "admin")

    def test_self_parent_is_cycle(self):
        with pytest.raises(d.HierarchyCycle):
            d.create_role(empty(), "a", ["a"])

    def test_unknown_parent(self):
        with pytest.raises(d.UnknownRole):
            d.create_role(empty(), "a", ["ghost"])

    def test_duplicate_role(self):
        state = d.create_role(empty(), "a")
        with pytest.raises(d.DuplicateRole):
            d.create_role(state, "a")

    def test_new_role_has_no_permissions(self):
        state = d.create_role(empty(), "a")
        assert state.roles["a"].permissions == frozenset()


class TestGrantPermission:
    def test_grant(self):
        state = d.create_role(empty(), "employee")
        state = d.grant_permission(state, "employee", Permission("docs", Action.READ))
        assert Permission("docs", Action.READ) in state.roles["employee"].permissions

    def test_regrant_is_noop(self):
        state = d.create_role(empty(), "employee")
        perm = Permission("docs", Action.READ)
        once = d.grant_permission(state, "employee", perm)
        twice = d.grant_permission(once, "employee", perm)
        assert once == twice

    def test_unknown_role(self):
        with pytest.raises(d.UnknownRole):
            d.grant_permission(empty(), "ghost", Permission("docs", Action.READ))


class TestAssignRevoke:
    def _base(self):
        state = d.create_user(empty(), "alice")
        state = d.create_role(state, "employee")
        return state

    def test_assign(self):
        state = d.assign_role(self._base(), "alice", "employee", now=123)
        assert state.assignments[("alice", "employee")] == 123

    def test_assign_unknown_user(self):
        state = d.create_role(empty(), "employee")
        with pytest.raises(d.UnknownUser):
            d.assign_role(state, "ghost", "employee", now=0)

    def test_assign_unknown_role(self):
        state = d.create_user(empty(), "alice")
        with pytest.raises(d.UnknownRole):
            d.assign_role(state, "alice", "ghost", now=0)

    def test_assign_twice_rejected(self):
        state = d.assign_role(self._base(), "alice", "employee", now=1)
        with pytest.raises(d.DuplicateAssignment):
            d.assign_role(state, "alice", "employee", now=2)

    def test_sod_blocks_assignment(self):
        state = d.create_user(empty(), "alice")
        state = d.create_role(state, "auditor")
        state = d.create_role(state, "payer")
        state = d.add_sod_constraint(state, "auditor", "payer")
        state = d.assign_role(state, "alice", "auditor", now=1)
        with pytest.raises(d.SoDViolation):
            d.assign_role(state, "alice", "payer", now=2)

    def test_revoke_removes(self):
        state = d.assign_role(self._base(), "alice", "employee", now=1)
        state = d.revoke_role(state, "alice", "employee")
        assert ("alice", "employee") not in state.assignments
        assert d.effective_roles(state, "alice") == frozenset()

    def test_revoke_twice(self):
        state = d.assign_role(self._base(), "alice", "employee", now=1)
        state = d.revoke_role(state, "alice", "employee")
        with pytest.raises(d.UnknownAssignment):
            d.revoke_role(state, "alice", "employee")

    def test_revoke_then_reassign_restores_closure(self):
        state = d.assign_role(self._base(), "alice", "employee", now=1)
        before = user_closure_oracle(state, "alice")
        state = d.revoke_role(state, "alice", "employee")
        assert user_closure_oracle(state, "alice") == set()
        state = d.assign_role(state, "alice", "employee", now=2)
        assert user_closure_oracle(state, "alice") == before == {"employee"}


class TestSodConstraint:
    def _two_roles(self):
        state = d.create_role(empty(), "auditor")
        return d.create_role(state, "payer")

    def test_add(self):
        state = d.add_sod_constraint(self._two_roles(), "auditor", "payer")
        assert ("auditor", "payer") in state.sod

    def test_pair_is_unordered(self):
        a = d.add_sod_constraint(self._two_roles(), "auditor", "payer")
        b = d.add_sod_constraint(self._two_roles(), "payer", "auditor")
        assert a.sod == b.sod

    def test_self_pair(self):
        state = d.create_role(empty(), "r")
        with pytest.raises(d.SelfPair):
            d.add_sod_constraint(state, "r", "r")

    def test_existing_conflict_rejected(self):
        state = d.create_user(self._two_roles(), "alice")
        state = d.assign_role(state, "alice", "auditor", now=1)
        state = d.assign_role(state, "alice", "payer", now=2)
        with pytest.raises(d.ExistingConflict):
            d.add_sod_constraint(state, "auditor", "payer")


class TestClosures:
    def test_two_node_chain(self):
        state = d.create_user(empty(), "alice")
        state = d.create_role(state, "employee")
        state = d.create_role(state, "admin", ["employee"])
        state = d.assign_role(state, "alice", "admin", now=1)
        assert d.effective_roles(state, "alice") == frozenset({"admin", "employee"})

    def test_no_assignments_empty_closure(self):
        state = d.create_user(empty(), "alice")
        assert d.effective_roles(state, "alice") == frozenset()

    def test_unknown_user(self):
        with pytest.raises(d.UnknownUser):
            d.effective_roles(empty(), "ghost")

    def test_diamond_counted_once(self):
        state = d.create_user(empty(), "alice")
        state = d.create_role(state, "d")
        state = d.create_role(state, "b", ["d"])
        state = d.create_role(state, "c", ["d"])
        state = d.create_role(state, "a", ["b", "c"])
        state = d.assign_role(state, "alice", "a", now=1)
        assert d.effective_roles(state, "alice") == frozenset({"a", "b", "c", "d"})

    def test_permissions_union_two_parents(self):
        state = d.create_role(empty(), "p1")
        state = d.create_role(state, "p2")
        perm = Permission("docs", Action.READ)
        state = d.grant_permission(state, "p1", perm)
        state = d.grant_permission(state, "p2", perm)
        state = d.create_role(state, "child", ["p1", "p2"])
        assert d.effective_permissions(state, "child") == frozenset({perm})

    def test_leaf_role_own_set(self):
        state = d.create_role(empty(), "leaf")
        perm = Permission("docs", Action.DELETE)
        state = d.grant_permission(state, "leaf", perm)
        assert d.effective_permissions(state, "leaf") == frozenset({perm})

    def test_inherited_permissions(self):
        state = d.create_role(empty(), "employee")
        state = d.grant_permission(state, "employee", Permission("docs", Action.READ))
        state = d.create_role(state, "admin", ["employee"])
        state = d.grant_permission(state, "admin", Permission("docs", Action.WRITE))
        assert d.effective_permissions(state, "admin") == frozenset(
            {Permission("docs", Action.READ), Permission("docs", Action.WRITE)}
        )


class TestMetrics:
    def test_empty_state(self):
        m = d.metrics(empty())
        assert (m.num_users, m.num_roles, m.num_permissions, m.num_assignments) == (0, 0, 0, 0)
        assert m.role_user_ratio is None
        assert m.ratio_decimal() is None

    def test_ratio_two_users_four_assignments(self):
        state = empty()
        for u in ("u1", "u2"):
            state = d.create_user(state, u)
        for r in ("r1", "r2", "r3"):
            state = d.create_role(state, r)
        for u in ("u1", "u2"):
            state = d.assign_role(state, u, "r1", now=1)
            state = d.assign_role(state, u, "r2", now=1)
        m = d.metrics(state)
        assert m.num_assignments == 4 and m.num_users == 2
        assert m.role_user_ratio == Fraction(2)
        assert m.ratio_decimal() == "2.0"

    def test_non_integer_ratio_stays_exact(self):
        state = empty()
        for u in ("u1", "u2"):
            state = d.create_user(state, u)
        state = d.create_role(state, "r")
        state = d.create_role(state, "s")
        state = d.assign_role(state, "u1", "r", now=1)
        state = d.assign_role(state, "u1", "s", now=1)
        state = d.assign_role(state, "u2", "r", now=1)
        m = d.metrics(state)
        assert m.role_user_ratio == Fraction(3, 2)
        assert m.ratio_decimal() == "1.5"

    def test_constructed_fixture_counts(self):
        state = empty()
        for i in range(10):
            state = d.create_user(state, f"u{i}")
        for i in range(5):
            state = d.create_role(state, f"r{i}")
        resources = [f"res{i}" for i in range(7)]
        granted = 0
        for role_i in range(5):
            for res in resources:
                if granted >= 20:
                    break
                state = d.grant_permission(
                    state, f"r{role_i}", Permission(res, Action.READ)
                )
                granted += 1
        for i in range(10):
            for j in range(5):
                state = d.assign_role(state, f"u{i}", f"r{j}", now=1)
        m = d.metrics(state)
        assert (m.num_users, m.num_roles, m.num_permissions, m.num_assignments) == (
            10,
            5,
            20,
            50,
        )
        assert m.role_user_ratio == Fraction(5)
        assert m.ratio_decimal() == "5.0"


class TestAtomicityAndStructure:
    def test_failed_op_leaves_state_identical(self):
        state = d.create_user(empty(), "alice")
        state = d.create_role(state, "employee")
        state = d.assign_role(state, "alice", "employee", now=1)
        snapshot = (
            state.users,
            dict(state.roles),
            dict(state.assignments),
            state.sod,
            dict(state.restrictions),
        )
        for bad_call in (
            lambda: d.create_user(state, "alice"),
            lambda: d.create_role(state, "employee"),
            lambda: d.assign_role(state, "alice", "employee", now=9),
            lambda: d.revoke_role(state, "bob", "employee"),
            lambda: d.add_sod_constraint(state, "employee", "employee"),
            lambda: d.grant_permission(state, "ghost", Permission("x", Action.READ)),
        ):
            with pytest.raises(d.RbacError):
                bad_call()
        assert snapshot == (
            state.users,
            dict(state.roles),
            dict(state.assignments),
            state.sod,
            dict(state.restrictions),
        )

    def test_no_user_permission_association_in_state(self):
        # users are bare names; only Role carries permissions
        import dataclasses

        fields = {f.name: str(f.type) for f in dataclasses.fields(d.DirectoryState)}
        assert "users" in fields and "Permission" not in fields["users"]
        assert not any(
            "user" in name and "perm" in name.lower() for name in fields
        )

    def test_restriction_policy_validation(self):
        with pytest.raises(d.InvalidRestriction):
            d.RestrictionPolicy(id="x", scope="per-user", max_transactions=0, window_seconds=1)
        with pytest.raises(d.InvalidRestriction):
            d.RestrictionPolicy(id="x", scope="per-user", max_transactions=1, window_seconds=0)
        with pytest.raises(d.InvalidRestriction):
            d.RestrictionPolicy(
                id="x", scope="per-user", max_transactions=1, window_seconds=1, max_users=2
            )
        with pytest.raises(d.InvalidRestriction):
            d.RestrictionPolicy(id="x", scope="sideways", max_transactions=1, window_seconds=1)

    @pytest.mark.parametrize("field", ["max_transactions", "window_seconds", "max_users"])
    @pytest.mark.parametrize(
        "value",
        [d.MAX_RESTRICTION_VALUE + 1, 10**5000, True],
        ids=["max-plus-1", "5001-digits", "bool"],
    )
    def test_restriction_values_are_bounded(self, field, value):
        values = {"max_transactions": 1, "window_seconds": 1, "max_users": 1, field: value}
        with pytest.raises(d.InvalidRestriction):
            d.RestrictionPolicy(id="x", scope="per-role", **values)
        values[field] = d.MAX_RESTRICTION_VALUE
        d.RestrictionPolicy(id="x", scope="per-role", **values)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_closure_matches_bruteforce_fixpoint(seed):
    rng = random.Random(seed)
    state = random_directory(rng, max_roles=8, max_users=6)
    for user in state.users:
        assert d.effective_roles(state, user) == frozenset(
            user_closure_oracle(state, user)
        )
    for role in state.roles:
        assert d.effective_permissions(state, role) == frozenset(
            permission_closure_oracle(state, role)
        )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_role_graph_always_topologically_sortable(seed):
    rng = random.Random(seed)
    state = random_directory(rng, max_roles=10)
    order = d.topological_order(state.roles)
    assert sorted(order) == sorted(state.roles)
    # every parent appears before the role that inherits from it
    position = {name: i for i, name in enumerate(order)}
    for role in state.roles.values():
        for parent in role.parents:
            assert position[parent] < position[role.name]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sod_safety_holds_after_random_construction(seed):
    rng = random.Random(seed)
    state = random_directory(rng, with_sod=True)
    for a, b in state.sod:
        for user in state.users:
            held = state.direct_roles(user)
            assert not (a in held and b in held)


@settings(max_examples=75, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_monotonicity_of_grants_and_assignments(seed):
    rng = random.Random(seed)
    state = random_directory(rng, max_roles=6, max_users=4)
    before_roles = {u: d.effective_roles(state, u) for u in state.users}
    before_perms = {r: d.effective_permissions(state, r) for r in state.roles}

    grown = state
    if grown.roles:
        grown = d.grant_permission(
            grown, rng.choice(sorted(grown.roles)), Permission("extra", Action.DELETE)
        )
    for user in sorted(grown.users):
        for role in sorted(grown.roles):
            if (user, role) not in grown.assignments:
                try:
                    grown = d.assign_role(grown, user, role, now=5)
                except d.RbacError:
                    continue
                break

    for user, had in before_roles.items():
        assert had <= d.effective_roles(grown, user)
    for role, had in before_perms.items():
        assert had <= d.effective_permissions(grown, role)
