"""RBAC directory: users, roles, hierarchy, permissions, assignments, constraints.

The directory is held in an immutable ``DirectoryState``.  Every mutating
operation is a pure function taking a state and returning a new one; on any
error the input state is untouched, so failed operations are atomic by
construction.  Callers that need single-writer semantics (the engine) hold a
reference to the current state and swap it after a successful transition.

Hierarchy direction: ``Role.parents`` names the roles a role inherits FROM.
A senior role points at the junior roles whose permissions it acquires, so
"admin inherits employee" is written ``Role("admin", parents={"employee"})``.
RBAC literature uses both conventions; this module uses only this one.

Permissions attach to roles, never to users.  There is deliberately no
operation and no state field associating a user with a permission directly.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

_TOKEN_RE = re.compile(r"[A-Za-z0-9_.-]{1,64}")
_RESOURCE_RE = re.compile(r"[^\s\x00-\x1f\x7f]{1,256}")


class RbacError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "rbac-error"


class InvalidName(RbacError):
    code = "invalid-name"


class DuplicateUser(RbacError):
    code = "duplicate-user"


class DuplicateRole(RbacError):
    code = "duplicate-role"


class UnknownUser(RbacError):
    code = "unknown-user"


class UnknownRole(RbacError):
    code = "unknown-role"


class HierarchyCycle(RbacError):
    code = "hierarchy-cycle"

    def __init__(self, message: str, path: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.path = path  # the cycle, first role repeated last, when one was walked


class SoDViolation(RbacError):
    code = "sod-violation"


class DuplicateAssignment(RbacError):
    code = "duplicate-assignment"


class UnknownAssignment(RbacError):
    code = "unknown-assignment"


class SelfPair(RbacError):
    code = "self-pair"


class ExistingConflict(RbacError):
    code = "existing-conflict"


class RoleCapacityExceeded(RbacError):
    code = "role-capacity-exceeded"


class DuplicateRestriction(RbacError):
    code = "duplicate-restriction"


class InvalidRestriction(RbacError):
    code = "invalid-restriction"


def is_token(value: str) -> bool:
    return isinstance(value, str) and bool(_TOKEN_RE.fullmatch(value))


def is_resource(value: str) -> bool:
    return isinstance(value, str) and bool(_RESOURCE_RE.fullmatch(value))


def ensure_token(name: str, what: str = "name") -> str:
    """Validate an identifier token: 1-64 chars of ``[A-Za-z0-9_.-]``."""
    if not is_token(name):
        raise InvalidName(f"invalid {what}: {name!r}")
    return name


def ensure_resource(resource: str) -> str:
    """Resources are free-form identifiers: non-empty, no whitespace or control chars."""
    if not is_resource(resource):
        raise InvalidName(f"invalid resource: {resource!r}")
    return resource


class Action(str, Enum):
    """The three access verbs a permission can grant."""

    READ = "read"
    WRITE = "write"
    DELETE = "delete"


@dataclass(frozen=True)
class Permission:
    """Unit of grant: the (resource, action) pair."""

    resource: str
    action: Action

    def __post_init__(self) -> None:
        ensure_resource(self.resource)
        if not isinstance(self.action, Action):
            object.__setattr__(self, "action", Action(self.action))

    def sort_key(self) -> tuple[str, str]:
        return (self.action.value, self.resource)


@dataclass(frozen=True)
class Role:
    """A named bundle of permissions, optionally inheriting from other roles.

    ``parents`` are the roles this role inherits from (see module docstring).
    """

    name: str
    parents: frozenset[str] = frozenset()
    permissions: frozenset[Permission] = frozenset()


@dataclass(frozen=True)
class Assignment:
    """Membership of a user in a role, stamped at assignment time (UTC seconds)."""

    user: str
    role: str
    assigned_at: int


# Restriction policies are configuration owned by the directory state; the
# running counters that enforce them live in the restriction monitor.
SCOPE_PER_USER = "per-user"
SCOPE_PER_ROLE = "per-role"
# Every restriction count and window lies in 1..MAX_RESTRICTION_VALUE, so each
# one stays within a signed 64-bit integer and far below the digit limit of
# Python's int()/str() conversions.
MAX_RESTRICTION_VALUE = 2**63 - 1
_MAX_DIGITS = len(str(MAX_RESTRICTION_VALUE))


def parse_digits(raw: str) -> Optional[int]:
    """``raw`` as an int if it is ``1*19DIGIT`` in ASCII, else None.

    The one number syntax of bundles, HTTP fields, query parameters,
    ``Content-Length`` and CLI options: no sign, space, ``_`` or non-ASCII
    digit, and the length is checked before ``int()`` sees the string.
    """
    if raw.isascii() and raw.isdigit() and len(raw) <= _MAX_DIGITS:
        return int(raw)
    return None


def _ensure_count(value: int, what: str) -> None:
    # a bool is an int, but exports as "True", which no bundle reader accepts
    if type(value) is not int or not 1 <= value <= MAX_RESTRICTION_VALUE:
        raise InvalidRestriction(
            f"{what} must be a positive integer of at most {MAX_RESTRICTION_VALUE}"
        )


@dataclass(frozen=True)
class RestrictionPolicy:
    """Cap on windowed transactions, and optionally on members per role.

    ``target`` is a user name (per-user scope) or role name (per-role scope);
    ``None`` applies the policy to every principal of that scope.
    ``max_users`` is meaningful only with per-role scope.
    """

    id: str
    scope: str
    max_transactions: int
    window_seconds: int
    target: Optional[str] = None
    max_users: Optional[int] = None

    def __post_init__(self) -> None:
        ensure_token(self.id, "restriction id")
        if self.scope not in (SCOPE_PER_USER, SCOPE_PER_ROLE):
            raise InvalidRestriction(f"unknown scope: {self.scope!r}")
        _ensure_count(self.max_transactions, "max-transactions")
        _ensure_count(self.window_seconds, "window-seconds")
        if self.max_users is not None:
            if self.scope != SCOPE_PER_ROLE:
                raise InvalidRestriction("max-users only applies to per-role policies")
            _ensure_count(self.max_users, "max-users")
        if self.target is not None:
            ensure_token(self.target, "restriction target")


@dataclass(frozen=True)
class ColumnDef:
    """Column of a migrated table schema.  Type is a closed enum."""

    name: str
    type: str
    nullable: bool

    TYPES = ("string", "integer", "decimal", "boolean", "datetime")

    def __post_init__(self) -> None:
        ensure_token(self.name, "column name")
        if self.type not in self.TYPES:
            raise InvalidName(f"unknown column type: {self.type!r}")


@dataclass(frozen=True)
class TableSchema:
    """Table carried through migration verbatim; never interpreted here.

    Column order is semantic and preserved exactly.
    """

    name: str
    columns: tuple[ColumnDef, ...]

    def __post_init__(self) -> None:
        ensure_token(self.name, "table name")
        seen = set()
        for col in self.columns:
            if col.name in seen:
                raise InvalidName(f"duplicate column {col.name!r} in table {self.name!r}")
            seen.add(col.name)


@dataclass(frozen=True)
class DirectoryState:
    """The authoritative RBAC database.

    Containers are never mutated in place; use the module-level transition
    functions, each of which returns a fresh state.

    Queries read derived indexes: user -> direct roles, role -> members,
    role -> role closure and role -> effective ``(resource, action)`` keys.
    Each is built on first use and cached on this instance.  Because the
    containers are never mutated, an index stays valid for the life of its
    state, and because every transition builds a new instance, no index is
    shared with, or needs invalidating in, a successor state.  There is never
    a user -> permission index: users reach permissions only through roles.
    """

    users: frozenset[str] = frozenset()
    roles: dict[str, Role] = field(default_factory=dict)
    assignments: dict[tuple[str, str], int] = field(default_factory=dict)
    sod: frozenset[tuple[str, str]] = frozenset()
    restrictions: dict[str, RestrictionPolicy] = field(default_factory=dict)
    tables: tuple[TableSchema, ...] = ()

    @staticmethod
    def empty() -> "DirectoryState":
        return DirectoryState()

    def direct_roles(self, user: str) -> frozenset[str]:
        return self._direct_roles.get(user, frozenset())

    def members_of(self, role: str) -> frozenset[str]:
        return self._members.get(role, frozenset())

    def permission_keys(self, role: str) -> frozenset[tuple[str, Action]]:
        """The role's effective ``(resource, action)`` pairs, inherited ones included."""
        return self._permission_keys[role]

    @cached_property
    def _direct_roles(self) -> dict[str, frozenset[str]]:
        held: defaultdict[str, list[str]] = defaultdict(list)
        for user, role in self.assignments:
            held[user].append(role)
        # far fewer distinct role sets exist than users: share one copy of each
        interned: dict[frozenset[str], frozenset[str]] = {}
        out = {}
        for user, roles in held.items():
            key = frozenset(roles)
            out[user] = interned.setdefault(key, key)
        return out

    @cached_property
    def _members(self) -> dict[str, frozenset[str]]:
        members: defaultdict[str, list[str]] = defaultdict(list)
        for user, role in self.assignments:
            members[role].append(user)
        return {role: frozenset(users) for role, users in members.items()}

    @cached_property
    def _closures(self) -> dict[str, frozenset[str]]:
        closures: dict[str, frozenset[str]] = {}
        for role in self.roles:
            reached: set[str] = set()
            stack = [role]
            while stack:
                current = stack.pop()
                if current in reached:
                    continue
                known = closures.get(current)
                if known is not None:
                    reached |= known
                    continue
                reached.add(current)
                stack.extend(self.roles[current].parents)
            closures[role] = frozenset(reached)
        return closures

    @cached_property
    def _permission_keys(self) -> dict[str, frozenset[tuple[str, Action]]]:
        own = {
            name: {(p.resource, p.action) for p in role.permissions}
            for name, role in self.roles.items()
        }
        return {
            role: frozenset().union(*(own[r] for r in closure))
            for role, closure in self._closures.items()
        }


@dataclass(frozen=True)
class DirectoryMetrics:
    """Directory size counters plus the role/user ratio scalability indicator.

    ``role_user_ratio`` is assignments over users, kept exact as a Fraction;
    it is None when the directory has no users.
    """

    num_users: int
    num_roles: int
    num_permissions: int
    num_assignments: int
    role_user_ratio: Optional[Fraction]

    def ratio_decimal(self) -> Optional[str]:
        if self.role_user_ratio is None:
            return None
        return str(float(self.role_user_ratio))


def sod_pair(a: str, b: str) -> tuple[str, str]:
    """Normalize an exclusive-roles pair to lexicographic order."""
    return (a, b) if a < b else (b, a)


def create_user(state: DirectoryState, name: str) -> DirectoryState:
    ensure_token(name, "user name")
    if name in state.users:
        raise DuplicateUser(name)
    return replace(state, users=state.users | {name})


def create_role(
    state: DirectoryState, name: str, parents: Iterable[str] = ()
) -> DirectoryState:
    ensure_token(name, "role name")
    parent_set = frozenset(parents)
    if name in state.roles:
        raise DuplicateRole(name)
    if name in parent_set:
        raise HierarchyCycle(f"role {name!r} cannot inherit from itself")
    for p in parent_set:
        if p not in state.roles:
            raise UnknownRole(p)
    roles = dict(state.roles)
    # Parents must already exist and nothing inherits from the new role yet,
    # so no cycle can form.
    roles[name] = Role(name=name, parents=parent_set)
    return replace(state, roles=roles)


def grant_permission(state: DirectoryState, role: str, perm: Permission) -> DirectoryState:
    if role not in state.roles:
        raise UnknownRole(role)
    existing = state.roles[role]
    if perm in existing.permissions:
        return state  # re-grant is a no-op
    roles = dict(state.roles)
    roles[role] = Role(existing.name, existing.parents, existing.permissions | {perm})
    return replace(state, roles=roles)


def assign_role(state: DirectoryState, user: str, role: str, now: int) -> DirectoryState:
    """Record a user-role membership.

    Enforces existence, uniqueness and separation of duties.  The per-role
    member cap is a restriction policy and is enforced by the caller through
    the restriction monitor before this transition is applied.
    """
    if user not in state.users:
        raise UnknownUser(user)
    if role not in state.roles:
        raise UnknownRole(role)
    if (user, role) in state.assignments:
        raise DuplicateAssignment(f"{user} already holds {role}")
    for pair in state.sod:
        if role in pair:
            other = pair[0] if pair[1] == role else pair[1]
            if (user, other) in state.assignments:
                raise SoDViolation(f"{role} conflicts with {other} held by {user}")
    assignments = dict(state.assignments)
    assignments[(user, role)] = int(now)
    return replace(state, assignments=assignments)


def revoke_role(state: DirectoryState, user: str, role: str) -> DirectoryState:
    if (user, role) not in state.assignments:
        raise UnknownAssignment(f"{user} does not hold {role}")
    assignments = dict(state.assignments)
    del assignments[(user, role)]
    return replace(state, assignments=assignments)


def add_sod_constraint(state: DirectoryState, a: str, b: str) -> DirectoryState:
    if a == b:
        raise SelfPair(a)
    for r in (a, b):
        if r not in state.roles:
            raise UnknownRole(r)
    pair = sod_pair(a, b)
    holders = state.members_of(a) & state.members_of(b)
    if holders:
        raise ExistingConflict(
            f"users already hold both {a} and {b}: {', '.join(sorted(holders))}"
        )
    return replace(state, sod=state.sod | {pair})


def add_restriction(state: DirectoryState, policy: RestrictionPolicy) -> DirectoryState:
    if policy.id in state.restrictions:
        raise DuplicateRestriction(policy.id)
    if policy.target is not None:
        if policy.scope == SCOPE_PER_USER and policy.target not in state.users:
            raise UnknownUser(policy.target)
        if policy.scope == SCOPE_PER_ROLE and policy.target not in state.roles:
            raise UnknownRole(policy.target)
    restrictions = dict(state.restrictions)
    restrictions[policy.id] = policy
    return replace(state, restrictions=restrictions)


def role_closure(state: DirectoryState, role: str) -> frozenset[str]:
    """The role plus everything it inherits from, transitively."""
    if role not in state.roles:
        raise UnknownRole(role)
    return state._closures[role]


def effective_roles(state: DirectoryState, user: str) -> frozenset[str]:
    """Transitive closure over the hierarchy of the user's direct roles."""
    if user not in state.users:
        raise UnknownUser(user)
    closures = state._closures
    return frozenset().union(*(closures[role] for role in state.direct_roles(user)))


def effective_permissions(state: DirectoryState, role: str) -> frozenset[Permission]:
    """Union of the role's own permissions and all inherited ones."""
    roles = state.roles
    return frozenset().union(*(roles[r].permissions for r in role_closure(state, role)))


def metrics(state: DirectoryState) -> DirectoryMetrics:
    num_users = len(state.users)
    num_assignments = len(state.assignments)
    num_permissions = sum(len(r.permissions) for r in state.roles.values())
    ratio = Fraction(num_assignments, num_users) if num_users else None
    return DirectoryMetrics(
        num_users=num_users,
        num_roles=len(state.roles),
        num_permissions=num_permissions,
        num_assignments=num_assignments,
        role_user_ratio=ratio,
    )


def topological_order(roles: dict[str, Role]) -> list[str]:
    """Role names, each after every role it inherits from; raises HierarchyCycle.

    The one cycle check of the package.  The walk keeps its own stack, so a
    hierarchy of any depth is checked without recursion.  The error names the
    cycle as ``a -> b -> a``.
    """
    order: list[str] = []
    done: set[str] = set()
    for root in sorted(roles):
        if root in done:
            continue
        path = {root: None}  # roles being visited, in order: each inherits from the next
        pending = [iter(sorted(roles[root].parents))]
        while pending:
            parent = next(pending[-1], None)
            if parent is None:
                pending.pop()
                name, _ = path.popitem()
                done.add(name)
                order.append(name)
            elif parent in path:
                walk = list(path)
                cycle = (*walk[walk.index(parent) :], parent)
                raise HierarchyCycle(" -> ".join(cycle), cycle)
            elif parent not in done:
                path[parent] = None
                pending.append(iter(sorted(roles[parent].parents)))
    return order
