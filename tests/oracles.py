"""Independent reference implementations used to check the engine.

Everything here is deliberately written in a different style from the package
(naive fixpoint loops, scalar replay) so that a bug in the engine cannot hide
in a shared helper.
"""

from __future__ import annotations

import random
import string
import xml.etree.ElementTree as ET
from collections import defaultdict

from rolegate import directory as d
from rolegate.migration import _LOCATOR_KEY, _SCHEMA, FORMAT_VERSION, Issue, ValidationReport


class FakeClock:
    def __init__(self, t: float = 1_000_000.0) -> None:
        self.t = float(t)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt

    def set(self, t: float) -> None:
        self.t = float(t)


def role_fixpoint(state: d.DirectoryState, seed_roles) -> set[str]:
    """Expand a role set along inheritance edges until nothing changes."""
    result = set(seed_roles)
    changed = True
    while changed:
        changed = False
        for role in list(result):
            for parent in state.roles[role].parents:
                if parent not in result:
                    result.add(parent)
                    changed = True
    return result


def user_closure_oracle(state: d.DirectoryState, user: str) -> set[str]:
    direct = {r for (u, r) in state.assignments if u == user}
    return role_fixpoint(state, direct)


def permission_closure_oracle(state: d.DirectoryState, role: str) -> set:
    perms = set()
    for r in role_fixpoint(state, {role}):
        perms |= set(state.roles[r].permissions)
    return perms


def decision_oracle(
    state: d.DirectoryState, subject: str, resource: str, action: str
) -> tuple[str, set[str]]:
    """Brute-force verdict: enumerate every (role, permission) pair in the closure.

    Returns (effect, set of granting roles).  Ignores obligations and quotas,
    matching the randomized-suite setup where neither is configured.
    """
    if subject not in state.users:
        return "deny", set()
    granting = set()
    for rho in user_closure_oracle(state, subject):
        for perm in permission_closure_oracle(state, rho):
            if perm.resource == resource and perm.action.value == action:
                granting.add(rho)
    return ("permit" if granting else "deny"), granting


class WindowModel:
    """Scalar replay of one fixed-window counter, anchored at first admit."""

    def __init__(self, limit: int, window: int, skew_tolerance: int = 2) -> None:
        self.limit = limit
        self.window = window
        self.skew_tolerance = skew_tolerance
        self.start: int | None = None
        self.count = 0

    def attempt(self, now: int) -> bool:
        if self.start is not None and now < self.start:
            behind = self.start - now
            if behind > self.skew_tolerance:
                raise ValueError("clock skew")
            now = self.start
        if self.start is None or now - self.start >= self.window:
            # a fresh window anchors at this (admitted) transaction
            self.start = now
            self.count = 1
            return True
        if self.count + 1 > self.limit:
            return False
        self.count += 1
        return True


_RESOURCES = ["docs", "ledger", "mail", "wiki", "billing", "reports"]
_ACTIONS = [d.Action.READ, d.Action.WRITE, d.Action.DELETE]


def random_directory(
    rng: random.Random,
    max_users: int = 10,
    max_roles: int = 8,
    max_perms: int = 20,
    with_sod: bool = False,
    with_extras: bool = False,
) -> d.DirectoryState:
    """Build a random valid directory through the public transition functions.

    Roles are created in order with parents drawn from earlier roles, so the
    hierarchy is a DAG by construction.
    """
    state = d.DirectoryState.empty()

    n_roles = rng.randint(0, max_roles)
    role_names = [f"role{string.ascii_lowercase[i]}" for i in range(n_roles)]
    for i, name in enumerate(role_names):
        pool = role_names[:i]
        parents = rng.sample(pool, k=rng.randint(0, min(2, len(pool))))
        state = d.create_role(state, name, parents)

    for _ in range(rng.randint(0, max_perms)):
        if not role_names:
            break
        role = rng.choice(role_names)
        perm = d.Permission(rng.choice(_RESOURCES), rng.choice(_ACTIONS))
        state = d.grant_permission(state, role, perm)

    n_users = rng.randint(0, max_users)
    user_names = [f"user{i}" for i in range(n_users)]
    for name in user_names:
        state = d.create_user(state, name)

    if with_sod and len(role_names) >= 2:
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(role_names, 2)
            try:
                state = d.add_sod_constraint(state, a, b)
            except d.RbacError:
                pass

    for user in user_names:
        for role in role_names:
            if rng.random() < 0.3:
                try:
                    state = d.assign_role(state, user, role, now=rng.randint(1, 10**6))
                except d.RbacError:
                    pass  # SoD or duplicate; skip and keep the state valid

    if with_extras:
        for i in range(rng.randint(0, 3)):
            scope = rng.choice([d.SCOPE_PER_USER, d.SCOPE_PER_ROLE])
            if scope == d.SCOPE_PER_USER:
                target = rng.choice(user_names) if user_names and rng.random() < 0.5 else None
                max_users_cap = None
            else:
                target = rng.choice(role_names) if role_names and rng.random() < 0.5 else None
                max_users_cap = rng.choice([None, rng.randint(1, 5)])
            try:
                state = d.add_restriction(
                    state,
                    d.RestrictionPolicy(
                        id=f"pol{i}",
                        scope=scope,
                        max_transactions=rng.randint(1, 50),
                        window_seconds=rng.randint(1, 3600),
                        target=target,
                        max_users=max_users_cap,
                    ),
                )
            except d.RbacError:
                pass
        tables = []
        for i in range(rng.randint(0, 3)):
            cols = tuple(
                d.ColumnDef(
                    name=f"col{j}",
                    type=rng.choice(d.ColumnDef.TYPES),
                    nullable=rng.random() < 0.5,
                )
                for j in range(rng.randint(1, 4))
            )
            tables.append(d.TableSchema(name=f"table{i}", columns=cols))
        if tables:
            state = d.DirectoryState(
                users=state.users,
                roles=state.roles,
                assignments=state.assignments,
                sod=state.sod,
                restrictions=state.restrictions,
                tables=tuple(sorted(tables, key=lambda t: t.name)),
            )
    return state


def random_request(rng: random.Random, state: d.DirectoryState) -> tuple[str, str, str]:
    """A (subject, resource, action) probe, mixing known and unknown values."""
    subjects = sorted(state.users) + ["ghost"]
    return (
        rng.choice(subjects),
        rng.choice(_RESOURCES + ["nothing"]),
        rng.choice(_ACTIONS).value,
    )


# -- the bundle report, read from the whole element tree -----------------------
#
# The tree reader the streaming bundle reader replaced, kept as it was: parse
# the whole document, then walk it.  ``bundle_report_oracle`` must give the
# issues ``validate_bundle`` gives, in the same order.


def _check_element(elem: ET.Element, locator: str, report: ValidationReport) -> set[str]:
    required, optional, children = _SCHEMA[elem.tag]
    for attr in sorted(elem.attrib):
        if attr not in required and attr not in optional:
            report.error(locator, f"unknown attribute {attr!r} on <{elem.tag}>")
    for attr in sorted(required):
        if attr not in elem.attrib:
            report.error(locator, f"missing attribute {attr!r} on <{elem.tag}>")
    if elem.text and elem.text.strip():
        report.error(locator, f"unexpected text content in <{elem.tag}>")
    for child in elem:
        if child.tag not in children:
            report.error(locator, f"unexpected element <{child.tag}> inside <{elem.tag}>")
    return children


def _walk(elem: ET.Element, locator: str, report: ValidationReport) -> None:
    allowed = _check_element(elem, locator, report)
    for child in elem:
        if child.tag in allowed:
            key = _LOCATOR_KEY.get(child.tag)
            suffix = f"[@{key}={child.get(key, '?')!r}]" if key else ""
            _walk(child, f"{locator}/{child.tag}{suffix}", report)


def _items(sections: dict[str, ET.Element], section: str, tag: str) -> list[ET.Element]:
    elem = sections.get(section)
    return [] if elem is None else elem.findall(tag)


def _check_count(report: ValidationReport, loc: str, attr: str, raw: str) -> None:
    if not (raw.isascii() and raw.isdigit() and raw.strip("0")):
        report.error(loc, f"{attr} must be a positive integer, got {raw!r}")
    elif len(raw) > len(str(d.MAX_RESTRICTION_VALUE)) or int(raw) > d.MAX_RESTRICTION_VALUE:
        report.error(
            loc, f"{attr} must be at most {d.MAX_RESTRICTION_VALUE}, got {len(raw)} digits"
        )


def _check_key(report, loc, kind, label, value, seen) -> None:
    if not d.is_token(value):
        report.error(loc, f"invalid {kind} {label} {value!r}")
    elif value in seen:
        report.error(loc, f"duplicate {kind} {value!r}")
    seen.add(value)


def _check_semantics(root, sections, report: ValidationReport) -> None:
    version = root.get("format-version", "")
    if version != FORMAT_VERSION:
        report.error(
            "/migration",
            f"unsupported format-version {version!r} (expected {FORMAT_VERSION!r})",
        )

    table_names: set[str] = set()
    for table in _items(sections, "schema", "table"):
        name = table.get("name", "")
        loc = f"/migration/schema/table[@name={name!r}]"
        _check_key(report, loc, "table", "name", name, table_names)
        col_names: set[str] = set()
        for col in table.findall("column"):
            col_name = col.get("name", "")
            cloc = f"{loc}/column[@name={col_name!r}]"
            _check_key(report, cloc, "column", "name", col_name, col_names)
            col_type = col.get("type", "")
            if col_type not in d.ColumnDef.TYPES:
                report.error(cloc, f"unknown column type {col_type!r}")
            nullable = col.get("nullable", "")
            if nullable not in ("true", "false"):
                report.error(cloc, f"nullable must be 'true' or 'false', got {nullable!r}")

    roles = _items(sections, "roles", "role")
    role_names: set[str] = set()
    for role in roles:
        name = role.get("name", "")
        loc = f"/migration/roles/role[@name={name!r}]"
        _check_key(report, loc, "role", "name", name, role_names)

    parents_of: dict[str, list[str]] = {}
    for role in roles:
        name = role.get("name", "")
        loc = f"/migration/roles/role[@name={name!r}]"
        parents = parents_of[name] = [p.get("role", "") for p in role.findall("inherits")]
        seen_parents: set[str] = set()
        for parent in parents:
            ploc = f"{loc}/inherits[@role={parent!r}]"
            if parent not in role_names:
                report.error(ploc, f"unknown role {parent!r}")
            if parent in seen_parents:
                report.error(ploc, f"duplicate inherits {parent!r}")
            seen_parents.add(parent)
        perms = role.findall("permission")
        seen_perms: set[tuple[str, str]] = set()
        for perm in perms:
            action, resource = perm.get("action", ""), perm.get("resource", "")
            perm_loc = f"{loc}/permission[@action={action!r}]"
            if action not in {a.value for a in d.Action}:
                report.error(perm_loc, f"unknown action {action!r}")
            if not d.is_resource(resource):
                report.error(perm_loc, f"invalid resource {resource!r}")
            if (action, resource) in seen_perms:
                report.error(perm_loc, f"duplicate permission ({action}, {resource})")
            seen_perms.add((action, resource))
        if not parents and not perms:
            report.warning(loc, f"role {name!r} grants nothing and inherits nothing")

    graph = {
        name: d.Role(name, frozenset(p for p in parents if p in role_names))
        for name, parents in parents_of.items()
    }
    try:
        d.topological_order(graph)
    except d.HierarchyCycle as exc:
        report.error(f"/migration/roles/role[@name={exc.path[0]!r}]", f"hierarchy cycle: {exc}")

    user_names: set[str] = set()
    memberships: dict[str, list[str]] = {}
    for user in _items(sections, "users", "user"):
        name = user.get("name", "")
        loc = f"/migration/users/user[@name={name!r}]"
        _check_key(report, loc, "user", "name", name, user_names)
        held = memberships[name] = [m.get("role", "") for m in user.findall("member-of")]
        seen: set[str] = set()
        for role in held:
            mloc = f"{loc}/member-of[@role={role!r}]"
            if role not in role_names:
                report.error(mloc, f"unknown role {role!r}")
            if role in seen:
                report.error(mloc, f"duplicate membership {role!r}")
            seen.add(role)
        if not held:
            report.warning(loc, f"user {name!r} has no memberships")

    restriction_ids: set[str] = set()
    for r in _items(sections, "restrictions", "restriction"):
        rid = r.get("id", "")
        loc = f"/migration/restrictions/restriction[@id={rid!r}]"
        _check_key(report, loc, "restriction", "id", rid, restriction_ids)
        scope = r.get("scope", "")
        if scope not in (d.SCOPE_PER_USER, d.SCOPE_PER_ROLE):
            report.error(loc, f"unknown scope {scope!r}")
        for attr in ("max-transactions", "window-seconds"):
            _check_count(report, loc, attr, r.get(attr, ""))
        max_users = r.get("max-users")
        if max_users is not None:
            if scope == d.SCOPE_PER_USER:
                report.error(loc, "max-users is not allowed on per-user policies")
            _check_count(report, loc, "max-users", max_users)
        target = r.get("target")
        if target is not None:
            if scope == d.SCOPE_PER_USER and target not in user_names:
                report.error(loc, f"target user {target!r} not declared")
            elif scope == d.SCOPE_PER_ROLE and target not in role_names:
                report.error(loc, f"target role {target!r} not declared")

    holders: dict[str, set[str]] = defaultdict(set)
    for user, held in memberships.items():
        for role in held:
            holders[role].add(user)
    seen_pairs: set[tuple[str, str]] = set()
    for pair_elem in _items(sections, "sod", "exclusive"):
        a, b = pair_elem.get("role-a", ""), pair_elem.get("role-b", "")
        loc = f"/migration/sod/exclusive[@role-a={a!r}]"
        if a == b:
            report.error(loc, f"exclusive pair names the same role twice: {a!r}")
            continue
        missing = [r for r in (a, b) if r not in role_names]
        for r in missing:
            report.error(loc, f"unknown role {r!r}")
        if not a < b:
            report.error(loc, f"pair must be ordered role-a < role-b, got ({a!r}, {b!r})")
        pair = d.sod_pair(a, b)
        if pair in seen_pairs:
            report.error(loc, f"duplicate exclusive pair ({pair[0]!r}, {pair[1]!r})")
        seen_pairs.add(pair)
        if not missing:
            for user in sorted(holders[a] & holders[b]):
                report.error(
                    f"/migration/users/user[@name={user!r}]",
                    f"user {user!r} is member of both exclusive roles {a!r} and {b!r}",
                )


def bundle_report_oracle(xml: bytes) -> list[Issue]:
    """The issues of a bundle: parse it whole, check the root, walk the
    sections depth first, then the semantic checks."""
    report = ValidationReport()
    try:
        root = ET.fromstring(xml)
    except (ET.ParseError, LookupError, ValueError) as exc:
        report.error("/", f"malformed XML: {exc}")
        return report.issues
    if root.tag != "migration":
        report.error("/", f"root element must be <migration>, got <{root.tag}>")
        return report.issues
    known = _check_element(root, "/migration", report)
    sections: dict[str, ET.Element] = {}
    for section in root:
        loc = f"/migration/{section.tag}"
        if section.tag in sections:
            report.error(loc, f"duplicate section <{section.tag}>")
            continue
        sections[section.tag] = section
        if section.tag in known:
            _walk(section, loc, report)
        else:
            report.error(loc, f"unknown element <{section.tag}>")
    _check_semantics(root, sections, report)
    return report.issues
