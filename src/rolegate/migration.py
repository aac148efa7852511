"""XML migration bundles: export, validation and whole-state import.

A bundle carries the directory's table schemas, roles (with inheritance and
permissions), users (with memberships), restriction policies and exclusive
role pairs.  Assignment timestamps and transaction counters are never part of
a bundle: migration creates fresh assignments and clean quota windows.

Export is canonical so equal states serialize to identical bytes: UTF-8, LF
line endings, two-space indent, attributes sorted alphabetically within each
tag, set-like sibling elements sorted by their identifying attribute.  Table
columns are the one exception: their order is semantic and preserved exactly
as declared.

Import is replace-not-merge and refuses any bundle whose validation report
contains errors, so a failed import cannot leave a partially applied state.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .directory import (
    Action,
    ColumnDef,
    DirectoryState,
    HierarchyCycle,
    Permission,
    RbacError,
    RestrictionPolicy,
    Role,
    SCOPE_PER_ROLE,
    SCOPE_PER_USER,
    TableSchema,
    is_resource,
    is_token,
    sod_pair,
    topological_order,
)
from .restriction import join_fields

FORMAT_VERSION = "1.0"
BUNDLE_EXTENSION = ".rbac.xml"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


class MalformedXml(RbacError):
    code = "malformed-xml"


class UnsupportedVersion(RbacError):
    code = "unsupported-version"


class ValidationFailed(RbacError):
    code = "validation-failed"

    def __init__(self, report: "ValidationReport") -> None:
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class Issue:
    severity: str
    locator: str
    message: str

    def line(self) -> str:
        """The ``issue=`` value and the ``validate`` CLI line."""
        return join_fields(self.severity, self.locator, self.message)


@dataclass
class ValidationReport:
    issues: list[Issue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(i.severity == SEVERITY_ERROR for i in self.issues)

    def error(self, locator: str, message: str) -> None:
        self.issues.append(Issue(SEVERITY_ERROR, locator, message))

    def warning(self, locator: str, message: str) -> None:
        self.issues.append(Issue(SEVERITY_WARNING, locator, message))

    def summary(self) -> str:
        errors = sum(1 for i in self.issues if i.severity == SEVERITY_ERROR)
        warnings = len(self.issues) - errors
        return f"{errors} error(s), {warnings} warning(s)"


# Raw parse tree: values are kept as strings so the validator can report bad
# values instead of crashing on them.


@dataclass
class BundleColumn:
    name: str
    type: str
    nullable: str


@dataclass
class BundleTable:
    name: str
    columns: list[BundleColumn] = field(default_factory=list)


@dataclass
class BundleRole:
    name: str
    inherits: list[str] = field(default_factory=list)
    permissions: list[tuple[str, str]] = field(default_factory=list)  # (action, resource)


@dataclass
class BundleUser:
    name: str
    member_of: list[str] = field(default_factory=list)


@dataclass
class BundleRestriction:
    attrs: dict[str, str] = field(default_factory=dict)


@dataclass
class MigrationBundle:
    format_version: str
    tables: list[BundleTable] = field(default_factory=list)
    roles: list[BundleRole] = field(default_factory=list)
    users: list[BundleUser] = field(default_factory=list)
    restrictions: list[BundleRestriction] = field(default_factory=list)
    sod: list[tuple[str, str]] = field(default_factory=list)


# -- export ---------------------------------------------------------------


def _escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


class _Writer:
    def __init__(self) -> None:
        self.lines = ['<?xml version="1.0" encoding="UTF-8"?>']

    def tag(self, depth: int, name: str, attrs: dict[str, str], empty: bool) -> None:
        rendered = "".join(
            f' {k}="{_escape(attrs[k])}"' for k in sorted(attrs)
        )
        suffix = "/>" if empty else ">"
        self.lines.append(f"{'  ' * depth}<{name}{rendered}{suffix}")

    def close(self, depth: int, name: str) -> None:
        self.lines.append(f"{'  ' * depth}</{name}>")

    def bytes(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("utf-8")


def export_bundle(state: DirectoryState) -> bytes:
    """Serialize a directory to canonical bundle XML (deterministic bytes)."""
    w = _Writer()
    w.tag(0, "migration", {"format-version": FORMAT_VERSION}, empty=False)

    tables = sorted(state.tables, key=lambda t: t.name)
    w.tag(1, "schema", {}, empty=not tables)
    for table in tables:
        w.tag(2, "table", {"name": table.name}, empty=not table.columns)
        for col in table.columns:  # declared order, not sorted
            w.tag(
                3,
                "column",
                {
                    "name": col.name,
                    "type": col.type,
                    "nullable": "true" if col.nullable else "false",
                },
                empty=True,
            )
        if table.columns:
            w.close(2, "table")
    if tables:
        w.close(1, "schema")

    role_names = sorted(state.roles)
    w.tag(1, "roles", {}, empty=not role_names)
    for name in role_names:
        role = state.roles[name]
        has_children = bool(role.parents or role.permissions)
        w.tag(2, "role", {"name": name}, empty=not has_children)
        for parent in sorted(role.parents):
            w.tag(3, "inherits", {"role": parent}, empty=True)
        for perm in sorted(role.permissions, key=Permission.sort_key):
            w.tag(
                3,
                "permission",
                {"action": perm.action.value, "resource": perm.resource},
                empty=True,
            )
        if has_children:
            w.close(2, "role")
    if role_names:
        w.close(1, "roles")

    users = sorted(state.users)
    w.tag(1, "users", {}, empty=not users)
    for user in users:
        held = sorted(state.direct_roles(user))
        w.tag(2, "user", {"name": user}, empty=not held)
        for role in held:
            w.tag(3, "member-of", {"role": role}, empty=True)
        if held:
            w.close(2, "user")
    if users:
        w.close(1, "users")

    policies = sorted(state.restrictions.values(), key=lambda p: p.id)
    w.tag(1, "restrictions", {}, empty=not policies)
    for policy in policies:
        attrs = {
            "id": policy.id,
            "scope": policy.scope,
            "max-transactions": str(policy.max_transactions),
            "window-seconds": str(policy.window_seconds),
        }
        if policy.target is not None:
            attrs["target"] = policy.target
        if policy.max_users is not None:
            attrs["max-users"] = str(policy.max_users)
        w.tag(2, "restriction", attrs, empty=True)
    if policies:
        w.close(1, "restrictions")

    pairs = sorted(state.sod)
    w.tag(1, "sod", {}, empty=not pairs)
    for a, b in pairs:
        w.tag(2, "exclusive", {"role-a": a, "role-b": b}, empty=True)
    if pairs:
        w.close(1, "sod")

    w.close(0, "migration")
    return w.bytes()


# -- parse -------------------------------------------------------------------


_EXPECTED = {
    "migration": ({"format-version"}, {"schema", "roles", "users", "restrictions", "sod"}),
    "schema": (set(), {"table"}),
    "table": ({"name"}, {"column"}),
    "column": ({"name", "type", "nullable"}, set()),
    "roles": (set(), {"role"}),
    "role": ({"name"}, {"inherits", "permission"}),
    "inherits": ({"role"}, set()),
    "permission": ({"action", "resource"}, set()),
    "users": (set(), {"user"}),
    "user": ({"name"}, {"member-of"}),
    "member-of": ({"role"}, set()),
    "restrictions": (set(), {"restriction"}),
    "restriction": (
        {"id", "scope", "target", "max-transactions", "window-seconds", "max-users"},
        set(),
    ),
    "sod": (set(), {"exclusive"}),
    "exclusive": ({"role-a", "role-b"}, set()),
}

_REQUIRED_ATTRS = {
    "migration": {"format-version"},
    "table": {"name"},
    "column": {"name", "type", "nullable"},
    "role": {"name"},
    "inherits": {"role"},
    "permission": {"action", "resource"},
    "user": {"name"},
    "member-of": {"role"},
    "restriction": {"id", "scope", "max-transactions", "window-seconds"},
    "exclusive": {"role-a", "role-b"},
}


def _check_element(elem: ET.Element, locator: str, report: ValidationReport) -> bool:
    known = elem.tag in _EXPECTED
    if not known:
        report.error(locator, f"unknown element <{elem.tag}>")
        return False
    allowed_attrs, allowed_children = _EXPECTED[elem.tag]
    for attr in sorted(elem.attrib):
        if attr not in allowed_attrs:
            report.error(locator, f"unknown attribute {attr!r} on <{elem.tag}>")
    for attr in sorted(_REQUIRED_ATTRS.get(elem.tag, ())):
        if attr not in elem.attrib:
            report.error(locator, f"missing attribute {attr!r} on <{elem.tag}>")
    if elem.text and elem.text.strip():
        report.error(locator, f"unexpected text content in <{elem.tag}>")
    ok = True
    for child in elem:
        if child.tag not in allowed_children:
            report.error(locator, f"unexpected element <{child.tag}> inside <{elem.tag}>")
            ok = False
    return ok


def _parse_tree(root: ET.Element, report: ValidationReport) -> MigrationBundle:
    bundle = MigrationBundle(format_version=root.get("format-version", ""))
    if root.tag != "migration":
        report.error("/", f"root element must be <migration>, got <{root.tag}>")
        return bundle
    _check_element(root, "/migration", report)

    seen_sections: set[str] = set()
    for section in root:
        loc = f"/migration/{section.tag}"
        if section.tag in seen_sections:
            report.error(loc, f"duplicate section <{section.tag}>")
            continue
        seen_sections.add(section.tag)
        if section.tag == "schema":
            _check_element(section, loc, report)
            for table in section.findall("table"):
                tloc = f"{loc}/table[@name={table.get('name', '?')!r}]"
                _check_element(table, tloc, report)
                bt = BundleTable(name=table.get("name", ""))
                for col in table.findall("column"):
                    _check_element(col, f"{tloc}/column", report)
                    bt.columns.append(
                        BundleColumn(
                            name=col.get("name", ""),
                            type=col.get("type", ""),
                            nullable=col.get("nullable", ""),
                        )
                    )
                bundle.tables.append(bt)
        elif section.tag == "roles":
            _check_element(section, loc, report)
            for role in section.findall("role"):
                rloc = f"{loc}/role[@name={role.get('name', '?')!r}]"
                _check_element(role, rloc, report)
                br = BundleRole(name=role.get("name", ""))
                for child in role:
                    if child.tag == "inherits":
                        _check_element(child, f"{rloc}/inherits", report)
                        br.inherits.append(child.get("role", ""))
                    elif child.tag == "permission":
                        _check_element(child, f"{rloc}/permission", report)
                        br.permissions.append(
                            (child.get("action", ""), child.get("resource", ""))
                        )
                bundle.roles.append(br)
        elif section.tag == "users":
            _check_element(section, loc, report)
            for user in section.findall("user"):
                uloc = f"{loc}/user[@name={user.get('name', '?')!r}]"
                _check_element(user, uloc, report)
                bu = BundleUser(name=user.get("name", ""))
                for member in user.findall("member-of"):
                    _check_element(member, f"{uloc}/member-of", report)
                    bu.member_of.append(member.get("role", ""))
                bundle.users.append(bu)
        elif section.tag == "restrictions":
            _check_element(section, loc, report)
            for r in section.findall("restriction"):
                rloc = f"{loc}/restriction[@id={r.get('id', '?')!r}]"
                _check_element(r, rloc, report)
                bundle.restrictions.append(BundleRestriction(attrs=dict(r.attrib)))
        elif section.tag == "sod":
            _check_element(section, loc, report)
            for pair in section.findall("exclusive"):
                _check_element(pair, f"{loc}/exclusive", report)
                bundle.sod.append((pair.get("role-a", ""), pair.get("role-b", "")))
        else:
            report.error(loc, f"unknown element <{section.tag}>")
    return bundle


def _validate_semantics(bundle: MigrationBundle, report: ValidationReport) -> None:
    if bundle.format_version != FORMAT_VERSION:
        report.error(
            "/migration",
            f"unsupported format-version {bundle.format_version!r} "
            f"(expected {FORMAT_VERSION!r})",
        )

    token_ok = is_token

    table_names: set[str] = set()
    for table in bundle.tables:
        loc = f"/migration/schema/table[@name={table.name!r}]"
        if not token_ok(table.name):
            report.error(loc, f"invalid table name {table.name!r}")
        elif table.name in table_names:
            report.error(loc, f"duplicate table {table.name!r}")
        table_names.add(table.name)
        col_names: set[str] = set()
        for col in table.columns:
            cloc = f"{loc}/column[@name={col.name!r}]"
            if not token_ok(col.name):
                report.error(cloc, f"invalid column name {col.name!r}")
            elif col.name in col_names:
                report.error(cloc, f"duplicate column {col.name!r}")
            col_names.add(col.name)
            if col.type not in ColumnDef.TYPES:
                report.error(cloc, f"unknown column type {col.type!r}")
            if col.nullable not in ("true", "false"):
                report.error(cloc, f"nullable must be 'true' or 'false', got {col.nullable!r}")

    role_names: set[str] = set()
    for role in bundle.roles:
        loc = f"/migration/roles/role[@name={role.name!r}]"
        if not token_ok(role.name):
            report.error(loc, f"invalid role name {role.name!r}")
        elif role.name in role_names:
            report.error(loc, f"duplicate role {role.name!r}")
        role_names.add(role.name)

    for role in bundle.roles:
        loc = f"/migration/roles/role[@name={role.name!r}]"
        seen_parents: set[str] = set()
        for parent in role.inherits:
            ploc = f"{loc}/inherits[@role={parent!r}]"
            if parent not in role_names:
                report.error(ploc, f"unknown role {parent!r}")
            if parent in seen_parents:
                report.error(ploc, f"duplicate inherits {parent!r}")
            seen_parents.add(parent)
        seen_perms: set[tuple[str, str]] = set()
        for action, resource in role.permissions:
            perm_loc = f"{loc}/permission[@action={action!r}]"
            if action not in [a.value for a in Action]:
                report.error(perm_loc, f"unknown action {action!r}")
            if not is_resource(resource):
                report.error(perm_loc, f"invalid resource {resource!r}")
            if (action, resource) in seen_perms:
                report.error(perm_loc, f"duplicate permission ({action}, {resource})")
            seen_perms.add((action, resource))
        if not role.inherits and not role.permissions:
            report.warning(loc, f"role {role.name!r} grants nothing and inherits nothing")

    # Hierarchy cycle check over the declared inherits edges.
    graph = {
        r.name: Role(r.name, frozenset(p for p in r.inherits if p in role_names))
        for r in bundle.roles
    }
    try:
        topological_order(graph)
    except HierarchyCycle as exc:
        report.error(f"/migration/roles/role[@name={exc.path[0]!r}]", f"hierarchy cycle: {exc}")

    user_names: set[str] = set()
    memberships: dict[str, list[str]] = {}
    for user in bundle.users:
        loc = f"/migration/users/user[@name={user.name!r}]"
        if not token_ok(user.name):
            report.error(loc, f"invalid user name {user.name!r}")
        elif user.name in user_names:
            report.error(loc, f"duplicate user {user.name!r}")
        user_names.add(user.name)
        seen: set[str] = set()
        for role in user.member_of:
            mloc = f"{loc}/member-of[@role={role!r}]"
            if role not in role_names:
                report.error(mloc, f"unknown role {role!r}")
            if role in seen:
                report.error(mloc, f"duplicate membership {role!r}")
            seen.add(role)
        memberships[user.name] = user.member_of
        if not user.member_of:
            report.warning(loc, f"user {user.name!r} has no memberships")

    restriction_ids: set[str] = set()
    for r in bundle.restrictions:
        rid = r.attrs.get("id", "")
        loc = f"/migration/restrictions/restriction[@id={rid!r}]"
        if not token_ok(rid):
            report.error(loc, f"invalid restriction id {rid!r}")
        elif rid in restriction_ids:
            report.error(loc, f"duplicate restriction {rid!r}")
        restriction_ids.add(rid)
        scope = r.attrs.get("scope", "")
        if scope not in (SCOPE_PER_USER, SCOPE_PER_ROLE):
            report.error(loc, f"unknown scope {scope!r}")
        for attr in ("max-transactions", "window-seconds"):
            raw = r.attrs.get(attr, "")
            if not raw.isdigit() or int(raw) < 1:
                report.error(loc, f"{attr} must be a positive integer, got {raw!r}")
        max_users = r.attrs.get("max-users")
        if max_users is not None:
            if scope == SCOPE_PER_USER:
                report.error(loc, "max-users is not allowed on per-user policies")
            if not max_users.isdigit() or int(max_users) < 1:
                report.error(loc, f"max-users must be a positive integer, got {max_users!r}")
        target = r.attrs.get("target")
        if target is not None:
            if scope == SCOPE_PER_USER and target not in user_names:
                report.error(loc, f"target user {target!r} not declared")
            elif scope == SCOPE_PER_ROLE and target not in role_names:
                report.error(loc, f"target role {target!r} not declared")

    seen_pairs: set[tuple[str, str]] = set()
    for a, b in bundle.sod:
        loc = f"/migration/sod/exclusive[@role-a={a!r}]"
        if a == b:
            report.error(loc, f"exclusive pair names the same role twice: {a!r}")
            continue
        missing = [r for r in (a, b) if r not in role_names]
        for r in missing:
            report.error(loc, f"unknown role {r!r}")
        if not a < b:
            report.error(loc, f"pair must be ordered role-a < role-b, got ({a!r}, {b!r})")
        pair = sod_pair(a, b)
        if pair in seen_pairs:
            report.error(loc, f"duplicate exclusive pair ({pair[0]!r}, {pair[1]!r})")
        seen_pairs.add(pair)
        if not missing:
            for user, held in sorted(memberships.items()):
                if a in held and b in held:
                    report.error(
                        f"/migration/users/user[@name={user!r}]",
                        f"user {user!r} is member of both exclusive roles {a!r} and {b!r}",
                    )


def parse_bundle(xml: bytes) -> tuple[MigrationBundle, ValidationReport]:
    """Parse bundle bytes; syntax findings land in the report, never raised."""
    report = ValidationReport()
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        report.error("/", f"malformed XML: {exc}")
        return MigrationBundle(format_version=""), report
    return _parse_tree(root, report), report


def validate_bundle(xml: bytes) -> ValidationReport:
    """Full validation; every finding goes in the report, nothing raises."""
    bundle, report = parse_bundle(xml)
    if not any(i.severity == SEVERITY_ERROR and i.locator == "/" for i in report.issues):
        _validate_semantics(bundle, report)
    return report


def import_bundle(xml: bytes, now: int = 0) -> DirectoryState:
    """Build a full directory state from a validated bundle.

    Memberships become fresh assignments stamped with ``now``.  Raises
    MalformedXml / UnsupportedVersion / ValidationFailed; on any of them the
    caller's current state is untouched (nothing is applied until the whole
    bundle has been materialized).
    """
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc
    if root.tag == "migration":
        version = root.get("format-version")
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"format-version {version!r}")

    report = ValidationReport()
    bundle = _parse_tree(root, report)
    _validate_semantics(bundle, report)
    if not report.ok:
        raise ValidationFailed(report)

    roles: dict[str, Role] = {}
    for br in bundle.roles:
        roles[br.name] = Role(
            name=br.name,
            parents=frozenset(br.inherits),
            permissions=frozenset(
                Permission(resource, Action(action)) for action, resource in br.permissions
            ),
        )

    assignments: dict[tuple[str, str], int] = {}
    for bu in bundle.users:
        for role in bu.member_of:
            assignments[(bu.name, role)] = int(now)

    restrictions: dict[str, RestrictionPolicy] = {}
    for br_ in bundle.restrictions:
        attrs = br_.attrs
        max_users = attrs.get("max-users")
        policy = RestrictionPolicy(
            id=attrs["id"],
            scope=attrs["scope"],
            max_transactions=int(attrs["max-transactions"]),
            window_seconds=int(attrs["window-seconds"]),
            target=attrs.get("target"),
            max_users=int(max_users) if max_users is not None else None,
        )
        restrictions[policy.id] = policy

    tables = tuple(
        sorted(
            (
                TableSchema(
                    name=bt.name,
                    columns=tuple(
                        ColumnDef(name=c.name, type=c.type, nullable=c.nullable == "true")
                        for c in bt.columns
                    ),
                )
                for bt in bundle.tables
            ),
            key=lambda t: t.name,
        )
    )

    return DirectoryState(
        users=frozenset(u.name for u in bundle.users),
        roles=roles,
        assignments=assignments,
        sod=frozenset(sod_pair(a, b) for a, b in bundle.sod),
        restrictions=restrictions,
        tables=tables,
    )
