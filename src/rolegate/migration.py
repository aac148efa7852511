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

One reader serves validation and import.  ``_SCHEMA`` describes every
element; a single structural walk checks the tree against it, and the
semantic checks (names, references, cycles, exclusive pairs, numeric values)
read the parsed elements directly.  Import runs exactly the checks
``validate_bundle`` runs, refuses any bundle whose report contains errors,
and then builds the state from the same elements.  Import is
replace-not-merge, so a failed import cannot leave a partially applied state.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import dataclass, field

from .directory import (
    Action,
    ColumnDef,
    DirectoryState,
    HierarchyCycle,
    MAX_RESTRICTION_VALUE,
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


# -- read ----------------------------------------------------------------------

# The bundle format, element by element: tag -> (required attributes,
# optional attributes, allowed child elements).  The children of <migration>
# are its sections, each allowed once.
_SCHEMA: dict[str, tuple[set[str], set[str], set[str]]] = {
    "migration": ({"format-version"}, set(), {"schema", "roles", "users", "restrictions", "sod"}),
    "schema": (set(), set(), {"table"}),
    "table": ({"name"}, set(), {"column"}),
    "column": ({"name", "type", "nullable"}, set(), set()),
    "roles": (set(), set(), {"role"}),
    "role": ({"name"}, set(), {"inherits", "permission"}),
    "inherits": ({"role"}, set(), set()),
    "permission": ({"action", "resource"}, set(), set()),
    "users": (set(), set(), {"user"}),
    "user": ({"name"}, set(), {"member-of"}),
    "member-of": ({"role"}, set(), set()),
    "restrictions": (set(), set(), {"restriction"}),
    "restriction": (
        {"id", "scope", "max-transactions", "window-seconds"},
        {"target", "max-users"},
        set(),
    ),
    "sod": (set(), set(), {"exclusive"}),
    "exclusive": ({"role-a", "role-b"}, set(), set()),
}

# Elements that structural locators name by an attribute: role[@name='x'].
_LOCATOR_KEY = {"table": "name", "role": "name", "user": "name", "restriction": "id"}

_ACTIONS = frozenset(a.value for a in Action)


def _check_element(elem: ET.Element, locator: str, report: ValidationReport) -> set[str]:
    """Report what ``elem`` breaks of the schema; returns its allowed children."""
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
    """Check ``elem``, then depth first every child the schema allows there."""
    allowed = _check_element(elem, locator, report)
    for child in elem:
        if child.tag in allowed:
            key = _LOCATOR_KEY.get(child.tag)
            suffix = f"[@{key}={child.get(key, '?')!r}]" if key else ""
            _walk(child, f"{locator}/{child.tag}{suffix}", report)


def _check_bundle(root: ET.Element, report: ValidationReport) -> dict[str, ET.Element]:
    """Every check of a parsed bundle; returns the first element of each section.

    A wrong root is reported alone: nothing below it is checked.
    """
    if root.tag != "migration":
        report.error("/", f"root element must be <migration>, got <{root.tag}>")
        return {}
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
    return sections


def _items(sections: dict[str, ET.Element], section: str, tag: str) -> list[ET.Element]:
    elem = sections.get(section)
    return [] if elem is None else elem.findall(tag)


_MAX_DIGITS = len(str(MAX_RESTRICTION_VALUE))


def _check_count(report: ValidationReport, loc: str, attr: str, raw: str) -> None:
    """A restriction count: at most 19 ASCII digits, as for ``Content-Length``,
    with a value in 1..MAX_RESTRICTION_VALUE.  The length is checked before
    ``int()`` sees the string."""
    if not (raw.isascii() and raw.isdigit() and raw.strip("0")):
        report.error(loc, f"{attr} must be a positive integer, got {raw!r}")
    elif len(raw) > _MAX_DIGITS or int(raw) > MAX_RESTRICTION_VALUE:
        report.error(
            loc, f"{attr} must be at most {MAX_RESTRICTION_VALUE}, got {len(raw)} digits"
        )


def _check_key(
    report: ValidationReport, loc: str, kind: str, label: str, value: str, seen: set[str]
) -> None:
    """A name or id must be a token and unique among its kind."""
    if not is_token(value):
        report.error(loc, f"invalid {kind} {label} {value!r}")
    elif value in seen:
        report.error(loc, f"duplicate {kind} {value!r}")
    seen.add(value)


def _check_semantics(
    root: ET.Element, sections: dict[str, ET.Element], report: ValidationReport
) -> None:
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
            if col_type not in ColumnDef.TYPES:
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
            if action not in _ACTIONS:
                report.error(perm_loc, f"unknown action {action!r}")
            if not is_resource(resource):
                report.error(perm_loc, f"invalid resource {resource!r}")
            if (action, resource) in seen_perms:
                report.error(perm_loc, f"duplicate permission ({action}, {resource})")
            seen_perms.add((action, resource))
        if not parents and not perms:
            report.warning(loc, f"role {name!r} grants nothing and inherits nothing")

    graph = {
        name: Role(name, frozenset(p for p in parents if p in role_names))
        for name, parents in parents_of.items()
    }
    try:
        topological_order(graph)
    except HierarchyCycle as exc:
        report.error(f"/migration/roles/role[@name={exc.path[0]!r}]", f"hierarchy cycle: {exc}")

    user_names: set[str] = set()
    memberships: dict[str, list[str]] = {}  # a repeated user name: the last wins
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
        if scope not in (SCOPE_PER_USER, SCOPE_PER_ROLE):
            report.error(loc, f"unknown scope {scope!r}")
        for attr in ("max-transactions", "window-seconds"):
            _check_count(report, loc, attr, r.get(attr, ""))
        max_users = r.get("max-users")
        if max_users is not None:
            if scope == SCOPE_PER_USER:
                report.error(loc, "max-users is not allowed on per-user policies")
            _check_count(report, loc, "max-users", max_users)
        target = r.get("target")
        if target is not None:
            if scope == SCOPE_PER_USER and target not in user_names:
                report.error(loc, f"target user {target!r} not declared")
            elif scope == SCOPE_PER_ROLE and target not in role_names:
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
        pair = sod_pair(a, b)
        if pair in seen_pairs:
            report.error(loc, f"duplicate exclusive pair ({pair[0]!r}, {pair[1]!r})")
        seen_pairs.add(pair)
        if not missing:
            for user in sorted(holders[a] & holders[b]):
                report.error(
                    f"/migration/users/user[@name={user!r}]",
                    f"user {user!r} is member of both exclusive roles {a!r} and {b!r}",
                )


def _parse(xml: bytes) -> ET.Element:
    """The root element; MalformedXml also for an unknown or unsupported encoding."""
    try:
        return ET.fromstring(xml)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise MalformedXml(str(exc)) from exc


def validate_bundle(xml: bytes) -> ValidationReport:
    """Full validation; every finding goes in the report, nothing raises."""
    report = ValidationReport()
    try:
        root = _parse(xml)
    except MalformedXml as exc:
        report.error("/", f"malformed XML: {exc}")
        return report
    _check_bundle(root, report)
    return report


def import_bundle(xml: bytes, now: int = 0) -> DirectoryState:
    """Build a full directory state from a validated bundle.

    Memberships become fresh assignments stamped with ``now``.  Raises
    MalformedXml / UnsupportedVersion / ValidationFailed, the last carrying
    exactly the report ``validate_bundle`` gives; on any of them the caller's
    current state is untouched (nothing is applied until the whole bundle has
    been materialized).
    """
    root = _parse(xml)
    if root.tag == "migration":
        version = root.get("format-version")
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"format-version {version!r}")
    report = ValidationReport()
    sections = _check_bundle(root, report)
    if not report.ok:
        raise ValidationFailed(report)

    roles = {
        role.get("name"): Role(
            name=role.get("name"),
            parents=frozenset(p.get("role") for p in role.findall("inherits")),
            permissions=frozenset(
                Permission(p.get("resource"), Action(p.get("action")))
                for p in role.findall("permission")
            ),
        )
        for role in _items(sections, "roles", "role")
    }
    users = _items(sections, "users", "user")
    assignments = {
        (user.get("name"), m.get("role")): int(now)
        for user in users
        for m in user.findall("member-of")
    }
    restrictions = {}
    for r in _items(sections, "restrictions", "restriction"):
        max_users = r.get("max-users")
        restrictions[r.get("id")] = RestrictionPolicy(
            id=r.get("id"),
            scope=r.get("scope"),
            max_transactions=int(r.get("max-transactions")),
            window_seconds=int(r.get("window-seconds")),
            target=r.get("target"),
            max_users=int(max_users) if max_users is not None else None,
        )
    tables = sorted(
        (
            TableSchema(
                name=table.get("name"),
                columns=tuple(
                    ColumnDef(c.get("name"), c.get("type"), nullable=c.get("nullable") == "true")
                    for c in table.findall("column")
                ),
            )
            for table in _items(sections, "schema", "table")
        ),
        key=lambda t: t.name,
    )
    pairs = _items(sections, "sod", "exclusive")
    return DirectoryState(
        users=frozenset(user.get("name") for user in users),
        roles=roles,
        assignments=assignments,
        sod=frozenset(sod_pair(e.get("role-a"), e.get("role-b")) for e in pairs),
        restrictions=restrictions,
        tables=tuple(tables),
    )
