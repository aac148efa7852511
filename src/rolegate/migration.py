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

One reader serves validation and import, in a single streaming pass: the
bytes reach an XML pull parser a few KiB at a time and the element tree is
never held.  ``_SCHEMA`` describes every element.  As each section item (a
table, role, user, restriction or exclusive pair) ends, the structural walk
checks it against the schema, the item is condensed to a tuple of strings
and dropped from the tree; each section and the root are checked as they
end.  The semantic checks (names, references, cycles, exclusive pairs,
numeric values) and the state builder read the tuples, so an import needs
the memory of the state it builds plus the tuples, not that of the tree.
Import runs exactly the checks ``validate_bundle`` runs, refuses any bundle
whose report contains errors, and then builds the state.  Import is
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
    parse_digits,
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


def _locator(parent: str, child: ET.Element) -> str:
    key = _LOCATOR_KEY.get(child.tag)
    suffix = f"[@{key}={child.get(key, '?')!r}]" if key else ""
    return f"{parent}/{child.tag}{suffix}"


def _walk(elem: ET.Element, locator: str, report: ValidationReport) -> None:
    """Check ``elem``, then depth first every child the schema allows there."""
    allowed = _check_element(elem, locator, report)
    for child in elem:
        if child.tag in allowed:
            _walk(child, _locator(locator, child), report)


# Section -> (item tag, condenser).  The condenser keeps of an item what the
# semantic checks and the state builder read, as a tuple of strings.
_ITEMS = {
    "schema": ("table", lambda e: (  # (name, ((column, type, nullable), ...))
        e.get("name", ""),
        tuple((c.get("name", ""), c.get("type", ""), c.get("nullable", ""))
              for c in e if c.tag == "column"),
    )),
    "roles": ("role", lambda e: (  # (name, (parent, ...), ((action, resource), ...))
        e.get("name", ""),
        tuple(c.get("role", "") for c in e if c.tag == "inherits"),
        tuple((c.get("action", ""), c.get("resource", "")) for c in e if c.tag == "permission"),
    )),
    "users": ("user", lambda e: (  # (name, (role, ...))
        e.get("name", ""),
        tuple(c.get("role", "") for c in e if c.tag == "member-of"),
    )),
    "restrictions": ("restriction", lambda e: (  # target and max-users may be None
        e.get("id", ""), e.get("scope", ""), e.get("max-transactions", ""),
        e.get("window-seconds", ""), e.get("target"), e.get("max-users"),
    )),
    "sod": ("exclusive", lambda e: (e.get("role-a", ""), e.get("role-b", ""))),
}

# Bytes handed to the XML parser at a time.  A chunk's elements, attribute
# dicts and events (~470 tracked objects per 4 KiB of a typical bundle) then
# die before the cyclic GC's youngest generation (700 objects) is collected.
# With 64 KiB chunks they outlived two collections, and a 100k-user import
# beside another large directory ran 18 full collections instead of none.
_CHUNK = 4 * 1024


def _events(xml: bytes):
    """The parser's (event, element) pairs, one list per chunk of ``xml``.

    MalformedXml for a parse error and for an unknown or unsupported encoding.
    """
    parser = ET.XMLPullParser(("start", "end"))
    try:
        at, size = 0, _CHUNK
        while at < len(xml):
            parser.feed(xml[at : at + size])
            at += size
            events = list(parser.read_events())
            # Expat scans a token cut by the end of a chunk again on each feed;
            # doubling the chunk while no element completes keeps a token much
            # longer than a chunk linear in its length, not quadratic.
            size = size * 2 if not events else _CHUNK
            yield events
        parser.close()
        yield list(parser.read_events())
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise MalformedXml(str(exc)) from exc


def _read(xml: bytes) -> tuple[ET.Element, dict[str, list[tuple]], ValidationReport]:
    """One streaming pass: the root, the condensed items by tag, and the report.

    The report lists what a depth-first walk of the whole tree finds: the
    root's check, then each section in turn (its own check, then its items'),
    then the semantic checks; a wrong root is reported alone.  An item leaves
    the tree once condensed, and every other element below the root is
    cleared once read, so the tree is never held.
    """
    report = ValidationReport()  # the root's issues, then the rest
    sections = ValidationReport()  # the issues of the sections read so far
    walked = ValidationReport()  # the issues of the open section's items
    items: dict[str, list[tuple]] = {tag: [] for tag, _ in _ITEMS.values()}
    seen: set[str] = set()
    root = section = None  # the root, and the open section
    loc = ""  # the open section's locator
    item = condense = None  # the open section's item tag and condenser, if it is checked
    kept = 0  # the open section's children still in it: all but its items
    depth = 0
    for events in _events(xml):
        for event, elem in events:
            if event == "start":
                depth += 1
                if depth == 1:
                    root = elem
                elif depth == 2:
                    section, kept = elem, 0
                    if root.tag == "migration":
                        loc = f"/migration/{elem.tag}"
                        if elem.tag in seen:
                            sections.error(loc, f"duplicate section <{elem.tag}>")
                        elif elem.tag in _ITEMS:
                            item, condense = _ITEMS[elem.tag]
                        else:
                            sections.error(loc, f"unknown element <{elem.tag}>")
                        seen.add(elem.tag)
                continue
            depth -= 1
            if depth == 2:
                if elem.tag == item:
                    _walk(elem, _locator(loc, elem), walked)
                    items[item].append(condense(elem))
                    # Every child before it was an item, now deleted, or is
                    # kept, so it sits at index ``kept``.  Its siblings after
                    # it may already be parsed.
                    del section[kept]
                else:  # the section's check reads only its tag
                    elem.clear()
                    kept += 1
            elif depth == 1:
                if item is not None:
                    _check_element(elem, loc, sections)
                    sections.issues += walked.issues
                    walked = ValidationReport()
                    item = condense = None
                elem.clear()
    if root.tag != "migration":
        report.error("/", f"root element must be <migration>, got <{root.tag}>")
        return root, items, report
    _check_element(root, "/migration", report)
    report.issues += sections.issues
    _check_semantics(root.get("format-version", ""), items, report)
    return root, items, report


def _check_count(report: ValidationReport, loc: str, attr: str, raw: str) -> None:
    """A restriction count: ``parse_digits`` syntax, value in 1..MAX_RESTRICTION_VALUE."""
    if not (raw.isascii() and raw.isdigit() and raw.strip("0")):
        report.error(loc, f"{attr} must be a positive integer, got {raw!r}")
    elif (value := parse_digits(raw)) is None or value > MAX_RESTRICTION_VALUE:
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


def _check_semantics(version: str, items: dict[str, list[tuple]], report: ValidationReport) -> None:
    if version != FORMAT_VERSION:
        report.error(
            "/migration",
            f"unsupported format-version {version!r} (expected {FORMAT_VERSION!r})",
        )

    table_names: set[str] = set()
    for name, columns in items["table"]:
        loc = f"/migration/schema/table[@name={name!r}]"
        _check_key(report, loc, "table", "name", name, table_names)
        col_names: set[str] = set()
        for col_name, col_type, nullable in columns:
            cloc = f"{loc}/column[@name={col_name!r}]"
            _check_key(report, cloc, "column", "name", col_name, col_names)
            if col_type not in ColumnDef.TYPES:
                report.error(cloc, f"unknown column type {col_type!r}")
            if nullable not in ("true", "false"):
                report.error(cloc, f"nullable must be 'true' or 'false', got {nullable!r}")

    roles = items["role"]
    role_names: set[str] = set()
    for name, _, _ in roles:
        loc = f"/migration/roles/role[@name={name!r}]"
        _check_key(report, loc, "role", "name", name, role_names)

    for name, parents, perms in roles:
        loc = f"/migration/roles/role[@name={name!r}]"
        seen_parents: set[str] = set()
        for parent in parents:
            ploc = f"{loc}/inherits[@role={parent!r}]"
            if parent not in role_names:
                report.error(ploc, f"unknown role {parent!r}")
            if parent in seen_parents:
                report.error(ploc, f"duplicate inherits {parent!r}")
            seen_parents.add(parent)
        seen_perms: set[tuple[str, str]] = set()
        for action, resource in perms:
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

    graph = {  # a repeated role name: the last wins
        name: Role(name, frozenset(p for p in parents if p in role_names))
        for name, parents, _ in roles
    }
    try:
        topological_order(graph)
    except HierarchyCycle as exc:
        report.error(f"/migration/roles/role[@name={exc.path[0]!r}]", f"hierarchy cycle: {exc}")

    user_names: set[str] = set()
    memberships: dict[str, tuple[str, ...]] = {}  # a repeated user name: the last wins
    for name, held in items["user"]:
        loc = f"/migration/users/user[@name={name!r}]"
        _check_key(report, loc, "user", "name", name, user_names)
        memberships[name] = held
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
    for rid, scope, max_transactions, window_seconds, target, max_users in items["restriction"]:
        loc = f"/migration/restrictions/restriction[@id={rid!r}]"
        _check_key(report, loc, "restriction", "id", rid, restriction_ids)
        if scope not in (SCOPE_PER_USER, SCOPE_PER_ROLE):
            report.error(loc, f"unknown scope {scope!r}")
        _check_count(report, loc, "max-transactions", max_transactions)
        _check_count(report, loc, "window-seconds", window_seconds)
        if max_users is not None:
            if scope == SCOPE_PER_USER:
                report.error(loc, "max-users is not allowed on per-user policies")
            _check_count(report, loc, "max-users", max_users)
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
    for a, b in items["exclusive"]:
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


def validate_bundle(xml: bytes) -> ValidationReport:
    """Full validation; every finding goes in the report, nothing raises."""
    try:
        return _read(xml)[2]
    except MalformedXml as exc:
        report = ValidationReport()
        report.error("/", f"malformed XML: {exc}")
        return report


def import_bundle(xml: bytes, now: int = 0) -> DirectoryState:
    """Build a full directory state from a validated bundle.

    Memberships become fresh assignments stamped with ``now``.  Raises
    MalformedXml / UnsupportedVersion / ValidationFailed, the last carrying
    exactly the report ``validate_bundle`` gives; on any of them the caller's
    current state is untouched (nothing is applied until the whole bundle has
    been read).
    """
    root, items, report = _read(xml)
    if root.tag == "migration":
        version = root.get("format-version")
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"format-version {version!r}")
    if not report.ok:
        raise ValidationFailed(report)

    stamp = int(now)
    restrictions = {
        rid: RestrictionPolicy(
            rid, scope, int(max_tx), int(window), target, None if cap is None else int(cap)
        )
        for rid, scope, max_tx, window, target, cap in items["restriction"]
    }
    tables = (
        TableSchema(name, tuple(ColumnDef(c, t, nullable=n == "true") for c, t, n in columns))
        for name, columns in items["table"]
    )
    return DirectoryState(
        users=frozenset(name for name, _ in items["user"]),
        roles={
            name: Role(
                name, frozenset(parents), frozenset(Permission(r, Action(a)) for a, r in perms)
            )
            for name, parents, perms in items["role"]
        },
        assignments={(user, role): stamp for user, held in items["user"] for role in held},
        sod=frozenset(sod_pair(a, b) for a, b in items["exclusive"]),
        restrictions=restrictions,
        tables=tuple(sorted(tables, key=lambda t: t.name)),
    )
