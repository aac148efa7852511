"""Bundle export canonical form, validation findings, import semantics."""

import copy
import random
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rolegate import directory as d
from rolegate.directory import Action, Permission
from rolegate.migration import _CHUNK as CHUNK  # bytes fed to the XML parser at a time
from rolegate.migration import (
    Issue,
    MalformedXml,
    UnsupportedVersion,
    ValidationFailed,
    export_bundle,
    import_bundle,
    validate_bundle,
)

from oracles import bundle_report_oracle, decision_oracle, random_directory

DATA = Path(__file__).parent / "data"


def three_role_state():
    state = d.DirectoryState.empty()
    for user in ("alice", "bob"):
        state = d.create_user(state, user)
    state = d.create_role(state, "employee")
    state = d.create_role(state, "admin", ["employee"])
    state = d.create_role(state, "auditor")
    state = d.grant_permission(state, "employee", Permission("docs", Action.READ))
    state = d.grant_permission(state, "admin", Permission("docs", Action.WRITE))
    state = d.grant_permission(state, "auditor", Permission("ledger", Action.READ))
    state = d.grant_permission(state, "auditor", Permission("docs", Action.READ))
    state = d.assign_role(state, "alice", "admin", now=11)
    state = d.assign_role(state, "bob", "auditor", now=22)
    state = d.assign_role(state, "bob", "employee", now=33)
    state = d.add_sod_constraint(state, "admin", "auditor")
    state = d.add_restriction(
        state,
        d.RestrictionPolicy(id="lim1", scope="per-user", max_transactions=10, window_seconds=60),
    )
    state = d.add_restriction(
        state,
        d.RestrictionPolicy(
            id="lim2",
            scope="per-role",
            max_transactions=100,
            window_seconds=3600,
            target="admin",
            max_users=2,
        ),
    )
    table = d.TableSchema(
        name="invoices",
        columns=(
            d.ColumnDef("id", "integer", nullable=False),
            d.ColumnDef("amount", "decimal", nullable=True),
        ),
    )
    return d.DirectoryState(
        users=state.users,
        roles=state.roles,
        assignments=state.assignments,
        sod=state.sod,
        restrictions=state.restrictions,
        tables=(table,),
    )


def same_directory(a: d.DirectoryState, b: d.DirectoryState) -> bool:
    """Semantic equality: everything except assignment timestamps."""
    return (
        a.users == b.users
        and a.roles == b.roles
        and set(a.assignments) == set(b.assignments)
        and a.sod == b.sod
        and a.restrictions == b.restrictions
        and a.tables == b.tables
    )


class TestExportCanonicalForm:
    def test_empty_state_golden(self):
        assert export_bundle(d.DirectoryState.empty()) == (DATA / "empty.rbac.xml").read_bytes()

    def test_three_role_fixture_golden(self):
        assert export_bundle(three_role_state()) == (DATA / "three_roles.rbac.xml").read_bytes()

    def test_single_role_fragment(self):
        state = d.create_role(d.DirectoryState.empty(), "employee")
        state = d.grant_permission(state, "employee", Permission("docs", Action.READ))
        xml = export_bundle(state).decode()
        assert '<role name="employee">\n      <permission action="read" resource="docs"/>\n    </role>' in xml

    def test_export_independent_of_insertion_order(self):
        one = d.DirectoryState.empty()
        for u in ("zoe", "amy", "mia"):
            one = d.create_user(one, u)
        other = d.DirectoryState.empty()
        for u in ("mia", "zoe", "amy"):
            other = d.create_user(other, u)
        assert export_bundle(one) == export_bundle(other)

    def test_attribute_escaping_round_trips(self):
        state = d.create_role(d.DirectoryState.empty(), "r")
        state = d.grant_permission(state, "r", Permission('a&b<c>"d', Action.READ))
        xml = export_bundle(state)
        assert b"&amp;" in xml and b"&lt;" in xml
        assert same_directory(import_bundle(xml), state)


def restriction_bundle(**attrs) -> bytes:
    """A bundle holding one per-role restriction ``x``; ``attrs`` override its attributes."""
    attrs = {"id": "x", "scope": "per-role", "max-transactions": "5", "window-seconds": "60", **attrs}
    rendered = "".join(f' {k}="{v}"' for k, v in sorted(attrs.items()))
    return (
        f'<migration format-version="1.0"><restrictions><restriction{rendered}/>'
        f"</restrictions></migration>"
    ).encode()


class TestValidate:
    def test_clean_bundle_ok(self):
        report = validate_bundle(export_bundle(three_role_state()))
        assert report.ok
        assert all(i.severity == "warning" for i in report.issues)

    def test_malformed_xml_in_report(self):
        report = validate_bundle(b"<migration format-version='1.0'>")
        assert not report.ok
        assert any("malformed" in i.message.lower() for i in report.issues)

    def test_unknown_parent_reference(self):
        xml = (
            b'<?xml version="1.0" encoding="UTF-8"?>\n'
            b'<migration format-version="1.0">\n'
            b'  <roles><role name="a"><inherits role="ghost"/></role></roles>\n'
            b"</migration>\n"
        )
        report = validate_bundle(xml)
        assert not report.ok
        assert any("unknown role 'ghost'" in i.message for i in report.issues)

    def test_two_node_cycle_detected_with_locator(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<roles>'
            b'<role name="a"><inherits role="b"/></role>'
            b'<role name="b"><inherits role="a"/></role>'
            b"</roles></migration>"
        )
        report = validate_bundle(xml)
        assert not report.ok
        cycle_issues = [i for i in report.issues if "hierarchy cycle" in i.message]
        assert len(cycle_issues) == 1
        assert "role[@name=" in cycle_issues[0].locator

    def test_sod_membership_conflict(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<roles><role name="auditor"/><role name="payer"/></roles>'
            b'<users><user name="eve">'
            b'<member-of role="auditor"/><member-of role="payer"/>'
            b"</user></users>"
            b'<sod><exclusive role-a="auditor" role-b="payer"/></sod>'
            b"</migration>"
        )
        report = validate_bundle(xml)
        assert not report.ok
        assert any("both exclusive roles" in i.message for i in report.issues)

    def test_duplicate_names_rejected(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<roles><role name="a"/><role name="a"/></roles>'
            b"</migration>"
        )
        report = validate_bundle(xml)
        assert any("duplicate role" in i.message for i in report.issues)

    def test_unknown_attribute_rejected(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<roles><role name="a" color="red"/></roles>'
            b"</migration>"
        )
        report = validate_bundle(xml)
        assert any("unknown attribute 'color'" in i.message for i in report.issues)

    def test_permission_inside_user_rejected(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<users><user name="eve"><permission action="read" resource="docs"/></user></users>'
            b"</migration>"
        )
        report = validate_bundle(xml)
        assert not report.ok
        assert any(
            "unexpected element <permission> inside <user>" in i.message
            for i in report.issues
        )

    def test_warnings_for_empty_role_and_memberless_user(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<roles><role name="idle"/></roles>'
            b'<users><user name="lonely"/></users>'
            b"</migration>"
        )
        report = validate_bundle(xml)
        assert report.ok
        messages = [i.message for i in report.issues]
        assert any("grants nothing" in m for m in messages)
        assert any("no memberships" in m for m in messages)

    def test_bad_restriction_values(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<restrictions>'
            b'<restriction id="x" scope="per-user" max-transactions="0" window-seconds="60" max-users="2"/>'
            b"</restrictions></migration>"
        )
        report = validate_bundle(xml)
        messages = " | ".join(i.message for i in report.issues)
        assert "max-transactions" in messages
        assert "max-users is not allowed" in messages

    @pytest.mark.parametrize("value", ["\u00b2", "\u0661"])  # superscript two, Arabic-Indic one
    @pytest.mark.parametrize("attr", ["max-transactions", "window-seconds", "max-users"])
    def test_numeric_attributes_are_ascii_digits(self, attr, value):
        xml = restriction_bundle(**{attr: value})
        report = validate_bundle(xml)
        assert Issue(
            "error",
            "/migration/restrictions/restriction[@id='x']",
            f"{attr} must be a positive integer, got {value!r}",
        ) in report.issues
        with pytest.raises(ValidationFailed) as exc:
            import_bundle(xml)
        assert exc.value.report.issues == report.issues

    @pytest.mark.parametrize(
        "value",
        ["9" * 5000, str(d.MAX_RESTRICTION_VALUE + 1), "0" * 19 + "1"],
        ids=["5000-digits", "max-plus-1", "20-digits-leading-zeros"],
    )
    @pytest.mark.parametrize("attr", ["max-transactions", "window-seconds", "max-users"])
    def test_numeric_attributes_are_bounded(self, attr, value):
        xml = restriction_bundle(**{attr: value})
        report = validate_bundle(xml)
        assert report.issues == [
            Issue(
                "error",
                "/migration/restrictions/restriction[@id='x']",
                f"{attr} must be at most {d.MAX_RESTRICTION_VALUE}, got {len(value)} digits",
            )
        ]
        with pytest.raises(ValidationFailed) as exc:
            import_bundle(xml)
        assert exc.value.report.issues == report.issues

    def test_largest_value_round_trips(self):
        top = str(d.MAX_RESTRICTION_VALUE)
        xml = restriction_bundle(**{"max-transactions": top, "window-seconds": top, "max-users": top})
        assert validate_bundle(xml).ok
        policy = import_bundle(xml).restrictions["x"]
        assert policy.max_transactions == policy.max_users == d.MAX_RESTRICTION_VALUE
        exported = export_bundle(import_bundle(xml))
        assert export_bundle(import_bundle(exported)) == exported

    def test_unordered_sod_pair_rejected(self):
        xml = (
            b'<migration format-version="1.0">'
            b'<roles><role name="a"/><role name="b"/></roles>'
            b'<sod><exclusive role-a="b" role-b="a"/></sod>'
            b"</migration>"
        )
        report = validate_bundle(xml)
        assert any("ordered role-a < role-b" in i.message for i in report.issues)

    def test_wrong_version_flagged(self):
        xml = b'<migration format-version="2.0"/>'
        report = validate_bundle(xml)
        assert any("unsupported format-version" in i.message for i in report.issues)

    def test_missing_required_attributes(self):
        xml = (
            b'<migration format-version="1.0">'
            b"<roles><role/></roles>"
            b'<restrictions><restriction id="x" scope="per-user"/></restrictions>'
            b"</migration>"
        )
        report = validate_bundle(xml)
        messages = " | ".join(i.message for i in report.issues)
        assert "missing attribute 'name' on <role>" in messages
        assert "missing attribute 'max-transactions' on <restriction>" in messages
        assert "missing attribute 'window-seconds' on <restriction>" in messages


class TestImport:
    def test_round_trip_three_roles(self):
        state = three_role_state()
        rebuilt = import_bundle(export_bundle(state), now=999)
        assert same_directory(state, rebuilt)
        assert all(t == 999 for t in rebuilt.assignments.values())

    def test_unsupported_version(self):
        with pytest.raises(UnsupportedVersion):
            import_bundle(b'<migration format-version="2.0"/>')

    def test_malformed_raises(self):
        with pytest.raises(MalformedXml):
            import_bundle(b"this is not xml")

    def test_validation_failure_carries_report(self):
        xml = b'<migration format-version="1.0"><roles><role name="a"><inherits role="x"/></role></roles></migration>'
        with pytest.raises(ValidationFailed) as exc:
            import_bundle(xml)
        assert not exc.value.report.ok

    def test_imported_state_answers_decisions(self):
        state = three_role_state()
        rebuilt = import_bundle(export_bundle(state), now=1)
        effect, granting = decision_oracle(rebuilt, "alice", "docs", "write")
        assert effect == "permit" and granting == {"admin"}
        effect, _ = decision_oracle(rebuilt, "bob", "docs", "write")
        assert effect == "deny"

    def test_import_never_succeeds_when_validator_says_no(self):
        samples = [
            b"<nope/>",
            b'<migration format-version="1.0"><sod><exclusive role-a="x" role-b="x"/></sod></migration>',
            b'<migration format-version="1.0"><users><user name="u"><member-of role="ghost"/></user></users></migration>',
        ]
        for xml in samples:
            assert not validate_bundle(xml).ok
            with pytest.raises((ValidationFailed, MalformedXml, UnsupportedVersion)):
                import_bundle(xml)


class TestEngineImport:
    def test_import_replaces_not_merges(self, engine):
        bundle = export_bundle(three_role_state())
        engine.create_user("charlie")
        engine.import_xml(bundle)
        assert "charlie" not in engine.state.users
        assert engine.state.users == {"alice", "bob"}

    def test_failed_import_leaves_state_untouched(self, engine):
        before = engine.state
        with pytest.raises(ValidationFailed):
            engine.import_xml(b'<migration format-version="1.0"><roles><role name="a"><inherits role="x"/></role></roles></migration>')
        assert engine.state is before

    def test_name_with_encoded_newline_refused(self, tmp_path):
        from rolegate import Engine

        engine = Engine(live_path=tmp_path / "live.rbak")
        engine.create_user("alice")
        xml = b'<migration format-version="1.0"><roles><role name="a&#10;"/></roles></migration>'
        assert not validate_bundle(xml).ok
        with pytest.raises(ValidationFailed):
            engine.import_xml(xml)
        assert Engine.open(tmp_path / "live.rbak").state.users == {"alice"}

    def test_import_resets_counters_keeps_audit(self, engine, clock):
        from rolegate import AccessRequest

        engine.add_restriction(
            d.RestrictionPolicy(id="lim", scope="per-user", max_transactions=5, window_seconds=60)
        )
        engine.check_access(AccessRequest("alice", "docs", "write"))
        assert engine.monitor.cut()[0] != []
        audit_before = engine.monitor.audit_size()
        engine.import_xml(export_bundle(three_role_state()))
        counters, audit, _ = engine.monitor.cut()
        assert counters == []
        assert len(audit) == audit_before


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_randomized(seed):
    rng = random.Random(seed)
    state = random_directory(rng, with_sod=True, with_extras=True)
    xml = export_bundle(state)
    rebuilt = import_bundle(xml, now=0)
    assert same_directory(state, rebuilt)
    assert export_bundle(rebuilt) == xml  # export . import . export is a fixpoint


# -- validation and import agree on hostile bundles ---------------------------

_TAGS = [
    "migration", "schema", "table", "column", "roles", "role", "inherits", "permission",
    "users", "user", "member-of", "restrictions", "restriction", "sod", "exclusive", "foo",
]
_ATTRS = [
    "format-version", "name", "type", "nullable", "role", "action", "resource", "id",
    "scope", "target", "max-transactions", "window-seconds", "max-users", "role-a",
    "role-b", "color",
]
_HOSTILE = ["", "-1", "\u00b2", "\u0661", "a b"]
_VALUES = _HOSTILE + ["1", "60", "1.0", "x", "rolea", "roleb", "user0", "per-user",
                      "per-role", "read", "docs", "integer", "true"]


def _edit(rng: random.Random, root: ET.Element) -> None:
    """Apply one random structural or value edit to the tree, in place."""
    elems = list(root.iter())
    parent = {child: p for p in elems for child in p}
    elem = rng.choice(elems)
    kind = rng.choice(
        ["drop-attr", "add-attr", "rename-attr", "drop", "add", "rename",
         "duplicate", "move", "text", "cycle", "hostile"]
    )
    if kind == "drop-attr" and elem.attrib:
        del elem.attrib[rng.choice(sorted(elem.attrib))]
    elif kind == "add-attr":
        elem.set(rng.choice(_ATTRS), rng.choice(_VALUES))
    elif kind == "rename-attr" and elem.attrib:
        value = elem.attrib.pop(rng.choice(sorted(elem.attrib)))
        elem.set(rng.choice(_ATTRS), value)
    elif kind == "drop" and elem in parent:
        parent[elem].remove(elem)
    elif kind == "add":
        elem.append(ET.Element(rng.choice(_TAGS), {rng.choice(_ATTRS): rng.choice(_VALUES)}))
    elif kind == "rename":
        elem.tag = rng.choice(_TAGS)
    elif kind == "duplicate" and elem in parent:
        siblings = parent[elem]
        siblings.insert(list(siblings).index(elem) + 1, copy.deepcopy(elem))
    elif kind == "move" and elem in parent:
        inside = set(elem.iter())
        dest = rng.choice([e for e in elems if e not in inside])
        parent[elem].remove(elem)
        dest.insert(rng.randint(0, len(dest)), elem)
    elif kind == "text":
        elem.text = rng.choice(["x", " ", "\n  "])
    elif kind == "cycle":
        roles = root.findall("roles/role")
        if roles:
            a, b = rng.choice(roles), rng.choice(roles)
            a.append(ET.Element("inherits", role=b.get("name", "")))
            b.append(ET.Element("inherits", role=a.get("name", "")))
    elif kind == "hostile" and elem.attrib:
        elem.set(rng.choice(sorted(elem.attrib)), rng.choice(_HOSTILE))


def mutated_bundle(rng: random.Random) -> bytes:
    """A random directory's export after 1-4 random tree edits."""
    state = random_directory(rng, with_sod=True, with_extras=True)
    root = ET.fromstring(export_bundle(state))
    for _ in range(rng.randint(1, 4)):
        _edit(rng, root)
    return ET.tostring(root, encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(xml=st.randoms(use_true_random=False).map(mutated_bundle))
@example(xml=b"<foo/>")
@example(xml=b'<?xml version="1.0" encoding="bogus"?><migration format-version="1.0"/>')
@example(xml=b'<?xml version="1.0" encoding="utf-32"?><migration format-version="1.0"/>')
@example(xml=b'<foo format-version="1.0"><roles/></foo>')
@example(
    xml=b'<migration format-version="1.0"><restrictions>'
    b'<restriction id="x" max-transactions="\xc2\xb2" scope="per-user" window-seconds="60"/>'
    b"</restrictions></migration>"
)
def test_validate_and_import_agree(xml):
    report = validate_bundle(xml)  # never raises
    try:
        import_bundle(xml)
    except ValidationFailed as exc:
        assert exc.report.issues == report.issues
        assert not report.ok
    except (MalformedXml, UnsupportedVersion):
        assert not report.ok
    else:
        assert report.ok


# -- the streaming reader reports what the tree reader reported -----------------

@settings(max_examples=300, deadline=None)
@given(xml=st.randoms(use_true_random=False).map(mutated_bundle))
@example(xml=b"")
@example(xml=b"<foo/>")
@example(xml=b"<foo><migration/></foo>")
@example(xml=b'<?xml version="1.0" encoding="bogus"?><migration format-version="1.0"/>')
@example(xml=b'<?xml version="1.0" encoding="utf-32"?><migration format-version="1.0"/>')
@example(xml=b'<migration format-version="1.0" color="x">t<roles/><roles/><foo/><foo/></migration>')
@example(xml=b'<migration format-version="1.0"><roles><users><user/></users></roles></migration>')
@example(xml=b'<migration format-version="1.0"><roles/></migration><junk/>')
def test_report_matches_tree_oracle(xml):
    assert validate_bundle(xml).issues == bundle_report_oracle(xml)


def large_state(rng: random.Random, n_users: int) -> d.DirectoryState:
    """A random directory plus ``n_users`` members holding up to 3 of its roles.

    Exclusive pairs are dropped: the random memberships could break them.
    """
    state = random_directory(rng, with_sod=True, with_extras=True)
    roles = sorted(state.roles)
    assignments = dict(state.assignments)
    users = set(state.users)
    for i in range(n_users):
        user = f"member{i:05d}"
        users.add(user)
        for role in rng.sample(roles, k=min(len(roles), rng.randint(0, 3))):
            assignments[(user, role)] = 0
    return d.DirectoryState(
        users=frozenset(users),
        roles=state.roles,
        assignments=assignments,
        sod=frozenset(),
        restrictions=state.restrictions,
        tables=state.tables,
    )


def large_mutated_bundle(rng: random.Random) -> bytes:
    """A bundle more than a chunk long after 0-4 random tree edits."""
    root = ET.fromstring(export_bundle(large_state(rng, rng.randint(2_500, 5_000))))
    for _ in range(rng.randint(0, 4)):
        _edit(rng, root)
    return ET.tostring(root, encoding="utf-8")


def utf16(xml: bytes) -> bytes:
    text = xml.decode("utf-8")
    if text.startswith("<?xml"):
        text = text.split("?>", 1)[1]
    return ('<?xml version="1.0" encoding="UTF-16"?>' + text).encode("utf-16")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_large_bundle_report_matches_tree_oracle(seed, wide):
    xml = large_mutated_bundle(random.Random(seed))
    if wide:
        xml = utf16(xml)
    assert len(xml) > 64 * 1024
    assert validate_bundle(xml).issues == bundle_report_oracle(xml)


def test_utf16_bundle_imports():
    state = large_state(random.Random(7), 2_000)
    xml = utf16(export_bundle(state))
    assert len(xml) > 64 * 1024
    assert validate_bundle(xml).issues == bundle_report_oracle(xml)
    assert same_directory(import_bundle(xml), state)


def test_unexpected_children_among_items_across_chunks():
    root = ET.fromstring(export_bundle(large_state(random.Random(11), 4_000)))
    users = root.find("users")
    for k in range(len(users), 0, -97):  # every 97th child, back to front
        users.insert(k, ET.Element("foo", name=f"f{k}"))
    users.insert(0, ET.Element("role", name="early"))
    users.append(ET.Element("member-of", role="late"))
    xml = ET.tostring(root, encoding="utf-8")
    assert len(xml) > 64 * 1024
    issues = validate_bundle(xml).issues
    assert issues == bundle_report_oracle(xml)
    assert len([i for i in issues if "unexpected element" in i.message]) > 40


def straddling_bundle(value: str, attr: str, shift: int) -> bytes:
    """A bundle whose ``value`` (a resource or a user name) starts ``shift``
    bytes before the end of a chunk past the first 64 KiB.  Small roles pad
    it there, so that no chunk goes without an element end."""
    head = (
        b'<migration format-version="1.0"><roles>'
        b'<role name="r"><permission action="read" resource="docs"/></role>'
    )
    if attr == "resource":
        body, tail = b'<role name="s"><permission action="read" resource="', b'"/></role></roles>'
    else:
        body, tail = b'</roles><users><user name="', b'"><member-of role="r"/></user></users>'
    target = (64 * 1024 // CHUNK + 1) * CHUNK - shift
    parts, size = [head], len(head) + len(body)
    while size + 64 < target:
        parts.append(b'<role name="p%05d"><inherits role="r"/></role>' % len(parts))
        size += len(parts[-1])
    parts.append(b" " * (target - size))
    xml = b"".join(parts) + body + value.encode() + tail + b"</migration>"
    assert xml.index(value.encode()) == target
    return xml


@pytest.mark.parametrize("shift", range(1, 10))
@pytest.mark.parametrize("attr", ["resource", "user"])
def test_multibyte_character_across_a_chunk_boundary(attr, shift):
    value = "\u20ac\u00e9\U0001f512"  # 3, 2 and 4 bytes in UTF-8
    xml = straddling_bundle(value, attr, shift)
    report = validate_bundle(xml)
    assert report.issues == bundle_report_oracle(xml)
    if attr == "resource":
        assert report.ok
        perms = import_bundle(xml).roles["s"].permissions
        assert perms == {Permission(value, Action.READ)}
    else:
        assert f"invalid user name {value!r}" in [i.message for i in report.issues]


def test_token_longer_than_a_chunk_is_fed_in_growing_chunks(monkeypatch):
    # Expat rescans a token cut by the end of a chunk on every feed, so
    # fixed chunks would cost time quadratic in the token's length.
    fed = []

    class Counting(ET.XMLPullParser):
        def feed(self, data):
            fed.append(len(data))
            super().feed(data)

    monkeypatch.setattr(ET, "XMLPullParser", Counting)
    name = "n" * (4 << 20)
    xml = f'<migration format-version="1.0"><roles><role name="{name}"/></roles></migration>'
    report = validate_bundle(xml.encode())
    assert report.issues == bundle_report_oracle(xml.encode())
    assert sum(fed) >= len(xml) and len(fed) <= 16  # not len(xml) / CHUNK feeds


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_truncated_bundle_reports_only_malformed(seed, wide):
    rng = random.Random(seed)
    root = ET.fromstring(export_bundle(large_state(rng, 3_000)))
    root.set("color", "red")  # structural errors before the cut
    root.insert(0, ET.Element("foo"))
    root.insert(0, ET.Element("foo"))
    xml = ET.tostring(root, encoding="utf-8")
    if wide:
        xml = utf16(xml)
    xml = xml[: rng.randint(CHUNK + 1, len(xml) - 1)]
    issues = validate_bundle(xml).issues
    assert issues == bundle_report_oracle(xml)
    assert len(issues) == 1 and issues[0].message.startswith("malformed XML: ")
    with pytest.raises(MalformedXml):
        import_bundle(xml)


def scale_bundle(n_users: int) -> bytes:
    """50 roles in chains of 5 with one permission each; 3 roles per user."""
    lines = ['<migration format-version="1.0">', "<roles>"]
    for r in range(50):
        parent = f'<inherits role="role{r - 1:02d}"/>' if r % 5 else ""
        lines.append(
            f'<role name="role{r:02d}">{parent}'
            f'<permission action="read" resource="res{r:02d}"/></role>'
        )
    lines += ["</roles>", "<users>"]
    for u in range(n_users):
        held = "".join(f'<member-of role="role{(u + 17 * k) % 50:02d}"/>' for k in range(3))
        lines.append(f'<user name="user{u:06d}">{held}</user>')
    lines += ["</users>", "</migration>"]
    return "\n".join(lines).encode()


def test_import_peak_memory_is_bounded_by_the_state():
    xml = scale_bundle(20_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = import_bundle(xml)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.users) == 20_000 and len(state.assignments) == 60_000
    assert peak - base <= 2 * (retained - base), (peak - base, retained - base)
