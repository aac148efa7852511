"""HTTP API: wire grammar goldens, auth, endpoint/library equivalence."""

import http.client
import re
import socket
import socketserver
import threading
import time
from pathlib import Path
from urllib.parse import quote

import pytest

from rolegate import AccessRequest, Action, Engine
from rolegate.config import ServiceConfig
from rolegate.service import ROUTES, BindFailure, Service, parse_kv

TOKEN = "test-token"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        host="127.0.0.1",
        port=free_port(),
        data_dir=tmp_path / "data",
        api_token=TOKEN,
    )
    svc = Service(config)
    svc.start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    thread.join(timeout=5)


def call(svc, method, path, body=None, token=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
    hdrs = dict(headers or {})
    if token:
        hdrs["X-Api-Token"] = token
    payload = body.encode() if isinstance(body, str) else body
    conn.request(method, path, body=payload, headers=hdrs)
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, data


def seed_directory(svc):
    """alice holds admin (inherits employee); employee reads docs, admin writes."""
    assert call(svc, "POST", "/v1/users", "name=alice\n", TOKEN)[0] == 201
    assert call(svc, "POST", "/v1/users", "name=bob\n", TOKEN)[0] == 201
    assert (
        call(svc, "POST", "/v1/roles", "name=employee\npermission=read docs\n", TOKEN)[0]
        == 201
    )
    assert (
        call(
            svc,
            "POST",
            "/v1/roles",
            "name=admin\ninherits=employee\npermission=write docs\n",
            TOKEN,
        )[0]
        == 201
    )
    assert call(svc, "POST", "/v1/assignments", "user=alice\nrole=admin\n", TOKEN)[0] == 201
    assert call(svc, "POST", "/v1/assignments", "user=bob\nrole=employee\n", TOKEN)[0] == 201


class TestWireGrammar:
    def test_decision_permit_golden_body(self, service):
        seed_directory(service)
        status, body = call(
            service,
            "POST",
            "/v1/decision",
            "subject=alice\nresource=docs\naction=write\nrequest-id=req-1\n",
        )
        assert status == 200
        assert body == b"effect=permit\nreason=granted\nmatched-role=admin\nrequest-id=req-1\n"

    def test_decision_deny_golden_body(self, service):
        seed_directory(service)
        status, body = call(
            service,
            "POST",
            "/v1/decision",
            "subject=bob\nresource=docs\naction=write\nrequest-id=req-2\n",
        )
        assert status == 200
        assert body == b"effect=deny\nreason=no-matching-permission\nrequest-id=req-2\n"

    def test_unknown_subject_golden_body(self, service):
        status, body = call(
            service,
            "POST",
            "/v1/decision",
            "subject=ghost\nresource=docs\naction=read\nrequest-id=req-3\n",
        )
        assert status == 200
        assert body == b"effect=deny\nreason=unknown-subject\nrequest-id=req-3\n"

    def test_request_id_generated_when_absent(self, service):
        seed_directory(service)
        _, body = call(
            service, "POST", "/v1/decision", "subject=alice\nresource=docs\naction=read\n"
        )
        fields = parse_kv(body.decode())
        assert fields["effect"] == ["permit"]
        assert len(fields["request-id"][0]) == 32

    def test_context_pairs_parsed(self, service, tmp_path):
        seed_directory(service)
        # install an obligation through the engine; the wire carries the context
        from rolegate import ObligationPolicy

        service.engine.set_obligations(
            [
                ObligationPolicy(
                    id="log-it",
                    modality="must",
                    action_token="append-log",
                    applies_to=frozenset({"employee"}),
                    condition={"channel": "external"},
                )
            ]
        )
        _, body = call(
            service,
            "POST",
            "/v1/decision",
            "subject=bob\nresource=docs\naction=read\ncontext.channel=external\nrequest-id=r\n",
        )
        assert b"obligation=log-it\tmust\tappend-log\n" in body

    def test_malformed_body_is_400(self, service):
        status, body = call(service, "POST", "/v1/decision", "no equals sign here\n")
        assert status == 400
        assert body.startswith(b"error=bad-request\n")

    def test_unknown_action_is_400(self, service):
        seed_directory(service)
        status, _ = call(
            service, "POST", "/v1/decision", "subject=alice\nresource=docs\naction=fly\n"
        )
        assert status == 400

    def test_unknown_route_404(self, service):
        status, body = call(service, "GET", "/v1/nope")
        assert status == 404
        assert body.startswith(b"error=not-found\n")


def raw_exchange(svc, head: bytes, body: bytes) -> bytes:
    """Send raw request bytes, keep the socket open for writing, read to EOF."""
    with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
        sock.sendall(head + b"\r\n\r\n" + body)
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    return data


class TestContentLength:
    @pytest.mark.parametrize(
        "value",
        [b"-1", b"-100", b"abc", b"+5", b"1_0", b"\xd9\xa3", b"9" * 5000, b"99999999"],
    )
    def test_bad_length_is_400_before_reading(self, service, value):
        head = b"POST /v1/decision HTTP/1.1\r\nHost: x\r\nContent-Length: " + value
        reply = raw_exchange(service, head, b"subject=x\nresource=y\naction=read\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"error=bad-request\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1  # the unread body was not parsed as a request


class TestUnreadBody:
    @pytest.mark.parametrize(
        "head, body, status",
        [
            (b"POST /v1/users HTTP/1.1\r\nHost: x\r\nX-Api-Token: wrong\r\nContent-Length: 12",
             b"name=mallory", b"401"),
            (b"POST /v1/nope HTTP/1.1\r\nHost: x\r\nContent-Length: 12", b"name=mallory", b"404"),
            (b"POST /v1/users HTTP/1.1\r\nHost: x\r\nX-Api-Token: " + TOKEN.encode()
             + b"\r\nTransfer-Encoding: chunked", b"d\r\nname=mallory\n\r\n0\r\n\r\n", b"400"),
        ],
        ids=["wrong-token", "unknown-route", "chunked"],
    )
    def test_reply_before_body_read_does_not_desync(self, service, head, body, status):
        health = b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        reply = raw_exchange(service, head, body + health)
        end = reply.index(b"\r\n\r\n") + 4
        end += int(re.search(rb"Content-Length: (\d+)", reply[:end]).group(1))
        first, rest = reply[:end], reply[end:]
        assert first.startswith(b"HTTP/1.1 " + status + b" ")
        # the unread body never parses as a request: EOF, or the health reply
        assert rest == b"" or (rest.startswith(b"HTTP/1.1 200 ") and b"status=ready" in rest)


class TestOneWritePerReply:
    """Status line, headers and body leave in one socket write.

    A body sent in a second small write waits under Nagle's algorithm for the
    client's delayed ACK of the first, ~40 ms per keep-alive request.
    """

    @pytest.fixture
    def writes(self, monkeypatch):
        sizes = []
        original = socketserver._SocketWriter.write

        def write(self, data):
            sizes.append(len(data))
            return original(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", write)
        return sizes

    @pytest.mark.parametrize(
        "head, body, status",
        [
            (b"POST /v1/decision HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 38",
             b"subject=bob\nresource=docs\naction=read\n", b"200"),
            (b"GET /v1/export HTTP/1.1\r\nHost: x\r\nConnection: close", b"", b"200"),
            (b"GET /v1/nope HTTP/1.1\r\nHost: x\r\nConnection: close", b"", b"404"),
            (b"POST /v1/users HTTP/1.1\r\nHost: x\r\nX-Api-Token: wrong\r\nContent-Length: 12",
             b"name=mallory", b"401"),
            (b"POST /v1/decision HTTP/1.1\r\nHost: x\r\nContent-Length: -1", b"subject=x", b"400"),
        ],
        ids=["decision", "export", "not-found", "unauthorized-close", "bad-length"],
    )
    def test_every_reply_kind_is_one_write(self, service, writes, head, body, status):
        reply = raw_exchange(service, head, body)
        assert reply.startswith(b"HTTP/1.1 " + status + b" ")
        assert writes == [len(reply)]
        # the 401 and the 400 answer before reading the body, so they close
        assert (b"\r\nConnection: close\r\n" in reply) == (status in (b"401", b"400"))

    def test_http09_reply_is_the_bare_body(self, service, writes):
        reply = raw_exchange(service, b"GET /v1/health", b"")
        assert reply == b"status=ready\nmode=policy\n"
        assert writes == [len(reply)]

    def test_keepalive_decisions_do_not_wait_for_delayed_ack(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        body = b"subject=bob\nresource=docs\naction=read\n"
        try:
            start = time.perf_counter()
            for _ in range(50):
                conn.request("POST", "/v1/decision", body=body)
                resp = conn.getresponse()
                assert resp.status == 200 and resp.read().startswith(b"effect=deny\n")
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 1.0  # two writes per reply take >= 2.2 s (~44 ms each)


class TestAuth:
    def test_admin_mutation_requires_token(self, service):
        status, body = call(service, "POST", "/v1/users", "name=x\n")
        assert status == 401
        assert body.startswith(b"error=unauthorized\n")

    def test_wrong_token_rejected(self, service):
        status, _ = call(service, "POST", "/v1/users", "name=x\n", token="wrong")
        assert status == 401

    def test_decision_needs_no_token(self, service):
        status, _ = call(
            service, "POST", "/v1/decision", "subject=x\nresource=y\naction=read\n"
        )
        assert status == 200

    def test_token_wrong_missing_right(self, service):
        _, bundle = call(service, "GET", "/v1/export")
        for token, expected in (("wrong", 401), (None, 401), ("t\xe9st", 401), (TOKEN, 200)):
            status, _ = call(service, "POST", "/v1/import", bundle, token)
            assert status == expected, token

    def test_all_mutating_routes_gated(self, service):
        routes = [
            ("POST", "/v1/users", "name=x\n"),
            ("POST", "/v1/roles", "name=x\n"),
            ("POST", "/v1/grants", "role=x\naction=read\nresource=y\n"),
            ("POST", "/v1/assignments", "user=x\nrole=y\n"),
            ("DELETE", "/v1/assignments", "user=x\nrole=y\n"),
            ("POST", "/v1/sod", "role-a=x\nrole-b=y\n"),
            ("POST", "/v1/restrictions", "id=x\nscope=per-user\nmax-transactions=1\nwindow-seconds=1\n"),
            ("POST", "/v1/import", "<x/>"),
            ("POST", "/v1/snapshots", ""),
            ("POST", "/v1/snapshots/1/restore", ""),
        ]
        for method, path, body in routes:
            status, _ = call(service, method, path, body)
            assert status == 401, f"{method} {path} was not token-gated"

    def test_decisions_do_not_mutate_directory(self, service):
        seed_directory(service)
        _, before = call(service, "GET", "/v1/export")
        for _ in range(5):
            call(service, "POST", "/v1/decision", "subject=alice\nresource=docs\naction=read\n")
        _, after = call(service, "GET", "/v1/export")
        assert before == after


class TestEndpointLibraryEquivalence:
    def test_wire_decision_equals_library_decision(self, service):
        seed_directory(service)
        probes = [
            ("alice", "docs", "write"),
            ("alice", "docs", "delete"),
            ("bob", "docs", "read"),
            ("bob", "docs", "write"),
            ("ghost", "docs", "read"),
        ]
        for subject, resource, action in probes:
            _, body = call(
                service,
                "POST",
                "/v1/decision",
                f"subject={subject}\nresource={resource}\naction={action}\nrequest-id=x\n",
            )
            fields = parse_kv(body.decode())
            expected = service.engine.check_access(
                AccessRequest(subject, resource, Action(action), {}, "y")
            )
            assert fields["effect"] == [expected.effect.value]
            assert fields["reason"] == [expected.reason.value]
            assert fields.get("matched-role", [None])[0] == expected.matched_role


class TestAdminEndpoints:
    def test_role_with_inherits_and_permissions(self, service):
        seed_directory(service)
        state = service.engine.state
        assert state.roles["admin"].parents == {"employee"}
        _, body = call(service, "GET", "/v1/export")
        assert b'<inherits role="employee"/>' in body

    def test_grants_endpoint(self, service):
        seed_directory(service)
        status, _ = call(
            service, "POST", "/v1/grants", "role=employee\naction=delete\nresource=scratch\n", TOKEN
        )
        assert status == 200
        _, body = call(
            service,
            "POST",
            "/v1/decision",
            "subject=bob\nresource=scratch\naction=delete\nrequest-id=x\n",
        )
        assert parse_kv(body.decode())["effect"] == ["permit"]

    def test_revoke_via_delete(self, service):
        seed_directory(service)
        status, _ = call(service, "DELETE", "/v1/assignments", "user=bob\nrole=employee\n", TOKEN)
        assert status == 200
        _, body = call(
            service, "POST", "/v1/decision", "subject=bob\nresource=docs\naction=read\nrequest-id=x\n"
        )
        assert parse_kv(body.decode())["effect"] == ["deny"]

    def test_sod_blocks_future_assignment(self, service):
        seed_directory(service)
        call(service, "POST", "/v1/roles", "name=payer\n", TOKEN)
        call(service, "POST", "/v1/roles", "name=auditor\n", TOKEN)
        assert call(service, "POST", "/v1/sod", "role-a=payer\nrole-b=auditor\n", TOKEN)[0] == 201
        assert call(service, "POST", "/v1/assignments", "user=bob\nrole=payer\n", TOKEN)[0] == 201
        status, body = call(service, "POST", "/v1/assignments", "user=bob\nrole=auditor\n", TOKEN)
        assert status == 409
        assert body.startswith(b"error=sod-violation\n")

    def test_duplicate_user_409(self, service):
        seed_directory(service)
        status, body = call(service, "POST", "/v1/users", "name=alice\n", TOKEN)
        assert status == 409
        assert body.startswith(b"error=duplicate-user\n")

    def test_restriction_endpoint_enforced(self, service):
        seed_directory(service)
        status, _ = call(
            service,
            "POST",
            "/v1/restrictions",
            "id=lim\nscope=per-user\nmax-transactions=1\nwindow-seconds=3600\n",
            TOKEN,
        )
        assert status == 201
        first = call(
            service, "POST", "/v1/decision", "subject=alice\nresource=docs\naction=read\nrequest-id=a\n"
        )[1]
        second = call(
            service, "POST", "/v1/decision", "subject=alice\nresource=docs\naction=read\nrequest-id=b\n"
        )[1]
        assert parse_kv(first.decode())["effect"] == ["permit"]
        assert parse_kv(second.decode())["reason"] == ["quota-exceeded"]
        _, anomalies = call(service, "GET", "/v1/anomalies")
        fields = parse_kv(anomalies.decode())
        assert fields["count"] == ["1"]
        assert "\tb" in fields["event"][0] or fields["event"][0].endswith("b")


    @pytest.mark.parametrize(
        "value",
        ["9" * 5000, "9" * 4000, "9223372036854775808"],
        ids=["5000-digits", "4000-digits", "max-plus-1"],
    )
    def test_restriction_values_are_bounded(self, service, value):
        body = f"id=lim\nscope=per-user\nmax-transactions={value}\nwindow-seconds=60\n"
        status, reply = call(service, "POST", "/v1/restrictions", body, TOKEN)
        assert status == 400
        assert service.engine.state.restrictions == {}
        assert call(service, "POST", "/v1/users", "name=carol\n", TOKEN)[0] == 201


class TestRolesAtomic:
    @pytest.mark.parametrize("bad", ["permission=fly docs", "permission=read bad res"])
    def test_bad_permission_leaves_no_role(self, service, bad):
        seed_directory(service)
        status, body = call(
            service, "POST", "/v1/roles", f"name=half\npermission=read docs\n{bad}\n", TOKEN
        )
        assert status == 400
        assert "half" not in service.engine.state.roles
        assert "half" not in Engine.open(service.config.live_path).state.roles


# What int() takes beyond 1*19DIGIT: an underscore, a sign, spaces, an
# Arabic-Indic digit.
NOT_DIGITS = ["1_000", "+5", " 7 ", "\u0663"]


class TestNumberSyntax:
    @pytest.mark.parametrize("value", NOT_DIGITS)
    @pytest.mark.parametrize("field", ["max-transactions", "window-seconds", "max-users"])
    def test_restriction_field_not_digits_is_400(self, service, field, value):
        fields = {"id": "lim", "scope": "per-role", "max-transactions": "5",
                  "window-seconds": "60", "max-users": "2", field: value}
        body = "".join(f"{k}={v}\n" for k, v in fields.items())
        status, reply = call(service, "POST", "/v1/restrictions", body, TOKEN)
        assert status == 400
        assert b"error=bad-request\n" in reply
        assert service.engine.state.restrictions == {}

    @pytest.mark.parametrize("value", NOT_DIGITS + ["-5"])
    @pytest.mark.parametrize("param", ["limit", "since", "until"])
    def test_audit_parameter_not_digits_is_400(self, service, param, value):
        status, reply = call(service, "GET", f"/v1/audit?{param}={quote(value)}")
        assert status == 400
        assert b"error=bad-request\n" in reply

    def test_restore_id_not_digits_is_400(self, service):
        status, _ = call(service, "POST", f"/v1/snapshots/{quote('٣')}/restore", "", TOKEN)
        assert status == 400


class TestMonitoringEndpoints:
    def test_audit_records_and_filters(self, service):
        seed_directory(service)
        call(service, "POST", "/v1/decision", "subject=alice\nresource=docs\naction=read\nrequest-id=p1\n")
        call(service, "POST", "/v1/decision", "subject=bob\nresource=docs\naction=write\nrequest-id=d1\n")
        _, body = call(service, "GET", "/v1/audit?effect=deny")
        fields = parse_kv(body.decode())
        assert fields["count"] == ["1"]
        assert "d1" in fields["record"][0]

    def test_audit_bad_range_400(self, service):
        status, _ = call(service, "GET", "/v1/audit?since=10&until=5")
        assert status == 400

    @pytest.mark.parametrize("limit", ["0", "-1", "10001"])
    def test_audit_limit_out_of_range_400(self, service, limit):
        call(service, "POST", "/v1/decision", "subject=ghost\nresource=docs\naction=read\n")
        status, body = call(service, "GET", f"/v1/audit?limit={limit}")
        assert status == 400
        assert b"limit must be in 1..10000" in body

    def test_anomalies_drain_semantics(self, service):
        _, first = call(service, "GET", "/v1/anomalies")
        assert parse_kv(first.decode())["count"] == ["0"]

    def test_metrics_shape(self, service):
        seed_directory(service)
        _, body = call(service, "GET", "/v1/metrics")
        fields = parse_kv(body.decode())
        assert fields["num-users"] == ["2"]
        assert fields["num-roles"] == ["2"]
        assert fields["num-assignments"] == ["2"]
        assert fields["role-user-ratio"] == ["1.0"]

    def test_metrics_undefined_ratio_on_empty(self, service):
        _, body = call(service, "GET", "/v1/metrics")
        assert parse_kv(body.decode())["role-user-ratio"] == ["undefined"]

    def test_capabilities_policy_mode(self, service):
        _, body = call(service, "GET", "/v1/capabilities")
        assert body == (
            b"xml-based-migration=true\n"
            b"restricting-user-role=true\n"
            b"backup-restoration=true\n"
            b"transaction-limit=true\n"
            b"security-level=MORE\n"
        )

    def test_health(self, service):
        status, body = call(service, "GET", "/v1/health")
        assert status == 200
        assert parse_kv(body.decode())["status"] == ["ready"]


class TestFieldEscaping:
    def test_separators_in_values_cannot_forge_audit_columns(self, service):
        body = "subject=a\tb\\c\rd\nresource=docs\tx\naction=read\nrequest-id=r\t1\n"
        assert call(service, "POST", "/v1/decision", body)[0] == 200
        _, audit = call(service, "GET", "/v1/audit")
        (record,) = parse_kv(audit.decode())["record"]
        assert record.split("\t")[1:] == [
            "r\\t1", "a\\tb\\\\c\\rd", "docs\\tx", "read", "deny", "unknown-subject", "-"
        ]

    def test_tab_in_request_id_cannot_forge_anomaly_columns(self, service):
        seed_directory(service)
        limit = "id=lim\nscope=per-user\nmax-transactions=1\nwindow-seconds=3600\n"
        assert call(service, "POST", "/v1/restrictions", limit, TOKEN)[0] == 201
        for rid in ("a", "b\tforged"):
            call(service, "POST", "/v1/decision", f"subject=alice\nresource=docs\naction=read\nrequest-id={rid}\n")
        (line,) = service.config.anomaly_log.read_text().splitlines()
        assert line.split("\t")[1:] == ["lim", "alice", "2", "1", "b\\tforged"]
        _, events = call(service, "GET", "/v1/anomalies")
        assert parse_kv(events.decode())["event"] == [line]


class TestRouteTable:
    def test_protocol_doc_lists_exactly_the_routes(self):
        doc = (Path(__file__).parents[1] / "docs" / "protocol.md").read_text()
        section = doc[doc.index("## 1. HTTP wire protocol") : doc.index("## 2. ")]
        route = r"(GET|POST|DELETE) (/[^\s`?|]+)"
        headings = set(re.findall(rf"^#### {route}", section, re.M))
        admin = set(re.findall(rf"^\| {route}", section, re.M))
        reads = set(re.findall(rf"^\* `{route}", section, re.M))
        assert headings == {("POST", "/v1/decision")}
        assert headings | admin | reads == set(ROUTES)
        assert admin == {key for key, (_, admin_only) in ROUTES.items() if admin_only}


class TestMigrationEndpoints:
    def test_export_import_round_trip(self, service):
        seed_directory(service)
        _, xml = call(service, "GET", "/v1/export")
        assert xml.startswith(b'<?xml version="1.0" encoding="UTF-8"?>')
        status, _ = call(service, "POST", "/v1/import", xml, TOKEN)
        assert status == 200
        _, xml_after = call(service, "GET", "/v1/export")
        assert xml_after == xml

    def test_validate_reports_issues(self, service):
        bad = b'<migration format-version="1.0"><roles><role name="a"><inherits role="b"/></role></roles></migration>'
        status, body = call(service, "POST", "/v1/validate", bad)
        assert status == 200
        fields = parse_kv(body.decode())
        assert fields["ok"] == ["false"]
        assert any("unknown role" in issue for issue in fields["issue"])

    def test_unknown_encoding_is_malformed_xml(self, service):
        bogus = b'<?xml version="1.0" encoding="bogus"?><migration format-version="1.0"/>'
        status, body = call(service, "POST", "/v1/validate", bogus)
        assert status == 200
        fields = parse_kv(body.decode())
        assert fields["ok"] == ["false"]
        assert fields["issue"] == ["error\t/\tmalformed XML: unknown encoding: bogus"]
        status, body = call(service, "POST", "/v1/import", bogus, TOKEN)
        assert status == 422 and parse_kv(body.decode())["error"] == ["malformed-xml"]

    def test_import_invalid_is_422(self, service):
        status, body = call(service, "POST", "/v1/import", b"<junk/>", TOKEN)
        assert status == 422


class TestSnapshotEndpoints:
    def test_create_list_restore(self, service):
        seed_directory(service)
        status, body = call(service, "POST", "/v1/snapshots", "reason=wire\n", TOKEN)
        assert status == 201
        snap_id = parse_kv(body.decode())["id"][0]

        call(service, "POST", "/v1/users", "name=temp-user\n", TOKEN)
        status, body = call(service, "POST", f"/v1/snapshots/{snap_id}/restore", "", TOKEN)
        assert status == 200
        assert "temp-user" not in service.engine.state.users

        _, body = call(service, "GET", "/v1/snapshots?verify=1")
        fields = parse_kv(body.decode())
        assert fields["count"] == ["1"]
        assert fields["snapshot"][0].endswith("ok")

    def test_restore_unknown_404(self, service):
        status, body = call(service, "POST", "/v1/snapshots/99/restore", "", TOKEN)
        assert status == 404
        assert body.startswith(b"error=unknown-snapshot\n")


class TestPlainModeService:
    @pytest.fixture
    def plain(self, tmp_path):
        config = ServiceConfig(
            host="127.0.0.1",
            port=free_port(),
            data_dir=tmp_path / "plain-data",
            plain_rbac=True,
        )
        svc = Service(config)
        svc.start()
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        yield svc
        svc.shutdown()
        thread.join(timeout=5)

    def test_capabilities_plain_mode(self, plain):
        _, body = call(plain, "GET", "/v1/capabilities")
        assert body == (
            b"xml-based-migration=false\n"
            b"restricting-user-role=false\n"
            b"backup-restoration=false\n"
            b"transaction-limit=false\n"
            b"security-level=LESS\n"
        )

    def test_disabled_features_are_403(self, plain):
        assert call(plain, "GET", "/v1/export")[0] == 403
        assert call(plain, "POST", "/v1/snapshots", "")[0] == 403


class TestLifecycle:
    def test_two_instances_same_port_bind_failure(self, tmp_path, service):
        config = ServiceConfig(
            host="127.0.0.1",
            port=service.port,
            data_dir=tmp_path / "other-data",
        )
        second = Service(config)
        with pytest.raises(BindFailure):
            second.start()

    def test_state_survives_restart(self, tmp_path):
        port = free_port()

        def make():
            config = ServiceConfig(
                host="127.0.0.1", port=port, data_dir=tmp_path / "rdata", api_token=TOKEN
            )
            svc = Service(config)
            svc.start()
            thread = threading.Thread(target=svc.serve_forever, daemon=True)
            thread.start()
            return svc, thread

        svc, thread = make()
        seed_directory(svc)
        probes = [
            ("alice", "docs", "write"),
            ("bob", "docs", "write"),
            ("bob", "docs", "read"),
        ]
        before = [
            call(svc, "POST", "/v1/decision", f"subject={s}\nresource={r}\naction={a}\nrequest-id=x\n")[1]
            for s, r, a in probes
        ]
        svc.shutdown()
        thread.join(timeout=5)

        svc, thread = make()
        after = [
            call(svc, "POST", "/v1/decision", f"subject={s}\nresource={r}\naction={a}\nrequest-id=x\n")[1]
            for s, r, a in probes
        ]
        svc.shutdown()
        thread.join(timeout=5)
        assert before == after
