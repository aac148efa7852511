"""HTTP service exposing decisions, admin operations and monitoring.

The wire protocol is plain HTTP/1.1 with UTF-8 ``key=value`` line bodies so
any generic tool (curl, netcat) can drive it; the exact grammar lives in
docs/protocol.md and is pinned by golden tests.  Decision requests are open;
everything that mutates requires the shared admin token when one is
configured.

Decision traffic runs fully concurrent (one thread per connection sharing the
engine's read lock); import and restore quiesce in-flight decisions through
the engine's write lock, so no request ever sees a mixed old/new state.
"""

from __future__ import annotations

import hmac
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import Callable, Optional
from urllib.parse import parse_qs, urlparse

from .config import ServiceConfig
from .decision import AccessRequest, Decision
from .directory import Action, Permission, RbacError, RestrictionPolicy
from .engine import Engine
from .migration import ValidationReport
from .restriction import RestrictionMonitor, iso8601
from .snapshots import SnapshotStore

logger = logging.getLogger("rolegate.service")

MAX_BODY_BYTES = 10 * 1024 * 1024
TOKEN_HEADER = "X-Api-Token"


class BindFailure(RbacError):
    code = "bind-failure"


# HTTP status for each domain error code; anything unlisted is a 500.
_STATUS = {
    "invalid-name": 400,
    "invalid-restriction": 400,
    "invalid-range": 400,
    "config-error": 400,
    "feature-disabled": 403,
    "unknown-user": 404,
    "unknown-role": 404,
    "unknown-assignment": 404,
    "unknown-snapshot": 404,
    "duplicate-user": 409,
    "duplicate-role": 409,
    "duplicate-assignment": 409,
    "duplicate-restriction": 409,
    "sod-violation": 409,
    "self-pair": 409,
    "existing-conflict": 409,
    "hierarchy-cycle": 409,
    "role-capacity-exceeded": 409,
    "malformed-xml": 422,
    "unsupported-version": 422,
    "validation-failed": 422,
    "checksum-mismatch": 422,
    "storage-full": 507,
}


class WireError(Exception):
    """Protocol-level problem with a request (maps to 400)."""


def parse_kv(text: str) -> dict[str, list[str]]:
    """Parse a key=value line body; repeated keys accumulate in order."""
    out: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.rstrip("\r")
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key:
            raise WireError(f"line {lineno}: expected key=value, got {line!r}")
        out.setdefault(key, []).append(value)
    return out


def render_kv(pairs: list[tuple[str, str]]) -> bytes:
    return ("".join(f"{k}={v}\n" for k, v in pairs)).encode("utf-8")


def one(fields: dict[str, list[str]], key: str) -> str:
    values = fields.get(key)
    if not values:
        raise WireError(f"missing required field {key!r}")
    if len(values) > 1:
        raise WireError(f"field {key!r} given more than once")
    return values[0]


def maybe(fields: dict[str, list[str]], key: str) -> Optional[str]:
    values = fields.get(key)
    if values is None:
        return None
    if len(values) > 1:
        raise WireError(f"field {key!r} given more than once")
    return values[0]


def decision_pairs(decision: Decision, request_id: str) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = [
        ("effect", decision.effect.value),
        ("reason", decision.reason.value),
    ]
    if decision.matched_role is not None:
        pairs.append(("matched-role", decision.matched_role))
    for ob in decision.obligations:
        pairs.append(("obligation", f"{ob.policy_id}\t{ob.modality}\t{ob.action_token}"))
    pairs.append(("request-id", request_id))
    return pairs


def report_pairs(report: ValidationReport) -> list[tuple[str, str]]:
    pairs = [("ok", "true" if report.ok else "false")]
    for issue in report.issues:
        pairs.append(("issue", f"{issue.severity}\t{issue.locator}\t{issue.message}"))
    return pairs


def build_access_request(fields: dict[str, list[str]]) -> AccessRequest:
    subject = one(fields, "subject")
    resource = one(fields, "resource")
    action_raw = one(fields, "action")
    try:
        action = Action(action_raw)
    except ValueError:
        raise WireError(f"unknown action {action_raw!r}")
    context = {}
    for key, values in fields.items():
        if key.startswith("context."):
            context[key[len("context.") :]] = values[-1]
    request_id = maybe(fields, "request-id")
    if request_id is not None:
        return AccessRequest(subject, resource, action, context, request_id)
    return AccessRequest(subject, resource, action, context)


class _Server(ThreadingMixIn, HTTPServer):
    daemon_threads = False  # drain in-flight requests on close
    block_on_close = True
    allow_reuse_address = True


def build_engine(config: ServiceConfig, clock: Callable[[], float] = time.time) -> Engine:
    """Construct an engine over a data directory per the service config."""
    config.data_dir.mkdir(parents=True, exist_ok=True)
    monitor = RestrictionMonitor(
        anomaly_log_path=None if config.plain_rbac else str(config.anomaly_log)
    )
    store = None
    if not config.plain_rbac:
        store = SnapshotStore(config.snapshot_dir, keep_last=config.snapshot_keep_last)
    engine = Engine.open(
        config.live_path,
        monitor=monitor,
        clock=clock,
        plain_rbac=config.plain_rbac,
        snapshot_store=store,
    )
    if config.obligations and not config.plain_rbac:
        try:
            engine.set_obligations(config.obligations)
        except RbacError as exc:
            # Roles may arrive later by import; keep serving, never apply
            # policies whose roles are unknown (they cannot match anyway).
            logger.warning("obligations reference unknown roles: %s", exc)
            engine.set_obligations(config.obligations, require_known_roles=False)
    return engine


class Service:
    """Owns the engine, the HTTP server and the scheduled-snapshot thread."""

    def __init__(
        self,
        config: ServiceConfig,
        engine: Optional[Engine] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.config = config
        if engine is None:
            engine = build_engine(config, clock)
        self.engine = engine
        self._httpd: Optional[_Server] = None
        self._snapshot_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        handler = _make_handler(self)
        try:
            self._httpd = _Server((self.config.host, self.config.port), handler)
        except OSError as exc:
            raise BindFailure(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        if self.config.snapshot_interval_seconds and not self.config.plain_rbac:
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop, name="snapshot-loop", daemon=True
            )
            self._snapshot_thread.start()
        logger.info("listening on %s:%s", self.config.host, self.port)

    @property
    def port(self) -> int:
        assert self._httpd is not None
        return self._httpd.server_address[1]

    def serve_forever(self) -> None:
        assert self._httpd is not None, "call start() first"
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, flush the live state."""
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._snapshot_thread is not None:
            self._snapshot_thread.join(timeout=5)
            self._snapshot_thread = None
        self.engine.flush()

    def _snapshot_loop(self) -> None:
        interval = self.config.snapshot_interval_seconds
        while not self._stop.wait(interval):
            try:
                meta = self.engine.create_snapshot(reason="scheduled")
                logger.info("scheduled snapshot %d written", meta.id)
            except RbacError as exc:
                logger.error("scheduled snapshot failed: %s", exc)


def _make_handler(service: Service):
    engine = service.engine
    config = service.config

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "rolegate"
        timeout = 30  # idle keep-alive connections must not block shutdown drain

        def log_message(self, fmt, *args):  # route through logging, not stderr
            logger.debug("%s %s", self.address_string(), fmt % args)

        # -- plumbing -----------------------------------------------------

        def _body(self) -> bytes:
            raw = (self.headers.get("Content-Length") or "0").strip()
            # 1*DIGIT only: int() also takes "-1", "+5" or "1_0", and
            # rfile.read(-1) waits for EOF
            digits = raw.isascii() and raw.isdigit() and len(raw) < 20
            length = int(raw) if digits else -1
            if not 0 <= length <= MAX_BODY_BYTES:
                self.close_connection = True  # the unread body must not parse as a request
                raise WireError(f"invalid or too large Content-Length: {raw[:32]!r}")
            return self.rfile.read(length) if length else b""

        def _fields(self) -> dict[str, list[str]]:
            return parse_kv(self._body().decode("utf-8"))

        def _send(self, status: int, body: bytes, content_type: str = "text/plain; charset=utf-8") -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_kv(self, status: int, pairs: list[tuple[str, str]]) -> None:
            self._send(status, render_kv(pairs))

        def _fail(self, status: int, code: str, message: str) -> None:
            self._send_kv(status, [("error", code), ("message", message)])

        def _authorized(self) -> bool:
            if not config.api_token:
                return True
            given = self.headers.get(TOKEN_HEADER) or ""
            return hmac.compare_digest(given.encode(), config.api_token.encode())

        def _admin_guard(self) -> bool:
            if not self._authorized():
                self._fail(401, "unauthorized", "missing or wrong admin token")
                return False
            return True

        # -- dispatch ------------------------------------------------------

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def do_DELETE(self) -> None:
            self._dispatch("DELETE")

        def _dispatch(self, method: str) -> None:
            url = urlparse(self.path)
            query = parse_qs(url.query)
            try:
                handled = self._route(method, url.path, query)
            except (WireError, ValueError) as exc:
                self._fail(400, "bad-request", str(exc))
                return
            except RbacError as exc:
                self._fail(_STATUS.get(exc.code, 500), exc.code, str(exc))
                return
            except Exception:  # pragma: no cover - last-resort guard
                logger.exception("unhandled error for %s %s", method, self.path)
                self._fail(500, "internal-error", "unhandled server error")
                return
            if not handled:
                self._fail(404, "not-found", f"no route for {method} {url.path}")

        def _route(self, method: str, path: str, query: dict) -> bool:
            if method == "POST" and path == "/v1/decision":
                fields = self._fields()
                request = build_access_request(fields)
                decision = engine.check_access(request)
                self._send_kv(200, decision_pairs(decision, request.request_id))
                return True

            if method == "GET" and path == "/v1/health":
                mode = "plain-rbac" if engine.plain_rbac else "policy"
                self._send_kv(200, [("status", "ready"), ("mode", mode)])
                return True

            if method == "GET" and path == "/v1/capabilities":
                caps = engine.capabilities()
                self._send_kv(
                    200,
                    [
                        ("xml-based-migration", _b(caps.xml_based_migration)),
                        ("restricting-user-role", _b(caps.restricting_user_role)),
                        ("backup-restoration", _b(caps.backup_restoration)),
                        ("transaction-limit", _b(caps.transaction_limit)),
                        ("security-level", caps.security_level),
                    ],
                )
                return True

            if method == "GET" and path == "/v1/metrics":
                m = engine.metrics()
                ratio = m.ratio_decimal()
                exact = str(m.role_user_ratio) if m.role_user_ratio is not None else None
                self._send_kv(
                    200,
                    [
                        ("num-users", str(m.num_users)),
                        ("num-roles", str(m.num_roles)),
                        ("num-permissions", str(m.num_permissions)),
                        ("num-assignments", str(m.num_assignments)),
                        ("role-user-ratio", ratio if ratio is not None else "undefined"),
                        ("role-user-ratio-exact", exact if exact is not None else "undefined"),
                    ],
                )
                return True

            if method == "GET" and path == "/v1/export":
                self._send(200, engine.export_xml(), "application/xml; charset=utf-8")
                return True

            if method == "POST" and path == "/v1/validate":
                report = engine.validate_xml(self._body())
                self._send_kv(200, report_pairs(report))
                return True

            if method == "POST" and path == "/v1/import":
                if not self._admin_guard():
                    return True
                engine.import_xml(self._body())
                self._send_kv(200, [("imported", "ok")])
                return True

            if method == "GET" and path == "/v1/audit":
                records = engine.query_audit(
                    subject=_q(query, "subject"),
                    effect=_q(query, "effect"),
                    since=_qi(query, "since"),
                    until=_qi(query, "until"),
                    limit=_qi(query, "limit") or 1000,
                )
                pairs = [
                    (
                        "record",
                        "\t".join(
                            (
                                iso8601(r.at),
                                r.request_id,
                                r.subject,
                                r.resource,
                                r.action,
                                r.effect,
                                r.reason,
                                r.matched_role or "-",
                            )
                        ),
                    )
                    for r in records
                ]
                self._send_kv(200, [("count", str(len(records)))] + pairs)
                return True

            if method == "GET" and path == "/v1/anomalies":
                peek = _q(query, "peek") == "1"
                events = (
                    engine.monitor.pending_anomalies() if peek else engine.drain_anomalies()
                )
                pairs = [
                    (
                        "event",
                        "\t".join(
                            (
                                iso8601(e.at),
                                e.policy,
                                e.principal,
                                str(e.observed),
                                str(e.limit),
                                e.request_id,
                            )
                        ),
                    )
                    for e in events
                ]
                self._send_kv(200, [("count", str(len(events)))] + pairs)
                return True

            if method == "POST" and path == "/v1/users":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                name = engine.create_user(one(fields, "name"))
                self._send_kv(201, [("created", name)])
                return True

            if method == "POST" and path == "/v1/roles":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                name = one(fields, "name")
                engine.create_role(name, fields.get("inherits", []))
                for raw in fields.get("permission", []):
                    action, _, resource = raw.partition(" ")
                    engine.grant_permission(name, _permission(action, resource))
                self._send_kv(201, [("created", name)])
                return True

            if method == "POST" and path == "/v1/grants":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                role = one(fields, "role")
                perm = _permission(one(fields, "action"), one(fields, "resource"))
                engine.grant_permission(role, perm)
                self._send_kv(200, [("granted", f"{role}\t{perm.action.value}\t{perm.resource}")])
                return True

            if method == "POST" and path == "/v1/assignments":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                assignment = engine.assign_role(one(fields, "user"), one(fields, "role"))
                self._send_kv(
                    201,
                    [
                        ("assigned", f"{assignment.user}\t{assignment.role}"),
                        ("assigned-at", str(assignment.assigned_at)),
                    ],
                )
                return True

            if method == "DELETE" and path == "/v1/assignments":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                user, role = one(fields, "user"), one(fields, "role")
                engine.revoke_role(user, role)
                self._send_kv(200, [("revoked", f"{user}\t{role}")])
                return True

            if method == "POST" and path == "/v1/sod":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                a, b = one(fields, "role-a"), one(fields, "role-b")
                engine.add_sod_constraint(a, b)
                self._send_kv(201, [("exclusive", f"{min(a, b)}\t{max(a, b)}")])
                return True

            if method == "POST" and path == "/v1/restrictions":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                policy = RestrictionPolicy(
                    id=one(fields, "id"),
                    scope=one(fields, "scope"),
                    max_transactions=_int(one(fields, "max-transactions"), "max-transactions"),
                    window_seconds=_int(one(fields, "window-seconds"), "window-seconds"),
                    target=maybe(fields, "target"),
                    max_users=(
                        _int(maybe(fields, "max-users"), "max-users")
                        if maybe(fields, "max-users") is not None
                        else None
                    ),
                )
                engine.add_restriction(policy)
                self._send_kv(201, [("created", policy.id)])
                return True

            if method == "POST" and path == "/v1/snapshots":
                if not self._admin_guard():
                    return True
                fields = self._fields()
                reason = maybe(fields, "reason") or "manual"
                meta = engine.create_snapshot(reason=reason)
                self._send_kv(
                    201,
                    [
                        ("id", str(meta.id)),
                        ("created-at", iso8601(meta.created_at)),
                        ("checksum", meta.checksum),
                        ("size", str(meta.size_bytes)),
                    ],
                )
                return True

            if method == "GET" and path == "/v1/snapshots":
                verify = _q(query, "verify") == "1"
                entries = engine.list_snapshots(verify=verify)
                pairs = []
                for e in entries:
                    status = "-" if e.verified is None else ("ok" if e.verified else "corrupt")
                    pairs.append(
                        (
                            "snapshot",
                            "\t".join(
                                (
                                    str(e.id),
                                    iso8601(e.created_at),
                                    e.checksum,
                                    str(e.size_bytes),
                                    status,
                                )
                            ),
                        )
                    )
                self._send_kv(200, [("count", str(len(entries)))] + pairs)
                return True

            if method == "POST" and path.startswith("/v1/snapshots/") and path.endswith("/restore"):
                if not self._admin_guard():
                    return True
                raw_id = path[len("/v1/snapshots/") : -len("/restore")]
                if not raw_id.isdigit():
                    raise WireError(f"snapshot id must be an integer, got {raw_id!r}")
                meta = engine.restore_snapshot(int(raw_id))
                self._send_kv(200, [("restored", str(meta.id)), ("checksum", meta.checksum)])
                return True

            return False

    return Handler


def _b(value: bool) -> str:
    return "true" if value else "false"


def _q(query: dict, key: str) -> Optional[str]:
    values = query.get(key)
    return values[-1] if values else None


def _qi(query: dict, key: str) -> Optional[int]:
    raw = _q(query, key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise WireError(f"query parameter {key!r} must be an integer")


def _int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise WireError(f"{what} must be an integer, got {raw!r}")


def _permission(action: str, resource: str) -> Permission:
    try:
        return Permission(resource, Action(action))
    except ValueError:
        raise WireError(f"unknown action {action!r}")
