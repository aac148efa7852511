"""HTTP service exposing decisions, admin operations and monitoring.

The wire protocol is plain HTTP/1.1 with UTF-8 ``key=value`` line bodies so
any generic tool (curl, netcat) can drive it; the exact grammar lives in
docs/protocol.md and is pinned by golden tests.

``ROUTES`` maps ``(method, path)`` to ``(handler, admin_only)`` and is the
one list of endpoints.  Handlers are plain functions ``(engine, request) ->
(status, body)``.  One dispatcher answers unknown routes with 404, checks the
shared admin token on every mutating route when one is configured, maps
domain errors to statuses and renders the reply.  A reply sent before the
request body was read closes the connection, so that body is never parsed as
the next request.

Every reply leaves in one socket write: status line, headers and body
together (``wbufsize`` stays 0, so each write is a ``sendall``).  Sent as two
writes, the small second one would wait under Nagle's algorithm for the
client to ACK the first, and the client delays that ACK by ~40 ms, so each
keep-alive request would take ~44 ms instead of ~1 ms.

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
from urllib.parse import parse_qsl, urlparse

from .config import ServiceConfig
from .decision import AccessRequest, Decision
from .directory import (
    Action,
    DirectoryMetrics,
    Permission,
    RbacError,
    RestrictionPolicy,
    parse_digits,
)
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
    value = maybe(fields, key)
    if value is None:
        raise WireError(f"missing required field {key!r}")
    return value


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
    return [("ok", _b(report.ok))] + [("issue", issue.line()) for issue in report.issues]


def metrics_pairs(m: DirectoryMetrics) -> list[tuple[str, str]]:
    ratio = m.ratio_decimal()
    exact = m.role_user_ratio
    return [
        ("num-users", str(m.num_users)),
        ("num-roles", str(m.num_roles)),
        ("num-permissions", str(m.num_permissions)),
        ("num-assignments", str(m.num_assignments)),
        ("role-user-ratio", "undefined" if ratio is None else ratio),
        ("role-user-ratio-exact", "undefined" if exact is None else str(exact)),
    ]


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
    """Construct an engine over a data directory per the service config.

    Plain RBAC mode is the engine's to enforce: it never consults the
    obligations or the anomaly log there and refuses snapshots.
    """
    config.data_dir.mkdir(parents=True, exist_ok=True)
    engine = Engine.open(
        config.live_path,
        monitor=RestrictionMonitor(anomaly_log_path=str(config.anomaly_log)),
        clock=clock,
        plain_rbac=config.plain_rbac,
        snapshot_store=SnapshotStore(config.snapshot_dir, keep_last=config.snapshot_keep_last),
    )
    if config.obligations:
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
        try:
            self._httpd = _Server((self.config.host, self.config.port), _Handler)
        except OSError as exc:
            raise BindFailure(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        self._httpd.service = self  # what _Handler serves
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


class _Handler(BaseHTTPRequestHandler):
    """One connection; also the request object that route handlers receive."""

    protocol_version = "HTTP/1.1"
    server_version = "rolegate"
    timeout = 30  # idle keep-alive connections must not block shutdown drain

    def log_message(self, fmt, *args):  # route through logging, not stderr
        logger.debug("%s %s", self.address_string(), fmt % args)

    # -- what a route handler reads ---------------------------------------

    def body(self) -> bytes:
        """The request body (read once)."""
        if "Transfer-Encoding" in self.headers:
            raise WireError("Transfer-Encoding is not supported; send Content-Length")
        raw = (self.headers.get("Content-Length") or "0").strip()
        # int() would also take "-1", "+5" or "1_0", and rfile.read(-1) waits for EOF
        length = parse_digits(raw)
        if length is None or length > MAX_BODY_BYTES:
            raise WireError(f"invalid or too large Content-Length: {raw[:32]!r}")
        self._unread = False
        return self.rfile.read(length) if length else b""

    def fields(self) -> dict[str, list[str]]:
        return parse_kv(self.body().decode("utf-8"))

    def qi(self, key: str) -> Optional[int]:
        raw = self.query.get(key)
        return None if raw is None else _int(raw, f"query parameter {key!r}")

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self) -> None:
        method = self.command
        url = urlparse(self.path)
        self.query = dict(parse_qsl(url.query))  # a repeated parameter: the last wins
        length = (self.headers.get("Content-Length") or "0").strip()
        self._unread = length != "0" or "Transfer-Encoding" in self.headers
        route, self.param = _resolve(method, url.path)
        try:
            if route is None:
                status, body = 404, _error("not-found", f"no route for {method} {url.path}")
            elif route[1] and not self._authorized():
                status, body = 401, _error("unauthorized", "missing or wrong admin token")
            else:
                status, body = route[0](self.server.service.engine, self)
        except (WireError, ValueError) as exc:
            status, body = 400, _error("bad-request", str(exc))
        except RbacError as exc:
            status, body = _STATUS.get(exc.code, 500), _error(exc.code, str(exc))
        except Exception:  # pragma: no cover - last-resort guard
            logger.exception("unhandled error for %s %s", method, self.path)
            status, body = 500, _error("internal-error", "unhandled server error")
        self._reply(status, body)

    do_GET = do_POST = do_DELETE = _dispatch

    def _authorized(self) -> bool:
        token = self.server.service.config.api_token
        if not token:
            return True
        given = self.headers.get(TOKEN_HEADER) or ""
        return hmac.compare_digest(given.encode(), token.encode())

    def _reply(self, status: int, body) -> None:
        if isinstance(body, bytes):
            content_type = "application/xml; charset=utf-8"
        else:
            body, content_type = render_kv(body), "text/plain; charset=utf-8"
        self.send_response(status)
        if self._unread:  # the unread body must not parse as the next request
            self.send_header("Connection", "close")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.request_version != "HTTP/0.9":  # an HTTP/0.9 reply is the bare body
            self._headers_buffer.extend((b"\r\n", body))
            body = b"".join(self._headers_buffer)
            self._headers_buffer = []
        self.wfile.write(body)  # the one socket write of this reply


def _resolve(method: str, path: str):
    """The route for a request and the path's ``{id}`` segment, if it has one."""
    route = ROUTES.get((method, path))
    if route is not None or path.count("/") != 4:
        return route, None
    parts = path.split("/")
    param, parts[3] = parts[3], "{id}"
    return ROUTES.get((method, "/".join(parts))), param


def _error(code: str, message: str) -> list[tuple[str, str]]:
    return [("error", code), ("message", message)]


def _listing(key: str, items) -> list[tuple[str, str]]:
    return [("count", str(len(items)))] + [(key, item.line()) for item in items]


# -- routes ----------------------------------------------------------------
#
# Each handler takes the engine and the request (``body()``, ``fields()``,
# ``query``, ``qi()``, ``param``) and returns (status, body), where body is a
# list of key=value pairs or, for the bundle export, XML bytes.  The
# dispatcher alone answers 404 and 401, maps errors to statuses and renders.


def _decision(engine: Engine, req: _Handler):
    request = build_access_request(req.fields())
    return 200, decision_pairs(engine.check_access(request), request.request_id)


def _health(engine: Engine, req: _Handler):
    return 200, [("status", "ready"), ("mode", "plain-rbac" if engine.plain_rbac else "policy")]


def _capabilities(engine: Engine, req: _Handler):
    caps = engine.capabilities()
    return 200, [(name, _b(on)) for name, on in caps.rows()] + [
        ("security-level", caps.security_level)
    ]


def _metrics(engine: Engine, req: _Handler):
    return 200, metrics_pairs(engine.metrics())


def _export(engine: Engine, req: _Handler):
    return 200, engine.export_xml()


def _validate(engine: Engine, req: _Handler):
    return 200, report_pairs(engine.validate_xml(req.body()))


def _import(engine: Engine, req: _Handler):
    engine.import_xml(req.body())
    return 200, [("imported", "ok")]


def _audit(engine: Engine, req: _Handler):
    records = engine.query_audit(
        subject=req.query.get("subject"),
        effect=req.query.get("effect"),
        since=req.qi("since"),
        until=req.qi("until"),
        # a limit that is not digits is out of range, like 0
        limit=parse_digits(req.query.get("limit", "1000")) or 0,
    )
    return 200, _listing("record", records)


def _anomalies(engine: Engine, req: _Handler):
    if req.query.get("peek") == "1":
        return 200, _listing("event", engine.monitor.pending_anomalies())
    return 200, _listing("event", engine.drain_anomalies())


def _create_user(engine: Engine, req: _Handler):
    return 201, [("created", engine.create_user(one(req.fields(), "name")))]


def _create_role(engine: Engine, req: _Handler):
    fields = req.fields()
    name = one(fields, "name")
    perms = []  # all parsed before the role exists, so a bad one leaves no role
    for raw in fields.get("permission", []):
        action, _, resource = raw.partition(" ")
        perms.append(_permission(action, resource))
    engine.create_role(name, fields.get("inherits", []))
    for perm in perms:
        engine.grant_permission(name, perm)
    return 201, [("created", name)]


def _grant(engine: Engine, req: _Handler):
    fields = req.fields()
    role = one(fields, "role")
    perm = _permission(one(fields, "action"), one(fields, "resource"))
    engine.grant_permission(role, perm)
    return 200, [("granted", f"{role}\t{perm.action.value}\t{perm.resource}")]


def _assign(engine: Engine, req: _Handler):
    fields = req.fields()
    assignment = engine.assign_role(one(fields, "user"), one(fields, "role"))
    return 201, [
        ("assigned", f"{assignment.user}\t{assignment.role}"),
        ("assigned-at", str(assignment.assigned_at)),
    ]


def _revoke(engine: Engine, req: _Handler):
    fields = req.fields()
    user, role = one(fields, "user"), one(fields, "role")
    engine.revoke_role(user, role)
    return 200, [("revoked", f"{user}\t{role}")]


def _sod(engine: Engine, req: _Handler):
    fields = req.fields()
    a, b = one(fields, "role-a"), one(fields, "role-b")
    engine.add_sod_constraint(a, b)
    return 201, [("exclusive", f"{min(a, b)}\t{max(a, b)}")]


def _restrict(engine: Engine, req: _Handler):
    fields = req.fields()
    max_users = maybe(fields, "max-users")
    policy = RestrictionPolicy(
        id=one(fields, "id"),
        scope=one(fields, "scope"),
        max_transactions=_int(one(fields, "max-transactions"), "max-transactions"),
        window_seconds=_int(one(fields, "window-seconds"), "window-seconds"),
        target=maybe(fields, "target"),
        max_users=None if max_users is None else _int(max_users, "max-users"),
    )
    engine.add_restriction(policy)
    return 201, [("created", policy.id)]


def _create_snapshot(engine: Engine, req: _Handler):
    meta = engine.create_snapshot(reason=maybe(req.fields(), "reason") or "manual")
    return 201, [
        ("id", str(meta.id)),
        ("created-at", iso8601(meta.created_at)),
        ("checksum", meta.checksum),
        ("size", str(meta.size_bytes)),
    ]


def _list_snapshots(engine: Engine, req: _Handler):
    return 200, _listing("snapshot", engine.list_snapshots(verify=req.query.get("verify") == "1"))


def _restore(engine: Engine, req: _Handler):
    meta = engine.restore_snapshot(_int(req.param, "snapshot id"))
    return 200, [("restored", str(meta.id)), ("checksum", meta.checksum)]


# (method, path) -> (handler, admin_only); docs/protocol.md section 1 lists
# the same routes, and a test keeps the two equal.
ROUTES = {
    ("POST", "/v1/decision"): (_decision, False),
    ("GET", "/v1/health"): (_health, False),
    ("GET", "/v1/capabilities"): (_capabilities, False),
    ("GET", "/v1/metrics"): (_metrics, False),
    ("GET", "/v1/export"): (_export, False),
    ("POST", "/v1/validate"): (_validate, False),
    ("GET", "/v1/audit"): (_audit, False),
    ("GET", "/v1/anomalies"): (_anomalies, False),
    ("GET", "/v1/snapshots"): (_list_snapshots, False),
    ("POST", "/v1/import"): (_import, True),
    ("POST", "/v1/users"): (_create_user, True),
    ("POST", "/v1/roles"): (_create_role, True),
    ("POST", "/v1/grants"): (_grant, True),
    ("POST", "/v1/assignments"): (_assign, True),
    ("DELETE", "/v1/assignments"): (_revoke, True),
    ("POST", "/v1/sod"): (_sod, True),
    ("POST", "/v1/restrictions"): (_restrict, True),
    ("POST", "/v1/snapshots"): (_create_snapshot, True),
    ("POST", "/v1/snapshots/{id}/restore"): (_restore, True),
}


def _b(value: bool) -> str:
    return "true" if value else "false"


def _int(raw: str, what: str) -> int:
    value = parse_digits(raw)
    if value is None:
        raise WireError(f"{what} must be 1 to 19 ASCII digits, got {raw!r}")
    return value


def _permission(action: str, resource: str) -> Permission:
    try:
        return Permission(resource, Action(action))
    except ValueError:
        raise WireError(f"unknown action {action!r}")
