"""Admin command line: thin wrappers over the engine, file-based like sqlite.

One-shot subcommands load the live state file under --data-dir, apply the
operation and write it back.  Do not point the CLI at a data directory a
running service is using; drive the HTTP API instead.

Exit codes: 0 success (and permits), 1 domain error or deny, 2 usage error.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import Optional

from .config import ConfigError, ServiceConfig, load_config
from .decision import AccessRequest
from .directory import Action, Permission, RbacError, RestrictionPolicy, parse_digits
from .engine import Engine
from .migration import ValidationReport
from .restriction import iso8601
from .service import Service, build_engine, metrics_pairs

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _load(args) -> ServiceConfig:
    overrides = {
        "data_dir": Path(args.data_dir) if args.data_dir else None,
        "plain_rbac": True if args.plain_rbac else None,
        # serve's flags; the other subcommands do not define them
        "listen": getattr(args, "listen", None),
        "api_token": getattr(args, "api_token", None),
        "snapshot_interval_seconds": getattr(args, "snapshot_interval", None),
    }
    return load_config(Path(args.config) if args.config else None, **overrides)


def _print_report(report: ValidationReport, stream) -> None:
    print(f"ok={'true' if report.ok else 'false'}", file=stream)
    for issue in report.issues:
        print(issue.line(), file=stream)


def _digits(raw: str) -> int:
    """The type of every number option: ``parse_digits`` or a usage error."""
    value = parse_digits(raw)
    if value is None:
        raise argparse.ArgumentTypeError(f"must be 1 to 19 ASCII digits, got {raw!r}")
    return value


def _context_pairs(raw: list[str]) -> dict[str, str]:
    context = {}
    for item in raw:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise RbacError(f"context must be key=value, got {item!r}")
        context[key] = value
    return context


def cmd_serve(args) -> int:
    import logging

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s %(message)s"
    )
    config = _load(args)
    service = Service(config)
    service.start()
    stop = threading.Event()

    def handle_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    worker = threading.Thread(target=service.serve_forever, daemon=True)
    worker.start()
    print(f"serving on {config.host}:{service.port}", flush=True)
    stop.wait()
    service.shutdown()
    return EXIT_OK


def cmd_check(engine: Engine, args, explain: bool = False) -> int:
    request = AccessRequest(
        subject=args.user,
        resource=args.resource,
        action=Action(args.action),
        context=_context_pairs(args.context or []),
    )
    if explain:
        decision, trace = engine.explain(request)
        for step in trace:
            print(f"{step.phase}\t{step.item}\t{step.outcome}")
    else:
        decision = engine.check_access(request)
        engine.flush()  # decisions move counters and audit; persist them
    for ob in decision.obligations:
        print(f"obligation {ob.policy_id} {ob.modality} {ob.action_token}")
    if decision.effect.value == "permit":
        print(f"PERMIT role={decision.matched_role}")
        return EXIT_OK
    print(f"DENY reason={decision.reason.value}")
    return EXIT_DOMAIN


def cmd_user_add(engine: Engine, args) -> int:
    engine.create_user(args.name)
    print(f"created user {args.name}")
    return EXIT_OK


def cmd_role_add(engine: Engine, args) -> int:
    engine.create_role(args.name, args.inherits or [])
    print(f"created role {args.name}")
    return EXIT_OK


def cmd_grant(engine: Engine, args) -> int:
    engine.grant_permission(args.role, Permission(args.resource, Action(args.action)))
    print(f"granted ({args.resource}, {args.action}) to {args.role}")
    return EXIT_OK


def cmd_assign(engine: Engine, args) -> int:
    assignment = engine.assign_role(args.user, args.role)
    print(f"assigned {args.user} to {args.role} at {assignment.assigned_at}")
    return EXIT_OK


def cmd_revoke(engine: Engine, args) -> int:
    engine.revoke_role(args.user, args.role)
    print(f"revoked {args.role} from {args.user}")
    return EXIT_OK


def cmd_sod_add(engine: Engine, args) -> int:
    engine.add_sod_constraint(args.role_a, args.role_b)
    print(f"added exclusive pair ({args.role_a}, {args.role_b})")
    return EXIT_OK


def cmd_restrict_add(engine: Engine, args) -> int:
    policy = RestrictionPolicy(
        id=args.id,
        scope=args.scope,
        max_transactions=args.max_transactions,
        window_seconds=args.window_seconds,
        target=args.target,
        max_users=args.max_users,
    )
    engine.add_restriction(policy)
    print(f"added restriction {args.id}")
    return EXIT_OK


def cmd_export(engine: Engine, args) -> int:
    xml = engine.export_xml()
    if args.file:
        Path(args.file).write_bytes(xml)
        print(f"exported to {args.file}")
    else:
        sys.stdout.buffer.write(xml)
    return EXIT_OK


def cmd_import(engine: Engine, args) -> int:
    engine.import_xml(Path(args.file).read_bytes())
    print(f"imported {args.file}")
    return EXIT_OK


def cmd_validate(engine: Engine, args) -> int:
    report = engine.validate_xml(Path(args.file).read_bytes())
    _print_report(report, sys.stdout)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_snapshot_create(engine: Engine, args) -> int:
    meta = engine.create_snapshot(reason=args.reason or "manual")
    print(f"snapshot {meta.id} created at {iso8601(meta.created_at)} checksum {meta.checksum}")
    return EXIT_OK


def cmd_snapshot_list(engine: Engine, args) -> int:
    verify = bool(args.verify or getattr(args, "verify_global", False))
    for entry in engine.list_snapshots(verify=verify):
        print(entry.line())
    return EXIT_OK


def cmd_snapshot_restore(engine: Engine, args) -> int:
    if args.id == "latest":
        snapshot_id = engine.snapshot_store.latest_id()
        if snapshot_id is None:
            raise RbacError("no snapshots in catalog")
    elif (snapshot_id := parse_digits(args.id)) is None:
        raise RbacError(f"snapshot id must be 1 to 19 ASCII digits or 'latest', got {args.id!r}")
    meta = engine.restore_snapshot(snapshot_id)
    print(f"restored snapshot {meta.id}")
    return EXIT_OK


def cmd_audit(engine: Engine, args) -> int:
    records = engine.query_audit(
        subject=args.subject,
        effect=args.effect,
        since=args.since,
        until=args.until,
        limit=args.limit,
    )
    for record in records:
        print(record.line())
    return EXIT_OK


def cmd_anomalies(engine: Engine, args) -> int:
    events = engine.drain_anomalies()
    engine.flush()  # the drain is consumed state; persist it
    for event in events:
        print(event.line())
    return EXIT_OK


def cmd_metrics(engine: Engine, args) -> int:
    for key, value in metrics_pairs(engine.metrics()):
        print(f"{key}={value}")
    return EXIT_OK


def cmd_capabilities(engine: Engine, args) -> int:
    caps = engine.capabilities()
    for name, enabled in caps.rows():
        print(f"{name:<24}{'yes' if enabled else 'no'}")
    print(f"{'security-level':<24}{caps.security_level}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolegate",
        description="Role-based access control engine with policy extensions",
    )
    parser.add_argument("--data-dir", help="engine data directory")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--plain-rbac",
        action="store_true",
        help="compatibility mode: disable migration, restrictions, obligations and backup",
    )
    parser.add_argument(
        "--verify", action="store_true", dest="verify_global",
        help="re-verify snapshot checksums where applicable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the HTTP service")
    p.add_argument("--listen", help="host:port (default 127.0.0.1:8640)")
    p.add_argument("--api-token", help="shared secret for admin endpoints")
    p.add_argument("--snapshot-interval", type=int, help="seconds between scheduled snapshots")
    p.set_defaults(func=cmd_serve)

    for name, is_explain in (("check", False), ("explain", True)):
        p = sub.add_parser(name, help="evaluate an access request")
        p.add_argument("--user", required=True)
        p.add_argument("--resource", required=True)
        p.add_argument("--action", required=True, choices=[a.value for a in Action])
        p.add_argument("--context", action="append", metavar="KEY=VALUE")
        p.set_defaults(func=lambda eng, a, e=is_explain: cmd_check(eng, a, explain=e))

    p = sub.add_parser("user", help="user administration")
    usub = p.add_subparsers(dest="subcommand", required=True)
    pa = usub.add_parser("add")
    pa.add_argument("name")
    pa.set_defaults(func=cmd_user_add)

    p = sub.add_parser("role", help="role administration")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    pa = rsub.add_parser("add")
    pa.add_argument("name")
    pa.add_argument("--inherits", action="append", metavar="ROLE")
    pa.set_defaults(func=cmd_role_add)

    p = sub.add_parser("grant", help="grant a permission to a role")
    p.add_argument("--role", required=True)
    p.add_argument("--action", required=True, choices=[a.value for a in Action])
    p.add_argument("--resource", required=True)
    p.set_defaults(func=cmd_grant)

    p = sub.add_parser("assign", help="assign a role to a user")
    p.add_argument("--user", required=True)
    p.add_argument("--role", required=True)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("revoke", help="revoke a role from a user")
    p.add_argument("--user", required=True)
    p.add_argument("--role", required=True)
    p.set_defaults(func=cmd_revoke)

    p = sub.add_parser("sod", help="separation-of-duty constraints")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pa = ssub.add_parser("add")
    pa.add_argument("role_a")
    pa.add_argument("role_b")
    pa.set_defaults(func=cmd_sod_add)

    p = sub.add_parser("restrict", help="restriction policies")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    pa = rsub.add_parser("add")
    pa.add_argument("--id", required=True)
    pa.add_argument("--scope", required=True, choices=["per-user", "per-role"])
    pa.add_argument("--target")
    pa.add_argument("--max-transactions", required=True, type=_digits)
    pa.add_argument("--window-seconds", required=True, type=_digits)
    pa.add_argument("--max-users", type=_digits)
    pa.set_defaults(func=cmd_restrict_add)

    p = sub.add_parser("export", help="write the migration bundle XML")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="replace state from a migration bundle")
    p.add_argument("file")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("validate", help="validate a migration bundle")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("snapshot", help="backup and restore")
    snsub = p.add_subparsers(dest="subcommand", required=True)
    pa = snsub.add_parser("create")
    pa.add_argument("--reason")
    pa.set_defaults(func=cmd_snapshot_create)
    pa = snsub.add_parser("list")
    pa.add_argument("--verify", action="store_true")
    pa.set_defaults(func=cmd_snapshot_list)
    pa = snsub.add_parser("restore")
    pa.add_argument("id", help="snapshot id or 'latest'")
    pa.set_defaults(func=cmd_snapshot_restore)

    p = sub.add_parser("audit", help="query the audit log")
    p.add_argument("--subject")
    p.add_argument("--effect", choices=["permit", "deny"])
    p.add_argument("--since", type=_digits)
    p.add_argument("--until", type=_digits)
    p.add_argument("--limit", type=_digits, default=1000)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("anomalies", help="drain pending anomaly events")
    p.set_defaults(func=cmd_anomalies)

    p = sub.add_parser("metrics", help="directory counts and role/user ratio")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("capabilities", help="feature matrix of this engine")
    p.set_defaults(func=cmd_capabilities)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_serve:
            return cmd_serve(args)
        return args.func(build_engine(_load(args)), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RbacError as exc:
        from .migration import ValidationFailed

        if isinstance(exc, ValidationFailed):
            _print_report(exc.report, sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
