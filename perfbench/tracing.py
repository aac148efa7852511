"""Span tracing installed from outside the program, for the traced run.

The wrappers replace the module-level names and class attributes that the
program looks up at call time (``rolegate.engine.evaluate``,
``DirectoryState.direct_roles``, ``os.fsync`` ...), so no file of the program
changes.  Each span records its name, start, end, parent span, request id and
an optional value (a byte or item count).  Spans live in per-thread lists in
memory and are aggregated, and optionally written out, when the pass ends.

A span's self time is its duration minus the durations of its direct
children; children of one span run on the same thread, one after another, so
they never overlap.
"""

from __future__ import annotations

import http.server
import itertools
import json
import os
import socketserver
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self._threads: list[list[tuple]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []  # (span index, request id)
            with self._lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def open(self, name: str) -> None:
        spans, stack = self._state()
        parent, rid = stack[-1] if stack else (-1, next(self._rids))
        stack.append((len(spans), rid))
        spans.append([name, _now(), 0, parent, rid, None])

    def close(self, value=None) -> None:
        spans, stack = self._state()
        span = spans[stack.pop()[0]]
        span[2] = _now()
        span[5] = value

    def top(self) -> str | None:
        spans, stack = self._state()
        return spans[stack[-1][0]][0] if stack else None

    def span(self, name: str):
        return _Span(self, name)

    # -- installing wrappers -----------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, value=None, count=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``value(args, result)`` gives the span's value; ``count(args, result)``
        returns a (counter, amount) pair to add to the tracer's counts.
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                tracer.close(value(args, result) if value and result is not None else None)
                if count is not None and result is not None:
                    key, amount = count(args, result)
                    tracer.counts[key] += amount

        self._replace(owner, attr, wrapper)

    def wrap_enter(self, owner, attr: str, name: str) -> None:
        """Time only the entry of the context manager ``owner.attr`` returns."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return _TimedEnter(orig(*args, **kwargs), tracer, name)

        self._replace(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, key: str) -> None:
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def take(self) -> list[tuple]:
        """All finished spans so far, as (name, start, end, parent, rid, value, root).

        ``parent`` indexes the returned list; ``root`` is the name of the
        span's outermost ancestor.  The recorded spans are cleared.
        """
        out: list[tuple] = []
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            base = len(out)
            done = [s for s in spans if s[2]]
            if len(done) != len(spans):
                continue  # a span is still open on this thread: keep it all
            for name, start, end, parent, rid, value in spans:
                p = base + parent if parent >= 0 else -1
                root = out[p][6] if p >= 0 else name
                out.append((name, start, end, p, rid, value, root))
            spans.clear()
        return out

    def summary(self, spans: list[tuple]) -> dict:
        """Aggregate spans by (root name, span name): count, total, self, value."""
        child_ns = [0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg: dict[str, dict[str, list[float]]] = defaultdict(dict)
        for i, (name, start, end, parent, rid, value, root) in enumerate(spans):
            row = agg[root].setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
            row[3] += value or 0
        return {
            root: {
                name: {"count": c, "total_ns": t, "self_ns": s, "value": v}
                for name, (c, t, s, v) in names.items()
            }
            for root, names in agg.items()
        }


def merge(into: dict, summary: dict) -> dict:
    """Add one ``Tracer.summary`` into another, in place."""
    for root, names in summary.items():
        for name, row in names.items():
            acc = into.setdefault(root, {}).setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return into


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close()
        return False


class _TimedEnter:
    def __init__(self, cm, tracer: Tracer, name: str) -> None:
        self.cm, self.tracer, self.name = cm, tracer, name

    def __enter__(self):
        self.tracer.open(self.name)
        try:
            return self.cm.__enter__()
        finally:
            self.tracer.close()

    def __exit__(self, *exc):
        return self.cm.__exit__(*exc)


def _len_result(args, result) -> int:
    return len(result)


def install_engine(tracer: Tracer) -> None:
    """Wrap the engine, decision, directory, restriction, migration and snapshot layers."""
    from rolegate import decision, directory, engine, migration, restriction, snapshots

    tracer.wrap(engine.Engine, "check_access", "engine.check_access")
    tracer.wrap_enter(engine.RWLock, "read", "engine.read_lock")
    tracer.wrap_enter(engine.RWLock, "write", "engine.write_lock")
    tracer.wrap(engine, "evaluate", "decision.evaluate")
    tracer.wrap(decision, "evaluate_obligations", "decision.obligations")
    tracer.wrap(
        decision, "effective_roles", "directory.effective_roles",
        count=lambda a, r: ("decision.roles_examined", len(r)),
    )
    tracer.wrap(decision, "effective_permissions", "directory.effective_permissions")
    tracer.wrap(
        directory.DirectoryState, "direct_roles", "directory.direct_roles",
        value=lambda a, r: len(a[0].assignments),
    )
    real_step = decision.TraceStep

    def counted_step(*args, **kwargs):
        tracer.counts["decision.trace_steps"] += 1
        return real_step(*args, **kwargs)

    tracer._replace(decision, "TraceStep", counted_step)
    for op in ("create_user", "create_role", "grant_permission", "assign_role",
               "revoke_role", "add_restriction"):
        tracer.wrap(directory, op, "directory.transition")
    tracer.wrap(
        restriction.RestrictionMonitor, "consume", "restriction.consume",
        count=lambda a, r: ("restriction.admitted" if r.admitted else "restriction.rejected", 1),
    )
    tracer.wrap(restriction.RestrictionMonitor, "record_audit", "restriction.audit_append")
    tracer.wrap(restriction.RestrictionMonitor, "cut", "restriction.monitor_cut")
    tracer.wrap(engine, "check_user_cap", "restriction.check_user_cap")
    for module in (engine, snapshots):
        tracer.wrap(module, "export_bundle", "migration.export", value=_len_result)
        tracer.wrap(module, "import_bundle", "migration.import")
    tracer.wrap(engine, "validate_bundle", "migration.validate")
    tracer.wrap(snapshots, "encode_cut", "snapshots.encode", value=_len_result)
    tracer.wrap(snapshots, "decode_cut", "snapshots.decode")
    tracer.wrap(os, "fsync", "snapshots.fsync")


def install_service(tracer: Tracer) -> None:
    """Wrap the wire layer; a request span runs from header parse to reply sent."""
    from rolegate import service

    tracer.wrap(service, "parse_kv", "service.parse_kv")
    tracer.wrap(service, "build_access_request", "service.build_request")
    tracer.wrap(service, "decision_pairs", "service.decision_pairs")
    tracer.wrap(service, "render_kv", "service.render_kv")
    tracer.count_calls(http.server.BaseHTTPRequestHandler, "handle", "service.connections")
    tracer.count_calls(socketserver._SocketWriter, "write", "service.socket_writes")

    handler = http.server.BaseHTTPRequestHandler
    parse_request = handler.parse_request
    handle_one = handler.handle_one_request

    def traced_parse(self):
        tracer.open("service.request")
        return parse_request(self)

    def traced_handle_one(self):
        try:
            return handle_one(self)
        finally:
            if tracer.top() == "service.request":
                tracer.close()
                tracer.counts["service.responses"] += 1

    tracer._replace(handler, "parse_request", traced_parse)
    tracer._replace(handler, "handle_one_request", traced_handle_one)


SPANS_WRITTEN = 20_000


def write_spans(spans: list[tuple], path: Path) -> None:
    """Write the first SPANS_WRITTEN spans as JSON lines.

    Each line is [name, start ns, end ns, parent line index or -1, request id,
    value].  The summaries use every span; the file is for inspection.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, rid, value, _ in spans[:SPANS_WRITTEN]:
            fh.write(json.dumps([name, start, end, parent, rid, value]) + "\n")
