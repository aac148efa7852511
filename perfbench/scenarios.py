"""The three benchmark scenarios.  Each runs in a child process of run.py.

    python3 perfbench/scenarios.py {decide-scale,http-decide,admin-durable}
        --seed N --setups R

The child sets its scenario up, answers ``ready``, then obeys one command
per line on stdin:

    measure SECONDS   measure for about SECONDS more, then answer ``done``
    trace             install the span wrappers; later turns are traced
    finish            set up R - 1 more times, print the result as one JSON
                      object and exit (``setup_s`` is the median of the R)

run.py hands the three scenarios turns in rotation, so each scenario's
measuring windows are spread over the whole run.  The result holds the
end-to-end ``metrics`` (from untraced turns), the per-layer ``layers`` (from
traced turns) and the ``attempted`` and ``failed`` counts of checked answers.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import common
import gen
from common import TRACE_DIR, Checker, pct, quietest

now_ns = time.perf_counter_ns
HERE = Path(__file__).resolve().parent


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _answer(decision) -> tuple:
    return (
        decision.effect.value,
        decision.reason.value,
        decision.matched_role,
        tuple(ob.policy_id for ob in decision.obligations),
    )


def _as_tuple(e: gen.Expected) -> tuple:
    return (e.effect, e.reason, e.matched_role, e.obligations)


QUOTA_DENIAL = _as_tuple(gen.Expected("deny", "quota-exceeded"))


class Scenario:
    """Set up by the constructor; ``measure`` takes turns; ``finish`` summarises.

    ``make`` builds the scenario's set-up.  It runs once before measuring and
    ``setups - 1`` more times after it, so that repeated set-up work never
    runs just before the measurements; ``setup_s`` is the median.
    """

    name = ""

    def __init__(self, make, setups: int) -> None:
        self.make = make
        self.setups = setups
        self.setup_times: list[float] = []
        self.checker = Checker(self.name)
        self.owed = 0.0  # seconds of measuring asked for and not yet done
        self.tracing = False
        self.tracer = None  # in-process span wrappers, once tracing

    def measure(self, seconds: float) -> None:
        """Run whole turns until the time asked for so far is used up."""
        self.owed += seconds
        while self.owed > 0:
            t0 = now_ns()
            self.turn(self.owed)
            self.owed -= (now_ns() - t0) / 1e9

    def trace(self) -> None:
        import tracing

        self.start_tracing()
        self.tracer = tracing.Tracer()
        tracing.install_engine(self.tracer)

    def start_tracing(self) -> None:
        """Later turns are traced; time overrun before now is forgiven."""
        self.tracing = True
        self.owed = 0.0

    def timed_setup(self):
        t0 = now_ns()
        setup = self.make()
        self.setup_times.append((now_ns() - t0) / 1e9)
        return setup

    def finish(self) -> dict:
        """The result; the measured state is released before the extra set-ups."""
        result = self.result()
        self.close()
        for _ in range(self.setups - 1):
            self.timed_setup().close()
        result["metrics"]["setup_s"] = statistics.median(self.setup_times)
        result["metrics"]["peak_rss_mb"] = self.peak_rss_mb()
        return result

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def turn(self, seconds: float) -> None:
        raise NotImplementedError

    def result(self) -> dict:
        """Metrics except setup_s and peak_rss_mb, and per-layer metrics."""
        raise NotImplementedError

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()


# -- decide-scale ---------------------------------------------------------------

SIZES = (("u1k", 1_000), ("u10k", 10_000), ("u100k", 100_000))
POOL = 16_384  # requests per size, cycled; subjects uniform over all users
SLICE_S = 0.2  # the sizes take turns in slices this long
# Calls per group for ``quietest``: about 20-100 ms of work each.
GROUP = {"u1k": 128, "u10k": 32, "u100k": 5}


class DecideSize:
    """One memory-only engine over a generated directory, and its request pool."""

    def __init__(self, seed: int, n: int) -> None:
        from rolegate import AccessRequest, Action, Engine, import_bundle

        d = gen.Directory(seed, n)
        state = import_bundle(d.bundle(), now=int(gen.CLOCK))
        self.engine = Engine(
            state, obligations=common.obligation_policies(), clock=common.frozen_clock
        )
        self.reqs = gen.uniform_requests(d, seed, POOL)
        self.calls = [
            AccessRequest(r.subject, r.resource, Action(r.action), dict(r.context), f"d{k:x}")
            for k, r in enumerate(self.reqs)
        ]
        # Unknown subjects are answered before the directory is read, in a few
        # microseconds; timing them would let a group of fast answers set a
        # group's median.  They are still checked, just not timed.
        self.timed = [r.expected.reason != "unknown-subject" for r in self.reqs]
        self.cursor = 0
        self.hot_seen = 0

    def run(self, seconds: float, checker: Checker) -> list[int]:
        """Closed loop, one caller, for ``seconds``; return the latencies (ns)
        of the calls whose subject exists."""
        calls, reqs, timed, engine = self.calls, self.reqs, self.timed, self.engine
        lat: list[int] = []
        deadline = now_ns() + int(seconds * 1e9)
        while True:
            k = self.cursor % len(calls)
            self.cursor += 1
            t0 = now_ns()
            decision = engine.check_access(calls[k])
            t1 = now_ns()
            if timed[k]:
                lat.append(t1 - t0)
            req = reqs[k]
            expected = _as_tuple(req.expected)
            if req.hot:  # the first HOT_QUOTA hot permits pass, the rest are refused
                self.hot_seen += 1
                if self.hot_seen > gen.HOT_QUOTA:
                    expected = QUOTA_DENIAL
            got = _answer(decision)
            checker.check(got == expected, f"{req} -> {got}")
            if t1 >= deadline:
                return lat


class DecideSetup:
    def __init__(self, seed: int) -> None:
        self.sizes = {label: DecideSize(seed, n) for label, n in SIZES}

    def close(self) -> None:
        self.sizes.clear()


class DecideScale(Scenario):
    name = "decide-scale"

    def __init__(self, seed: int, setups: int) -> None:
        super().__init__(lambda: DecideSetup(seed), setups)
        self.sizes = self.timed_setup().sizes
        self.windows = {label: [] for label in self.sizes}
        self.traced = {label: [] for label in self.sizes}
        self.spans = {label: {} for label in self.sizes}
        self.counts = {label: Counter() for label in self.sizes}
        self.anomalies = {label: 0 for label in self.sizes}

    def turn(self, seconds: float) -> None:
        deadline = now_ns() + int(seconds * 1e9)
        while now_ns() < deadline:
            for label, size in self.sizes.items():
                if not self.tracing:
                    self.windows[label] += size.run(SLICE_S, self.checker)
                else:
                    self._traced_slice(label, size)

    def _traced_slice(self, label: str, size: DecideSize) -> None:
        import tracing

        pending = size.engine.monitor.pending_anomalies
        before = len(pending())
        self.traced[label] += size.run(SLICE_S, self.checker)
        self.anomalies[label] += len(pending()) - before
        self.counts[label].update(self.tracer.counts)
        self.tracer.counts.clear()
        spans = self.tracer.take()
        if not self.spans[label]:  # keep the first slice's spans for inspection
            tracing.write_spans(spans, TRACE_DIR / f"decide-{label}.spans.jsonl")
        tracing.merge(self.spans[label], self.tracer.summary(spans))

    def result(self) -> dict:
        w = self.windows
        metrics = {}
        for label in self.sizes:
            metrics[f"decide_p50_us.{label}"] = quietest(w[label], GROUP[label]) / 1e3
            metrics[f"samples.{label}"] = len(w[label])
        metrics["decide_p90_us.u10k"] = pct(w["u10k"], 0.9) / 1e3
        return {"metrics": metrics, "layers": self._layers() if self.tracing else {}}

    def _layers(self) -> dict:
        layers = {}
        for label in self.sizes:
            s = self.spans[label]["engine.check_access"]
            n = s["engine.check_access"]["count"]

            def per(name, field="total_ns", scale=1e3):
                return s.get(name, {}).get(field, 0) / n / scale

            layers[f"decision.evaluate_self_us.{label}"] = per("decision.evaluate", "self_ns")
            layers[f"directory.closure_us.{label}"] = (
                per("directory.effective_roles") + per("directory.effective_permissions")
            )
            layers[f"directory.direct_roles_us.{label}"] = per("directory.direct_roles")
            layers[f"directory.assignments_scanned.{label}"] = per(
                "directory.direct_roles", "value", 1
            )
            if label != "u1k":
                continue
            counts = self.counts[label]
            untraced = quietest(self.windows[label], GROUP[label])
            traced = quietest(self.traced[label], GROUP[label])
            layers.update({
                "engine.check_access_self_us": per("engine.check_access", "self_ns"),
                "decision.obligations_us": per("decision.obligations"),
                "decision.roles_examined": counts["decision.roles_examined"] / n,
                "decision.trace_steps": counts["decision.trace_steps"] / n,
                "directory.effective_permissions_calls": per(
                    "directory.effective_permissions", "count", 1
                ),
                "restriction.consume_us": per("restriction.consume"),
                "restriction.audit_append_us": per("restriction.audit_append"),
                "restriction.admitted": counts["restriction.admitted"],
                "restriction.rejected": counts["restriction.rejected"],
                "restriction.anomalies": self.anomalies[label],
                "trace.overhead_pct.decide_u1k": (traced / untraced - 1) * 100,
            })
        return layers

    def close(self) -> None:
        super().close()
        self.sizes.clear()


# -- http-decide -------------------------------------------------------------------

HTTP_USERS = 10_000
HTTP_POOL = 20_000


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def parse_reply(data: bytes) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in data.decode("utf-8").split("\n"):
        if line:
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad reply line {line!r}")
            out.setdefault(key, []).append(value)
    return out


class Server:
    """A server process (server.py) over a freshly written live file."""

    def __init__(self, seed: int, traced: bool = False) -> None:
        common.WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="http-", dir=common.WORK))
        d = gen.Directory(seed, HTTP_USERS)
        data = self.dir / "data"
        data.mkdir()
        (data / "live.rbak").write_bytes(d.live_file())
        self.requests = gen.zipf_requests(d, seed, HTTP_POOL)
        self.bodies = [r.wire_body(f"h{k:x}") for k, r in enumerate(self.requests)]
        self.port = free_port()
        cmd = [sys.executable, str(HERE / "server.py"), "--data-dir", str(data),
               "--port", str(self.port)]
        if traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 120
        while not self._healthy():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise SystemExit("perfbench http-decide: server did not become healthy")
            time.sleep(0.02)

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1)
        try:
            conn.request("GET", "/v1/health")
            resp = conn.getresponse()
            resp.read()
            return resp.status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def close(self) -> int:
        """Ask the server to shut down, reap it and remove its files."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)
        return self.proc.returncode


class HttpDecide(Scenario):
    """Closed-loop callers over loopback; the model checks every reply."""

    name = "http-decide"

    def __init__(self, seed: int, setups: int) -> None:
        super().__init__(lambda: Server(seed), setups)
        self.seed = seed
        self.server = self.timed_setup()
        self.threads = max(1, min(2, os.cpu_count() or 1))
        self.lock = threading.Lock()
        self.cursor = 0
        self.hot = [0, 0]  # hot-user attempts and permits on the current server
        self.keep: list[int] = []  # untraced keep-alive latencies, ns
        self.keep_s = 0.0  # time spent in untraced keep-alive phases
        # Median fresh-connection latency of each turn, untraced and traced.  A
        # turn's median is not moved by its last few requests, which run while
        # the other caller has already stopped.
        self.fresh: list[float] = []
        self.traced_fresh: list[float] = []

    def turn(self, seconds: float) -> None:
        keep, elapsed = self._load(seconds / 2, keepalive=True)
        fresh, _ = self._load(seconds / 2, keepalive=False)
        if not self.tracing:
            self.keep += keep
            self.keep_s += elapsed
            self.fresh.append(pct(fresh, 0.5))
        else:
            self.traced_fresh.append(pct(fresh, 0.5))

    def _next(self) -> int:
        with self.lock:
            k = self.cursor % len(self.server.bodies)
            self.cursor += 1
            return k

    def _check(self, k: int, status: int, data: bytes) -> None:
        req = self.server.requests[k]
        try:
            fields = parse_reply(data) if status == 200 else {}
        except (UnicodeDecodeError, ValueError):
            fields = {}
        got = (
            fields.get("effect", ["?"])[0],
            fields.get("reason", ["?"])[0],
            fields.get("matched-role", [None])[0],
            tuple(ob.split("\t")[0] for ob in fields.get("obligation", [])),
        )
        ok = status == 200 and fields.get("request-id") == [f"h{k:x}"]
        if req.hot:
            with self.lock:
                self.hot[0] += 1
                self.hot[1] += got[0] == "permit"
            ok = ok and got in (_as_tuple(req.expected), QUOTA_DENIAL)
        else:
            ok = ok and got == _as_tuple(req.expected)
        self.checker.check(ok, f"{req} -> {status} {data!r}")

    def _load(self, seconds: float, keepalive: bool) -> tuple[list[int], float]:
        """Load for ``seconds``; return latencies (ns) and the time it took."""
        lat: list[list[int]] = [[] for _ in range(self.threads)]
        errors: list[Exception] = []
        start = now_ns()
        deadline = start + int(seconds * 1e9)
        headers = {"Content-Type": "text/plain; charset=utf-8"}
        if not keepalive:
            headers["Connection"] = "close"
        port = self.server.port

        def caller(mine: list[int]) -> None:
            conn = None
            try:
                while True:
                    k = self._next()
                    t0 = now_ns()
                    if conn is None:
                        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    conn.request("POST", "/v1/decision", body=self.server.bodies[k],
                                 headers=headers)
                    resp = conn.getresponse()
                    data = resp.read()
                    t1 = now_ns()
                    if not keepalive:
                        conn.close()
                        conn = None
                    mine.append(t1 - t0)
                    self._check(k, resp.status, data)
                    if t1 >= deadline:
                        return
            except Exception as exc:  # reported below, from the main thread
                errors.append(exc)
            finally:
                if conn is not None:
                    conn.close()

        workers = [threading.Thread(target=caller, args=(mine,)) for mine in lat]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        for exc in errors:
            self.checker.check(False, f"caller raised {exc!r}")
        return [x for mine in lat for x in mine], (now_ns() - start) / 1e9

    def _stop_server(self) -> None:
        attempts, permits = self.hot
        self.checker.check(
            permits == min(gen.HOT_QUOTA, attempts),
            f"hot user got {permits} permits in {attempts} attempts, quota {gen.HOT_QUOTA}",
        )
        self.hot = [0, 0]
        code = self.server.close()
        self.checker.check(code == 0, f"server exit code {code}")

    def trace(self) -> None:
        """Replace the server by one with the span wrappers installed."""
        self._stop_server()
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        self.server = Server(self.seed, traced=True)
        self.start_tracing()

    def result(self) -> dict:
        self._stop_server()
        keep = self.keep
        metrics = {
            "http_keepalive_per_s": len(keep) / self.keep_s,
            "http_keepalive_p50_ms": pct(keep, 0.5) / 1e6,
            "http_keepalive_p90_ms": pct(keep, 0.9) / 1e6,
            "http_fresh_p50_ms": min(self.fresh) / 1e6,
            "samples.http_keepalive": len(keep),
            "samples.http_fresh_turns": len(self.fresh),
        }
        layers = {}
        if self.tracing:
            layers = _http_layers(json.loads(common.SERVER_TRACE.read_text()))
            layers["trace.overhead_pct.http_fresh"] = (
                min(self.traced_fresh) / min(self.fresh) - 1
            ) * 100
            layers["http_fresh_p50_ms"] = metrics["http_fresh_p50_ms"]
        return {"metrics": metrics, "layers": layers}

    def peak_rss_mb(self) -> float:
        # every server this process started has been reaped: their peak is here
        return _children_rss_mb()

    def close(self) -> None:
        self.server.close()


def _http_layers(trace: dict) -> dict:
    s = trace["spans"]["service.request"]
    counts = trace["counts"]
    requests = s["service.request"]["count"]
    decisions = s["engine.check_access"]["count"]

    def total(*names):
        return sum(s.get(n, {}).get("total_ns", 0) for n in names)

    return {
        "service.wire_parse_us": total("service.parse_kv", "service.build_request") / decisions / 1e3,
        "service.render_us": total("service.decision_pairs", "service.render_kv") / decisions / 1e3,
        "service.request_self_us": s["service.request"]["self_ns"] / requests / 1e3,
        "service.writes_per_response": counts["service.socket_writes"] / counts["service.responses"],
        "service.connections": counts["service.connections"],
        "engine.read_lock_wait_us": total("engine.read_lock") / decisions / 1e3,
    }


# -- admin-durable -----------------------------------------------------------------

ADMIN_USERS = 1_000
AUDIT_PRELOAD = 20_000
DECISIONS_PER_OP = 20
KEEP_SNAPSHOTS = 10  # SnapshotStore's default retention
CYCLE_TIMES = ("snapshot_ms", "migrate_ms", "reopen_ms", "restore_ms")


class AdminSetup:
    def __init__(self, seed: int) -> None:
        from rolegate import AccessRequest, Action, Engine, SnapshotStore

        common.WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="admin-", dir=common.WORK))
        self.d = gen.Directory(seed, ADMIN_USERS)
        self.live = self.dir / "live.rbak"
        self.live.write_bytes(self.d.live_file(AUDIT_PRELOAD, seed))
        self.store = SnapshotStore(self.dir / "snapshots", keep_last=KEEP_SNAPSHOTS)
        self.engine = Engine.open(self.live, snapshot_store=self.store, **self.engine_kwargs())
        # Fill the catalog to its retention limit, as on a long-running
        # service, so that every restore lists the same number of snapshots.
        first = self.engine.create_snapshot("preload")
        blob = self.store.path_for(first.id).read_bytes()
        for i in range(first.id + 1, first.id + KEEP_SNAPSHOTS):
            self.store.path_for(i).write_bytes(blob)
        self.start_bytes = self.d.bundle()

        # The revoke victim is never a decision subject, since its verdicts change.
        victim = 1 if self.d.hot == 0 else 0
        self.victim, self.victim_role = gen.user_name(victim), self.d.roles_of(victim)[0]
        kinds = [(k, w) for k, w in gen.MIX if k != "hot"]
        self.requests = [
            r for r in gen.uniform_requests(self.d, seed, 4096, kinds) if r.subject != self.victim
        ]
        self.calls = [
            AccessRequest(r.subject, r.resource, Action(r.action), dict(r.context), f"a{k:x}")
            for k, r in enumerate(self.requests)
        ]
        self.cursor = 0

    def engine_kwargs(self) -> dict:
        return {"obligations": common.obligation_policies(), "clock": common.frozen_clock}

    def mutations(self):
        """The fixed mix of durable admin mutations one cycle applies."""
        from rolegate import Permission, RestrictionPolicy

        e = self.engine
        return [
            lambda: e.create_user("bench.user"),
            lambda: e.create_role("bench.role", ["ch05.l2"]),
            lambda: e.grant_permission("bench.role", Permission("bench.doc", "write")),
            lambda: e.assign_role("bench.user", "bench.role"),
            lambda: e.revoke_role(self.victim, self.victim_role),
            lambda: e.add_restriction(
                RestrictionPolicy("bench.quota", "per-role", 100, 60, target="bench.role")
            ),
        ]

    def decide(self, checker: Checker) -> None:
        for _ in range(DECISIONS_PER_OP):
            k = self.cursor % len(self.calls)
            self.cursor += 1
            decision = self.engine.check_access(self.calls[k])
            r = self.requests[k]
            checker.check(_answer(decision) == _as_tuple(r.expected), f"{r}")

    def cycle(self, checker: Checker, span) -> dict:
        """One cycle; every cycle starts from the same state.  Returns its timings."""
        from rolegate import Engine

        e = self.engine
        times: dict = {"ops": []}
        t0 = now_ns()
        with span("admin.snapshot"):
            snap = e.create_snapshot("cycle")
        times["snapshot_ms"] = (now_ns() - t0) / 1e6
        for op in self.mutations():
            self.decide(checker)
            t0 = now_ns()
            with span("admin.op"):
                op()  # raises, and so fails the run, if the engine refuses it
            times["ops"].append((now_ns() - t0) / 1e6)
            checker.check(True, "mutation")

        t0 = now_ns()
        with span("admin.migrate"):
            xml = e.export_xml()
            report = e.validate_xml(xml)
            if report.ok:
                e.import_xml(xml)
        times["migrate_ms"] = (now_ns() - t0) / 1e6
        checker.check(report.ok, f"exported bundle did not validate: {report.summary()}")
        checker.check(e.export_xml() == xml, "export -> import -> export changed the bytes")

        t0 = now_ns()
        with span("admin.reopen"):
            reopened = Engine.open(self.live, snapshot_store=self.store, **self.engine_kwargs())
        times["reopen_ms"] = (now_ns() - t0) / 1e6
        checker.check(reopened.export_xml() == xml, "reopened engine exports other bytes")

        t0 = now_ns()
        with span("admin.restore"):
            restored = e.restore_snapshot(snap.id)
        times["restore_ms"] = (now_ns() - t0) / 1e6
        checker.check(restored.checksum == snap.checksum, "restore returned another checksum")
        checker.check(e.export_xml() == self.start_bytes, "restore did not bring back the cycle start")
        return times

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class _NoSpan:
    def __init__(self, name: str) -> None:
        pass

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _admin_metrics(cycles: list[dict]) -> dict:
    """Best of the run's cycles for each operation, as ``timeit`` reports.

    ``admin_op_*`` are percentiles over the six mutations of the mix, each
    taken at its best cycle.
    """
    per_op = [min(c["ops"][i] for c in cycles) for i in range(len(cycles[0]["ops"]))]
    out = {
        "admin_op_p50_ms": pct(per_op, 0.5),
        "admin_op_p90_ms": pct(per_op, 0.9),
        "samples.admin_cycle": len(cycles),
    }
    out.update({name: min(c[name] for c in cycles) for name in CYCLE_TIMES})
    return out


class AdminDurable(Scenario):
    name = "admin-durable"

    def __init__(self, seed: int, setups: int) -> None:
        super().__init__(lambda: AdminSetup(seed), setups)
        self.setup = self.timed_setup()
        self.cycles: list[dict] = []
        self.traced: list[dict] = []

    def turn(self, seconds: float) -> None:
        if not self.tracing:
            self.cycles.append(self.setup.cycle(self.checker, _NoSpan))
        else:
            self.traced.append(self.setup.cycle(self.checker, self.tracer.span))

    def result(self) -> dict:
        metrics = _admin_metrics(self.cycles)
        layers = {}
        if self.tracing:
            import tracing

            spans = self.tracer.take()
            tracing.write_spans(spans, TRACE_DIR / "admin.spans.jsonl")
            layers = _admin_layers(self.tracer.summary(spans))
            traced = _admin_metrics(self.traced)["admin_op_p50_ms"]
            layers["trace.overhead_pct.admin_op"] = (traced / metrics["admin_op_p50_ms"] - 1) * 100
            layers.update({k: v for k, v in metrics.items() if k.endswith("_ms")})
        return {"metrics": metrics, "layers": layers}

    def close(self) -> None:
        super().close()
        self.setup.close()


def _admin_layers(summary: dict) -> dict:
    ops = summary["admin.op"]
    n_ops = ops["admin.op"]["count"]

    def every(name):  # the named span under every root: count, total ns, value
        rows = [names[name] for names in summary.values() if name in names]
        return (sum(r["count"] for r in rows), sum(r["total_ns"] for r in rows),
                sum(r["value"] for r in rows))

    def per_call_ms(name):
        count, total, _ = every(name)
        return total / count / 1e6

    def in_ops(name, field="total_ns"):
        return ops.get(name, {}).get(field, 0) / n_ops

    exports, _, export_bytes = every("migration.export")
    cap = ops["restriction.check_user_cap"]
    return {
        "engine.write_lock_wait_us": in_ops("engine.write_lock") / 1e3,
        "directory.transition_us": in_ops("directory.transition") / 1e3,
        "restriction.check_user_cap_us": cap["total_ns"] / cap["count"] / 1e3,
        "restriction.monitor_cut_ms": per_call_ms("restriction.monitor_cut"),
        "migration.export_ms": per_call_ms("migration.export"),
        "migration.export_bytes": export_bytes / exports,
        "migration.import_ms": per_call_ms("migration.import"),
        "migration.validate_ms": per_call_ms("migration.validate"),
        "snapshots.encode_ms": per_call_ms("snapshots.encode"),
        "snapshots.decode_ms": per_call_ms("snapshots.decode"),
        "snapshots.fsync_ms": per_call_ms("snapshots.fsync"),
        "snapshots.fsyncs_per_mutation": in_ops("snapshots.fsync", "count"),
        "snapshots.bytes_per_mutation": in_ops("snapshots.encode", "value"),
    }


SCENARIOS = {s.name: s for s in (DecideScale, HttpDecide, AdminDurable)}


def send(obj) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("scenario", choices=sorted(SCENARIOS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setups", type=int, default=1)
    args = ap.parse_args()
    common.use_checkout_source()
    scenario = SCENARIOS[args.scenario](args.seed, args.setups)
    try:
        send({"ready": True})
        for line in sys.stdin:
            command, *rest = line.split()
            if command == "measure":
                scenario.measure(float(rest[0]))
            elif command == "trace":
                scenario.trace()
            elif command == "finish":
                break
            else:
                raise SystemExit(f"perfbench: unknown command {command!r}")
            send({"done": command})
        result = scenario.finish()
    finally:
        scenario.close()
    result.update(attempted=scenario.checker.attempted, failed=scenario.checker.failed)
    send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
