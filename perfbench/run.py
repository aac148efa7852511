"""rolegate benchmark: decision cost over directory size, HTTP decisions, durable admin churn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run runs all three scenarios (decide-scale, http-decide and
admin-durable), each in a child process of its own, so that every run
reports every metric.  The scenarios are set up one after another, then
measured in ROUNDS rounds of turns, so that each scenario's measurements are
spread over the whole run.  S is the run's measuring time; each scenario gets
its SHARE of it.  The named workload's scenario is set up SETUPS times, and
``setup_s`` (the median) and ``peak_rss_mb`` describe it; the other scenarios
are set up once.  With ``--trace 1`` the second half of each scenario's time
is traced.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, named as in
BENCHMARK.json.  The lines before it are a human-readable report.  Any answer
that does not match the model makes the run exit 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

# Share of the measuring time per scenario.  Every metric must be steady in
# every run, so no scenario gets less because another workload is named.  An
# admin cycle takes ~3 s today and its operations last 150-400 ms each, so
# admin gets the most time: about six cycles in a 32 s run.
SHARE = {"decide-scale": 8 / 32, "http-decide": 6 / 32, "admin-durable": 18 / 32}
SETUPS = 3
ROUNDS = 8
RUN_LIMIT_S = 170  # a run that takes longer is stopped and fails

# End-to-end metric -> the scenario that measures it.  setup_s and peak_rss_mb
# come from the named workload's scenario.
SOURCE = {
    "decide_p50_us.u1k": "decide-scale",
    "decide_p50_us.u10k": "decide-scale",
    "decide_p50_us.u100k": "decide-scale",
    "decide_p90_us.u10k": "decide-scale",
    "http_keepalive_per_s": "http-decide",
    "http_keepalive_p50_ms": "http-decide",
    "http_keepalive_p90_ms": "http-decide",
}


def spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class Child:
    """One scenario process, driven one command at a time (see scenarios.py)."""

    def __init__(self, scenario: str, seed: int, setups: int) -> None:
        self.scenario = scenario
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "scenarios.py"), scenario,
             "--seed", str(seed), "--setups", str(setups)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.reply()

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"perfbench: scenario {self.scenario} stopped "
                             f"(exit {self.proc.wait()})")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args) -> dict[str, dict]:
    children: dict[str, Child] = {}
    timer = threading.Timer(RUN_LIMIT_S, lambda: [c.proc.kill() for c in children.values()])
    timer.start()
    try:
        for scenario in SHARE:
            setups = SETUPS if scenario == args.workload else 1
            children[scenario] = Child(scenario, args.seed, setups)
        passes = (False, True) if args.trace else (False,)
        for traced in passes:
            if traced:
                for child in children.values():
                    child.ask("trace")
            for _ in range(ROUNDS):
                for scenario, child in children.items():
                    seconds = args.seconds * SHARE[scenario] / ROUNDS / len(passes)
                    child.ask(f"measure {seconds}")
        return {scenario: child.ask("finish") for scenario, child in children.items()}
    finally:
        timer.cancel()
        for child in children.values():
            child.close()


def seed_shape(values: dict[str, float]) -> list[tuple[str, bool]]:
    """The bottlenecks known at the seed commit, and whether this run shows them."""
    v = values
    if "decide_p50_us.u1k" in v:
        ratio = v["decide_p50_us.u100k"] / v["decide_p50_us.u1k"]
        return [
            (f"decide_p50_us.u100k is {ratio:.0f} x decide_p50_us.u1k (>= 20: a scan of "
             "every assignment per decision)", ratio >= 20),
            (f"http_keepalive_p50_ms is {v['http_keepalive_p50_ms']:.1f} (>= 35: Nagle "
             "plus delayed ACK)", v["http_keepalive_p50_ms"] >= 35),
        ]
    scanned = [v[f"directory.assignments_scanned.{s}"] for s in ("u1k", "u10k", "u100k")]
    per_flush = v["snapshots.bytes_per_mutation"]
    bundle = v["migration.export_bytes"]
    return [
        ("directory.assignments_scanned per decision grows with users: "
         + " < ".join(f"{x:.0f}" for x in scanned), scanned[0] < scanned[1] < scanned[2]),
        (f"service.writes_per_response is {v['service.writes_per_response']:g} (2: headers, "
         "then body)", v["service.writes_per_response"] == 2),
        (f"snapshots.bytes_per_mutation is {per_flush:.0f}, {per_flush / bundle:.0f} x the "
         "bundle (the whole audit log is rewritten)", per_flush > 10 * bundle),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    common.use_checkout_source()  # exits non-zero outside a full checkout

    results = measure(args)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"# rolegate benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# HTTP traffic crossed loopback (127.0.0.1) between two processes.")
    for scenario, r in results.items():
        print(f"# {scenario}: attempted={r['attempted']} failed={r['failed']} "
              f"setup_s={r['metrics']['setup_s']:.3f} peak_rss_mb={r['metrics']['peak_rss_mb']:.1f} "
              + " ".join(f"{k}={v:g}" for k, v in r["metrics"].items()
                         if k not in SOURCE and k not in ("setup_s", "peak_rss_mb")))

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared(kind)
    if args.trace:
        values = {k: v for r in results.values() for k, v in r["layers"].items()}
    else:
        values = {
            name: results[SOURCE.get(name, args.workload)]["metrics"].get(name)
            for name in units
        }
    if set(values) != set(units) or None in values.values():
        raise SystemExit(f"perfbench: measured metrics differ from BENCHMARK.json {kind}")
    for text, shown in seed_shape(values):
        print(f"# seed shape {'shown' if shown else 'NOT shown'}: {text}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:16.4f} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
