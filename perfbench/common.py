"""Helpers shared by the benchmark's processes."""

from __future__ import annotations

import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
TRACE_DIR = WORK / "trace"
SERVER_TRACE = TRACE_DIR / "http-server.json"  # the traced server's per-layer summary
SERVER_SPANS = TRACE_DIR / "http-server.spans.jsonl"  # and a sample of its spans


def use_checkout_source() -> None:
    """Import rolegate from this checkout's ``src``, or stop with an error."""
    src = ROOT / "src"
    if not (src / "rolegate" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rolegate sources under {src}")
    sys.path.insert(0, str(src))
    import rolegate

    if Path(rolegate.__file__).resolve().parent != (src / "rolegate").resolve():
        raise SystemExit(f"perfbench: imported rolegate from {rolegate.__file__}, not {src}")


def frozen_clock() -> float:
    return gen.CLOCK


def obligation_policies():
    from rolegate import ObligationPolicy

    must_id, must_modality, must_action = gen.OB_MUST
    not_id, not_modality, not_action = gen.OB_MUST_NOT
    return [
        ObligationPolicy(must_id, must_modality, must_action, frozenset({gen.MUST_ROLE})),
        ObligationPolicy(
            not_id, not_modality, not_action, frozenset({gen.MUST_NOT_ROLE}),
            {"channel": "external"},
        ),
    ]


def pct(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def quietest(samples, k: int) -> float:
    """The lowest median over groups of ``k`` consecutive samples.

    On a shared host, speed can swing by 2x for seconds at a time, so a
    statistic over a whole run mostly measures the neighbours.  As with
    ``timeit``'s best-of-N, the least-disturbed stretch of the run is taken
    as the program's own cost.  ``samples`` must be in time order; a final
    group shorter than ``k`` is ignored unless it is the only one.
    """
    groups = [samples[i:i + k] for i in range(0, len(samples), k)]
    full = [g for g in groups if len(g) == k] or groups
    return min(pct(g, 0.5) for g in full)


class Checker:
    """Counts checked answers and the ones that did not match the model."""

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench {self.scenario}: mismatch: {what}", file=sys.stderr)
        return ok
