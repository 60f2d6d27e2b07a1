"""The repository benchmark: end-to-end metrics per workload, or a traced
per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload broker_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sim_chart1 --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
``{"value", "unit"}`` pair).  ``--trace 0`` reports the end-to-end metrics
with tracing off.  ``--trace 1`` first repeats the untraced run, then runs
the workload again with every layer's public calls wrapped in spans and the
``repro.obs`` registry enabled, and reports the per-layer metrics; trace
files are written under ``perfbench/out/``.  ``--workload all`` runs every
workload, each in its own process.  A ``meta:`` line before the result
records the git commit and a calibration-loop time that tells a slow
machine from a slow commit (it is not a metric).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Measure the checkout's own sources, never an installed copy; without them
# the benchmark stops before printing any result.
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"no program sources under {SRC}")
sys.path.insert(0, str(SRC))

from repro import obs  # noqa: E402

from tracer import Tracer, install  # noqa: E402
from workloads import FULL, WORKLOADS, Outcome, Size  # noqa: E402

#: Events per phase of the traced run, and a time budget it never reaches.
TRACE_EVENTS = 2048
UNBOUNDED_S = 3600.0


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess, no walk
    up the directory tree); ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def _counter_sum(registry, name: str) -> float:
    return sum(
        getattr(instrument, "value", 0)
        for _key, instrument in registry.instruments()
        if getattr(instrument, "name", None) == name
    )


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def registry_metrics(registry) -> dict:
    """Ratios and counts fed by the ``repro.obs`` registry's counters."""
    digest_hits = _counter_sum(registry, "broker.digest_hits") + _counter_sum(
        registry, "protocol.link_matching.digest_hits"
    )
    digest_fallbacks = _counter_sum(registry, "broker.digest_fallbacks") + _counter_sum(
        registry, "protocol.link_matching.digest_fallbacks"
    )
    return {
        "router.digest_hit_ratio": (_ratio(digest_hits, digest_fallbacks), "ratio"),
        "match.cache.hit_ratio": (
            _ratio(
                _counter_sum(registry, "match.cache.hit"),
                _counter_sum(registry, "match.cache.miss"),
            ),
            "ratio",
        ),
        "engine.compiled.patches": (_counter_sum(registry, "engine.compiled.patches"), "count"),
        "engine.compiled.patch_bailouts": (
            _counter_sum(registry, "engine.compiled.patch_bailouts"),
            "count",
        ),
        "engine.annotation_rebuilds": (
            _counter_sum(registry, "engine.annotation_rebuilds"),
            "count",
        ),
    }


def write_spans(tracer: Tracer, workload: str, seed: int) -> pathlib.Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.json"
    spans = [
        {"id": i, "parent": parent, "name": name, "start_s": start, "end_s": end}
        for i, parent, name, start, end in tracer.spans
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))
    return path


def run_untraced(workload: str, seed: int, seconds: float, size: Size) -> Outcome:
    obs.configure(enabled=False, reset=True)
    return WORKLOADS[workload](seed, seconds, size, None)


def run_traced(workload: str, seed: int, seconds: float, size: Size):
    """The untraced run once more (for the overhead ratio and the figures
    tracing would distort), then the traced run.

    The traced run does a fixed amount of work — ``TRACE_EVENTS`` events
    per phase, however long that takes — so per-layer call counts repeat
    exactly for a seed and self times compare across commits."""
    plain = run_untraced(workload, seed, seconds, replace(size, setups=1))
    registry = obs.configure(enabled=True, reset=True)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        traced = WORKLOADS[workload](
            seed, UNBOUNDED_S, replace(size, setups=1, max_events=TRACE_EVENTS), tracer
        )
    finally:
        uninstall()
    metrics = dict(tracer.layer_metrics())
    metrics.update(registry_metrics(registry))
    metrics.update(plain.untraced_layers)
    metrics["trace.throughput_ratio"] = (
        traced.metrics["events_per_s"][0] / plain.metrics["events_per_s"][0],
        "ratio",
    )
    obs.configure(enabled=False, reset=True)
    spans_path = write_spans(tracer, workload, seed)
    outcome = Outcome(
        metrics=metrics,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        deliveries=plain.deliveries + traced.deliveries,
    )
    return outcome, spans_path


def result_line(outcome: Outcome) -> str:
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; the last line merges them."""
    merged = Outcome()
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{workload}: exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        for line in lines[:-1]:
            print(f"{workload} {line}")
        result = json.loads(lines[-1])
        print(f"{workload} {lines[-1]}")
        merged.attempted += result["attempted"]
        merged.failed += result["failed"] + (0 if result["correct"] else 1)
        for name, metric in result["metrics"].items():
            merged.metrics[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    print(result_line(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "calibration_s": calibration_s(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
    }
    if args.trace:
        outcome, spans_path = run_traced(args.workload, args.seed, args.seconds, FULL)
        meta["spans"] = str(spans_path.relative_to(ROOT))
    else:
        outcome = run_untraced(args.workload, args.seed, args.seconds, FULL)
    meta["deliveries"] = outcome.deliveries
    print("meta: " + json.dumps(meta))
    print(result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
