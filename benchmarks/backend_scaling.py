"""Kernel-backend sweep: the interp and vector kernels on one compiled engine.

Builds Chart-1-spec engines at a large subscription count and times the
batched matching path (``match_batch`` over fixed-size batches) across the
kernel backends of :mod:`repro.matching.backends`: one monolithic compiled
engine per backend (engine specs ``compiled`` and ``compiled:vector``).
Projection caches are disabled so repeated timing passes measure the
kernels, not cache hits — the "cold" stream of the other benchmark scripts.
``speedup`` is against the ``interp`` row.

Run from the repo root::

    PYTHONPATH=src python benchmarks/backend_scaling.py
    PYTHONPATH=src python benchmarks/backend_scaling.py --min-vector-speedup 1.3

``--save`` archives the table under ``benchmarks/results/backend_scaling.txt``
and emits ``BENCH_backend_scaling.json`` next to it.  ``--min-vector-speedup``
turns the script into the CI gate: exit code 1 unless ``vector`` beats
``interp`` by the given factor on the batch-64 stream.  The vector backend
needs numpy; without it ``compiled:vector`` runs as ``interp`` and the gate
fails.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.matching.backends import BACKEND_NAMES
from repro.matching.engines import EngineSpec, create_engine
from repro.obs import bench as obs_bench
from repro.obs import get_registry
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "backend_scaling.txt"


def build_compiled(subscriptions, spec):
    """Monolithic compiled engine, projection caches off (cold stream)."""
    workload = CHART1_SPEC
    engine = create_engine(
        spec,
        workload.schema(),
        domains=workload.domains(),
        match_cache_capacity=0,
    )
    for subscription in subscriptions:
        engine.insert(subscription)
    return engine


def time_batches(engine, batches, repeats):
    """Best seconds/event for the ``match_batch`` loop over all batches.

    Best-of-repeats, like every other script here: with the caches off
    each pass re-executes the kernels, and the minimum amortizes one-time
    costs (compilation, the vector backend's columnar index build) that
    real streams also pay exactly once.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for batch in batches:
            engine.match_batch(batch)
        best = min(best, time.perf_counter() - start)
    return best / sum(len(batch) for batch in batches)


def run(subscriptions_count, num_events, batch, repeats, seed):
    """Sweep the backend axis; returns (rows, rendered table text).

    Each row is ``{engine, backend, per_event_us, speedup}`` with
    ``speedup`` against the ``interp`` row; ``engine`` is the canonical
    spec, so it names the backend that actually ran.
    """
    spec = CHART1_SPEC
    subscriptions = SubscriptionGenerator(spec, seed=seed).subscriptions_for(
        ["client"], subscriptions_count
    )
    event_generator = EventGenerator(spec, seed=seed + 1)
    events = [event_generator.event_for() for _ in range(num_events)]
    batches = [events[i : i + batch] for i in range(0, len(events), batch)]

    header = f"{'engine':>16} {'backend':>8} {'per_event_us':>13} {'speedup':>8}"
    lines = [
        f"subscriptions={subscriptions_count} events={num_events} "
        f"batch={batch} repeats={repeats} caches=off",
        "",
        header,
        "-" * len(header),
    ]
    rows = []
    baseline = None
    for backend in BACKEND_NAMES:
        engine_spec = EngineSpec(backend=backend)
        engine = build_compiled(subscriptions, engine_spec)
        engine.match(events[0])  # force compilation outside the timed region
        per_event = time_batches(engine, batches, repeats)
        if baseline is None:
            baseline = per_event  # interp is first in BACKEND_NAMES
        speedup = baseline / per_event
        rows.append(
            {
                "engine": str(engine_spec),
                "backend": engine_spec.backend,
                "per_event_us": per_event * 1e6,
                "speedup": speedup,
            }
        )
        lines.append(
            f"{str(engine_spec):>16} {engine_spec.backend:>8} "
            f"{per_event * 1e6:>13.1f} {speedup:>7.2f}x"
        )
    return rows, "\n".join(lines)


def emit_bench(rows, args, directory):
    payload = obs_bench.bench_payload(
        "backend_scaling",
        engine="backend-sweep",
        workload={
            "spec": "CHART1_SPEC",
            "subscriptions": args.subscriptions,
            "events": args.events,
            "batch": args.batch,
            "repeats": args.repeats,
            "seed": args.seed,
        },
        wall_clock_s=None,
        metrics=get_registry(),
        extra={"rows": rows},
    )
    directory.mkdir(parents=True, exist_ok=True)
    return obs_bench.write_bench(payload, directory)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--subscriptions", type=int, default=25000,
        help="subscription count (default: Chart 3's largest point)",
    )
    parser.add_argument("--events", type=int, default=1024, help="events per stream")
    parser.add_argument("--batch", type=int, default=64, help="events per match_batch call")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best kept)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", action="store_true", help=f"write table to {RESULTS_PATH}")
    parser.add_argument(
        "--bench-out", metavar="DIR", default=None,
        help="emit BENCH_backend_scaling.json into DIR (implied by --save)",
    )
    parser.add_argument(
        "--min-vector-speedup", type=float, default=None, metavar="X",
        help="perf gate: exit 1 unless the vector kernel beats interp by X",
    )
    args = parser.parse_args(argv)

    get_registry().enable()  # before any engine exists, so instruments record
    rows, table = run(
        args.subscriptions, args.events, args.batch, args.repeats, args.seed
    )
    print(table)
    if args.save:
        RESULTS_DIR.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(table + "\n")
        print(f"\nsaved to {RESULTS_PATH}")
    if args.save or args.bench_out:
        out_dir = pathlib.Path(args.bench_out) if args.bench_out else RESULTS_DIR
        path = emit_bench(rows, args, out_dir)
        print(f"bench artifact: {path}")

    floor = args.min_vector_speedup
    if floor is None:
        return 0
    vector = next((row for row in rows if row["backend"] == "vector"), None)
    if vector is None:
        print(
            "PERF GATE FAILED: the vector backend is unavailable (numpy is "
            "not installed), so compiled:vector ran as interp",
            file=sys.stderr,
        )
        return 1
    if vector["speedup"] < floor:
        print(
            f"PERF GATE FAILED: vector speedup {vector['speedup']:.2f}x "
            f"< {floor:.2f}x vs the interp baseline",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate passed: vector {vector['speedup']:.2f}x >= {floor:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
