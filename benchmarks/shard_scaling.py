"""Sharded matching throughput: shard-count sweep, cold vs churn.

Builds Chart-1-spec engines at a large subscription count and measures
``match()`` throughput for :class:`~repro.matching.sharding.ShardedEngine`
(engine spec ``sharded/S``) across shard counts against the monolithic
``compiled`` baseline.  Two event streams are swept:

``cold``
    Fresh random events, no churn.  Nearly every projection is new, so
    this stream shows the raw cost of sharding: S root walks plus the
    union merge instead of one.  Expect ~1x or slightly below — this is
    the measured crossover documented in ``docs/performance.md``: sharding
    is not a cold-stream kernel win.

``churn``
    Events drawn from a finite pool with subscription churn interleaved
    (every ``--churn`` events one subscription is replaced).  This is
    where sharding wins, and why: every patch flushes the monolithic
    engine's entire projection cache, while the sharded engine *repairs*
    the owning shard's event cache surgically — only entries the churned
    subscription's predicate actually matches are evicted, so the hot
    pool keeps serving hits across churn — and a waste-triggered
    recompile re-lowers one shard's subscriptions instead of all of them.

Run from the repo root::

    PYTHONPATH=src python benchmarks/shard_scaling.py
    PYTHONPATH=src python benchmarks/shard_scaling.py --shards 4 --min-speedup 1.2

``--save`` archives the table under ``benchmarks/results/shard_scaling.txt``
and emits ``BENCH_shard_scaling.json`` next to it.  ``--shards S
--min-speedup X`` turns the script into the CI gate: exit code 1 unless the
sharded engine at ``S`` shards beats the monolithic baseline by at least
``X`` on the churn stream.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

from repro.matching.engines import create_engine
from repro.obs import bench as obs_bench
from repro.obs import get_registry
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "shard_scaling.txt"
STREAMS = ("cold", "churn")


def build_engine(subscriptions, *, shards=None):
    """Monolithic compiled engine (``shards=None``) or a sharded one."""
    spec = CHART1_SPEC
    engine = create_engine(
        "compiled" if shards is None else f"sharded/{shards}",
        spec.schema(),
        domains=spec.domains(),
    )
    for subscription in subscriptions:
        engine.insert(subscription)
    return engine


def make_streams(num_events, pool_size, seed):
    """Equal-length event streams: unique events vs a finite pool."""
    event_generator = EventGenerator(CHART1_SPEC, seed=seed)
    cold = [event_generator.event_for() for _ in range(num_events)]
    pool = [event_generator.event_for() for _ in range(pool_size)]
    rng = random.Random(seed + 1)
    pooled = [pool[rng.randrange(pool_size)] for _ in range(num_events)]
    return {"cold": cold, "churn": pooled}


def make_churn_plan(subscriptions, num_ops, generator, seed):
    """A deterministic op stream (remove one live subscription, insert a
    fresh one) replayed identically by every engine and repeat."""
    rng = random.Random(seed)
    live = list(subscriptions)
    plan = []
    for _ in range(num_ops):
        index = rng.randrange(len(live))
        fresh = generator.subscription_for("churn")
        plan.append((live[index].subscription_id, fresh))
        live[index] = fresh
    return plan


def time_cold(engine, events, repeats):
    """Best seconds/event for the straight ``match()`` loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for event in events:
            engine.match(event)
        best = min(best, time.perf_counter() - start)
    return best / len(events)


def time_churn(build, events, churn, plan, repeats):
    """Best seconds/event with churn interleaved (one op per ``churn``
    events).  ``build`` constructs a fresh engine per repeat so every pass
    replays identical churn from identical state; construction and warm-up
    stay outside the timed region."""
    best = float("inf")
    for _ in range(repeats):
        engine = build()
        engine.match(events[0])  # force compilation before timing
        ops = iter(plan)
        start = time.perf_counter()
        for i, event in enumerate(events):
            if i and i % churn == 0:
                old_id, fresh = next(ops)
                engine.remove(old_id)
                engine.insert(fresh)
            engine.match(event)
        best = min(best, time.perf_counter() - start)
    return best / len(events)


def run(subscriptions_count, num_events, pool_size, churn, shard_counts, repeats, seed):
    """Sweep shard counts over both streams; returns (rows, table).

    Each row is ``{stream, shards, per_event_us, speedup}`` where
    ``speedup`` is against the monolithic compiled engine on the same
    stream (``shards=0`` rows are that baseline).
    """
    subscription_generator = SubscriptionGenerator(CHART1_SPEC, seed=seed)
    subscriptions = subscription_generator.subscriptions_for(
        ["client"], subscriptions_count
    )
    streams = make_streams(num_events, pool_size, seed + 10)
    plan = make_churn_plan(
        subscriptions, num_events // churn, subscription_generator, seed + 2
    )

    def timed(stream, build):
        if stream == "cold":
            engine = build()
            engine.match(streams["cold"][0])
            return time_cold(engine, streams["cold"], repeats)
        return time_churn(build, streams["churn"], churn, plan, repeats)

    header = f"{'stream':>6} {'shards':>6} {'per_event_us':>13} {'speedup':>8}"
    lines = [
        f"subscriptions={subscriptions_count} events={num_events} "
        f"pool={pool_size} churn=1/{churn} repeats={repeats}",
        "",
        header,
        "-" * len(header),
    ]
    rows = []
    for stream in STREAMS:
        baseline = timed(stream, lambda: build_engine(subscriptions))
        rows.append(
            {
                "stream": stream,
                "shards": 0,
                "per_event_us": baseline * 1e6,
                "speedup": 1.0,
            }
        )
        lines.append(f"{stream:>6} {'mono':>6} {baseline * 1e6:>13.1f} {'1.00x':>8}")
        for shards in shard_counts:
            per_event = timed(stream, lambda: build_engine(subscriptions, shards=shards))
            speedup = baseline / per_event
            rows.append(
                {
                    "stream": stream,
                    "shards": shards,
                    "per_event_us": per_event * 1e6,
                    "speedup": speedup,
                }
            )
            lines.append(
                f"{stream:>6} {shards:>6} {per_event * 1e6:>13.1f} {speedup:>7.2f}x"
            )
    return rows, "\n".join(lines)


def emit_bench(rows, args, directory):
    payload = obs_bench.bench_payload(
        "shard_scaling",
        engine="sharded-vs-compiled",
        workload={
            "spec": "CHART1_SPEC",
            "subscriptions": args.subscriptions,
            "events": args.events,
            "pool": args.pool,
            "churn": args.churn,
            "shard_counts": list(args.shards_list),
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
    parser.add_argument(
        "--pool", type=int, default=64,
        help="distinct events in the churn stream's pool",
    )
    parser.add_argument(
        "--churn", type=int, default=8,
        help="events between subscription replacements on the churn stream",
    )
    parser.add_argument(
        "--shards-list", type=int, nargs="+", default=[1, 2, 4, 8],
        help="shard counts to sweep",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best kept)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", action="store_true", help=f"write table to {RESULTS_PATH}")
    parser.add_argument(
        "--bench-out", metavar="DIR", default=None,
        help="emit BENCH_shard_scaling.json into DIR (implied by --save)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help="perf gate: the shard count to check (use with --min-speedup)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="perf gate: exit 1 unless the sharded engine at S shards "
        "(--shards) beats the monolithic baseline by at least X on the "
        "churn stream",
    )
    args = parser.parse_args(argv)
    if args.shards is not None and args.shards not in args.shards_list:
        args.shards_list = sorted(set(args.shards_list) | {args.shards})

    get_registry().enable()  # before any engine exists, so instruments record
    rows, table = run(
        args.subscriptions, args.events, args.pool, args.churn,
        args.shards_list, args.repeats, args.seed,
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

    if args.min_speedup is not None:
        if args.shards is None:
            parser.error("--min-speedup requires --shards")
        gate_row = next(
            row for row in rows
            if row["stream"] == "churn" and row["shards"] == args.shards
        )
        if gate_row["speedup"] < args.min_speedup:
            print(
                f"PERF GATE FAILED: sharded speedup {gate_row['speedup']:.2f}x "
                f"< {args.min_speedup:.2f}x at {args.shards} shards (churn stream)",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf gate passed: {gate_row['speedup']:.2f}x >= "
            f"{args.min_speedup:.2f}x at {args.shards} shards (churn stream)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
