"""The benchmark's three workloads.

* ``broker_steady`` — the prototype broker pipeline on a 5-broker star:
  a batched closed loop, then a Poisson open loop at a fixed rate.
* ``broker_churn`` — the same network under a closed loop of single
  publishes with a subscribe or unsubscribe settled before every 10th.
* ``sim_chart1`` — link matching on the paper's Figure 6 network: the
  discrete-event simulator at a fixed sub-saturation rate, then a
  closed-loop hop-by-hop drive of the same protocol.

Each workload returns an :class:`Outcome`: the end-to-end metrics, the op
counts and the per-layer figures that only the traced run reports.  Every
time in the end-to-end metrics is in reference seconds: each timed piece
of work is scaled by a :mod:`hostspeed` calibration unit run next to it.
Inputs come from the seed alone; the program under test only sees the
generated subscriptions and events.  See ``perfbench/README.md`` for why
each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.broker.client import BrokerClient, RequestFailed
from repro.broker.node import BrokerNetworkConfig, BrokerNode
from repro.broker.transport import InMemoryTransport
from repro.errors import ProtocolError, ReproError
from repro.matching.events import Event
from repro.matching.predicates import Predicate
from repro.network.figures import figure6_topology, star
from repro.protocols import LinkMatchingProtocol, ProtocolContext
from repro.sim.engine import seconds_to_ticks
from repro.sim.runner import NetworkSimulation
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator, WorkloadSpec
from repro.workload.generators import figure6_region_of

import hostspeed
from hostspeed import Pieces, scaled
from oracle import ChurnEntry, DeliveryRecord, Reservoir, check
from tracer import Tracer, span

#: The "selective" regime: each event matches a handful of subscriptions,
#: so match-once digests stay small and pay on every downstream hop.  No
#: factoring, because factored routers opt out of digests.
SELECTIVE_SPEC = WorkloadSpec(
    num_attributes=10,
    values_per_attribute=5,
    factoring_levels=0,
    first_non_star_probability=0.98,
    non_star_decay=0.92,
)

#: The subscription population is part of each workload's definition, like
#: its topology; ``--seed`` draws the traffic (events, arrival times, churn
#: choices) and the oracle's sample.  Populations drawn per seed differ far
#: more than event streams do: over seeds 1-10 the 2,000-subscription
#: selective population matches 1.16-1.98 subscriptions per event, while
#: ten event streams against one population stay within 1.86-1.94.
POPULATION_SEED = 0


#: The broker network: a hub with 4 edge brokers, 4 subscribers on each.
EDGES = 4
SUBSCRIBERS_PER_BROKER = 4
#: Events per ``publish_many`` call in the closed loop and the warm-up.
BATCH = 64
#: Open-loop arrival rate (events/s).
OPEN_RATE = 1000.0
#: ``broker_churn`` changes a subscription before every this-many publishes.
CHURN_EVERY = 10
#: Figure 6 subscribers per broker, the simulated aggregate publish rate
#: (below saturation) and the simulated time advanced per timed slice.
SIM_SUBSCRIBERS_PER_BROKER = 3
SIM_RATE = 4000.0
SIM_SLICE_S = 0.05
#: Timing is scaled to the reference speed of :mod:`hostspeed` piece by
#: piece: set-up subscribes in chunks of this many, each followed by one
#: calibration unit ...
SETUP_CHUNK = 20
#: ... ``sim_chart1``'s drive in chunks of this many events ...
DRIVE_CHUNK = 32
#: ... and long pieces (an open-loop segment, a protocol build) between two
#: bursts of this many units.
BURST_UNITS = 8


@dataclass(frozen=True)
class Size:
    """Workload sizes.  :data:`FULL` is the benchmark; the self-test runs
    :data:`TINY`, whose event caps make a run count-bound (deterministic)."""

    subscriptions: int = 2000
    sim_subscriptions: int = 1000
    #: Runtime subscriptions applied at the end of ``sim_chart1``.
    sim_changes: int = 400
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Untimed events routed after set-up; ``steps_per_event`` is theirs.
    warmup_events: int = 1024
    #: Alternating segments per two-phase run, so each phase spans the run.
    segments: int = 10
    #: Per-phase event cap (``None`` = time-bound only).
    max_events: Optional[int] = None
    #: Events re-matched by brute force per phase.
    oracle_sample: int = 150


FULL = Size()
TINY = Size(
    subscriptions=80,
    sim_subscriptions=60,
    sim_changes=3,
    setups=1,
    warmup_events=128,
    segments=2,
    max_events=192,
    oracle_sample=10_000,
)


@dataclass
class Outcome:
    """One workload run: metrics as ``name -> (value, unit)``."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer figures measured with tracing off (reported by ``--trace 1``).
    untraced_layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    deliveries: int = 0


# ----------------------------------------------------------------------
# Shared measurement helpers


def percentile_ms(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``samples`` (seconds), in milliseconds."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


def change_p50_ms(by_kind: Dict[str, List[float]]) -> float:
    """Median request-to-idle time of each kind of subscription change,
    averaged over the kinds.  Subscribes parse and insert while
    unsubscribes only remove, so their times form two modes; a median over
    the seeded mix would land in one mode or the other."""
    medians = [percentile_ms(samples, 0.5) for samples in by_kind.values() if samples]
    return sum(medians) / len(medians)


def wall_layers(
    setup_wall_s: float, run: Pieces, latency_wall_ms: float
) -> Dict[str, Tuple[float, str]]:
    """The unscaled wall-clock figures behind the end-to-end metrics, and
    the run's median scale (reference seconds per wall second)."""
    return {
        "wall.setup_s": (setup_wall_s, "s"),
        "wall.events_per_s": (run.wall_rate(), "1/s"),
        "wall.latency_p50_ms": (latency_wall_ms, "ms"),
        "host.scale": (run.median_scale(), "ratio"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StepCounter:
    """Sums the matching steps of every routing decision a node's router
    returns, counting only the outermost call of nested route methods."""

    def __init__(self) -> None:
        self.steps = 0
        self._depth = 0

    def attach(self, router) -> None:
        def single(decision):
            return decision.steps

        def pairs(out):
            return sum(decision.steps for decision, _digest in out)

        def many(out):
            return sum(decision.steps for decision in out)

        for name, steps_of in (
            ("route", single),
            ("route_batch", many),
            ("route_with_digest", single),
            ("route_digest_batch", pairs),
        ):
            setattr(router, name, self._counting(getattr(router, name), steps_of))

    def _counting(self, method: Callable, steps_of: Callable) -> Callable:
        def counted(*args, **kwargs):
            self._depth += 1
            try:
                out = method(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.steps += steps_of(out)
            return out

        return counted


# ----------------------------------------------------------------------
# The prototype broker network


class BrokerNetwork:
    """A started in-memory star network with every client connected."""

    def __init__(self, record: DeliveryRecord) -> None:
        self.topology = star(EDGES, subscribers_per_broker=SUBSCRIBERS_PER_BROKER)
        schema = SELECTIVE_SPEC.schema()
        config = BrokerNetworkConfig(self.topology, schema, domains=SELECTIVE_SPEC.domains())
        self.transport = InMemoryTransport()
        self.hub = self.transport.hub
        endpoints = {broker: f"mem://{broker}" for broker in self.topology.brokers()}
        self.steps = StepCounter()
        self.nodes: Dict[str, BrokerNode] = {}
        for broker in self.topology.brokers():
            node = BrokerNode(config, broker, self.transport, endpoints)
            self.steps.attach(node.router)
            self.nodes[broker] = node
        for node in self.nodes.values():
            node.start()
        for node in self.nodes.values():
            node.connect_neighbors()
        self.settle()
        self.clients: Dict[str, BrokerClient] = {}
        for name in self.topology.subscribers() + self.topology.publishers():
            client = BrokerClient(
                name,
                schema,
                self.transport,
                endpoints[self.topology.broker_of(name)],
                on_event=record.handler(name),
                pump=self.hub.pump,
            )
            client.connect()
            self.clients[name] = client
        self.settle()
        self.publisher = self.clients[self.topology.publishers()[0]]

    def settle(self) -> None:
        """Pump until the network is idle."""
        while self.hub.pending:
            self.hub.pump()

    def change(self, client: BrokerClient, request: Callable[[], int]) -> Tuple[int, float]:
        """Send one subscribe/unsubscribe and settle the whole network;
        returns the reply's subscription id and the seconds taken."""
        start = perf_counter()
        request_id = request()
        self.settle()
        subscription_id = client.wait_for(request_id, timeout_s=5.0)
        return subscription_id, perf_counter() - start

    def shutdown(self) -> None:
        for client in self.clients.values():
            client.disconnect()
        self.settle()
        for node in self.nodes.values():
            node.stop()
        self.settle()


@dataclass
class BrokerSetup:
    network: BrokerNetwork
    record: DeliveryRecord
    #: Subscriptions live after set-up, by broker-assigned id.
    live: Dict[int, Tuple[str, Predicate]]
    #: Median set-up time in reference seconds, and in wall seconds.
    setup_s: float
    setup_wall_s: float
    build_s: float
    #: Request-to-idle reference seconds of every set-up subscribe.
    subscribe_s: List[float]


def set_up_brokers(seed: int, size: Size, tracer: Optional[Tracer]) -> BrokerSetup:
    """Build the network, subscribe the population and force lazy lowering,
    ``size.setups`` times (keeping the last network); ``setup_s`` is the
    median.  Each piece of a set-up is scaled by the calibration unit run
    right after it; the units themselves are not set-up time."""
    topology = star(EDGES, subscribers_per_broker=SUBSCRIBERS_PER_BROKER)
    population = SubscriptionGenerator(SELECTIVE_SPEC, seed=POPULATION_SEED).subscriptions_for(
        topology.subscribers(), size.subscriptions
    )
    requests = [(s.subscriber, s.predicate.describe(), s.predicate) for s in population]
    root = topology.broker_of(topology.publishers()[0])
    probe = EventGenerator(SELECTIVE_SPEC, seed=seed + 2).event_for(topology.publishers()[0])
    setup_s: List[float] = []
    setup_wall_s: List[float] = []
    subscribe_s: List[float] = []
    network: Optional[BrokerNetwork] = None
    for _attempt in range(size.setups):
        if network is not None:
            network.shutdown()
            network = None
        gc.collect()
        record = DeliveryRecord(seed, size.oracle_sample)
        with span(tracer, "setup"):
            start = perf_counter()
            with span(tracer, "network.build"):
                network = BrokerNetwork(record)
            build_s = perf_counter() - start
            wall = build_s
            ref = build_s * hostspeed.scale()
            live: Dict[int, Tuple[str, Predicate]] = {}
            for first in range(0, len(requests), SETUP_CHUNK):
                times: List[float] = []
                start = perf_counter()
                for subscriber, expression, predicate in requests[first : first + SETUP_CHUNK]:
                    client = network.clients[subscriber]
                    subscription_id, elapsed = network.change(
                        client, lambda c=client, e=expression: c.subscribe(e)
                    )
                    client.subscription_ids.append(subscription_id)
                    live[subscription_id] = (subscriber, predicate)
                    times.append(elapsed)
                elapsed = perf_counter() - start
                factor = hostspeed.scale()
                wall += elapsed
                ref += elapsed * factor
                subscribe_s.extend(t * factor for t in times)
            # Routers compile, annotate and build their projection tables
            # lazily; one probe at every router forces it.
            start = perf_counter()
            for node in network.nodes.values():
                node.router.route_digest(probe, root)
            elapsed = perf_counter() - start
            wall += elapsed
            ref += elapsed * hostspeed.scale()
        setup_s.append(ref)
        setup_wall_s.append(wall)
    assert network is not None
    return BrokerSetup(
        network,
        record,
        live,
        statistics.median(setup_s),
        statistics.median(setup_wall_s),
        build_s,
        subscribe_s,
    )


def warm_up_brokers(setup: BrokerSetup, generator: EventGenerator, size: Size) -> float:
    """Publish ``size.warmup_events`` events in batches, untimed, so caches
    fill before timing; returns their matching steps per event."""
    network, record = setup.network, setup.record
    publisher = network.publisher
    steps = network.steps.steps
    for first in range(0, size.warmup_events, BATCH):
        batch = [
            generator.event_for(publisher.name)
            for _ in range(min(BATCH, size.warmup_events - first))
        ]
        for event in batch:
            record.published(event, 0.0)
        publisher.publish_many(batch)
        network.settle()
        record.settled()
    return (network.steps.steps - steps) / size.warmup_events


def _reached(size: Size, budget_s: float, part: float, timed: float, count: int) -> bool:
    """Whether a phase has done ``part`` of its work: its event cap when the
    size sets one (count-bound runs), else its share of the time budget."""
    if size.max_events is not None:
        return count >= size.max_events * part
    return timed >= budget_s * part


def broker_outcome(
    setup: BrokerSetup,
    churn: Sequence[ChurnEntry],
    *,
    closed: Pieces,
    pump: Pieces,
    latency_spans: Sequence[Tuple[int, int, float]],
    steps_per_event: float,
    change_s: Dict[str, List[float]],
    change_failed: int,
    rss_mb: float,
    layers: Dict[str, Tuple[float, str]],
) -> Outcome:
    record = setup.record
    failed = check(record.sample.entries, setup.live, churn) | record.duplicated
    outcome = Outcome()
    outcome.attempted = len(record) + len(churn) + change_failed
    outcome.failed = min(len(failed) + record.strays, len(record)) + change_failed
    outcome.deliveries = record.deliveries
    latencies = scaled(record.latencies, latency_spans)
    outcome.metrics = {
        "setup_s": (setup.setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "events_per_s": (closed.median_rate(), "1/s"),
        "latency_p50_ms": (percentile_ms(latencies, 0.50), "ms"),
        "churn_p50_ms": (change_p50_ms(change_s), "ms"),
        "sim_events_per_s": (pump.median_rate(), "1/s"),
        "steps_per_event": (steps_per_event, "steps"),
    }
    outcome.untraced_layers = {
        "latency_p90_ms": (percentile_ms(latencies, 0.90), "ms"),
        "latency_p99_ms": (percentile_ms(latencies, 0.99), "ms"),
        "network.build_ms": (setup.build_s * 1e3, "ms"),
        "sim.callbacks": (0, "count"),
        **wall_layers(
            setup.setup_wall_s,
            closed,
            percentile_ms(record.latencies, 0.50),
        ),
        **layers,
    }
    return outcome


def broker_steady(seed: int, seconds: float, size: Size, tracer: Optional[Tracer]) -> Outcome:
    """Segments of a batched closed loop alternating with segments of a
    Poisson open loop, so both phases sample the whole run."""
    setup = set_up_brokers(seed, size, tracer)
    network, record = setup.network, setup.record
    generator = EventGenerator(SELECTIVE_SPEC, seed=seed + 1)
    steps_per_event = warm_up_brokers(setup, generator, size)
    publisher = network.publisher
    hub = network.hub
    budget = seconds / 2.0
    arrivals = random.Random(seed + 7)
    open_total = int(OPEN_RATE * budget)
    if size.max_events is not None:
        open_total = min(open_total, size.max_events)

    closed = Pieces()
    pump = Pieces()
    latency_spans: List[Tuple[int, int, float]] = []
    closed_timed = 0.0
    closed_count = 0
    late_max = 0.0
    backlog_max = 0
    for segment in range(1, size.segments + 1):
        part = segment / size.segments
        # Closed loop: publish_many(64), pump to idle, repeat.
        record.record_latency = False
        while not _reached(size, budget, part, closed_timed, closed_count):
            batch = [generator.event_for(publisher.name) for _ in range(BATCH)]
            with span(tracer, "run"):
                start = perf_counter()
                for event in batch:
                    record.published(event, start)
                publisher.publish_many(batch)
                backlog_max = max(backlog_max, hub.pending)
                pumped = perf_counter()
                network.settle()
                end = perf_counter()
            record.settled()
            factor = hostspeed.scale()
            closed.add(len(batch), end - start, factor)
            pump.add(len(batch), end - pumped, factor)
            closed_timed += end - start
            closed_count += len(batch)

        # Open loop: Poisson arrivals at a fixed rate.  Due times are waited
        # for by spinning: a sleep overshoots by more than the latency.
        count = open_total * segment // size.segments - open_total * (segment - 1) // size.segments
        events = [generator.event_for(publisher.name) for _ in range(count)]
        offsets: List[float] = []
        at = 0.0
        for _ in events:
            at += arrivals.expovariate(OPEN_RATE)
            offsets.append(at)
        record.record_latency = True
        before = hostspeed.scale(BURST_UNITS)
        first = len(record.latencies)
        with span(tracer, "run"):
            base = perf_counter() + 0.001
            due = [base + offset for offset in offsets]
            i = 0
            while i < count or hub.pending:
                now = perf_counter()
                if i < count and now >= due[i]:
                    late_max = max(late_max, now - due[i])
                    record.published(events[i], due[i])
                    publisher.publish(events[i])
                    i += 1
                    continue
                if hub.pending:
                    hub.pump(4)
                    backlog_max = max(backlog_max, hub.pending)
                    if not hub.pending:
                        record.settled()
        record.settled()
        after = hostspeed.scale(BURST_UNITS)
        latency_spans.append((first, len(record.latencies), (before + after) / 2))
    rss_mb = peak_rss_mb()

    return broker_outcome(
        setup,
        (),
        closed=closed,
        pump=pump,
        latency_spans=latency_spans,
        steps_per_event=steps_per_event,
        change_s={"subscribe": setup.subscribe_s},
        change_failed=0,
        rss_mb=rss_mb,
        layers={
            "gen.late_max_ms": (late_max * 1e3, "ms"),
            "transport.backlog_max": (backlog_max, "count"),
        },
    )


def broker_churn(seed: int, seconds: float, size: Size, tracer: Optional[Tracer]) -> Outcome:
    """Closed loop of single publishes; before every ``CHURN_EVERY``-th, a
    random subscriber subscribes or unsubscribes and the change settles.
    Each cycle of ``CHURN_EVERY`` publishes, its change included, is scaled
    by the calibration unit run right after it."""
    setup = set_up_brokers(seed, size, tracer)
    network, record = setup.network, setup.record
    generator = EventGenerator(SELECTIVE_SPEC, seed=seed + 1)
    steps_per_event = warm_up_brokers(setup, generator, size)
    new_predicates = SubscriptionGenerator(SELECTIVE_SPEC, seed=seed + 13)
    choices = random.Random(seed + 11)
    subscribers = network.topology.subscribers()
    publisher = network.publisher
    hub = network.hub
    record.record_latency = True

    cycles = Pieces()
    pump = Pieces()
    latency_spans: List[Tuple[int, int, float]] = []
    churn: List[ChurnEntry] = []
    change_s: Dict[str, List[float]] = {"subscribe": [], "unsubscribe": []}
    change_failed = 0
    timed = 0.0
    published = 0
    backlog_max = 0
    # The open cycle: publishes, wall and pump seconds, changes by kind, and
    # the first latency sample.
    cycle_count = 0
    cycle_s = 0.0
    cycle_pump_s = 0.0
    cycle_changes: List[Tuple[str, float]] = []
    cycle_first = 0

    def close_cycle() -> None:
        nonlocal cycle_count, cycle_s, cycle_pump_s, cycle_first
        factor = hostspeed.scale()
        cycles.add(cycle_count, cycle_s, factor)
        pump.add(cycle_count, cycle_pump_s, factor)
        latency_spans.append((cycle_first, len(record.latencies), factor))
        for kind, changed in cycle_changes:
            change_s[kind].append(changed * factor)
        cycle_changes.clear()
        cycle_count = 0
        cycle_s = cycle_pump_s = 0.0
        cycle_first = len(record.latencies)

    while not _reached(size, seconds, 1.0, timed, published):
        changed = 0.0
        if (published + 1) % CHURN_EVERY == 0:
            client = network.clients[choices.choice(subscribers)]
            owned = client.subscription_ids
            predicate: Optional[Predicate] = None
            if owned and choices.random() < 0.5:
                subscription_id = owned[choices.randrange(len(owned))]
                request = lambda c=client, s=subscription_id: c.unsubscribe(s)
            else:
                predicate = new_predicates.predicate_for(client.name)
                request = lambda c=client, e=predicate.describe(): c.subscribe(e)
            try:
                with span(tracer, "run"):
                    replied, changed = network.change(client, request)
            except (RequestFailed, ProtocolError):
                change_failed += 1
            else:
                kind = "unsubscribe" if predicate is None else "subscribe"
                cycle_changes.append((kind, changed))
                if predicate is None:
                    owned.remove(subscription_id)
                else:
                    owned.append(replied)
                    subscription_id = replied
                churn.append((len(record), subscription_id, client.name, predicate))
        event = generator.event_for(publisher.name)
        with span(tracer, "run"):
            start = perf_counter()
            record.published(event, start)
            publisher.publish(event)
            backlog_max = max(backlog_max, hub.pending)
            pumped = perf_counter()
            network.settle()
            end = perf_counter()
        record.settled()
        cycle_count += 1
        cycle_s += end - start + changed
        cycle_pump_s += end - pumped
        timed += end - start + changed
        published += 1
        if published % CHURN_EVERY == 0:
            close_cycle()
    if cycle_count:
        close_cycle()
    rss_mb = peak_rss_mb()
    return broker_outcome(
        setup,
        churn,
        closed=cycles,
        pump=pump,
        latency_spans=latency_spans,
        steps_per_event=steps_per_event,
        change_s=change_s,
        change_failed=change_failed,
        rss_mb=rss_mb,
        layers={
            "gen.late_max_ms": (0.0, "ms"),
            "transport.backlog_max": (backlog_max, "count"),
        },
    )


# ----------------------------------------------------------------------
# The simulated Figure 6 network


class _Drive:
    """Closed-loop hop-by-hop routing of seeded events through a protocol,
    the way the simulator's brokers would route them, minus queueing."""

    def __init__(self, protocol, topology, seed: int, size: Size) -> None:
        self.protocol = protocol
        self.publishers = topology.publishers()
        self.roots = [topology.broker_of(p) for p in self.publishers]
        self.generator = EventGenerator(CHART1_SPEC, seed=seed + 3, region_of=figure6_region_of)
        self.sample = Reservoir(seed + 1, size.oracle_sample)
        self.count = 0
        self.deliveries = 0
        self.latencies: List[float] = []

    def route(self, tracer: Optional[Tracer], record_latency: bool) -> Tuple[int, float]:
        """Route the next event to every broker it reaches; returns its
        matching steps and the seconds it took."""
        index = self.count
        self.count += 1
        publisher = self.publishers[index % len(self.publishers)]
        root = self.roots[index % len(self.publishers)]
        event = self.generator.event_for(publisher)
        self.sample.offer(index, event)
        protocol = self.protocol
        steps = 0
        with span(tracer, "run"):
            start = perf_counter()
            frontier = deque([(root, protocol.make_message(event, root))])
            while frontier:
                broker, message = frontier.popleft()
                decision = protocol.handle(broker, message)
                steps += decision.matching_steps
                if decision.matched_deliveries:
                    now = perf_counter()
                    self.deliveries += len(decision.matched_deliveries)
                    for client in decision.matched_deliveries:
                        self.sample.delivered(index, client)
                        if record_latency:
                            self.latencies.append(now - start)
                frontier.extend(decision.sends)
            elapsed = perf_counter() - start
        return steps, elapsed


def sim_chart1(seed: int, seconds: float, size: Size, tracer: Optional[Tracer]) -> Outcome:
    """Segments of the discrete-event simulator alternating with segments
    of the closed-loop drive, then runtime subscriptions.  Simulator slices,
    drive chunks, changes and probes are each scaled by the calibration
    unit run right after them; a protocol build by the bursts around it."""
    spec = CHART1_SPEC
    topology = figure6_topology(subscribers_per_broker=SIM_SUBSCRIBERS_PER_BROKER)
    population = SubscriptionGenerator(
        spec, seed=POPULATION_SEED, region_of=figure6_region_of
    ).subscriptions_for(topology.subscribers(), size.sim_subscriptions)
    live = {s.subscription_id: (s.subscriber, s.predicate) for s in population}
    publishers = topology.publishers()
    root = topology.broker_of(publishers[0])
    probe = EventGenerator(spec, seed=seed + 2, region_of=figure6_region_of).event_for(
        publishers[0]
    )

    setup_s: List[float] = []
    setup_wall_s: List[float] = []
    protocol = None
    for _attempt in range(size.setups):
        protocol = None
        gc.collect()
        with span(tracer, "setup"):
            before = hostspeed.scale(BURST_UNITS)
            start = perf_counter()
            with span(tracer, "network.build"):
                context = ProtocolContext(
                    figure6_topology(subscribers_per_broker=SIM_SUBSCRIBERS_PER_BROKER),
                    spec.schema(),
                    population,
                    domains=spec.domains(),
                    factoring_attributes=spec.factoring_attributes,
                )
                protocol = LinkMatchingProtocol(context)
            build_s = perf_counter() - start
            wall = build_s
            ref = build_s * (before + hostspeed.scale(BURST_UNITS)) / 2
            # Routers lower and annotate lazily; one probe per broker forces it.
            for broker in topology.brokers():
                start = perf_counter()
                protocol.handle(broker, protocol.make_message(probe, root))
                elapsed = perf_counter() - start
                wall += elapsed
                ref += elapsed * hostspeed.scale()
        setup_s.append(ref)
        setup_wall_s.append(wall)
    assert protocol is not None
    budget = seconds / 2.0

    drive = _Drive(protocol, topology, seed, size)
    warmup_steps = sum(drive.route(None, False)[0] for _ in range(size.warmup_events))
    steps_per_event = warmup_steps / size.warmup_events

    # The simulator: Poisson publishers at a fixed aggregate rate, advanced
    # in slices of simulated time.
    generator = EventGenerator(spec, seed=seed + 1, region_of=figure6_region_of)
    sim_sample = Reservoir(seed, size.oracle_sample)
    sim_index: Dict[int, int] = {}

    def factory_for(publisher: str):
        make = generator.factory_for(publisher)

        def factory(rng: random.Random) -> Event:
            event = make(rng)
            sim_index[event.event_id] = len(sim_index)
            sim_sample.offer(sim_index[event.event_id], event)
            return event

        return factory

    simulation = NetworkSimulation(topology, protocol, seed=seed)
    per_publisher = SIM_RATE / len(publishers)
    cap = (
        size.max_events // len(publishers)
        if size.max_events is not None
        else int(per_publisher * budget * 50) + 1
    )
    processes = [
        simulation.add_poisson_publisher(p, per_publisher, factory_for(p), cap)
        for p in publishers
    ]
    slice_ticks = seconds_to_ticks(SIM_SLICE_S)
    horizon = 0
    sim_pieces = Pieces()
    sim_timed = 0.0
    drive_pieces = Pieces()
    latency_spans: List[Tuple[int, int, float]] = []
    drive_timed = 0.0
    drive_count = 0
    backlog_max = 0

    def drive_chunk(count: int) -> float:
        """Route ``count`` events through the drive as one scaled piece;
        returns its wall seconds."""
        first = len(drive.latencies)
        wall = 0.0
        for _ in range(count):
            wall += drive.route(tracer, True)[1]
        factor = hostspeed.scale()
        drive_pieces.add(count, wall, factor)
        latency_spans.append((first, len(drive.latencies), factor))
        return wall

    callbacks = simulation.simulator.processed_events
    gc.collect()
    for segment in range(1, size.segments + 1):
        part = segment / size.segments
        while any(p.remaining for p in processes) and not _reached(
            size, budget, part, sim_timed, simulation.published_events
        ):
            horizon += slice_ticks
            before = simulation.published_events
            with span(tracer, "run"):
                start = perf_counter()
                simulation.simulator.run(until_ticks=horizon)
                elapsed = perf_counter() - start
            sim_pieces.add(simulation.published_events - before, elapsed, hostspeed.scale())
            sim_timed += elapsed
            backlog_max = max(
                [backlog_max] + [b.queue_length for b in simulation.brokers.values()]
            )
        while not _reached(size, budget, part, drive_timed, drive_count):
            count = DRIVE_CHUNK
            if size.max_events is not None:
                count = min(count, math.ceil(size.max_events * part) - drive_count)
            drive_timed += drive_chunk(count)
            drive_count += count
    callbacks = simulation.simulator.processed_events - callbacks
    for process in processes:
        process.remaining = 0
    simulation.simulator.run()  # drain in-flight copies (untimed)

    # Subscription changes: one new subscription applied at every router.
    new_predicates = SubscriptionGenerator(spec, seed=seed + 13, region_of=figure6_region_of)
    subscribers = topology.subscribers()
    choices = random.Random(seed + 11)
    change_s: List[float] = []
    change_failed = 0
    for _ in range(size.sim_changes):
        subscription = new_predicates.subscription_for(choices.choice(subscribers))
        try:
            with span(tracer, "run"):
                start = perf_counter()
                protocol.add_subscription(subscription)
                elapsed = perf_counter() - start
        except ReproError:
            change_failed += 1
        else:
            change_s.append(elapsed * hostspeed.scale())
    rss_mb = peak_rss_mb()

    sim_deliveries = 0
    duplicated = set()
    seen = set()
    for delivery in simulation.deliveries:
        if not delivery.matched:
            continue
        sim_deliveries += 1
        key = (delivery.client, delivery.event_id)
        if key in seen:
            duplicated.add(delivery.event_id)
        seen.add(key)
        sim_sample.delivered(sim_index[delivery.event_id], delivery.client)
    failed = check(sim_sample.entries, live) | duplicated
    failed_drive = check(drive.sample.entries, live)
    latencies = scaled(drive.latencies, latency_spans)
    outcome = Outcome()
    outcome.attempted = len(sim_index) + drive.count + size.sim_changes
    outcome.failed = len(failed) + len(failed_drive) + change_failed
    outcome.deliveries = sim_deliveries + drive.deliveries
    outcome.metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "events_per_s": (drive_pieces.median_rate(), "1/s"),
        "latency_p50_ms": (percentile_ms(latencies, 0.50), "ms"),
        "churn_p50_ms": (change_p50_ms({"subscribe": change_s}), "ms"),
        "sim_events_per_s": (sim_pieces.median_rate(), "1/s"),
        "steps_per_event": (steps_per_event, "steps"),
    }
    outcome.untraced_layers = {
        "latency_p90_ms": (percentile_ms(latencies, 0.90), "ms"),
        "latency_p99_ms": (percentile_ms(latencies, 0.99), "ms"),
        "network.build_ms": (build_s * 1e3, "ms"),
        "gen.late_max_ms": (0.0, "ms"),
        "transport.backlog_max": (backlog_max, "count"),
        "sim.callbacks": (callbacks, "count"),
        **wall_layers(
            statistics.median(setup_wall_s),
            drive_pieces,
            percentile_ms(drive.latencies, 0.50),
        ),
    }
    return outcome


WORKLOADS: Dict[str, Callable[[int, float, Size, Optional[Tracer]], Outcome]] = {
    "broker_steady": broker_steady,
    "broker_churn": broker_churn,
    "sim_chart1": sim_chart1,
}
