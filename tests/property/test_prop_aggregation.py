"""Aggregation equivalence: compression must never change an answer.

:class:`~repro.matching.aggregation.AggregatingEngine` must be
indistinguishable from the engine it wraps running *without* aggregation,
for every subscription set, kernel backend, cache capacity, event, and
initialization mask:

* the same match set (compared as sorted subscription ids),
* the same refined link mask, bit for bit, and
* identical answers from the single and batched entry points.

Step counts are deliberately **not** compared across aggregation on/off:
the aggregated engine attributes steps to the deduplicated leaves plus the
forest descent, which differs from the per-subscriber walk by design (the
whole point is to do less work).

The small schema/domain makes duplicate predicate bodies and covering
relations (a looser predicate subsuming a stricter one) arise constantly,
so the generated sets exercise dedup groups, multi-level forests, and
demotion at insert.  A seeded churn test drives inserts and removes —
including removing the last member of covering parents, which must promote
covered children back into the compiled program — with caches enabled, so
the descent cache's flush discipline and ``refresh_links`` repair are under
test the whole time, and the covering forest's shape is checked after every
step (:func:`assert_covering_forest`).
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core import M, N, TritVector, Y
from repro.matching import Event, Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.aggregation import AggregatingEngine
from repro.matching.engines import create_engine
from repro.matching.predicates import EqualityTest, RangeTest
from repro.matching.subsumption import predicate_subsumes

SCHEMA = uniform_schema(4)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}
NUM_LINKS = 5

test_specs = st.one_of(
    st.none(),
    st.sampled_from(DOMAIN),
    st.tuples(
        st.sampled_from([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
        st.sampled_from(DOMAIN),
    ),
)
predicate_specs = st.tuples(*(test_specs for _ in range(4)))
subscription_lists = st.lists(predicate_specs, min_size=0, max_size=20)
events = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(4)))
masks = st.lists(st.sampled_from([Y, M, N]), min_size=NUM_LINKS, max_size=NUM_LINKS).map(
    TritVector
)
inner_kinds = st.just("compiled")
capacities = st.sampled_from([0, 64])


def make_subscriptions(specs):
    subscriptions = []
    for index, spec in enumerate(specs):
        tests = {}
        for name, part in zip(SCHEMA.names, spec):
            if part is None:
                continue
            if isinstance(part, tuple):
                tests[name] = RangeTest(part[0], part[1])
            else:
                tests[name] = EqualityTest(part)
        predicate = Predicate(SCHEMA, tests)
        if not predicate.is_satisfiable:
            continue  # both engines refuse these identically; nothing to compare
        subscriptions.append(Subscription(predicate, f"s{index % NUM_LINKS}"))
    return subscriptions


def link_of(subscription):
    return int(subscription.subscriber[1:])


def clone(subscription):
    return Subscription(
        subscription.predicate,
        subscription.subscriber,
        subscription_id=subscription.subscription_id,
    )


def build_pair(subscriptions, *, inner, capacity=0):
    """(unaggregated reference, aggregated) over the same subscription set;
    ``inner`` is the reference's engine spec, aggregation adds ``+agg``."""
    kwargs = dict(domains=DOMAINS, match_cache_capacity=capacity)
    plain = create_engine(inner, SCHEMA, **kwargs)
    aggregated = create_engine(f"{inner}+agg", SCHEMA, **kwargs)
    for subscription in subscriptions:
        plain.insert(subscription)
        aggregated.insert(clone(subscription))
    return plain, aggregated


def assert_same_matches(plain, aggregated, event):
    plain_ids = sorted(s.subscription_id for s in plain.match(event).subscriptions)
    aggregated_ids = sorted(
        s.subscription_id for s in aggregated.match(event).subscriptions
    )
    assert plain_ids == aggregated_ids


def assert_covering_forest(engine):
    """The forest invariant placement relies on: it walks covering sets by
    parent pointer, so every parent/child edge must be a real cover, the
    parent and child links must agree, and the root table must hold
    exactly the parentless groups."""
    for canonical, group in engine._groups.items():
        assert group.canonical == canonical
        if group.parent is None:
            assert engine._roots.get(canonical) is group
        else:
            assert any(child is group for child in group.parent.children)
            assert predicate_subsumes(group.parent.canonical, group.canonical)
        for child in group.children:
            assert child.parent is group
    for canonical, root in engine._roots.items():
        assert root.parent is None
        assert engine._groups.get(canonical) is root


class TestAggregationEquivalence:
    @given(
        specs=subscription_lists,
        event_values=events,
        inner=inner_kinds,
        capacity=capacities,
    )
    @settings(max_examples=150)
    def test_match_sets_equal(self, specs, event_values, inner, capacity):
        plain, aggregated = build_pair(
            make_subscriptions(specs), inner=inner, capacity=capacity
        )
        event = Event.from_tuple(SCHEMA, event_values)
        for _ in range(2):  # second pass hits the descent + projection caches
            assert_same_matches(plain, aggregated, event)
        # The forest never *loses* anyone: members partition over groups.
        assert aggregated.subscription_count == plain.subscription_count
        assert aggregated.root_count <= max(1, aggregated.forest_nodes)

    @given(
        specs=subscription_lists,
        event_values=events,
        mask=masks,
        inner=inner_kinds,
        capacity=capacities,
    )
    @settings(max_examples=150)
    def test_link_masks_exact(self, specs, event_values, mask, inner, capacity):
        plain, aggregated = build_pair(
            make_subscriptions(specs), inner=inner, capacity=capacity
        )
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        for _ in range(2):  # warm pass exercises the memoized link bits
            assert (
                aggregated.match_links(event, mask).mask
                == plain.match_links(event, mask).mask
            )

    @given(specs=subscription_lists, event_values=events, mask=masks)
    @settings(max_examples=60)
    def test_vector_backend_masks_exact(self, specs, event_values, mask):
        """The inner refinement runs over deduplicated leaves on every
        kernel backend; the vector kernels must agree with the reference."""
        plain, aggregated = build_pair(
            make_subscriptions(specs), inner="compiled:vector"
        )
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        assert_same_matches(plain, aggregated, event)
        assert (
            aggregated.match_links(event, mask).mask
            == plain.match_links(event, mask).mask
        )

    @given(specs=subscription_lists, event_values=events, mask=masks)
    @settings(max_examples=60)
    def test_batch_matches_single(self, specs, event_values, mask):
        plain, aggregated = build_pair(make_subscriptions(specs), inner="compiled")
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        batch = aggregated.match_batch([event, event])
        single = aggregated.match(event)
        for result in batch:
            assert sorted(s.subscription_id for s in result.subscriptions) == sorted(
                s.subscription_id for s in single.subscriptions
            )
        link_batch = aggregated.match_links_batch([event, event], mask)
        link_single = aggregated.match_links(event, mask)
        for result in link_batch:
            assert result.mask == link_single.mask
        plain_batch = plain.match_links_batch([event, event], mask)
        for ours, theirs in zip(link_batch, plain_batch):
            assert ours.mask == theirs.mask

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=60)
    def test_brute_force_agrees(self, specs, event_values):
        _, aggregated = build_pair(make_subscriptions(specs), inner="compiled")
        event = Event.from_tuple(SCHEMA, event_values)
        assert sorted(
            s.subscription_id for s in aggregated.match(event).subscriptions
        ) == sorted(
            s.subscription_id for s in aggregated.match_brute_force(event)
        )


class TestIngestOrderInvariance:
    @given(
        specs=subscription_lists,
        event_values=events,
        mask=masks,
        order_seed=st.integers(0, 2**16),
        use_index=st.booleans(),
    )
    @settings(max_examples=100)
    def test_any_ingest_order_gives_identical_answers(
        self, specs, event_values, mask, order_seed, use_index
    ):
        """Forest state is ingest-order invariant: whatever order the same
        subscription set arrives in — and whether the covering search runs
        through the attribute index or the linear sibling scans — the match
        sets and refined link masks are identical to the unaggregated
        reference over the original order."""
        subscriptions = make_subscriptions(specs)
        permuted = list(subscriptions)
        random.Random(order_seed).shuffle(permuted)
        plain = create_engine("compiled", SCHEMA, domains=DOMAINS)
        aggregated = AggregatingEngine(
            create_engine("compiled", SCHEMA, domains=DOMAINS),
            use_index=use_index,
        )
        for subscription in subscriptions:
            plain.insert(subscription)
        for subscription in permuted:
            aggregated.insert(clone(subscription))
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        assert_same_matches(plain, aggregated, event)
        assert (
            aggregated.match_links(event, mask).mask
            == plain.match_links(event, mask).mask
        )
        assert aggregated.subscription_count == plain.subscription_count


class TestChurnEquivalence:
    def _run_churn(self, inner, *, use_index=True, rounds=150, seed=20260807):
        """Seeded insert/remove churn with caches enabled.  Removals target
        *all* live ids uniformly, so covering parents regularly lose their
        last member and must promote covered children back to compiled
        roots mid-stream; every answer and the forest's shape are checked
        immediately after."""
        rng = random.Random(seed)
        plain = create_engine(inner, SCHEMA, domains=DOMAINS)
        aggregated = AggregatingEngine(
            create_engine(inner, SCHEMA, domains=DOMAINS), use_index=use_index
        )
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        live = {}

        def random_subscription():
            tests = {}
            for name in SCHEMA.names:
                roll = rng.random()
                if roll < 0.5:
                    continue  # frequent don't-cares breed covering parents
                if roll < 0.85:
                    tests[name] = EqualityTest(rng.choice(DOMAIN))
                else:
                    tests[name] = RangeTest(
                        rng.choice([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
                        rng.choice(DOMAIN),
                    )
            predicate = Predicate(SCHEMA, tests)
            if not predicate.is_satisfiable:
                return random_subscription()
            return Subscription(predicate, f"s{rng.randrange(NUM_LINKS)}")

        promotions_seen = 0
        for _ in range(rounds):
            if live and rng.random() < 0.45:
                subscription_id = rng.choice(sorted(live))
                del live[subscription_id]
                roots_before = aggregated.root_count
                plain.remove(subscription_id)
                aggregated.remove(subscription_id)
                if aggregated.root_count > roots_before:
                    promotions_seen += 1  # a covering parent dissolved
            else:
                subscription = random_subscription()
                live[subscription.subscription_id] = subscription
                plain.insert(subscription)
                aggregated.insert(clone(subscription))
            assert_covering_forest(aggregated)
            event = Event.from_tuple(
                SCHEMA, tuple(rng.choice(DOMAIN) for _ in SCHEMA.names)
            )
            assert_same_matches(plain, aggregated, event)
            mask = TritVector(rng.choice([Y, M, N]) for _ in range(NUM_LINKS))
            assert (
                aggregated.match_links(event, mask).mask
                == plain.match_links(event, mask).mask
            )
        assert aggregated.subscription_count == len(live)
        assert len(aggregated.subscriptions) == len(live)
        # The workload is built to dissolve covering parents; if this ever
        # stops happening the test has quietly lost its promotion coverage.
        assert promotions_seen > 0
        return aggregated

    def test_churn_compiled_inner(self):
        self._run_churn("compiled")

    def test_churn_compiled_inner_linear_scan(self):
        self._run_churn("compiled", use_index=False)

    def test_direct_wrapper_matches_create_engine(self):
        """Constructing the wrapper directly is the same engine the factory
        builds (the benchmark does this to reach ``cover_scan_limit``)."""
        subscriptions = make_subscriptions([(0, None, None, None), (0, 1, None, None)])
        via_factory = create_engine("compiled+agg", SCHEMA, domains=DOMAINS)
        direct = AggregatingEngine(
            create_engine("compiled", SCHEMA, domains=DOMAINS)
        )
        for subscription in subscriptions:
            via_factory.insert(subscription)
            direct.insert(clone(subscription))
        event = Event.from_tuple(SCHEMA, (0, 1, 0, 0))
        assert_same_matches(via_factory, direct, event)
        assert via_factory.root_count == direct.root_count
