"""Sharding equivalence: any partition, one answer.

:class:`~repro.matching.sharding.ShardedEngine` must be indistinguishable
from the monolithic :class:`~repro.matching.engines.CompiledEngine` for
every subscription set, partition (the hash partition, or the one a forced
rebalance migrates it to), shard count, event, and initialization mask:

* the same match set (compared as sets — shards interleave),
* the same refined link mask, and
* a step count equal to the **sum** over per-shard reference compiled
  engines (each shard walks its own root, so the sum differs from the
  monolithic count by design; the sum itself must be exact).

Step equivalence is pinned with caching disabled (``match_cache_capacity=0``)
and ``early_exit=False``: cached hits replay recorded step counts and early
exit skips shards, so both are knobs the result contract allows to change
*steps* but never results or masks.  A seeded churn test drives inserts,
removes, and forced rebalances through both engines with caches *enabled*
to exercise the surgical cache repair.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core import M, N, TritVector, Y
from repro.matching import Event, Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.engines import CompiledEngine, create_engine
from repro.matching.predicates import EqualityTest, RangeTest
from repro.matching.sharding import ShardedEngine

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
rebalanced = st.booleans()
shard_counts = st.integers(min_value=1, max_value=4)


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
        subscriptions.append(
            Subscription(Predicate(SCHEMA, tests), f"s{index % NUM_LINKS}")
        )
    return subscriptions


def link_of(subscription):
    return int(subscription.subscriber[1:])


def clone(subscription):
    return Subscription(
        subscription.predicate,
        subscription.subscriber,
        subscription_id=subscription.subscription_id,
    )


def build_pair(
    subscriptions, *, num_shards, rebalance=False, capacity=0, early_exit=False
):
    """(monolithic reference, sharded) over the same subscription set; with
    ``rebalance`` the sharded engine's hash partition is then migrated to a
    count-levelled one by a forced rebalance pass."""
    mono = CompiledEngine(SCHEMA, domains=DOMAINS, match_cache_capacity=capacity)
    sharded = ShardedEngine(
        SCHEMA,
        domains=DOMAINS,
        num_shards=num_shards,
        match_cache_capacity=capacity,
        early_exit=early_exit,
    )
    for subscription in subscriptions:
        mono.insert(subscription)
        sharded.insert(clone(subscription))
    if rebalance:
        sharded.rebalance(force=True)
    return mono, sharded


def shard_references(sharded, *, capacity=0):
    """A dedicated compiled engine per shard, for the step-sum contract."""
    references = []
    for shard in sharded.shards:
        reference = CompiledEngine(
            SCHEMA, domains=DOMAINS, match_cache_capacity=capacity
        )
        for subscription in shard.subscriptions:
            reference.insert(clone(subscription))
        references.append(reference)
    return references


def assert_same_matches(mono, sharded, event):
    mono_ids = {s.subscription_id for s in mono.match(event).subscriptions}
    sharded_ids = {s.subscription_id for s in sharded.match(event).subscriptions}
    assert mono_ids == sharded_ids


class TestPartitionEquivalence:
    @given(
        specs=subscription_lists,
        event_values=events,
        num_shards=shard_counts,
        rebalance=rebalanced,
    )
    @settings(max_examples=150)
    def test_match_set_and_step_sum(self, specs, event_values, num_shards, rebalance):
        mono, sharded = build_pair(
            make_subscriptions(specs), num_shards=num_shards, rebalance=rebalance
        )
        event = Event.from_tuple(SCHEMA, event_values)
        assert_same_matches(mono, sharded, event)
        references = shard_references(sharded)
        assert sharded.match(event).steps == sum(
            reference.match(event).steps for reference in references
        )

    @given(
        specs=subscription_lists,
        event_values=events,
        mask=masks,
        num_shards=shard_counts,
        rebalance=rebalanced,
    )
    @settings(max_examples=150)
    def test_link_mask_and_step_sum(
        self, specs, event_values, mask, num_shards, rebalance
    ):
        mono, sharded = build_pair(
            make_subscriptions(specs), num_shards=num_shards, rebalance=rebalance
        )
        mono.bind_links(NUM_LINKS, link_of)
        sharded.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        assert sharded.match_links(event, mask).mask == mono.match_links(event, mask).mask
        references = shard_references(sharded)
        for reference in references:
            reference.bind_links(NUM_LINKS, link_of)
        assert sharded.match_links(event, mask).steps == sum(
            reference.match_links(event, mask).steps for reference in references
        )

    @given(
        specs=subscription_lists,
        event_values=events,
        mask=masks,
        num_shards=shard_counts,
        rebalance=rebalanced,
    )
    @settings(max_examples=100)
    def test_early_exit_and_caches_never_change_results(
        self, specs, event_values, mask, num_shards, rebalance
    ):
        """Early exit and the shard-local caches may only change steps."""
        mono, sharded = build_pair(
            make_subscriptions(specs),
            num_shards=num_shards,
            rebalance=rebalance,
            capacity=64,
            early_exit=True,
        )
        mono.bind_links(NUM_LINKS, link_of)
        sharded.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        for _ in range(2):  # second pass hits the shard-local caches
            assert_same_matches(mono, sharded, event)
            assert (
                sharded.match_links(event, mask).mask
                == mono.match_links(event, mask).mask
            )

    @given(specs=subscription_lists, event_values=events, num_shards=shard_counts)
    @settings(max_examples=60)
    def test_batch_matches_single(self, specs, event_values, num_shards):
        _, sharded = build_pair(
            make_subscriptions(specs), num_shards=num_shards
        )
        event = Event.from_tuple(SCHEMA, event_values)
        batch = sharded.match_batch([event, event])
        single = sharded.match(event)
        for result in batch:
            assert {s.subscription_id for s in result.subscriptions} == {
                s.subscription_id for s in single.subscriptions
            }


class TestChurnEquivalence:
    def test_churn_and_rebalance_stay_equivalent(self):
        """Seeded insert/remove churn with caches enabled: surgical cache
        repair and per-shard patching must keep every answer exact, before
        and after forced rebalance passes."""
        rng = random.Random(20260807)
        mono = CompiledEngine(SCHEMA, domains=DOMAINS)
        sharded = create_engine("sharded/3", SCHEMA, domains=DOMAINS)
        mono.bind_links(NUM_LINKS, link_of)
        sharded.bind_links(NUM_LINKS, link_of)
        live = {}

        def random_subscription():
            tests = {}
            for name in SCHEMA.names:
                roll = rng.random()
                if roll < 0.4:
                    continue
                if roll < 0.8:
                    tests[name] = EqualityTest(rng.choice(DOMAIN))
                else:
                    tests[name] = RangeTest(
                        rng.choice([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
                        rng.choice(DOMAIN),
                    )
            return Subscription(Predicate(SCHEMA, tests), f"s{rng.randrange(NUM_LINKS)}")

        for round_index in range(150):
            if live and rng.random() < 0.4:
                subscription_id = rng.choice(sorted(live))
                del live[subscription_id]
                mono.remove(subscription_id)
                sharded.remove(subscription_id)
            else:
                subscription = random_subscription()
                live[subscription.subscription_id] = subscription
                mono.insert(subscription)
                sharded.insert(clone(subscription))
            if round_index % 37 == 36:
                sharded.rebalance(force=True)
            event = Event.from_tuple(
                SCHEMA, tuple(rng.choice(DOMAIN) for _ in SCHEMA.names)
            )
            assert_same_matches(mono, sharded, event)
            mask = TritVector(rng.choice([Y, M, N]) for _ in range(NUM_LINKS))
            assert (
                sharded.match_links(event, mask).mask
                == mono.match_links(event, mask).mask
            )
        assert sharded.subscription_count == len(live)
        assert len(sharded.subscriptions) == len(live)
