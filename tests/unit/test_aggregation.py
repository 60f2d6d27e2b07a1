"""Unit tests for the online covering forest (repro.matching.aggregation).

The property suite (``tests/property/test_prop_aggregation.py``) pins the
end-to-end equivalence contract; these tests pin the forest mechanics the
equivalence rides on: canonical deduplication, covering attachment and
demotion, child promotion when a covering parent dissolves, the in-place
``refresh_links`` path on membership-only changes, and the error surface.
"""

from __future__ import annotations

import pytest

from repro.core import M, TritVector
from repro.errors import SubscriptionError
from repro.matching import Event, Predicate, Subscription, uniform_schema
from repro.matching.aggregation import (
    AggregatingEngine,
    canonicalize_predicate,
)
from repro.matching.engines import CompiledEngine, TreeEngine, create_engine
from repro.matching.predicates import EqualityTest, RangeOp, RangeTest

SCHEMA = uniform_schema(3)
DOMAINS = {name: [0, 1, 2] for name in SCHEMA.names}
NUM_LINKS = 4


def predicate(**tests):
    return Predicate(SCHEMA, tests)


def sub(subscriber="s0", **tests):
    return Subscription(predicate(**tests), subscriber)


def event(values=(0, 0, 0)):
    return Event.from_tuple(SCHEMA, values)


def make_engine(**kwargs):
    return AggregatingEngine(
        CompiledEngine(SCHEMA, domains=DOMAINS), **kwargs
    )


def link_of(subscription):
    return int(subscription.subscriber[1:])


def matched_ids(engine, ev):
    return sorted(s.subscription_id for s in engine.match(ev).subscriptions)


class TestCanonicalization:
    def test_strict_integer_bounds_close(self):
        loose = canonicalize_predicate(predicate(a1=RangeTest(RangeOp.LT, 2)))
        closed = canonicalize_predicate(predicate(a1=RangeTest(RangeOp.LE, 1)))
        assert loose == closed

    def test_equal_acceptance_predicates_share_a_group(self):
        engine = make_engine()
        first = sub("s0", a1=RangeTest(RangeOp.LT, 2))
        second = sub("s1", a1=RangeTest(RangeOp.LE, 1))
        engine.insert(first)
        engine.insert(second)
        assert engine.forest_nodes == 1
        assert engine.root_count == 1
        assert engine.dedup_hits == 1
        assert engine.compression_ratio == 2.0
        canonical, members, is_root = engine.group_of(first.subscription_id)
        assert members == 2 and is_root
        assert engine.group_of(second.subscription_id)[0] == canonical

    def test_dont_cares_and_equalities_pass_through(self):
        original = predicate(a1=EqualityTest(1))
        assert canonicalize_predicate(original) is original


class TestCoveringForest:
    def test_covered_insert_is_not_compiled(self):
        engine = make_engine()
        engine.insert(sub("s0"))  # empty predicate covers everything
        strict = sub("s1", a1=EqualityTest(1))
        engine.insert(strict)
        assert engine.forest_nodes == 2
        assert engine.root_count == 1  # only the cover reached the inner engine
        assert engine.inner.subscription_count == 1
        assert not engine.group_of(strict.subscription_id)[2]

    def test_later_cover_demotes_existing_roots(self):
        engine = make_engine()
        strict = sub("s0", a1=EqualityTest(1))
        engine.insert(strict)
        assert engine.group_of(strict.subscription_id)[2]
        engine.insert(sub("s1"))  # covers the earlier root
        assert engine.root_count == 1
        assert not engine.group_of(strict.subscription_id)[2]
        assert matched_ids(engine, event((1, 0, 0))) == sorted(
            s.subscription_id for s in engine.subscriptions
        )

    def test_removing_covering_parent_promotes_children(self):
        engine = make_engine()
        parent = sub("s0")
        left = sub("s1", a1=EqualityTest(0))
        right = sub("s2", a1=EqualityTest(1))
        for subscription in (parent, left, right):
            engine.insert(subscription)
        assert engine.root_count == 1
        engine.remove(parent.subscription_id)
        assert engine.root_count == 2
        assert engine.group_of(left.subscription_id)[2]
        assert engine.group_of(right.subscription_id)[2]
        assert matched_ids(engine, event((0, 0, 0))) == [left.subscription_id]
        assert matched_ids(engine, event((1, 0, 0))) == [right.subscription_id]

    def test_removing_covered_group_reattaches_grandchildren(self):
        engine = make_engine()
        root = sub("s0")
        middle = sub("s1", a1=EqualityTest(0))
        leaf = sub("s2", a1=EqualityTest(0), a2=EqualityTest(0))
        for subscription in (root, middle, leaf):
            engine.insert(subscription)
        engine.remove(middle.subscription_id)
        assert engine.forest_nodes == 2
        assert engine.root_count == 1
        assert matched_ids(engine, event((0, 0, 0))) == sorted(
            [root.subscription_id, leaf.subscription_id]
        )

    def test_scan_limit_degrades_to_extra_roots_not_wrong_answers(self):
        engine = make_engine(cover_scan_limit=0)
        engine.insert(sub("s0"))
        strict = sub("s1", a1=EqualityTest(1))
        engine.insert(strict)
        # No cover search at all: both groups compile as roots...
        assert engine.root_count == 2
        # ...and matching is still exact.
        assert matched_ids(engine, event((1, 0, 0))) == sorted(
            s.subscription_id for s in engine.subscriptions
        )

    def test_member_removal_keeps_group_alive(self):
        engine = make_engine()
        first = sub("s0", a1=EqualityTest(1))
        second = sub("s1", a1=EqualityTest(1))
        engine.insert(first)
        engine.insert(second)
        engine.remove(first.subscription_id)
        assert engine.forest_nodes == 1
        assert engine.subscription_count == 1
        assert matched_ids(engine, event((1, 0, 0))) == [second.subscription_id]

    def test_cover_scan_accounting(self):
        engine = make_engine()
        engine.insert(sub("s0"))
        engine.insert(sub("s1", a1=EqualityTest(1)))
        assert engine.cover_probes == 2
        assert engine.mean_cover_candidates >= 0.0


class TestLinearMode:
    """The ``use_index=False`` path must build the same kind of forest
    through the bounded linear sibling scans."""

    def test_covered_insert_is_not_compiled(self):
        engine = make_engine(use_index=False)
        assert engine._index is None
        engine.insert(sub("s0"))
        strict = sub("s1", a1=EqualityTest(1))
        engine.insert(strict)
        assert engine.root_count == 1
        assert not engine.group_of(strict.subscription_id)[2]

    def test_later_cover_demotes_existing_roots(self):
        engine = make_engine(use_index=False)
        strict = sub("s0", a1=EqualityTest(1))
        engine.insert(strict)
        engine.insert(sub("s1"))
        assert engine.root_count == 1
        assert not engine.group_of(strict.subscription_id)[2]
        assert matched_ids(engine, event((1, 0, 0))) == sorted(
            s.subscription_id for s in engine.subscriptions
        )

    def test_dissolving_parent_promotes_children(self):
        engine = make_engine(use_index=False)
        parent = sub("s0")
        left = sub("s1", a1=EqualityTest(0))
        right = sub("s2", a1=EqualityTest(1))
        for subscription in (parent, left, right):
            engine.insert(subscription)
        engine.remove(parent.subscription_id)
        assert engine.root_count == 2
        assert matched_ids(engine, event((0, 0, 0))) == [left.subscription_id]

    def test_matches_indexed_forest_shape_on_small_pool(self):
        subscriptions = [
            sub("s0"),
            sub("s1", a1=EqualityTest(1)),
            sub("s2", a1=EqualityTest(1), a2=EqualityTest(0)),
            sub("s3", a2=RangeTest(RangeOp.LE, 1)),
            sub("s4", a1=EqualityTest(1)),
        ]
        indexed = make_engine()
        linear = make_engine(use_index=False)
        for subscription in subscriptions:
            indexed.insert(Subscription(subscription.predicate, subscription.subscriber))
            linear.insert(Subscription(subscription.predicate, subscription.subscriber))
        assert indexed.root_count == linear.root_count
        assert indexed.forest_nodes == linear.forest_nodes
        assert indexed.compression_ratio == linear.compression_ratio


class TestDescentCacheRepair:
    def test_dedup_insert_evicts_only_matching_entries(self):
        engine = make_engine()
        engine.insert(sub("s0"))  # universal root
        engine.insert(sub("s1", a1=EqualityTest(1)))  # covered group
        hit, miss = event((1, 0, 0)), event((0, 0, 0))
        engine.match(hit)
        engine.match(miss)
        assert len(engine._descent_cache) == 2
        extra = sub("s2", a1=EqualityTest(1))
        engine.insert(extra)  # dedup hit into the Eq(1) group
        # Only the entry whose event satisfies Eq(1) is stale; the miss
        # entry survives the surgical repair.
        assert len(engine._descent_cache) == 1
        assert extra.subscription_id in matched_ids(engine, hit)

    def test_member_removal_reaches_surviving_stream(self):
        engine = make_engine()
        keep = sub("s0", a1=EqualityTest(1))
        drop = sub("s1", a1=EqualityTest(1))
        engine.insert(keep)
        engine.insert(drop)
        hit, miss = event((1, 0, 0)), event((0, 0, 0))
        engine.match(hit)
        engine.match(miss)
        engine.remove(drop.subscription_id)
        assert matched_ids(engine, hit) == [keep.subscription_id]
        assert matched_ids(engine, miss) == []

    def test_new_root_insert_evicts_entries_it_now_matches(self):
        engine = make_engine()
        engine.insert(sub("s0", a1=EqualityTest(0)))
        ev = event((1, 0, 0))
        assert matched_ids(engine, ev) == []
        late = sub("s1", a1=EqualityTest(1))
        engine.insert(late)
        assert matched_ids(engine, ev) == [late.subscription_id]

    def test_repair_limit_falls_back_to_flush(self):
        engine = make_engine()
        engine._descent_repair_limit = 0
        engine.insert(sub("s0", a1=EqualityTest(1)))
        engine.match(event((0, 0, 0)))  # non-matching entry cached
        assert len(engine._descent_cache) == 1
        engine.insert(sub("s1", a1=EqualityTest(2)))  # any churn now flushes
        assert len(engine._descent_cache) == 0


class TestCompiledDescent:
    def _warm_engine(self, **kwargs):
        engine = make_engine(
            subtree_compile_threshold=2, subtree_min_size=1, **kwargs
        )
        engine.insert(sub("s0"))  # universal root
        engine.insert(sub("s1", a1=EqualityTest(1)))
        engine.insert(sub("s2", a2=EqualityTest(2)))
        return engine

    def test_hot_subtree_compiles_and_matches_identically(self):
        engine = self._warm_engine()
        # Distinct events: descent hits only accumulate on cache misses.
        first = matched_ids(engine, event((1, 0, 0)))
        assert engine.subtree_compiles == 0
        second = matched_ids(engine, event((0, 2, 0)))
        assert engine.subtree_compiles == 1
        root = next(iter(engine._roots.values()))
        assert root.subtree_program is not None
        ids = {s.subscription_id for s in engine.subscriptions}
        by_subscriber = {
            s.subscriber: s.subscription_id for s in engine.subscriptions
        }
        assert set(first) == {by_subscriber["s0"], by_subscriber["s1"]}
        assert set(second) == {by_subscriber["s0"], by_subscriber["s2"]}
        # Compiled descent serves subsequent misses with the same answers.
        third = matched_ids(engine, event((1, 2, 0)))
        assert set(third) == ids

    def test_structural_churn_invalidates_the_program(self):
        engine = self._warm_engine()
        matched_ids(engine, event((1, 0, 0)))
        matched_ids(engine, event((0, 2, 0)))
        assert engine.subtree_compiles == 1
        late = sub("s3", a3=EqualityTest(0))
        engine.insert(late)  # attaches under the universal root
        root = next(iter(engine._roots.values()))
        assert root.subtree_program is None
        # The counter warms back up and the recompiled program sees s3.
        matched = matched_ids(engine, event((2, 0, 0)))
        matched = matched_ids(engine, event((2, 1, 0)))
        assert engine.subtree_compiles == 2
        assert late.subscription_id in matched

    def test_threshold_zero_disables_compiled_descent(self):
        engine = self._warm_engine()
        engine.subtree_compile_threshold = 0
        for a1 in range(3):
            for a2 in range(3):
                matched_ids(engine, event((a1, a2, 0)))
        assert engine.subtree_compiles == 0

    def test_small_subtrees_reset_instead_of_compiling(self):
        engine = make_engine(subtree_compile_threshold=1, subtree_min_size=5)
        engine.insert(sub("s0"))
        engine.insert(sub("s1", a1=EqualityTest(1)))
        matched_ids(engine, event((1, 0, 0)))
        assert engine.subtree_compiles == 0
        root = next(iter(engine._roots.values()))
        assert root.subtree_program is None
        assert root.descent_hits == 0  # reset: too small to be worth it


class TestLinkRefresh:
    def test_dedup_member_lights_its_link_without_rebuild(self):
        engine = make_engine()
        engine.bind_links(NUM_LINKS, link_of)
        first = sub("s0", a1=EqualityTest(1))
        engine.insert(first)
        mask = TritVector([M] * NUM_LINKS)
        ev = event((1, 0, 0))
        assert [t.name for t in engine.match_links(ev, mask).mask] == [
            "YES", "NO", "NO", "NO",
        ]
        # Same body, different subscriber/link: a membership-only change.
        second = sub("s2", a1=EqualityTest(1))
        engine.insert(second)
        assert engine.root_count == 1
        assert [t.name for t in engine.match_links(ev, mask).mask] == [
            "YES", "NO", "YES", "NO",
        ]
        engine.remove(first.subscription_id)
        assert [t.name for t in engine.match_links(ev, mask).mask] == [
            "NO", "NO", "YES", "NO",
        ]

    def test_covered_members_contribute_links_through_descent(self):
        engine = make_engine()
        engine.bind_links(NUM_LINKS, link_of)
        engine.insert(sub("s0"))
        engine.insert(sub("s3", a1=EqualityTest(1)))  # covered, link 3
        mask = TritVector([M] * NUM_LINKS)
        hit = engine.match_links(event((1, 0, 0)), mask).mask
        miss = engine.match_links(event((0, 0, 0)), mask).mask
        assert [t.name for t in hit] == ["YES", "NO", "NO", "YES"]
        assert [t.name for t in miss] == ["YES", "NO", "NO", "NO"]


class TestErrorsAndFactory:
    def test_duplicate_id_rejected(self):
        engine = make_engine()
        subscription = sub("s0", a1=EqualityTest(1))
        engine.insert(subscription)
        with pytest.raises(SubscriptionError, match="already registered"):
            engine.insert(subscription)

    def test_unknown_remove_rejected(self):
        with pytest.raises(SubscriptionError, match="unknown subscription"):
            make_engine().remove(12345)

    def test_unsatisfiable_rejected(self):
        unsat = predicate(
            a1=[RangeTest(RangeOp.LT, 1), RangeTest(RangeOp.GT, 1)]
        )
        with pytest.raises(SubscriptionError, match="unsatisfiable"):
            make_engine().insert(Subscription(unsat, "s0"))

    def test_tree_engine_cannot_aggregate(self):
        with pytest.raises(SubscriptionError, match="aggregate"):
            create_engine("tree+agg", SCHEMA)
        with pytest.raises(SubscriptionError, match="refresh"):
            AggregatingEngine(TreeEngine(SCHEMA))

    def test_factory_wraps_compiled(self):
        engine = create_engine("compiled+agg", SCHEMA, domains=DOMAINS)
        assert isinstance(engine, AggregatingEngine)
        engine.insert(sub("s0", a1=EqualityTest(1)))
        assert engine.subscription_count == 1

    def test_subscriptions_lists_members_not_representatives(self):
        engine = make_engine()
        engine.insert(sub("s0", a1=EqualityTest(1)))
        engine.insert(sub("s1", a1=EqualityTest(1)))
        subscribers = sorted(s.subscriber for s in engine.subscriptions)
        assert subscribers == ["s0", "s1"]
