"""Sharded parallel matching: S independent compiled programs, one answer.

The link-matching core is embarrassingly partitionable: split the
subscription set into disjoint groups, build one
:class:`~repro.matching.compile.CompiledProgram` per group, and merge the
per-group answers —

* ``match`` / ``match_batch`` by *union* (the groups are disjoint, so the
  union is exact and duplicate-free);
* ``match_links`` / ``match_links_batch`` by the paper's own **Parallel
  Combine** operator (Section 3) over packed trit masks.  Every shard
  refines the *same* initialization mask; a shard's final mask is
  ``init_yes | (init_maybe & links-with-a-matching-subscription)``, and
  Parallel Combine of all-resolved masks is a bitwise OR of their Yes bits,
  so the merged mask equals the monolithic engine's bit for bit.

Because the merge is exact, :class:`ShardedEngine` is *result- and
mask-equivalent* to :class:`~repro.matching.engines.CompiledEngine` for any
partition (the property suite in ``tests/property/test_prop_sharding.py``
pins this down).  Step counts are reported as the **sum over executed
shards** — each shard's count is exactly what a dedicated compiled engine
over that shard's subscriptions would report, but the sum differs from the
monolithic count (every shard walks its own root), so Chart 2/3 numbers are
only comparable within one engine choice.

What sharding buys:

* **cheap churn** — ``insert``/``remove`` patch only the owning shard;
  waste and recompile accounting are per-shard, so a waste-triggered
  recompile re-lowers one shard's subscriptions instead of all of them.
  The engine keeps a *shard-local event cache* in front of each shard's
  kernel, keyed by the event's full value tuple (computed once per event
  and shared by every shard's lookup), so a warm shard answers a repeated
  event with a single dict probe.  Because those keys are independent of
  the compiled program's structure, churn maintains them *surgically*:
  an insert evicts only the entries its new subscription matches, a
  remove only the entries that contained it — instead of the wholesale
  flush the monolithic engine's projection-keyed caches must do on every
  patch.  This is where the measured wins come from (see
  ``benchmarks/shard_scaling.py``): on churn-heavy streams the monolithic
  engine keeps cold caches while the sharded engine's stay hot.
* **early exit** — link matching stops visiting shards once every Maybe
  trit of the initialization mask has resolved to Yes (remaining shards
  could only re-confirm; Parallel Combine is monotone in Yes).

Shards run serially in the calling thread.  The kernels are pure Python
and hold the GIL, and ``benchmarks/shard_scaling.py`` measured thread
workers slower than serial sharding at every shard count, so the win is
the smaller per-shard frontiers and per-shard caches, not parallelism.

Subscriptions are partitioned by a hash of their *first indexed
attribute* test (the first non-don't-care test in tree attribute order).
Subscriptions that branch the same way at the root co-locate, so the other
shards' trees never even grow that branch and their frontiers stay narrow.
A :meth:`ShardedEngine.rebalance` pass measures exact per-shard node
counts, exports the skew gauge, and — when ``max/mean`` skew exceeds the
threshold — migrates subscriptions from the heaviest shards to the
lightest until subscription counts level out (each migration is a plain
remove + insert, so per-shard patching absorbs it).
"""

from __future__ import annotations

import zlib
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RoutingError, SubscriptionError
from repro.core.annotation import LinkOfSubscriber
from repro.core.link_matcher import LinkMatchResult
from repro.core.trits import TritVector, pack_tritvector, unpack_tritvector
from repro.matching.backends import DEFAULT_BACKEND
from repro.matching.base import MatcherEngine, union_merge
from repro.matching.compile import DEFAULT_MATCH_CACHE_CAPACITY, ProjectionCache
from repro.matching.engines import BATCH_SIZE_BUCKETS, DEFAULT_SHARDS, CompiledEngine
from repro.matching.events import Event
from repro.matching.pst import MatchResult
from repro.matching.predicates import Subscription, value_tuple_test
from repro.matching.schema import AttributeValue, EventSchema
from repro.obs import get_registry

#: ``rebalance()`` migrates when ``max_nodes / mean_nodes`` exceeds this.
DEFAULT_REBALANCE_THRESHOLD = 1.5

#: Shard-local caches holding more entries than this are flushed instead of
#: repaired on churn: a repair scans every resident entry, so past this
#: point re-walking the handful of genuinely stale events is cheaper.
REPAIR_SCAN_LIMIT = 2048

#: Bucket boundaries of the ``engine.shard.merge_time`` histogram (seconds).
MERGE_TIME_BUCKETS_S = (1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 1e-3, 1e-2)


def _stable_shard_hash(text: str) -> int:
    """Deterministic across processes (``hash()`` of a str is salted)."""
    return zlib.crc32(text.encode("utf-8"))


class _Shard(CompiledEngine):
    """One shard: a compiled engine plus per-shard labeled instruments.

    The inherited (unlabeled) ``engine.compiled.*`` counters keep counting
    as the aggregate across shards; the labeled ``engine.shard.*`` family
    splits recompiles and node counts per shard for skew diagnosis.
    """

    def __init__(
        self,
        index: int,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        match_cache_capacity: int = DEFAULT_MATCH_CACHE_CAPACITY,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        super().__init__(
            schema,
            attribute_order=attribute_order,
            domains=domains,
            match_cache_capacity=match_cache_capacity,
            backend=backend,
        )
        self.index = index
        registry = get_registry()
        self._obs_shard_recompiles = registry.counter(
            "engine.shard.recompiles", shard=str(index)
        )
        self._obs_shard_nodes = registry.gauge("engine.shard.nodes", shard=str(index))

    def _ensure_program(self):
        compiled = self._program is None
        program = super()._ensure_program()
        if compiled:
            self._obs_shard_recompiles.inc()
            self._obs_shard_nodes.set(program.node_count)
        return program


class ShardedEngine(MatcherEngine):
    """S disjoint compiled shards behind the single-engine interface.

    Parameters beyond the usual engine ones:

    ``num_shards``
        How many shards to partition over (>= 1; 1 degenerates to a
        monolithic compiled engine plus merge overhead).
    ``backend``
        The kernel backend every shard compiles with (one of
        :data:`~repro.matching.backends.BACKEND_NAMES`).  Results are
        identical across backends, pinned by
        ``tests/property/test_prop_backends.py``.
    ``rebalance_threshold`` / ``rebalance_interval``
        :meth:`rebalance` migrates when node-count skew (``max/mean``)
        exceeds the threshold.  With ``rebalance_interval > 0`` a pass runs
        automatically every that-many mutations; ``0`` leaves rebalancing
        to explicit calls.
    ``early_exit``
        Stop visiting shards during link matching once every Maybe
        trit of the initialization mask has resolved to Yes.  Exact either
        way; disabling it makes reported step counts independent of shard
        order (the property suite does).
    """

    name = "sharded"

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        num_shards: int = DEFAULT_SHARDS,
        match_cache_capacity: int = DEFAULT_MATCH_CACHE_CAPACITY,
        rebalance_threshold: float = DEFAULT_REBALANCE_THRESHOLD,
        rebalance_interval: int = 0,
        early_exit: bool = True,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        if num_shards < 1:
            raise SubscriptionError("num_shards must be >= 1")
        self.schema = schema
        self._shards: List[_Shard] = [
            _Shard(
                index,
                schema,
                attribute_order=attribute_order,
                domains=domains,
                match_cache_capacity=match_cache_capacity,
                backend=backend,
            )
            for index in range(num_shards)
        ]
        self.backend_name = self._shards[0].backend_name
        #: subscription_id -> owning shard index; the single source of truth
        #: for removes and migrations, whatever the partition hash said.
        self._owner: Dict[int, int] = {}
        # Partition hash: positions in tree attribute order, so "first
        # indexed attribute" means the first level the subscription branches at.
        tree = self._shards[0].tree
        self._hash_positions: Tuple[int, ...] = tuple(
            schema.position_of(name) for name in tree.attribute_order
        )
        # Shard-local event caches: full-value-tuple -> that shard's result.
        # The key is sound for any shard (a shard's answer depends only on
        # event values) and is computed once per event, so a warm shard
        # serves a repeated event with a single dict probe.  Churn repairs
        # only the owning shard's entries (_repair_shard).  Capacity 0
        # disables them, matching the inner caches' convention.
        self._event_caches: Optional[List[ProjectionCache]] = None
        self._link_caches: Optional[List[ProjectionCache]] = None
        if match_cache_capacity > 0:
            self._event_caches = [
                ProjectionCache(match_cache_capacity, kind="shard")
                for _ in range(num_shards)
            ]
            self._link_caches = [
                ProjectionCache(match_cache_capacity, kind="shard_links")
                for _ in range(num_shards)
            ]
        self._num_links: Optional[int] = None
        self._link_of_subscriber: Optional[LinkOfSubscriber] = None
        self.early_exit = early_exit
        self.rebalance_threshold = rebalance_threshold
        self.rebalance_interval = rebalance_interval
        self._mutations = 0
        registry = get_registry()
        self._obs_matches = registry.counter("engine.matches", engine=self.name)
        self._obs_match_steps = registry.counter("engine.match_steps", engine=self.name)
        self._obs_link_matches = registry.counter("engine.link_matches", engine=self.name)
        self._obs_link_match_steps = registry.counter(
            "engine.link_match_steps", engine=self.name
        )
        self._obs_batch_size = registry.histogram(
            "engine.match_batch.size", BATCH_SIZE_BUCKETS, engine=self.name
        )
        self._obs_skew = registry.gauge("engine.shard.skew")
        self._obs_rebalances = registry.counter("engine.shard.rebalances")
        self._obs_migrations = registry.counter("engine.shard.migrations")
        self._obs_merge_time = registry.histogram(
            "engine.shard.merge_time", MERGE_TIME_BUCKETS_S
        )
        # perf_counter costs even when the histogram is a no-op, so merge
        # timing is gated on whether the registry was live at construction.
        self._time_merges = registry.enabled

    # ------------------------------------------------------------------
    # Introspection

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> List[CompiledEngine]:
        """The per-shard engines (read-only use: tests, benchmarks, repr)."""
        return list(self._shards)

    def shard_of(self, subscription_id: int) -> int:
        """Owning shard index of a registered subscription."""
        index = self._owner.get(subscription_id)
        if index is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        return index

    @property
    def subscriptions(self) -> List[Subscription]:
        merged: List[Subscription] = []
        for shard in self._shards:
            merged.extend(shard.subscriptions)
        return merged

    @property
    def subscription_count(self) -> int:
        return len(self._owner)

    def match_brute_force(self, event: Event) -> List[Subscription]:
        """Reference semantics: evaluate every predicate directly."""
        merged: List[Subscription] = []
        for shard in self._shards:
            merged.extend(shard.match_brute_force(event))
        return merged

    # ------------------------------------------------------------------
    # Partitioned churn

    def insert(self, subscription: Subscription) -> None:
        subscription_id = subscription.subscription_id
        if subscription_id in self._owner:
            raise SubscriptionError(
                f"subscription #{subscription_id} is already registered"
            )
        index = self._hash_shard(subscription)
        self._shards[index].insert(subscription)
        self._owner[subscription_id] = index
        self._repair_shard(index, subscription)
        self._invalidate_link_projection()
        self._after_mutation()

    def remove(self, subscription_id: int) -> Subscription:
        index = self._owner.pop(subscription_id, None)
        if index is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        subscription = self._shards[index].remove(subscription_id)
        self._repair_shard(index, subscription)
        self._invalidate_link_projection()
        self._after_mutation()
        return subscription

    def invalidate(self) -> None:
        """Drop every shard's compiled form (next match re-lowers each)."""
        for index, shard in enumerate(self._shards):
            shard.invalidate()
            self._flush_shard(index)

    def _flush_shard(self, index: int) -> None:
        """Drop one shard's event caches after its subscription set changed."""
        if self._event_caches is not None:
            self._event_caches[index].flush()
            self._link_caches[index].flush()

    # Churn repairs the owning shard's event caches *surgically* rather than
    # flushing them.  The cache keys are full value tuples — independent of
    # the compiled program's structure (unlike the inner projection keys, so
    # this is only possible at the sharding layer) — which makes stale
    # entries exactly identifiable:
    #
    # * insert: only events the new subscription *matches* can change answer;
    #   everything else keeps serving hits.
    # * remove: only events whose cached result *contained* the subscription
    #   (event cache) / that its predicate matched (link cache) can change.
    #
    # Evicted entries are re-walked on the next access, so cached result
    # sets and masks are always exact.  Surviving entries replay the step
    # count recorded when they were filled (a later patch may have changed
    # what a fresh walk of the same event would count); the property suite
    # pins step equivalence with caching disabled.

    def _repair_shard(self, index: int, subscription: Subscription) -> None:
        """Evict exactly the entries ``subscription`` can change the answer
        for: those whose event its predicate matches.  The test is the same
        whether the subscription was inserted (entries it matches would gain
        it) or removed (cached entries are exact, so an entry contained the
        subscription iff its predicate matches the event)."""
        if self._event_caches is None:
            return
        event_cache = self._event_caches[index]
        link_cache = self._link_caches[index]
        if len(event_cache) + len(link_cache) > REPAIR_SCAN_LIMIT:
            self._flush_shard(index)
            return
        matches_values = self._staleness_test(subscription)
        event_cache.evict_if(lambda key, _result: matches_values(key))
        link_cache.evict_if(lambda key, _packed: matches_values(key[0]))

    @staticmethod
    def _staleness_test(subscription: Subscription):
        """A fast ``values_tuple -> bool`` for repair scans — the shared
        equality-first evaluator of
        :func:`~repro.matching.predicates.value_tuple_test` (the aggregating
        engine's descent-cache repair runs the same one)."""
        return value_tuple_test(subscription.predicate)

    def _hash_shard(self, subscription: Subscription) -> int:
        tests = subscription.predicate.tests
        for position in self._hash_positions:
            test = tests[position]
            if not test.is_dont_care:
                return _stable_shard_hash(f"{position}:{test!r}") % len(self._shards)
        # All-don't-care predicates sit on the star chain of any shard.
        return 0

    def _after_mutation(self) -> None:
        self._mutations += 1
        if self.rebalance_interval > 0 and self._mutations % self.rebalance_interval == 0:
            self.rebalance()

    # ------------------------------------------------------------------
    # Rebalancing

    def node_counts(self) -> List[int]:
        """Exact per-shard PST node counts (walks every shard's tree); also
        refreshes the per-shard gauges."""
        counts = [shard.tree.node_count() for shard in self._shards]
        for shard, count in zip(self._shards, counts):
            shard._obs_shard_nodes.set(count)
        return counts

    def skew(self) -> float:
        """Node-count skew ``max/mean`` (1.0 = perfectly even)."""
        counts = self.node_counts()
        mean = sum(counts) / len(counts)
        skew = max(counts) / mean if mean else 1.0
        self._obs_skew.set(skew)
        return skew

    def rebalance(self, *, force: bool = False) -> int:
        """Migrate subscriptions off overloaded shards; returns how many moved.

        A no-op while :meth:`skew` is at or under ``rebalance_threshold``
        (unless ``force``).  Migration levels *subscription* counts — the
        measurable, O(1)-maintained proxy that node-count skew tracks — by
        repeatedly moving one subscription from the currently heaviest shard
        to the lightest.  Each move is a plain
        remove + insert, so the two touched shards patch (or recompile)
        exactly as organic churn would.
        """
        if not force and self.skew() <= self.rebalance_threshold:
            return 0
        shards = self._shards
        sizes = [len(shard.tree) for shard in shards]
        moved = 0
        touched: set = set()
        donors: Dict[int, List[Subscription]] = {}
        while True:
            heavy = max(range(len(sizes)), key=sizes.__getitem__)
            light = min(range(len(sizes)), key=sizes.__getitem__)
            if sizes[heavy] - sizes[light] <= 1:
                break
            pool = donors.get(heavy)
            if not pool:
                pool = donors[heavy] = shards[heavy].subscriptions
            subscription = pool.pop()
            shards[heavy].remove(subscription.subscription_id)
            shards[light].insert(subscription)
            self._owner[subscription.subscription_id] = light
            sizes[heavy] -= 1
            sizes[light] += 1
            touched.update((heavy, light))
            moved += 1
        for index in touched:
            self._flush_shard(index)
        if moved:
            self._obs_rebalances.inc()
            self._obs_migrations.inc(moved)
            self.skew()  # refresh counts and the gauges
        return moved

    # ------------------------------------------------------------------
    # Matching (union merge)

    def _shard_match(self, shard: _Shard, event: Event, key) -> MatchResult:
        """One shard's answer via its shard-local event cache."""
        if self._event_caches is None:
            return shard.program.match(event)
        cache = self._event_caches[shard.index]
        result = cache.get(key)
        if result is None:
            result = shard.program.match(event)
            cache.put(key, result)
        return result

    def _shard_match_batch(
        self, shard: _Shard, events: Sequence[Event], keys: Sequence[tuple]
    ) -> List[MatchResult]:
        """One shard's per-event answers, filling cache misses in one batch."""
        if self._event_caches is None:
            return shard.program.match_batch(events)
        cache = self._event_caches[shard.index]
        results: List[Optional[MatchResult]] = [cache.get(key) for key in keys]
        missing = [i for i, result in enumerate(results) if result is None]
        if missing:
            fresh = shard.program.match_batch([events[i] for i in missing])
            for i, result in zip(missing, fresh):
                results[i] = result
                cache.put(keys[i], result)
        return results  # type: ignore[return-value]

    def match(self, event: Event) -> MatchResult:
        key = event.as_tuple()
        results = [self._shard_match(shard, event, key) for shard in self._shards]
        started = perf_counter() if self._time_merges else 0.0
        merged = union_merge(results)
        if self._time_merges:
            self._obs_merge_time.observe(perf_counter() - started)
        self._obs_matches.inc()
        self._obs_match_steps.inc(merged.steps)
        return merged

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        if not events:
            return []
        self._obs_batch_size.observe(len(events))
        keys = [event.as_tuple() for event in events]
        per_shard = [
            self._shard_match_batch(shard, events, keys) for shard in self._shards
        ]
        started = perf_counter() if self._time_merges else 0.0
        merged = [
            union_merge(results[i] for results in per_shard)
            for i in range(len(events))
        ]
        total_steps = sum(result.steps for result in merged)
        if self._time_merges:
            self._obs_merge_time.observe(perf_counter() - started)
        self._obs_matches.inc(len(events))
        self._obs_match_steps.inc(total_steps)
        return merged

    # ------------------------------------------------------------------
    # Link matching (Parallel-Combine merge)

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        self._num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        self._invalidate_link_projection()
        for shard in self._shards:
            shard.bind_links(num_links, link_of_subscriber)
            # A new annotation invalidates every cached link answer.
            if self._link_caches is not None:
                self._link_caches[shard.index].flush()

    def refresh_links(self, subscription: Subscription) -> None:
        """Refresh the owning shard's annotation after ``subscription``'s
        link mapping changed without a structural change (the aggregation
        layer's membership-only updates).  Only the owning shard's program
        re-annotates its path, and only that shard's cached link answers
        for events the predicate matches are evicted — the same surgical
        repair churn gets."""
        index = self._owner.get(subscription.subscription_id)
        if index is None:
            return
        self._shards[index].refresh_links(subscription)
        if self._link_caches is not None:
            cache = self._link_caches[index]
            if len(cache) > REPAIR_SCAN_LIMIT:
                cache.flush()
            else:
                matches_values = self._staleness_test(subscription)
                cache.evict_if(lambda key, _packed: matches_values(key[0]))

    def _require_links(self) -> int:
        if self._num_links is None:
            raise RoutingError(
                f"{type(self).__name__}.match_links() requires a prior bind_links()"
            )
        return self._num_links

    def _check_mask(self, initialization_mask: TritVector) -> None:
        if len(initialization_mask) != self._num_links:
            raise ValueError(
                f"trit vector length mismatch: {self._num_links} vs "
                f"{len(initialization_mask)}"
            )

    def _shard_match_links(
        self, shard: _Shard, event: Event, key: tuple, yes_bits: int, maybe_bits: int
    ) -> "Tuple[int, int]":
        """One shard's packed link answer via its shard-local link cache."""
        if self._link_caches is None:
            return shard._match_links_packed(event, yes_bits, maybe_bits)
        cache = self._link_caches[shard.index]
        cache_key = (key, yes_bits, maybe_bits)
        packed = cache.get(cache_key)
        if packed is None:
            packed = shard._match_links_packed(event, yes_bits, maybe_bits)
            cache.put(cache_key, packed)
        return packed

    def match_links(
        self, event: Event, initialization_mask: TritVector
    ) -> LinkMatchResult:
        num_links = self._require_links()
        self._check_mask(initialization_mask)
        yes_bits, maybe_bits = pack_tritvector(initialization_mask)
        key = event.as_tuple()
        merged_yes = yes_bits
        steps = 0
        for shard in self._shards:
            if self.early_exit and merged_yes & maybe_bits == maybe_bits:
                # Every Maybe has resolved to Yes; Parallel Combine is
                # monotone in Yes, so later shards cannot change the mask.
                break
            final_yes, shard_steps = self._shard_match_links(
                shard, event, key, yes_bits, maybe_bits
            )
            merged_yes |= final_yes
            steps += shard_steps
        self._obs_link_matches.inc()
        self._obs_link_match_steps.inc(steps)
        return LinkMatchResult(unpack_tritvector(merged_yes, 0, num_links), steps)

    def match_links_batch(
        self, events: Sequence[Event], initialization_mask: TritVector
    ) -> List[LinkMatchResult]:
        if not events:
            return []
        num_links = self._require_links()
        self._check_mask(initialization_mask)
        yes_bits, maybe_bits = pack_tritvector(initialization_mask)
        keys = [event.as_tuple() for event in events]
        merged = [yes_bits] * len(events)
        steps = [0] * len(events)

        def shard_batch(shard: _Shard, indexes: Sequence[int]) -> List["Tuple[int, int]"]:
            # Per-event cache probes, then one batched kernel call for misses.
            if self._link_caches is None:
                return shard._match_links_batch_packed(
                    [events[i] for i in indexes], yes_bits, maybe_bits
                )
            cache = self._link_caches[shard.index]
            packed: List[Optional[Tuple[int, int]]] = [
                cache.get((keys[i], yes_bits, maybe_bits)) for i in indexes
            ]
            missing = [j for j, entry in enumerate(packed) if entry is None]
            if missing:
                fresh = shard._match_links_batch_packed(
                    [events[indexes[j]] for j in missing], yes_bits, maybe_bits
                )
                for j, entry in zip(missing, fresh):
                    packed[j] = entry
                    cache.put((keys[indexes[j]], yes_bits, maybe_bits), entry)
            return packed  # type: ignore[return-value]

        # Mirrors match_links() per event: an event drops out of the pending
        # set as soon as its Maybes all resolve to Yes, so later shards never
        # see it (same masks, same step totals).
        pending = list(range(len(events)))
        for shard in self._shards:
            if self.early_exit:
                pending = [i for i in pending if merged[i] & maybe_bits != maybe_bits]
            if not pending:
                break
            packed = shard_batch(shard, pending)
            for i, (final_yes, shard_steps) in zip(pending, packed):
                merged[i] |= final_yes
                steps[i] += shard_steps
        self._obs_link_matches.inc(len(events))
        self._obs_link_match_steps.inc(sum(steps))
        return [
            LinkMatchResult(unpack_tritvector(final_yes, 0, num_links), event_steps)
            for final_yes, event_steps in zip(merged, steps)
        ]

    def __repr__(self) -> str:
        sizes = ",".join(str(len(shard.tree)) for shard in self._shards)
        return (
            f"ShardedEngine({len(self._shards)} shards [{sizes}], "
            f"backend={self.backend_name!r})"
        )
