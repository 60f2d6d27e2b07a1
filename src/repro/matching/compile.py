"""Lowering a Parallel Search Tree into flat array-based matching kernels.

The object-graph matcher (:class:`~repro.matching.pst.ParallelSearchTree` +
:class:`~repro.core.annotation.TreeAnnotation` +
:class:`~repro.core.link_matcher.LinkMatcher`) walks ``PSTNode`` instances and
allocates a fresh immutable :class:`~repro.core.trits.TritVector` per
refinement step.  That is the hottest path of the whole reproduction — every
broker runs it for every event — so this module *compiles* a built tree into
a :class:`CompiledProgram`: a set of flat parallel arrays indexed by node
number, over which two iterative (explicit-stack, no recursion, no
per-visit allocation) kernels run:

* :meth:`CompiledProgram.match` — the Section 2 parallel search;
* :meth:`CompiledProgram.match_links` — the Section 3.3 refinement search,
  with trit masks packed as two integer bitmasks (``yes_bits``/``maybe_bits``)
  per :mod:`repro.core.trits`.

The kernel *loops* themselves live in :mod:`repro.matching.backends` behind
the :class:`~repro.matching.backends.KernelBackend` interface (``interp``
is the reference loop, ``vector`` the columnar bulk-array one); this module
owns everything execution-independent — lowering, patching, annotation,
projection caching, and batch deduplication — and delegates the raw walks
to the program's :attr:`~CompiledProgram.backend`.

Array layout (one slot per node, node 0 is always the root):

========================  ====================================================
``event_pos[n]``          schema position of the attribute node ``n`` tests,
                          or ``-1`` for a leaf (doubles as the node-kind flag)
``level[n]``              the tree level (``PSTNode.attribute_position``)
``value_tables[n]``       dict mapping *interned value ids* to child indices,
                          or ``None`` when the node has no value branches
``range_start/end[n]``    CSR slice of ``range_tests``/``range_children``
``star[n]``               child index of the ``*``-branch, ``-1`` when absent
``sub_start/end[n]``      CSR slice of ``subs_flat`` (leaf subscriptions)
``ann_yes/ann_maybe[n]``  the node's trit annotation, packed
========================  ====================================================

Attribute values are interned once into ``value_ids`` (a plain dict, so
``1``/``1.0``/``True`` collapse exactly as they do as PST hash-branch keys);
a match then interns the event's values once and performs int-keyed lookups.

Both kernels intentionally visit nodes in the same order and count the same
``steps`` as the object-graph implementations, so the paper's step-count
charts (Chart 2) are bit-for-bit unchanged; only wall-clock time improves.

**Incremental recompilation.**  Subscription churn does not force a full
rebuild: :meth:`CompiledProgram.patch` re-lowers only the root-to-leaf path
selected by the changed predicate (the same walk as
``TreeAnnotation.update_path``), appending new CSR slices at the array ends
and repointing the slice bounds.  Superseded slices become garbage; when the
accumulated waste outgrows the live structure, ``patch`` refuses and the
owning engine performs a fresh :func:`compile_tree`.

**Batching and the projection cache.**  The kernels only ever read an event
at the *tested* attribute positions (the ``event_pos`` values of live
nodes), so two events that agree on that projection provably take the same
path through the arrays and produce the same matches, step counts, and
refined link masks.  Two mechanisms exploit this:

* :meth:`CompiledProgram.match_batch` — a batched kernel that walks the
  arrays with a frontier of ``(node, event-subset)`` pairs, so events
  sharing value-branch prefixes traverse the shared nodes once; subsets
  that narrow to a single event fall back to the single-event inner loop.
* a per-program :class:`ProjectionCache` — a bounded LRU keyed by the
  tested-attribute projection (plus the packed initialization mask for link
  matching) that memoizes whole match results across calls.  The cache
  lives on the program, so a full recompile starts empty by construction;
  :meth:`CompiledProgram.patch` flushes it explicitly (a patched program
  answers differently for the same projection) and charges the discarded
  residency toward the waste that triggers a full recompile.  Hit, miss,
  and flush counts are exported through :mod:`repro.obs` as
  ``match.cache.hit`` / ``match.cache.miss`` / ``match.cache.flush``, and a
  ``match.cache.residency`` gauge (entries/capacity, per cache kind) makes
  cache pressure visible alongside the rates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError, SubscriptionError
from repro.core.trits import (
    alternative_combine_bits,
    parallel_combine_bits,
)
from repro.matching.backends import DEFAULT_BACKEND, KernelBackend, create_backend
from repro.matching.events import Event
from repro.matching.predicates import (
    AttributeTest,
    EqualityTest,
    Predicate,
    Subscription,
)
from repro.matching.pst import MatchResult, ParallelSearchTree, PSTNode
from repro.matching.schema import AttributeValue, EventSchema
from repro.obs import get_registry

#: Maps a subscription to the broker-local (virtual) link position through
#: which its subscriber is best reached (same contract as TreeAnnotation's).
#: An aggregating layer may instead return an *iterable* of positions — a
#: deduplicated leaf stands for several subscribers, so its annotation is
#: the union of their link bits (see :mod:`repro.matching.aggregation`).
LinkOfSubscriber = Callable[[Subscription], Union[int, Sequence[int]]]

#: Default capacity of each per-program projection cache; 0 disables caching.
DEFAULT_MATCH_CACHE_CAPACITY = 4096

#: Fraction of flushed cache entries charged to patch waste: a patch that
#: discards a hot cache is costing real work the structural waste metric
#: cannot see, so residency pushes the program toward a compact recompile.
_CACHE_RESIDENCY_WASTE_SHIFT = 2  # charge = flushed_entries >> 2


class ProjectionCache:
    """A bounded LRU from tested-attribute projections to match results.

    Keys are whatever the owning program derives from an event (the
    projection tuple for matching; ``(projection, yes_bits, maybe_bits)``
    for link matching) — the cache itself only orders and bounds entries.
    ``hits`` / ``misses`` / ``flushes`` are plain-int mirrors of the obs
    counters so benchmarks can read rates without a registry snapshot.
    """

    __slots__ = (
        "capacity",
        "_entries",
        "hits",
        "misses",
        "flushes",
        "_obs_hits",
        "_obs_misses",
        "_obs_flushes",
        "_obs_residency",
    )

    def __init__(self, capacity: int, *, kind: str = "match") -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        registry = get_registry()
        self._obs_hits = registry.counter("match.cache.hit", cache=kind)
        self._obs_misses = registry.counter("match.cache.miss", cache=kind)
        self._obs_flushes = registry.counter("match.cache.flush", cache=kind)
        self._obs_residency = registry.gauge("match.cache.residency", cache=kind)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._obs_misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._obs_hits.inc()
        return entry

    def put(self, key, value) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        self._obs_residency.set(len(entries) / self.capacity)

    def evict_if(self, stale) -> int:
        """Drop entries ``stale(key, value)`` flags; returns how many.

        The surgical alternative to :meth:`flush` for callers whose keys are
        stable across index mutations (the aggregation layer's descent
        cache): only entries a subscription change actually touched go, the rest
        keep serving hits."""
        entries = self._entries
        doomed = [key for key, value in entries.items() if stale(key, value)]
        for key in doomed:
            del entries[key]
        if doomed:
            self._obs_residency.set(len(entries) / self.capacity)
        return len(doomed)

    def flush(self) -> int:
        """Drop every entry; returns how many were resident.  Counted as a
        flush event only when something was actually dropped."""
        flushed = len(self._entries)
        if flushed:
            self._entries.clear()
            self.flushes += 1
            self._obs_flushes.inc()
            self._obs_residency.set(0.0)
        return flushed

    def __repr__(self) -> str:
        return (
            f"ProjectionCache({len(self._entries)}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


class CompiledProgram:
    """The flat, kernel-ready form of one Parallel Search Tree.

    Build with :func:`compile_tree`; rebuild or :meth:`patch` after the
    source tree changes.  Link annotations are attached separately with
    :meth:`annotate` (matching alone never needs them).
    """

    __slots__ = (
        "schema",
        "attribute_order",
        "_positions",
        "_domain_sorted",
        # node arrays
        "event_pos",
        "level",
        "value_tables",
        "range_start",
        "range_end",
        "star",
        "sub_start",
        "sub_end",
        "ann_yes",
        "ann_maybe",
        # flat pools
        "range_tests",
        "range_children",
        "subs_flat",
        # fused per-node view for the kernels
        "_records",
        # interning / bookkeeping
        "value_ids",
        "index_of_node",
        "num_links",
        "_link_of_subscriber",
        "_waste",
        "_schema_ok",
        # execution backend
        "backend",
        "generation",
        "backend_state",
        "_obs_kernel_calls",
        "_obs_kernel_events",
        # projection caching
        "_tested_positions",
        "_tested_sorted",
        "match_cache",
        "link_cache",
        # digest projection (subscription id -> live leaf index)
        "_sub_leaf",
        "_sub_leaf_generation",
    )

    def __init__(
        self,
        tree: ParallelSearchTree,
        *,
        cache_capacity: int = DEFAULT_MATCH_CACHE_CAPACITY,
        backend: Union[str, KernelBackend, None] = None,
    ) -> None:
        self.schema = tree.schema
        self.attribute_order = tree.attribute_order
        self._positions: Tuple[int, ...] = tuple(
            tree.schema.position_of(name) for name in tree.attribute_order
        )
        self._domain_sorted: List[Optional[List[AttributeValue]]] = [
            (sorted(domain, key=repr) if domain is not None else None)
            for domain in (
                tree.domain_of(position) for position in range(len(self._positions))
            )
        ]
        self.event_pos: List[int] = []
        self.level: List[int] = []
        self.value_tables: List[Optional[Dict[int, int]]] = []
        self.range_start: List[int] = []
        self.range_end: List[int] = []
        self.star: List[int] = []
        self.sub_start: List[int] = []
        self.sub_end: List[int] = []
        self.ann_yes: List[int] = []
        self.ann_maybe: List[int] = []
        self.range_tests: List[AttributeTest] = []
        self.range_children: List[int] = []
        self.subs_flat: List[Subscription] = []
        self._records: List[tuple] = []
        self.value_ids: Dict[AttributeValue, int] = {}
        self.index_of_node: Dict[int, int] = {}
        self.num_links: Optional[int] = None
        self._link_of_subscriber: Optional[LinkOfSubscriber] = None
        self._waste = 0
        #: Last foreign schema object that deep-compared equal to ours —
        #: kept as a strong reference so the ``is`` fast path in
        #: :meth:`_schema_mismatch` cannot be fooled by id reuse.
        self._schema_ok: Optional[EventSchema] = None
        if backend is None:
            backend = DEFAULT_BACKEND
        self.backend: KernelBackend = (
            create_backend(backend) if isinstance(backend, str) else backend
        )
        #: Bumped on every mutation of the record arrays (patch, annotate);
        #: backends key derived state on it and rebuild lazily.
        self.generation = 0
        #: Backend-owned scratch (vector's columnar index, …), cleared on
        #: every generation bump.
        self.backend_state: Dict[str, object] = {}
        registry = get_registry()
        self._obs_kernel_calls = registry.counter(
            "engine.backend.kernel_calls", backend=self.backend.name
        )
        self._obs_kernel_events = registry.counter(
            "engine.backend.kernel_events", backend=self.backend.name
        )
        self._tested_positions: set = set()
        self._tested_sorted: Tuple[int, ...] = ()
        self.match_cache: Optional[ProjectionCache] = (
            ProjectionCache(cache_capacity, kind="match") if cache_capacity > 0 else None
        )
        self.link_cache: Optional[ProjectionCache] = (
            ProjectionCache(cache_capacity, kind="links") if cache_capacity > 0 else None
        )
        self._sub_leaf: Optional[Dict[int, int]] = None
        self._sub_leaf_generation = -1
        self._ensure_index(tree.root)

    # ------------------------------------------------------------------
    # Lowering

    def _intern(self, value: AttributeValue) -> int:
        value_id = self.value_ids.get(value)
        if value_id is None:
            value_id = len(self.value_ids)
            self.value_ids[value] = value_id
        return value_id

    def _ensure_index(self, node: PSTNode) -> int:
        """Index of ``node`` in the arrays, lowering it (and any children not
        yet lowered) on first sight.  Indices are stable once assigned."""
        index = self.index_of_node.get(node.node_id)
        if index is not None:
            return index
        index = len(self.event_pos)
        self.index_of_node[node.node_id] = index
        # Reserve the slot before descending so children see a stable parent.
        self.event_pos.append(-1)
        self.level.append(-1)
        self.value_tables.append(None)
        self.range_start.append(0)
        self.range_end.append(0)
        self.star.append(-1)
        self.sub_start.append(0)
        self.sub_end.append(0)
        self.ann_yes.append(0)
        self.ann_maybe.append(0)
        self._records.append(())
        if node.is_leaf:
            self._write_leaf_subs(index, node)
            self._refresh_record(index)
            return index
        position = self._positions[node.attribute_position]
        self.event_pos[index] = position
        self.level[index] = node.attribute_position
        if position not in self._tested_positions:
            # Tested positions only ever grow (a pruned level just makes the
            # projection finer than necessary, which stays correct); growth
            # happens through patch(), which flushes the caches anyway.
            self._tested_positions.add(position)
            self._tested_sorted = tuple(sorted(self._tested_positions))
        if node.value_branches:
            self.value_tables[index] = {
                self._intern(value): self._ensure_index(child)
                for value, child in node.value_branches.items()
            }
        if node.range_branches:
            self._write_range_slice(index, node)
        if node.star_child is not None:
            self.star[index] = self._ensure_index(node.star_child)
        self._refresh_record(index)
        return index

    def _refresh_record(self, index: int) -> None:
        """Rebuild the fused kernel record of node ``index`` from the arrays.

        The kernels read one tuple per visit —
        ``(event_position, value_table, range_pairs, star_child, leaf_subs)``
        — instead of indexing five parallel arrays; a record is just a view
        (the value table is the *same* dict object as ``value_tables[n]``)
        and must be refreshed whenever the node's slices or star change.
        """
        position = self.event_pos[index]
        if position < 0:
            subs = self.subs_flat[self.sub_start[index] : self.sub_end[index]]
            self._records[index] = (-1, None, None, -1, subs or None)
            return
        begin, end = self.range_start[index], self.range_end[index]
        ranges = (
            tuple(
                (self.range_tests[j], self.range_children[j]) for j in range(begin, end)
            )
            if begin != end
            else None
        )
        self._records[index] = (
            position,
            self.value_tables[index],
            ranges,
            self.star[index],
            None,
        )

    def _write_leaf_subs(self, index: int, node: PSTNode) -> None:
        self.sub_start[index] = len(self.subs_flat)
        self.subs_flat.extend(node.subscriptions)
        self.sub_end[index] = len(self.subs_flat)

    def _write_range_slice(self, index: int, node: PSTNode) -> None:
        # Lower the children *before* appending: _ensure_index recurses and
        # may itself append range slices, which must not interleave with ours.
        lowered = [
            (test, self._ensure_index(child)) for test, child in node.range_branches
        ]
        self.range_start[index] = len(self.range_tests)
        for test, child_index in lowered:
            self.range_tests.append(test)
            self.range_children.append(child_index)
        self.range_end[index] = len(self.range_tests)

    @property
    def node_count(self) -> int:
        """Slots in the node arrays (live + superseded-by-patch garbage)."""
        return len(self.event_pos)

    @property
    def waste(self) -> int:
        """Pool entries orphaned by patches since the last full compile."""
        return self._waste

    # ------------------------------------------------------------------
    # Annotation (packed trit vectors)

    @property
    def annotated(self) -> bool:
        return self.num_links is not None

    def annotate(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        """(Re)compute all packed per-node annotations bottom-up.

        Mirrors :class:`~repro.core.annotation.TreeAnnotation` exactly (same
        per-domain-value recipe, same conservative open-domain recipe); the
        combines are commutative and associative, so evaluating them over
        packed masks yields identical trits.
        """
        if num_links < 0:
            raise RoutingError("num_links must be >= 0")
        self.num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        if self.link_cache is not None:
            # New annotations change refinement results; match results only
            # depend on the tree structure, so the match cache survives.
            self.link_cache.flush()
        # The annotation arrays are part of the record surface backends
        # execute over (the link kernels read them), so re-annotation moves
        # the generation like any other array mutation.
        self._bump_generation()
        stack: List[Tuple[int, bool]] = [(0, False)]
        event_pos = self.event_pos
        while stack:
            index, processed = stack.pop()
            if processed or event_pos[index] < 0:
                self.ann_yes[index], self.ann_maybe[index] = self._node_annotation(index)
                continue
            stack.append((index, True))
            table = self.value_tables[index]
            if table is not None:
                for child in table.values():
                    stack.append((child, False))
            for j in range(self.range_start[index], self.range_end[index]):
                stack.append((self.range_children[j], False))
            if self.star[index] >= 0:
                stack.append((self.star[index], False))

    def _node_annotation(self, index: int) -> Tuple[int, int]:
        if self.event_pos[index] < 0:
            return self._leaf_annotation(index)
        return self._combined_annotation(index)

    def _leaf_annotation(self, index: int) -> Tuple[int, int]:
        assert self.num_links is not None and self._link_of_subscriber is not None
        yes = 0
        for subscription in self.subs_flat[self.sub_start[index] : self.sub_end[index]]:
            mapped = self._link_of_subscriber(subscription)
            # Plain engines map a subscription to one position; an
            # aggregating layer maps a deduplicated leaf to the union of its
            # member subscribers' positions.  -1 means unreachable either way.
            positions = (mapped,) if isinstance(mapped, int) else mapped
            for position in positions:
                if position < 0:
                    continue  # subscriber unreachable — no link to light
                if position >= self.num_links:
                    raise RoutingError(
                        f"link position {position} out of range for {subscription!r}"
                    )
                yes |= 1 << position
        return yes, 0

    def _combined_annotation(self, index: int) -> Tuple[int, int]:
        assert self.num_links is not None
        full = (1 << self.num_links) - 1
        ann_yes = self.ann_yes
        ann_maybe = self.ann_maybe
        star_index = self.star[index]
        if star_index >= 0:
            star = (ann_yes[star_index], ann_maybe[star_index])
        else:
            star = (0, 0)
        table = self.value_tables[index]
        r0, r1 = self.range_start[index], self.range_end[index]
        domain = self._domain_sorted[self.level[index]]
        if domain is not None:
            # Exhaustive domain: Alternative Combine over the exact outcome
            # of every possible event value (each outcome Parallel-Combines
            # the branches that value satisfies plus the *-branch).
            out: Optional[Tuple[int, int]] = None
            for value in domain:
                part = star
                if table is not None:
                    value_id = self.value_ids.get(value)
                    child = table.get(value_id) if value_id is not None else None
                    if child is not None:
                        part = parallel_combine_bits(
                            part[0], part[1], ann_yes[child], ann_maybe[child]
                        )
                for j in range(r0, r1):
                    if self.range_tests[j].evaluate(value):
                        child = self.range_children[j]
                        part = parallel_combine_bits(
                            part[0], part[1], ann_yes[child], ann_maybe[child]
                        )
                if out is None:
                    out = part
                else:
                    out = alternative_combine_bits(
                        out[0], out[1], part[0], part[1], full
                    )
            return out if out is not None else (0, 0)
        # Open domain: value/range children Alternative-Combined with an
        # implicit all-No for unlisted values, then Parallel with the *-branch.
        acc: Optional[Tuple[int, int]] = None
        children: List[int] = list(table.values()) if table is not None else []
        children.extend(self.range_children[r0:r1])
        for child in children:
            part = (ann_yes[child], ann_maybe[child])
            acc = part if acc is None else alternative_combine_bits(
                acc[0], acc[1], part[0], part[1], full
            )
        if acc is None:
            acc = (0, 0)
        else:
            acc = alternative_combine_bits(acc[0], acc[1], 0, 0, full)
        return parallel_combine_bits(acc[0], acc[1], star[0], star[1])

    # ------------------------------------------------------------------
    # Kernels

    @property
    def tested_positions(self) -> Tuple[int, ...]:
        """Schema positions the compiled tree actually tests, sorted."""
        return self._tested_sorted

    def _schema_mismatch(self, event: Event) -> bool:
        """O(1) schema guard for the per-event hot paths.

        Schemas are immutable value objects, so one deep comparison per
        foreign schema *object* suffices; after that, identity settles it
        (the matched object is kept in :attr:`_schema_ok` so its id cannot
        be recycled)."""
        schema = event.schema
        if schema is self.schema or schema is self._schema_ok:
            return False
        if schema != self.schema:
            return True
        self._schema_ok = schema
        return False

    def projection_key(self, event: Event) -> Tuple[AttributeValue, ...]:
        """The event's values at the tested positions — the cache key.

        Two events with equal projections provably take the same path
        through the arrays (the kernels never read any other position), so
        they share match results, step counts, and refined link masks.
        """
        values = event.as_tuple()
        return tuple(values[position] for position in self._tested_sorted)

    def match(self, event: Event) -> MatchResult:
        """The Section 2 parallel search over the flat arrays.

        Visits exactly the nodes ``ParallelSearchTree.match`` visits — every
        node is appended to the work queue once and processed once, so the
        ``steps`` count is identical (it is simply the final queue length);
        only the visit *order* differs (breadth-first rather than LIFO),
        which neither the match set nor the step count observes.  The walk
        itself is the :attr:`backend`'s single-event kernel; every backend
        returns what ``interp`` returns, bit for bit.

        Results are memoized in :attr:`match_cache` under the event's
        :meth:`projection_key`; cached subscription lists are shared between
        results and must be treated as read-only by callers.
        """
        if self._schema_mismatch(event):
            raise SubscriptionError("event schema does not match the tree's schema")
        cache = self.match_cache
        key: Optional[Tuple[AttributeValue, ...]] = None
        if cache is not None:
            key = self.projection_key(event)
            entry = cache.get(key)
            if entry is not None:
                return MatchResult(entry[0], entry[1])
        matched, steps = self.backend.match(self, event.as_tuple())
        self._obs_kernel_calls.inc()
        self._obs_kernel_events.inc()
        if cache is not None:
            cache.put(key, (matched, steps))
        return MatchResult(matched, steps)

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Match a batch of events through one shared array walk.

        Per event this is exactly :meth:`match` (same match set, same step
        count); across the batch, events are first deduplicated by
        :meth:`projection_key` — repeats are served from :attr:`match_cache`
        or from the batch-local result — and the remaining unique
        projections go through the :attr:`backend`'s batch kernel in one
        call (``interp`` walks them with a shared ``(node, event-subset)``
        frontier; ``vector`` advances the whole frontier per level with
        bulk array operations).
        """
        if not events:
            return []
        if len(events) == 1:
            return [self.match(events[0])]
        results: List[Optional[Tuple[List[Subscription], int]]] = [None] * len(events)
        cache = self.match_cache
        pending: Dict[Tuple[AttributeValue, ...], List[int]] = {}
        representatives: List[Tuple[Tuple[AttributeValue, ...], Event]] = []
        for i, event in enumerate(events):
            if self._schema_mismatch(event):
                raise SubscriptionError("event schema does not match the tree's schema")
            key = self.projection_key(event)
            if cache is not None:
                entry = cache.get(key)
                if entry is not None:
                    results[i] = entry
                    continue
            group = pending.get(key)
            if group is None:
                pending[key] = [i]
                representatives.append((key, event))
            else:
                group.append(i)
        if representatives:
            kernel_out = self.backend.match_batch(
                self, [event.as_tuple() for _key, event in representatives]
            )
            self._obs_kernel_calls.inc()
            self._obs_kernel_events.inc(len(representatives))
            for (key, _event), entry in zip(representatives, kernel_out):
                if cache is not None:
                    cache.put(key, entry)
                for i in pending[key]:
                    results[i] = entry
        return [MatchResult(entry[0], entry[1]) for entry in results]

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """The Section 3.3 refinement search over packed masks.

        Takes the initialization mask as ``(yes_bits, maybe_bits)`` and
        returns ``(final_yes_bits, steps)``; the final mask has no Maybe
        trits by construction, so the Yes bits determine it completely.
        An explicit frame stack mirrors ``LinkMatcher``'s recursion exactly
        — same visit order, same early exits, same ``steps``.

        Results are memoized in :attr:`link_cache` under
        ``(projection_key, yes_bits, maybe_bits)`` — the refinement reads
        nothing else — and the cache is flushed whenever the annotations
        change (:meth:`annotate`, :meth:`patch`).
        """
        if not self.annotated:
            raise RoutingError("program has no link annotations — call annotate()")
        if self._schema_mismatch(event):
            raise RoutingError("event schema does not match the annotated tree")
        cache = self.link_cache
        if cache is None:
            return self._link_kernel(event, yes_bits, maybe_bits)
        key = (self.projection_key(event), yes_bits, maybe_bits)
        entry = cache.get(key)
        if entry is not None:
            return entry
        result = self._link_kernel(event, yes_bits, maybe_bits)
        cache.put(key, result)
        return result

    def _link_kernel(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        result = self.backend.match_links(self, event.as_tuple(), yes_bits, maybe_bits)
        self._obs_kernel_calls.inc()
        self._obs_kernel_events.inc()
        return result

    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Refine one shared initialization mask for a batch of events.

        Per event this is exactly :meth:`match_links`; across the batch,
        events are deduplicated by :meth:`projection_key` (all of them share
        the initialization mask, so equal projections provably yield equal
        refinements) and repeats are served from :attr:`link_cache` or the
        batch-local result.
        """
        if not events:
            return []
        if not self.annotated:
            raise RoutingError("program has no link annotations — call annotate()")
        results: List[Optional[Tuple[int, int]]] = [None] * len(events)
        cache = self.link_cache
        pending: Dict[Tuple, List[int]] = {}
        representatives: List[Tuple[Tuple, Event]] = []
        for i, event in enumerate(events):
            if self._schema_mismatch(event):
                raise RoutingError("event schema does not match the annotated tree")
            key = (self.projection_key(event), yes_bits, maybe_bits)
            if cache is not None:
                entry = cache.get(key)
                if entry is not None:
                    results[i] = entry
                    continue
            group = pending.get(key)
            if group is None:
                pending[key] = [i]
                representatives.append((key, event))
            else:
                group.append(i)
        if representatives:
            kernel_out = self.backend.match_links_batch(
                self,
                [event.as_tuple() for _key, event in representatives],
                yes_bits,
                maybe_bits,
            )
            self._obs_kernel_calls.inc()
            self._obs_kernel_events.inc(len(representatives))
            for (key, _event), result in zip(representatives, kernel_out):
                if cache is not None:
                    cache.put(key, result)
                for i in pending[key]:
                    results[i] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Digest projection (match-once forwarding)

    def _sub_leaf_map(self) -> Dict[int, int]:
        """The stable ``subscription_id -> live leaf index`` mapping.

        Built by walking the live node graph from the root (``subs_flat``
        alone is unusable: patches orphan superseded leaf slices, whose
        entries must not shadow the live ones) and keyed on
        :attr:`generation`, so every patch or re-annotation rebuilds it
        lazily on next use.
        """
        if self._sub_leaf is not None and self._sub_leaf_generation == self.generation:
            return self._sub_leaf
        mapping: Dict[int, int] = {}
        stack = [0]
        seen = set()
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            if self.event_pos[index] < 0:
                for subscription in self.subs_flat[
                    self.sub_start[index] : self.sub_end[index]
                ]:
                    mapping[subscription.subscription_id] = index
                continue
            table = self.value_tables[index]
            if table is not None:
                stack.extend(table.values())
            stack.extend(
                self.range_children[self.range_start[index] : self.range_end[index]]
            )
            if self.star[index] >= 0:
                stack.append(self.star[index])
        self._sub_leaf = mapping
        self._sub_leaf_generation = self.generation
        return mapping

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Project a match digest straight onto this program's packed
        leaf-annotation columns: one OR per matched *leaf*.

        Subscriptions sharing a leaf have identical predicates, so a digest
        that names one names them all — deduplicating by leaf and ORing the
        leaf's :attr:`ann_yes` column is exact, and cheaper than a
        per-subscription table when leaves are shared.  Returns
        ``(final_yes_bits, steps)`` where ``steps`` counts the leaf ORs;
        the result equals :meth:`match_links`'s fully refined mask for any
        event whose matched set is exactly ``subscription_ids``.  Raises
        :class:`RoutingError` for unknown ids (diverged subscription sets —
        the caller must fall back to full matching).
        """
        if not self.annotated:
            raise RoutingError("program has no link annotations — call annotate()")
        mapping = self._sub_leaf_map()
        ann_yes = self.ann_yes
        bits = 0
        steps = 0
        seen_leaf = -1
        seen: Optional[set] = None
        for subscription_id in subscription_ids:
            leaf = mapping.get(subscription_id)
            if leaf is None:
                raise RoutingError(
                    f"digest names subscription #{subscription_id}, which this "
                    f"program does not hold — subscription sets have diverged"
                )
            # Digest ids are sorted, and leaf co-residents are inserted
            # adjacently more often than not — a last-leaf fast path plus a
            # lazily allocated seen-set dedupes without hashing every id.
            if leaf == seen_leaf:
                continue
            if seen is None:
                seen = {seen_leaf} if seen_leaf >= 0 else set()
            elif leaf in seen:
                continue
            seen.add(leaf)
            seen_leaf = leaf
            bits |= ann_yes[leaf]
            steps += 1
        return yes_bits | (maybe_bits & bits), steps

    # ------------------------------------------------------------------
    # Incremental recompilation

    def _bump_generation(self) -> None:
        """Advance the record-array generation and drop backend scratch.

        Called after any mutation of the arrays backends execute over
        (:meth:`patch`, :meth:`annotate`): the vector backend rebuilds its
        columnar index lazily.
        """
        self.generation += 1
        if self.backend_state:
            self.backend_state.clear()

    def patch(self, tree: ParallelSearchTree, predicate: Predicate) -> bool:
        """Re-lower the root-to-leaf path selected by ``predicate`` after one
        subscription was inserted into / removed from ``tree``.

        Returns ``False`` (leaving the program untouched is then unsafe —
        the caller must fully recompile) when the tree's root was replaced
        (a re-materializing insert above the old root) or when accumulated
        patch garbage outweighs the live structure.  Otherwise syncs the
        path's edges and leaf slice with the live tree, and recomputes the
        packed annotations of the path bottom-up when annotations are bound.
        """
        if self.index_of_node.get(tree.root.node_id) != 0:
            return False
        # Compare garbage against the *live* structure (total slots minus
        # garbage), not against the total — the total includes the garbage
        # itself, which would let waste grow without ever crossing it.
        if self._waste > max(64, self.node_count - self._waste):
            return False
        tests = [predicate.tests[position] for position in self._positions]
        path: List[Tuple[int, PSTNode]] = []
        node: Optional[PSTNode] = tree.root
        while node is not None:
            index = self._ensure_index(node)
            path.append((index, node))
            if node.is_leaf:
                self._sync_leaf(index, node)
                break
            test = tests[node.attribute_position]
            child = _child_for_test(node, test)
            self._sync_edge(index, node, test, child)
            node = child
        for index, _node in path:
            self._refresh_record(index)
        if self.annotated:
            for index, _node in reversed(path):
                self.ann_yes[index], self.ann_maybe[index] = self._node_annotation(index)
        # A patched program answers differently for the same projection, so
        # both caches must flush.  The discarded residency is charged toward
        # waste: patches that keep evicting a hot cache are costing real work
        # the structural garbage metric cannot see, and should push the
        # program toward a compact full recompile sooner.
        flushed = 0
        if self.match_cache is not None:
            flushed += self.match_cache.flush()
        if self.link_cache is not None:
            flushed += self.link_cache.flush()
        self._waste += flushed >> _CACHE_RESIDENCY_WASTE_SHIFT
        self._bump_generation()
        return True

    def _charge_subtree(self, index: int) -> None:
        """Count every slot under an unreachable node as patch garbage.

        Only called for subtrees the live tree has *pruned* (their PST node
        ids never reappear), so nothing here can be reattached later."""
        queue = [index]
        for node_index in queue:
            self._waste += 1
            self._waste += self.sub_end[node_index] - self.sub_start[node_index]
            table = self.value_tables[node_index]
            if table is not None:
                queue.extend(table.values())
            queue.extend(
                self.range_children[
                    self.range_start[node_index] : self.range_end[node_index]
                ]
            )
            if self.star[node_index] >= 0:
                queue.append(self.star[node_index])

    def _sync_leaf(self, index: int, node: PSTNode) -> None:
        begin, end = self.sub_start[index], self.sub_end[index]
        if self.subs_flat[begin:end] == node.subscriptions:
            return
        self._waste += end - begin
        self._write_leaf_subs(index, node)

    def _sync_edge(
        self,
        index: int,
        node: PSTNode,
        test: AttributeTest,
        child: Optional[PSTNode],
    ) -> None:
        """Make the flat edge for ``test`` at ``node`` agree with the tree."""
        child_index = self._ensure_index(child) if child is not None else -1
        if test.is_dont_care:
            if self.star[index] != child_index:
                if self.star[index] >= 0:
                    if child_index < 0:
                        # The star branch was pruned outright — its whole
                        # compiled subtree is garbage.  (A redirect keeps the
                        # old child reachable through its new parent, so it
                        # is charged only one slot.)
                        self._charge_subtree(self.star[index])
                    else:
                        self._waste += 1
                self.star[index] = child_index
            return
        if isinstance(test, EqualityTest):
            table = self.value_tables[index]
            if child_index < 0:
                if table is not None:
                    value_id = self.value_ids.get(test.value)
                    if value_id is not None:
                        dropped = table.pop(value_id, None)
                        if dropped is not None:
                            self._charge_subtree(dropped)
                    if not table:
                        self.value_tables[index] = None
                return
            if table is None:
                table = {}
                self.value_tables[index] = table
            table[self._intern(test.value)] = child_index
            return
        # Range edge: rebuild the node's CSR slice when it disagrees.
        begin, end = self.range_start[index], self.range_end[index]
        live = node.range_branches
        if len(live) == end - begin and all(
            self.range_tests[begin + k] == live[k][0]
            and self.range_children[begin + k]
            == self.index_of_node.get(live[k][1].node_id)
            for k in range(len(live))
        ):
            return
        self._waste += end - begin
        self._write_range_slice(index, node)

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({self.node_count} nodes, "
            f"{len(self.value_ids)} interned values, "
            f"{len(self.subs_flat)} leaf slots, waste={self._waste}, "
            f"annotated={self.annotated})"
        )


def _child_for_test(node: PSTNode, test: AttributeTest) -> Optional[PSTNode]:
    """The child whose branch label equals ``test`` (the update-path walk)."""
    if test.is_dont_care:
        return node.star_child
    if isinstance(test, EqualityTest):
        return node.value_branches.get(test.value)
    for branch_test, child in node.range_branches:
        if branch_test == test:
            return child
    return None


def compile_tree(
    tree: ParallelSearchTree,
    *,
    cache_capacity: int = DEFAULT_MATCH_CACHE_CAPACITY,
    backend: Union[str, KernelBackend, None] = None,
) -> CompiledProgram:
    """Lower ``tree`` into a fresh :class:`CompiledProgram`.

    ``cache_capacity`` bounds each of the program's two projection caches
    (match and link); pass ``0`` to disable caching entirely.  ``backend``
    selects the kernel execution backend (a
    :data:`~repro.matching.backends.BACKEND_NAMES` name or a
    :class:`~repro.matching.backends.KernelBackend` instance); ``None``
    means :data:`~repro.matching.backends.DEFAULT_BACKEND`.
    """
    return CompiledProgram(tree, cache_capacity=cache_capacity, backend=backend)


def compile_subscriptions(
    schema: EventSchema,
    subscriptions: Sequence[Subscription],
    *,
    attribute_order: Optional[Sequence[str]] = None,
    backend: Union[str, KernelBackend, None] = None,
    cache_capacity: int = 0,
) -> CompiledProgram:
    """Lower a bare subscription list straight into a compiled program.

    The subtree-scoped constructor behind the aggregation layer's compiled
    descent (:mod:`repro.matching.aggregation`): callers holding a set of
    subscriptions but no tree — e.g. one covering root's descendant
    representatives — get the same flat-array lowering and kernel surface
    as a full engine without standing an engine up around it.  Caching
    defaults *off*: these mini-programs sit behind their owner's own
    memoization (the aggregation descent cache), so per-program projection
    caches would only duplicate entries.
    """
    tree = ParallelSearchTree(schema, attribute_order=attribute_order)
    for subscription in subscriptions:
        tree.insert(subscription)
    return CompiledProgram(tree, cache_capacity=cache_capacity, backend=backend)
