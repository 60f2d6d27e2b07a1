"""Online subscription aggregation: covering forest + compressed compilation.

At 10^6+ subscriptions the bottleneck of the compiled matcher shifts from
walking the program to the program's *size*: the record arrays grow with the
number of subscribers even though real workloads register the same few
predicate bodies over and over (Zipf-skewed interests).  This module shrinks
the subscription set *before* compilation, SIENA-style, with two mechanisms
layered between ingest and the compiled engine:

**Canonical deduplication.**  Every incoming predicate is canonicalized with
the exact per-attribute containment algebra of
:mod:`repro.matching.subsumption` — strict integer bounds close
(``x < 4`` ≡ ``x <= 3``) and one-sided ranges normalize to intervals — so
predicates that accept the same events hash identically.  Subscriptions with
an identical canonical body join one *group* carrying a subscriber set; only
the group's **representative** subscription enters the inner engine, so the
``CompiledProgram`` record arrays grow with *distinct* predicates, not
subscribers.

**Incremental covering forest.**  Groups are linked into a forest by the
covering relation (:func:`~repro.matching.subsumption.predicate_subsumes`):
a group whose predicate is covered by another hangs *under* it and is not
compiled at all — only forest roots have representatives in the inner
engine.  Insert and remove are incremental: a new group descends from the
covering root (demoting any siblings it covers), and removing the last
member of a covering parent promotes its children back to compiled roots.
No rebuild, ever.  Cover relations are found through an attribute-inverted
index (:class:`~repro.matching.covering_index.CoveringIndex`): candidate
predicates come from per-attribute posting lists and only candidates are
verified with ``predicate_subsumes``, so ingest cost tracks the handful of
predicates that *could* be related instead of the whole forest level.
Verification is still bounded (:data:`DEFAULT_COVER_SCAN_LIMIT`): past the
limit new groups simply become roots — covering is a best-effort
*compressor*, so missing a relation costs compression, never correctness.
``use_index=False`` restores the bounded linear sibling scans (the
benchmark baseline).

**Compiled descent.**  Forest descent below a matched root interprets
``canonical.matches`` per child — cheap for shallow bushes, measurable for
hot roots with big subtrees.  Roots whose subtrees keep being walked on
descent-cache misses (:data:`DEFAULT_SUBTREE_COMPILE_THRESHOLD` misses, at
least :data:`DEFAULT_SUBTREE_MIN_SIZE` descendants) get their descendants
lowered into a per-subtree mini-program via
:func:`~repro.matching.compile.compile_subscriptions` — the same flat-array
kernels (and vector backend) as top-level matching.  A flat match over all
descendants returns exactly the interpreted pruned walk's groups: covering
is transitive, so every descendant whose predicate accepts the event is
reachable from the root.  Programs are invalidated on any structural churn
of their subtree (attach, demotion, dissolve) and rebuilt only after the
hit counter warms up again; membership-only churn leaves them alone.

**Engine-boundary expansion.**  The inner engine matches over deduplicated
leaves; expansion back to subscriber sets happens here:

* :meth:`AggregatingEngine.match` — matched representatives expand to their
  group's members, then the forest descends into covered children, pruning
  whole subtrees whose predicate rejects the event.  Steps are the inner
  engine's (attributed to the covering leaf) plus one per child group
  evaluated during descent (a compiled subtree contributes its program's
  step count).
* :meth:`AggregatingEngine.match_links` — the inner refinement runs over
  the deduplicated leaves: each representative's leaf annotation is the
  *union* of its members' link bits (the multi-position
  ``LinkOfSubscriber`` contract of
  :meth:`~repro.matching.compile.CompiledProgram.annotate`), so for forests
  without covered children (pure deduplication) the inner mask is already
  exact.  Covered descendants contribute their members' links through a
  forest descent, intersected with the initialization mask's Maybe bits —
  final masks are bit-for-bit the unaggregated engine's.

Membership changes that leave the tree untouched (a dedup hit, removing one
of several members) refresh the leaf annotation through the engines'
``refresh_links`` path — a path re-annotation plus a cache flush, not a
rebuild.  The descent cache is repaired the same way: churn evicts
only the entries whose event satisfies the churned group's canonical
predicate (every entry containing — or now owed — that group keys an event
its canonical accepts), falling back to a wholesale flush only past
:data:`DESCENT_REPAIR_SCAN_LIMIT` entries.  Everything downstream — trit
annotations, :class:`~repro.matching.compile.ProjectionCache`, batching,
and both kernel backends — runs unchanged over the compressed program.

Observability: ``match.aggregation.compression_ratio`` (subscriptions per
compiled leaf), ``match.aggregation.forest_nodes`` (live groups),
``match.aggregation.dedup_hits`` (inserts absorbed without touching the
inner engine), ``match.aggregation.cover_scan_len`` (histogram of
subsumption verifications per attach), ``match.aggregation.index_candidates``
/ ``index_hits`` (index filter volume and precision), and
``match.aggregation.subtree_compiles`` (descent mini-programs built).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SubscriptionError
from repro.core.annotation import LinkOfSubscriber
from repro.core.link_matcher import LinkMatchResult
from repro.core.trits import TritVector, pack_tritvector, unpack_tritvector
from repro.matching.backends import DEFAULT_BACKEND
from repro.matching.base import MatcherEngine
from repro.matching.compile import (
    CompiledProgram,
    ProjectionCache,
    compile_subscriptions,
)
from repro.matching.covering_index import CoveringIndex
from repro.matching.events import Event
from repro.matching.predicates import Predicate, Subscription, value_tuple_test
from repro.matching.pst import MatchResult
from repro.matching.subsumption import canonical_test, predicate_subsumes
from repro.obs import get_registry

#: Cover searches *verify* at most this many candidate groups per attach
#: (``predicate_subsumes`` calls, across the cover descent and the demotion
#: sweep).  Past the limit a new group becomes a root without looking for
#: (or demoting) further covers — deduplication stays O(1) and exact,
#: covering compression degrades gracefully.  Correctness never depends on
#: the forest shape.
DEFAULT_COVER_SCAN_LIMIT = 512

#: Entries in the descent cache (event values -> matching groups).  Churn
#: repairs the cache surgically — see :data:`DESCENT_REPAIR_SCAN_LIMIT`.
DESCENT_CACHE_CAPACITY = 4096

#: Surgical descent-cache repair scans every cached key against the churned
#: group's canonical predicate; past this many entries one wholesale flush
#: is cheaper than the scan.
DESCENT_REPAIR_SCAN_LIMIT = 2048

#: Descent-cache misses that walk into a root's subtree before the subtree
#: is compiled into a mini-program.  ``0`` disables compiled descent.
DEFAULT_SUBTREE_COMPILE_THRESHOLD = 8

#: Smallest subtree (descendant count) worth compiling; interpreting a
#: couple of children is cheaper than a program dispatch.
DEFAULT_SUBTREE_MIN_SIZE = 4

#: Subscriber identity of the sentinel representatives registered with the
#: inner engine.  Representatives never reach users: matching expands them
#: to members, ``subscriptions`` lists members only.
REPRESENTATIVE_SUBSCRIBER = "<aggregate>"

#: Histogram buckets for verifications-per-attach: indexed attaches cluster
#: in the first few buckets, linear scans stretch toward the scan limit.
_COVER_SCAN_BOUNDARIES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def canonicalize_predicate(predicate: Predicate) -> Predicate:
    """The canonical form under which identical-acceptance predicates unify.

    Per attribute: :func:`~repro.matching.subsumption.canonical_test` —
    strict integer bounds close and one-sided range tests normalize to
    intervals — so ``x < 4`` and ``x <= 3`` over an INTEGER attribute
    produce the *same* test object value, and
    :class:`~repro.matching.predicates.Predicate` hashing makes the group
    lookup a dict probe.  Equality tests and don't-cares are already
    canonical, so a canonical predicate carries only the three test shapes
    :class:`~repro.matching.covering_index.CoveringIndex` indexes.  The
    canonical predicate accepts exactly the same events as the original.
    """
    tests = {}
    changed = False
    for attribute, test in zip(predicate.schema.attributes, predicate.tests):
        if test.is_dont_care:
            continue
        canonical = canonical_test(attribute, test)
        if canonical is not test:
            changed = True
        tests[attribute.name] = canonical
    if not changed:
        return predicate
    return Predicate(predicate.schema, tests)


class _Group:
    """One distinct canonical predicate: its members and forest links.

    ``representative`` is the sentinel subscription registered with the
    inner engine *while the group is a root*; covered (non-root) groups are
    not compiled at all and are reached by forest descent.  Roots with hot
    subtrees additionally carry a compiled descent mini-program
    (``subtree_program`` over every descendant's representative,
    ``subtree_groups`` mapping those representative ids back to groups,
    ``descent_hits`` counting cache-miss walks toward promotion).
    """

    __slots__ = (
        "canonical",
        "representative",
        "members",
        "children",
        "parent",
        "subtree_program",
        "subtree_groups",
        "descent_hits",
    )

    def __init__(self, canonical: Predicate, subscription: Subscription) -> None:
        self.canonical = canonical
        self.representative = Subscription(
            canonical,
            REPRESENTATIVE_SUBSCRIBER,
            # Representatives draw from the global id counter like any other
            # subscription (ids must be unique within the inner engine).
        )
        self.members: Dict[int, Subscription] = {
            subscription.subscription_id: subscription
        }
        self.children: List["_Group"] = []
        self.parent: Optional["_Group"] = None
        self.subtree_program: Optional[CompiledProgram] = None
        self.subtree_groups: Optional[Dict[int, "_Group"]] = None
        self.descent_hits = 0

    def __repr__(self) -> str:
        return (
            f"_Group({self.canonical.describe()!r}, {len(self.members)} members, "
            f"{len(self.children)} children, root={self.parent is None})"
        )


class AggregatingEngine(MatcherEngine):
    """Covering-forest aggregation in front of a compiled engine.

    Exposes the full :class:`~repro.matching.base.MatcherEngine` surface;
    match sets, brute-force sets, and refined link masks are exactly the
    wrapped engine's *without* aggregation (the property suite in
    ``tests/property/test_prop_aggregation.py`` pins this down).  Step
    counts are attributed to the deduplicated leaves: the inner engine's
    count plus one step per covered group evaluated during forest descent.

    Construct directly around an engine instance, or through
    :func:`~repro.matching.engines.create_engine` with a ``+agg`` spec.
    """

    name = "aggregating"

    def __init__(
        self,
        inner: MatcherEngine,
        *,
        cover_scan_limit: int = DEFAULT_COVER_SCAN_LIMIT,
        use_index: bool = True,
        subtree_compile_threshold: int = DEFAULT_SUBTREE_COMPILE_THRESHOLD,
        subtree_min_size: int = DEFAULT_SUBTREE_MIN_SIZE,
    ) -> None:
        if not hasattr(inner, "refresh_links"):
            raise SubscriptionError(
                f"engine {inner.name!r} cannot refresh leaf link annotations "
                "in place — aggregation requires the compiled engine"
            )
        self.inner = inner
        self.schema = inner.schema
        self.cover_scan_limit = cover_scan_limit
        self.subtree_compile_threshold = subtree_compile_threshold
        self.subtree_min_size = subtree_min_size
        #: The attribute-inverted cover-candidate index; ``None`` in linear
        #: (``use_index=False``) mode.
        self._index: Optional[CoveringIndex] = CoveringIndex() if use_index else None
        #: Kernel backend for descent mini-programs: the inner engine's own.
        self._descent_backend = getattr(inner, "backend_name", DEFAULT_BACKEND)
        #: canonical predicate -> group, for every live group.
        self._groups: Dict[Predicate, _Group] = {}
        #: canonical predicate -> group, roots only (insertion-ordered).
        self._roots: Dict[Predicate, _Group] = {}
        #: member subscription_id -> owning group.
        self._group_of: Dict[int, _Group] = {}
        #: representative subscription_id -> group (roots only).
        self._rep_group: Dict[int, _Group] = {}
        self._num_links: Optional[int] = None
        self._link_of: Optional[LinkOfSubscriber] = None
        self._descent_cache = ProjectionCache(
            DESCENT_CACHE_CAPACITY, kind="aggregation"
        )
        #: Instance knob so tests can force the flush fallback.
        self._descent_repair_limit = DESCENT_REPAIR_SCAN_LIMIT
        self.dedup_hits = 0
        self.cover_probes = 0
        self.cover_candidates_total = 0
        self.subtree_compiles = 0
        registry = get_registry()
        self._obs_dedup = registry.counter("match.aggregation.dedup_hits")
        self._obs_forest_nodes = registry.gauge("match.aggregation.forest_nodes")
        self._obs_compression = registry.gauge("match.aggregation.compression_ratio")
        self._obs_cover_scan = registry.histogram(
            "match.aggregation.cover_scan_len", _COVER_SCAN_BOUNDARIES
        )
        self._obs_index_candidates = registry.counter(
            "match.aggregation.index_candidates"
        )
        self._obs_index_hits = registry.counter("match.aggregation.index_hits")
        self._obs_subtree_compiles = registry.counter(
            "match.aggregation.subtree_compiles"
        )

    # ------------------------------------------------------------------
    # Introspection

    @property
    def subscriptions(self) -> List[Subscription]:
        """The registered *member* subscriptions (representatives excluded)."""
        return [
            member
            for group in self._groups.values()
            for member in group.members.values()
        ]

    @property
    def subscription_count(self) -> int:
        return len(self._group_of)

    @property
    def forest_nodes(self) -> int:
        """Live groups (distinct canonical predicates)."""
        return len(self._groups)

    @property
    def root_count(self) -> int:
        """Groups compiled into the inner engine (distinct leaves)."""
        return len(self._roots)

    @property
    def compression_ratio(self) -> float:
        """Registered subscriptions per compiled leaf (>= 1.0)."""
        return len(self._group_of) / max(1, len(self._roots))

    @property
    def mean_cover_candidates(self) -> float:
        """Mean subsumption verifications per cover search (attach)."""
        return self.cover_candidates_total / max(1, self.cover_probes)

    def group_of(self, subscription_id: int) -> Tuple[Predicate, int, bool]:
        """(canonical predicate, member count, is_root) for a registration —
        introspection for tests and diagnostics."""
        group = self._group_of.get(subscription_id)
        if group is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        return group.canonical, len(group.members), group.parent is None

    def match_brute_force(self, event: Event) -> List[Subscription]:
        """Reference semantics: evaluate every member predicate directly."""
        return [
            member
            for group in self._groups.values()
            for member in group.members.values()
            if member.predicate.matches(event)
        ]

    # ------------------------------------------------------------------
    # Churn (incremental — no forest rebuild)

    def insert(self, subscription: Subscription) -> None:
        subscription_id = subscription.subscription_id
        if subscription_id in self._group_of:
            raise SubscriptionError(
                f"subscription #{subscription_id} is already registered"
            )
        if not subscription.predicate.is_satisfiable:
            # Mirror the tree's refusal exactly — aggregation must not
            # silently absorb what the unaggregated engine rejects.
            raise SubscriptionError(
                f"refusing to register unsatisfiable predicate "
                f"{subscription.predicate.describe()!r}"
            )
        canonical = canonicalize_predicate(subscription.predicate)
        group = self._groups.get(canonical)
        if group is not None:
            # Dedup hit: the compiled arrays do not move at all.
            group.members[subscription_id] = subscription
            self._group_of[subscription_id] = group
            self.dedup_hits += 1
            self._obs_dedup.inc()
            self._membership_changed(group)
        else:
            group = _Group(canonical, subscription)
            self._groups[canonical] = group
            self._group_of[subscription_id] = group
            self._attach(group)
        self._repair_descent_cache(group)
        self._invalidate_link_projection()
        self._update_gauges()

    def remove(self, subscription_id: int) -> Subscription:
        group = self._group_of.pop(subscription_id, None)
        if group is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        subscription = group.members.pop(subscription_id)
        if group.members:
            # The group survives; only its link union may have shrunk.
            self._membership_changed(group)
        else:
            self._dissolve(group)
        self._repair_descent_cache(group)
        self._invalidate_link_projection()
        self._update_gauges()
        return subscription

    def _attach(self, group: _Group) -> None:
        """Place a fresh group in the forest: descend from a covering root,
        demote any siblings the new predicate covers, and register the
        representative with the inner engine iff the group lands at a root."""
        if self._index is not None:
            self._attach_indexed(group)
            self._index.add(group, group.canonical)
        else:
            self._attach_linear(group)

    def _attach_indexed(self, group: _Group) -> None:
        """Index-driven attach: candidate groups come from the covering
        index's posting lists; only candidates are verified with
        ``predicate_subsumes``, all under one shared verification budget
        (:attr:`cover_scan_limit`).

        The verified cover set is ancestor-closed whenever the index
        surfaced the ancestors (covering is transitive), so walking it by
        ``parent`` pointer reproduces the linear level-by-level descent;
        a cover the filter misses only costs compression.
        """
        canonical = group.canonical
        budget = self.cover_scan_limit
        verified = 0
        candidates = self._index.cover_candidates(canonical)
        self._obs_index_candidates.inc(len(candidates))
        covers_found: List[_Group] = []
        for candidate in candidates:
            if verified >= budget:
                break
            verified += 1
            if predicate_subsumes(candidate.canonical, canonical):
                covers_found.append(candidate)
        self._obs_index_hits.inc(len(covers_found))
        parent: Optional[_Group] = None
        while True:
            deeper = next(
                (cover for cover in covers_found if cover.parent is parent), None
            )
            if deeper is None:
                break
            parent = deeper
        demoted: List[_Group] = []
        covered = self._index.covered_candidates(canonical, limit=budget - verified)
        if covered is None:
            # Universal probe: every group is covered — scan the actual
            # sibling level like the linear path would.
            covered = list(
                self._roots.values() if parent is None else parent.children
            )
        else:
            self._obs_index_candidates.inc(len(covered))
        hits = 0
        for candidate in covered:
            if verified >= budget:
                break
            if candidate is group or candidate.parent is not parent:
                continue
            verified += 1
            if predicate_subsumes(canonical, candidate.canonical):
                demoted.append(candidate)
                hits += 1
        self._obs_index_hits.inc(hits)
        self._record_cover_scan(verified)
        self._place(group, parent, demoted)

    def _attach_linear(self, group: _Group) -> None:
        """The bounded linear sibling scans (``use_index=False``): descend
        level by level, testing every sibling until the scan limit."""
        verified = 0
        parent: Optional[_Group] = None
        siblings: Union[Dict[Predicate, _Group], List[_Group]] = self._roots
        while True:
            cover, scanned = self._covering_in(
                siblings.values() if parent is None else siblings, group
            )
            verified += scanned
            if cover is None:
                break
            parent = cover
            siblings = parent.children
        demoted, scanned = self._covered_in(
            siblings.values() if parent is None else siblings, group
        )
        verified += scanned
        self._record_cover_scan(verified)
        self._place(group, parent, demoted)

    def _covering_in(
        self, groups: Iterable[_Group], group: _Group
    ) -> Tuple[Optional[_Group], int]:
        """A group among ``groups`` covering ``group``, plus groups scanned
        (bounded by :attr:`cover_scan_limit`)."""
        canonical = group.canonical
        scanned = 0
        for candidate in groups:
            if scanned >= self.cover_scan_limit:
                break
            if candidate is group:
                continue
            scanned += 1
            if predicate_subsumes(candidate.canonical, canonical):
                return candidate, scanned
        return None, scanned

    def _covered_in(
        self, groups: Iterable[_Group], group: _Group
    ) -> Tuple[List[_Group], int]:
        """Groups among ``groups`` that ``group`` covers, plus groups
        scanned (bounded by :attr:`cover_scan_limit`)."""
        canonical = group.canonical
        covered: List[_Group] = []
        scanned = 0
        for candidate in groups:
            if scanned >= self.cover_scan_limit:
                break
            if candidate is group:
                continue
            scanned += 1
            if predicate_subsumes(canonical, candidate.canonical):
                covered.append(candidate)
        return covered, scanned

    def _record_cover_scan(self, verified: int) -> None:
        self.cover_probes += 1
        self.cover_candidates_total += verified
        self._obs_cover_scan.observe(verified)

    def _place(
        self, group: _Group, parent: Optional[_Group], demoted: List[_Group]
    ) -> None:
        """Wire ``group`` under ``parent`` (root when ``None``), pulling the
        ``demoted`` former siblings under it, and keep the inner engine and
        subtree programs consistent."""
        for sibling in demoted:
            if parent is None:
                del self._roots[sibling.canonical]
                self.inner.remove(sibling.representative.subscription_id)
                del self._rep_group[sibling.representative.subscription_id]
            else:
                parent.children.remove(sibling)
            # An ex-root's mini-program covered *its* subtree; demoted it is
            # no longer a descent entry point.
            self._drop_subtree_program(sibling)
            sibling.parent = group
            group.children.append(sibling)
        group.parent = parent
        if parent is None:
            self._roots[group.canonical] = group
            self._register_root(group)
        else:
            parent.children.append(group)
            # The enclosing root's compiled descent no longer sees every
            # descendant; drop it and let the hit counter re-promote.
            self._invalidate_root_program(group)

    @staticmethod
    def _root_of(group: _Group) -> _Group:
        while group.parent is not None:
            group = group.parent
        return group

    def _invalidate_root_program(self, group: _Group) -> None:
        self._drop_subtree_program(self._root_of(group))

    @staticmethod
    def _drop_subtree_program(group: _Group) -> None:
        group.subtree_program = None
        group.subtree_groups = None
        group.descent_hits = 0

    def _register_root(self, group: _Group) -> None:
        self._rep_group[group.representative.subscription_id] = group
        self.inner.insert(group.representative)

    def _dissolve(self, group: _Group) -> None:
        """Remove an emptied group, promoting or reparenting its children."""
        del self._groups[group.canonical]
        if self._index is not None:
            self._index.remove(group)
        parent = group.parent
        if parent is None:
            del self._roots[group.canonical]
            self.inner.remove(group.representative.subscription_id)
            del self._rep_group[group.representative.subscription_id]
            self._drop_subtree_program(group)
            # Children lose their covering parent: each becomes a root and
            # compiles its own representative (its subtree stays intact —
            # covering within the subtree still holds).
            for child in group.children:
                child.parent = None
                self._roots[child.canonical] = child
                self._register_root(child)
        else:
            # A covered group's children are covered by the grandparent too
            # (covering is transitive), so they reattach one level up.
            parent.children.remove(group)
            for child in group.children:
                child.parent = parent
                parent.children.append(child)
            self._invalidate_root_program(parent)
        group.children = []

    def _membership_changed(self, group: _Group) -> None:
        """After a membership-only change: refresh the compiled leaf's link
        union in place.  Only roots have compiled leaves, and only bound
        links have annotations to go stale."""
        if group.parent is not None or self._link_of is None:
            return
        self.inner.refresh_links(group.representative)

    def _repair_descent_cache(self, group: _Group) -> None:
        """Surgically repair the descent cache after churn touching
        ``group``: an entry's group list (or its memoized expansions) is
        stale only if the entry's event satisfies the churned group's
        canonical predicate — every affected group (the churned one, its
        demoted/promoted/reparented relatives) accepts a subset of those
        events, and an entry contains a group iff the group's canonical
        matches the entry's event.  Surviving entries keep their (possibly
        stale) inner step counts.  Past :attr:`_descent_repair_limit` entries a wholesale
        flush is cheaper than scanning every key."""
        cache = self._descent_cache
        if len(cache) == 0:
            return
        if len(cache) > self._descent_repair_limit:
            cache.flush()
            return
        stale = value_tuple_test(group.canonical)
        cache.evict_if(lambda key, _entry: stale(key))

    def _update_gauges(self) -> None:
        self._obs_forest_nodes.set(len(self._groups))
        self._obs_compression.set(self.compression_ratio)

    def invalidate(self) -> None:
        """Drop the inner engine's compiled form (forest state is exact and
        survives; the next match recompiles the deduplicated leaves)."""
        self._descent_cache.flush()
        self.inner.invalidate()

    # ------------------------------------------------------------------
    # Matching (expansion at the engine boundary)

    def _subtree_program_for(self, root: _Group) -> Optional[CompiledProgram]:
        """The root's compiled descent program, promoting on the way: each
        cache-miss walk into the subtree bumps ``descent_hits``; past the
        threshold the descendants are lowered into a mini-program (subtrees
        below :attr:`subtree_min_size` reset the counter — dispatch would
        cost more than interpreting a couple of children)."""
        program = root.subtree_program
        if program is not None:
            return program
        if self.subtree_compile_threshold <= 0:
            return None
        root.descent_hits += 1
        if root.descent_hits < self.subtree_compile_threshold:
            return None
        descendants: List[_Group] = []
        stack = list(root.children)
        while stack:
            child = stack.pop()
            descendants.append(child)
            stack.extend(child.children)
        if len(descendants) < self.subtree_min_size:
            root.descent_hits = 0
            return None
        return self._compile_subtree(root, descendants)

    def _compile_subtree(
        self, root: _Group, descendants: List[_Group]
    ) -> CompiledProgram:
        """Lower every descendant's representative into one flat program.
        A flat match over all descendants equals the pruned interpreted
        walk: covering is transitive, so a matching descendant's ancestors
        match too and never prune it away.  Mini-programs run cacheless —
        they already sit behind the descent cache."""
        program = compile_subscriptions(
            self.schema,
            [child.representative for child in descendants],
            backend=self._descent_backend,
            cache_capacity=0,
        )
        root.subtree_program = program
        root.subtree_groups = {
            child.representative.subscription_id: child for child in descendants
        }
        self.subtree_compiles += 1
        self._obs_subtree_compiles.inc()
        return program

    def _descend(self, event: Event, inner_result: Optional[MatchResult] = None):
        """The matching *groups* for an event: the inner engine's matched
        roots plus every covered descendant whose canonical predicate
        accepts the event (one step per descendant evaluated; a rejecting
        descendant prunes its whole subtree).  Hot subtrees run compiled
        (:meth:`_subtree_program_for`) — the mini-program's matches and
        step count stand in for the interpreted walk.

        Served from a projection-keyed LRU (surgically repaired on churn —
        see :meth:`_repair_descent_cache`): covering descent re-evaluates
        predicates, so on warm Zipf event streams the cache is what keeps
        the aggregated engine's per-event cost at the deduplicated leaves'
        level.  Returns a mutable entry
        ``[groups, inner_steps, descent_steps, members_memo, bits_memo]`` —
        the memo slots start ``None`` and are filled lazily by
        :meth:`_expand` / :meth:`_descendant_link_bits`.  Memoizing on the
        entry is safe because churn evicts every entry whose event the
        churned group accepts, so group membership is frozen for an entry's
        lifetime.
        """
        key = event.as_tuple()
        cached = self._descent_cache.get(key)
        if cached is not None:
            return cached
        if inner_result is None:
            inner_result = self.inner.match(event)
        groups: List[_Group] = []
        steps = 0
        stack: List[_Group] = []
        for representative in inner_result.subscriptions:
            group = self._rep_group.get(representative.subscription_id)
            if group is None:
                raise SubscriptionError(
                    f"inner engine returned non-representative {representative!r}"
                )
            groups.append(group)
            if not group.children:
                continue
            program = self._subtree_program_for(group)
            if program is not None:
                result = program.match(event)
                subtree_groups = group.subtree_groups
                for matched in result.subscriptions:
                    groups.append(subtree_groups[matched.subscription_id])
                steps += result.steps
            else:
                stack.extend(group.children)
        while stack:
            child = stack.pop()
            steps += 1
            if child.canonical.matches(event):
                groups.append(child)
                stack.extend(child.children)
        entry = [groups, inner_result.steps, steps, None, None]
        self._descent_cache.put(key, entry)
        return entry

    @staticmethod
    def _expand(entry) -> List[Subscription]:
        """The entry's groups expanded to members, memoized on the entry so
        a warm cache hit costs one probe, not a rebuild of the match set."""
        matched = entry[3]
        if matched is None:
            matched = []
            for group in entry[0]:
                matched.extend(group.members.values())
            entry[3] = matched
        return matched

    def match(self, event: Event) -> MatchResult:
        entry = self._descend(event)
        return MatchResult(self._expand(entry), entry[1] + entry[2])

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        inner_results = self.inner.match_batch(events)
        results: List[MatchResult] = []
        for event, result in zip(events, inner_results):
            entry = self._descend(event, result)
            results.append(MatchResult(self._expand(entry), entry[1] + entry[2]))
        return results

    # ------------------------------------------------------------------
    # Link matching (masks over the deduplicated leaves)

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        self._num_links = num_links
        self._link_of = link_of_subscriber
        # Cached entries may carry link bits memoized under the old binding.
        self._descent_cache.flush()
        self._invalidate_link_projection()
        self.inner.bind_links(num_links, self._links_of_representative)

    def _projection_link_of(self) -> Optional[LinkOfSubscriber]:
        """Digest projection maps *member* subscription ids (the globally
        stable identity digests carry) through the outer link mapping — the
        inner binding only knows per-broker representative ids, which are
        not stable across brokers."""
        return self._link_of

    def _links_of_representative(
        self, representative: Subscription
    ) -> Union[int, Tuple[int, ...]]:
        """The multi-position ``LinkOfSubscriber`` handed to the inner
        engine: a deduplicated leaf lights the union of its members' links
        (unreachable members contribute nothing)."""
        group = self._rep_group.get(representative.subscription_id)
        if group is None or self._link_of is None:
            return -1
        positions = set()
        for member in group.members.values():
            position = self._link_of(member)
            if position >= 0:
                positions.add(position)
        return tuple(sorted(positions))

    def _descendant_link_bits(self, event: Event) -> Tuple[int, int]:
        """Link bits owed by *covered* groups whose predicate matches the
        event (roots' bits already live in the compiled leaf annotations).
        Rides the cached descent and memoizes on its entry — both the inner
        match and the forest walk are projection-cache-served on warm
        streams.  Returns ``(link_bits, descent_steps)``."""
        assert self._link_of is not None
        entry = self._descend(event)
        bits = entry[4]
        if bits is None:
            bits = 0
            for group in entry[0]:
                if group.parent is None:
                    continue
                for member in group.members.values():
                    position = self._link_of(member)
                    if position >= 0:
                        bits |= 1 << position
            entry[4] = bits
        return bits, entry[2]

    def match_links(
        self, event: Event, initialization_mask: TritVector
    ) -> LinkMatchResult:
        result = self.inner.match_links(event, initialization_mask)
        if len(self._groups) == len(self._roots):
            # Pure deduplication (no covered groups): the inner refinement
            # over the deduplicated leaves is already exact.
            return result
        assert self._num_links is not None
        _yes_bits, maybe_bits = pack_tritvector(initialization_mask)
        extra_bits, descent_steps = self._descendant_link_bits(event)
        final_yes, _ = pack_tritvector(result.mask)
        merged = final_yes | (extra_bits & maybe_bits)
        return LinkMatchResult(
            unpack_tritvector(merged, 0, self._num_links),
            result.steps + descent_steps,
        )

    def match_links_batch(
        self, events: Sequence[Event], initialization_mask: TritVector
    ) -> List[LinkMatchResult]:
        results = self.inner.match_links_batch(events, initialization_mask)
        if len(self._groups) == len(self._roots):
            return results
        assert self._num_links is not None
        _yes_bits, maybe_bits = pack_tritvector(initialization_mask)
        merged: List[LinkMatchResult] = []
        for event, result in zip(events, results):
            extra_bits, descent_steps = self._descendant_link_bits(event)
            final_yes, _ = pack_tritvector(result.mask)
            merged_yes = final_yes | (extra_bits & maybe_bits)
            merged.append(
                LinkMatchResult(
                    unpack_tritvector(merged_yes, 0, self._num_links),
                    result.steps + descent_steps,
                )
            )
        return merged

    def __repr__(self) -> str:
        return (
            f"AggregatingEngine({len(self._group_of)} subscriptions -> "
            f"{len(self._roots)} compiled leaves, {len(self._groups)} groups, "
            f"inner={self.inner!r})"
        )
