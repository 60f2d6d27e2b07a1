"""A broker's content router: PST copy + annotations + masks + link matching.

Per the paper, "each broker in the network has a copy of all the
subscriptions, organized into a PST" (Section 3.1).  A :class:`ContentRouter`
is that per-broker state:

* the broker's matcher (a :class:`~repro.matching.base.MatcherEngine`
  selected by the ``engine`` spec — or a :class:`FactoredMatcher` when
  factoring is enabled and the spec allows it),
* its :class:`VirtualLinkTable` (virtual links + one initialization mask per
  spanning tree),
* the trit-vector annotations of the matcher's tree(s) — maintained
  incrementally inside the engine on the non-factored path, recomputed
  lazily per sub-tree on the factored path,
* :meth:`route` — run the Section 3.3 refinement for an event arriving on a
  given spanning tree and return the neighbors to forward to.

Routers do not move messages themselves; the fabric
(:class:`repro.core.fabric.ContentRoutedNetwork`) and the simulator drive
them.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import RoutingError, SubscriptionError
from repro.core.annotation import TreeAnnotation
from repro.core.link_matcher import LinkMatcher, LinkMatchResult
from repro.core.masks import VirtualLinkTable
from repro.core.trits import TritVector, pack_tritvector, unpack_tritvector
from repro.matching.base import MatcherEngine
from repro.matching.compile import CompiledProgram, compile_tree
from repro.matching.digest import MatchDigest, mix_subscription_id
from repro.matching.events import Event
from repro.matching.optimizations import FactoredMatcher
from repro.matching.pst import MatchResult
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema
from repro.network.paths import RoutingTable
from repro.obs import get_registry
from repro.network.spanning import SpanningTree
from repro.network.topology import Topology

if TYPE_CHECKING:
    from repro.matching.engines import EngineSpec


class RouteDecision:
    """What a broker decided for one event: neighbors to send to, split into
    next-hop brokers and locally attached clients, plus the matching steps
    spent deciding.

    ``mask`` is a **snapshot**: its bit positions denote the virtual links
    of the router's layout *at decision time*, and its refinement reflects
    the subscription set at decision time.  Any churn (add/remove) or link
    rebuild after the decision can silently change what the same bits mean,
    so the decision carries the router's ``subscription_epoch`` it was made
    under; callers holding a decision across churn must check it with
    :meth:`assert_current` before reusing the mask.
    """

    __slots__ = ("broker", "forward_to", "deliver_to", "steps", "mask", "epoch")

    def __init__(
        self,
        broker: str,
        forward_to: List[str],
        deliver_to: List[str],
        steps: int,
        mask: TritVector,
        epoch: int = 0,
    ) -> None:
        self.broker = broker
        self.forward_to = forward_to
        self.deliver_to = deliver_to
        self.steps = steps
        self.mask = mask
        self.epoch = epoch

    def assert_current(self, subscription_epoch: int) -> None:
        """Guard against cross-churn reuse of the mask snapshot: raises
        :class:`RoutingError` when the router's epoch moved on since this
        decision was stamped."""
        if self.epoch != subscription_epoch:
            raise RoutingError(
                f"stale RouteDecision: mask snapshot from epoch {self.epoch}, "
                f"router is at epoch {subscription_epoch} — re-route the event"
            )

    def __repr__(self) -> str:
        return (
            f"RouteDecision({self.broker!r} -> brokers {self.forward_to!r}, "
            f"clients {self.deliver_to!r}, {self.steps} steps, "
            f"epoch {self.epoch})"
        )


class ContentRouter:
    """Per-broker link-matching state (see module docstring)."""

    def __init__(
        self,
        topology: Topology,
        broker: str,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        factoring_attributes: Optional[Sequence[str]] = None,
        engine: Union[str, "EngineSpec"] = "compiled",
    ) -> None:
        # Imported here rather than at module scope: repro.matching.engines
        # imports repro.core submodules, so a module-level import would
        # cycle when repro.matching.engines is the entry point.
        from repro.matching.engines import create_matcher, engine_spec

        self.topology = topology
        self.broker = broker
        self.schema = schema
        self.engine = engine_spec(engine)
        # Declared domains are a *contract*: annotation treats them as the
        # exhaustive value universe (that is what lets a covered level
        # promote to Yes, and what makes range annotations precise), so
        # routed events must honor them — route() enforces it.
        self.domains: Dict[str, frozenset] = (
            {name: frozenset(values) for name, values in domains.items()}
            if domains
            else {}
        )
        self.links = VirtualLinkTable(topology, broker, routing_table, spanning_trees)
        self._factored: Optional[FactoredMatcher] = None
        self._engine: Optional[MatcherEngine] = None
        try:
            matcher = create_matcher(
                self.engine,
                schema,
                attribute_order=attribute_order,
                domains=domains,
                factoring_attributes=factoring_attributes,
            )
        except SubscriptionError as exc:
            # A matcher this router cannot build (e.g. factoring without
            # finite domains) is a routing-configuration error here.
            raise RoutingError(str(exc)) from exc
        if isinstance(matcher, FactoredMatcher):
            self._factored = matcher
        else:
            self._engine = matcher
            self._engine.bind_links(self.links.num_links, self._link_of_subscriber)
        # Per-sub-tree link-matching state for the factored matcher; the
        # non-factored path keeps its annotations inside the engine instead.
        self._annotations: Dict[int, Tuple[TreeAnnotation, LinkMatcher]] = {}
        self._programs: Dict[int, CompiledProgram] = {}
        self._dirty = True
        # Subscription-set epoch: a monotonic version counter over this
        # router's subscription set and link layout, plus an order-independent
        # checksum of the registered subscription ids.  Together they tag
        # match digests (see route_digest) so a consumer can detect that the
        # minting set is not its own and fall back to full matching.
        self.subscription_epoch = 0
        self._subscription_checksum = 0
        # Observability (no-ops unless the global registry is enabled): route
        # invocations and PST node visits (= matching steps) per broker.
        registry = get_registry()
        self._obs_routes = registry.counter("router.route_calls", broker=broker)
        self._obs_steps = registry.counter("router.pst_node_visits", broker=broker)
        self._obs_forwards = registry.counter("router.forwards", broker=broker)
        self._obs_deliveries = registry.counter("router.local_deliveries", broker=broker)
        self._obs_refreshes = registry.counter("router.annotation_refreshes", broker=broker)
        self._obs_epoch = registry.gauge("router.subscription_epoch", broker=broker)

    # ------------------------------------------------------------------
    # Subscription maintenance

    @property
    def matcher(self) -> Union[MatcherEngine, FactoredMatcher]:
        """The underlying matcher (useful for inspection and local matching)."""
        return self._factored if self._factored is not None else self._engine

    def add_subscription(self, subscription: Subscription) -> None:
        """Register a subscription (its ``subscriber`` must be a client).

        The non-factored engine keeps its own annotations fresh incrementally
        along the subscription's path; only the factored matcher needs a full
        refresh (its trees restructure on the next compaction).
        """
        self.links.position_of(subscription.subscriber)  # validates early
        self.matcher.insert(subscription)
        if self._factored is not None:
            self._dirty = True
        self._bump_epoch(subscription.subscription_id)

    def remove_subscription(self, subscription_id: int) -> Subscription:
        subscription = self.matcher.remove(subscription_id)
        if self._factored is not None:
            self._dirty = True
        self._bump_epoch(subscription_id)
        return subscription

    def _bump_epoch(self, subscription_id: Optional[int] = None) -> None:
        self.subscription_epoch += 1
        if subscription_id is not None:
            # XOR of mixed ids: add-then-remove restores the old checksum,
            # and two routers agree iff they folded the same id multiset.
            self._subscription_checksum ^= mix_subscription_id(subscription_id)
        self._obs_epoch.set(self.subscription_epoch)

    def sync_epoch(self, epoch: int) -> None:
        """Fast-forward the epoch counter to a protocol-chosen value.

        :class:`~repro.protocols.link_matching.LinkMatchingProtocol` keeps
        all brokers' epoch counters in lockstep (they hold replicas of one
        subscription set) by syncing them after every protocol-level
        mutation; monotonic, so an in-flight digest minted before the sync
        can never be mistaken for current.
        """
        if epoch > self.subscription_epoch:
            self.subscription_epoch = epoch
            self._obs_epoch.set(epoch)

    @property
    def subscription_count(self) -> int:
        return len(self.matcher.subscriptions)

    def _link_of_subscriber(self, subscription: Subscription) -> int:
        try:
            return self.links.position_of(subscription.subscriber)
        except RoutingError:
            # Cut off by a failure: annotation layers treat a negative
            # position as "contributes no link" until a repair re-adds it.
            return -1

    # ------------------------------------------------------------------
    # Topology repair

    def rebuild_links(
        self,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
    ) -> bool:
        """Re-derive virtual links and masks after a topology repair.

        Returns ``True`` when the layout changed.  In that case every cached
        structure keyed on link positions or packed mask bits is invalid —
        the engine's annotation *and* its link caches (CompiledEngine's
        ``(projection, yes, maybe)``-keyed cache) — so the engine is
        rebound, which flushes them.  A stale cache here is not a perf bug
        but a *correctness* bug: after a repair the same packed mask bits can
        denote different virtual links, so a cache hit would route to the
        pre-failure destinations.  When
        the layout is unchanged (a failed lateral link, say) nothing is
        rebound and warm caches survive — the surgical half of the repair.
        """
        changed = self.links.rebuild(routing_table, spanning_trees)
        if not changed:
            return False
        if self._engine is not None:
            self._engine.bind_links(self.links.num_links, self._link_of_subscriber)
        if self._factored is not None:
            self._dirty = True
        # The layout changed: the same mask bits now denote different
        # links, so digests minted (and decisions stamped) before the
        # rebuild must not be trusted against this router anymore.
        self._bump_epoch()
        return True

    def _refresh_annotations(self) -> None:
        """Rebuild link-matching state for every factored sub-tree — either
        annotated compiled programs or (TreeAnnotation, LinkMatcher) pairs,
        depending on the engine."""
        assert self._factored is not None
        self._annotations.clear()
        self._programs.clear()
        for _key, tree in self._factored.trees():
            if self.engine.kind == "compiled":
                program = compile_tree(tree)
                program.annotate(self.links.num_links, self._link_of_subscriber)
                self._programs[id(tree)] = program
            else:
                annotation = TreeAnnotation(self.links.num_links, self._link_of_subscriber)
                annotation.annotate(tree)
                self._annotations[id(tree)] = (annotation, LinkMatcher(tree, annotation))
        self._dirty = False
        self._obs_refreshes.inc()

    # ------------------------------------------------------------------
    # Routing

    def route(
        self,
        event: Event,
        tree_root: str,
        *,
        restrict_to: Optional[FrozenSet[str]] = None,
    ) -> RouteDecision:
        """Run link matching for an event traveling on the spanning tree
        rooted at ``tree_root`` and decide this broker's sends.

        ``restrict_to`` narrows the initialization mask to virtual links
        carrying at least one of the given destinations — the replay path
        for recovered messages, which must not re-traverse subtrees that
        already received the event.

        Raises :class:`RoutingError` if the event violates a declared
        attribute domain — annotations assume domains are exhaustive, so an
        out-of-domain value could be routed unsoundly.
        """
        self._check_domains(event)
        mask = self.links.initialization_mask(tree_root)
        if restrict_to is not None:
            mask = self.links.restrict_mask(mask, restrict_to)
        if self._factored is None:
            assert self._engine is not None
            final = self._engine.match_links(event, mask)
        else:
            self._factored.compact()
            if self._dirty:
                self._refresh_annotations()
            tree = self._factored.tree_for_event(event)
            if tree is None:
                final = LinkMatchResult(mask.close_maybes(), 1)
            elif self.engine.kind == "compiled":
                program = self._programs.get(id(tree))
                if program is None:
                    raise RoutingError("matcher tree appeared after annotation refresh")
                yes_bits, maybe_bits = pack_tritvector(mask)
                final_yes, steps = program.match_links(event, yes_bits, maybe_bits)
                final = LinkMatchResult(
                    unpack_tritvector(final_yes, 0, self.links.num_links), steps
                )
            else:
                annotation_pair = self._annotations.get(id(tree))
                if annotation_pair is None:
                    raise RoutingError("matcher tree appeared after annotation refresh")
                final = annotation_pair[1].match_links(event, mask)
        return self._decision_for(final)

    def route_batch(self, events: Sequence[Event], tree_root: str) -> List[RouteDecision]:
        """Route a batch of events traveling on the same spanning tree.

        Decision ``i`` is exactly ``route(events[i], tree_root)``; the batch
        entry point exists so the engine's deduplicating, cache-backed
        :meth:`~repro.matching.base.MatcherEngine.match_links_batch` (and,
        on the factored path, per-sub-tree grouping) can amortize the
        refinement across the batch.
        """
        if not events:
            return []
        for event in events:
            self._check_domains(event)
        mask = self.links.initialization_mask(tree_root)
        if self._factored is None:
            assert self._engine is not None
            finals: List[LinkMatchResult] = self._engine.match_links_batch(events, mask)
            return [self._decision_for(final) for final in finals]
        self._factored.compact()
        if self._dirty:
            self._refresh_annotations()
        results: List[Optional[LinkMatchResult]] = [None] * len(events)
        # Group by selected sub-tree so each compiled program refines its
        # events in one batch (sharing that program's link cache).
        groups: Dict[int, Tuple[object, List[int]]] = {}
        for i, event in enumerate(events):
            tree = self._factored.tree_for_event(event)
            if tree is None:
                results[i] = LinkMatchResult(mask.close_maybes(), 1)
                continue
            entry = groups.get(id(tree))
            if entry is None:
                groups[id(tree)] = (tree, [i])
            else:
                entry[1].append(i)
        if self.engine.kind == "compiled":
            yes_bits, maybe_bits = pack_tritvector(mask)
            for tree_id, (tree, indices) in groups.items():
                program = self._programs.get(tree_id)
                if program is None:
                    raise RoutingError("matcher tree appeared after annotation refresh")
                packed = program.match_links_batch(
                    [events[i] for i in indices], yes_bits, maybe_bits
                )
                for i, (final_yes, steps) in zip(indices, packed):
                    results[i] = LinkMatchResult(
                        unpack_tritvector(final_yes, 0, self.links.num_links), steps
                    )
        else:
            for tree_id, (_tree, indices) in groups.items():
                annotation_pair = self._annotations.get(tree_id)
                if annotation_pair is None:
                    raise RoutingError("matcher tree appeared after annotation refresh")
                for i in indices:
                    results[i] = annotation_pair[1].match_links(events[i], mask)
        return [self._decision_for(final) for final in results]

    def _decision_for(self, final: LinkMatchResult) -> RouteDecision:
        neighbors = self.links.neighbors_for_mask(final.mask)
        forward_to: List[str] = []
        deliver_to: List[str] = []
        for neighbor in neighbors:
            if self.topology.node(neighbor).kind.is_client:
                deliver_to.append(neighbor)
            else:
                forward_to.append(neighbor)
        self._obs_routes.inc()
        self._obs_steps.inc(final.steps)
        self._obs_forwards.inc(len(forward_to))
        self._obs_deliveries.inc(len(deliver_to))
        return RouteDecision(
            self.broker,
            forward_to,
            deliver_to,
            final.steps,
            final.mask,
            self.subscription_epoch,
        )

    # ------------------------------------------------------------------
    # Match-once forwarding (digest minting and consumption)

    @property
    def supports_digests(self) -> bool:
        """Whether this router can mint and consume match digests.

        The factored matcher splits subscriptions across sub-trees before
        any engine sees them and has no projection surface; factored
        routers route every message the classic way.
        """
        return self._factored is None

    def route_digest(
        self, event: Event, tree_root: str
    ) -> Tuple[RouteDecision, Optional[MatchDigest]]:
        """Route like :meth:`route` *and* mint a :class:`MatchDigest`.

        Runs the full (non-trit) match once, takes the sorted matched
        subscription ids as the digest, and derives this broker's own mask
        by projecting those ids through the engine's leaf→link-bits table —
        the same projection every downstream hop will run, so the origin's
        decision and the consumers' decisions come from one computation.
        Falls back to plain :meth:`route` (returning no digest) on the
        factored path.
        """
        if self._factored is not None:
            return self.route(event, tree_root), None
        self._check_domains(event)
        assert self._engine is not None
        local = self._engine.match(event)
        ids = sorted(s.subscription_id for s in local.subscriptions)
        final = self._project_final(ids, tree_root, local.steps)
        return self._decision_for(final), self._mint(ids)

    def route_digest_batch(
        self, events: Sequence[Event], tree_root: str
    ) -> List[Tuple[RouteDecision, Optional[MatchDigest]]]:
        """Batch form of :meth:`route_digest` (same per-event results); the
        full match rides the engine's deduplicating batch kernel."""
        if not events:
            return []
        if self._factored is not None:
            return [(decision, None) for decision in self.route_batch(events, tree_root)]
        for event in events:
            self._check_domains(event)
        assert self._engine is not None
        out: List[Tuple[RouteDecision, Optional[MatchDigest]]] = []
        for local in self._engine.match_batch(events):
            ids = sorted(s.subscription_id for s in local.subscriptions)
            final = self._project_final(ids, tree_root, local.steps)
            out.append((self._decision_for(final), self._mint(ids)))
        return out

    def route_with_digest(
        self, event: Event, tree_root: str, digest: MatchDigest
    ) -> RouteDecision:
        """Convert an in-flight digest straight into this broker's link mask
        — O(|matched|) ORs instead of a refinement descent.

        Raises :class:`RoutingError` when the digest cannot be trusted
        here: minted under a different epoch or subscription-set checksum,
        naming ids this broker does not hold, or on a factored router.
        Callers fall back to full matching.
        """
        if self._factored is not None:
            raise RoutingError("factored routers cannot consume match digests")
        self._check_domains(event)
        if digest.epoch != self.subscription_epoch or (
            digest.checksum != self._subscription_checksum
        ):
            raise RoutingError(
                f"match digest epoch {digest.epoch} does not match router "
                f"epoch {self.subscription_epoch} at {self.broker!r} — "
                f"subscription sets may have diverged"
            )
        final = self._project_final(digest.ids, tree_root, 0)
        return self._decision_for(final)

    def _mint(self, ids: Sequence[int]) -> MatchDigest:
        return MatchDigest(self.subscription_epoch, self._subscription_checksum, ids)

    def _project_final(
        self, ids: Sequence[int], tree_root: str, base_steps: int
    ) -> LinkMatchResult:
        assert self._engine is not None
        mask = self.links.initialization_mask(tree_root)
        yes_bits, maybe_bits = pack_tritvector(mask)
        final_yes, steps = self._engine.project_links(ids, yes_bits, maybe_bits)
        return LinkMatchResult(
            unpack_tritvector(final_yes, 0, self.links.num_links),
            base_steps + steps,
        )

    def _check_domains(self, event: Event) -> None:
        if not self.domains:
            return
        for name, domain in self.domains.items():
            value = event.value(name)
            if value not in domain:
                raise RoutingError(
                    f"event value {value!r} for attribute {name!r} is outside "
                    f"the declared domain — routed events must honor declared "
                    f"domains (they are treated as exhaustive)"
                )

    def match_locally(self, event: Event) -> MatchResult:
        """Full (non-trit) matching against the broker's subscription copy —
        the centralized algorithm of Section 2, used by the match-first and
        flooding baselines and by Chart 2's "centralized" line."""
        return self.matcher.match(event)

    def match_locally_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Batch form of :meth:`match_locally` (same per-event results)."""
        return self.matcher.match_batch(events)

    def __repr__(self) -> str:
        return (
            f"ContentRouter({self.broker!r}, {self.subscription_count} subscriptions, "
            f"{self.links.num_links} virtual links)"
        )
