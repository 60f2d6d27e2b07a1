"""Link matching as a simulator protocol.

This is a thin adapter: the real work lives in
:class:`repro.core.router.ContentRouter` (annotation + mask refinement).
Every broker holds a router over the full replicated subscription set; the
decision for a message is the router's route decision for the message's
spanning tree.

Resilience (see :mod:`repro.sim.faults` and ``docs/resilience.md``):

* After a topology repair, :meth:`on_topology_repaired` rebuilds each
  affected broker's virtual-link table and rebinds its engine — flushing the
  annotation and every link cache keyed on the old positions.  Unaffected
  brokers keep their warm caches.
* While a broker is marked *stale* (structure repaired, annotations not yet
  rebuilt) it degrades to **flood fallback**: forward to every live
  spanning-tree child and deliver to locally matching subscribers.  Tree
  flooding preserves the ≤1-copy-per-link invariant and loses nothing; it
  merely wastes bandwidth until the annotations catch up.
* Messages carrying a ``replay_for`` restriction (replayed after a failure)
  are routed against a mask narrowed to the failed element's
  responsibilities, so subtrees that already received the event are not
  traversed again.

Match-once forwarding (see ``docs/performance.md``): because every broker
holds the same replicated subscription set, the matched-subscription set of
an event is hop-invariant.  The publisher's broker therefore matches once,
attaches an epoch-tagged :class:`~repro.matching.digest.MatchDigest` to the
in-flight message, and every downstream broker converts the digest straight
into its own link mask (one OR per matched leaf) instead of re-running the
refinement kernel.  Any condition under which the digest cannot be trusted
— epoch/checksum mismatch after churn, a broker holding deferred
subscriptions, the stale flood-fallback window, ``replay_for``-restricted
messages — falls back to full matching, so the fault suite's
zero-loss/≤1-copy invariants hold unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.router import ContentRouter, RouteDecision
from repro.errors import RoutingError
from repro.matching.predicates import Subscription
from repro.obs import get_registry
from repro.protocols.base import (
    Decision,
    ProtocolContext,
    RoutingProtocol,
    SimMessage,
    TopologyRepair,
)

#: Sentinel for :meth:`LinkMatchingProtocol._decision_for`'s ``digest``
#: parameter: "keep whatever the incoming message carried".
_INHERIT = object()


class LinkMatchingProtocol(RoutingProtocol):
    """The paper's protocol: hop-by-hop partial matching."""

    name = "link-matching"
    supports_faults = True

    def __init__(self, context: ProtocolContext, *, use_digests: bool = True) -> None:
        super().__init__(context)
        registry = get_registry()
        self._obs = registry.scope("protocol.link_matching")
        self._obs_handled = self._obs.counter("events_handled")
        self._obs_flood_fallbacks = self._obs.counter("flood_fallbacks")
        self._obs_replays_routed = self._obs.counter("replays_routed")
        self._obs_link_rebuilds = self._obs.counter("link_table_rebuilds")
        self._obs_digest_hits = self._obs.counter("digest_hits")
        self._obs_digest_fallbacks = self._obs.counter("digest_fallbacks")
        self._obs_digests_minted = self._obs.counter("digests_minted")
        #: Match-once forwarding toggle; ``False`` restores classic per-hop
        #: rematching everywhere (the benchmark baseline).
        self.use_digests = use_digests
        self._subscriptions: List[Subscription] = list(context.subscriptions)
        self._stale: Set[str] = set()
        # Subscriptions a router could not index yet (subscriber cut off at
        # build time); retried after every repair.
        self._deferred: Dict[str, List[Subscription]] = {}
        self.routers: Dict[str, ContentRouter] = {}
        for broker in context.topology.brokers():
            self.routers[broker] = self._build_router(broker)
        # Routers with deferred subscriptions bumped their epoch fewer times
        # during the build; align the counters (the per-broker deferred check
        # guards the actual set divergence).
        self._sync_epochs(bump=False)

    def _build_router(self, broker: str) -> ContentRouter:
        context = self.context
        router = ContentRouter(
            context.topology,
            broker,
            context.routing_tables[broker],
            context.spanning_trees,
            context.schema,
            attribute_order=context.attribute_order,
            domains=context.domains,
            factoring_attributes=context.factoring_attributes,
            engine=context.engine,
        )
        for subscription in self._subscriptions:
            try:
                router.add_subscription(subscription)
            except RoutingError:
                # A subscriber currently cut off owns no virtual link at this
                # broker; retried after the repair that reattaches it.
                self._deferred.setdefault(broker, []).append(subscription)
        return router

    # ------------------------------------------------------------------
    # Fault hooks

    def on_topology_repaired(self, repair: TopologyRepair) -> List[str]:
        """Rebuild virtual-link tables for affected brokers only.

        Returns the brokers whose layout actually changed (engine rebound,
        caches flushed) — the fault coordinator holds those in a stale
        window with flood fallback until their annotations are rebuilt.
        """
        context = self.context
        for broker in repair.joined_brokers:
            self.routers[broker] = self._build_router(broker)
        if not repair.changed:
            return list(repair.joined_brokers)
        changed_brokers: List[str] = list(repair.joined_brokers)
        touched = set(repair.routing_changes)
        if repair.tree_changes:
            # A tree change can move downstream signatures at any broker.
            touched.update(self.routers)
        for broker in sorted(touched):
            if broker in repair.joined_brokers:
                continue
            router = self.routers.get(broker)
            if router is None:
                continue
            if router.rebuild_links(
                context.routing_tables[broker], context.spanning_trees
            ):
                self._obs_link_rebuilds.inc()
                changed_brokers.append(broker)
        # Subscriptions whose subscribers were cut off when a router was
        # built become indexable once the repair reattaches them.
        for broker, pending in list(self._deferred.items()):
            router = self.routers.get(broker)
            if router is None:
                del self._deferred[broker]
                continue
            still_deferred: List[Subscription] = []
            for subscription in pending:
                try:
                    router.add_subscription(subscription)
                except RoutingError:
                    still_deferred.append(subscription)
            if still_deferred:
                self._deferred[broker] = still_deferred
            else:
                del self._deferred[broker]
        # Rebuilds and deferred retries moved individual routers' epochs by
        # different amounts; re-align past every in-flight digest so a
        # pre-repair digest can never be mistaken for current.
        self._sync_epochs(bump=True)
        return changed_brokers

    def _sync_epochs(self, *, bump: bool) -> None:
        """Bring every router's subscription-set epoch to one common value
        (the brokers hold replicas of one set); with ``bump``, move strictly
        past every existing value so older digests are invalidated."""
        if not self.routers:
            return
        epoch = max(router.subscription_epoch for router in self.routers.values())
        if bump:
            epoch += 1
        for router in self.routers.values():
            router.sync_epoch(epoch)

    def set_stale(self, broker: str, stale: bool) -> None:
        if stale:
            self._stale.add(broker)
        else:
            self._stale.discard(broker)

    def add_subscription(self, subscription: Subscription) -> None:
        """Insert a subscription into every broker's router at runtime."""
        self._subscriptions.append(subscription)
        for broker, router in self.routers.items():
            try:
                router.add_subscription(subscription)
            except RoutingError:
                self._deferred.setdefault(broker, []).append(subscription)
        # Deferred routers didn't bump; keep the counters in lockstep (their
        # set divergence is caught by the deferred check and the digest
        # checksum, not the counter).
        self._sync_epochs(bump=False)

    # ------------------------------------------------------------------
    # Decisions

    def _can_mint(self, broker: str, router: ContentRouter) -> bool:
        """Whether ``broker`` may mint a digest for a digest-less message:
        digests enabled, an engine-backed (non-factored) router, and no
        deferred subscriptions (a deferred broker's set is smaller than its
        peers', so a digest minted here would under-deliver downstream)."""
        return (
            self.use_digests
            and router.supports_digests
            and broker not in self._deferred
        )

    def _consume_digest(
        self, broker: str, router: ContentRouter, message: SimMessage
    ) -> Decision:
        """Turn an in-flight digest into this broker's decision, falling
        back to full matching whenever the digest cannot be trusted here
        (epoch/checksum mismatch, deferred-subscription divergence, unknown
        ids).  The fallback decision strips the digest from its forwards —
        downstream brokers share this broker's epoch after a protocol-level
        sync, so re-verifying a digest this broker rejected would fail
        there too."""
        assert message.digest is not None
        if broker not in self._deferred:
            try:
                routed = router.route_with_digest(
                    message.event, message.root, message.digest
                )
            except RoutingError:
                pass
            else:
                self._obs_digest_hits.inc()
                return self._decision_for(message, routed)
        self._obs_digest_fallbacks.inc()
        routed = router.route(message.event, message.root)
        return self._decision_for(message, routed, digest=None)

    def handle(self, broker: str, message: SimMessage) -> Decision:
        if broker in self._stale:
            return self._flood_decision(broker, message)
        router = self.routers[broker]
        if message.replay_for is not None:
            # Replays route against a restricted mask; a digest projects the
            # *unrestricted* matched set, so the replay path always rematches.
            self._obs_replays_routed.inc()
            routed = router.route(
                message.event, message.root, restrict_to=message.replay_for
            )
            # Strip any digest: every downstream hop of a replay rematches
            # anyway (replay_for rides along), so carrying it is dead weight.
            return self._decision_for(message, routed, digest=None)
        if message.digest is not None and self.use_digests:
            return self._consume_digest(broker, router, message)
        if self._can_mint(broker, router):
            routed, digest = router.route_digest(message.event, message.root)
            if digest is not None:
                self._obs_digests_minted.inc()
            return self._decision_for(message, routed, digest=digest)
        routed = router.route(message.event, message.root)
        return self._decision_for(message, routed)

    def handle_batch(self, broker: str, messages: Sequence[SimMessage]) -> List[Decision]:
        """Route a batch through the broker's router in one call.

        A stale broker floods the whole batch through one grouped pass (one
        ``match_locally_batch`` call — the stale window exists for exactly
        the load spikes where per-message round-trips hurt).  Otherwise
        messages are grouped by spanning-tree root (the initialization mask
        depends on it): digest-bearing messages are converted per message
        (a handful of mask ORs each), digest-less ones go through the
        minting batch path or :meth:`ContentRouter.route_batch`, both of
        which deduplicate by projection and hit the engine's caches.
        Replay messages take the single-message path (their masks are not
        the group's).
        """
        if not messages:
            return []
        if broker in self._stale:
            return self._flood_decision_batch(broker, messages)
        router = self.routers[broker]
        decisions: List[Decision] = [None] * len(messages)  # type: ignore[list-item]
        can_mint = self._can_mint(broker, router)
        by_root: Dict[str, List[int]] = {}
        for i, message in enumerate(messages):
            if message.replay_for is not None:
                decisions[i] = self.handle(broker, message)
            elif message.digest is not None and self.use_digests:
                decisions[i] = self._consume_digest(broker, router, message)
            else:
                group = by_root.get(message.root)
                if group is None:
                    by_root[message.root] = [i]
                else:
                    group.append(i)
        for root, indices in by_root.items():
            events = [messages[i].event for i in indices]
            if can_mint:
                for i, (route_decision, digest) in zip(
                    indices, router.route_digest_batch(events, root)
                ):
                    if digest is not None:
                        self._obs_digests_minted.inc()
                    decisions[i] = self._decision_for(
                        messages[i], route_decision, digest=digest
                    )
            else:
                for i, route_decision in zip(indices, router.route_batch(events, root)):
                    decisions[i] = self._decision_for(messages[i], route_decision)
        return decisions

    def _flood_decision(self, broker: str, message: SimMessage) -> Decision:
        """Graceful degradation while annotations are stale: flood the
        (already repaired) spanning tree and match only for local delivery.

        Tree flooding keeps ≤1 copy per link and reaches every live
        subscriber, so correctness is preserved; only bandwidth is wasted.
        """
        self._obs_handled.inc()
        self._obs_flood_fallbacks.inc()
        router = self.routers[broker]
        local = router.match_locally(message.event)
        local_clients = set(self.context.topology.clients_of(broker))
        deliveries = sorted(
            subscriber
            for subscriber in local.subscribers
            if subscriber in local_clients
            and (message.replay_for is None or subscriber in message.replay_for)
        )
        children = self.context.tree_children(broker, message.root)
        return Decision(
            sends=[(child, message.forwarded()) for child in children],
            deliveries=deliveries,
            matching_steps=local.steps,
        )

    def _flood_decision_batch(
        self, broker: str, messages: Sequence[SimMessage]
    ) -> List[Decision]:
        """Batched flood fallback: one ``match_locally_batch`` pass for the
        whole stale-window batch instead of a per-message round-trip through
        :meth:`_flood_decision` — the stale window coincides with exactly
        the repair-induced load spikes where batching matters.  Decision
        ``i`` equals ``_flood_decision(broker, messages[i])``: tree children
        are cached per spanning-tree root, and a per-message ``replay_for``
        restriction still narrows that message's deliveries.
        """
        router = self.routers[broker]
        self._obs_handled.inc(len(messages))
        self._obs_flood_fallbacks.inc(len(messages))
        local_clients = set(self.context.topology.clients_of(broker))
        locals_ = router.match_locally_batch([m.event for m in messages])
        children_of_root: Dict[str, List[str]] = {}
        decisions: List[Decision] = []
        for message, local in zip(messages, locals_):
            deliveries = sorted(
                subscriber
                for subscriber in local.subscribers
                if subscriber in local_clients
                and (message.replay_for is None or subscriber in message.replay_for)
            )
            children = children_of_root.get(message.root)
            if children is None:
                children = self.context.tree_children(broker, message.root)
                children_of_root[message.root] = children
            decisions.append(
                Decision(
                    sends=[(child, message.forwarded()) for child in children],
                    deliveries=deliveries,
                    matching_steps=local.steps,
                )
            )
        return decisions

    def _decision_for(
        self,
        message: SimMessage,
        decision: RouteDecision,
        digest: object = _INHERIT,
    ) -> Decision:
        """Translate a router decision into a protocol decision.

        ``digest`` controls what the forwarded copies carry: the default
        sentinel inherits the incoming message's digest (a consumed digest
        stays valid downstream — all brokers share the epoch), ``None``
        strips it (fallback paths), and a :class:`MatchDigest` attaches a
        freshly minted one.
        """
        self._obs_handled.inc()
        # Per-hop refinement accounting (Chart 2's quantity, as seen by the
        # simulator): one labeled counter per hop distance is a single dict
        # lookup, bounded by the network diameter.
        hop = str(message.hop)
        self._obs.counter("refinement_steps", hop=hop).inc(decision.steps)
        self._obs.counter("deliveries", hop=hop).inc(len(decision.deliver_to))
        sends = []
        for neighbor in decision.forward_to:
            forward = message.forwarded()
            if digest is not _INHERIT:
                forward.digest = digest  # type: ignore[assignment]
            sends.append((neighbor, forward))
        return Decision(
            sends=sends,
            deliveries=list(decision.deliver_to),
            matching_steps=decision.steps,
        )
