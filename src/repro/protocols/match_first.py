"""The match-first baseline (destination lists).

"In the match-first approach, the event is first matched against all
subscriptions, thus generating a destination list and the event is then
routed to all entries on this list."

The publishing broker performs a full match over the complete replicated
subscription set and attaches the resulting destination list to the message.
Downstream brokers do no matching: they split the carried list by their
routing tables' next hops and forward one copy per hop, delivering to
locally attached destinations.

The costs the paper calls out fall straight out of the model:

* the publishing broker pays the *entire* matching bill (Chart 2's
  "centralized" line is this broker's step count), and
* header size grows with the subscriber count — the simulator charges
  ``per_destination_entry_us`` at every hop for building, carrying and
  splitting the list, which is what makes the approach "impractical" at
  thousands of destinations.

Unlike flooding, a link carries at most one copy of an event here (the list
is split per next hop), so match-first is a fair second baseline.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.router import ContentRouter
from repro.errors import SimulationError
from repro.protocols.base import Decision, ProtocolContext, RoutingProtocol, SimMessage


class MatchFirstProtocol(RoutingProtocol):
    """Full match at the publisher's broker; destination-list routing after."""

    name = "match-first"

    def __init__(self, context: ProtocolContext) -> None:
        super().__init__(context)
        # Full matchers are only needed at brokers that host publishers.
        self._matchers: Dict[str, ContentRouter] = {}
        for root in context.spanning_trees:
            router = ContentRouter(
                context.topology,
                root,
                context.routing_tables[root],
                context.spanning_trees,
                context.schema,
                attribute_order=context.attribute_order,
                domains=context.domains,
                factoring_attributes=context.factoring_attributes,
                engine=context.engine,
            )
            for subscription in context.subscriptions:
                router.add_subscription(subscription)
            self._matchers[root] = router

    def handle(self, broker: str, message: SimMessage) -> Decision:
        if message.destinations is None:
            return self._handle_at_publisher(broker, message)
        return self._handle_downstream(broker, message)

    def _handle_at_publisher(self, broker: str, message: SimMessage) -> Decision:
        matcher = self._matchers.get(broker)
        if matcher is None:
            raise SimulationError(
                f"match-first message without destination list at non-publisher "
                f"broker {broker!r}"
            )
        result = matcher.match_locally(message.event)
        destinations = tuple(sorted(result.subscribers))
        split = self._split(broker, destinations)
        return self._decision_from_split(message, split, matching_steps=result.steps,
                                         destination_entries=len(destinations))

    def _handle_downstream(self, broker: str, message: SimMessage) -> Decision:
        assert message.destinations is not None
        split = self._split(broker, message.destinations)
        return self._decision_from_split(
            message, split, matching_steps=0, destination_entries=len(message.destinations)
        )

    def _split(self, broker: str, destinations: Tuple[str, ...]) -> Dict[str, List[str]]:
        """Partition a destination list by this broker's next hops."""
        topology = self.context.topology
        routing = self.context.routing_tables[broker]
        local = set(topology.clients_of(broker))
        split: Dict[str, List[str]] = {}
        for destination in destinations:
            hop = destination if destination in local else routing.next_hop(destination)
            split.setdefault(hop, []).append(destination)
        return split

    def _decision_from_split(
        self,
        message: SimMessage,
        split: Dict[str, List[str]],
        *,
        matching_steps: int,
        destination_entries: int,
    ) -> Decision:
        topology = self.context.topology
        sends: List[Tuple[str, SimMessage]] = []
        deliveries: List[str] = []
        for hop, group in sorted(split.items()):
            if topology.node(hop).kind.is_client:
                deliveries.append(hop)
            else:
                sends.append((hop, message.forwarded(destinations=tuple(group))))
        return Decision(
            sends=sends,
            deliveries=deliveries,
            matching_steps=matching_steps,
            destination_entries=destination_entries,
        )
