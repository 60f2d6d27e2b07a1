"""The informal matcher interface shared by all matching engines.

:class:`ParallelSearchTree`, :class:`FactoredMatcher` and :class:`SearchDag`
all expose the same surface; components that only *consume* a matcher (the
broker engine, the simulator's protocols, the benchmarks) type against this
ABC.  Python duck typing would suffice, but the ABC documents the contract
and gives a single place to explain the semantics.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import RoutingError
from repro.matching.events import Event
from repro.matching.pst import MatchResult
from repro.matching.predicates import Subscription

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.core
    from repro.core.annotation import LinkOfSubscriber
    from repro.core.link_matcher import LinkMatchResult
    from repro.core.trits import TritVector

_R = TypeVar("_R")


def per_event_loop(fn: Callable[[Event], _R], events: Sequence[Event]) -> List[_R]:
    """The per-event batch fallback: result ``i`` is exactly ``fn(events[i])``.

    The one canonical form of the loop that the base-class batch methods
    (and any engine without a real batched kernel) fall back to — kept as a
    named helper so implementations don't each re-grow their own copy.
    """
    return [fn(event) for event in events]


class Matcher(abc.ABC):
    """Anything that can match events against a mutable set of subscriptions.

    Contract:

    * :meth:`match` returns exactly the subscriptions whose predicates are
      satisfied by the event (same set as evaluating every predicate
      directly), plus the number of matching steps taken;
    * :meth:`insert` / :meth:`remove` update the set, addressed by
      ``subscription_id``;
    * ``subscriptions`` lists the currently registered subscriptions.
    """

    @abc.abstractmethod
    def insert(self, subscription: Subscription) -> None:
        """Register a subscription."""

    @abc.abstractmethod
    def remove(self, subscription_id: int) -> Subscription:
        """Unregister and return the subscription with the given id."""

    @abc.abstractmethod
    def match(self, event: Event) -> MatchResult:
        """Find all satisfied subscriptions."""

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Match a batch of events.

        Result ``i`` is exactly ``match(events[i])`` — same match set, same
        step count.  This base fallback just loops (:func:`per_event_loop`);
        engines with a real batched kernel (``CompiledEngine``) override it
        to amortize traversal across the batch and hit the projection cache.
        """
        return per_event_loop(self.match, events)

    @property
    @abc.abstractmethod
    def subscriptions(self) -> List[Subscription]:
        """The registered subscriptions (order unspecified)."""


class MatcherEngine(Matcher):
    """A :class:`Matcher` that can additionally run the Section 3.3
    link-matching refinement — the full per-broker matching surface.

    Two interchangeable implementations exist (see
    :mod:`repro.matching.engines`):

    * ``TreeEngine`` — the object-graph code paths
      (:class:`~repro.matching.pst.ParallelSearchTree` +
      :class:`~repro.core.annotation.TreeAnnotation` +
      :class:`~repro.core.link_matcher.LinkMatcher`);
    * ``CompiledEngine`` — the array-based kernels of
      :mod:`repro.matching.compile`.

    Both preserve exact match sets and step counts; consumers (router,
    fabric, protocols, broker engine) select one by name via
    :func:`repro.matching.engines.create_engine`.

    Link matching is optional state: :meth:`bind_links` declares the
    broker's virtual-link geometry; :meth:`match_links` then refines an
    initialization mask for an event.  Engines maintain their annotations
    incrementally across :meth:`insert` / :meth:`remove`.
    """

    #: The engine's registry name ("tree" / "compiled").
    name: str = "abstract"

    @abc.abstractmethod
    def bind_links(
        self, num_links: int, link_of_subscriber: "LinkOfSubscriber"
    ) -> None:
        """Declare the number of (virtual) links and the subscription-to-link
        mapping; invalidates any previously computed annotations."""

    @abc.abstractmethod
    def match_links(
        self, event: Event, initialization_mask: "TritVector"
    ) -> "LinkMatchResult":
        """Run the Section 3.3 refinement search; requires a prior
        :meth:`bind_links`."""

    def match_links_batch(
        self, events: Sequence[Event], initialization_mask: "TritVector"
    ) -> List["LinkMatchResult"]:
        """Refine one shared initialization mask for a batch of events.

        Result ``i`` is exactly ``match_links(events[i], mask)``.  This base
        fallback loops (:func:`per_event_loop`); ``CompiledEngine``
        overrides it with the deduplicating, cache-backed batch path.
        """
        return per_event_loop(
            lambda event: self.match_links(event, initialization_mask), events
        )

    # ------------------------------------------------------------------
    # Digest projection (match-once forwarding)

    #: Lazily built ``subscription_id -> packed link bits`` table; ``None``
    #: means stale.  Class-level default so engines need no ``__init__``
    #: cooperation; instance assignment shadows it.
    _link_projection: Optional[Dict[int, int]] = None

    def _invalidate_link_projection(self) -> None:
        """Drop the projection table.  Engines call this whenever the
        subscription set or the link binding changes (insert/remove/
        bind_links) — a stale table would project onto pre-churn links."""
        self._link_projection = None

    def _projection_link_of(self) -> "Optional[LinkOfSubscriber]":
        """The subscription→link mapping the projection table is built from
        (the one handed to :meth:`bind_links`); ``None`` before binding.
        The aggregating engine overrides this: its inner binding maps
        *representatives* to link unions, while digests carry member ids."""
        return getattr(self, "_link_of_subscriber", None)

    def _link_projection_table(self) -> Dict[int, int]:
        table = self._link_projection
        if table is None:
            link_of = self._projection_link_of()
            if link_of is None:
                raise RoutingError(
                    f"{type(self).__name__}.project_links() requires a prior "
                    f"bind_links()"
                )
            table = {}
            for subscription in self.subscriptions:
                mapped = link_of(subscription)
                positions = (mapped,) if isinstance(mapped, int) else mapped
                bits = 0
                for position in positions:
                    if position >= 0:
                        bits |= 1 << position
                table[subscription.subscription_id] = bits
            self._link_projection = table
        return table

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Refine a packed initialization mask from a match digest: one OR
        per matched subscription over the precomputed leaf→link-bits table,
        instead of a full refinement descent.

        ``subscription_ids`` is the digest's matched set; the result
        ``(final_yes_bits, steps)`` is bit-identical to
        :meth:`match_links`'s fully refined mask *for the same subscription
        set*: a link ends up Yes iff it started Yes, or started Maybe and
        carries at least one matched subscription — exactly the refinement
        search's fixpoint.  Raises :class:`RoutingError` for ids this engine
        does not hold (the caller must fall back to full matching; the sets
        have diverged).

        ``CompiledEngine`` overrides this with a projection over the
        compiled program's packed leaf-annotation columns (one OR per
        matched *leaf*); this generic form pays one OR per matched
        subscription from a per-id table and works on every engine.
        """
        table = self._link_projection_table()
        bits = 0
        steps = 0
        for subscription_id in subscription_ids:
            entry = table.get(subscription_id)
            if entry is None:
                raise RoutingError(
                    f"digest names subscription #{subscription_id}, which this "
                    f"engine does not hold — subscription sets have diverged"
                )
            bits |= entry
            steps += 1
        self._project_links_counter().inc()
        return yes_bits | (maybe_bits & bits), steps

    def _project_links_counter(self):
        """The ``engine.project_links_calls`` counter, fetched lazily (this
        base class has no ``__init__`` to fetch it in) and cached."""
        counter = getattr(self, "_obs_project_links", None)
        if counter is None:
            from repro.obs import get_registry

            counter = get_registry().counter(
                "engine.project_links_calls", engine=self.name
            )
            self._obs_project_links = counter
        return counter


# ParallelSearchTree satisfies the interface structurally; register it so
# isinstance checks work without forcing inheritance into the hot class.
# (FactoredMatcher subclasses Matcher directly to inherit the match_batch
# fallback.)
def _register_implementations() -> None:
    from repro.matching.pst import ParallelSearchTree

    Matcher.register(ParallelSearchTree)


_register_implementations()
