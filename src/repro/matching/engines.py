"""The two interchangeable matcher engines behind :class:`MatcherEngine`.

* :class:`TreeEngine` wraps the object-graph implementations — a
  :class:`~repro.matching.pst.ParallelSearchTree` matched directly, with
  :class:`~repro.core.annotation.TreeAnnotation` +
  :class:`~repro.core.link_matcher.LinkMatcher` for link matching.
* :class:`CompiledEngine` maintains the same tree for structure but lowers
  it with :mod:`repro.matching.compile` and matches through the array
  kernels; subscription churn is absorbed by incremental re-lowering
  (:meth:`CompiledProgram.patch`) with a full recompile as fallback.

Both engines produce identical match sets, identical step counts, and
identical refined link masks (the equivalence property test in
``tests/property/test_prop_engine_equivalence.py`` pins this down); the
compiled engine is simply faster per event, while the tree engine has no
compile step and is the easier one to read next to the paper.

Consumers choose an engine with one :class:`EngineSpec` — or its string
form, ``KIND[:BACKEND][+agg]`` such as ``compiled``, ``compiled:vector+agg``
or ``tree`` — and build it through :func:`create_engine` (or
:func:`create_matcher`, which also decides whether subscription factoring
applies).  The project default is ``"compiled"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Union

from repro.errors import RoutingError, SubscriptionError
from repro.core.annotation import LinkOfSubscriber, TreeAnnotation
from repro.core.link_matcher import LinkMatcher, LinkMatchResult
from repro.core.trits import TritVector, pack_tritvector, unpack_tritvector
from repro.matching.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    create_backend,
    resolve_backend,
)
from repro.matching.base import MatcherEngine
from repro.obs import get_registry
from repro.matching.compile import (
    DEFAULT_MATCH_CACHE_CAPACITY,
    CompiledProgram,
    compile_tree,
)
from repro.matching.events import Event
from repro.matching.optimizations import FactoredMatcher
from repro.matching.pst import MatchResult, ParallelSearchTree
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema

#: Valid engine kinds, in preference order.
ENGINE_NAMES = ("compiled", "tree")

#: The engine used when callers do not choose one.
DEFAULT_ENGINE = "compiled"

#: Bucket boundaries of the ``engine.match_batch.size`` histogram.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_SPEC_SYNTAX = re.compile(r"(?P<kind>[a-z]+)(?::(?P<backend>[a-z]+))?(?P<agg>\+agg)?")


@dataclass(frozen=True)
class EngineSpec:
    """One engine configuration: the engine kind, the kernel backend and
    whether the covering forest aggregates subscriptions first.

    The string form is ``KIND[:BACKEND][+agg]``; :meth:`parse` reads it and
    ``str(spec)`` writes the canonical form back (the default ``interp``
    backend is left out).  Construction validates every combination and
    resolves ``vector`` to ``interp`` when numpy is not importable, so a spec
    always names the backend that actually runs.
    """

    kind: str = DEFAULT_ENGINE
    backend: str = DEFAULT_BACKEND
    aggregate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ENGINE_NAMES:
            raise SubscriptionError(
                f"unknown matcher engine {self.kind!r} — expected one of {ENGINE_NAMES}"
            )
        backend = resolve_backend(self.backend)  # rejects unknown names
        if self.kind == "tree":
            if self.backend != DEFAULT_BACKEND:
                raise SubscriptionError(
                    f"engine 'tree' walks the object graph directly and has no "
                    f"kernel backends — backend {self.backend!r} requires engine "
                    f"'compiled'"
                )
            if self.aggregate:
                raise SubscriptionError(
                    "engine 'tree' has no compiled program to compress — "
                    "aggregate ('+agg') requires engine 'compiled'"
                )
        object.__setattr__(self, "backend", backend)

    @classmethod
    def parse(cls, text: str) -> "EngineSpec":
        """Read ``KIND[:BACKEND][+agg]``; raises
        :class:`~repro.errors.SubscriptionError` on anything else."""
        match = _SPEC_SYNTAX.fullmatch(text.strip())
        if match is None:
            raise SubscriptionError(
                f"malformed engine spec {text!r} — expected "
                f"KIND[:BACKEND][+agg], e.g. 'compiled:vector+agg'"
            )
        return cls(
            kind=match["kind"],
            backend=match["backend"] or DEFAULT_BACKEND,
            aggregate=match["agg"] is not None,
        )

    @property
    def factors(self) -> bool:
        """Whether subscription factoring may split the subscription set
        before this engine sees it.  Aggregation needs the whole set to
        build its covering forest, so it takes precedence over factoring."""
        return not self.aggregate

    def __str__(self) -> str:
        text = self.kind
        if self.backend != DEFAULT_BACKEND:
            text += f":{self.backend}"
        if self.aggregate:
            text += "+agg"
        return text


def engine_spec(engine: Union[str, EngineSpec]) -> EngineSpec:
    """The :class:`EngineSpec` for a spec object or its string form."""
    if isinstance(engine, EngineSpec):
        return engine
    return EngineSpec.parse(engine)


class _EngineBase(MatcherEngine):
    """Shared tree ownership: both engines keep a live PST for structure."""

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    ) -> None:
        self.schema = schema
        self.tree = ParallelSearchTree(
            schema, attribute_order=attribute_order, domains=domains
        )
        self._num_links: Optional[int] = None
        self._link_of_subscriber: Optional[LinkOfSubscriber] = None
        # Instruments come from the global registry (no-ops unless an entry
        # point enabled it before construction); fetched once here so the
        # per-match cost is a method call, not a registry lookup.
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

    @property
    def subscriptions(self) -> List[Subscription]:
        return self.tree.subscriptions

    @property
    def subscription_count(self) -> int:
        return len(self.tree)

    def match_brute_force(self, event: Event) -> List[Subscription]:
        """Reference semantics: evaluate every predicate directly."""
        return self.tree.match_brute_force(event)

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        self._obs_batch_size.observe(len(events))
        return super().match_batch(events)

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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.tree)} subscriptions)"


class TreeEngine(_EngineBase):
    """Today's object-graph matcher behind the engine interface.

    Annotations are computed on first :meth:`match_links` and patched
    incrementally along the changed path on insert/remove (the behavior the
    router previously implemented inline)."""

    name = "tree"

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    ) -> None:
        super().__init__(schema, attribute_order=attribute_order, domains=domains)
        self._annotation: Optional[TreeAnnotation] = None
        self._link_matcher: Optional[LinkMatcher] = None

    def insert(self, subscription: Subscription) -> None:
        self.tree.insert(subscription)
        self._patch_annotation(subscription)
        self._invalidate_link_projection()

    def remove(self, subscription_id: int) -> Subscription:
        subscription = self.tree.remove(subscription_id)
        self._patch_annotation(subscription)
        self._invalidate_link_projection()
        return subscription

    def _patch_annotation(self, subscription: Subscription) -> None:
        if self._annotation is not None:
            self._annotation.update_path(self.tree, subscription.predicate)

    def match(self, event: Event) -> MatchResult:
        result = self.tree.match(event)
        self._obs_matches.inc()
        self._obs_match_steps.inc(result.steps)
        return result

    def bind_links(
        self, num_links: int, link_of_subscriber: LinkOfSubscriber
    ) -> None:
        self._num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        self._annotation = None
        self._link_matcher = None
        self._invalidate_link_projection()

    def match_links(
        self, event: Event, initialization_mask: TritVector
    ) -> LinkMatchResult:
        self._require_links()
        self._check_mask(initialization_mask)
        if self._annotation is None:
            assert self._num_links is not None
            assert self._link_of_subscriber is not None
            self._annotation = TreeAnnotation(self._num_links, self._link_of_subscriber)
            self._annotation.annotate(self.tree)
            self._link_matcher = LinkMatcher(self.tree, self._annotation)
            get_registry().counter("engine.annotation_rebuilds", engine=self.name).inc()
        assert self._link_matcher is not None
        result = self._link_matcher.match_links(event, initialization_mask)
        self._obs_link_matches.inc()
        self._obs_link_match_steps.inc(result.steps)
        return result


class CompiledEngine(_EngineBase):
    """The array-kernel matcher: compile lazily, patch incrementally.

    The program is (re)compiled on first use after construction or after a
    patch bail-out; annotations are packed bitmasks attached to the same
    program.  ``invalidate()`` forces a recompile (needed only if the
    underlying ``tree`` is mutated behind the engine's back, e.g. by calling
    ``tree.eliminate_trivial_tests()`` directly)."""

    name = "compiled"

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        match_cache_capacity: int = DEFAULT_MATCH_CACHE_CAPACITY,
        backend: Union[str, KernelBackend, None] = None,
    ) -> None:
        super().__init__(schema, attribute_order=attribute_order, domains=domains)
        self._program: Optional[CompiledProgram] = None
        self._annotation_dirty = False
        self._match_cache_capacity = match_cache_capacity
        # Resolved once: recompiles after patch bail-outs must not silently
        # change execution backends, and an invalid name fails construction
        # instead of the first match.
        if backend is None:
            backend = DEFAULT_BACKEND
        self._backend: KernelBackend = (
            create_backend(backend) if isinstance(backend, str) else backend
        )
        registry = get_registry()
        self._obs_compiles = registry.counter("engine.compiled.recompiles")
        self._obs_patches = registry.counter("engine.compiled.patches")
        self._obs_patch_bailouts = registry.counter("engine.compiled.patch_bailouts")
        self._obs_waste_ratio = registry.gauge("engine.compiled.waste_ratio")

    def invalidate(self) -> None:
        """Drop the compiled form; the next match recompiles from the tree.

        The projection caches live on the discarded program, so flush them
        first: their hit/flush counters are program-independent aggregates,
        and a cache keyed against a dead program must never satisfy a lookup
        recorded as a hit.  The waste gauge resets with the program — a
        fresh compile starts waste-free."""
        if self._program is not None:
            if self._program.match_cache is not None:
                self._program.match_cache.flush()
            if self._program.link_cache is not None:
                self._program.link_cache.flush()
            self._program = None
            self._obs_waste_ratio.set(0.0)

    @property
    def program(self) -> CompiledProgram:
        """The current compiled form (compiling first if needed)."""
        return self._ensure_program()

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend the program executes with."""
        return self._backend.name

    def _ensure_program(self) -> CompiledProgram:
        if self._program is None:
            self._program = compile_tree(
                self.tree,
                cache_capacity=self._match_cache_capacity,
                backend=self._backend,
            )
            self._annotation_dirty = self._num_links is not None
            self._obs_compiles.inc()
            self._obs_waste_ratio.set(0.0)
        return self._program

    def insert(self, subscription: Subscription) -> None:
        self.tree.insert(subscription)
        self._patch_program(subscription)

    def remove(self, subscription_id: int) -> Subscription:
        subscription = self.tree.remove(subscription_id)
        self._patch_program(subscription)
        return subscription

    def _patch_program(self, subscription: Subscription) -> None:
        if self._program is None:
            return
        if self._program.patch(self.tree, subscription.predicate):
            self._obs_patches.inc()
            self._obs_waste_ratio.set(
                self._program.waste / max(1, self._program.node_count)
            )
        else:
            self._obs_patch_bailouts.inc()
            self._program = None

    def match(self, event: Event) -> MatchResult:
        result = self._ensure_program().match(event)
        self._obs_matches.inc()
        self._obs_match_steps.inc(result.steps)
        return result

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        self._obs_batch_size.observe(len(events))
        results = self._ensure_program().match_batch(events)
        self._obs_matches.inc(len(results))
        self._obs_match_steps.inc(sum(result.steps for result in results))
        return results

    def bind_links(
        self, num_links: int, link_of_subscriber: LinkOfSubscriber
    ) -> None:
        self._num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        self._annotation_dirty = True

    def refresh_links(self, subscription: Subscription) -> None:
        """Recompute the link annotation along ``subscription``'s path after
        its *link mapping* changed without any structural tree change.

        The aggregation layer calls this when a deduplicated leaf's member
        set changes (the leaf now lights a different union of links while
        the tree is untouched).  Reuses the patch path: syncing an unchanged
        path is a no-op, but the bottom-up re-annotation picks up the new
        leaf mask and the caches flush — exactly the stale state.  No-op
        when nothing stale exists (no program, annotation pending anyway).
        """
        if self._program is None or self._annotation_dirty:
            return
        if not self._program.annotated:
            return
        self._patch_program(subscription)

    def _annotated_program(self, num_links: int) -> CompiledProgram:
        program = self._ensure_program()
        if self._annotation_dirty or not program.annotated:
            assert self._link_of_subscriber is not None
            program.annotate(num_links, self._link_of_subscriber)
            self._annotation_dirty = False
            get_registry().counter("engine.annotation_rebuilds", engine=self.name).inc()
        return program

    def match_links(
        self, event: Event, initialization_mask: TritVector
    ) -> LinkMatchResult:
        num_links = self._require_links()
        self._check_mask(initialization_mask)
        yes_bits, maybe_bits = pack_tritvector(initialization_mask)
        program = self._annotated_program(num_links)
        final_yes, steps = program.match_links(event, yes_bits, maybe_bits)
        self._obs_link_matches.inc()
        self._obs_link_match_steps.inc(steps)
        return LinkMatchResult(unpack_tritvector(final_yes, 0, num_links), steps)

    def match_links_batch(
        self, events: Sequence[Event], initialization_mask: TritVector
    ) -> List[LinkMatchResult]:
        num_links = self._require_links()
        self._check_mask(initialization_mask)
        yes_bits, maybe_bits = pack_tritvector(initialization_mask)
        program = self._annotated_program(num_links)
        packed = program.match_links_batch(events, yes_bits, maybe_bits)
        self._obs_link_matches.inc(len(packed))
        self._obs_link_match_steps.inc(sum(steps for _final, steps in packed))
        return [
            LinkMatchResult(unpack_tritvector(final_yes, 0, num_links), steps)
            for final_yes, steps in packed
        ]

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> "tuple[int, int]":
        """Digest projection over the compiled program's packed leaf
        annotations (one OR per matched leaf) — see
        :meth:`CompiledProgram.project_links` for the exactness argument."""
        num_links = self._require_links()
        program = self._annotated_program(num_links)
        result = program.project_links(subscription_ids, yes_bits, maybe_bits)
        self._project_links_counter().inc()
        return result


def create_engine(
    engine: Union[str, EngineSpec],
    schema: EventSchema,
    *,
    attribute_order: Optional[Sequence[str]] = None,
    domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    match_cache_capacity: Optional[int] = None,
) -> MatcherEngine:
    """Instantiate the engine an :class:`EngineSpec` (or its string) names.

    ``match_cache_capacity`` tunes the compiled engine's projection caches
    (``0`` disables them, ``None`` means
    :data:`~repro.matching.compile.DEFAULT_MATCH_CACHE_CAPACITY`); the tree
    engine has no cache and ignores it.

    A spec with ``aggregate`` wraps the compiled engine in an
    :class:`~repro.matching.aggregation.AggregatingEngine`: subscriptions
    are canonicalized and deduplicated through an online covering forest so
    the compiled arrays grow with *distinct* predicates, not subscribers.
    Match sets and refined link masks are unchanged; step counts are
    attributed to the deduplicated leaves.
    """
    spec = engine_spec(engine)
    if match_cache_capacity is None:
        match_cache_capacity = DEFAULT_MATCH_CACHE_CAPACITY
    if spec.kind == "tree":
        return TreeEngine(schema, attribute_order=attribute_order, domains=domains)
    built: MatcherEngine = CompiledEngine(
        schema,
        attribute_order=attribute_order,
        domains=domains,
        match_cache_capacity=match_cache_capacity,
        backend=spec.backend,
    )
    if spec.aggregate:
        # Imported here: aggregation wraps the engines this module creates,
        # so importing it at module scope would be a cycle.
        from repro.matching.aggregation import AggregatingEngine

        return AggregatingEngine(built)
    return built


def create_matcher(
    engine: Union[str, EngineSpec],
    schema: EventSchema,
    *,
    attribute_order: Optional[Sequence[str]] = None,
    domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    factoring_attributes: Optional[Sequence[str]] = None,
) -> Union[MatcherEngine, FactoredMatcher]:
    """The matcher a broker runs: a :class:`FactoredMatcher` over
    ``factoring_attributes`` when the spec :attr:`~EngineSpec.factors`,
    otherwise the engine :func:`create_engine` builds.  The factored
    matcher's sub-trees are searched with the spec's engine kind."""
    spec = engine_spec(engine)
    if factoring_attributes and spec.factors:
        return FactoredMatcher(
            schema,
            factoring_attributes,
            domains,
            residual_order=(
                [n for n in attribute_order if n not in factoring_attributes]
                if attribute_order is not None
                else None
            ),
            engine=spec,
        )
    return create_engine(spec, schema, attribute_order=attribute_order, domains=domains)
