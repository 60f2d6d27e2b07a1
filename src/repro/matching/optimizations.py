"""PST optimizations — Section 2.1 of the paper.

Three optimizations are described:

1. **Factoring** (:class:`FactoredMatcher`): selected *index attributes* —
   preferably ones that subscriptions rarely leave as ``*`` — are pulled out
   of the tree, and a separate sub-PST is built for each combination of index
   values.  A subscription with a ``*`` on an index attribute is replicated
   into every sub-PST for that attribute's domain (the space cost the paper
   mentions); matching becomes a table lookup on the event's index values
   followed by a search of one (smaller) sub-PST.

2. **Trivial test elimination** is implemented directly on the tree — see
   :meth:`repro.matching.pst.ParallelSearchTree.eliminate_trivial_tests`.

3. **Delayed branching** (:class:`SearchDag`): instead of forking a parallel
   subsearch at every ``*``-branch, the ``*``-subtree is merged down into
   each value branch, so a search follows exactly *one* branch per node (the
   value branch when the event's value has one, otherwise the "else" branch).
   Merged subtrees are shared, so the structure becomes a directed acyclic
   graph — the paper notes that "after applying optimizations, the parallel
   search tree will no longer be a tree but instead a directed acyclic
   graph."  This trades space for a worst-case search of one node per
   attribute, and is the same shape as the subscription automata the paper
   cites from Gough & Smith.

All matchers implement the small informal interface of
:class:`repro.matching.base.Matcher` so the broker engine, the simulator and
the benchmarks can swap them freely.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import SubscriptionError
from repro.matching.base import Matcher
from repro.matching.compile import CompiledProgram, compile_tree
from repro.matching.events import Event
from repro.matching.pst import MatchResult, ParallelSearchTree, PSTNode
from repro.obs import get_registry
from repro.matching.predicates import EqualityTest, Subscription
from repro.matching.schema import AttributeValue, EventSchema

if TYPE_CHECKING:
    from repro.matching.engines import EngineSpec

_dag_ids = itertools.count(1)


class _OutOfDomain:
    """Sentinel index-key component for event values outside the declared
    domain.  Subscriptions that can accept such values (don't-cares, range
    tests, equalities on out-of-domain constants) are also replicated into
    the matching out-of-domain bucket, with their index tests kept intact so
    the bucket's sub-PST can still discriminate."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<out-of-domain>"


#: The shared out-of-domain key component.
OUT_OF_DOMAIN = _OutOfDomain()


class FactoredMatcher(Matcher):
    """Factoring (Section 2.1, item 1): one sub-PST per index-value combo.

    Parameters
    ----------
    schema:
        The event schema.
    index_attributes:
        Names of the attributes to factor out, in lookup order.
    domains:
        Finite value domains; required for every index attribute (a ``*`` on
        an index attribute replicates the subscription across the whole
        domain, so the domain must be known).  Domains for non-index
        attributes are passed through to the sub-PSTs for annotation use.
    residual_order:
        Optional attribute order for the residual sub-PSTs (must be a
        permutation of the non-index attributes).
    engine:
        An :class:`~repro.matching.engines.EngineSpec` or its string form.
        ``"tree"`` searches the sub-PSTs directly; ``"compiled"`` (with an
        optional ``:BACKEND``) lowers each sub-PST with
        :mod:`repro.matching.compile` on first use and matches through the
        array kernels (programs are invalidated by mutation and by
        :meth:`compact`).  Either way match sets and step counts are
        identical.

    Events whose index values fall outside the declared domains select
    :data:`OUT_OF_DOMAIN` buckets, so matching stays exactly equivalent to
    brute force even on values the domain never anticipated (at the cost of
    one extra replica for every subscription whose index test is not a
    specific in-domain equality).
    """

    def __init__(
        self,
        schema: EventSchema,
        index_attributes: Sequence[str],
        domains: Mapping[str, Iterable[AttributeValue]],
        *,
        residual_order: Optional[Sequence[str]] = None,
        engine: Union[str, "EngineSpec"] = "tree",
    ) -> None:
        # Imported here: repro.matching.engines builds on this module.
        from repro.matching.engines import engine_spec

        if not index_attributes:
            raise SubscriptionError("factoring needs at least one index attribute")
        if domains is None:
            raise SubscriptionError("factoring requires finite attribute domains")
        spec = engine_spec(engine)
        if spec.aggregate:
            raise SubscriptionError(
                f"cannot factor over engine {str(spec)!r} — expected 'tree' or "
                f"'compiled[:BACKEND]'"
            )
        self.engine = spec
        self.schema = schema
        self.index_attributes: Tuple[str, ...] = tuple(index_attributes)
        self.domains: Dict[str, FrozenSet[AttributeValue]] = {
            name: frozenset(values) for name, values in domains.items()
        }
        for name in self.index_attributes:
            schema.position_of(name)
            if name not in self.domains or not self.domains[name]:
                raise SubscriptionError(
                    f"index attribute {name!r} needs a non-empty finite domain"
                )
        self._index_positions = tuple(schema.position_of(n) for n in self.index_attributes)
        residual_names = [n for n in schema.names if n not in self.index_attributes]
        if not residual_names:
            raise SubscriptionError("factoring every attribute leaves no residual tree")
        if residual_order is not None:
            if sorted(residual_order) != sorted(residual_names):
                raise SubscriptionError(
                    "residual_order must be a permutation of the non-index attributes"
                )
            residual_names = list(residual_order)
        self._residual_order = residual_names
        self._trees: Dict[Tuple[AttributeValue, ...], ParallelSearchTree] = {}
        self._programs: Dict[Tuple[AttributeValue, ...], CompiledProgram] = {}
        self._by_id: Dict[int, Subscription] = {}
        self._keys_by_id: Dict[int, List[Tuple[AttributeValue, ...]]] = {}
        self._dirty = False
        obs = get_registry()
        label = f"factored-{spec.kind}"
        self._obs_matches = obs.counter("engine.matches", engine=label)
        self._obs_match_steps = obs.counter("engine.match_steps", engine=label)
        self._obs_index_misses = obs.counter("engine.factored.index_misses", engine=label)
        self._obs_compiles = obs.counter("engine.factored.compiles", engine=label)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._by_id.values())

    def trees(self) -> Iterable[Tuple[Tuple[AttributeValue, ...], ParallelSearchTree]]:
        """The populated ``(index key, sub-PST)`` pairs."""
        return self._trees.items()

    def _keys_for(self, subscription: Subscription) -> List[Tuple[AttributeValue, ...]]:
        """All index-key combinations a subscription applies to.

        Per index attribute the options are the in-domain values the test
        accepts, plus :data:`OUT_OF_DOMAIN` whenever the test could accept a
        value outside the domain (anything but an in-domain equality).
        """
        per_attribute: List[List[AttributeValue]] = []
        for name in self.index_attributes:
            test = subscription.predicate.test_for(name)
            domain = self.domains[name]
            if isinstance(test, EqualityTest):
                options: List[AttributeValue] = (
                    [test.value] if test.value in domain else [OUT_OF_DOMAIN]
                )
            else:
                options = [v for v in sorted(domain, key=repr) if test.evaluate(v)]
                options.append(OUT_OF_DOMAIN)
            if not options:
                return []
            per_attribute.append(options)
        return [tuple(combo) for combo in itertools.product(*per_attribute)]

    def _tree_for(self, key: Tuple[AttributeValue, ...]) -> ParallelSearchTree:
        tree = self._trees.get(key)
        if tree is None:
            # The index attributes stay in the sub-PST's schema (every
            # subscription in this tree has them fixed or ``*``), but they are
            # ordered last so they are always spliced out of the search path.
            order = self._residual_order + [
                n for n in self.schema.names if n in self.index_attributes
            ]
            tree = ParallelSearchTree(
                self.schema, attribute_order=order, domains=self.domains
            )
            self._trees[key] = tree
        return tree

    def insert(self, subscription: Subscription) -> None:
        """Register a subscription in every applicable sub-PST.

        Inside each sub-PST an index attribute fixed by the key is redundant,
        so the stored copy relaxes it to ``*`` — this keeps the sub-trees
        small, which is the whole point of factoring.  Index attributes whose
        key component is :data:`OUT_OF_DOMAIN` keep their original tests (the
        key does not pin the value there).
        """
        if subscription.subscription_id in self._by_id:
            raise SubscriptionError(
                f"subscription #{subscription.subscription_id} is already registered"
            )
        keys = self._keys_for(subscription)
        for key in keys:
            self._tree_for(key).insert(self._relaxed_for_key(subscription, key))
            self._programs.pop(key, None)
        self._by_id[subscription.subscription_id] = subscription
        self._keys_by_id[subscription.subscription_id] = keys
        self._dirty = True

    def _relaxed_for_key(
        self, subscription: Subscription, key: Tuple[AttributeValue, ...]
    ) -> Subscription:
        from repro.matching.predicates import Predicate  # local to avoid cycle noise

        pinned = {
            name
            for name, component in zip(self.index_attributes, key)
            if component is not OUT_OF_DOMAIN
        }
        tests = {
            name: test
            for name, test in zip(self.schema.names, subscription.predicate.tests)
            if not test.is_dont_care and name not in pinned
        }
        relaxed_predicate = Predicate(self.schema, tests)
        return Subscription(
            relaxed_predicate,
            subscription.subscriber,
            subscription_id=subscription.subscription_id,
        )

    def remove(self, subscription_id: int) -> Subscription:
        subscription = self._by_id.pop(subscription_id, None)
        if subscription is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        for key in self._keys_by_id.pop(subscription_id):
            tree = self._trees[key]
            tree.remove(subscription_id)
            self._programs.pop(key, None)
            if len(tree) == 0:
                del self._trees[key]
        return subscription

    def compact(self) -> None:
        """Splice the always-star index levels left by relaxed insertions so
        they cost no search steps.  Idempotent; runs only after mutations."""
        if not self._dirty:
            return
        for tree in self._trees.values():
            tree.eliminate_trivial_tests()
        # Splicing restructures the trees in place, so every compiled form is
        # stale — drop them all and re-lower lazily on the next match.
        self._programs.clear()
        self._dirty = False

    def key_for_event(self, event: Event) -> Tuple[AttributeValue, ...]:
        """The index key an event selects (out-of-domain values map to the
        :data:`OUT_OF_DOMAIN` bucket)."""
        values = event.as_tuple()
        key = []
        for name, position in zip(self.index_attributes, self._index_positions):
            value = values[position]
            key.append(value if value in self.domains[name] else OUT_OF_DOMAIN)
        return tuple(key)

    def tree_for_event(self, event: Event) -> Optional[ParallelSearchTree]:
        """The sub-PST an event selects, or ``None`` if no subscription can
        match its index values."""
        return self._trees.get(self.key_for_event(event))

    def match(self, event: Event) -> MatchResult:
        """Table lookup on the index values, then search the sub-PST.

        The lookup counts as one matching step.
        """
        self.compact()
        key = self.key_for_event(event)
        tree = self._trees.get(key)
        self._obs_matches.inc()
        if tree is None:
            self._obs_index_misses.inc()
            self._obs_match_steps.inc()
            return MatchResult([], 1)
        if self.engine.kind == "compiled":
            program = self._programs.get(key)
            if program is None:
                program = self._programs[key] = compile_tree(
                    tree, backend=self.engine.backend
                )
                self._obs_compiles.inc()
            result = program.match(event)
        else:
            result = tree.match(event)
        self._obs_match_steps.inc(result.steps + 1)
        return MatchResult(result.subscriptions, result.steps + 1)

    def match_brute_force(self, event: Event) -> List[Subscription]:
        return [s for s in self._by_id.values() if s.predicate.matches(event)]

    def __repr__(self) -> str:
        return (
            f"FactoredMatcher({len(self._by_id)} subscriptions, "
            f"{len(self._trees)} sub-trees, index={list(self.index_attributes)!r})"
        )


class DagNode:
    """A node of the delayed-branching search DAG.

    Unlike a PST node, a search visits *exactly one* child: the value branch
    for the event's value if present, otherwise ``else_branch``.
    ``subscriptions`` holds the subscriptions already fully matched when the
    search reaches this node (merged in from PST leaves during construction).
    """

    __slots__ = ("node_id", "attribute_position", "value_branches", "else_branch", "subscriptions")

    def __init__(self, attribute_position: Optional[int]) -> None:
        self.node_id = next(_dag_ids)
        self.attribute_position = attribute_position
        self.value_branches: Dict[AttributeValue, "DagNode"] = {}
        self.else_branch: Optional["DagNode"] = None
        self.subscriptions: List[Subscription] = []

    @property
    def is_leaf(self) -> bool:
        return self.attribute_position is None

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"DagNode(leaf, {len(self.subscriptions)} subs)"
        return f"DagNode(attr#{self.attribute_position}, {len(self.value_branches)} values)"


class SearchDag:
    """Delayed branching (Section 2.1, item 3): a deterministic search DAG.

    Built from a frozen :class:`ParallelSearchTree`; does not support
    incremental updates (rebuild after churn — the broker engine rebuilds
    lazily).  Only equality tests and don't-cares are supported, matching the
    scope the paper gives for the annotated-tree algorithms.
    """

    def __init__(self, tree: ParallelSearchTree) -> None:
        for node in tree.nodes():
            if node.range_branches:
                raise SubscriptionError(
                    "delayed branching supports equality and don't-care tests only"
                )
        self.schema = tree.schema
        self.attribute_order = tree.attribute_order
        self._source = tree
        self._memo: Dict[FrozenSet[int], DagNode] = {}
        self._members: Dict[int, PSTNode] = {n.node_id: n for n in tree.nodes()}
        self.root = self._build(frozenset([tree.root.node_id]))

    def _build(self, member_ids: FrozenSet[int]) -> DagNode:
        memoized = self._memo.get(member_ids)
        if memoized is not None:
            return memoized
        members = [self._members[i] for i in sorted(member_ids)]
        matched: List[Subscription] = []
        active: List[PSTNode] = []
        passive: List[PSTNode] = []
        level: Optional[int] = None
        for node in members:
            if node.is_leaf:
                matched.extend(node.subscriptions)
            elif level is None or node.attribute_position < level:
                level = node.attribute_position
        for node in members:
            if node.is_leaf:
                continue
            if node.attribute_position == level:
                active.append(node)
            else:
                passive.append(node)
        dag_node = DagNode(level)
        dag_node.subscriptions = matched
        self._memo[member_ids] = dag_node
        if level is None:
            return dag_node
        else_ids = frozenset(
            [n.star_child.node_id for n in active if n.star_child is not None]
            + [n.node_id for n in passive]
        )
        values: Set[AttributeValue] = set()
        for node in active:
            values.update(node.value_branches)
        for value in values:
            value_ids = frozenset(
                n.value_branches[value].node_id for n in active if value in n.value_branches
            )
            dag_node.value_branches[value] = self._build(value_ids | else_ids)
        if else_ids:
            dag_node.else_branch = self._build(else_ids)
        return dag_node

    def node_count(self) -> int:
        """Distinct DAG nodes (shared nodes counted once)."""
        return len(self._memo)

    @property
    def subscriptions(self) -> List[Subscription]:
        return self._source.subscriptions

    def match(self, event: Event) -> MatchResult:
        """Follow exactly one branch per node; steps = nodes visited."""
        if event.schema != self.schema:
            raise SubscriptionError("event schema does not match the DAG's schema")
        values = event.as_tuple()
        positions = tuple(self.schema.position_of(n) for n in self.attribute_order)
        matched: List[Subscription] = []
        steps = 0
        node: Optional[DagNode] = self.root
        while node is not None:
            steps += 1
            matched.extend(node.subscriptions)
            if node.is_leaf:
                break
            value = values[positions[node.attribute_position]]
            node = node.value_branches.get(value, node.else_branch)
        return MatchResult(matched, steps)

    def match_brute_force(self, event: Event) -> List[Subscription]:
        return self._source.match_brute_force(event)

    def __repr__(self) -> str:
        return f"SearchDag({len(self.subscriptions)} subscriptions, {self.node_count()} nodes)"
