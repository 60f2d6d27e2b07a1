"""Digest projection stays exact through churn, without rebuilding anything.

A downstream broker refines its links from a match digest with
``project_links``.  The compiled program reads a ``subscription_id -> leaf``
index that :meth:`CompiledProgram.patch` repairs along the changed path, and
the generic engines read a ``subscription_id -> link bits`` table that insert
and remove repair entry by entry.  Neither is rebuilt after churn, so both
are checked here after every step of drawn insert/remove/rebind sequences:

* the compiled program's index equals :func:`graph_walk_index`, a walk of
  the live node graph from the root (the index's definition);
* ``project_links`` over every live id, all at once and one at a time, is
  bit-identical (steps included) to a freshly built engine's;
* a removed id is unknown: projecting it raises :class:`RoutingError`.

The sequences are long enough for the compiled program to cross a patch
bail-out (full recompile), and include removals that prune a range branch.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.matching import Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.engines import CompiledEngine, create_engine
from repro.matching.predicates import EqualityTest, RangeTest

SCHEMA = uniform_schema(3)
DOMAIN = [0, 1, 2]
NUM_LINKS = 4
FULL = (1 << NUM_LINKS) - 1

CONFIGS = ["compiled", "compiled:vector", "tree", "compiled+agg"]

#: Per attribute: None = don't care, int = equality, (op, bound) = range.
test_specs = st.one_of(
    st.none(),
    st.sampled_from(DOMAIN),
    st.tuples(st.sampled_from([RangeOp.LT, RangeOp.GT]), st.sampled_from(DOMAIN)),
)
predicate_specs = st.tuples(*(test_specs for _ in range(3)))


def make_subscription(spec, link):
    tests = {}
    for name, part in zip(SCHEMA.names, spec):
        if isinstance(part, tuple):
            tests[name] = RangeTest(*part)
        elif part is not None:
            tests[name] = EqualityTest(part)
    return Subscription(Predicate(SCHEMA, tests), f"s{link}")


def link_mapping(shift):
    return lambda subscription: (int(subscription.subscriber[1:]) + shift) % NUM_LINKS


def graph_walk_index(program):
    """``subscription_id -> leaf index`` by walking the live node graph from
    the root; superseded leaf slices in ``subs_flat`` are never reached."""
    mapping = {}
    stack = [0]
    seen = set()
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        if program.event_pos[index] < 0:
            begin, end = program.sub_start[index], program.sub_end[index]
            for subscription in program.subs_flat[begin:end]:
                mapping[subscription.subscription_id] = index
            continue
        table = program.value_tables[index]
        if table is not None:
            stack.extend(table.values())
        begin, end = program.range_start[index], program.range_end[index]
        stack.extend(program.range_children[begin:end])
        if program.star[index] >= 0:
            stack.append(program.star[index])
    return mapping


class Churn:
    """One engine under churn, checked against a fresh build after each step."""

    def __init__(self, config):
        self.config = config
        self.engine = create_engine(config, SCHEMA)
        self.compiled = self.engine if isinstance(self.engine, CompiledEngine) else None
        self.shift = 0
        self.engine.bind_links(NUM_LINKS, link_mapping(self.shift))
        self.live = {}
        self.bailouts = 0
        self.range_prunes = 0

    def step(self, op, spec, link, choose):
        """Apply one operation: insert, remove (of a live id picked by
        ``choose``; an insert when nothing is live) or rebind.  Returns the
        removed ids."""
        removed = []
        if op == "rebind":
            self.shift += 1
            self.engine.bind_links(NUM_LINKS, link_mapping(self.shift))
        elif op == "remove" and self.live:
            removed.append(choose(sorted(self.live)))
            self.remove(removed[0])
        else:
            self.insert(spec, link)
        return removed

    def insert(self, spec, link):
        subscription = make_subscription(spec, link)
        self.engine.insert(subscription)
        self.live[subscription.subscription_id] = subscription
        self._count_bailout()

    def remove(self, subscription_id):
        ranges_before = self.range_branches()
        self.engine.remove(subscription_id)
        del self.live[subscription_id]
        if self.range_branches() < ranges_before:
            self.range_prunes += 1
        self._count_bailout()

    def _count_bailout(self):
        if self.compiled is not None and self.compiled._program is None:
            self.bailouts += 1

    def range_branches(self):
        if self.compiled is None:
            return 0
        return sum(len(node.range_branches) for node in self.compiled.tree.nodes())

    def check(self, yes_bits, maybe_bits, removed=()):
        fresh = create_engine(self.config, SCHEMA)
        for subscription in self.live.values():
            fresh.insert(subscription)
        fresh.bind_links(NUM_LINKS, link_mapping(self.shift))
        ids = sorted(self.live)
        for digest in [ids] + [[subscription_id] for subscription_id in ids]:
            projected = self.engine.project_links(digest, yes_bits, maybe_bits)
            assert projected == fresh.project_links(digest, yes_bits, maybe_bits)
        for subscription_id in removed:
            with pytest.raises(RoutingError):
                self.engine.project_links([subscription_id], yes_bits, maybe_bits)
        if self.compiled is not None:
            program = self.compiled.program
            assert program._sub_leaf == graph_walk_index(program)
            assert set(program._sub_leaf) == set(self.live)


@pytest.mark.parametrize("config", CONFIGS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_projection_exact_through_churn(config, data):
    churn = Churn(config)
    steps = data.draw(st.integers(min_value=1, max_value=120), label="steps")
    for _ in range(steps):
        op = data.draw(st.sampled_from(["insert", "insert", "remove", "remove", "rebind"]))
        spec = data.draw(predicate_specs)
        link = data.draw(st.integers(min_value=0, max_value=NUM_LINKS - 1))
        removed = churn.step(op, spec, link, lambda ids: data.draw(st.sampled_from(ids)))
        yes_bits = data.draw(st.integers(min_value=0, max_value=FULL))
        churn.check(yes_bits, FULL & ~yes_bits, removed=removed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compiled_index_crosses_bailouts_and_range_prunes(seed):
    """A long seeded run on the compiled engine: the checks hold across
    patch bail-outs and range-branch prunes, and both really happen."""
    rng = random.Random(seed)
    churn = Churn("compiled")
    specs = [
        tuple(rng.choice([None, *DOMAIN, (RangeOp.LT, 1), (RangeOp.GT, 1)]) for _ in range(3))
        for _ in range(12)
    ]
    for _ in range(600):
        op = "insert" if len(churn.live) < 40 and rng.random() < 0.5 else "remove"
        removed = churn.step(op, rng.choice(specs), rng.randrange(NUM_LINKS), rng.choice)
        churn.check(0, FULL, removed=removed)
    assert churn.bailouts >= 1
    assert churn.range_prunes >= 1


def test_removal_that_prunes_a_range_branch():
    churn = Churn("compiled")
    churn.insert((1, None, None), 0)
    churn.insert(((RangeOp.LT, 2), 0, None), 1)
    churn.check(0, FULL)
    pruned = max(churn.live)
    churn.remove(pruned)
    assert churn.range_prunes == 1
    assert not churn.engine.tree.root.range_branches
    churn.check(0, FULL, removed=[pruned])
