"""Property-based tests of predicate subsumption soundness.

``predicate_subsumes(p, q) == True`` must imply that p matches every event q
matches, over randomly built conjunctions of equalities, ranges and
intervals.  The converse (completeness) holds for everything except
exclusion-list corner cases, so it is asserted only for the
exclusion-free sublanguage.  Subsumption is a preorder (reflexive and
transitive, also over canonical forms), and predicates that accept the same
events subsume each other.
"""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings, strategies as st

from repro.matching import (
    DONT_CARE,
    EqualityTest,
    Event,
    IntervalTest,
    Predicate,
    RangeOp,
    RangeTest,
    predicate_subsumes,
    uniform_schema,
)
from repro.matching.aggregation import canonicalize_predicate

SCHEMA = uniform_schema(2)
#: Value space deliberately wider than the bounds we generate, so open
#: intervals have values beyond every bound.
SPACE = [
    Event.from_tuple(SCHEMA, values)
    for values in itertools.product(range(-2, 7), repeat=2)
]

bounds = st.integers(min_value=0, max_value=4)

simple_tests = st.one_of(
    st.just(DONT_CARE),
    bounds.map(EqualityTest),
    st.tuples(st.sampled_from(list(RangeOp)), bounds).map(
        lambda pair: RangeTest(*pair)
    ),
    st.tuples(bounds, bounds, st.booleans(), st.booleans()).map(
        lambda t: IntervalTest(min(t[0], t[1]), max(t[0], t[1]), low_closed=t[2], high_closed=t[3])
    ),
)

exclusion_free_tests = st.one_of(
    st.just(DONT_CARE),
    bounds.map(EqualityTest),
    st.tuples(
        st.sampled_from([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]), bounds
    ).map(lambda pair: RangeTest(*pair)),
)


def build_predicate(tests):
    return Predicate(SCHEMA, dict(zip(SCHEMA.names, tests)))


class TestSoundness:
    @given(
        p_tests=st.tuples(simple_tests, simple_tests),
        q_tests=st.tuples(simple_tests, simple_tests),
    )
    @settings(max_examples=400)
    def test_claimed_subsumption_is_true(self, p_tests, q_tests):
        p = build_predicate(p_tests)
        q = build_predicate(q_tests)
        if predicate_subsumes(p, q):
            for event in SPACE:
                if q.matches(event):
                    assert p.matches(event), (p.describe(), q.describe(), event)

    @given(
        p_tests=st.tuples(exclusion_free_tests, exclusion_free_tests),
        q_tests=st.tuples(exclusion_free_tests, exclusion_free_tests),
    )
    @settings(max_examples=300)
    def test_complete_on_exclusion_free_sublanguage(self, p_tests, q_tests):
        """For don't-care/equality/one-sided ranges over an integer-sampled
        space, a factual containment must be detected — unless it hinges on
        values outside the sampled space (open bounds), which integer
        sampling below/above every generated bound rules out here."""
        p = build_predicate(p_tests)
        q = build_predicate(q_tests)
        truth = all(p.matches(e) for e in SPACE if q.matches(e))
        q_nonempty = any(q.matches(e) for e in SPACE)
        if truth and q_nonempty:
            assert predicate_subsumes(p, q), (p.describe(), q.describe())

    @given(tests=st.tuples(simple_tests, simple_tests))
    @settings(max_examples=200)
    def test_reflexive(self, tests):
        p = build_predicate(tests)
        assert predicate_subsumes(p, p)

    @given(tests=st.tuples(simple_tests, simple_tests))
    @settings(max_examples=200)
    def test_reflexive_over_canonical_forms(self, tests):
        """A predicate and its canonical form are each reflexive and subsume
        each other (canonicalization never changes acceptance)."""
        p = build_predicate(tests)
        canonical = canonicalize_predicate(p)
        assert predicate_subsumes(canonical, canonical)
        assert predicate_subsumes(p, canonical)
        assert predicate_subsumes(canonical, p)

    @given(
        p_tests=st.tuples(simple_tests, simple_tests),
        q_tests=st.tuples(simple_tests, simple_tests),
    )
    @settings(max_examples=400)
    @example(
        # Both empty over the integers, only the first syntactically so.
        p_tests=(DONT_CARE, IntervalTest(0, 0, low_closed=False, high_closed=False)),
        q_tests=(DONT_CARE, IntervalTest(0, 1, low_closed=False, high_closed=False)),
    )
    def test_equal_acceptance_implies_mutual_subsumption(self, p_tests, q_tests):
        p = build_predicate(p_tests)
        q = build_predicate(q_tests)
        if all(p.matches(event) == q.matches(event) for event in SPACE):
            assert predicate_subsumes(p, q), (p.describe(), q.describe())
            assert predicate_subsumes(q, p), (q.describe(), p.describe())

    @given(
        p_tests=st.tuples(simple_tests, simple_tests),
        q_tests=st.tuples(simple_tests, simple_tests),
        r_tests=st.tuples(simple_tests, simple_tests),
    )
    @settings(max_examples=200)
    @example(
        # p = a1=0, q = a2>0 & a2<0, r = a2>0 & a2<1: q and r are both empty
        # over the integers, so p covers r as it covers q.
        p_tests=(EqualityTest(0), DONT_CARE),
        q_tests=(DONT_CARE, IntervalTest(0, 0, low_closed=False, high_closed=False)),
        r_tests=(DONT_CARE, IntervalTest(0, 1, low_closed=False, high_closed=False)),
    )
    def test_transitive(self, p_tests, q_tests, r_tests):
        p, q, r = (build_predicate(t) for t in (p_tests, q_tests, r_tests))
        if predicate_subsumes(p, q) and predicate_subsumes(q, r):
            assert predicate_subsumes(p, r)
