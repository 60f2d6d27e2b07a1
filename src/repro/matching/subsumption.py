"""Predicate subsumption (covering) — the relation SIENA-style systems use.

Predicate ``p`` *subsumes* ``q`` when every event matching ``q`` also
matches ``p``.  The paper's related work notes SIENA "filters events before
forwarding them on to servers"; covering relations are how such systems
prune redundant filters.  Here subsumption powers an analysis pass
(:func:`redundant_subscriptions`): a subscription is routing-redundant when
another subscription *from the same subscriber* covers it — removing it
cannot change any delivery decision.

For conjunctive predicates the check decomposes per attribute: ``p``
subsumes ``q`` iff for every attribute, ``p``'s test accepts every value
``q``'s test accepts.  Per-test containment is decided exactly for the test
algebra this library uses (don't-care, equality, one-sided ranges, and
normalized intervals with exclusions).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PredicateError
from repro.matching.predicates import (
    EMPTY_TEST,
    AttributeTest,
    EqualityTest,
    IntervalTest,
    Predicate,
    RangeOp,
    RangeTest,
    Subscription,
)
from repro.matching.schema import Attribute, AttributeType


def _is_plain_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _canonicalize_integer_bounds(attribute: Attribute, test: AttributeTest) -> AttributeTest:
    """Close strict bounds over INTEGER attributes: ``x < 4`` accepts exactly
    the same integers as ``x <= 3`` (and ``x > 2`` the same as ``x >= 3``),
    but the literal bound comparison in :func:`_interval_contains` cannot see
    that.  Canonicalizing to the closed form keeps the per-test containment
    check complete on the exclusion-free sublanguage."""
    if attribute.type is not AttributeType.INTEGER:
        return test
    if isinstance(test, RangeTest) and _is_plain_int(test.bound):
        if test.op is RangeOp.LT:
            return RangeTest(RangeOp.LE, test.bound - 1)
        if test.op is RangeOp.GT:
            return RangeTest(RangeOp.GE, test.bound + 1)
        return test
    if isinstance(test, IntervalTest):
        low, low_closed = test.low, test.low_closed
        high, high_closed = test.high, test.high_closed
        if low is not None and not low_closed and _is_plain_int(low):
            low, low_closed = low + 1, True
        if high is not None and not high_closed and _is_plain_int(high):
            high, high_closed = high - 1, True
        if (low, low_closed, high, high_closed) != (
            test.low,
            test.low_closed,
            test.high,
            test.high_closed,
        ):
            return IntervalTest(
                low,
                high,
                low_closed=low_closed,
                high_closed=high_closed,
                excluded=test.excluded,
            )
    return test


def _as_interval(test: AttributeTest) -> Optional[IntervalTest]:
    """Normalize a range-ish test to an interval; None for other kinds."""
    if isinstance(test, IntervalTest):
        return test
    if isinstance(test, RangeTest):
        if test.op is RangeOp.LT:
            return IntervalTest(high=test.bound, high_closed=False)
        if test.op is RangeOp.LE:
            return IntervalTest(high=test.bound)
        if test.op is RangeOp.GT:
            return IntervalTest(low=test.bound, low_closed=False)
        if test.op is RangeOp.GE:
            return IntervalTest(low=test.bound)
        return IntervalTest(excluded=(test.bound,))
    return None


def canonical_test(attribute: Attribute, test: AttributeTest) -> AttributeTest:
    """The canonical form of one attribute's test — the bound extraction the
    covering machinery keys on.

    Strict integer bounds close (``x < 4`` ≡ ``x <= 3``) and one-sided range
    tests normalize to intervals, so tests that accept the same values
    compare and hash equal.  Every test that accepts no value of the
    attribute's domain — after closing, any interval with ``low > high`` —
    becomes the single ⊥, :data:`~repro.matching.predicates.EMPTY_TEST`;
    :attr:`Predicate.is_satisfiable` is defined by it.  Equality tests and don't-cares are already
    canonical and pass through unchanged (identity-preserving, so callers
    can detect "nothing changed" with ``is``).  This is the per-attribute
    step of :func:`repro.matching.aggregation.canonicalize_predicate`, and
    the reason a canonical predicate only ever carries equality tests,
    closed-bound :class:`~repro.matching.predicates.IntervalTest`\\ s, or
    don't-cares — the three shapes
    :class:`~repro.matching.covering_index.CoveringIndex` indexes.
    """
    canonical = _canonicalize_integer_bounds(attribute, test)
    if isinstance(canonical, RangeTest):
        interval = _as_interval(canonical)
        if interval is not None:
            canonical = interval
    if isinstance(canonical, IntervalTest) and canonical.is_empty:
        return EMPTY_TEST
    return canonical


def _interval_contains(outer: IntervalTest, inner: IntervalTest) -> bool:
    """Whether every value accepted by ``inner`` is accepted by ``outer``.

    Conservative on the exclusion lists: an outer exclusion not provably
    outside the inner set makes the answer False (never a false positive).
    """
    try:
        if outer.low is not None:
            if inner.low is None:
                return False
            if inner.low < outer.low:
                return False
            if inner.low == outer.low and inner.low_closed and not outer.low_closed:
                return False
        if outer.high is not None:
            if inner.high is None:
                return False
            if inner.high > outer.high:
                return False
            if inner.high == outer.high and inner.high_closed and not outer.high_closed:
                return False
    except TypeError:
        return False
    for excluded in outer.excluded:
        if inner.evaluate(excluded):
            return False
    return True


def covers(general: AttributeTest, specific: AttributeTest) -> bool:
    """Whether ``general`` accepts every value ``specific`` accepts."""
    if general.is_dont_care:
        return True
    if specific.is_dont_care:
        return False  # nothing short of don't-care covers everything
    if isinstance(specific, EqualityTest):
        return general.evaluate(specific.value)
    specific_interval = _as_interval(specific)
    if specific_interval is None:
        raise PredicateError(f"cannot reason about test {specific!r}")
    if specific_interval.is_empty:
        return True  # an unsatisfiable test is covered by anything
    if isinstance(general, EqualityTest):
        # An equality covers a non-empty interval only if the interval is
        # the single point {value}; detectable when bounds pin one value.
        return (
            specific_interval.low is not None
            and specific_interval.low == specific_interval.high
            and specific_interval.low_closed
            and specific_interval.high_closed
            and specific_interval.low == general.value
            and not specific_interval.excluded
        )
    general_interval = _as_interval(general)
    if general_interval is None:
        raise PredicateError(f"cannot reason about test {general!r}")
    return _interval_contains(general_interval, specific_interval)


def predicate_subsumes(general: Predicate, specific: Predicate) -> bool:
    """Whether ``general`` matches every event ``specific`` matches.

    Sound and, for this library's conjunctive test algebra, complete except
    for exclusion-list corner cases where it errs toward False.
    """
    if general.schema != specific.schema:
        raise PredicateError("predicates over different schemas are incomparable")
    if not specific.is_satisfiable:
        return True
    return all(
        covers(
            _canonicalize_integer_bounds(attribute, general_test),
            _canonicalize_integer_bounds(attribute, specific_test),
        )
        for attribute, general_test, specific_test in zip(
            general.schema.attributes, general.tests, specific.tests
        )
    )


def redundant_subscriptions(
    subscriptions: Sequence[Subscription],
) -> List[Tuple[Subscription, Subscription]]:
    """Find subscriptions covered by another from the *same subscriber*.

    Returns ``(redundant, covered_by)`` pairs.  Removing a redundant
    subscription changes no delivery decision: its subscriber already
    receives every one of its events through the covering subscription.
    Mutual-coverage ties (identical predicates) keep the older registration
    and mark the newer one redundant.
    """
    by_subscriber: Dict[str, List[Subscription]] = {}
    for subscription in subscriptions:
        by_subscriber.setdefault(subscription.subscriber, []).append(subscription)
    redundant: List[Tuple[Subscription, Subscription]] = []
    for group in by_subscriber.values():
        ordered = sorted(group, key=lambda s: s.subscription_id)
        flagged: Set[int] = set()
        for candidate in ordered:
            for other in ordered:
                if other is candidate or other.subscription_id in flagged:
                    continue
                if not predicate_subsumes(other.predicate, candidate.predicate):
                    continue
                mutual = predicate_subsumes(candidate.predicate, other.predicate)
                if mutual and candidate.subscription_id < other.subscription_id:
                    continue  # identical predicates: keep the older one
                flagged.add(candidate.subscription_id)
                redundant.append((candidate, other))
                break
    return redundant
