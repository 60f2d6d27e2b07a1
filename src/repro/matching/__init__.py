"""Content-based matching: schemas, events, predicates, and the Parallel
Search Tree of Section 2 of the paper (plus its optimizations)."""

from repro.matching.base import Matcher, MatcherEngine
from repro.matching.compile import CompiledProgram, compile_tree
from repro.matching.events import Event
from repro.matching.optimizations import OUT_OF_DOMAIN, DagNode, FactoredMatcher, SearchDag
from repro.matching.ordering import (
    declaration_order,
    dont_care_counts,
    order_by_fewest_dont_cares,
    order_quality,
    reverse_declaration_order,
)
from repro.matching.parser import parse_predicate, tokenize
from repro.matching.predicates import (
    DONT_CARE,
    AttributeTest,
    DontCare,
    EqualityTest,
    IntervalTest,
    Predicate,
    RangeOp,
    RangeTest,
    Subscription,
    normalize_tests,
)
from repro.matching.pst import MatchResult, ParallelSearchTree, PSTNode, build_pst
from repro.matching.subsumption import covers, predicate_subsumes, redundant_subscriptions
from repro.matching.schema import (
    Attribute,
    AttributeType,
    AttributeValue,
    EventSchema,
    InformationSpace,
    stock_trade_schema,
    uniform_schema,
)

# The engine implementations live in repro.matching.engines, which depends on
# repro.core (annotations, link matching).  Importing them eagerly here would
# create an import cycle (repro.core.annotation imports repro.matching.pst,
# which initializes this package), so they are exposed lazily instead.
_ENGINE_EXPORTS = (
    "CompiledEngine",
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "EngineSpec",
    "TreeEngine",
    "create_engine",
    "create_matcher",
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.matching import engines

        return getattr(engines, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Attribute",
    "AttributeTest",
    "AttributeType",
    "AttributeValue",
    "CompiledEngine",
    "CompiledProgram",
    "DEFAULT_ENGINE",
    "DONT_CARE",
    "DagNode",
    "DontCare",
    "ENGINE_NAMES",
    "EngineSpec",
    "EqualityTest",
    "Event",
    "EventSchema",
    "FactoredMatcher",
    "InformationSpace",
    "IntervalTest",
    "MatchResult",
    "Matcher",
    "MatcherEngine",
    "OUT_OF_DOMAIN",
    "TreeEngine",
    "compile_tree",
    "create_engine",
    "create_matcher",
    "ParallelSearchTree",
    "PSTNode",
    "Predicate",
    "RangeOp",
    "RangeTest",
    "SearchDag",
    "Subscription",
    "build_pst",
    "covers",
    "declaration_order",
    "dont_care_counts",
    "normalize_tests",
    "order_by_fewest_dont_cares",
    "order_quality",
    "parse_predicate",
    "predicate_subsumes",
    "redundant_subscriptions",
    "reverse_declaration_order",
    "stock_trade_schema",
    "tokenize",
    "uniform_schema",
]
