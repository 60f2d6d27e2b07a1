"""Unit tests for :class:`~repro.matching.engines.EngineSpec`: the grammar,
its canonical form, the rejected combinations, the factoring rule at the
factory, and ``vector`` resolving to ``interp`` without numpy."""

from __future__ import annotations

import sys

import pytest

from repro.cli import _build_parser
from repro.errors import SubscriptionError
from repro.matching import uniform_schema
from repro.matching.aggregation import AggregatingEngine
from repro.matching.engines import (
    CompiledEngine,
    EngineSpec,
    TreeEngine,
    create_engine,
    create_matcher,
    engine_spec,
)
from repro.matching.optimizations import FactoredMatcher

SCHEMA = uniform_schema(3)
DOMAINS = {name: [0, 1, 2] for name in SCHEMA.names}

#: spec string -> (kind, backend, aggregate, canonical form)
PARSED = {
    "compiled": ("compiled", "interp", False, "compiled"),
    "compiled:interp": ("compiled", "interp", False, "compiled"),
    "compiled+agg": ("compiled", "interp", True, "compiled+agg"),
    "compiled:vector": ("compiled", "vector", False, "compiled:vector"),
    "compiled:vector+agg": ("compiled", "vector", True, "compiled:vector+agg"),
    "tree": ("tree", "interp", False, "tree"),
    "tree:interp": ("tree", "interp", False, "tree"),
}

REJECTED = [
    "jit",  # unknown kind
    "tree:vector",  # the tree engine has no kernel backends
    "tree+agg",  # nor a compiled program to aggregate
    "sharded/0",
    "procpool",  # deleted engine kinds
    "sharded",
    "sharded/2",
    "sharded/4",
    "sharded/4+agg",
    "sharded/3:vector+agg",
    "compiled:procpool",
    "compiled/2",  # shard counts went with the sharded engine
    "compiled+agg+agg",  # trailing junk
    "compiled:vector junk",
    "sharded/",
    "",
]


#: Whether the vector backend runs as itself here (numpy importable).
HAS_NUMPY = EngineSpec(backend="vector").backend == "vector"
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy is not installed")


class TestParse:
    @pytest.mark.parametrize("text", sorted(PARSED))
    def test_fields_and_canonical_round_trip(self, text):
        kind, backend, aggregate, canonical = PARSED[text]
        if backend == "vector" and not HAS_NUMPY:
            pytest.skip("numpy is not installed")
        spec = EngineSpec.parse(text)
        assert (spec.kind, spec.backend, spec.aggregate) == (kind, backend, aggregate)
        assert str(spec) == canonical
        assert EngineSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected(self, text):
        with pytest.raises(SubscriptionError):
            EngineSpec.parse(text)

    def test_constructor_validates_like_the_parser(self):
        with pytest.raises(SubscriptionError):
            EngineSpec(kind="sharded")
        with pytest.raises(SubscriptionError):
            EngineSpec(kind="tree", aggregate=True)
        assert EngineSpec() == EngineSpec.parse("compiled")

    def test_engine_spec_accepts_both_forms(self):
        spec = EngineSpec.parse("compiled:vector+agg")
        assert engine_spec(spec) is spec
        assert engine_spec("compiled:vector+agg") == spec

    def test_cli_takes_one_engine_flag(self, capsys):
        args = _build_parser().parse_args(["--engine", "compiled+agg", "demo"])
        assert args.engine == EngineSpec(aggregate=True)
        assert _build_parser().parse_args(["demo"]).engine == EngineSpec()
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["--engine", "sharded/4", "demo"])
        assert "malformed engine spec" in capsys.readouterr().err


class TestFactory:
    @pytest.mark.parametrize(
        "text, engine_type",
        [
            ("tree", TreeEngine),
            ("compiled", CompiledEngine),
            ("compiled+agg", AggregatingEngine),
        ],
    )
    def test_create_engine_builds_the_named_engine(self, text, engine_type):
        assert type(create_engine(text, SCHEMA)) is engine_type
        assert type(create_engine(EngineSpec.parse(text), SCHEMA)) is engine_type

    @pytest.mark.parametrize(
        "text, factored",
        [
            ("tree", True),
            ("compiled", True),
            ("compiled:vector", True),
            ("compiled+agg", False),
        ],
    )
    def test_factoring_rule(self, text, factored):
        """Aggregation takes precedence over factoring; the decision is made
        once, in create_matcher."""
        assert EngineSpec.parse(text).factors is factored
        matcher = create_matcher(text, SCHEMA, domains=DOMAINS, factoring_attributes=["a1"])
        assert isinstance(matcher, FactoredMatcher) is factored
        if factored:
            assert matcher.engine == EngineSpec.parse(text)
        unfactored = create_matcher(text, SCHEMA, domains=DOMAINS)
        assert not isinstance(unfactored, FactoredMatcher)

    def test_factoring_requires_domains(self):
        with pytest.raises(SubscriptionError, match="domains"):
            create_matcher("compiled", SCHEMA, factoring_attributes=["a1"])


class TestVectorResolution:
    def test_vector_resolves_to_interp_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy -> ImportError
        spec = EngineSpec.parse("compiled:vector+agg")
        assert spec.backend == "interp"
        assert str(spec) == "compiled+agg"
        engine = create_engine("compiled:vector", SCHEMA)
        assert engine.backend_name == "interp"

    @needs_numpy
    def test_vector_kept_with_numpy(self):
        assert str(EngineSpec.parse("compiled:vector")) == "compiled:vector"
        assert create_engine("compiled:vector", SCHEMA).backend_name == "vector"
