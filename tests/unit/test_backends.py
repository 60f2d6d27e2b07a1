"""Unit tests for the kernel-backend axis.

Covers the registry surface (:mod:`repro.matching.backends`), how an engine
spec's backend threads through :func:`create_engine`, generation-keyed
and backend scratch on :class:`CompiledProgram`.
"""

from __future__ import annotations

import pytest

from repro.errors import SubscriptionError
from repro.matching import Event, Predicate, Subscription, uniform_schema
from repro.matching.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    create_backend,
    validate_backend,
)
from repro.matching.engines import CompiledEngine, create_engine
from repro.matching.predicates import EqualityTest

SCHEMA = uniform_schema(3)
DOMAINS = {name: [0, 1, 2] for name in SCHEMA.names}

needs_numpy = pytest.mark.skipif(
    create_backend("vector").name != "vector", reason="vector runs as interp without numpy"
)


def sub(value, subscriber="s0"):
    tests = {SCHEMA.names[0]: EqualityTest(value)}
    return Subscription(Predicate(SCHEMA, tests), subscriber)


def event(values=(0, 0, 0)):
    return Event.from_tuple(SCHEMA, values)


class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("interp", "vector")
        assert DEFAULT_BACKEND in BACKEND_NAMES

    def test_validate(self):
        assert validate_backend("vector") == "vector"
        with pytest.raises(SubscriptionError, match="unknown kernel backend"):
            validate_backend("jit")

    @needs_numpy
    def test_singletons(self):
        for name in BACKEND_NAMES:
            backend = create_backend(name)
            assert backend.name == name
            assert create_backend(name) is backend

    def test_procpool_is_not_an_in_process_kernel(self):
        # The process-pool execution mode was removed; its name is now just
        # an unknown backend.
        with pytest.raises(SubscriptionError, match="unknown kernel backend"):
            create_backend("procpool")


class TestEngineWiring:
    @needs_numpy
    def test_compiled_backend_name(self):
        assert CompiledEngine(SCHEMA).backend_name == DEFAULT_BACKEND
        engine = CompiledEngine(SCHEMA, backend="vector")
        assert engine.backend_name == "vector"
        # A backend *instance* is accepted as-is.
        pinned = CompiledEngine(SCHEMA, backend=create_backend("vector"))
        assert pinned.backend_name == "vector"

    def test_create_engine_validates_backend(self):
        with pytest.raises(SubscriptionError, match="unknown kernel backend"):
            create_engine("compiled:jit", SCHEMA)

    def test_create_engine_compiled_rejects_procpool(self):
        with pytest.raises(SubscriptionError, match="unknown kernel backend"):
            create_engine("compiled:procpool", SCHEMA)

    def test_create_engine_tree_rejects_non_default_backend(self):
        with pytest.raises(SubscriptionError, match="tree"):
            create_engine("tree:vector", SCHEMA)
        # The default backend is the tree engine's own semantics.
        create_engine(f"tree:{DEFAULT_BACKEND}", SCHEMA)


@needs_numpy
class TestGenerationScratch:
    def test_patch_bumps_generation_and_drops_backend_state(self):
        engine = CompiledEngine(SCHEMA, domains=DOMAINS, backend="vector")
        engine.insert(sub(0))
        program = engine.program
        # Two distinct events: single-event batches take the single-match
        # path and never touch the batched kernel's columnar index.
        engine.match_batch([event((0, 0, 0)), event((1, 1, 1))])
        assert program.backend_state  # columnar index built lazily
        generation = program.generation
        engine.insert(sub(1))
        assert program.generation > generation
        assert not program.backend_state

    def test_annotate_bumps_generation(self):
        engine = CompiledEngine(SCHEMA, domains=DOMAINS, backend="vector")
        engine.insert(sub(0))
        program = engine.program
        engine.match_batch([event((0, 0, 0)), event((1, 1, 1))])
        assert program.backend_state
        generation = program.generation
        # Annotation rewrites the leaf mask arrays in place — stale
        # backend scratch must go with it.
        program.annotate(2, lambda subscription: 0)
        assert program.generation > generation
        assert not program.backend_state
