"""Pluggable execution backends for the compiled matching kernels.

:mod:`repro.matching.compile` lowers a Parallel Search Tree into flat
record arrays; *how those arrays are executed* is this package's axis.  A
:class:`KernelBackend` implements the raw kernels over a compiled program's
records — single-event search, batched frontier search, and the Section 3.3
link refinement — while :class:`~repro.matching.compile.CompiledProgram`
keeps everything execution-independent: schema checks, projection caches,
batch deduplication, patching, and annotation.

Backends (:data:`BACKEND_NAMES`):

``interp``
    The reference backend: the original interpreter loops, moved here
    verbatim from ``compile.py``.  Every other backend is pinned against it
    by the property suite (``tests/property/test_prop_backends.py``).
``vector``
    A numpy backend that advances a whole ``(node, event)`` frontier one
    tree level at a time with bulk array operations.  Identical match sets,
    step counts, and masks; only match-list order (already unspecified
    between the engines' batch and single paths) and the wall clock change.
    See :mod:`repro.matching.backends.vector`.  numpy is optional: without
    it :func:`resolve_backend` turns ``vector`` into ``interp``, so an
    engine spec always names the backend that actually runs.

The kernel interface is deliberately narrow: kernels receive the program
plus plain value tuples (events are projected by the caller) and return
plain ``(matched, steps)`` data.  A program is anything exposing the record
surface (:attr:`~repro.matching.compile.CompiledProgram._records`,
``value_ids``, ``ann_yes``, ``ann_maybe``, ``generation``,
``backend_state``).

``program.generation`` increments on every mutation of the record arrays
(patch or re-annotation) and ``program.backend_state`` is a scratch dict
cleared alongside it: backends key derived structures (the vector backend's
columnar index) on the generation and rebuild lazily when it moves.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Tuple

from repro.errors import SubscriptionError

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("interp", "vector")

#: The backend used when callers do not choose one.
DEFAULT_BACKEND = "interp"


class KernelBackend(abc.ABC):
    """Raw kernel execution over one compiled program's record arrays.

    Contract (pinned by ``tests/property/test_prop_backends.py``): every
    backend returns what ``interp`` returns — the same matched subscription
    *set* per event (order is unspecified, exactly as it already is between
    the engines' batch and single paths), the same per-event step counts,
    and the same refined link masks.  Kernels are pure: they read the
    program's records and never touch its caches or mutate its arrays.

    ``values`` arguments are full event value tuples
    (:meth:`~repro.matching.events.Event.as_tuple`); batch variants receive
    one tuple per event, already deduplicated by the program's projection
    machinery.
    """

    #: Registry name ("interp" / "vector").
    name: str = "abstract"

    @abc.abstractmethod
    def match(self, program, values: tuple) -> Tuple[list, int]:
        """Single-event Section 2 search: ``(matched_subscriptions, steps)``."""

    @abc.abstractmethod
    def match_batch(
        self, program, value_tuples: Sequence[tuple]
    ) -> List[Tuple[list, int]]:
        """Batched search; element ``i`` equals ``match(value_tuples[i])``."""

    @abc.abstractmethod
    def match_links(
        self, program, values: tuple, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Section 3.3 refinement: ``(final_yes_bits, steps)``."""

    @abc.abstractmethod
    def match_links_batch(
        self, program, value_tuples: Sequence[tuple], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Batched refinement of one shared initialization mask."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: Kernel-backend singletons are stateless (the vector backend keeps its
#: derived index on the *program*), so one instance per name suffices.
_instances: Dict[str, KernelBackend] = {}


def validate_backend(backend: str) -> str:
    """Check ``backend`` is a known name; returns it for chaining."""
    if backend not in BACKEND_NAMES:
        raise SubscriptionError(
            f"unknown kernel backend {backend!r} — expected one of {BACKEND_NAMES}"
        )
    return backend


def resolve_backend(backend: str) -> str:
    """The backend that will actually run for ``backend``: itself, except
    ``vector`` without an importable numpy, which runs as ``interp``."""
    validate_backend(backend)
    if backend == "vector":
        try:
            import numpy  # noqa: F401
        except ImportError:
            return DEFAULT_BACKEND
    return backend


def create_backend(backend: str) -> KernelBackend:
    """The kernel backend singleton for ``backend`` (after
    :func:`resolve_backend`)."""
    backend = resolve_backend(backend)
    instance = _instances.get(backend)
    if instance is None:
        if backend == "interp":
            from repro.matching.backends.interp import InterpBackend

            instance = InterpBackend()
        else:
            from repro.matching.backends.vector import VectorBackend

            instance = VectorBackend()
        _instances[backend] = instance
    return instance
