"""Span tracing from outside the program: wrap each layer's public calls.

The benchmark measures layers without editing ``src/``: :func:`install`
replaces each public function or method named in :data:`LAYERS` with a
wrapper that opens a span around the call.  Spans nest through a stack, so
every span knows its parent, and a layer's *self time* is its span time
minus the time covered by its child spans.

Module functions are patched in every loaded ``repro`` module that holds
the original object, because some callers bind the name at import time
(``repro.broker.client`` imports ``decode_event`` by name); methods are
patched on their class, which every instance looks up at call time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> (module path, attribute path).  A dotted attribute path is
#: ``Class.method``; a plain one is a module-level function.  Several
#: targets may share one layer name.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("codec.decode_event", "repro.broker.codec", "decode_event"),
    ("codec.encode_event", "repro.broker.codec", "encode_event"),
    ("messages.decode_message", "repro.broker.messages", "decode_message"),
    ("messages.encode_message", "repro.broker.messages", "encode_message"),
    ("schema.validate_values", "repro.matching.schema", "EventSchema.validate_values"),
    ("router.route_digest_batch", "repro.core.router", "ContentRouter.route_digest_batch"),
    ("router.route_with_digest", "repro.core.router", "ContentRouter.route_with_digest"),
    ("router.route", "repro.core.router", "ContentRouter.route"),
    ("router.add_subscription", "repro.core.router", "ContentRouter.add_subscription"),
    ("router.remove_subscription", "repro.core.router", "ContentRouter.remove_subscription"),
    ("engine.match_batch", "repro.matching.engines", "CompiledEngine.match_batch"),
    ("engine.project_links", "repro.matching.engines", "CompiledEngine.project_links"),
    ("parser.parse_predicate", "repro.matching.parser", "parse_predicate"),
    ("pst.insert", "repro.matching.pst", "ParallelSearchTree.insert"),
    ("compile.compile_tree", "repro.matching.compile", "compile_tree"),
    ("compile.annotate", "repro.matching.compile", "CompiledProgram.annotate"),
    ("compile.match_links", "repro.matching.compile", "CompiledProgram.match_links"),
    ("protocol.handle", "repro.protocols.link_matching", "LinkMatchingProtocol.handle"),
    ("event_log.append", "repro.broker.event_log", "EventLog.append"),
    ("event_log.collect", "repro.broker.event_log", "EventLog.collect"),
    ("client.publish", "repro.broker.client", "BrokerClient.publish"),
    ("client.publish", "repro.broker.client", "BrokerClient.publish_many"),
    # The in-memory hub's pump is the broker network's event loop: its self
    # time is node dispatch and transport work not covered by a layer above.
    ("node", "repro.broker.transport", "InMemoryHub.pump"),
    # The discrete-event engine's self time: heap operations and simulator
    # bookkeeping outside the protocol's routing calls.
    ("sim.engine", "repro.sim.engine", "Simulator.run"),
)

#: Layers whose ``calls`` and ``self_ms`` are reported (every distinct name
#: in :data:`LAYERS` except the two reported by self time alone).
REPORTED_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(name for name, _m, _a in LAYERS if name not in ("node", "sim.engine"))
)

#: Layer spans kept for the trace file (the benchmark's own set-up and run
#: spans are always kept); aggregates cover every span.
MAX_KEPT_SPANS = 50_000


class Tracer:
    """Parent-linked spans with per-layer call counts and self time."""

    def __init__(self) -> None:
        # Each open span: [name, start, child_time, span_id, parent_id].
        self._stack: List[list] = []
        self._next_id = 0
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: (span_id, parent_id, name, start_s, end_s) of the kept spans.
        self.spans: List[Tuple[int, int, str, float, float]] = []

    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        self._stack.append([name, perf_counter(), 0.0, self._next_id, parent])

    def exit(self, keep: bool = False) -> None:
        end = perf_counter()
        name, start, child_time, span_id, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_time
        if keep or len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recording a span per call made inside a benchmark
        span (input generation and the oracle run outside any span)."""
        stack = self._stack
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

        return traced

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``<layer>.calls`` and ``<layer>.self_ms`` for every reported layer
        (zero for layers the workload never called)."""
        out: Dict[str, Tuple[float, str]] = {}
        for name in REPORTED_LAYERS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_ms"] = (self.self_s.get(name, 0.0) * 1e3, "ms")
        out["node.self_ms"] = (self.self_s.get("node", 0.0) * 1e3, "ms")
        out["sim.engine.self_ms"] = (self.self_s.get("sim.engine", 0.0) * 1e3, "ms")
        return out


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Optional[Tracer], name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.tracer.enter(self.name)

    def __exit__(self, *exc_info: object) -> None:
        if self.tracer is not None:
            self.tracer.exit(keep=True)


def span(tracer: Optional[Tracer], name: str) -> _Span:
    """A benchmark-level span, or a no-op when tracing is off."""
    return _Span(tracer, name)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer in :data:`LAYERS`; returns a function that undoes it."""
    undo: List[Tuple[object, str, object]] = []
    for name, module_path, attribute in LAYERS:
        __import__(module_path)
        module = sys.modules[module_path]
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, tracer.wrap(name, original))
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(name, original)
        for holder in list(sys.modules.values()):
            holder_name = getattr(holder, "__name__", "")
            if not holder_name.startswith("repro"):
                continue
            if getattr(holder, attribute, None) is original:
                undo.append((holder, attribute, original))
                setattr(holder, attribute, wrapped)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
