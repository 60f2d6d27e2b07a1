"""Delivery record and brute-force oracle.

Every published event gets an index in a :class:`DeliveryRecord`; every
subscriber delivery is attributed to the event it carries.  Deliveries are
matched by value: each client receives events in publish order (one
publisher, FIFO links), so the n-th copy of a value tuple a client receives
in the current *window* of unsettled events belongs to the n-th event with
that tuple published in the window.  The window is closed whenever the
broker network is idle.  A delivery that cannot be attributed that way is a
duplicate (or a stray) and fails the event it collides with.

A seeded reservoir keeps a fixed-size sample of events with their
recipients.  After the timed sections, :func:`check` re-matches the sample
by brute force (``Predicate.matches`` over the subscription set that was
live when each event was published) and fails every sampled event whose
recipients differ.  Checking every event costs far more than the run itself
at benchmark sizes, hence the sample.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.matching.events import Event
from repro.matching.predicates import Predicate

#: (index of the first event published after the change, subscription id,
#: subscriber, predicate or ``None`` for a removal).
ChurnEntry = Tuple[int, int, str, Optional[Predicate]]


class Reservoir:
    """A seeded uniform sample of ``size`` events with their recipients."""

    def __init__(self, seed: int, size: int) -> None:
        self._rng = random.Random(seed)
        self._size = size
        self._slots: List[int] = []
        #: index -> (event, recipients) for the sampled events.
        self.entries: Dict[int, Tuple[Event, List[str]]] = {}

    def offer(self, index: int, event: Event) -> None:
        """Consider event ``index`` (offered in increasing index order)."""
        if len(self._slots) < self._size:
            self._slots.append(index)
        else:
            slot = self._rng.randrange(index + 1)
            if slot >= self._size:
                return
            del self.entries[self._slots[slot]]
            self._slots[slot] = index
        self.entries[index] = (event, [])

    def delivered(self, index: int, client: str) -> None:
        entry = self.entries.get(index)
        if entry is not None:
            entry[1].append(client)


class DeliveryRecord:
    """Published-event count, sampled recipients and delivery latencies."""

    def __init__(self, seed: int, sample: int) -> None:
        self.count = 0
        self.deliveries = 0
        self.sample = Reservoir(seed, sample)
        #: Indices of events that some client received more often than sent.
        self.duplicated: Set[int] = set()
        #: Deliveries whose values match no event in the window.
        self.strays = 0
        #: Seconds from due time to ``on_event``, while ``record_latency``.
        self.latencies: List[float] = []
        self.record_latency = False
        self._window: Dict[tuple, List[int]] = {}
        self._due: Dict[int, float] = {}
        self._seen: Dict[str, Dict[tuple, int]] = {}

    def __len__(self) -> int:
        return self.count

    def published(self, event: Event, due: float) -> int:
        index = self.count
        self.count += 1
        self.sample.offer(index, event)
        self._due[index] = due
        self._window.setdefault(event.as_tuple(), []).append(index)
        return index

    def handler(self, client: str) -> Callable[[Event, int], None]:
        """The ``on_event`` callback for one subscriber client."""
        seen = self._seen.setdefault(client, {})

        def on_event(event: Event, _seq: int) -> None:
            now = perf_counter()
            key = event.as_tuple()
            candidates = self._window.get(key)
            if candidates is None:
                self.strays += 1
                return
            count = seen.get(key, 0)
            if count >= len(candidates):
                self.duplicated.add(candidates[-1])
                return
            seen[key] = count + 1
            index = candidates[count]
            self.deliveries += 1
            self.sample.delivered(index, client)
            if self.record_latency:
                self.latencies.append(now - self._due[index])

        return on_event

    def settled(self) -> None:
        """The network is idle: every event in the window is fully delivered."""
        self._window.clear()
        self._due.clear()
        for seen in self._seen.values():
            seen.clear()


def check(
    sample: Mapping[int, Tuple[Event, Sequence[str]]],
    initial: Mapping[int, Tuple[str, Predicate]],
    churn: Sequence[ChurnEntry] = (),
) -> Set[int]:
    """Indices of sampled events whose recipients differ from brute-force
    matching against the subscriptions live at publish time, or that some
    client received twice."""
    failed: Set[int] = set()
    live = dict(initial)
    pending = sorted(churn, key=lambda entry: entry[0])
    cursor = 0
    for index in sorted(sample):
        while cursor < len(pending) and pending[cursor][0] <= index:
            _first, subscription_id, subscriber, predicate = pending[cursor]
            if predicate is None:
                live.pop(subscription_id, None)
            else:
                live[subscription_id] = (subscriber, predicate)
            cursor += 1
        event, recipients = sample[index]
        expected = {
            subscriber for subscriber, predicate in live.values() if predicate.matches(event)
        }
        if len(recipients) != len(set(recipients)) or set(recipients) != expected:
            failed.add(index)
    return failed
