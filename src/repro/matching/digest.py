"""Match digests: the match-once forwarding summary attached to events.

The paper replicates the full subscription set at every broker (Section
3.1), so the set of subscriptions an event matches is *identical* at every
hop — only the per-broker link annotations differ.  A :class:`MatchDigest`
captures that hop-invariant half once, at the publisher's broker: the
sorted ids of the matched subscriptions (the compiled leaves' member ids),
tagged with the minting router's subscription-set **epoch** and a
**checksum** of the set itself.  Downstream brokers turn the digest into
their own link mask with one OR per matched leaf over the precomputed
leaf→link-bits projection table (see ``MatcherEngine.project_links``)
instead of re-running the refinement kernel.

A digest is only valid against the *same* subscription set it was minted
from; consumers must verify both tags and fall back to full matching on any
mismatch (see ``docs/performance.md``, "Match-once forwarding").

Wire form (``to_bytes``/``from_bytes``): the id payload is either the
sorted id list (8 bytes per id) or, when the ids are dense, a packed bitmap
over the ``[base, max]`` id span — whichever is smaller.  The crossover is
mechanical: a bitmap costs ``span/8`` bytes plus a fixed base+length
header, an id list costs 8 bytes per id, so the bitmap wins as soon as the
matched ids cover more than ~1/64th of their span.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.errors import CodecError

#: Wire cost of one id in the sparse (id-list) encoding.
ID_BYTES = 8

#: Fixed wire cost of the dense encoding's base-id + bitmap-length header.
DENSE_HEADER_BYTES = 12

#: kind byte + epoch (u64) + checksum (u64) — paid by both encodings.
_COMMON_HEADER_BYTES = 1 + 8 + 8

_KIND_IDS = 0
_KIND_BITMAP = 1

_U64_MASK = (1 << 64) - 1

#: Fibonacci-hash multiplier used to mix subscription ids into the set
#: checksum — raw ids are small consecutive ints whose plain XOR collides
#: trivially (1 ^ 2 ^ 3 == 0).
_MIX = 0x9E3779B97F4A7C15


def mix_subscription_id(subscription_id: int) -> int:
    """The 64-bit mixed form of one subscription id, as folded (XOR) into a
    router's subscription-set checksum.  XOR of mixed ids is order- and
    history-independent: add then remove restores the old checksum."""
    return (subscription_id * _MIX) & _U64_MASK


class MatchDigest:
    """An epoch-tagged summary of one event's matched subscription set."""

    __slots__ = ("epoch", "checksum", "ids")

    def __init__(self, epoch: int, checksum: int, ids: Iterable[int]) -> None:
        self.epoch = epoch
        self.checksum = checksum & _U64_MASK
        self.ids: Tuple[int, ...] = tuple(ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchDigest):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.checksum == other.checksum
            and self.ids == other.ids
        )

    def __hash__(self) -> int:
        return hash((self.epoch, self.checksum, self.ids))

    # ------------------------------------------------------------------
    # Encoding

    @property
    def dense(self) -> bool:
        """Whether the bitmap encoding is smaller than the id list."""
        if len(self.ids) < 2:
            return False
        span = self.ids[-1] - self.ids[0] + 1
        return DENSE_HEADER_BYTES + (span + 7) // 8 < ID_BYTES * len(self.ids)

    @property
    def encoded_size_bytes(self) -> int:
        """On-the-wire size of :meth:`to_bytes` (for cost accounting)."""
        if self.dense:
            span = self.ids[-1] - self.ids[0] + 1
            return _COMMON_HEADER_BYTES + DENSE_HEADER_BYTES + (span + 7) // 8
        return _COMMON_HEADER_BYTES + 4 + ID_BYTES * len(self.ids)

    def to_bytes(self) -> bytes:
        """Serialize (kind byte + epoch + checksum + id payload)."""
        epoch = self.epoch & _U64_MASK
        if self.dense:
            base = self.ids[0]
            bitmap = 0
            for subscription_id in self.ids:
                bitmap |= 1 << (subscription_id - base)
            bitmap_bytes = bitmap.to_bytes((bitmap.bit_length() + 7) // 8, "little")
            return (
                bytes((_KIND_BITMAP,))
                + epoch.to_bytes(8, "big")
                + self.checksum.to_bytes(8, "big")
                + base.to_bytes(8, "big")
                + len(bitmap_bytes).to_bytes(4, "big")
                + bitmap_bytes
            )
        parts = [
            bytes((_KIND_IDS,)),
            epoch.to_bytes(8, "big"),
            self.checksum.to_bytes(8, "big"),
            len(self.ids).to_bytes(4, "big"),
        ]
        parts.extend(i.to_bytes(8, "big") for i in self.ids)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "MatchDigest":
        """Inverse of :meth:`to_bytes`; raises :class:`CodecError` on any
        malformed input."""
        if len(payload) < _COMMON_HEADER_BYTES:
            raise CodecError("match digest truncated")
        kind = payload[0]
        epoch = int.from_bytes(payload[1:9], "big")
        checksum = int.from_bytes(payload[9:17], "big")
        body = payload[_COMMON_HEADER_BYTES:]
        if kind == _KIND_IDS:
            if len(body) < 4:
                raise CodecError("match digest truncated")
            count = int.from_bytes(body[:4], "big")
            if len(body) != 4 + ID_BYTES * count:
                raise CodecError("match digest id list length mismatch")
            ids = tuple(
                int.from_bytes(body[4 + ID_BYTES * i : 4 + ID_BYTES * (i + 1)], "big")
                for i in range(count)
            )
            # The encoder writes sorted, distinct ids.  Anything else decodes
            # to a digest that a forwarding broker re-encodes wrongly
            # (duplicates) or not at all (unordered ids).
            if any(later <= earlier for earlier, later in zip(ids, ids[1:])):
                raise CodecError("match digest ids not strictly increasing")
            return cls(epoch, checksum, ids)
        if kind == _KIND_BITMAP:
            if len(body) < DENSE_HEADER_BYTES:
                raise CodecError("match digest truncated")
            base = int.from_bytes(body[:8], "big")
            length = int.from_bytes(body[8:12], "big")
            if len(body) != DENSE_HEADER_BYTES + length:
                raise CodecError("match digest bitmap length mismatch")
            bitmap = int.from_bytes(body[DENSE_HEADER_BYTES:], "little")
            if base + bitmap.bit_length() - 1 > _U64_MASK:
                raise CodecError("match digest bitmap runs past the 64-bit id range")
            ids = []
            while bitmap:
                low = bitmap & -bitmap
                ids.append(base + low.bit_length() - 1)
                bitmap ^= low
            return cls(epoch, checksum, tuple(ids))
        raise CodecError(f"unknown match digest kind byte {kind}")

    def __repr__(self) -> str:
        return (
            f"MatchDigest(epoch={self.epoch}, {len(self.ids)} ids"
            f"{', dense' if self.dense else ''})"
        )
