"""LtHash16, a homomorphic multiset hash: Bellare and Micciancio, "A New
Paradigm for Collision-free Hashing: Incrementality at Reduced Cost"
(EUROCRYPT 1997), and Lewi et al., "Securing Update Propagation with
Homomorphic Hashing" (IACR ePrint 2019/227).

A multiset of byte strings hashes to 1024 lanes of 16 bits. Each element
expands through SHAKE-128 to a vector of lanes, and the multiset's hash is
the lane-wise sum of its elements' vectors mod 2^16. Adding or removing one
element costs one expansion whatever the multiset's size, and the result
does not depend on the order of the updates.

An accumulator records its updates and expands them later. add and remove
note an element, and defer notes a delta kept whole; close() hands out what
was noted since the last close, and settle() folds a delta, the pair of the
elements added and the elements removed, either from its vector (a
`vector()` computed elsewhere, such as in the ledger's helper process) or by
expanding it. digest() folds what is noted and not closed; a delta that was
closed counts only once it is settled. The caller may cancel closed
additions against removals of equal bytes before it settles them: each
element cancelled is an expansion saved.

The lanes are packed into one Python int, lane i at bits 16i, which is also
the digest's byte order. Lane-wise arithmetic works on the whole int at
once: the lanes' low 15 bits are added or subtracted with each lane's top
bit masked out, so that no carry or borrow crosses into the next lane, and
the top bits are then set by exclusive or.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable, Optional

LANES = 1024
DIGEST_BYTES = 2 * LANES

# Each lane's top bit, and each lane's other 15 bits.
_TOP = int.from_bytes(b"\x00\x80" * LANES, "little")
_LOW = int.from_bytes(b"\xff\x7f" * LANES, "little")

# (the elements added, the elements removed).
Delta = tuple[tuple[bytes, ...], tuple[bytes, ...]]
# What close() hands out: the deltas deferred whole, the single adds and removes.
Notes = tuple[list[Delta], list[bytes], list[bytes]]


def _expand(entry: bytes) -> int:
    """An element's SHAKE-128 expansion as one int, lane i at bits 16i."""
    return int.from_bytes(hashlib.shake_128(entry).digest(DIGEST_BYTES), "little")


def _plus(a: int, b: int) -> int:
    """a + b, lane by lane, mod 2^16."""
    return ((a & _LOW) + (b & _LOW)) ^ ((a ^ b) & _TOP)


def _minus(a: int, b: int) -> int:
    """a - b, lane by lane, mod 2^16."""
    return ((a | _TOP) - (b & _LOW)) ^ (((a ^ b) & _TOP) ^ _TOP)


def _sum(entries: Iterable[bytes]) -> int:
    """The lane-wise sum of entries' expansions."""
    total = 0
    for entry in entries:
        total = _plus(total, _expand(entry)) if total else _expand(entry)
    return total


def _delta(delta: Delta) -> int:
    """delta's lanes: its additions' sum less its removals'."""
    added, removed = delta
    return _minus(_sum(added), _sum(removed)) if removed else _sum(added)


def net(added: Iterable[bytes], removed: Iterable[bytes]) -> Delta:
    """added less removed as one delta, each element in both cancelled: it
    folds alike, with two expansions fewer per element cancelled."""
    added, removed = tuple(added), tuple(removed)
    if not added or not removed or set(added).isdisjoint(removed):
        return added, removed
    count = Counter(added)
    count.subtract(removed)
    return tuple((+count).elements()), tuple((-count).elements())


def vector(delta: Delta) -> bytes:
    """delta's lanes as digest() bytes: what settle folds in place of
    expanding delta."""
    return _delta(delta).to_bytes(DIGEST_BYTES, "little")


class LtHash:
    """Accumulator over a multiset of byte strings, starting empty."""

    __slots__ = ("_packed", "_digest", "_added", "_removed", "_deferred")

    def __init__(self) -> None:
        self._packed = 0
        self._digest: Optional[bytes] = None
        self._added: list[bytes] = []
        self._removed: list[bytes] = []
        self._deferred: list[Delta] = []

    def add(self, entry: bytes) -> None:
        self._added.append(entry)

    def add_many(self, entries: Iterable[bytes]) -> None:
        self._added += entries

    def remove(self, entry: bytes) -> None:
        self._removed.append(entry)

    def remove_many(self, entries: Iterable[bytes]) -> None:
        self._removed += entries

    def defer(self, delta: Delta) -> None:
        """Note delta whole: close() returns it as it is, not merged with
        the single updates, so that a vector computed ahead for exactly
        delta can settle it."""
        self._deferred.append(delta)

    def close(self) -> Notes:
        """The updates noted since the last close: the (added, removed)
        deltas deferred whole, the single adds and the single removes. They
        leave the accumulator, which holds each again once it is settled."""
        notes = self._deferred, self._added, self._removed
        self._deferred, self._added, self._removed = [], [], []
        return notes

    def settle(self, delta: Delta, lanes: Optional[bytes] = None) -> None:
        """Fold delta: lanes, its `vector()`, if given, else its own
        expansions."""
        x = _delta(delta) if lanes is None else int.from_bytes(lanes, "little")
        self._packed = _plus(self._packed, x)
        self._digest = None

    def digest(self) -> bytes:
        """The lanes as 2048 bytes, lane i little-endian at bytes 2i, 2i+1,
        once what is noted and not closed is folded. The bytes are kept
        until the next fold."""
        if self._added or self._removed or self._deferred:
            deferred, added, removed = self.close()
            for delta in deferred:
                self.settle(delta)
            self.settle(net(added, removed))
        if self._digest is None:
            self._digest = self._packed.to_bytes(DIGEST_BYTES, "little")
        return self._digest

    def copy(self) -> "LtHash":
        other = LtHash()
        other._packed, other._digest = self._packed, self._digest
        other._added, other._removed = list(self._added), list(self._removed)
        other._deferred = list(self._deferred)
        return other
