"""LtHash16, a homomorphic multiset hash: Bellare and Micciancio, "A New
Paradigm for Collision-free Hashing: Incrementality at Reduced Cost"
(EUROCRYPT 1997), and Lewi et al., "Securing Update Propagation with
Homomorphic Hashing" (IACR ePrint 2019/227).

A multiset of byte strings hashes to 1024 lanes of 16 bits. Each element
expands through SHAKE-128 to a vector of lanes, and the multiset's hash is
the lane-wise sum of its elements' vectors mod 2^16. Adding or removing one
element costs one expansion whatever the multiset's size, and the result
does not depend on the order of the updates. A caller that keeps an
element's vector (_lanes) adds or removes it again with add_lanes and
remove_lanes, at no expansion.

The lanes are packed into two Python ints, the even lanes and the odd
lanes, each lane in the low half of a 32-bit slot. A lane-wise add is then
one big-int add and one mask: a slot's upper half takes the carry, so no
lane spills into the next.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional, Sequence

LANES = 1024
DIGEST_BYTES = 2 * LANES

# 0xFFFF in the low half of every 32-bit slot, and 2^16 in every slot.
_MASK = int.from_bytes(b"\xff\xff\x00\x00" * (LANES // 2), "little")
_ONES = int.from_bytes(b"\x00\x00\x01\x00" * (LANES // 2), "little")


# Elements summed between two masks in _sums.
_FOLD = 65_536


def _lanes(entry: bytes) -> int:
    """An element's SHAKE-128 expansion as one int, lane i at bits 16i."""
    return int.from_bytes(hashlib.shake_128(entry).digest(DIGEST_BYTES), "little")


def _sums(entries: Iterable[bytes]) -> Iterator[tuple[int, int]]:
    """The even and the odd lanes of entries' expansions, summed in the
    accumulator's 32-bit slots, one pair per _FOLD entries, so that no slot
    carries into its neighbour even with a masked lane added to it. Each
    expansion is summed whole into total and its even lanes into even, so
    the odd lanes' sum is (total - even) >> 16, exactly. One entry costs
    the masks and shift that add_lanes makes."""
    n = 0
    for entry in entries:
        x = _lanes(entry)
        if n:
            total += x
            even += x & _MASK
        else:
            total, even = x, x & _MASK
        n += 1
        if n == _FOLD:
            yield even, (total - even) >> 16
            n = 0
    if n:
        yield even, (total - even) >> 16


class LtHash:
    """Accumulator over a multiset of byte strings, starting empty."""

    __slots__ = ("_even", "_odd", "_digest")

    def __init__(self) -> None:
        self._even = 0
        self._odd = 0
        self._digest: Optional[bytes] = None

    def add(self, entry: bytes) -> None:
        self.add_lanes(_lanes(entry))

    def add_lanes(self, x: int) -> None:
        """Add the element whose expansion is x (from _lanes)."""
        self._even = (self._even + (x & _MASK)) & _MASK
        self._odd = (self._odd + ((x >> 16) & _MASK)) & _MASK
        self._digest = None

    def add_many(self, entries: Iterable[bytes]) -> None:
        """add for each entry."""
        for even, odd in _sums(entries):
            self._even = (self._even + even) & _MASK
            self._odd = (self._odd + odd) & _MASK
        self._digest = None

    def remove(self, entry: bytes) -> None:
        self.remove_lanes(_lanes(entry))

    def remove_lanes(self, x: int) -> None:
        """Remove the element whose expansion is x (from _lanes)."""
        # Adding 2^16 per slot first keeps every slot's difference
        # non-negative, so no borrow crosses a slot boundary.
        self._even = (self._even + _ONES - (x & _MASK)) & _MASK
        self._odd = (self._odd + _ONES - ((x >> 16) & _MASK)) & _MASK
        self._digest = None

    def remove_many(self, entries: Sequence[bytes]) -> None:
        """remove for each entry. A sum of several entries is masked before
        it is subtracted; one entry, the common spend, skips those masks."""
        if len(entries) == 1:
            self.remove(entries[0])
            return
        for even, odd in _sums(entries):
            self._even = (self._even + _ONES - (even & _MASK)) & _MASK
            self._odd = (self._odd + _ONES - (odd & _MASK)) & _MASK
        self._digest = None

    def digest(self) -> bytes:
        """The lanes as 2048 bytes, lane i little-endian at bytes 2i, 2i+1.
        The bytes are kept until the next update."""
        if self._digest is None:
            self._digest = (self._even | self._odd << 16).to_bytes(DIGEST_BYTES, "little")
        return self._digest

    def copy(self) -> "LtHash":
        other = LtHash()
        other._even, other._odd, other._digest = self._even, self._odd, self._digest
        return other
