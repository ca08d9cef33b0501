"""LtHash16 accumulator: order independence, add/remove as inverses, the
packed lanes against a lane-by-lane oracle, add_many against repeated add
with every lane carrying, deferred updates closed and settled in any mix of
vectors and expansions, and additions cancelled against removals."""

from __future__ import annotations

import random

from oracles import lthash16_oracle
from tierledger import lthash
from tierledger.lthash import DIGEST_BYTES, LANES, LtHash


def random_entries(rng: random.Random, n: int) -> list[bytes]:
    return [rng.randbytes(rng.randint(0, 80)) for _ in range(n)]


def test_digest_does_not_depend_on_order():
    rng = random.Random(7)
    entries = random_entries(rng, 40)
    digests = set()
    for _ in range(5):
        rng.shuffle(entries)
        acc = LtHash()
        for e in entries:
            acc.add(e)
        digests.add(acc.digest())
    assert len(digests) == 1


def test_add_then_remove_restores_the_accumulator():
    rng = random.Random(8)
    acc = LtHash()
    assert acc.digest() == bytes(DIGEST_BYTES)
    base = random_entries(rng, 10)
    for e in base:
        acc.add(e)
    before = acc.digest()
    extra = random_entries(rng, 10)
    grown = acc.copy()
    for e in extra:
        grown.add(e)
    assert grown.digest() != before
    assert acc.digest() == before  # the copy is independent
    for e in reversed(extra):
        grown.remove(e)
    assert grown.digest() == before
    for e in base:
        grown.remove(e)
    assert grown.digest() == bytes(DIGEST_BYTES)


def test_packed_lanes_match_lane_by_lane_oracle():
    rng = random.Random(9)
    for trial in range(6):
        added = random_entries(rng, rng.randint(0, 6))
        added += [added[0]] * 3 if added else []  # repeats drive lanes past 2^16
        # Removing elements never added wraps lanes below zero.
        removed = random_entries(rng, rng.randint(0, 6))
        acc = LtHash()
        updates = [(True, e) for e in added] + [(False, e) for e in removed]
        rng.shuffle(updates)
        for is_add, e in updates:
            if is_add:
                acc.add(e)
            else:
                acc.remove(e)
        assert acc.digest() == lthash16_oracle(added, removed), trial


def test_add_many_matches_repeated_add():
    rng = random.Random(10)
    base = random_entries(rng, 3)
    for n in (0, 1, 1000):
        entries = random_entries(rng, n)
        each, many = LtHash(), LtHash()
        for e in base:
            each.add(e)
            many.add(e)
        for e in entries:
            each.add(e)
        many.add_many(entries)
        assert many.digest() == each.digest() == lthash16_oracle(base + entries), n


def test_add_many_is_exact_across_the_fold(monkeypatch):
    """Every lane of every expansion 0xFFFF, on an accumulator whose lanes
    are already 0xFFFF: the worst case for a lane's carry, which must never
    reach its neighbour, over more than 2^17 entries."""
    every_lane_max = int.from_bytes(b"\xff" * DIGEST_BYTES, "little")
    monkeypatch.setattr(lthash, "_expand", lambda entry: every_lane_max)
    n = 2 * 65_536 + 3
    each, many = LtHash(), LtHash()
    each.add(b"")
    many.add(b"")
    for _ in range(n):
        each.add(b"")
    many.add_many(b"" for _ in range(n))
    # n + 1 expansions of -1 per lane, mod 2^16.
    want = (-(n + 1) % 65_536).to_bytes(2, "little") * LANES
    assert each.digest() == want
    assert many.digest() == want


def test_vector_updates_match_entry_updates_and_the_kept_digest_follows():
    """Settling one element's addition or removal from its vector equals
    adding or removing the element, and the digest bytes kept between
    updates never go stale, on the accumulator or on a copy."""
    rng = random.Random(11)
    by_entry, by_vector = LtHash(), LtHash()
    added: list[bytes] = []
    removed: list[bytes] = []
    for step in range(30):
        e = random_entries(rng, 1)[0]
        if added and rng.random() < 0.4:
            e = added[rng.randrange(len(added))]
            by_entry.remove(e)
            delta = ((), (e,))
            removed.append(e)
        else:
            by_entry.add(e)
            delta = ((e,), ())
            added.append(e)
        by_vector.settle(delta, lthash.vector(delta))
        want = lthash16_oracle(added, removed)
        assert by_vector.digest() == by_entry.digest() == want, step
        assert by_vector.digest() is by_vector.digest()
        copy = by_vector.copy()
        copy.add(b"only in the copy")
        assert copy.digest() == lthash16_oracle(added + [b"only in the copy"], removed)
        assert by_vector.digest() == want


def test_deferred_updates_fold_to_the_oracle():
    """Interleaved adds and removes, single, many and deferred whole,
    closed at random points; each closed delta settled in order, from its
    vector or by expanding it. A delta closed and not yet settled is not in
    the digest; once all are, the digest is the lane-by-lane oracle's, and a
    copy taken with updates still open folds them alike."""
    rng = random.Random(12)
    acc = LtHash()
    added: list[bytes] = []
    removed: list[bytes] = []
    settled_added: list[bytes] = []
    settled_removed: list[bytes] = []
    for step in range(60):
        op = rng.random()
        if op < 0.3:
            e = random_entries(rng, 1)[0]
            acc.add(e)
            added.append(e)
        elif op < 0.5 and added:
            e = rng.choice(added)
            acc.remove(e)
            removed.append(e)
        elif op < 0.6:
            es = random_entries(rng, rng.randint(0, 3))
            acc.add_many(es)
            added += es
        elif op < 0.7 and added:
            es = rng.sample(added, min(len(added), 2))
            acc.remove_many(es)
            removed += es
        elif op < 0.8:
            es = tuple(random_entries(rng, rng.randint(1, 4)))
            acc.defer((es, ()))
            added += es
        else:
            copy = acc.copy()
            assert copy.digest() == lthash16_oracle(added, removed), step
            deferred, loose_added, loose_removed = acc.close()
            assert acc.digest() == lthash16_oracle(settled_added, settled_removed), step
            for delta in [*deferred, (tuple(loose_added), tuple(loose_removed))]:
                acc.settle(delta, lthash.vector(delta) if rng.random() < 0.5 else None)
                settled_added += delta[0]
                settled_removed += delta[1]
            assert acc.digest() == lthash16_oracle(settled_added, settled_removed), step
            assert sorted(settled_added) == sorted(added) and sorted(settled_removed) == sorted(removed)
    assert acc.digest() == lthash16_oracle(added, removed)


def test_net_cancels_equal_bytes_and_folds_alike(monkeypatch):
    """lthash.net cancels each element added and removed alike, as a
    multiset: its delta holds what is left, folds to the same digest as both
    lists settled whole, and expands only what is left."""
    rng = random.Random(13)
    pool = random_entries(rng, 12)
    for step in range(40):
        added = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
        removed = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
        delta = lthash.net(added, removed)
        left_added, left_removed = list(added), list(removed)
        for e in added:
            if e in left_removed:
                left_removed.remove(e)
                left_added.remove(e)
        assert sorted(delta[0]) == sorted(left_added) and sorted(delta[1]) == sorted(left_removed), step
        whole, cancelled = LtHash(), LtHash()
        whole.settle((tuple(added), tuple(removed)))
        expanded = []
        expand = lthash._expand
        with monkeypatch.context() as patch:
            patch.setattr(lthash, "_expand", lambda e: (expanded.append(e), expand(e))[1])
            cancelled.settle(delta)
        assert cancelled.digest() == whole.digest() == lthash16_oracle(added, removed), step
        assert sorted(expanded) == sorted(left_added + left_removed), step
