"""A drained pending-pool entry is validated like a fresh transfer
submitted at the drain's epoch, and never goes back into the pool: its
lower window bound has been reached, so pool admission does not apply. Its
input locks alone are not checked again: they passed at its admission."""

from __future__ import annotations

from collections import Counter

from helpers import KEYS, check_conservation, make_config, p2pk, seed_utxo, signed_spend
from tierledger import codes, crypto, ledger, utxo
from tierledger.model import txid

ALICE, BOB = KEYS[1], KEYS[2]


def drain_and_compare(state, pending, epoch, cfg):
    """Receipts of the batch at epoch that drains pending, after checking
    them against the same spend submitted fresh to a pool-less copy."""
    fresh = state.copy()
    fresh.pool = utxo.PendingPool()
    drained, _ = ledger.apply_batch(state, [], epoch, cfg, workers=1)
    assert [r.tx_id for r in drained] == [txid(pending)]
    assert ledger.apply_batch(fresh, [pending], epoch, cfg, workers=1)[0] == drained
    assert state.pool.by_outpoint == {}
    assert ledger.apply_batch(state, [], epoch + 5, cfg, workers=1)[0] == []
    check_conservation(state)
    return drained


def test_drained_entry_whose_input_was_spent_is_missing_input():
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    locked = signed_spend(ALICE, [a], [p2pk(BOB, 98)], not_before=3)
    receipts, _ = ledger.apply_batch(state, [locked], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [utxo.PENDING_ACCEPTED]
    now = signed_spend(ALICE, [a], [p2pk(BOB, 99)])
    receipts, _ = ledger.apply_batch(state, [now], 2, cfg, workers=1)
    assert [r.status for r in receipts] == [codes.OK]
    drained = drain_and_compare(state, locked, 3, cfg)
    assert [r.status for r in drained] == [utxo.MISSING_INPUT]


def test_drained_entry_past_its_window_is_outside_validity_window():
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    locked = signed_spend(ALICE, [a], [p2pk(BOB, 98)], not_before=3, not_after=3)
    receipts, _ = ledger.apply_batch(state, [locked], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [utxo.PENDING_ACCEPTED]
    drained = drain_and_compare(state, locked, 4, cfg)
    assert [r.status for r in drained] == [utxo.OUTSIDE_VALIDITY_WINDOW]
    assert a in state.utxos


def test_a_pending_spend_is_checked_once_across_admission_and_maturity(monkeypatch):
    """libsodium is asked about a pending spend's triple once, at its
    admission, and not again when it matures: its lock's verdict cannot
    change. A replacement is admitted on its own check, and matures on that
    verdict, while the entry it evicted is never checked again. On one CPU,
    so that every check runs in this process."""
    monkeypatch.setattr(crypto, "CPUS", 1)
    calls: Counter = Counter()
    real = crypto._sodium_check
    monkeypatch.setattr(crypto, "_sodium_check", lambda *key: calls.update([key]) or real(*key))
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    locked = signed_spend(ALICE, [a], [p2pk(BOB, 98)], not_before=3)
    better = signed_spend(ALICE, [a], [p2pk(BOB, 97)], not_before=3)
    triples = {tx_id: (ALICE.pubkey, crypto.utxo_signing_message(tx_id, 0), tx.witnesses[0][0])
               for tx_id, tx in ((txid(locked), locked), (txid(better), better))}
    receipts, _ = ledger.apply_batch(state, [locked], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [utxo.PENDING_ACCEPTED]
    receipts, _ = ledger.apply_batch(state, [better], 2, cfg, workers=1)
    assert [r.status for r in receipts] == [utxo.PENDING_REPLACED]
    assert calls == Counter(triples.values())
    receipts, _ = ledger.apply_batch(state, [], 3, cfg, workers=1)
    assert [(r.tx_id, r.status) for r in receipts] == [(txid(better), codes.OK)]
    assert calls == Counter(triples.values())  # maturity asked libsodium nothing
    assert state.pool.by_outpoint == {} and a not in state.utxos
    check_conservation(state)
