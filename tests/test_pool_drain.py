"""A drained pending-pool entry is validated like a fresh transfer
submitted at the drain's epoch, and never goes back into the pool: its
lower window bound has been reached, so pool admission does not apply."""

from __future__ import annotations

from helpers import KEYS, check_conservation, make_config, p2pk, seed_utxo, signed_spend
from tierledger import codes, ledger, utxo
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
