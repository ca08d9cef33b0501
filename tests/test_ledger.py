"""Batch application, conservation, the hash-chained header log, and the
replay verifier (including targeted log mutations)."""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    KEYS,
    OPERATOR,
    apply_watching_the_fee_credit,
    check_conservation,
    coinbase_to_account,
    counter_code,
    make_call,
    make_config,
    make_deploy,
    make_move_to_account,
    make_move_to_utxo,
    p2pk,
    seed_balance,
    seed_utxo,
    signed_spend,
)
from oracles import (
    canonical_json,
    recompute_state_digest,
    ref_header_hash,
    ref_receipt_hash,
    encode,
    ref_replay_verify,
    ref_state_digest,
    ref_writes_digest,
    state_entries,
    write_outpoint,
    write_output,
)
from tierledger import codes, crypto, ledger, model, rules, scenario, utxo, vm
from tierledger.model import (
    U64_MAX,
    AccessDecl,
    Level,
    Lock,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    sha256,
    tx_from_json_str,
    tx_to_json_str,
    txid,
)
from tierledger.script import assemble

ALICE, BOB = KEYS[1], KEYS[2]
A_ADDR = address_of_pubkey(ALICE.pubkey)
OP_ADDR = address_of_pubkey(OPERATOR.pubkey)


def test_coinbase_follows_subsidy_schedule():
    cfg = make_config(initial_subsidy=40, halving_interval=2)
    state = ledger.LedgerState()
    ledger.apply_batch(state, [], 1, cfg, workers=1)
    assert state.issued == 40
    ledger.apply_batch(state, [], 2, cfg, workers=1)
    assert state.issued == 60  # one halving
    check_conservation(state)
    cb = ledger._coinbase_outpoint(0)
    assert state.utxos[cb].lock.pubkey == OPERATOR.pubkey


def test_conservation_through_mixed_batch_with_expiry():
    cfg = make_config(expiry_enabled=True, initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    seed_utxo(state, p2pk(BOB, 30, expiry=1))  # dies at epoch 1
    seed_balance(state, A_ADDR, 50)
    txs = [
        signed_spend(ALICE, [a], [p2pk(BOB, 90)]),  # fee 10
        make_move_to_utxo(ALICE, 20, [p2pk(ALICE, 18)], nonce=0),  # fee 2
    ]
    receipts, _ = ledger.apply_batch(state, txs, 1, cfg, workers=1)
    assert [r.status for r in receipts] == [0, 0]
    assert state.expired == 30
    assert state.accounts.balance(OP_ADDR) == 12
    check_conservation(state)


def test_per_tx_failures_become_receipts_not_batch_failures():
    cfg = make_config()
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 50))
    good = signed_spend(ALICE, [a], [p2pk(BOB, 50)])
    double = signed_spend(ALICE, [a], [p2pk(BOB, 49)])
    ghost = signed_spend(BOB, [Outpoint(b"\x11" * 32, 0)], [p2pk(BOB, 1)])
    receipts, _ = ledger.apply_batch(state, [good, double, ghost], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [0, utxo.DOUBLE_SPEND_IN_BATCH, utxo.MISSING_INPUT]
    check_conservation(state)


def test_level_gating_produces_receipt():
    cfg = make_config(max_level=Level.L1)
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 1000)
    dep = make_deploy(ALICE, counter_code())
    receipts, _ = ledger.apply_batch(state, [dep], 1, cfg, workers=1)
    assert receipts[0].status == codes.LEVEL_EXCEEDS_CONFIG
    assert receipts[0].level == Level.L3


def test_bad_account_auth():
    cfg = make_config()
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 1000)
    dep = make_deploy(ALICE, counter_code())
    forged = Transaction(dep.kind, nonce=dep.nonce).with_auth(BOB.pubkey, dep.auth.signature)
    unsigned = Transaction(dep.kind, nonce=dep.nonce)
    receipts, _ = ledger.apply_batch(state, [forged, unsigned], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [codes.BAD_AUTH, codes.BAD_AUTH]
    assert A_ADDR not in state.accounts.nonces  # nothing executed


def test_pending_pool_lifecycle_accept_replace_execute():
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    low = signed_spend(ALICE, [a], [p2pk(BOB, 99)], not_before=3)
    high = signed_spend(ALICE, [a], [p2pk(BOB, 95)], not_before=3)
    receipts, _ = ledger.apply_batch(state, [low], 1, cfg, workers=1)
    assert receipts[0].status == utxo.PENDING_ACCEPTED
    receipts, _ = ledger.apply_batch(state, [high], 2, cfg, workers=1)
    assert receipts[0].status == utxo.PENDING_REPLACED
    check_conservation(state)
    # At maturity the surviving (higher-fee) version executes first.
    receipts, _ = ledger.apply_batch(state, [], 3, cfg, workers=1)
    assert len(receipts) == 1
    assert receipts[0].tx_id == txid(high)
    assert receipts[0].status == 0
    assert state.accounts.balance(OP_ADDR) == 5
    check_conservation(state)


def test_pending_admission_validates_locks_and_fee():
    cfg = make_config(min_fee=2, initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    wrong_key = signed_spend(BOB, [a], [p2pk(BOB, 90)], not_before=5)
    cheap = signed_spend(ALICE, [a], [p2pk(BOB, 99)], not_before=5)
    with pytest.raises(Exception):  # inverted windows never construct
        signed_spend(ALICE, [a], [p2pk(BOB, 90)], not_before=5, not_after=4)
    receipts, _ = ledger.apply_batch(state, [wrong_key, cheap], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [
        utxo.LOCK_FAILED,
        rules.INSUFFICIENT_FEE,
    ]
    assert state.pool.entries() == []


def test_pending_admission_sees_input_spent_earlier_in_batch_as_missing():
    # Admission checks inputs against the current UTXO set only, so a
    # time-locked spend of an outpoint spent earlier in the same batch is
    # MISSING_INPUT (100); an immediate spend of it is DOUBLE_SPEND_IN_BATCH.
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    now = signed_spend(ALICE, [a], [p2pk(BOB, 99)])
    locked = signed_spend(ALICE, [a], [p2pk(BOB, 98)], not_before=5)
    again = signed_spend(ALICE, [a], [p2pk(BOB, 97)])
    receipts, _ = ledger.apply_batch(state, [now, locked, again], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [codes.OK, 100, utxo.DOUBLE_SPEND_IN_BATCH]
    assert utxo.MISSING_INPUT == 100
    assert state.pool.entries() == []
    check_conservation(state)


def test_move_to_utxo_nonce_and_balance():
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 100)
    stale = make_move_to_utxo(ALICE, 10, [p2pk(ALICE, 10)], nonce=5)
    broke = make_move_to_utxo(ALICE, 500, [p2pk(ALICE, 500)], nonce=0)
    fine = make_move_to_utxo(ALICE, 30, [p2pk(ALICE, 28)], nonce=0)
    receipts, _ = ledger.apply_batch(state, [stale, broke, fine], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [vm.STATUS_BAD_NONCE, vm.STATUS_INSUFFICIENT_BALANCE, 0]
    assert state.accounts.nonces[A_ADDR] == 1
    assert state.accounts.balance(A_ADDR) == 70
    check_conservation(state)


def test_move_round_trip_conserves():
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 60))
    to_acct = make_move_to_account(ALICE, [a], 60)
    receipts, _ = ledger.apply_batch(state, [to_acct], 1, cfg, workers=1)
    assert receipts[0].status == 0 and receipts[0].level == Level.L3
    back = make_move_to_utxo(ALICE, 60, [p2pk(ALICE, 60)], nonce=0)
    receipts, _ = ledger.apply_batch(state, [back], 2, cfg, workers=1)
    assert receipts[0].status == 0
    assert state.accounts.balance(A_ADDR) == 0
    assert state.utxo_total == 60
    check_conservation(state)


def test_header_chain_links_and_txs_hash_covers_witnesses():
    cfg = make_config()
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 50))
    _, h0 = ledger.apply_batch(state, [], 1, cfg, workers=1)
    assert h0.prev_hash == ledger.ZERO_HASH
    tx = signed_spend(ALICE, [a], [p2pk(BOB, 50)])
    state2 = state.copy()
    _, h1 = ledger.apply_batch(state, [tx], 2, cfg, workers=1)
    assert h1.prev_hash == h0.hash()
    assert h1.batch_number == h0.batch_number + 1
    # Same txid, different witness bytes: txs_hash must differ.
    tampered = Transaction(tx.kind, witnesses=((b"\x00" * 64,),))
    assert txid(tampered) == txid(tx)
    _, h1b = ledger.apply_batch(state2, [tampered], 2, cfg, workers=1)
    assert h1b.txs_hash != h1.txs_hash


def test_epoch_must_not_decrease():
    cfg = make_config()
    state = ledger.LedgerState()
    ledger.apply_batch(state, [], 5, cfg, workers=1)
    with pytest.raises(ledger.BatchError):
        ledger.apply_batch(state, [], 4, cfg, workers=1)


def test_state_digest_sensitivity():
    cfg = make_config(initial_subsidy=0)
    base = ledger.LedgerState()
    coin = seed_utxo(base, p2pk(ALICE, 10))
    seed_balance(base, A_ADDR, 5)
    d0 = ledger.state_digest(base)
    poked = base.copy()
    poked.accounts.set_balance(A_ADDR, poked.accounts.balance(A_ADDR) + 1)
    poked.issued += 1
    assert ledger.state_digest(poked) != d0
    moved = base.copy()
    moved.epoch += 1
    assert ledger.state_digest(moved) != d0
    slot = base.copy()
    slot.accounts.set_slot(b"\x01" * 32, 0, 7)
    assert ledger.state_digest(slot) != d0
    # Nonces and the pending pool are execution bookkeeping, not economic state.
    nonced = base.copy()
    nonced.accounts.set_nonce(A_ADDR, 9)
    assert ledger.state_digest(nonced) == d0
    pooled = base.copy()
    pending = signed_spend(ALICE, [coin], [p2pk(BOB, 9)], not_before=5)
    pooled.pool.submit(pending, txid(pending), 1)
    assert pooled.pool.entries()
    assert ledger.state_digest(pooled) == d0
    # Copies carry their own accumulators: the pokes above left base alone.
    assert ledger.state_digest(base) == d0


def test_digest_work_does_not_grow_with_state(monkeypatch):
    """One identical 6-transaction batch hashes as many accumulator
    elements on a 1k-UTXO state as on a 20k-UTXO state. Every expansion,
    UTXO or account side, goes through lthash._expand. On one CPU, so that
    the helper process computes none of them out of this process's sight."""
    from tierledger import lthash

    monkeypatch.setattr(crypto, "CPUS", 1)
    cfg = make_config()
    coins = [Outpoint(sha256(b"scaling" + bytes([i])), 0) for i in range(4)]
    txs = [
        signed_spend(ALICE, [coins[0]], [p2pk(BOB, 60), p2pk(ALICE, 39)]),
        signed_spend(ALICE, [coins[1]], [p2pk(BOB, 100)]),
        make_move_to_account(ALICE, [coins[2]], 99),
        make_move_to_account(ALICE, [coins[3]], 100, to=address_of_pubkey(BOB.pubkey)),
        make_move_to_utxo(ALICE, 20, [p2pk(ALICE, 19)], nonce=0),
        make_move_to_utxo(ALICE, 10, [p2pk(BOB, 10)], nonce=1),
    ]
    filler = p2pk(BOB, 1)
    counts = []
    for n_utxos in (1_000, 20_000):
        state = ledger.LedgerState()
        for op in coins:
            state.put_utxos(op.txid, (p2pk(ALICE, 100),), op.index)
            state.issued += 100
        for _ in range(n_utxos - len(coins)):
            seed_utxo(state, filler)
        seed_balance(state, A_ADDR, 50)
        assert len(state.utxos) == n_utxos
        ledger.state_digest(state)  # folds the seeding, which the writes only noted
        expansions = []
        expand = lthash._expand
        with monkeypatch.context() as patch:
            patch.setattr(lthash, "_expand", lambda e: (expansions.append(e), expand(e))[1])
            receipts, _ = ledger.apply_batch(state, txs, 1, cfg, workers=1)
        assert [r.status for r in receipts] == [codes.OK] * len(txs)
        counts.append(len(expansions))
    assert counts[0] == counts[1] > 0, counts


def _within_a_minute(run):
    """run's result; it must not wait on the helper process forever."""
    result = []
    thread = threading.Thread(target=lambda: result.append(run()), daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive(), "hung on the helper process"
    return result[0]


def _whole_state(state: ledger.LedgerState) -> tuple:
    return (
        state.epoch, dict(state.pool.by_outpoint), dict(state.utxos), state.utxo_lthash.digest(),
        state.accounts.lthash.digest(), ledger.state_digest(state), state.batch_number, state.prev_header_hash,
    )


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_batch_whose_transactions_raise_leaves_the_state(monkeypatch, cpus):
    """apply_batch reads its transactions whole before it writes: an
    iterable that raises at its third transaction leaves the epoch, the
    pending pool, the UTXO set, both accumulators and the batch number as
    they were, though expiry, the coinbase and a matured pending spend were
    all due; the same state then applies the batch as a copy does."""
    monkeypatch.setattr(crypto, "CPUS", cpus)
    cfg = make_config(expiry_enabled=True, initial_subsidy=1_000)
    state = ledger.LedgerState()
    coins = [seed_utxo(state, p2pk(ALICE, 100)) for _ in range(3)]
    seed_utxo(state, p2pk(BOB, 5, expiry=4))
    seed_balance(state, A_ADDR, 50)
    locked = signed_spend(ALICE, [coins[0]], [p2pk(BOB, 99)], not_before=4)
    ledger.apply_batch(state, [locked], 3, cfg)
    assert state.pool.entries()
    txs = [
        signed_spend(ALICE, [coins[1]], [p2pk(BOB, 60), p2pk(ALICE, 39)]),
        make_move_to_account(ALICE, [coins[2]], 99),
        make_move_to_utxo(ALICE, 20, [p2pk(ALICE, 19)], nonce=0),
    ]

    def arriving():
        yield from txs[:2]
        raise model.ModelError("the third transaction is unreadable")

    copy, before = state.copy(), _whole_state(state)
    with pytest.raises(model.ModelError):
        ledger.apply_batch(state, arriving(), 4, cfg)
    assert _whole_state(state) == before
    receipts, header = _within_a_minute(lambda: ledger.apply_batch(state, iter(txs), 4, cfg))
    assert [r.status for r in receipts] == [codes.OK] * 4
    assert (receipts, header) == ledger.apply_batch(copy, txs, 4, cfg)


def test_expiry_work_does_not_grow_with_state():
    """One identical batch with due outputs expires the same outpoints on a
    1k-UTXO state as on a 20k-UTXO state, and apply_batch never iterates
    the UTXO set to find them."""

    class CountingDict(dict):
        scans = 0

        def __iter__(self):
            CountingDict.scans += 1
            return super().__iter__()

        def keys(self):
            CountingDict.scans += 1
            return super().keys()

        def values(self):
            CountingDict.scans += 1
            return super().values()

        def items(self):
            CountingDict.scans += 1
            return super().items()

    cfg = make_config(expiry_enabled=True)
    coins = [Outpoint(sha256(b"expiry-scaling" + bytes([i])), 0) for i in range(4)]
    due = [Outpoint(sha256(b"expiry-due" + bytes([i])), 0) for i in range(3)]
    later = Outpoint(sha256(b"expiry-later"), 0)
    txs = [
        signed_spend(ALICE, [coins[0]], [p2pk(BOB, 60, expiry=2), p2pk(ALICE, 39)]),
        signed_spend(ALICE, [coins[1]], [p2pk(BOB, 100)]),
        make_move_to_account(ALICE, [coins[2]], 99),
        make_move_to_account(ALICE, [coins[3]], 100, to=address_of_pubkey(BOB.pubkey)),
        make_move_to_utxo(ALICE, 20, [p2pk(ALICE, 19, expiry=1)], nonce=0),
        make_move_to_utxo(ALICE, 10, [p2pk(BOB, 10)], nonce=1),
    ]
    filler = p2pk(BOB, 1)
    results = []
    for n_utxos in (1_000, 20_000):
        state = ledger.LedgerState()
        for op in coins:
            state.put_utxos(op.txid, (p2pk(ALICE, 100),), op.index)
        for i, op in enumerate(due):
            state.put_utxos(op.txid, (p2pk(BOB, 10 + i, expiry=1),), op.index)
        state.put_utxos(later.txid, (p2pk(BOB, 7, expiry=3),), later.index)
        state.issued += state.utxo_total
        for _ in range(n_utxos - len(coins) - len(due) - 1):
            seed_utxo(state, filler)
        seed_balance(state, A_ADDR, 50)
        assert len(state.utxos) == n_utxos
        state._utxos = CountingDict(state._utxos)
        state.utxos = MappingProxyType(state._utxos)
        swept = []
        apply_expiry = rules.apply_expiry

        def recording(expiring, epoch, cfg):
            swept.append(apply_expiry(expiring, epoch, cfg))
            return swept[-1]

        CountingDict.scans = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rules, "apply_expiry", recording)
            receipts, _ = ledger.apply_batch(state, txs, 1, cfg, workers=1)
        assert CountingDict.scans == 0
        assert [r.status for r in receipts] == [codes.OK] * len(txs)
        check_conservation(state)
        results.append((swept, state.expired))
    assert results[0] == results[1] == ([sorted(due)], 33), results


def test_output_created_expired_fails_in_batch_and_is_swept_next():
    """An output created at epoch e with expiry <= e cannot be spent later
    in the same batch (EXPIRED_INPUT, 102); the next batch expires it."""
    cfg = make_config(expiry_enabled=True, initial_subsidy=0)
    state = ledger.LedgerState()
    a = seed_utxo(state, p2pk(ALICE, 100))
    make = signed_spend(ALICE, [a], [p2pk(BOB, 90, expiry=1)])
    fresh = Outpoint(txid(make), 0)
    spend = signed_spend(BOB, [fresh], [p2pk(ALICE, 90)])
    receipts, _ = ledger.apply_batch(state, [make, spend], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [codes.OK, utxo.EXPIRED_INPUT]
    assert utxo.EXPIRED_INPUT == 102
    assert fresh in state.utxos and state.expired == 0
    check_conservation(state)
    ledger.apply_batch(state, [], 2, cfg, workers=1)
    assert fresh not in state.utxos and state.expired == 90
    check_conservation(state)


def test_expiry_in_a_copy_leaves_the_base_state_alone():
    cfg = make_config(expiry_enabled=True, initial_subsidy=0)
    base = ledger.LedgerState()
    seed_utxo(base, p2pk(ALICE, 100))
    dying = [seed_utxo(base, p2pk(BOB, 10 * (i + 1), expiry=2)) for i in range(3)]
    d0 = ledger.state_digest(base)
    before = dict(base.utxos)
    fork = base.copy()
    _, fork_header = ledger.apply_batch(fork, [], 2, cfg, workers=1)
    assert fork.expired == 60 and not any(op in fork.utxos for op in dying)
    assert ledger.state_digest(base) == d0
    assert dict(base.utxos) == before and base.expired == 0
    check_conservation(base)
    # The base still expires the same outputs itself.
    _, base_header = ledger.apply_batch(base, [], 2, cfg, workers=1)
    assert base.expired == 60 and base_header == fork_header
    check_conservation(base)


def test_every_receipt_commits_its_own_net_writes():
    """Criterion 1's random scenarios (seeds 0-9, to 200 transactions each,
    in both access modes), run as one-transaction batches once bootstrapped,
    with no subsidy and no expiry, so that a batch writes only what its
    transactions do: each receipt's writes digest is the oracle's over the
    net difference of the state's entries across its batch, read from the
    mappings up to the batch-end fee credit, which no receipt holds. At
    each new epoch an empty batch drains the matured pending transactions,
    each of which is checked on a copy of the state that runs it alone, and
    which must end with the same entries."""
    from helpers import RandomLedger

    statuses, matured = set(), 0
    for seed in range(10):
        rl = RandomLedger(seed=seed, access_mode=rules.ACCESS_DECLARED if seed % 2 else rules.ACCESS_DYNAMIC)
        rl.bootstrap()
        rl.cfg = replace(rl.cfg, initial_subsidy=0, expiry_enabled=False)
        while rl.txs_applied < 200:
            txs = rl.build_batch(20)
            epoch = rl.state.epoch + 1
            alone = rl.state.copy()
            alone.pool = utxo.PendingPool()
            mature = rl.state.pool.mature(epoch)
            drained, _ = ledger.apply_batch(rl.state, [], epoch, rl.cfg, workers=1)
            assert [r.tx_id for r in drained] == [e.tx_id for e in mature]
            matured += len(drained)
            for entry, receipt in zip(mature, drained):
                receipts, before, after = apply_watching_the_fee_credit(alone, [entry.tx], epoch, rl.cfg)
                assert receipts == [receipt]
                assert receipt.writes_digest == ref_writes_digest((after - before).elements(), (before - after).elements())
            assert state_entries(alone) == state_entries(rl.state)
            for tx in txs:
                (receipt,), before, after = apply_watching_the_fee_credit(rl.state, [tx], epoch, rl.cfg)
                assert receipt.writes_digest == ref_writes_digest((after - before).elements(), (before - after).elements())
                statuses.add(receipt.status)
            rl.txs_applied += len(txs)
        check_conservation(rl.state)
    assert {codes.OK, utxo.LOCK_FAILED, utxo.PENDING_ACCEPTED} <= statuses and matured > 0


def test_expiry_and_coinbase_writes_are_no_receipts():
    """A batch's expiry and coinbase writes come before its first
    transaction and belong to none: a first receipt that is a rejection
    commits no writes, and the spend behind it commits its own alone."""
    cfg = make_config(expiry_enabled=True, initial_subsidy=50)
    state = ledger.LedgerState()
    due = seed_utxo(state, p2pk(BOB, 7, expiry=1))
    coin = seed_utxo(state, p2pk(ALICE, 30))
    spend = signed_spend(ALICE, [coin], [p2pk(BOB, 30)])
    forged = signed_spend(BOB, [coin], [p2pk(BOB, 30)])
    receipts, _ = ledger.apply_batch(state, [forged, spend], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [utxo.LOCK_FAILED, codes.OK]
    assert due not in state.utxos and state.expired == 7 and state.issued == 87
    assert receipts[0].writes_digest == ref_writes_digest([], [])
    created = b"U" + encode(write_outpoint, Outpoint(txid(spend), 0)) + encode(write_output, p2pk(BOB, 30))
    spent = b"U" + encode(write_outpoint, coin) + encode(write_output, p2pk(ALICE, 30))
    assert receipts[1].writes_digest == ref_writes_digest([created], [spent])


def run_logged_ledger(tmp_path: Path, batches: int = 3):
    from helpers import RandomLedger

    logdir = tmp_path / "log"
    rl = RandomLedger(seed=5, logdir=logdir)
    rl.bootstrap()
    for _ in range(batches):
        rl.run_batch(20)
    return logdir


def test_replay_clean_log_verifies(tmp_path):
    logdir = run_logged_ledger(tmp_path)
    report = ledger.replay_verify(logdir)
    assert report.ok, report


def mutate(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_replay_detects_header_field_edit(tmp_path):
    logdir = run_logged_ledger(tmp_path)
    hpath = logdir / "header_000002.json"
    obj = json.loads(hpath.read_text())
    digest = obj["header"]["post_state_digest"]
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    mutate(hpath, digest, flipped)
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.batch == 2


def test_replay_names_a_receipt_whose_writes_digest_was_edited(tmp_path):
    logdir = run_logged_ledger(tmp_path)
    hpath = logdir / "header_000002.json"
    obj = json.loads(hpath.read_text())
    j = len(obj["receipts"]) // 2
    digest = obj["receipts"][j]["writes_digest"]
    obj["receipts"][j]["writes_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    hpath.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    report = ledger.replay_verify(logdir)
    assert (report.ok, report.kind, report.batch, report.field) == (False, "divergence", 2, f"receipt[{j}]")
    assert report == ref_replay_verify(logdir)


def test_replay_detects_tx_edit_in_batch_file(tmp_path):
    logdir = run_logged_ledger(tmp_path)
    bpath = logdir / "batch_000002.json"
    obj = json.loads(bpath.read_text())
    assert obj["txs"], "expected a nonempty batch"
    report_before = ledger.replay_verify(logdir)
    assert report_before.ok
    raw = bpath.read_text()
    # Flip one hex nibble somewhere inside the first tx body.
    idx = raw.index('"txs":') + 20
    while raw[idx] not in "0123456789abcdef":
        idx += 1
    flipped = "f" if raw[idx] != "f" else "0"
    bpath.write_text(raw[:idx] + flipped + raw[idx + 1 :])
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.batch == 2


def test_replay_detects_hex_case_and_status_name_edits(tmp_path):
    # Mutations that decode to equal values must still fail byte-identity.
    logdir = run_logged_ledger(tmp_path)
    hpath = logdir / "header_000001.json"
    raw = hpath.read_text()
    idx = raw.index('"prev_hash":"') + len('"prev_hash":"')
    while raw[idx] not in "abcdef":
        idx += 1
    hpath.write_text(raw[:idx] + raw[idx].upper() + raw[idx + 1 :])
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.batch == 1
    hpath.write_text(raw)  # restore
    assert ledger.replay_verify(logdir).ok
    mutate(hpath, '"status_name":"Ok"', '"status_name":"OK"')
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.batch == 1


def test_replay_detects_genesis_edit(tmp_path):
    logdir = run_logged_ledger(tmp_path)
    mutate(logdir / "genesis.json", '"initial_subsidy":1000', '"initial_subsidy":2000')
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.batch in (-1, 0)


def test_replay_detects_truncated_log(tmp_path):
    logdir = run_logged_ledger(tmp_path)
    (logdir / "batch_000003.json").write_text("{not json")
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.kind == "unreadable" and report.batch == 3


def test_replay_reports_orphan_header(tmp_path, capsys):
    from tierledger import cli

    logdir = run_logged_ledger(tmp_path)
    last = len(list(logdir.glob("header_*.json"))) - 1
    (logdir / f"batch_{last:06d}.json").unlink()  # its header stays
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.kind == "unreadable", report
    assert report.batch == last and report.field == f"batch_{last:06d}.json"
    assert cli.main(["replay", str(logdir)]) == 2
    assert f"batch {last} (batch_{last:06d}.json)" in capsys.readouterr().out


def test_replay_reports_gap_before_stray_batch(tmp_path):
    logdir = run_logged_ledger(tmp_path)
    n = len(list(logdir.glob("header_*.json")))
    assert n < 9
    (logdir / "batch_000009.json").write_text((logdir / "batch_000000.json").read_text())
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.kind == "unreadable", report
    assert report.batch == n and report.field == f"batch_{n:06d}.json"


def test_log_files_past_batch_999999_count(tmp_path):
    """Past batch 999,999 a log file's number takes seven digits or more:
    a stray batch_1000000.json after a one-batch log is a gap at batch 1,
    and a directory that holds only header_1000000.json already holds a
    log. Names that _log_file never writes are still ignored."""
    cfg = make_config()
    ledger.init_log(tmp_path, cfg)
    receipts, header = ledger.apply_batch(ledger.LedgerState(), [], 1, cfg, workers=1)
    ledger.write_batch_files(tmp_path, 0, 1, [], header, receipts)
    for name in ("batch_0000001.json", "batch_12345.json", "header_000001.json.tmp"):
        (tmp_path / name).write_text("")
    assert ledger.replay_verify(tmp_path).ok
    (tmp_path / "batch_1000000.json").write_text("")
    report = ledger.replay_verify(tmp_path)
    assert (report.ok, report.kind, report.batch, report.field) == (False, "unreadable", 1, "batch_000001.json")
    other = tmp_path / "other"
    other.mkdir()
    (other / "header_1000000.json").write_text("")
    with pytest.raises(FileExistsError):
        ledger.init_log(other, cfg)


MALFORMED_SHAPES = {
    "batch_txs_not_a_list": ("batch", lambda obj: {**obj, "txs": 5}),
    "batch_file_is_a_list": ("batch", lambda obj: [obj]),
    "epoch_beyond_u64": ("batch", lambda obj: {**obj, "epoch": 2**64}),
    "batch_number_is_true": ("batch", lambda obj: {**obj, "batch": True}),
    "header_file_is_a_list": ("header", lambda obj: []),
    "receipts_not_a_list": ("header", lambda obj: {**obj, "receipts": 3}),
    "header_not_an_object": ("header", lambda obj: {**obj, "header": "x"}),
    "receipt_txid_not_hex": (
        "header", lambda obj: {**obj, "receipts": [{**obj["receipts"][0], "txid": 5}]}
    ),
    "receipt_status_is_a_list": (
        "header", lambda obj: {**obj, "receipts": [{**obj["receipts"][0], "status": [1]}]}
    ),
    "output_lock_is_a_list": ("batch", lambda obj: _edit_first_output(obj, "lock", [])),
    # "<deep>" is written as an array nested 100,000 deep, past the parser's
    # recursion limit.
    "batch_file_nests_too_deep": ("batch", lambda obj: "<deep>"),
    "txs_nest_too_deep": ("batch", lambda obj: {**obj, "txs": "<deep>"}),
    "header_file_nests_too_deep": ("header", lambda obj: "<deep>"),
}
DEEP_NESTING = "[" * 100_000 + "]" * 100_000


def _edit_first_output(batch_obj: dict, key: str, value) -> dict:
    tx = next(t for t in batch_obj["txs"] if "outputs" in t)
    tx["outputs"][0][key] = value
    return batch_obj


@pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
def test_replay_reports_malformed_shape_unreadable(tmp_path, case):
    from tierledger import cli

    logdir = run_logged_ledger(tmp_path, batches=2)
    kind, edit = MALFORMED_SHAPES[case]
    path = logdir / f"{kind}_000001.json"
    edited = edit(json.loads(path.read_text()))
    text = json.dumps(edited, sort_keys=True, separators=(",", ":"))
    path.write_text(text.replace('"<deep>"', DEEP_NESTING))
    report = ledger.replay_verify(logdir)
    assert not report.ok and report.kind == "unreadable" and report.batch == 1, report
    assert cli.main(["--quiet", "replay", str(logdir)]) == 2
    assert cli.main(["--quiet", "digest", str(logdir)]) == 2


@pytest.mark.parametrize("user_fields, kind", [
    ({"user_pubkey": "07" * 32, "expiry": 9}, "unreadable"),
    ({"user_pubkey": "", "expiry": 0}, "divergence"),
])
def test_per_transaction_endorsement_with_user_fields_does_not_replay(tmp_path, user_fields, kind):
    """A per_transaction endorsement has no user fields. One that carries
    them cannot be decoded; the default ones, which the writer leaves out,
    are not the log's canonical bytes."""
    logdir = run_logged_ledger(tmp_path, batches=2)
    path = logdir / "batch_000001.json"
    batch = json.loads(path.read_text())
    batch["txs"][0]["endorsement"] = {
        "granularity": "per_transaction", "intermediary_pubkey": "11" * 32, "signature": "22" * 64, **user_fields,
    }
    path.write_text(json.dumps(batch, sort_keys=True, separators=(",", ":")))
    report = ledger.replay_verify(logdir)
    assert (report.kind, report.batch) == (kind, 1), report
    if kind == "divergence":
        assert report.field == "encoding"


GENESIS_VALUES = [[], {}, "x", None, True, -1, 2**70, 1.5]


def test_replay_reports_any_genesis_edit(tmp_path, capsys):
    """Every genesis key set to each JSON value, and a whole file of a list,
    a string or null: replay returns a report and never raises. A value of
    the wrong JSON type is unreadable at field genesis, so the CLI exits 2."""
    from tierledger import cli

    logdir = run_logged_ledger(tmp_path, batches=1)
    path = logdir / "genesis.json"
    raw = path.read_text()
    genesis = json.loads(raw)
    # Every key of SystemConfig.to_json, allow_list included (a list; null
    # means no allow list).
    kinds = {key: type(value) for key, value in genesis.items()}
    assert len(kinds) == 12 and "allow_list" not in kinds
    kinds["allow_list"] = list
    edits = [({**genesis, key: value}, key) for key in kinds for value in GENESIS_VALUES]
    edits += [(whole, None) for whole in ([genesis], "x", None)]
    for edited, key in edits:
        path.write_text(json.dumps(edited, sort_keys=True, separators=(",", ":")))
        report = ledger.replay_verify(logdir)
        assert report.ok == (edited == genesis), (key, edited, report)
        if key is None or type(edited[key]) not in (kinds[key], type(None) if key == "allow_list" else kinds[key]):
            assert (report.kind, report.field) == ("unreadable", "genesis"), (key, edited, report)
    for edited in ({**genesis, "call_policy": "x"}, "x"):
        path.write_text(json.dumps(edited))
        assert cli.main(["--quiet", "replay", str(logdir)]) == 2
    path.write_text(raw)
    assert ledger.replay_verify(logdir).ok


def test_contract_fees_settle_into_operator_account(tmp_path):
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 1000)
    dep = make_deploy(ALICE, counter_code(), nonce=0, gas_limit=31, gas_price=2)
    call = make_call(ALICE, txid(dep), nonce=1, gas_limit=25, gas_price=1)
    receipts, _ = ledger.apply_batch(state, [dep, call], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [0, 0]
    assert receipts[0].gas_used == 31
    assert receipts[1].gas_used == 20
    assert state.accounts.balance(OP_ADDR) == 31 * 2 + 20
    check_conservation(state)


def test_fees_reach_the_operator_once_at_the_batch_end(monkeypatch):
    """One batch earns fees from two calls of one flush, a spend and the
    operator's own move. The fees are held apart, so conservation holds
    between the two calls; the operator's move sees the balance from before
    the batch, and an overdraft by one unit fails; no receipt's writes hold
    a fee credit; and the batch end credits the fees' sum once."""
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    b_addr = address_of_pubkey(BOB.pubkey)
    for addr in (A_ADDR, b_addr):
        seed_balance(state, addr, 1000)
    seed_balance(state, OP_ADDR, 500)
    dep = make_deploy(ALICE, counter_code(), gas_limit=31)
    assert ledger.apply_batch(state, [dep], 1, cfg, workers=1)[0][0].status == codes.OK
    c = txid(dep)
    coin = seed_utxo(state, p2pk(BOB, 100))
    spend = signed_spend(BOB, [coin], [p2pk(ALICE, 90)])
    move = make_move_to_utxo(OPERATOR, 500, [p2pk(OPERATOR, 497)])
    txs = [
        make_call(ALICE, c, nonce=1, gas_limit=25, gas_price=2),
        make_call(BOB, c, gas_limit=25, gas_price=1),
        spend,
        make_move_to_utxo(OPERATOR, 501, [p2pk(OPERATOR, 500)]),
        move,
    ]
    between, credits = [], []
    apply, credit = vm.StateDiff.apply, ledger.LedgerState.credit_fees

    def applying(diff: vm.StateDiff, accounts: vm.Accounts) -> None:
        apply(diff, accounts)
        between.append(state.conservation_holds())

    def crediting(crediting_state: ledger.LedgerState, operator: bytes) -> None:
        credits.append((operator, crediting_state.accounts.fees, crediting_state.accounts.balance(operator)))
        credit(crediting_state, operator)

    monkeypatch.setattr(vm.StateDiff, "apply", applying)
    monkeypatch.setattr(ledger.LedgerState, "credit_fees", crediting)
    receipts, header = ledger.apply_batch(state, txs, 2, cfg, workers=1)
    assert [r.status for r in receipts] == [codes.OK] * 3 + [vm.STATUS_INSUFFICIENT_BALANCE, codes.OK]
    assert between == [True, True]
    fees = 2 * 20 + 20 + 10 + 3
    assert credits == [(OP_ADDR, fees, 0)]
    assert (state.accounts.balance(OP_ADDR), state.accounts.fees) == (fees, 0)
    created = lambda tx, out: b"U" + encode(write_outpoint, Outpoint(txid(tx), 0)) + encode(write_output, out)
    bal, slot = vm.balance_entry, lambda val: vm.slot_entry(c, 0, val)
    spent = b"U" + encode(write_outpoint, coin) + encode(write_output, p2pk(BOB, 100))
    assert [r.writes_digest for r in receipts] == [
        ref_writes_digest([bal(A_ADDR, 960), slot(1)], [bal(A_ADDR, 1000)]),
        ref_writes_digest([bal(b_addr, 980), slot(2)], [bal(b_addr, 1000), slot(1)]),
        ref_writes_digest([created(spend, p2pk(ALICE, 90))], [spent]),
        ref_writes_digest([], []),
        ref_writes_digest([created(move, p2pk(OPERATOR, 497))], [bal(OP_ADDR, 500)]),
    ]
    assert header.post_state_digest == ledger.state_digest(state)
    check_conservation(state)


# Pays ARG from the contract's balance to address constant 0: 13 gas, or
# 12 when the contract cannot cover ARG and TRANSFER reverts.
PAY_ASM = "ARG PUSHA 0 TRANSFER HALT"


def test_contract_payments_to_the_operator_settle_alike_in_both_modes(tmp_path):
    """Calls that TRANSFER to the operator write its balance inside the VM,
    as they would any other, and their fees are credited with the others at
    the batch end, so the operator gets fees and payments alike in dynamic
    mode and in declared mode, where each such call declares the operator's
    balance written and conflicts only with the others that do. The last
    payment is past the contract's balance and reverts: only its fee
    reaches the operator."""
    runs = {}
    for mode in (rules.ACCESS_DYNAMIC, rules.ACCESS_DECLARED):
        cfg = make_config(initial_subsidy=1000, access_mode=mode)
        logdir = tmp_path / mode
        ledger.init_log(logdir, cfg)
        state = ledger.LedgerState()

        def commit(txs, epoch):
            receipts, header = ledger.apply_batch(state, txs, epoch, cfg, workers=1)
            ledger.write_batch_files(logdir, header.batch_number, epoch, txs, header, receipts)
            check_conservation(state)
            return [(r.status, r.gas_used) for r in receipts]

        b_addr = address_of_pubkey(BOB.pubkey)
        commit([], 1)
        counter = make_deploy(ALICE, counter_code(), gas_limit=31, gas_price=1)
        payer = make_deploy(ALICE, vm.assemble(PAY_ASM), nonce=1, endowment=100, gas_limit=31, gas_price=1)
        commit([coinbase_to_account(state, 0, A_ADDR), counter, payer], 2)
        commit([coinbase_to_account(state, 1, b_addr)], 3)
        c, p = txid(counter), txid(payer)
        slot = frozenset({(c, 0)})
        count = AccessDecl(storage_read=slot, storage_written=slot)
        pay = AccessDecl(balances_written=frozenset({OP_ADDR}))
        fees_before = state.accounts.balance(OP_ADDR)
        txs = [
            make_call(BOB, c, gas_limit=25, gas_price=1, access=count),
            make_call(ALICE, p, nonce=2, arg=30, gas_limit=25, gas_price=2, access=pay, address_consts=[OP_ADDR]),
            make_call(BOB, c, nonce=1, gas_limit=25, gas_price=1, access=count),
            make_call(BOB, p, nonce=2, arg=50, gas_limit=25, gas_price=1, access=pay, address_consts=[OP_ADDR]),
            make_call(ALICE, c, nonce=3, gas_limit=25, gas_price=1, access=count),
            make_call(ALICE, p, nonce=4, arg=21, gas_limit=25, gas_price=1, access=pay, address_consts=[OP_ADDR]),
        ]
        got = commit(txs, 4)
        assert got == [(0, 20), (0, 13), (0, 20), (0, 13), (0, 20), (vm.STATUS_REVERTED, 12)]
        assert state.accounts.balance(OP_ADDR) - fees_before == 20 + 2 * 13 + 20 + 13 + 20 + 12 + 30 + 50
        assert state.accounts.balance(p) == 100 - 30 - 50
        assert ledger.replay_verify(logdir).ok
        runs[mode] = got, ledger.state_digest(state)
    assert runs[rules.ACCESS_DYNAMIC] == runs[rules.ACCESS_DECLARED]


# ---------------------------------------------------------------------------
# Hashed layouts against the reference encoder, and how often a batch
# encodes and hashes

_hash32 = st.binary(min_size=32, max_size=32)
_u64 = st.integers(min_value=0, max_value=U64_MAX)


@given(_hash32, st.integers(min_value=0, max_value=0xFFFF), _u64, st.sampled_from(list(Level)), _hash32)
@settings(max_examples=100)
def test_receipt_hash_matches_reference(tx_id, status, gas_used, level, digest):
    receipt = ledger.Receipt(tx_id, status, gas_used, level, digest)
    assert receipt.hash() == ref_receipt_hash(tx_id, status, gas_used, level.value, digest)


@given(_u64, _u64, st.lists(_hash32, min_size=5, max_size=5))
@settings(max_examples=100)
def test_batch_header_hash_matches_reference(batch_number, epoch, hashes):
    header = ledger.BatchHeader(batch_number, epoch, *hashes)
    assert header.hash() == ref_header_hash(batch_number, epoch, *hashes)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**12),
            st.sampled_from([Lock.pay_to_pubkey(ALICE.pubkey), Lock.multisig(1, [BOB.pubkey]),
                             Lock.pay_to_script(b"\x51")]),
            st.none() | st.integers(min_value=0, max_value=9),
            st.booleans(),
        ),
        max_size=5,
    ),
    st.lists(st.tuples(_hash32, st.integers(min_value=0, max_value=10**12)), max_size=3),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_state_digest_matches_reference(outputs, balances, epoch):
    state = ledger.LedgerState()
    for i, (amount, lock, expiry, spent) in enumerate(outputs):
        op = Outpoint(sha256(i.to_bytes(4, "little")), i)
        state.put_utxos(op.txid, (Output(amount, lock, expiry),), op.index)
        state.issued += amount
        if spent:
            state.expired += state.spend_utxos((op,))
    for addr, bal in balances:
        state.accounts.set_balance(addr, bal)
        state.issued += bal
    state.epoch = epoch
    accounts = state.accounts
    entries = [vm.balance_entry(a, b) for a, b in accounts.balances.items() if b]
    want = ref_state_digest(
        dict(state.utxos), entries, state.issued, state.expired, state.account_total, epoch
    )
    assert ledger.state_digest(state) == want


def _mixed_batch(state: ledger.LedgerState, script_input: bool) -> list[Transaction]:
    """Fresh, never-encoded transactions of every kind the pipeline
    validates: a spend, a pool admission, a move each way, a deploy and a
    call. The spend creates a script-locked output; with script_input it
    also spends one."""
    script_lock = Lock.pay_to_script(assemble("TRUE"))
    coins = [seed_utxo(state, p2pk(ALICE, 100)) for _ in range(3)]
    seed_balance(state, A_ADDR, 1000)
    spend = signed_spend(ALICE, [coins[0]], [Output(90, script_lock)])
    if script_input:
        locked = seed_utxo(state, Output(50, script_lock))
        spend = Transaction(UtxoSpend((coins[0], locked), (Output(140, script_lock),)))
        sig = crypto.sign(ALICE.seed, crypto.utxo_signing_message(txid(spend), 0))
        spend = spend.with_witnesses(((sig,), ()))
    dep = make_deploy(ALICE, counter_code(), nonce=1)
    txs = [
        spend,
        signed_spend(ALICE, [coins[1]], [p2pk(BOB, 90)], not_before=5),
        make_move_to_account(ALICE, [coins[2]], 90),
        make_move_to_utxo(ALICE, 20, [p2pk(BOB, 10)], nonce=0),
        dep,
        make_call(ALICE, txid(dep), nonce=2),
    ]
    # Decoded from JSON, as replay and the benchmark see them: no instance
    # has encoded its body yet.
    return [tx_from_json_str(tx_to_json_str(tx)) for tx in txs]


def test_apply_batch_encodes_each_body_once(monkeypatch):
    state = ledger.LedgerState()
    txs = _mixed_batch(state, script_input=False)
    encoded: list[int] = []
    encode_body = model._encode_body
    monkeypatch.setattr(model, "_encode_body", lambda tx: encoded.append(id(tx)) or encode_body(tx))
    receipts, _ = ledger.apply_batch(state, txs, 1, make_config(initial_subsidy=0), workers=1)
    assert [r.status for r in receipts] == [
        codes.OK, utxo.PENDING_ACCEPTED, codes.OK, codes.OK, codes.OK, codes.OK
    ]
    assert sorted(encoded) == sorted(id(tx) for tx in txs)


@pytest.mark.parametrize("script_input", [False, True])
def test_covenant_hashes_only_for_script_lock_inputs(monkeypatch, script_input):
    state = ledger.LedgerState()
    txs = _mixed_batch(state, script_input)
    calls: list[int] = []
    hashes = utxo.spend_script_hashes
    monkeypatch.setattr(utxo, "spend_script_hashes", lambda outs: calls.append(1) or hashes(outs))
    receipts, _ = ledger.apply_batch(state, txs, 1, make_config(initial_subsidy=0), workers=1)
    assert receipts[0].status == codes.OK and receipts[1].status == utxo.PENDING_ACCEPTED
    assert len(calls) == (1 if script_input else 0)


def test_put_utxos_matches_per_output_writes_and_the_oracle():
    msig = Lock.multisig(1, [ALICE.pubkey, BOB.pubkey])
    outputs = [p2pk(ALICE, 5 + i, expiry=3 if i % 3 == 0 else None) for i in range(40)]
    outputs += [Output(7, msig, 4)] * 3 + [p2pk(BOB, 1)] * 3
    tx_id = sha256(b"fan-out")
    together, each = ledger.LedgerState(), ledger.LedgerState()
    for state in (together, each):
        state.put_utxos(sha256(b"earlier"), (p2pk(BOB, 11, expiry=3),), 2)
    together.put_utxos(tx_id, outputs[:10])
    together.put_utxos(tx_id, outputs[10:], 10)
    together.put_utxos(tx_id, ())
    for j, out in enumerate(outputs):
        each.put_utxos(tx_id, (out,), j)
    assert dict(together.utxos) == dict(each.utxos)
    assert together.utxo_total == each.utxo_total == 11 + sum(out.amount for out in outputs)
    assert {e: set(ops) for e, ops in together.expiring.items()} == {
        e: set(ops) for e, ops in each.expiring.items()
    }
    assert len(together.expiring[3]) == 1 + 14 and len(together.expiring[4]) == 3
    digest = ledger.state_digest(together)
    assert digest == ledger.state_digest(each) == recompute_state_digest(together)


def _fanout_log(tmp_path: Path) -> Path:
    """A two-batch log: the coinbase, then one signed fan-out that repeats a
    p2pk output of amount 1 and a 1-of-2 multisig output with expiry 9,
    followed by each lock with the other expiry and a few distinct
    outputs."""
    cfg = make_config(initial_subsidy=10_000)
    state = ledger.LedgerState()
    logdir = tmp_path / "log"
    ledger.init_log(logdir, cfg)
    msig = Lock.multisig(1, [ALICE.pubkey, BOB.pubkey])
    outputs = [p2pk(ALICE, 1), Output(1, msig, 9)] * 12 + [p2pk(ALICE, 1, 9), Output(1, msig)]
    outputs += [p2pk(BOB, 2 + i) for i in range(4)]
    fanout = signed_spend(OPERATOR, [ledger._coinbase_outpoint(0)], outputs)
    for epoch, txs in ((1, []), (2, [fanout])):
        receipts, header = ledger.apply_batch(state, txs, epoch, cfg, workers=1)
        assert all(r.status == codes.OK for r in receipts)
        ledger.write_batch_files(logdir, header.batch_number, epoch, txs, header, receipts)
    return logdir


def _set_output(key, value):
    return lambda out: out.__setitem__(key, value)


def _set_lock(key, value):
    return lambda out: out["lock"].__setitem__(key, value)


# Each edit is applied to one occurrence of a repeated output: even indices
# below 24 hold the p2pk output of amount 1, odd ones the multisig one.
INTERN_EDITS = {
    "amount_float": (0, _set_output("amount", 1.0), "unreadable"),
    "amount_true": (6, _set_output("amount", True), "unreadable"),
    "m_true": (7, _set_lock("m", True), "unreadable"),
    "m_float": (1, _set_lock("m", 1.0), "unreadable"),
    "expiry_float": (9, _set_output("expiry", 9.0), "unreadable"),
    "pubkey_not_a_string": (4, _set_lock("pubkey", 5), "unreadable"),
    "hex_upper_case": (8, lambda out: out["lock"].update(pubkey=out["lock"]["pubkey"].upper()),
                       "divergence"),
    "expiry_null": (10, _set_output("expiry", None), "divergence"),
    "stray_output_key": (12, _set_output("memo", 1), "divergence"),
    "stray_lock_key": (13, _set_lock("memo", 1), "divergence"),
}


@pytest.mark.parametrize("case", sorted(INTERN_EDITS))
def test_interning_decoder_reports_as_the_plain_decoder(tmp_path, monkeypatch, case):
    """One occurrence of a repeated output or lock is perturbed. Replay,
    which keeps each distinct lock and output of a batch once, by its
    text, must give the report of the earlier verifier, which decodes
    every output afresh: with the helper on, and on one CPU."""
    logdir = _fanout_log(tmp_path)
    index, edit, kind = INTERN_EDITS[case]
    path = logdir / "batch_000001.json"
    batch = json.loads(path.read_text())
    edit(batch["txs"][0]["outputs"][index])
    path.write_text(json.dumps(batch, sort_keys=True, separators=(",", ":")))
    want = ref_replay_verify(logdir)
    assert (want.kind, want.batch) == (kind, 1), want
    if kind == "divergence":
        assert want.field == "encoding"
    for cpus in (2, 1):
        monkeypatch.setattr(crypto, "CPUS", cpus)
        assert ledger.replay_verify(logdir) == want


def test_interning_decoder_replays_a_repeating_fanout_as_the_plain_decoder(tmp_path, monkeypatch):
    logdir = _fanout_log(tmp_path)
    want = ref_replay_verify(logdir)
    assert want.ok and want.batches == 2
    for cpus in (2, 1):
        monkeypatch.setattr(crypto, "CPUS", cpus)
        assert ledger.replay_verify(logdir) == want


# ---------------------------------------------------------------------------
# Replay checks each batch's files by their bytes first; the earlier
# verifier, which decoded every header file and compared values first, must
# give the same report on every log.

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EDITED = 5  # average_balance_contract's batch of four L3 receipts, at epoch 6


def _fixture_log(tmp_path: Path, name: str = "average_balance_contract") -> Path:
    logdir = tmp_path / name
    ok, report = scenario.run_scenario(FIXTURES / f"{name}.json", logdir=logdir, workers=1)
    assert ok, report["assertions"]
    return logdir


def _header_file(logdir: Path) -> Path:
    return logdir / f"header_{EDITED:06d}.json"


def _batch_file(logdir: Path) -> Path:
    return logdir / f"batch_{EDITED:06d}.json"


def _rewrite(file, edit, dump=canonical_json):
    """Parse the file, edit its value, and write it back with dump."""

    def apply(logdir: Path) -> None:
        path = file(logdir)
        obj = json.loads(path.read_bytes())
        edit(obj)
        path.write_text(dump(obj))

    return apply


def _raw(file, edit):
    def apply(logdir: Path) -> None:
        path = file(logdir)
        path.write_bytes(edit(path.read_bytes()))

    return apply


def _change(obj: dict, key: str) -> None:
    """Give obj[key] another value of its type: an integer plus one, a
    level or status name replaced, a hex string's first digit flipped."""
    value = obj[key]
    if type(value) is int:
        obj[key] = value + 1
    elif key == "level":
        obj[key] = "L2" if value != "L2" else "L1"
    elif key == "status_name":
        obj[key] = "OK!"
    else:
        obj[key] = ("1" if value[0] == "0" else "0") + value[1:]


def _both(*edits):
    def apply(logdir: Path) -> None:
        for edit in edits:
            edit(logdir)

    return apply


def _drop(file):
    return lambda logdir: file(logdir).unlink()


_unreadable_header = _raw(_header_file, lambda raw: raw[:-1])
_earlier_epoch = _rewrite(_batch_file, lambda o: o.__setitem__("epoch", o["epoch"] - 2))
_wrong_number = _rewrite(_batch_file, lambda o: o.__setitem__("batch", o["batch"] + 1))
_spaced_batch = _rewrite(_batch_file, lambda o: None, lambda o: json.dumps(o, sort_keys=True))
_header_prev_hash = _rewrite(_header_file, lambda o: _change(o["header"], "prev_hash"))
_dropped_receipt = _rewrite(_header_file, lambda o: o["receipts"].pop())


def _tx_value(key: str, text: str):
    """The edited batch's second transaction with key, added when absent,
    holding the JSON text text."""
    return _rewrite(
        _batch_file, lambda o: o["txs"][1].__setitem__(key, "<edit>"),
        lambda o: canonical_json(o).replace('"<edit>"', text),
    )


def _appended_call(edit):
    """The edited batch with a copy of batch 7's call appended, edited by edit."""

    def apply(logdir: Path) -> None:
        call = json.loads((logdir / "batch_000007.json").read_bytes())["txs"][0]
        edit(call)
        _rewrite(_batch_file, lambda o: o["txs"].append(call))(logdir)

    return apply


def _escaped_a(raw: bytes) -> bytes:
    """raw with the first "a" of its second "to" value written as \\u0061."""
    at = raw.index(b"a", raw.index(b'"to":"', raw.index(b'"to":"') + 1))
    return raw[:at] + b"\\u0061" + raw[at + 1:]


REPLAY_EDITS = {
    **{
        f"header_{row.key}": _rewrite(_header_file, lambda o, key=row.key: _change(o["header"], key))
        for row in ledger.HEADER_JSON.rows
    },
    **{
        f"receipt_{row.key}": _rewrite(_header_file, lambda o, key=row.key: _change(o["receipts"][1], key))
        for row in ledger.RECEIPT_JSON.rows
    },
    "receipt_level_unknown": _rewrite(_header_file, lambda o: o["receipts"][0].__setitem__("level", "L9")),
    "receipt_status_a_string": _rewrite(_header_file, lambda o: o["receipts"][0].__setitem__("status", "0")),
    "receipt_dropped": _dropped_receipt,
    "receipt_repeated": _rewrite(_header_file, lambda o: o["receipts"].append(o["receipts"][0])),
    "header_whitespace": _rewrite(_header_file, lambda o: None, lambda o: json.dumps(o, sort_keys=True)),
    "header_trailing_newline": _raw(_header_file, lambda raw: raw + b"\n"),
    "header_key_order": _rewrite(
        _header_file, lambda o: None,
        lambda o: json.dumps({"receipts": o["receipts"], "header": o["header"]}, separators=(",", ":")),
    ),
    "header_stray_key": _rewrite(_header_file, lambda o: o["header"].__setitem__("memo", 1)),
    "receipt_stray_key": _rewrite(_header_file, lambda o: o["receipts"][2].__setitem__("memo", 1)),
    "file_stray_key": _rewrite(_header_file, lambda o: o.__setitem__("memo", 1)),
    "header_upper_case_hex": _rewrite(_header_file, lambda o: o["header"].__setitem__(
        "txs_hash", o["header"]["txs_hash"].upper())),
    "receipt_upper_case_hex": _rewrite(_header_file, lambda o: o["receipts"][3].__setitem__(
        "txid", o["receipts"][3]["txid"].upper())),
    "header_not_an_object": _raw(_header_file, lambda raw: b"[]"),
    "header_truncated": _unreadable_header,
    "batch_truncated": _raw(_batch_file, lambda raw: raw[:-1]),
    "header_missing": _drop(_header_file),
    "batch_missing": _drop(_batch_file),
    "batch_whitespace": _spaced_batch,
    "batch_number": _wrong_number,
    "batch_later_epoch": _rewrite(_batch_file, lambda o: o.__setitem__("epoch", o["epoch"] + 1)),
    "epoch_non_monotone": _earlier_epoch,
    # Two faults at once, where the order of the checks decides the report.
    "epoch_non_monotone_and_header_unreadable": _both(_earlier_epoch, _unreadable_header),
    "batch_number_and_header_unreadable": _both(_wrong_number, _unreadable_header),
    "batch_whitespace_and_header_unreadable": _both(_spaced_batch, _unreadable_header),
    "epoch_non_monotone_and_header_field": _both(_earlier_epoch, _header_prev_hash),
    "batch_whitespace_and_header_field": _both(_spaced_batch, _header_prev_hash),
    "batch_number_and_receipt_dropped": _both(_wrong_number, _dropped_receipt),
    # Inside the batch file, which replay reads one transaction at a time.
    "batch_later_tx_upper_case_hex": _rewrite(_batch_file, lambda o: o["txs"][2].__setitem__(
        "to", o["txs"][2]["to"].upper())),
    "batch_last_tx_stray_key": _rewrite(_batch_file, lambda o: o["txs"][-1].__setitem__("memo", 1)),
    "batch_whitespace_between_txs": _raw(_batch_file, lambda raw: raw.replace(b'},{"amount"', b'}, {"amount"', 1)),
    "batch_comma_after_last_tx": _raw(_batch_file, lambda raw: raw[:-2] + b",]}"),
    "batch_newline_after_end": _raw(_batch_file, lambda raw: raw + b"\n"),
    "batch_bytes_after_end": _raw(_batch_file, lambda raw: raw + b"[]"),
    "batch_non_ascii_byte_in_a_string": _raw(_batch_file, lambda raw: (
        lambda at: raw[:at] + b"\xe9" + raw[at:])(raw.rindex(b'"to":"') + len(b'"to":"'))),
    "batch_nan_amount": _rewrite(_batch_file, lambda o: o["txs"][1].__setitem__("amount", float("nan"))),
    "batch_tx_nested_100k_deep": _raw(_batch_file, lambda raw: raw[:-2] + b"," + b"[" * 100_000 + b"]" * 100_000 + b"]}"),
    # Text that a parser of canonical text alone could take.
    "batch_int_leading_zero": _tx_value("amount", "020"),
    "batch_minus_zero": _tx_value("nonce", "-0"),
    "batch_nonce_2_64": _tx_value("nonce", str(2**64)),
    "batch_true_for_an_int": _tx_value("amount", "true"),
    "batch_odd_length_hex": _rewrite(_batch_file, lambda o: o["txs"][1].__setitem__("to", o["txs"][1]["to"][:-1])),
    "batch_escape_in_hex": _raw(_batch_file, _escaped_a),
    "batch_not_before_null": _tx_value("not_before", "null"),
    "batch_witnesses_empty": _tx_value("witnesses", "[]"),
    "batch_per_transaction_expiry_0": _tx_value("endorsement", canonical_json({
        "expiry": 0, "granularity": "per_transaction", "intermediary_pubkey": "11" * 32, "signature": "22" * 64,
    })),
    "batch_call_appended": _appended_call(lambda call: None),
    "batch_call_address_consts_empty": _appended_call(lambda call: call.__setitem__("address_consts", [])),
    "batch_call_access_out_of_order": _appended_call(
        lambda call: call["access"].__setitem__("balances_read", ["02" * 32, "01" * 32])),
    "batch_call_access_item_twice": _appended_call(
        lambda call: call["access"].__setitem__("storage_read", [[call["contract"], 0]] * 2)),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_replay_reports_as_the_earlier_verifier_on_honest_logs(tmp_path, name):
    logdir = _fixture_log(tmp_path, name)
    report = ledger.replay_verify(logdir)
    assert report.ok and report == ref_replay_verify(logdir)


def test_replay_reports_as_the_earlier_verifier_on_a_repeating_fanout(tmp_path):
    logdir = _fanout_log(tmp_path)
    report = ledger.replay_verify(logdir)
    assert report.ok and report == ref_replay_verify(logdir)


@pytest.mark.parametrize("case", sorted(REPLAY_EDITS))
def test_replay_reports_each_edit_as_the_earlier_verifier(tmp_path, case):
    logdir = _fixture_log(tmp_path)
    REPLAY_EDITS[case](logdir)
    report = ledger.replay_verify(logdir)
    assert report == ref_replay_verify(logdir)
    assert not report.ok and report.batch == EDITED, report


@pytest.fixture(scope="module")
def honest_log(tmp_path_factory) -> tuple[Path, ledger.ReplayReport]:
    logdir = _fixture_log(tmp_path_factory.mktemp("honest"))
    report = ledger.replay_verify(logdir)
    assert report.ok
    return logdir, report


@pytest.mark.parametrize("case", sorted(REPLAY_EDITS))
def test_each_edit_leaves_the_helper_ready_for_the_next_replay(tmp_path, monkeypatch, honest_log, case):
    """With the helper on, an edited log and then an honest one are replayed
    in one process. A batch file whose text stops being canonical mid-batch
    stops the plan mid-way: its end must still reach the helper, or the
    next batch waits for the helper's acknowledgement forever."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    logdir = _fixture_log(tmp_path)
    REPLAY_EDITS[case](logdir)
    report = ledger.replay_verify(logdir)
    honest, honest_report = honest_log
    assert _within_a_minute(lambda: ledger.replay_verify(honest)) == honest_report
    assert report == ref_replay_verify(logdir)


def test_honest_replay_decodes_no_header_file(tmp_path, monkeypatch):
    logdir = _fixture_log(tmp_path)
    decoded: list[model.JsonTable] = []
    decode = model.JsonTable.decode

    def counted(table, obj):
        decoded.append(table)
        return decode(table, obj)

    monkeypatch.setattr(model.JsonTable, "decode", counted)
    assert ledger.replay_verify(logdir).ok
    assert decoded and not any(t is ledger.RECEIPT_JSON or t is ledger.HEADER_JSON for t in decoded)
    # A mismatch is named from the decoded header file.
    REPLAY_EDITS["receipt_gas_used"](logdir)
    assert ledger.replay_verify(logdir).field == "receipt[1]"
    assert sum(t is ledger.RECEIPT_JSON for t in decoded) == 4
