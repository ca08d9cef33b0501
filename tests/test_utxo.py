"""Coin-level validation: lock checks, windows, fees, the batch double-spend
guard, and the replaceable pending pool."""

from __future__ import annotations

from helpers import KEYS, make_config, p2pk, signed_spend
from tierledger import crypto, ledger, utxo
from tierledger.model import (
    Lock,
    MoveToAccount,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    sha256,
    txid,
)
from tierledger.script import assemble

ALICE, BOB, CAROL = KEYS[1], KEYS[2], KEYS[3]
CFG = make_config()


def funded(amount: int = 100, lock: Lock | None = None, expiry=None, tag: bytes = b"\x01"):
    op = Outpoint(sha256(b"fund" + tag), 0)
    out = Output(amount, lock if lock is not None else Lock.pay_to_pubkey(ALICE.pubkey), expiry)
    return op, {op: out}


def test_valid_spend_and_fee():
    op, utxos = funded(100)
    tx = signed_spend(ALICE, [op], [p2pk(BOB, 60), p2pk(ALICE, 30)])
    status, fee = utxo.validate_spend(tx, txid(tx), utxos, 1, CFG)
    assert status == utxo.OK
    assert fee == 10
    state = ledger.LedgerState()
    state.put_utxos(op.txid, (utxos[op],), op.index)
    receipts, _ = ledger.apply_batch(state, [tx], 1, make_config(initial_subsidy=0), workers=1)
    assert receipts[0].status == utxo.OK
    assert op not in state.utxos
    assert state.utxos[Outpoint(txid(tx), 0)].amount == 60
    assert state.utxos[Outpoint(txid(tx), 1)].amount == 30
    assert state.utxo_total == 90
    assert state.account_total == 10  # the fee, credited to the operator


def test_missing_input():
    _, utxos = funded()
    ghost = Outpoint(b"\x00" * 32, 3)
    tx = signed_spend(ALICE, [ghost], [p2pk(BOB, 1)])
    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 1, CFG)
    assert status == utxo.MISSING_INPUT


def test_double_spend_within_tx_and_within_batch():
    op, utxos = funded(100)
    twice = signed_spend(ALICE, [op, op], [p2pk(BOB, 10)])
    status, _ = utxo.validate_spend(twice, txid(twice), utxos, 1, CFG)
    assert status == utxo.DOUBLE_SPEND_IN_BATCH
    tx = signed_spend(ALICE, [op], [p2pk(BOB, 10)])
    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 1, CFG, spent_in_batch={op})
    assert status == utxo.DOUBLE_SPEND_IN_BATCH


def test_expired_input_gated_by_config():
    op, utxos = funded(50, expiry=5)
    tx = signed_spend(ALICE, [op], [p2pk(BOB, 50)])
    live = make_config(expiry_enabled=True)
    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 4, live)
    assert status == utxo.OK
    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 5, live)  # inclusive
    assert status == utxo.EXPIRED_INPUT
    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 9, CFG)  # expiry disabled
    assert status == utxo.OK


def test_validity_window():
    op, _ = funded()
    tx = signed_spend(ALICE, [op], [p2pk(BOB, 10)], not_before=3, not_after=5)
    for epoch, inside in ((2, False), (3, True), (5, True), (6, False)):
        assert utxo.check_window(tx, epoch) is inside, epoch


def test_wrong_key_fails_lock():
    op, utxos = funded()
    tx = signed_spend(BOB, [op], [p2pk(BOB, 10)])
    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 1, CFG)
    assert status == utxo.LOCK_FAILED


def test_witness_count_mismatch():
    op, utxos = funded()
    tx = Transaction(UtxoSpend((op,), (p2pk(BOB, 10),)))  # no witness at all
    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 1, CFG)
    assert status == utxo.WITNESS_COUNT_MISMATCH


def test_multisig_lock_order_and_threshold():
    lock = Lock.multisig(2, [ALICE.pubkey, BOB.pubkey, CAROL.pubkey])
    op, utxos = funded(40, lock=lock)
    tx = Transaction(UtxoSpend((op,), (p2pk(ALICE, 40),)))
    msg = crypto.utxo_signing_message(txid(tx), 0)

    def with_sigs(*kps):
        return tx.with_witnesses((tuple(crypto.sign(k.seed, msg) for k in kps),))

    good = with_sigs(ALICE, CAROL)
    status, _ = utxo.validate_spend(good, txid(good), utxos, 1, CFG)
    assert status == utxo.OK
    out_of_order = with_sigs(CAROL, ALICE)
    status, _ = utxo.validate_spend(out_of_order, txid(out_of_order), utxos, 1, CFG)
    assert status == utxo.LOCK_FAILED
    short = with_sigs(BOB)
    status, _ = utxo.validate_spend(short, txid(short), utxos, 1, CFG)
    assert status == utxo.LOCK_FAILED


def test_script_lock_success_and_reason_codes():
    lock = Lock.pay_to_script(assemble(f"PUSH({ALICE.pubkey.hex()}) CHECKSIG"))
    op, utxos = funded(40, lock=lock)
    tx = Transaction(UtxoSpend((op,), (p2pk(BOB, 40),)))
    sig = crypto.sign(ALICE.seed, crypto.utxo_signing_message(txid(tx), 0))
    good = tx.with_witnesses(((sig,),))
    status, _ = utxo.validate_spend(good, txid(good), utxos, 1, CFG)
    assert status == utxo.OK
    bad = tx.with_witnesses(((b"\x00" * 64,),))
    status, _ = utxo.validate_spend(bad, txid(bad), utxos, 1, CFG)
    assert status == utxo.SCRIPT_FAILURE_BASE + 4  # verify failed
    empty = tx.with_witnesses(((),))
    status, _ = utxo.validate_spend(empty, txid(empty), utxos, 1, CFG)
    assert status == utxo.SCRIPT_FAILURE_BASE + 1  # underflow: CHECKSIG needs a sig


def test_script_locks_refused_when_disallowed():
    lock = Lock.pay_to_script(assemble("TRUE"))
    op, utxos = funded(10, lock=lock)
    spend = Transaction(UtxoSpend((op,), (p2pk(BOB, 10),))).with_witnesses(((),))
    status, _ = utxo.validate_spend(spend, txid(spend), utxos, 1, CFG)
    assert status == utxo.OK
    move = Transaction(MoveToAccount((op,), address_of_pubkey(BOB.pubkey), 10)).with_witnesses(((),))
    status, _ = utxo.validate_spend(move, txid(move), utxos, 1, CFG)
    assert status == utxo.LOCK_FAILED


def test_covenant_context_sees_output_lock_hashes():
    target = Lock.pay_to_pubkey(BOB.pubkey)
    h = sha256(target.serialize())
    lock = Lock.pay_to_script(assemble(f"PUSH({h.hex()}) PUSH(01) COVENANT TRUE"))
    op, utxos = funded(30, lock=lock)
    good = Transaction(UtxoSpend((op,), (Output(30, target),))).with_witnesses(((),))
    status, _ = utxo.validate_spend(good, txid(good), utxos, 1, CFG)
    assert status == utxo.OK
    bad = Transaction(UtxoSpend((op,), (p2pk(ALICE, 30),))).with_witnesses(((),))
    status, _ = utxo.validate_spend(bad, txid(bad), utxos, 1, CFG)
    assert status == utxo.SCRIPT_FAILURE_BASE + 4


def test_fee_rules():
    op, utxos = funded(100)
    over = signed_spend(ALICE, [op], [p2pk(BOB, 101)])
    status, _ = utxo.validate_spend(over, txid(over), utxos, 1, CFG)
    assert status == utxo.INSUFFICIENT_FEE
    cheap = signed_spend(ALICE, [op], [p2pk(BOB, 98)])
    strict = make_config(min_fee=5)
    status, _ = utxo.validate_spend(cheap, txid(cheap), utxos, 1, strict)
    assert status == utxo.INSUFFICIENT_FEE
    paid = signed_spend(ALICE, [op], [p2pk(BOB, 95)])
    status, fee = utxo.validate_spend(paid, txid(paid), utxos, 1, strict)
    assert status == utxo.OK and fee == 5


def test_allow_list_restricts_output_addresses():
    from tierledger.rules import ALLOW_LIST_VIOLATION

    op, utxos = funded(20)
    cfg = make_config(allow_list=frozenset({address_of_pubkey(ALICE.pubkey)}))
    to_self = signed_spend(ALICE, [op], [p2pk(ALICE, 20)])
    status, _ = utxo.validate_spend(to_self, txid(to_self), utxos, 1, cfg)
    assert status == utxo.OK
    to_bob = signed_spend(ALICE, [op], [p2pk(BOB, 20)])
    status, _ = utxo.validate_spend(to_bob, txid(to_bob), utxos, 1, cfg)
    assert status == ALLOW_LIST_VIOLATION


def make_pending(op: Outpoint, amount: int, fee: int, nb: int = 9):
    tx = signed_spend(ALICE, [op], [p2pk(BOB, amount - fee)], not_before=nb)
    return tx, txid(tx), fee


def test_pool_accept_replace_reject():
    op = Outpoint(sha256(b"pool"), 0)
    pool = utxo.PendingPool()
    t1, id1, f1 = make_pending(op, 50, 2)
    assert pool.submit(t1, id1, f1) == (utxo.PENDING_ACCEPTED, [])
    equal, ide, _ = make_pending(op, 50, 2, nb=8)
    assert pool.submit(equal, ide, 2) == (utxo.REJECTED_LOWER_FEE, [])  # strictly greater required
    t2, id2, f2 = make_pending(op, 50, 5)
    code, evicted = pool.submit(t2, id2, f2)
    assert code == utxo.PENDING_REPLACED and evicted == [id1]
    assert [e.tx_id for e in pool.entries()] == [id2]


def test_pool_replacement_evicts_all_conflicts():
    a, b = Outpoint(sha256(b"pa"), 0), Outpoint(sha256(b"pb"), 0)
    pool = utxo.PendingPool()
    t1, id1, _ = make_pending(a, 50, 1)
    t2, id2, _ = make_pending(b, 50, 2)
    pool.submit(t1, id1, 1)
    pool.submit(t2, id2, 2)
    big = signed_spend(ALICE, [a, b], [p2pk(BOB, 90)], not_before=9)
    code, evicted = pool.submit(big, txid(big), 10)
    assert code == utxo.PENDING_REPLACED
    assert sorted(evicted) == sorted([id1, id2])
    assert len(pool.entries()) == 1


def test_pool_drain_is_fee_desc_then_txid_asc_and_respects_maturity():
    pool = utxo.PendingPool()
    ids = []
    for i, fee in enumerate([3, 7, 3, 1]):
        op = Outpoint(sha256(b"drain" + bytes([i])), 0)
        tx, tid, _ = make_pending(op, 50, fee, nb=5 if i < 3 else 9)
        pool.submit(tx, tid, fee)
        ids.append((tid, fee))
    drained = pool.drain(5)
    assert [e.fee for e in drained] == [7, 3, 3]
    tie = [e.tx_id for e in drained if e.fee == 3]
    assert tie == sorted(tie)
    assert len(pool.entries()) == 1  # immature entry stays
    assert pool.drain(9)[0].fee == 1
    assert pool.entries() == []
