"""The admission path of apply_batch: every rejection of a transfer kind
leaves the state untouched, transfer checks run after the contract flush
while level, auth and contract-gate rejections are emitted before it,
validity windows bind contract transactions too, issuance stops at the
u64 ceiling, and a gas prepay past 2^64-1 is a rejection, not a crash."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from helpers import (
    KEYS,
    account_signed,
    check_conservation,
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
from tierledger import codes, crypto, ledger, rules, utxo, vm
from tierledger.model import (
    U64_MAX,
    AccessDecl,
    Lock,
    MoveToAccount,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    txid,
)
from tierledger.script import assemble

ALICE, BOB = KEYS[1], KEYS[2]
A_ADDR = address_of_pubkey(ALICE.pubkey)


def windowed(tx: Transaction, kp, not_before=None, not_after=None) -> Transaction:
    """tx with a validity window, signed again by kp: one witness per input
    for a UTXO-input kind, account auth otherwise."""
    tx = replace(tx, not_before=not_before, not_after=not_after, witnesses=(), auth=None)
    if not isinstance(tx.kind, (UtxoSpend, MoveToAccount)):
        return account_signed(tx, kp)
    tx_id = txid(tx)
    return tx.with_witnesses(
        (crypto.sign(kp.seed, crypto.utxo_signing_message(tx_id, i)),)
        for i in range(len(tx.kind.inputs))
    )


# Each case: (config overrides, setup(state) -> (prefix txs, rejected tx),
# expected status). The batch runs at epoch 2.
TRANSFER_REJECTIONS = {
    "utxo_spend/window": (
        {},
        lambda s: (
            [],
            signed_spend(ALICE, [seed_utxo(s, p2pk(ALICE, 50))], [p2pk(BOB, 50)], not_after=1),
        ),
        utxo.OUTSIDE_VALIDITY_WINDOW,
    ),
    "move_to_account/window_passed": (
        {},
        lambda s: (
            [],
            windowed(make_move_to_account(ALICE, [seed_utxo(s, p2pk(ALICE, 50))], 50), ALICE, not_after=1),
        ),
        utxo.OUTSIDE_VALIDITY_WINDOW,
    ),
    "move_to_account/window_not_yet": (
        {},
        lambda s: (
            [],
            windowed(make_move_to_account(ALICE, [seed_utxo(s, p2pk(ALICE, 50))], 50), ALICE, not_before=3),
        ),
        utxo.OUTSIDE_VALIDITY_WINDOW,
    ),
    "move_to_account/script_lock_input": (
        {},
        lambda s: (
            [],
            make_move_to_account(ALICE, [seed_utxo(s, Output(50, Lock.pay_to_script(assemble("TRUE"))))], 50),
        ),
        utxo.LOCK_FAILED,
    ),
    "move_to_account/amount_exceeds_inputs": (
        {},
        lambda s: ([], make_move_to_account(ALICE, [seed_utxo(s, p2pk(ALICE, 50))], 51)),
        rules.INSUFFICIENT_FEE,
    ),
    "move_to_account/fee_below_min_fee": (
        {"min_fee": 5},
        lambda s: ([], make_move_to_account(ALICE, [seed_utxo(s, p2pk(ALICE, 52))], 50)),
        rules.INSUFFICIENT_FEE,
    ),
    "move_to_account/input_spent_earlier_in_batch": (
        {},
        lambda s: (
            [signed_spend(ALICE, [op := seed_utxo(s, p2pk(ALICE, 50))], [p2pk(BOB, 50)])],
            make_move_to_account(ALICE, [op], 50),
        ),
        utxo.DOUBLE_SPEND_IN_BATCH,
    ),
    "move_to_utxo/window": (
        {},
        lambda s: ([], windowed(make_move_to_utxo(ALICE, 10, [p2pk(ALICE, 10)]), ALICE, not_before=3)),
        utxo.OUTSIDE_VALIDITY_WINDOW,
    ),
    "move_to_utxo/bad_nonce": (
        {},
        lambda s: ([], make_move_to_utxo(ALICE, 10, [p2pk(ALICE, 10)], nonce=1)),
        vm.STATUS_BAD_NONCE,
    ),
    "move_to_utxo/insufficient_balance": (
        {},
        lambda s: ([], make_move_to_utxo(ALICE, 101, [p2pk(ALICE, 101)])),
        vm.STATUS_INSUFFICIENT_BALANCE,
    ),
    "move_to_utxo/fee_below_min_fee": (
        {"min_fee": 5},
        lambda s: ([], make_move_to_utxo(ALICE, 10, [p2pk(ALICE, 8)])),
        rules.INSUFFICIENT_FEE,
    ),
    "move_to_utxo/allow_list": (
        {"allow_list": frozenset({A_ADDR})},
        lambda s: ([], make_move_to_utxo(ALICE, 10, [p2pk(BOB, 10)])),
        rules.ALLOW_LIST_VIOLATION,
    ),
}


@pytest.mark.parametrize("case", sorted(TRANSFER_REJECTIONS))
def test_transfer_rejection_leaves_state_untouched(case):
    overrides, setup, expected = TRANSFER_REJECTIONS[case]
    cfg = make_config(initial_subsidy=0, **overrides)
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 100)
    prefix, rejected = setup(state)
    control = state.copy()
    receipts, _ = ledger.apply_batch(state, [*prefix, rejected], 2, cfg, workers=1)
    ledger.apply_batch(control, prefix, 2, cfg, workers=1)
    assert [r.status for r in receipts] == [codes.OK] * len(prefix) + [expected]
    assert ledger.state_digest(state) == ledger.state_digest(control)
    assert receipts[-1].post_state_digest == ledger.state_digest(control)
    assert state.accounts.nonces == control.accounts.nonces
    assert state.pool.entries() == control.pool.entries() == []
    check_conservation(state)


def test_transfer_checks_run_after_the_contract_flush():
    # Dynamic mode. The call is buffered; the auth and gas-price rejections
    # behind it are emitted before the flush and see the state without the
    # call, while the move's window check runs after the flush and sees the
    # call committed.
    cfg = make_config(initial_subsidy=0, min_gas_price=1)
    assert cfg.access_mode == rules.ACCESS_DYNAMIC
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 1000)
    dep = make_deploy(ALICE, counter_code(), nonce=0, gas_limit=31, gas_price=1)
    receipts, _ = ledger.apply_batch(state, [dep], 1, cfg, workers=1)
    assert receipts[0].status == codes.OK
    coin = seed_utxo(state, p2pk(BOB, 50))
    before = ledger.state_digest(state)

    call = make_call(ALICE, txid(dep), nonce=1, gas_limit=25, gas_price=1)
    unsigned = Transaction(make_call(ALICE, txid(dep), nonce=2, gas_price=1).kind, nonce=2)
    cheap = make_call(ALICE, txid(dep), nonce=2, gas_price=0)
    late = windowed(make_move_to_account(BOB, [coin], 50), BOB, not_after=0)
    receipts, _ = ledger.apply_batch(state, [call, unsigned, cheap, late], 1, cfg, workers=1)
    assert [r.status for r in receipts] == [
        codes.OK,
        codes.BAD_AUTH,
        rules.GAS_PRICE_TOO_LOW,
        utxo.OUTSIDE_VALIDITY_WINDOW,
    ]
    after_call = receipts[0].post_state_digest
    assert after_call != before
    assert receipts[1].post_state_digest == receipts[2].post_state_digest == before
    assert receipts[3].post_state_digest == after_call
    check_conservation(state)


def test_contract_transactions_obey_their_validity_window():
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 1000)
    dep = make_deploy(ALICE, counter_code(), nonce=0, gas_limit=31, gas_price=1)
    ledger.apply_batch(state, [dep], 1, cfg, workers=1)
    control = state.copy()

    expired = windowed(
        make_deploy(ALICE, counter_code(), nonce=1, gas_limit=31, gas_price=1), ALICE, not_after=0
    )
    early = windowed(make_call(ALICE, txid(dep), nonce=1, gas_limit=25, gas_price=1), ALICE, not_before=100)
    for tx, epoch in ((expired, 5), (early, 6)):
        receipts, _ = ledger.apply_batch(state, [tx], epoch, cfg, workers=1)
        ledger.apply_batch(control, [], epoch, cfg, workers=1)
        assert (receipts[0].status, receipts[0].gas_used) == (utxo.OUTSIDE_VALIDITY_WINDOW, 0)
        # Nonce not advanced, no fee charged, nothing pooled.
        assert receipts[0].post_state_digest == ledger.state_digest(control)
        assert state.accounts.nonces == control.accounts.nonces == {A_ADDR: 1}
        assert state.pool.entries() == []

    inside = windowed(
        make_call(ALICE, txid(dep), nonce=1, gas_limit=25, gas_price=1), ALICE, not_before=7, not_after=7
    )
    receipts, _ = ledger.apply_batch(state, [inside], 7, cfg, workers=1)
    assert (receipts[0].status, receipts[0].gas_used) == (codes.OK, 20)
    check_conservation(state)


def test_issuance_stops_at_the_u64_ceiling(tmp_path):
    cfg = make_config(initial_subsidy=U64_MAX)
    ledger.init_log(tmp_path, cfg)
    state = ledger.LedgerState()
    for epoch in (1, 2, 3):
        receipts, header = ledger.apply_batch(state, [], epoch, cfg, workers=1)
        ledger.write_batch_files(tmp_path, header.batch_number, epoch, [], header, receipts)
        check_conservation(state)
    assert state.issued == U64_MAX
    assert ledger.replay_verify(tmp_path).ok

    # A wrong batch-1 header is reported as a divergence, not raised.
    path = tmp_path / "header_000001.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["header"]["post_state_digest"] = "00" * 32
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")), encoding="utf-8")
    report = ledger.replay_verify(tmp_path)
    assert (report.ok, report.kind, report.batch, report.field) == (
        False, "divergence", 1, "post_state_digest",
    )


@pytest.mark.parametrize("mode", [rules.ACCESS_DYNAMIC, rules.ACCESS_DECLARED])
@pytest.mark.parametrize("kind", ["call", "deploy"])
def test_overflowing_gas_prepay_is_rejected_not_raised(tmp_path, kind, mode):
    """gas_limit * gas_price passes 2^64-1: the transaction gets
    InsufficientBalance and is charged nothing, and the batch that holds
    it commits, is written and replays."""
    cfg = make_config(initial_subsidy=1000, access_mode=mode)
    ledger.init_log(tmp_path, cfg)
    state = ledger.LedgerState()

    def commit(txs, epoch):
        receipts, header = ledger.apply_batch(state, txs, epoch, cfg, workers=1)
        ledger.write_batch_files(tmp_path, header.batch_number, epoch, txs, header, receipts)
        return receipts

    commit([], 1)
    code = counter_code()
    dep = make_deploy(ALICE, code, nonce=0, gas_limit=len(code), gas_price=1)
    c = txid(dep)
    access = AccessDecl(storage_read=frozenset({(c, 0)}), storage_written=frozenset({(c, 0)}))
    fund = make_move_to_account(KEYS[0], [ledger._coinbase_outpoint(0)], 1000, to=A_ADDR)
    assert [r.status for r in commit([fund, dep], 2)] == [codes.OK, codes.OK]
    balance = state.accounts.balance(A_ADDR)

    if kind == "call":
        huge = make_call(ALICE, c, nonce=1, gas_limit=2**63, gas_price=4, access=access)
    else:
        huge = make_deploy(ALICE, code, nonce=1, gas_limit=2**63, gas_price=4)
    # The next call takes nonce 1, so it commits only if the rejection
    # left the nonce alone.
    call = make_call(ALICE, c, nonce=1, gas_limit=25, gas_price=1, access=access)
    receipts = commit([huge, call], 3)
    assert [(r.status, r.gas_used) for r in receipts] == [
        (vm.STATUS_INSUFFICIENT_BALANCE, 0), (codes.OK, 20),
    ]
    assert state.accounts.balance(A_ADDR) == balance - 20
    assert state.accounts.storage_get(c, 0) == 1
    check_conservation(state)
    assert ledger.replay_verify(tmp_path).ok
