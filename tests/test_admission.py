"""The admission path of apply_batch: every rejection of a transfer kind
leaves the state untouched, transfer checks run after the contract flush
while level, auth and contract-gate rejections see the state before it,
validity windows bind contract transactions too, issuance stops at the
u64 ceiling, a gas prepay past 2^64-1 is a rejection, not a crash, and a
buffered contract call whose signature fails leaves every other receipt
as if it had never been submitted."""

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


# ---------------------------------------------------------------------------
# Buffered contract calls whose account-auth signature fails. Each batch's
# receipts and header hash are pinned: a refused call must leave the other
# calls' commit order, and with it every receipt's state digest, as if it had
# never been buffered.

CALLERS = KEYS[3:9]


def forged(tx: Transaction, kp) -> Transaction:
    """tx whose auth key still names its actor, signed over the wrong message."""
    return tx.with_auth(kp.pubkey, crypto.sign(kp.seed, b"not the txid"))


def refusal_world(mode: str):
    """A ledger in mode with counters X, Y and Z deployed and six funded callers."""
    cfg = make_config(initial_subsidy=0, access_mode=mode)
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 10_000)
    deps = [make_deploy(ALICE, counter_code(), nonce=n, gas_limit=31, gas_price=1) for n in range(3)]
    receipts, _ = ledger.apply_batch(state, deps, 1, cfg, workers=1)
    assert [r.status for r in receipts] == [codes.OK] * 3
    for kp in CALLERS:
        seed_balance(state, address_of_pubkey(kp.pubkey), 10_000)
    return state, cfg, [txid(d) for d in deps]


def call_of(caller: int, contract: bytes, gas_limit: int = 25, gas_price: int = 1, nonce: int = 0) -> Transaction:
    access = AccessDecl(storage_read=frozenset({(contract, 0)}), storage_written=frozenset({(contract, 0)}))
    return make_call(CALLERS[caller], contract, nonce, gas_limit=gas_limit, gas_price=gas_price, access=access)


def refusal_batch(case: str, x: bytes, y: bytes, z: bytes) -> tuple[list[Transaction], dict]:
    """The batch of case, and the apply_batch keywords it runs with."""
    bad = lambda caller, contract, **kw: forged(call_of(caller, contract, **kw), CALLERS[caller])
    if case == "declared-abc":
        # A (refused) and B write (X, 0), C writes (Y, 0): without A, B and
        # C share the first wave, so B commits before C.
        return [bad(0, x), call_of(1, x), call_of(2, y)], {}
    if case in ("declared-commit-first", "dynamic-commit-first"):
        # A call to Z commits before the refused A is reached.
        return [call_of(3, z), bad(0, x), call_of(1, x), call_of(2, y)], {}
    if case == "declared-deploy-barrier":
        deploy = make_deploy(CALLERS[1], counter_code(), gas_limit=31, gas_price=1)
        return [call_of(0, x), forged(deploy, CALLERS[1]), call_of(2, x), call_of(3, y)], {}
    if case == "declared-deploy-first":
        # A deploy commits, then the refused call behind it undoes it.
        deploy = make_deploy(CALLERS[4], counter_code(), gas_limit=31, gas_price=1)
        return [call_of(0, x), deploy, bad(1, y), call_of(2, x)], {}
    if case == "declared-parallel-wave":
        # Waves {X, Y, Z} and {refused X, Y}, each past the lowered fork
        # threshold, so both run on the pool.
        calls = [call_of(0, x, 500, 2), call_of(1, y, 500, 2), bad(2, x, gas_limit=500, gas_price=2),
                 call_of(3, y, 500, 2), call_of(4, z, 500, 2)]
        return calls, {"workers": 2, "parallel_min_gas": 1_000}
    assert case == "declared-gate-and-signature"
    # The first fails its window and its signature, the second its window only.
    late = windowed(call_of(0, x), CALLERS[0], not_after=1)
    return [call_of(1, y), forged(late, CALLERS[0]), windowed(call_of(2, y), CALLERS[2], not_after=1)], {}


# (status, gas, digest prefix) per receipt, and the header hash, pinned
# from the code that checked every call's signature at admission.
REFUSAL_PINS = {
    "declared-abc": (
        [(4, 0, "514cc03bb4559b4e"), (0, 20, "a8a1405dcfec926e"), (0, 20, "4001174c5a3bac9f")],
        "03a55cd110bb4d0dfe7e87c570175abef8b0e3257851d18531506cfef0d80ff8",
    ),
    "declared-commit-first": (
        [(0, 20, "13bf13127fec4b14"), (4, 0, "514cc03bb4559b4e"), (0, 20, "2799162aff5e594e"),
         (0, 20, "e54859f2c115790f")],
        "119faec319a285009bcc2e17ac1c60fbb8b95d020c2503e7ffafba48f6940467",
    ),
    "dynamic-commit-first": (
        [(0, 20, "13bf13127fec4b14"), (4, 0, "514cc03bb4559b4e"), (0, 20, "2799162aff5e594e"),
         (0, 20, "e54859f2c115790f")],
        "1a63ca3d15bfc7cf297f9761580a9b3e1e22ba2362af2fcc7aea00c7748996f5",
    ),
    "declared-deploy-barrier": (
        [(0, 20, "b7d36093f17d8801"), (4, 0, "514cc03bb4559b4e"), (0, 20, "e7f454b06e73dc41"),
         (0, 20, "b0c4bcec75d0d273")],
        "1720d3c1e209f0c3c53ed93c9734bd59a83db9d6a13fb7f38c892d69c9e30326",
    ),
    "declared-deploy-first": (
        [(0, 20, "b7d36093f17d8801"), (0, 31, "dea68fdd3ebeb827"), (4, 0, "514cc03bb4559b4e"),
         (0, 20, "1fc1367de3269827")],
        "d47bbe3f01df3de707e813dc5d4345e71cae223b967c216d6dc0a00ab2efe163",
    ),
    "declared-parallel-wave": (
        [(0, 20, "a8fd94e5fc6190aa"), (0, 20, "60df2cc5b84b3d30"), (4, 0, "514cc03bb4559b4e"),
         (0, 20, "f958b858b10fdf90"), (0, 20, "fc560f69aa1bdca8")],
        "6194af726b59b3b515ae8a1acc5b40cc938723ea4c46ab1c7902f316939786c8",
    ),
    "declared-gate-and-signature": (
        [(0, 20, "5b005215f460e0fa"), (4, 0, "514cc03bb4559b4e"), (103, 0, "514cc03bb4559b4e")],
        "1d598b5eb681174e64979584d25c411c9d1cdd88d7bc4a12baaf6babc6289952",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSAL_PINS))
def test_a_refused_contract_signature_leaves_the_others_as_if_unsubmitted(case):
    mode = rules.ACCESS_DYNAMIC if case.startswith("dynamic") else rules.ACCESS_DECLARED
    state, cfg, (x, y, z) = refusal_world(mode)
    control, before = state.copy(), state.copy()
    txs, kw = refusal_batch(case, x, y, z)
    telemetry: list = []
    receipts, header = ledger.apply_batch(state, txs, 2, cfg, collect_telemetry=telemetry, **kw)
    assert [t.parallel_waves for t in telemetry] == [1 if "parallel" in case else 0]
    got = ([(r.status, r.gas_used, r.post_state_digest.hex()[:16]) for r in receipts], header.hash().hex())
    assert got == REFUSAL_PINS[case]
    # The admitted calls alone commit the same receipts and the same state.
    kept = [i for i, r in enumerate(receipts) if r.status != codes.BAD_AUTH]
    alone, _ = ledger.apply_batch(control, [txs[i] for i in kept], 2, cfg, **kw)
    assert [receipts[i] for i in kept] == alone
    assert ledger.state_digest(state) == ledger.state_digest(control)
    assert state.accounts.nonces == control.accounts.nonces
    # A refused call's receipt carries the state its admission saw.
    ledger.apply_batch(before, [], 2, cfg, workers=1)
    for r in receipts:
        if r.status == codes.BAD_AUTH:
            assert r.post_state_digest == ledger.state_digest(before)
    # Every later write finds the bookkeeping of the entries it replaces.
    more = [call_of(5, c, nonce=n) for n, c in enumerate((x, y, z))]
    assert [r.status for r in ledger.apply_batch(state, more, 3, cfg, workers=1)[0]] == [codes.OK] * 3
    check_conservation(state)
