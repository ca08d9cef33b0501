"""Contract VM: assembler, code validation, gas, atomicity, nonces, access
checking, cross-contract calls, and differential runs against the tagged
interpreter kept in oracles.py."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BURN_ASM, COUNTER_ASM, COUNTER_GAS, KEYS, counter_code, make_call, make_deploy
from oracles import lthash16_oracle, tagged_invoke
from tierledger import lthash, vm
from tierledger.model import (
    U64_MAX, AccessDecl, Call, Deploy, ModelError, Transaction, address_of_pubkey, sha256, txid,
)

ALICE, BOB = KEYS[1], KEYS[2]
A_ADDR = address_of_pubkey(ALICE.pubkey)
B_ADDR = address_of_pubkey(BOB.pubkey)
OPERATOR = address_of_pubkey(KEYS[0].pubkey)


def fresh_accounts(balance: int = 10_000) -> vm.Accounts:
    acc = vm.Accounts()
    acc.set_balance(A_ADDR, balance)
    acc.set_balance(B_ADDR, balance)
    return acc


def deployed(acc: vm.Accounts, asm: str, kp=ALICE, access=None, endowment=0, nonce=None) -> bytes:
    if nonce is None:
        nonce = acc.nonces.get(address_of_pubkey(kp.pubkey), 0)
    tx = make_deploy(kp, vm.assemble(asm), nonce=nonce, endowment=endowment, access=access)
    diff = vm.deploy(acc, tx, txid(tx))
    assert diff.outcome.status == vm.STATUS_COMMITTED, diff.outcome
    diff.apply(acc)
    return txid(tx)


def run_call(acc: vm.Accounts, contract: bytes, kp=ALICE, apply=True, declared=False, **kw) -> vm.StateDiff:
    nonce = kw.pop("nonce", acc.nonces.get(address_of_pubkey(kp.pubkey), 0))
    tx = make_call(kp, contract, nonce=nonce, **kw)
    diff = vm.invoke(acc, tx, txid(tx), epoch=5, declared_mode=declared)
    if apply:
        diff.apply(acc)
    return diff


def test_assemble_disassemble_round_trip():
    code = vm.assemble("PUSHI 7 PUSHI 0 SSTORE loop: PUSHI 1 JUMPI loop HALT")
    assert vm.assemble(vm.disassemble(code)) == code
    # A missing, non-decimal or out-of-range operand is a ModelError too.
    for text in ("WHAT 3", "PUSHI", "PUSHI x", "PUSHI -1", "PUSHI 18446744073709551616",
                 "PUSHI " + "0" * 5000, "PUSHA 256", "JUMP nowhere", "JUMPI 65536"):
        with pytest.raises(ModelError):
            vm.assemble(text)
    assert vm.assemble("PUSHI 18446744073709551615 PUSHA 255 HALT")[1:9] == b"\xff" * 8


def test_validate_code_rejects_malformed():
    assert vm.validate_code(counter_code())
    assert not vm.validate_code(b"")
    assert not vm.validate_code(bytes([0xEE]))  # unknown opcode
    assert not vm.validate_code(bytes([vm.OP_PUSHI, 1, 2]))  # truncated operand
    assert not vm.validate_code(bytes([vm.OP_JUMP, 2, 0, vm.OP_HALT]))  # mid-instruction target
    assert vm.validate_code(bytes([vm.OP_JUMP, 3, 0, vm.OP_HALT]))
    assert not vm.validate_code(b"\x00" * 5000)  # over size cap


def test_gas_cost_table():
    assert vm.gas_cost(vm.OP_SSTORE) == 10
    assert vm.gas_cost(vm.OP_TRANSFER) == 10
    assert vm.gas_cost(vm.OP_CALL) == 20
    assert vm.gas_cost(vm.OP_SLOAD) == 5
    assert vm.gas_cost(vm.OP_BALANCE) == 5
    assert vm.gas_cost(vm.OP_ADD) == 1
    with pytest.raises(ModelError):
        vm.gas_cost(0xEE)


def test_counter_call_and_exact_gas():
    acc = fresh_accounts()
    c = deployed(acc, COUNTER_ASM)
    diff = run_call(acc, c)
    assert diff.outcome.status == vm.STATUS_COMMITTED
    assert diff.outcome.gas_used == COUNTER_GAS
    assert acc.storage_get(c, 0) == 1
    run_call(acc, c)
    assert acc.storage_get(c, 0) == 2
    assert acc.nonces[A_ADDR] == 3  # deploy plus two calls


def test_deploy_gas_is_code_size_and_fee_flows():
    acc = fresh_accounts()
    code = counter_code()
    tx = make_deploy(ALICE, code, gas_limit=len(code), gas_price=3)
    diff = vm.deploy(acc, tx, txid(tx))
    assert diff.outcome.status == vm.STATUS_COMMITTED
    assert diff.outcome.gas_used == len(code)
    diff.apply(acc)
    assert acc.balance(A_ADDR) == 10_000 - 3 * len(code)
    assert (acc.balance(OPERATOR), acc.fees) == (0, 3 * len(code))  # held for the batch end
    assert acc.contracts[txid(tx)].code == code


def test_deploy_failures():
    acc = fresh_accounts()
    bad = make_deploy(ALICE, bytes([0xEE]))
    assert vm.deploy(acc, bad, txid(bad)).outcome.status == vm.STATUS_MALFORMED_CODE
    tight = make_deploy(ALICE, counter_code(), gas_limit=len(counter_code()) - 1, gas_price=1)
    diff = vm.deploy(acc, tight, txid(tight))
    assert diff.outcome.status == vm.STATUS_OUT_OF_GAS
    assert diff.outcome.gas_used == tight.kind.gas_limit
    poor = make_deploy(ALICE, counter_code(), endowment=50_000)
    assert vm.deploy(acc, poor, txid(poor)).outcome.status == vm.STATUS_INSUFFICIENT_BALANCE
    stale = make_deploy(ALICE, counter_code(), nonce=9)
    assert vm.deploy(acc, stale, txid(stale)).outcome.status == vm.STATUS_BAD_NONCE


def test_deploy_settlement_is_the_whole_diff():
    """Fee and endowment together, a payer that is the operator, and an
    out-of-gas deploy, which pays the fee and advances the nonce but
    creates no contract and moves no endowment."""
    code = counter_code()
    size = len(code)
    acc = fresh_accounts()
    tx = make_deploy(ALICE, code, endowment=250, gas_limit=size, gas_price=3)
    c = txid(tx)
    assert vm.deploy(acc, tx, c) == vm.StateDiff(
        vm.ExecOutcome(vm.STATUS_COMMITTED, size),
        balance_new={A_ADDR: 10_000 - 250 - 3 * size, c: 250},
        new_contract=vm.ContractAccount(c, code),
        nonce_new=(A_ADDR, 1),
        fee=3 * size,
    )

    acc.set_balance(OPERATOR, 10_000)
    tx = make_deploy(KEYS[0], code, endowment=100, gas_limit=size, gas_price=2)
    c = txid(tx)
    diff = vm.deploy(acc, tx, c)
    assert diff == vm.StateDiff(
        vm.ExecOutcome(vm.STATUS_COMMITTED, size),
        balance_new={OPERATOR: 10_000 - 100 - 2 * size, c: 100},
        new_contract=vm.ContractAccount(c, code),
        nonce_new=(OPERATOR, 1),
        fee=2 * size,
    )
    diff.apply(acc)
    assert (acc.balance(OPERATOR), acc.fees) == (10_000 - 100 - 2 * size, 2 * size)  # its own, at the batch end

    tx = make_deploy(ALICE, code, endowment=50, gas_limit=size - 1, gas_price=2)
    assert vm.deploy(acc, tx, txid(tx)) == vm.StateDiff(
        vm.ExecOutcome(vm.STATUS_OUT_OF_GAS, size - 1),
        balance_new={A_ADDR: 10_000 - 2 * (size - 1)},
        nonce_new=(A_ADDR, 1),
        fee=2 * (size - 1),
    )


def test_deploy_endowment_moves_value():
    acc = fresh_accounts()
    c = deployed(acc, "HALT", endowment=250)
    assert acc.balance(c) == 250
    assert acc.balance(A_ADDR) == 10_000 - 250


def test_bad_nonce_call_has_no_effect():
    acc = fresh_accounts()
    c = deployed(acc, COUNTER_ASM)
    before = dict(acc.balances)
    diff = run_call(acc, c, nonce=7)
    assert diff.outcome.status == vm.STATUS_BAD_NONCE
    assert acc.balances == before
    assert acc.nonces.get(A_ADDR, 0) == 1  # only the deploy bumped it


def test_no_such_contract():
    acc = fresh_accounts()
    diff = run_call(acc, b"\x99" * 32, nonce=0)
    assert diff.outcome.status == vm.STATUS_NO_SUCH_CONTRACT
    assert acc.nonces.get(A_ADDR, 0) == 0  # rejected before execution


def test_insufficient_balance_covers_prepay_plus_attached():
    acc = fresh_accounts(balance=100)
    c = deployed(acc, "HALT", kp=BOB)
    diff = run_call(acc, c, gas_limit=80, gas_price=1, attached=30, nonce=0)
    assert diff.outcome.status == vm.STATUS_INSUFFICIENT_BALANCE


def test_out_of_gas_rolls_back_but_charges_limit():
    acc = fresh_accounts()
    c = deployed(acc, COUNTER_ASM)
    diff = run_call(acc, c, gas_limit=COUNTER_GAS - 1, gas_price=2)
    assert diff.outcome.status == vm.STATUS_OUT_OF_GAS
    assert diff.outcome.gas_used == COUNTER_GAS - 1
    assert acc.storage_get(c, 0) == 0  # effect rolled back
    assert acc.balance(A_ADDR) == 10_000 - 2 * (COUNTER_GAS - 1)
    assert acc.fees == 2 * (COUNTER_GAS - 1)
    assert acc.nonces[A_ADDR] == 2  # executed: nonce advances


def test_revert_rolls_back_effects_but_pays_gas():
    acc = fresh_accounts()
    c = deployed(acc, "PUSHI 0 PUSHI 9 SSTORE REVERT")
    diff = run_call(acc, c, gas_limit=100, gas_price=1)
    assert diff.outcome.status == vm.STATUS_REVERTED
    assert acc.storage_get(c, 0) == 0
    assert diff.outcome.gas_used == 13  # PUSHI + PUSHI + SSTORE + REVERT
    assert acc.balance(A_ADDR) == 10_000 - 13


def test_arithmetic_faults_revert():
    acc = fresh_accounts()
    div0 = deployed(acc, "PUSHI 1 PUSHI 0 DIV HALT")
    assert run_call(acc, div0).outcome.status == vm.STATUS_REVERTED
    under = deployed(acc, "PUSHI 1 PUSHI 2 SUB HALT", nonce=2)
    assert run_call(acc, under).outcome.status == vm.STATUS_REVERTED
    over = deployed(acc, f"PUSHI {2**64 - 1} PUSHI 2 MUL HALT", nonce=4)
    assert run_call(acc, over).outcome.status == vm.STATUS_REVERTED


def test_type_discipline():
    acc = fresh_accounts()
    mixed = deployed(acc, "PUSHI 1 CALLER ADD HALT")  # Addr where Int expected
    assert run_call(acc, mixed).outcome.status == vm.STATUS_REVERTED
    eq_mixed = deployed(acc, "PUSHI 1 CALLER EQ HALT", nonce=2)
    assert run_call(acc, eq_mixed).outcome.status == vm.STATUS_REVERTED


def test_transfer_and_attached_value():
    acc = fresh_accounts()
    # Forward half the attached value to the address constant.
    c = deployed(acc, "VALUE PUSHI 2 DIV PUSHA 0 TRANSFER HALT")
    diff = run_call(acc, c, attached=40, address_consts=[B_ADDR], gas_limit=100)
    assert diff.outcome.status == vm.STATUS_COMMITTED
    assert acc.balance(c) == 20
    assert acc.balance(B_ADDR) == 10_020
    assert acc.balance(A_ADDR) == 10_000 - 40


def test_transfer_insufficient_reverts_whole_tx():
    acc = fresh_accounts()
    c = deployed(acc, "PUSHI 5 PUSHA 0 TRANSFER HALT")
    diff = run_call(acc, c, address_consts=[B_ADDR], gas_limit=100)
    assert diff.outcome.status == vm.STATUS_REVERTED  # contract has no balance
    assert acc.balance(B_ADDR) == 10_000


def test_events_and_return_value():
    acc = fresh_accounts()
    c = deployed(acc, "PUSHI 3 PUSHI 4 EVENT PUSHI 42 RETURN")
    diff = run_call(acc, c, gas_limit=100)
    assert diff.outcome.ret == 42
    assert diff.outcome.events == ((c, 3, 4),)


def test_epoch_and_self_and_arg_opcodes():
    acc = fresh_accounts()
    c = deployed(acc, "PUSHI 0 EPOCH SSTORE PUSHI 1 ARG SSTORE HALT")
    run_call(acc, c, arg=77, gas_limit=100)
    assert acc.storage_get(c, 0) == 5  # epoch passed to invoke
    assert acc.storage_get(c, 1) == 77


def test_cross_contract_call_success_and_isolation():
    acc = fresh_accounts()
    callee = deployed(acc, COUNTER_ASM)
    # CALL pushes (ret, status) with status on top; store status at key 0.
    caller_asm = "PUSHI 0 PUSHA 0 CALL PUSHI 0 SWAP SSTORE DROP HALT"
    caller = deployed(acc, caller_asm)
    diff = run_call(acc, caller, address_consts=[callee], gas_limit=200)
    assert diff.outcome.status == vm.STATUS_COMMITTED
    assert acc.storage_get(callee, 0) == 1  # callee ran
    assert acc.storage_get(caller, 0) == 1  # status flag
    # A faulting callee rolls back only its own frame.
    bomb = deployed(acc, "REVERT")
    diff = run_call(acc, caller, address_consts=[bomb], gas_limit=200)
    assert diff.outcome.status == vm.STATUS_COMMITTED
    assert acc.storage_get(caller, 0) == 0  # status 0 from failed call


def test_call_depth_limit_returns_failure_status():
    acc = fresh_accounts()
    # Self-recursive contract: calls itself until the depth limit trips.
    asm = "PUSHI 0 PUSHA 0 CALL PUSHI 0 SSTORE DROP HALT"
    tx = make_deploy(ALICE, vm.assemble(asm), nonce=0)
    c = txid(tx)
    diff = vm.deploy(acc, tx, c)
    diff.apply(acc)
    out = run_call(acc, c, address_consts=[c], gas_limit=5_000)
    assert out.outcome.status == vm.STATUS_COMMITTED  # bottoms out, no fault


def test_declared_mode_requires_and_enforces_footprint():
    acc = fresh_accounts()
    c = deployed(acc, COUNTER_ASM)
    missing = run_call(acc, c, declared=True, apply=False, nonce=1)
    assert missing.outcome.status == vm.STATUS_MISSING_ACCESS_DECL
    wrong = AccessDecl(storage_read=frozenset({(c, 0)}))  # read-only: SSTORE undeclared
    diff = run_call(acc, c, declared=True, access=wrong, gas_limit=100, gas_price=1)
    assert diff.outcome.status == vm.STATUS_ACCESS_VIOLATION
    assert acc.storage_get(c, 0) == 0
    assert acc.nonces[A_ADDR] == 2  # executed statuses advance the nonce
    right = AccessDecl(storage_read=frozenset({(c, 0)}), storage_written=frozenset({(c, 0)}))
    diff = run_call(acc, c, declared=True, access=right, gas_limit=100)
    assert diff.outcome.status == vm.STATUS_COMMITTED


def test_call_footprint_expands_callees_transitively():
    acc = fresh_accounts()
    leaf_fp = AccessDecl(storage_written=frozenset({(b"\x00" * 32, 3)}))
    leaf = deployed(acc, "HALT", access=leaf_fp)
    mid_fp = AccessDecl(callees=frozenset({leaf}), balances_read=frozenset({B_ADDR}))
    mid = deployed(acc, "HALT", access=mid_fp, nonce=1)
    call = Call(mid, 0, 0, A_ADDR, 100, 0, AccessDecl(callees=frozenset({mid})))
    fp = vm.call_footprint(call, acc.contracts)
    assert fp.reads == {B_ADDR}
    # The leaf's placeholder slot is its own, replaced at deploy; the
    # caller's and the callee's balances are written by every call.
    assert fp.writes == {(leaf, 3), A_ADDR, mid}
    assert fp.callees == {mid, leaf}


def test_a_fee_is_held_for_the_batch_end():
    """A fee writes no operator balance: apply adds it to the batch's
    pending fee income, and the account total leaves it out."""
    acc = fresh_accounts()
    c = deployed(acc, COUNTER_ASM)
    tx = make_call(ALICE, c, nonce=1, gas_limit=COUNTER_GAS, gas_price=1)
    diff = vm.invoke(acc, tx, txid(tx), 1, False)
    assert diff.fee == COUNTER_GAS
    assert OPERATOR not in diff.balance_new
    total = acc.total
    diff.apply(acc)
    assert (acc.balance(OPERATOR), acc.fees, acc.total) == (0, COUNTER_GAS, total - COUNTER_GAS)


def live_entries(acc: vm.Accounts) -> list[bytes]:
    """The committed entries, rebuilt from the mappings."""
    return (
        [vm.balance_entry(a, b) for a, b in acc.balances.items() if b]
        + [vm.slot_entry(a, k, v) for (a, k), v in acc.storage.items() if v]
        + [vm.contract_entry(c) for c in acc.contracts.values()]
    )


def test_account_digests_follow_the_live_entries():
    """Random balance and slot writes (to 0 and back), deploys, and copies
    that then diverge, with the digest taken only now and then, so that
    writes stay noted across steps and copies: whenever it is taken, each
    Accounts' digest equals the lane-by-lane oracle over its live entries."""
    rng = random.Random(13)
    addrs = [sha256(bytes([i])) for i in range(4)]
    live = [vm.Accounts()]
    for step in range(80):
        acc = rng.choice(live)
        op = rng.random()
        if op < 0.4:
            acc.set_balance(rng.choice(addrs), rng.choice((0, 0, 1, 7, U64_MAX)))
        elif op < 0.8:
            acc.set_slot(rng.choice(addrs), rng.randrange(3), rng.choice((0, 0, 1, 9)))
        elif op < 0.9:
            acc.add_contract(vm.ContractAccount(sha256(b"c%d" % step), bytes([step])))
        elif len(live) < 4:
            live.append(acc.copy())
        for each in live:
            if rng.random() < 0.3:
                assert each.lthash.digest() == lthash16_oracle(live_entries(each)), step
    for each in live:
        assert each.lthash.digest() == lthash16_oracle(live_entries(each))


def test_account_writes_expand_nothing_until_the_digest(monkeypatch):
    """A write only notes the entries it removes and adds. The digest then
    expands each noted entry once, a replaced or deleted one included, as no
    vector is kept per live entry; an entry both added and removed since the
    last digest cancels and is not expanded at all."""
    acc = fresh_accounts()
    acc.set_slot(A_ADDR, 1, 5)
    acc.lthash.digest()
    calls = []
    expand = lthash._expand
    monkeypatch.setattr(lthash, "_expand", lambda e: (calls.append(e), expand(e))[1])
    acc.set_balance(A_ADDR, 3)
    acc.set_slot(A_ADDR, 1, 6)
    acc.set_slot(A_ADDR, 1, 0)
    acc.set_balance(B_ADDR, 0)
    assert calls == []
    assert acc.lthash.digest() == lthash16_oracle(live_entries(acc)) == lthash16_oracle([vm.balance_entry(A_ADDR, 3)])
    expanded = [
        vm.balance_entry(A_ADDR, 3),  # added; slot (1, 6) was added and removed
        vm.balance_entry(A_ADDR, 10_000), vm.slot_entry(A_ADDR, 1, 5), vm.balance_entry(B_ADDR, 10_000),  # removed
    ]
    assert calls == expanded


def test_compile_once_per_code_and_decoded_gas_matches_table():
    """100 calls to one contract compile its code once, and every decoded
    gas charge equals vm.gas_cost."""
    vm.compile_code.cache_clear()
    acc = fresh_accounts()
    c = deployed(acc, COUNTER_ASM)
    for _ in range(100):
        assert run_call(acc, c, gas_limit=COUNTER_GAS).outcome.status == vm.STATUS_COMMITTED
    assert acc.storage_get(c, 0) == 100
    assert vm.compile_code.cache_info().misses == 1
    assert vm.compile_code(counter_code())[0] == vm.decode(counter_code())
    every_op = b"".join(bytes([op]) + bytes(vm._OPERAND_WIDTH.get(op, 0)) for op in vm.MNEMONICS)
    decoded = [entry for entry in vm.decode(every_op) if entry is not None]
    assert [entry[0] for entry in decoded] == list(vm.MNEMONICS)
    for op, _, _, gas in decoded:
        assert gas == vm.gas_cost(op), vm.MNEMONICS[op]


def test_deploy_and_calls_decode_the_code_once(monkeypatch):
    """Deploy compiles the code, so its three calls find it in the cache."""
    vm.compile_code.cache_clear()
    code, decoded = counter_code(), []
    real = vm.decode
    monkeypatch.setattr(vm, "decode", lambda c: decoded.append(c) or real(c))
    acc = fresh_accounts()
    tx = make_deploy(ALICE, code)
    vm.deploy(acc, tx, txid(tx)).apply(acc)
    for _ in range(3):
        assert run_call(acc, txid(tx), gas_limit=COUNTER_GAS).outcome.committed
    assert decoded == [code]


def test_malformed_deploy_is_free_and_never_cached():
    """A malformed deploy is charged nothing, advances no nonce, and leaves
    the compile cache as it was: compile_code raises rather than cache."""
    acc = fresh_accounts()
    size = vm.compile_code.cache_info().currsize
    for code in (bytes([0xEE]), bytes([vm.OP_PUSHI, 1, 2]), bytes([vm.OP_JUMP, 2, 0, vm.OP_HALT]), b""):
        tx = make_deploy(ALICE, code, gas_price=1)
        diff = vm.deploy(acc, tx, txid(tx))
        assert diff == vm.StateDiff(vm.ExecOutcome(vm.STATUS_MALFORMED_CODE, detail="code failed validation"))
        diff.apply(acc)
        with pytest.raises(ModelError):
            vm.compile_code(code)
    assert (acc.nonces.get(A_ADDR, 0), acc.balance(A_ADDR), acc.fees) == (0, 10_000, 0)
    assert vm.compile_code.cache_info().currsize == size


def test_reverted_call_pops_only_its_own_writes():
    """The second call rewrites a slot the first call wrote, moves value,
    then reverts: the slot keeps the first call's value, and the keys only
    the reverted call wrote leave the diff altogether."""
    acc = fresh_accounts()
    callee = deployed(acc, "PUSHI 0 ARG PUSHI 1 ADD SSTORE ARG JUMPI bad HALT bad: PUSHI 3 PUSHA 1 TRANSFER REVERT",
                      endowment=10)
    caller = deployed(acc, "PUSHI 0 PUSHA 0 CALL DROP DROP PUSHI 1 PUSHA 0 CALL DROP DROP HALT")
    diff = run_call(acc, caller, apply=False, address_consts=[callee, B_ADDR], gas_limit=500)
    assert diff.outcome.committed
    assert (diff.storage_new, diff.balance_new) == ({(callee, 0): 1}, {})


def test_nested_call_work_is_in_proportion_to_gas():
    """A loop that stores a slot and then calls out: ns per gas at 16,000
    iterations stays within 2x of that at 1,000. A CALL that copied the
    transaction's writes made it grow several-fold with the loop."""
    acc = fresh_accounts()
    callee = deployed(acc, "HALT")
    caller = deployed(acc, "ARG loop: DUP NOT JUMPI end DUP DUP SSTORE PUSHI 0 PUSHA 0 CALL DROP DROP "
                           "PUSHI 1 SUB JUMP loop end: HALT")
    nonce = acc.nonces[A_ADDR]

    def ns_per_gas(iterations: int) -> float:
        tx = make_call(ALICE, caller, nonce=nonce, arg=iterations, gas_limit=2**24, address_consts=[callee])
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            diff = vm.invoke(acc, tx, txid(tx), 5, False)
            best = min(best, time.perf_counter() - t0)
        assert diff.outcome.committed and len(diff.storage_new) == iterations
        return best * 1e9 / diff.outcome.gas_used

    small, large = ns_per_gas(1_000), ns_per_gas(16_000)
    assert large < 2 * small, (small, large)


# ---------------------------------------------------------------------------
# Differential: vm.invoke against oracles.tagged_invoke

MISSING = b"\x77" * 32
_IMMEDIATES = [0, 1, 2, 3, 5, 7, 100, 2**32, 2**63, U64_MAX - 1, U64_MAX]
I, A = "I", "A"
# Stack effect of each opcode: the word kinds it pops (top first) and the
# kinds it pushes. EQ pops two words of any one kind.
_EFFECTS = {
    vm.OP_HALT: ((), ()), vm.OP_PUSHI: ((), (I,)), vm.OP_PUSHA: ((), (A,)),
    vm.OP_DUP: ((None,), ()), vm.OP_DROP: ((None,), ()), vm.OP_SWAP: ((None, None), ()),
    vm.OP_ADD: ((I, I), (I,)), vm.OP_SUB: ((I, I), (I,)), vm.OP_MUL: ((I, I), (I,)),
    vm.OP_DIV: ((I, I), (I,)), vm.OP_MOD: ((I, I), (I,)), vm.OP_LT: ((I, I), (I,)),
    vm.OP_GT: ((I, I), (I,)), vm.OP_EQ: ((None, None), (I,)), vm.OP_NOT: ((I,), (I,)),
    vm.OP_JUMP: ((), ()), vm.OP_JUMPI: ((I,), ()), vm.OP_ARG: ((), (I,)),
    vm.OP_CALLER: ((), (A,)), vm.OP_SELF: ((), (A,)), vm.OP_VALUE: ((), (I,)),
    vm.OP_EPOCH: ((), (I,)), vm.OP_BALANCE: ((A,), (I,)), vm.OP_SLOAD: ((I,), (I,)),
    vm.OP_SSTORE: ((I, I), ()), vm.OP_TRANSFER: ((A, I), ()), vm.OP_EVENT: ((I, I), ()),
    vm.OP_CALL: ((A, I), (I, I)), vm.OP_RETURN: ((I,), ()), vm.OP_REVERT: ((), ()),
}
assert set(_EFFECTS) == set(vm.MNEMONICS)


def random_program(rng, max_len: int) -> bytes:
    """Valid code of up to max_len instructions. Most steps pick an opcode
    whose operands the straight-line stack holds, so programs get past
    their first instructions; the rest pick any opcode, which exercises
    underflow and type errors. Jumps go to any instruction start."""
    ops, stack = [], []
    for _ in range(rng.randint(1, max_len)):
        fits = [op for op, (pops, _) in _EFFECTS.items()
                if len(pops) <= len(stack) and all(k in (None, stack[-1 - i]) for i, k in enumerate(pops))]
        pool = fits if rng.random() < 0.85 else list(_EFFECTS)
        weights = [4 if op in (vm.OP_PUSHI, vm.OP_PUSHA) else 1 for op in pool]
        op = rng.choices(pool, weights)[0]
        ops.append(op)
        pops, pushes = _EFFECTS[op]
        if op == vm.OP_DUP and stack:
            pushes = (stack[-1],)
        elif op == vm.OP_SWAP and len(stack) >= 2:
            pushes = (stack[-1], stack[-2])
        del stack[max(0, len(stack) - len(pops)):]
        stack.extend(reversed(pushes) if op == vm.OP_SWAP else pushes)
    starts, pc = [], 0
    for op in ops:
        starts.append(pc)
        pc += 1 + vm._OPERAND_WIDTH.get(op, 0)
    out = bytearray()
    for op in ops:
        out.append(op)
        if op == vm.OP_PUSHI:
            out += rng.choice(_IMMEDIATES).to_bytes(8, "little")
        elif op == vm.OP_PUSHA:
            out.append(rng.randint(0, 6))  # 6 is past the 6-entry table
        elif op in (vm.OP_JUMP, vm.OP_JUMPI):
            out += rng.choice(starts).to_bytes(2, "little")
    code = bytes(out)
    assert vm.validate_code(code)
    return code


def programs(max_len: int = 24):
    return st.builds(random_program, st.randoms(use_true_random=False), st.just(max_len))


# Callee that writes storage, emits an event and moves value, then reverts.
REVERTER_ASM = "PUSHI 1 PUSHI 5 SSTORE PUSHI 2 PUSHI 3 EVENT PUSHI 1 PUSHA 1 TRANSFER REVERT"
# Recurses through CALL on address constant 2 (itself when deployed as the
# top contract) and stores each frame's call status.
RECURSE_ASM = "PUSHI 0 PUSHA 2 CALL PUSHI 1 SWAP SSTORE PUSHI 2 SWAP SSTORE HALT"


def vm_world(top: bytes, callee: bytes):
    """Accounts with ALICE and BOB funded and three endowed contracts: the
    program under test, a second program it may call, and REVERTER. Address
    constants are (ALICE, BOB, top, callee, reverter, missing)."""
    acc = fresh_accounts(balance=1_000_000)
    addrs = []
    for nonce, code in enumerate((top, callee, vm.assemble(REVERTER_ASM))):
        tx = Transaction(Deploy(code, 500, A_ADDR, 10_000, 0), nonce=nonce)
        diff = vm.deploy(acc, tx, txid(tx))
        assert diff.outcome.status == vm.STATUS_COMMITTED, diff.outcome
        diff.apply(acc)
        addrs.append(txid(tx))
    return acc, (A_ADDR, B_ADDR, *addrs, MISSING)


def declaration_pools(consts):
    """(addresses, storage slots, callees) a call in vm_world may touch."""
    return list(consts[:5]), [(c, k) for c in consts[2:5] for k in range(4)], list(consts[2:])


def full_declaration(consts) -> AccessDecl:
    addrs, slots, callees = (frozenset(p) for p in declaration_pools(consts))
    return AccessDecl(addrs, addrs, slots, slots, callees)


def declarations(consts):
    addrs, slots, callees = declaration_pools(consts)
    subset = lambda pool: st.frozensets(st.sampled_from(pool), max_size=len(pool))
    return st.one_of(
        st.none(),
        st.just(full_declaration(consts)),
        st.builds(AccessDecl, subset(addrs), subset(addrs), subset(slots), subset(slots), subset(callees)),
    )


def assert_same_execution(acc, consts, gas_limit, declared, access, arg=0, attached=0, gas_price=1):
    tx = Transaction(Call(consts[2], arg, attached, A_ADDR, gas_limit, gas_price, access, consts),
                     nonce=acc.nonces[A_ADDR])
    tx_id = txid(tx)
    new = vm.invoke(acc, tx, tx_id, 9, declared)
    old = tagged_invoke(acc, tx, tx_id, 9, declared)
    assert new.outcome == old.outcome
    assert new == old
    return new


def test_access_oracle_shares_nothing_with_the_package():
    """oracles.py restates declared access with its own expansion and
    checks, so the tagged_invoke and pairwise_waves differentials do not
    compare the package's footprints, conflict sets or waves with
    themselves."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"call_footprint", "Footprint", "_footprint_sets", "_conflict_waves"}


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    programs(),
    programs(max_len=12),
    st.integers(0, 3_000),
    st.booleans(),
    st.sampled_from([0, 1, 7, 2**32, U64_MAX]),
    st.integers(0, 50),
)
def test_random_programs_match_tagged_interpreter(data, top, callee, gas_limit, declared, arg, attached):
    acc, consts = vm_world(top, callee)
    access = data.draw(declarations(consts)) if declared else None
    assert_same_execution(acc, consts, gas_limit, declared, access, arg, attached)


@settings(max_examples=25, deadline=None)
@given(programs(), programs(max_len=12), st.booleans())
def test_random_programs_match_at_every_gas_limit(top, callee, declared):
    acc, consts = vm_world(top, callee)
    access = full_declaration(consts) if declared else None
    full = assert_same_execution(acc, consts, 600, declared, access).outcome.gas_used
    for gas_limit in range(full + 1):
        assert_same_execution(acc, consts, gas_limit, declared, access)


@contextlib.contextmanager
def per_op_only():
    """Codes compiled inside get no arms, so every op they run goes through
    the per-op loop. The compile cache is cleared on entry, so no code
    compiled with arms runs inside, and on exit, so none compiled without
    them is left behind."""
    saved = vm._MAX_LINES
    vm._MAX_LINES = 0
    vm.compile_code.cache_clear()
    try:
        yield
    finally:
        vm._MAX_LINES = saved
        vm.compile_code.cache_clear()


def per_op_world(top: bytes, callee: bytes):
    """vm_world, inside per_op_only, with no arm in the code under test."""
    acc, consts = vm_world(top, callee)
    assert "if pc ==" not in vm.generate_source(vm.decode(top))
    return acc, consts


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    programs(),
    programs(max_len=12),
    st.integers(0, 3_000),
    st.booleans(),
    st.sampled_from([0, 1, 7, 2**32, U64_MAX]),
    st.integers(0, 50),
)
def test_random_programs_match_tagged_interpreter_op_by_op(data, top, callee, gas_limit, declared, arg, attached):
    with per_op_only():
        acc, consts = per_op_world(top, callee)
        access = data.draw(declarations(consts)) if declared else None
        assert_same_execution(acc, consts, gas_limit, declared, access, arg, attached)


@settings(max_examples=25, deadline=None)
@given(programs(), programs(max_len=12), st.booleans())
def test_random_programs_match_at_every_gas_limit_op_by_op(top, callee, declared):
    with per_op_only():
        acc, consts = per_op_world(top, callee)
        access = full_declaration(consts) if declared else None
        full = assert_same_execution(acc, consts, 600, declared, access).outcome.gas_used
        for gas_limit in range(full + 1):
            assert_same_execution(acc, consts, gas_limit, declared, access)


# Operand words: Ints at the edges of the arithmetic checks, and an Addr.
_OPERANDS = ["", "PUSHI 0", "PUSHI 1", "PUSHI 3", f"PUSHI {2**33}", f"PUSHI {U64_MAX}", "CALLER"]


@pytest.mark.parametrize("op", sorted(vm._PURE), ids=lambda op: vm.MNEMONICS[op])
def test_each_pure_op_matches_op_by_op(op):
    """The op under each pair of operand words (or none), its result
    returned: every result, fault and fault order of the op, whatever the
    random programs happen to draw."""
    operand = {vm.OP_PUSHI: " 5", vm.OP_PUSHA: " 1", vm.OP_JUMP: " end", vm.OP_JUMPI: " end"}.get(op, "")
    with per_op_only():
        for a in _OPERANDS:
            for b in _OPERANDS:
                asm = f"{a} {b} {vm.MNEMONICS[op]}{operand} RETURN end: PUSHI 8 RETURN"
                acc, consts = per_op_world(vm.assemble(asm), vm.assemble("HALT"))
                assert_same_execution(acc, consts, 100, False, None, arg=7, attached=2)


@pytest.mark.parametrize("asm, detail", [
    # Each op that pushes more than it pops, looped until the frame stack
    # is full.
    ("loop: PUSHI 1 JUMP loop", "frame stack overflow"),
    ("PUSHI 1 loop: DUP JUMP loop", "frame stack overflow"),
    ("loop: PUSHA 0 JUMP loop", "frame stack overflow"),
    ("loop: ARG JUMP loop", "frame stack overflow"),
    ("loop: CALLER JUMP loop", "frame stack overflow"),
    # On a full stack, a PUSHA past the table faults on its index first.
    ("PUSHI 1" + " DUP" * 1023 + " PUSHA 6", "address constant 6 out of range"),
])
def test_full_frame_stack_matches_op_by_op(asm, detail):
    """The stack's depth limit, which the random programs seldom reach."""
    with per_op_only():
        acc, consts = per_op_world(vm.assemble(asm), vm.assemble(COUNTER_ASM))
        full = assert_same_execution(acc, consts, 30_000, False, None).outcome
        assert (full.status, full.detail) == (vm.STATUS_REVERTED, detail)
        for gas_limit in range(full.gas_used - 4, full.gas_used + 1):
            assert_same_execution(acc, consts, gas_limit, False, None)


# Stores 42 at key 3, calls itself (address constant 2) with ARG 1, and
# returns what key 3 then holds. The inner frame stores 99 at key 3 and
# then ends as the instruction after `inner:` says.
SELF_OVERWRITE_ASM = ("ARG JUMPI inner PUSHI 3 PUSHI 42 SSTORE PUSHI 1 PUSHA 2 CALL DROP DROP "
                      "PUSHI 3 SLOAD RETURN inner: PUSHI 3 PUSHI 99 SSTORE {end}")


@pytest.mark.parametrize("end, ret", [("REVERT", 42), ("HALT", 99)])
@pytest.mark.parametrize("declared", [False, True])
def test_sload_reads_the_transactions_own_writes(end, ret, declared):
    """An SLOAD of a key the frame has stored reads the stored value, and
    after a nested call to the same contract overwrote the key, the value
    the call left: the frame's own if the call reverted."""
    # The second program has no call between its store and its load.
    for asm, want in ((SELF_OVERWRITE_ASM.format(end=end), ret), ("PUSHI 3 PUSHI 42 SSTORE PUSHI 3 SLOAD RETURN", 42)):
        acc, consts = vm_world(vm.assemble(asm), vm.assemble("HALT"))
        access = full_declaration(consts) if declared else None
        out = assert_same_execution(acc, consts, 30_000, declared, access)
        assert (out.outcome.status, out.outcome.ret) == (vm.STATUS_COMMITTED, want)
        assert out.storage_new == {(consts[2], 3): want}


def test_undeclared_balance_read_is_an_access_violation():
    """A declared call that reads a balance its footprint leaves out (BOB's,
    address constant 1) gets AccessViolation and pays for the gas it used."""
    acc, consts = vm_world(vm.assemble("PUSHA 1 BALANCE RETURN"), vm.assemble("HALT"))
    addrs, slots, callees = (frozenset(p) for p in declaration_pools(consts))
    access = AccessDecl(addrs - {B_ADDR}, addrs - {B_ADDR}, slots, slots, callees)
    out = assert_same_execution(acc, consts, 30_000, True, access)
    assert (out.outcome.status, out.outcome.gas_used) == (vm.STATUS_ACCESS_VIOLATION, 6)
    assert out.outcome.detail == f"undeclared balance read of {B_ADDR.hex()[:16]}"
    # Declared, it reads BOB's balance.
    assert assert_same_execution(acc, consts, 30_000, True, full_declaration(consts)).outcome.ret == 1_000_000


@pytest.mark.parametrize(
    "asm, status",
    [
        # CALL past depth 8: the ninth frame is refused and the chain unwinds.
        (RECURSE_ASM, vm.STATUS_COMMITTED),
        # REVERT inside a callee rolls back its writes, event and transfer.
        ("PUSHI 0 PUSHA 4 CALL PUSHI 0 SWAP SSTORE PUSHI 1 SWAP SSTORE HALT", vm.STATUS_COMMITTED),
        # Arithmetic faults, and stack and type misuse.
        (f"PUSHI {U64_MAX} PUSHI 1 ADD HALT", vm.STATUS_REVERTED),
        ("PUSHI 1 PUSHI 2 SUB HALT", vm.STATUS_REVERTED),
        (f"PUSHI {2**33} PUSHI {2**33} MUL HALT", vm.STATUS_REVERTED),
        ("PUSHI 1 PUSHI 0 DIV HALT", vm.STATUS_REVERTED),
        ("PUSHI 1 PUSHI 0 MOD HALT", vm.STATUS_REVERTED),
        ("PUSHI 1 SWAP HALT", vm.STATUS_REVERTED),
        ("CALLER NOT HALT", vm.STATUS_REVERTED),
        ("PUSHI 3 PUSHA 0 EQ HALT", vm.STATUS_REVERTED),
        ("PUSHI 3 PUSHI 0 TRANSFER HALT", vm.STATUS_REVERTED),
        ("PUSHA 6 HALT", vm.STATUS_REVERTED),
        ("loop: PUSHI 1 JUMP loop", vm.STATUS_REVERTED),  # frame stack overflow
        ("PUSHI 1 loop: DUP JUMP loop", vm.STATUS_REVERTED),
        # Value out of the contract: in declared mode BOB's balance is undeclared.
        ("PUSHI 1 PUSHA 1 TRANSFER HALT", vm.STATUS_COMMITTED),
        # A jump inside a run of per-op ops, past ops the run would
        # otherwise count, to code that ends two ops later.
        ("PUSHI 0 SLOAD JUMP end SLOAD SLOAD SLOAD SLOAD end: PUSHI 7", vm.STATUS_COMMITTED),
        # Balance reads of the caller, whose balance every call writes, and of BOB.
        ("CALLER BALANCE PUSHA 1 BALANCE ADD RETURN", vm.STATUS_COMMITTED),
    ],
)
def test_fixed_programs_match_at_every_gas_limit(asm, status):
    acc, consts = vm_world(vm.assemble(asm), vm.assemble(COUNTER_ASM))
    out = assert_same_execution(acc, consts, 30_000, False, None)
    assert out.outcome.status == status, out.outcome
    # Every limit; every k-th for the two stack-overflow loops (~2k gas).
    for gas_limit in range(0, out.outcome.gas_used + 1, max(1, out.outcome.gas_used // 300)):
        assert_same_execution(acc, consts, gas_limit, False, None)
    # Declared mode with nothing declared: the first state access or call
    # is a violation in both interpreters. With every key declared written
    # and none declared read, each key may be read too.
    assert_same_execution(acc, consts, 30_000, True, AccessDecl())
    addrs, slots, callees = (frozenset(p) for p in declaration_pools(consts))
    assert_same_execution(acc, consts, 30_000, True, AccessDecl(frozenset(), addrs, frozenset(), slots, callees))


# ---------------------------------------------------------------------------
# Fused groups: op groups that a compiled loop fuses into one Python
# expression (DUP NOT JUMPI into `if not s1`, PUSHI k SUB into one checked
# subtraction), inside a loop body that a `while` runs, against
# oracles.tagged_invoke at every gas limit, from every stack state that makes
# one of their ops fault.

GROUPS = {
    "PUSHI_SUB": (vm.OP_PUSHI, vm.OP_SUB),
    "DUP_NOT_JUMPI": (vm.OP_DUP, vm.OP_NOT, vm.OP_JUMPI),
}
# Loops that hold a group ({group}) and keep their stack shape: "then" has
# more of the loop after the group, and "last" ends the loop with it (the
# group's JUMPI is the jump back, or the group comes just before it). A
# JUMPI group jumps to the label that follows the template.
LOOPS = {
    "PUSHI_SUB": {
        "then": ("loop: {group} DUP JUMPI loop PUSHI 9 RETURN", "end"),
        "last": ("loop: DUP JUMPI go PUSHI 9 RETURN go: {group} JUMP loop", "end"),
    },
    "DUP_NOT_JUMPI": {
        "then": ("loop: {group} PUSHI 1 SUB JUMP loop end: PUSHI 8 RETURN", "end"),
        "last": ("loop: {group}", "loop"),
    },
}


def group_asm(ops, k, label: str) -> str:
    """Assembly of a group: PUSHI takes k, JUMPI jumps to label."""
    words = {vm.OP_PUSHI: f"PUSHI {k}", vm.OP_JUMPI: f"JUMPI {label}"}
    return " ".join(words.get(op, vm.MNEMONICS[op]) for op in ops)


# Stack states before a group: empty, an Addr on top, Ints that make SUB
# underflow or not, and a stack of 1023 or 1024 Ints.
PRELUDES = {
    "empty": "",
    "addr": "CALLER",
    "zero": "PUSHI 0",
    "two": "PUSHI 9 PUSHI 2",
    "max": f"PUSHI {U64_MAX}",
    "big": f"PUSHI {2**33}",
    "height1023": "PUSHI 7" + " DUP" * 1022,
    "height1024": "PUSHI 7" + " DUP" * 1023,
}
# PUSHI operands: sub underflow from 0 or 2, and differences of 0 and
# U64_MAX - 2**33 from 2**33 and U64_MAX.
PUSHI_OPERANDS = (0, 1, 3, 2**33)


def group_programs(name: str):
    """(name, assembly, whole) for one group in every shape: in each loop
    of LOOPS, and in its "then" loop entered by a jump to each of the
    group's later ops. whole: one block holds the whole group."""
    ops = GROUPS[name]
    for pre_name, pre in PRELUDES.items():
        deep = pre_name.startswith("height")
        for k in PUSHI_OPERANDS[1:2] if deep or ops[0] != vm.OP_PUSHI else PUSHI_OPERANDS:
            for shape, (loop, label) in LOOPS[name].items():
                yield f"{pre_name}-{k}-{shape}", f"{pre} {loop.format(group=group_asm(ops, k, label))}", True
            loop, label = LOOPS[name]["then"]
            for i in range(1, len(ops)):
                split = f"{group_asm(ops[:i], k, label)} mid: {group_asm(ops[i:], k, label)}"
                yield f"{pre_name}-{k}-into{i}", f"{pre} PUSHI 5 JUMP mid {loop.format(group=split)}", False


def block_ops(code: bytes) -> list[tuple[int, ...]]:
    """The opcodes of each basic block."""
    program = vm._Program(vm.decode(code))
    return [tuple(code[pc] for pc in block) for block in program.blocks.values()]


def holds(block: tuple[int, ...], ops: tuple[int, ...]) -> bool:
    return any(block[i:i + len(ops)] == ops for i in range(len(block)))


def gas_limits(full: int):
    """Every limit up to full; past 100 gas (the 1023- and 1024-deep
    preludes, and loops that run until the gas is gone), the first 100 and
    the last 40, which hold the last passes."""
    return sorted(set(range(min(full, 100) + 1)) | set(range(max(full - 40, 0), full + 1)))


@pytest.mark.parametrize("name", list(GROUPS))
def test_fused_groups_match_tagged_interpreter(name):
    statuses = set()
    for shape, asm, whole in group_programs(name):
        code = vm.assemble(asm)
        assert any(holds(block, GROUPS[name]) for block in block_ops(code)) == whole, shape
        assert "while gas >=" in vm.generate_source(vm.decode(code)), shape
        acc, consts = vm_world(code, vm.assemble(COUNTER_ASM))
        full = assert_same_execution(acc, consts, 2_000, False, None)
        statuses.add(full.outcome.detail or full.outcome.ret or full.outcome.status)
        for gas_limit in gas_limits(full.outcome.gas_used + 1):
            assert_same_execution(acc, consts, gas_limit, False, None)
    # The matrix reaches the faults it is built for, loops that run until the
    # gas is gone, and loops that end: by RETURN, or off the end of the code.
    assert {"stack underflow", "frame stack overflow", "type error: expected Int", vm.STATUS_OUT_OF_GAS} <= statuses
    if name == "PUSHI_SUB":
        assert {"sub underflow", 9} <= statuses
    else:
        assert {8, vm.STATUS_COMMITTED} <= statuses


@pytest.mark.parametrize("arg", [0, 1, 3])
def test_fused_loops_match_tagged_interpreter(arg):
    """The burn loop (DUP NOT JUMPI, PUSHI 1 SUB), and one that steps by 2,
    so an odd argument ends in a sub underflow inside the compiled `while`.
    Both compile to a `while`."""
    by_two = "ARG loop: DUP NOT JUMPI end PUSHI 2 SUB JUMP loop end: HALT"
    for asm in (BURN_ASM, by_two):
        assert "while gas >= 6:" in vm.generate_source(vm.decode(vm.assemble(asm)))
        acc, consts = vm_world(vm.assemble(asm), vm.assemble(COUNTER_ASM))
        full = assert_same_execution(acc, consts, 30_000, False, None, arg=arg)
        assert (full.outcome.detail == "sub underflow") == (asm == by_two and arg % 2 == 1)
        for gas_limit in range(full.outcome.gas_used + 2):
            assert_same_execution(acc, consts, gas_limit, False, None, arg=arg)


def bench_vm_module():
    """benchmarks/bench_vm.py, loaded from its path."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_vm.py"
    spec = importlib.util.spec_from_file_location("bench_vm", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The generated function of code that gets no arm: every pc returns its run.
NO_ARMS = "def run(stack, gas, pc, env, consts):\n    while True:\n        if True:\n            return pc, gas, runs[pc]\n"


def test_code_without_a_backward_jump_gets_no_arm():
    """Straight-line pure code runs through the per-op loop: the counter,
    average and DEX contracts, and the 4 KiB code of 1,021 two-op blocks,
    compile to a function that only returns the per-op loop's run."""
    bench_vm = bench_vm_module()
    codes = {
        "counter": vm.assemble(COUNTER_ASM),
        "average": vm.assemble(bench_vm.fixture_code("average_balance_contract")),
        "dex": vm.assemble(bench_vm.fixture_code("dex_order_matching")),
        "4k-block": bench_vm.WORST_CODES["4k-block"],
    }
    for name, code in codes.items():
        assert not vm._Program(vm.decode(code)).back_targets, name
        assert vm.generate_source(vm.decode(code)) == NO_ARMS, name


def test_the_search_for_loops_counts_against_the_trace_bound():
    """Blocks visited while looking for a loop count against _MAX_TRACED:
    in 1,021 blocks that each jump back 9 blocks, no header closes a cycle
    of at most _MAX_LOOP_BLOCKS blocks, and the search stops long before
    the last of the 1,012 headers."""
    code = vm.assemble("HALT PUSHI 0 " + " ".join(f"b{i}: DUP JUMPI b{max(i - 9, 0)}" for i in range(1021)) + " HALT")
    program = vm._Program(vm.decode(code))
    searched = []
    cycle = program.cycle
    program.cycle = lambda header: searched.append(header) or cycle(header)
    vm._source(program)
    assert len(program.back_targets) == 1012
    assert len(searched) < 200
    assert program.traced < vm._MAX_TRACED + 2 ** (vm._MAX_LOOP_BLOCKS + 1)


# ---------------------------------------------------------------------------
# Countdown loops: ARG counts down by a random step through a random pure
# body, the shape the compiler turns into a `while`.

_BODY_PUSHES = ["PUSHI 0", "PUSHI 1", "PUSHI 3", f"PUSHI {2**33}", f"PUSHI {U64_MAX}",
                "DUP", "DUP", "DUP", "ARG", "VALUE", "EPOCH"]
_BODY_BINOPS = ["ADD", "SUB", "MUL", "DIV", "MOD", "LT", "GT", "EQ"]


def countdown_loop(rng) -> str:
    """Assembly of `ARG loop: DUP NOT JUMPI end <body> PUSHI step SUB JUMP
    loop end: HALT`. The body is pure and leaves the stack as it found it,
    but may read the counter (DUP), replace it (SWAP DROP) or fault (sub
    underflow, overflow, division by zero, an Addr in arithmetic)."""
    body, height = [], 0  # words above the counter
    for _ in range(rng.randint(0, 10)):
        choice = rng.random()
        if height >= 2 and choice < 0.35:
            body.append(rng.choice(_BODY_BINOPS))
            height -= 1
        elif height >= 1 and choice < 0.45:
            body.append(rng.choice(["NOT", "DROP"]))
            height -= body[-1] == "DROP"
        elif height >= 2 and choice < 0.5:
            body.append("SWAP")
        elif height == 1 and choice < 0.55:
            body.append("SWAP DROP")  # the body's word becomes the counter
            height = 0
        elif choice < 0.57:
            body.append("CALLER DROP")
        elif choice < 0.58:
            body.append("CALLER PUSHI 1 ADD")  # a type error
            height += 1
        else:
            body.append(rng.choice(_BODY_PUSHES))
            height += 1
    body += ["DROP"] * height
    step = rng.choice([0, 1, 1, 2, 3, 7, U64_MAX])
    return f"ARG loop: DUP NOT JUMPI end {' '.join(body)} PUSHI {step} SUB JUMP loop end: HALT"


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 40), st.integers(0, 5_000))
def test_countdown_loops_match_tagged_interpreter(rng, arg, gas_limit):
    asm = countdown_loop(rng)
    acc, consts = vm_world(vm.assemble(asm), vm.assemble(COUNTER_ASM))
    assert_same_execution(acc, consts, gas_limit, False, None, arg=arg)
    # Every limit up to 600 gas, which holds every block boundary of the
    # run's first passes through the loop, and past its end.
    full = assert_same_execution(acc, consts, 600, False, None, arg=arg).outcome.gas_used
    for limit in range(full + 2):
        assert_same_execution(acc, consts, limit, False, None, arg=arg)
