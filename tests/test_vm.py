"""Contract VM: assembler, code validation, gas, atomicity, nonces, access
checking, and cross-contract calls."""

from __future__ import annotations

import pytest

from helpers import COUNTER_ASM, COUNTER_GAS, KEYS, counter_code, make_call, make_deploy
from tierledger import vm
from tierledger.model import AccessDecl, Call, ModelError, Transaction, address_of_pubkey, txid

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
    diff = vm.deploy(acc, tx, txid(tx), OPERATOR)
    assert diff.outcome.status == vm.STATUS_COMMITTED, diff.outcome
    diff.apply(acc, OPERATOR)
    return txid(tx)


def run_call(acc: vm.Accounts, contract: bytes, kp=ALICE, apply=True, declared=False, **kw) -> vm.StateDiff:
    nonce = kw.pop("nonce", acc.nonces.get(address_of_pubkey(kp.pubkey), 0))
    tx = make_call(kp, contract, nonce=nonce, **kw)
    diff = vm.invoke(acc, tx, txid(tx), epoch=5, operator=OPERATOR, declared_mode=declared)
    if apply:
        diff.apply(acc, OPERATOR)
    return diff


def test_assemble_disassemble_round_trip():
    code = vm.assemble("PUSHI 7 PUSHI 0 SSTORE loop: PUSHI 1 JUMPI loop HALT")
    assert vm.assemble(vm.disassemble(code)) == code
    with pytest.raises(ModelError):
        vm.assemble("WHAT 3")


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
    diff = vm.deploy(acc, tx, txid(tx), OPERATOR)
    assert diff.outcome.status == vm.STATUS_COMMITTED
    assert diff.outcome.gas_used == len(code)
    diff.apply(acc, OPERATOR)
    assert acc.balance(A_ADDR) == 10_000 - 3 * len(code)
    assert acc.balance(OPERATOR) == 3 * len(code)
    assert acc.contracts[txid(tx)].code == code


def test_deploy_failures():
    acc = fresh_accounts()
    bad = make_deploy(ALICE, bytes([0xEE]))
    assert vm.deploy(acc, bad, txid(bad), OPERATOR).outcome.status == vm.STATUS_MALFORMED_CODE
    tight = make_deploy(ALICE, counter_code(), gas_limit=len(counter_code()) - 1, gas_price=1)
    diff = vm.deploy(acc, tight, txid(tight), OPERATOR)
    assert diff.outcome.status == vm.STATUS_OUT_OF_GAS
    assert diff.outcome.gas_used == tight.kind.gas_limit
    poor = make_deploy(ALICE, counter_code(), endowment=50_000)
    assert vm.deploy(acc, poor, txid(poor), OPERATOR).outcome.status == vm.STATUS_INSUFFICIENT_BALANCE
    stale = make_deploy(ALICE, counter_code(), nonce=9)
    assert vm.deploy(acc, stale, txid(stale), OPERATOR).outcome.status == vm.STATUS_BAD_NONCE


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
    assert acc.balance(OPERATOR) == 2 * (COUNTER_GAS - 1)
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
    diff = vm.deploy(acc, tx, c, OPERATOR)
    diff.apply(acc, OPERATOR)
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


def test_effective_footprint_expands_callees_transitively():
    acc = fresh_accounts()
    leaf_fp = AccessDecl(storage_written=frozenset({(b"\x00" * 32, 3)}))
    leaf = deployed(acc, "HALT", access=leaf_fp)
    mid_fp = AccessDecl(callees=frozenset({leaf}), balances_read=frozenset({B_ADDR}))
    mid = deployed(acc, "HALT", access=mid_fp, nonce=1)
    fp = vm.effective_footprint(AccessDecl(callees=frozenset({mid})), mid, acc.contracts)
    assert (leaf, 3) in fp.storage_written  # placeholder replaced at deploy
    assert B_ADDR in fp.balances_read
    assert {mid, leaf} <= fp.callees


def test_operator_fee_is_a_commuting_delta():
    acc = fresh_accounts()
    c = deployed(acc, COUNTER_ASM)
    tx = make_call(ALICE, c, nonce=1, gas_limit=COUNTER_GAS, gas_price=1)
    diff = vm.invoke(acc, tx, txid(tx), 1, OPERATOR, False)
    assert diff.operator_delta == COUNTER_GAS
    assert OPERATOR not in diff.balance_new
