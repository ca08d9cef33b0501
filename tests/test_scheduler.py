"""Batch contract scheduling: wave construction, barriers, and equivalence
between declared-mode (waved, possibly parallel) and dynamic-serial runs."""

from __future__ import annotations

import random

from helpers import (
    BURN_ASM,
    COUNTER_ASM,
    KEYS,
    OPERATOR,
    burn_code,
    counter_code,
    make_call,
    make_config,
    make_deploy,
)
from tierledger import scheduler, vm
from tierledger.model import AccessDecl, address_of_pubkey, txid
from tierledger.rules import ACCESS_DECLARED

DYN = make_config()
DECL = make_config(access_mode=ACCESS_DECLARED)


def counter_access(contract: bytes) -> AccessDecl:
    return AccessDecl(
        storage_read=frozenset({(contract, 0)}),
        storage_written=frozenset({(contract, 0)}),
    )


def setup_contracts(n: int = 3, funded_keys=range(1, 9)):
    """Accounts with n independent counter contracts deployed by KEYS[1]."""
    acc = vm.Accounts()
    for ki in funded_keys:
        acc.set_balance(address_of_pubkey(KEYS[ki].pubkey), 100_000)
    contracts = []
    code = counter_code()
    for i in range(n):
        tx = make_deploy(KEYS[1], code + bytes([vm.OP_HALT]) * i, nonce=i)
        diff = vm.deploy(acc, tx, txid(tx), DYN.operator_address)
        assert diff.outcome.status == 0
        diff.apply(acc, DYN.operator_address)
        contracts.append(txid(tx))
    return acc, contracts


def items_for(txs):
    return [(tx, txid(tx)) for tx in txs]


def test_dynamic_mode_is_serial_submission_order():
    acc, (c,) = setup_contracts(1)
    nonce = acc.nonces[address_of_pubkey(KEYS[1].pubkey)]
    txs = [make_call(KEYS[1], c, nonce=nonce + i, gas_limit=25) for i in range(3)]
    order = []
    outcomes, tel = scheduler.schedule_batch(
        acc, items_for(txs), 1, DYN, on_commit=lambda i, o: order.append(i)
    )
    assert [o.status for o in outcomes] == [0, 0, 0]
    assert order == [0, 1, 2]
    assert tel.mode == "dynamic"
    assert tel.waves == [[0], [1], [2]]
    assert tel.parallel_waves == 0
    assert acc.storage_get(c, 0) == 3


def test_declared_conflicting_txs_form_separate_waves():
    acc, (c,) = setup_contracts(1)
    txs = [
        make_call(KEYS[2 + i], c, nonce=0, gas_limit=25, access=counter_access(c))
        for i in range(3)
    ]
    outcomes, tel = scheduler.schedule_batch(acc, items_for(txs), 1, DECL)
    assert [o.status for o in outcomes] == [0, 0, 0]
    assert tel.waves == [[0], [1], [2]]  # same storage slot: fully serialized
    assert acc.storage_get(c, 0) == 3


def test_declared_disjoint_txs_share_a_wave():
    acc, contracts = setup_contracts(3)
    txs = [
        make_call(KEYS[2 + i], contract, nonce=0, gas_limit=25, access=counter_access(contract))
        for i, contract in enumerate(contracts)
    ]
    outcomes, tel = scheduler.schedule_batch(acc, items_for(txs), 1, DECL)
    assert [o.status for o in outcomes] == [0, 0, 0]
    assert tel.waves == [[0, 1, 2]]
    assert tel.parallel_waves == 0  # below the gas threshold: runs inline
    for c in contracts:
        assert acc.storage_get(c, 0) == 1


def test_deploy_is_a_barrier():
    acc, contracts = setup_contracts(2)
    d = make_deploy(KEYS[2], counter_code(), nonce=0)
    txs = [
        make_call(KEYS[3], contracts[0], nonce=0, gas_limit=25, access=counter_access(contracts[0])),
        d,
        make_call(KEYS[4], contracts[1], nonce=0, gas_limit=25, access=counter_access(contracts[1])),
    ]
    _, tel = scheduler.schedule_batch(acc, items_for(txs), 1, DECL)
    assert tel.waves == [[0], [1], [2]]


def test_operator_touching_tx_is_a_barrier():
    acc, contracts = setup_contracts(2)
    acc.set_balance(address_of_pubkey(OPERATOR.pubkey), 100_000)
    txs = [
        make_call(KEYS[2], contracts[0], nonce=0, gas_limit=25, access=counter_access(contracts[0])),
        make_call(OPERATOR, contracts[1], nonce=0, gas_limit=25, access=counter_access(contracts[1])),
    ]
    _, tel = scheduler.schedule_batch(acc, items_for(txs), 1, DECL)
    assert tel.waves == [[0], [1]]


def test_missing_declaration_rejected_without_footprint():
    acc, (c,) = setup_contracts(1)
    txs = [
        make_call(KEYS[2], c, nonce=0, gas_limit=25),  # undeclared
        make_call(KEYS[3], c, nonce=0, gas_limit=25, access=counter_access(c)),
    ]
    outcomes, tel = scheduler.schedule_batch(acc, items_for(txs), 1, DECL)
    assert outcomes[0].status == vm.STATUS_MISSING_ACCESS_DECL
    assert outcomes[1].status == 0
    assert tel.waves == [[0, 1]]  # the rejected tx conflicts with nothing


def snapshot(acc: vm.Accounts):
    return (
        dict(acc.balances),
        dict(acc.storage),
        dict(acc.nonces),
        {a: c.code for a, c in acc.contracts.items()},
    )


def random_declared_batch(rng: random.Random, contracts, size: int = 12):
    """Calls with correct declarations over a handful of contracts; nonces
    tracked per caller so everything is executable."""
    nonces: dict[bytes, int] = {}
    txs = []
    for _ in range(size):
        ki = rng.randint(2, 8)
        kp = KEYS[ki]
        addr = address_of_pubkey(kp.pubkey)
        c = rng.choice(contracts)
        n = nonces.get(addr, 0)
        nonces[addr] = n + 1
        txs.append(
            make_call(kp, c, nonce=n, gas_limit=rng.choice([25, 19, 40]), gas_price=rng.choice([0, 1]),
                      access=counter_access(c))
        )
    return txs


def test_declared_waved_equals_dynamic_serial_randomized():
    rng = random.Random(7)
    for trial in range(20):
        acc_a, contracts = setup_contracts(4)
        acc_b = acc_a.copy()
        txs = random_declared_batch(rng, contracts)
        out_a, _ = scheduler.schedule_batch(acc_a, items_for(txs), 2, DECL)
        out_b, _ = scheduler.schedule_batch(acc_b, items_for(txs), 2, DECL, workers=1)
        assert [o.status for o in out_a] == [o.status for o in out_b], trial
        assert snapshot(acc_a) == snapshot(acc_b), trial


def test_forced_parallel_wave_matches_inline_and_reports_telemetry():
    acc_a, _ = setup_contracts(0)
    code = burn_code()
    contracts = []
    for i in range(4):
        tx = make_deploy(KEYS[1], code + bytes([vm.OP_HALT]) * i, nonce=i)
        diff = vm.deploy(acc_a, tx, txid(tx), DYN.operator_address)
        diff.apply(acc_a, DYN.operator_address)
        contracts.append(txid(tx))
    acc_b = acc_a.copy()
    txs = [
        # Long enough that the OS preempts mid-run and the wall-clock spans
        # of sibling workers overlap even on a single hardware thread.
        make_call(KEYS[2 + i], c, nonce=0, arg=20_000, gas_limit=130_000, gas_price=0,
                  access=AccessDecl())
        for i, c in enumerate(contracts)
    ]
    out_par, tel = scheduler.schedule_batch(
        acc_a, items_for(txs), 1, DECL, workers=4, parallel_min_gas=0
    )
    out_ser, _ = scheduler.schedule_batch(acc_b, items_for(txs), 1, DECL, workers=1)
    assert [o.status for o in out_par] == [o.status for o in out_ser] == [0] * 4
    assert [o.gas_used for o in out_par] == [o.gas_used for o in out_ser]
    assert snapshot(acc_a) == snapshot(acc_b)
    assert tel.parallel_waves == 1
    assert len(set(tel.worker_pids.values())) >= 2
    assert tel.max_concurrency() >= 2


def test_on_commit_order_is_submission_order_within_waves():
    acc, contracts = setup_contracts(3)
    txs = [
        make_call(KEYS[2 + i], c, nonce=0, gas_limit=25, access=counter_access(c))
        for i, c in enumerate(contracts)
    ]
    seen = []
    scheduler.schedule_batch(acc, items_for(txs), 1, DECL, on_commit=lambda i, o: seen.append(i))
    assert seen == [0, 1, 2]
