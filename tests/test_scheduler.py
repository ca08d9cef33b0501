"""Batch contract scheduling: wave construction, barriers, and equivalence
between declared-mode (waved, possibly parallel) and dynamic-serial runs."""

from __future__ import annotations

import os
import random
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

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
    seed_balance,
)
from oracles import pairwise_sets, pairwise_waves
from test_acceptance import _contract_fleet
from tierledger import ledger, scheduler, vm
from tierledger.model import AccessDecl, Call, Deploy, Transaction, address_of_pubkey, txid
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
        diff = vm.deploy(acc, tx, txid(tx))
        assert diff.outcome.status == 0
        diff.apply(acc)
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


def test_the_operator_balance_is_an_ordinary_footprint_key():
    """Fees are held apart from every balance, so a call from the operator
    shares a wave with a disjoint fee-paying call, and a call declaring the
    operator's balance read conflicts only with the one writing it."""
    operator = address_of_pubkey(OPERATOR.pubkey)
    acc, contracts = setup_contracts(3)
    acc.set_balance(operator, 100_000)
    reads_operator = replace(counter_access(contracts[2]), balances_read=frozenset({operator}))
    txs = [
        make_call(KEYS[2], contracts[0], nonce=0, gas_limit=25, gas_price=1, access=counter_access(contracts[0])),
        make_call(OPERATOR, contracts[1], nonce=0, gas_limit=25, gas_price=1, access=counter_access(contracts[1])),
        make_call(KEYS[3], contracts[2], nonce=0, gas_limit=25, gas_price=1, access=reads_operator),
    ]
    outcomes, tel = scheduler.schedule_batch(acc, items_for(txs), 1, DECL)
    assert tel.waves == [[0, 1], [2]]
    assert [o.status for o in outcomes] == [0, 0, 0]
    assert acc.balance(operator) == 100_000 - 20  # its own fee is held with the others
    assert acc.fees == 3 * 20


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
        acc.lthash.digest(),
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
        diff = vm.deploy(acc_a, tx, txid(tx))
        diff.apply(acc_a)
        contracts.append(txid(tx))
    acc_b = acc_a.copy()
    # Long enough that the OS preempts mid-run and the wall-clock spans of
    # sibling workers overlap even on a single hardware thread: a quarter
    # of the wave gas that pays for a fork (6 gas per loop iteration).
    arg = scheduler.PARALLEL_MIN_GAS // 4 // 6
    txs = [
        make_call(KEYS[2 + i], c, nonce=0, arg=arg, gas_limit=6 * arg + 5_000, gas_price=0,
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


def test_declared_and_dynamic_mode_commit_equal_receipts():
    """Criterion 6's random counter batches (seed 66, gas price 0 or 2), in
    declared mode, every third on the pool, and in dynamic mode: the
    receipts are equal, writes digests included, since no receipt holds a
    fee credit that depends on the order of commits."""
    decl = make_config(access_mode=ACCESS_DECLARED, initial_subsidy=0)
    dyn = make_config(initial_subsidy=0)
    base, contracts = _contract_fleet(6, counter_code(), decl)
    rng = random.Random(66)
    reordered = 0
    for trial in range(100):
        nonces: dict[bytes, int] = {}
        txs = []
        for _ in range(rng.randint(6, 14)):
            kp = KEYS[rng.randint(2, 9)]
            addr = address_of_pubkey(kp.pubkey)
            c = rng.choice(contracts)
            n = nonces.get(addr, 0)
            nonces[addr] = n + 1
            txs.append(make_call(kp, c, nonce=n, gas_limit=rng.choice([25, 19]),
                                 gas_price=rng.choice([0, 2]), access=counter_access(c)))
        telemetry: list = []
        min_gas = 0 if trial % 3 == 0 else scheduler.PARALLEL_MIN_GAS
        ra, ha = ledger.apply_batch(base.copy(), txs, 2, decl, workers=2, parallel_min_gas=min_gas,
                                    collect_telemetry=telemetry)
        rb, hb = ledger.apply_batch(base.copy(), txs, 2, dyn, workers=1)
        assert ra == rb, trial
        assert (ha.receipts_hash, ha.post_state_digest) == (hb.receipts_hash, hb.post_state_digest), trial
        reordered += [j for wave in telemetry[0].waves for j in wave] != list(range(len(txs)))
    assert reordered > 50  # declared mode committed out of submission order


def _counter_wave(n: int):
    acc, contracts = setup_contracts(n)
    txs = [make_call(KEYS[2 + i], c, nonce=0, gas_limit=25, access=counter_access(c))
           for i, c in enumerate(contracts)]
    return acc, [scheduler._wrap(i, tx, txid(tx), acc, True) for i, tx in enumerate(txs)]


def test_parallel_wave_raises_when_a_worker_dies_or_raises(monkeypatch):
    acc, items = _counter_wave(3)
    monkeypatch.setattr(scheduler, "_execute_one", lambda *args: os._exit(7))
    with pytest.raises(BrokenProcessPool):
        scheduler._run_parallel(acc, items, 1, 3)

    def boom(*args):
        raise ValueError("boom in worker")

    monkeypatch.setattr(scheduler, "_execute_one", boom)
    with pytest.raises(ValueError, match="boom in worker"):
        scheduler._run_parallel(acc, items, 1, 2)


def _dying_worker(index: int):
    """A pool worker that dies before it runs its call."""
    os._exit(9)


def _raising_worker(index: int):
    raise ValueError("boom in the execution code")


def test_a_wave_whose_pool_breaks_runs_inline(monkeypatch):
    """A forced parallel wave whose workers die runs inline, as on one
    worker: every member was admitted before dispatch, and no worker wrote
    anything. An exception raised by the execution code still propagates."""
    cfg = make_config(initial_subsidy=0, access_mode=ACCESS_DECLARED)
    state = ledger.LedgerState()
    seed_balance(state, address_of_pubkey(KEYS[1].pubkey), 10_000)
    deploys = [make_deploy(KEYS[1], counter_code(), nonce=n, gas_limit=31, gas_price=1) for n in range(3)]
    assert [r.status for r in ledger.apply_batch(state, deploys, 1, cfg, workers=1)[0]] == [0] * 3
    for kp in KEYS[2:5]:
        seed_balance(state, address_of_pubkey(kp.pubkey), 10_000)
    calls = [make_call(KEYS[2 + i], txid(d), nonce=0, gas_limit=25, access=counter_access(txid(d)))
             for i, d in enumerate(deploys)]
    serial = state.copy()
    want, want_header = ledger.apply_batch(serial, calls, 2, cfg, workers=1)
    pools = []
    real = scheduler._run_parallel
    monkeypatch.setattr(scheduler, "_run_parallel", lambda *args: pools.append(args[1]) or real(*args))
    monkeypatch.setattr(scheduler, "_worker", _dying_worker)
    telemetry: list = []
    broken = state.copy()
    receipts, header = ledger.apply_batch(broken, calls, 2, cfg, workers=2, parallel_min_gas=0,
                                          collect_telemetry=telemetry)
    assert len(pools) == 1 and len(pools[0]) == 3  # the one wave went to the pool
    assert (receipts, header.hash()) == (want, want_header.hash())
    assert [r.status for r in receipts] == [0] * 3
    assert ledger.state_digest(broken) == ledger.state_digest(serial)
    assert [t.parallel_waves for t in telemetry] == [0]
    monkeypatch.setattr(scheduler, "_worker", _raising_worker)
    with pytest.raises(ValueError, match="boom in the execution code"):
        ledger.apply_batch(state.copy(), calls, 2, cfg, workers=2, parallel_min_gas=0)


def test_pool_forks_only_on_gas_the_callers_can_prepay(monkeypatch):
    """A wave forks the pool only on the gas of calls whose callers cover
    the prepay: two calls with gas_limit 2**63 from callers holding 1,000
    run inline and come back 304, where two payable calls of the same
    total gas threshold fork once."""
    forks = []
    real = scheduler._run_parallel
    monkeypatch.setattr(scheduler, "_run_parallel", lambda *a: forks.append(len(a[1])) or real(*a))
    for gas_limit, gas_price, status, expected_forks in [(2**63, 4, 304, []), (500, 2, 0, [2])]:
        forks.clear()
        acc, contracts = setup_contracts(2, funded_keys=[1])
        for i in range(2):
            acc.set_balance(address_of_pubkey(KEYS[2 + i].pubkey), 1_000)
        txs = [make_call(KEYS[2 + i], c, gas_limit=gas_limit, gas_price=gas_price, access=counter_access(c))
               for i, c in enumerate(contracts)]
        outs, tel = scheduler.schedule_batch(acc, items_for(txs), 1, DECL, workers=2, parallel_min_gas=1_000)
        assert tel.waves == [[0, 1]]
        assert [o.status for o in outs] == [status] * 2
        assert (forks, tel.parallel_waves) == (expected_forks, len(expected_forks))


def test_parallel_wave_workers_inherit_compiled_code(monkeypatch):
    """The parent compiles each code of a wave before it forks, so no
    worker compiles one."""
    acc, items = _counter_wave(3)
    vm.compile_code.cache_clear()
    real = scheduler._execute_one

    def execute(*args):
        misses = vm.compile_code.cache_info().misses
        diff = real(*args)
        if vm.compile_code.cache_info().misses != misses:
            raise ValueError("a worker compiled code")
        return diff

    monkeypatch.setattr(scheduler, "_execute_one", execute)
    results = scheduler._run_parallel(acc, items, 1, 2)
    assert [diff.outcome.status for _, diff, *_ in sorted(results)] == [0, 0, 0]
    assert vm.compile_code.cache_info().misses == 3


def test_on_commit_order_is_submission_order_within_waves():
    acc, contracts = setup_contracts(3)
    txs = [
        make_call(KEYS[2 + i], c, nonce=0, gas_limit=25, access=counter_access(c))
        for i, c in enumerate(contracts)
    ]
    seen = []
    scheduler.schedule_batch(acc, items_for(txs), 1, DECL, on_commit=lambda i, o: seen.append(i))
    assert seen == [0, 1, 2]


def footprint_world(rng: random.Random):
    """Accounts with twelve contracts whose deploy footprints share slots
    and call one another, so callee footprints fold into a call's
    footprint."""
    acc = vm.Accounts()
    payer = b"\x05" * 32
    acc.set_balance(payer, 10**9)
    contracts: list[bytes] = []
    for nonce in range(12):
        fp = None
        if rng.random() < 0.5:
            fp = AccessDecl(
                frozenset(rng.sample(contracts, min(len(contracts), rng.randint(0, 1)))),
                frozenset(),
                frozenset({(b"\x00" * 32, rng.randint(0, 2))}),  # own slot
                frozenset({(b"\x00" * 32, rng.randint(0, 2))}),
                frozenset(rng.sample(contracts, min(len(contracts), rng.randint(0, 1)))),
            )
        tx = Transaction(Deploy(counter_code(), 0, payer, 10_000, 0, fp), nonce=nonce)
        vm.deploy(acc, tx, txid(tx)).apply(acc)
        contracts.append(txid(tx))
    return acc, contracts


def random_items(rng: random.Random, acc: vm.Accounts, contracts, n: int):
    """Declared-mode items with barriers (deploys, calls to a contract
    missing before the batch), empty footprints (no declaration), operator
    callers and calls declaring the operator's balance, which are not
    barriers, and shared balances and slots over a small key space."""
    operator = DECL.operator_address
    users = [bytes([0x10 + i]) * 32 for i in range(40)]
    addrs = users + contracts[:3] + [operator]
    slots = [(c, k) for c in contracts for k in range(3)]

    def some(pool, most):
        return frozenset(rng.sample(pool, rng.randint(0, most)))

    items = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.02:
            tx = Transaction(Deploy(counter_code(), 0, rng.choice(users), 10_000, 0), nonce=i)
        else:
            access = None if roll < 0.08 else AccessDecl(
                some(addrs[:-1] if rng.random() < 0.95 else addrs, 2),
                some(addrs[:-1] if rng.random() < 0.95 else addrs, 1),
                some(slots, 2), some(slots, 2), some(contracts, 1),
            )
            caller = operator if rng.random() < 0.02 else rng.choice(users)
            # Now and then a callee missing before the batch: a barrier.
            callee = rng.choice(users) if rng.random() < 0.03 else rng.choice(contracts)
            tx = Transaction(Call(callee, 0, 0, caller, 100, 0, access), nonce=i)
        items.append(scheduler._wrap(i, tx, txid(tx), acc, True))
    return items


def test_key_index_waves_equal_pairwise_oracle():
    rng = random.Random(11)
    for trial in range(150):
        acc, contracts = footprint_world(rng)
        items = random_items(rng, acc, contracts, rng.randint(0, 40))
        sets = [pairwise_sets(it, acc.contracts) for it in items]
        assert scheduler._conflict_waves(items) == pairwise_waves(sets), trial


def test_conflict_analysis_of_2000_calls_is_fast():
    """Conflict analysis cost is linear in the footprints: 2000 calls over
    200 callers, 20 counters and 10 burners take well under 50 ms (the
    pairwise builder took about 2 s on a 2-vCPU x86-64 host)."""
    rng = random.Random(3)
    acc, counters = setup_contracts(20, funded_keys=())
    operator = DECL.operator_address
    burners = []
    for i in range(10):
        tx = make_deploy(KEYS[2], burn_code(), nonce=i)
        vm.deploy(acc, tx, txid(tx)).apply(acc)
        burners.append(txid(tx))
    items = []
    for i in range(2000):
        caller = rng.randrange(200).to_bytes(32, "little")
        if rng.random() < 0.2:
            call = Call(rng.choice(burners), 800, 0, caller, 5_000, 1, AccessDecl())
        else:
            c = rng.choice(counters)
            call = Call(c, 0, 0, caller, 20, 1, counter_access(c))
        tx = Transaction(call, nonce=0)
        items.append(scheduler._wrap(i, tx, txid(tx), acc, True))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        waves = scheduler._conflict_waves(items)
        best = min(best, time.perf_counter() - t0)
    assert sorted(j for wave in waves for j in wave) == list(range(2000))
    assert best < 0.05, f"conflict analysis of 2000 calls took {best * 1e3:.1f} ms"


def test_calls_into_a_contract_deployed_in_the_batch_are_serialized():
    """Two declared calls through two different routers into a counter
    deployed earlier in the same batch. Before the batch neither call's
    footprint holds the counter's slot, which execution then checks and
    writes, so sharing a wave would race on it. Both must see the other's
    write whatever the worker count."""
    op = DECL.operator_address
    acc = vm.Accounts()
    for ki in range(1, 5):
        acc.set_balance(address_of_pubkey(KEYS[ki].pubkey), 10**6)
    routers = []
    for n in range(2):
        code = vm.assemble("PUSHI 0 PUSHA 0 CALL DROP DROP HALT" + " HALT" * n)
        tx = make_deploy(KEYS[1], code, nonce=n)
        vm.deploy(acc, tx, txid(tx)).apply(acc)
        routers.append(txid(tx))
    own_slot = frozenset({(b"\x00" * 32, 0)})
    dep = make_deploy(KEYS[4], counter_code(), access=AccessDecl(storage_read=own_slot, storage_written=own_slot))
    counter = txid(dep)
    calls = [
        make_call(KEYS[2 + i], r, gas_limit=200, access=AccessDecl(callees=frozenset({counter})), address_consts=[counter])
        for i, r in enumerate(routers)
    ]
    for workers in (1, 2):
        a = acc.copy()
        outs, tel = scheduler.schedule_batch(
            a, items_for([dep] + calls), 1, DECL, workers=workers, parallel_min_gas=0
        )
        assert [o.status for o in outs] == [0, 0, 0], workers
        assert tel.waves == [[0], [1], [2]], workers
        assert a.storage_get(counter, 0) == 2, workers


def test_footprint_is_expanded_once_per_call_whose_callees_predate_the_batch(monkeypatch):
    """scheduler._wrap expands each declared call's footprint, and vm.invoke
    reuses it when every reachable callee existed before the batch. A call
    into a contract deployed in the batch is expanded again at execution."""
    acc, contracts = setup_contracts(3)
    calls = [make_call(KEYS[2 + i], c, access=counter_access(c)) for i, c in enumerate(contracts)]
    dep = make_deploy(KEYS[1], counter_code() + bytes([vm.OP_HALT]) * 3, nonce=3)
    late = make_call(KEYS[6], txid(dep), access=counter_access(txid(dep)))
    expanded = []
    real = vm.effective_footprint
    monkeypatch.setattr(vm, "effective_footprint", lambda *a: expanded.append(a[1]) or real(*a))
    outs, _ = scheduler.schedule_batch(acc, items_for(calls + [dep, late]), 1, DECL, workers=1)
    assert [o.status for o in outs] == [0] * 5
    assert sorted(expanded) == sorted(contracts + [txid(dep)] * 2)
