"""Acceptance gate: nine end-to-end criteria, one test (one pass/fail line
under pytest -v) per criterion. Each runs against the real ledger pipeline
and, where a derived value is checked, an independent oracle."""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

from helpers import (
    BURN_ASM,
    COUNTER_GAS,
    KEYS,
    OPERATOR,
    RandomLedger,
    burn_code,
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
from oracles import multisig_oracle, straight_line_eval
from tierledger import codes, crypto, ledger, scenario, scheduler, script, utxo, vm
from tierledger.model import (
    AccessDecl,
    Level,
    Lock,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    classify_level,
    sha256,
    txid,
)
from tierledger.rules import ACCESS_DECLARED
from tierledger.script import ScriptContext, assemble, execute
from tierledger.script.opcodes import MAX_STEPS

FIXTURES = sorted(Path(__file__).resolve().parent.parent.glob("fixtures/*.json"))

ALICE, BOB = KEYS[1], KEYS[2]
A_ADDR = address_of_pubkey(ALICE.pubkey)


# -- criterion 1: conservation under randomized mixed workloads ---------------


def test_criterion_1_conservation_50_random_scenarios():
    start = time.monotonic()
    levels_seen: set[Level] = set()
    moves_seen = 0
    for seed in range(50):
        rl = RandomLedger(seed=seed)
        rl.bootstrap()
        check_conservation(rl.state)
        while rl.txs_applied < 1000:
            txs = rl.build_batch(45)
            moves_seen += sum(
                1 for tx in txs if type(tx.kind).__name__ in ("MoveToAccount", "MoveToUtxo")
            )
            receipts, _ = ledger.apply_batch(
                rl.state, txs, rl.state.epoch + 1, rl.cfg, workers=1
            )
            rl.txs_applied += len(txs)
            levels_seen.update(r.level for r in receipts)
            check_conservation(rl.state)  # exact, after every batch
        assert rl.txs_applied >= 1000
        assert rl.state.expired > 0  # expiry actually exercised
    elapsed = time.monotonic() - start
    assert levels_seen == {Level.L1, Level.L1_5, Level.L2, Level.L3}
    assert moves_seen > 0
    assert elapsed < 30.0, f"50 scenarios took {elapsed:.1f}s (budget 30s)"


# -- criterion 2: replay verification and mutation detection ------------------


def _logged_corpus(tmp_path: Path) -> list[Path]:
    dirs = []
    for seed in range(3):
        logdir = tmp_path / f"rand_{seed}"
        rl = RandomLedger(seed=100 + seed, logdir=logdir)
        rl.bootstrap()
        for _ in range(2):
            rl.run_batch(15)
        dirs.append(logdir)
    for fx in FIXTURES:
        logdir = tmp_path / f"fx_{fx.stem}"
        ok, report = scenario.run_scenario(fx, logdir=logdir, workers=1)
        assert ok, report["assertions"]
        dirs.append(logdir)
    return dirs


def test_criterion_2_replay_and_1000_mutations(tmp_path):
    dirs = _logged_corpus(tmp_path)
    # Part A: every log replays byte-identically in a separate process.
    for d in dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "tierledger.cli", "replay", str(d)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, (d, proc.stdout, proc.stderr)

    # Part B: 1000 single-byte mutations, each detected at the right batch.
    rng = random.Random(2024)
    targets = []
    for d in dirs[:3]:  # the randomized logs: richest content
        for f in sorted(d.iterdir()):
            m = re.match(r"(?:batch|header)_(\d{6})\.json$", f.name)
            expected = {int(m.group(1))} if m else {-1, 0}  # genesis: the
            # chain first disagrees either at the file itself or at batch 0
            # when the edit round-trips to a parseable config
            targets.append((f, expected))
    detected = 0
    for k in range(1000):
        path, expected_batches = targets[k % len(targets)]
        original = path.read_bytes()
        pos = rng.randrange(len(original))
        new = rng.randrange(256)
        while new == original[pos]:
            new = rng.randrange(256)
        path.write_bytes(original[:pos] + bytes([new]) + original[pos + 1 :])
        try:
            report = ledger.replay_verify(path.parent)
            assert not report.ok, f"false pass: {path.name} byte {pos} -> {new}"
            assert report.batch in expected_batches, (
                f"{path.name} byte {pos}: detected at batch {report.batch}, "
                f"expected {expected_batches} ({report})"
            )
            detected += 1
        finally:
            path.write_bytes(original)
    assert detected == 1000
    for d in dirs[:3]:  # restored logs still replay clean
        assert ledger.replay_verify(d).ok


# -- criterion 3: multisig against the brute-force oracle ---------------------


def test_criterion_3_multisig_exhaustive_vs_oracle():
    start = time.monotonic()
    msg = sha256(b"acceptance-multisig")
    sigs = [crypto.sign(kp.seed, msg) for kp in KEYS[:5]]
    cases = 0
    for n in range(1, 6):
        pubkeys = [kp.pubkey for kp in KEYS[:n]]
        for m in range(1, n + 1):
            for picks in itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(n + 1)
            ):
                subset = [sigs[i] for i in picks]  # key order preserved
                for order in (subset, subset[::-1]):
                    got = crypto.check_multisig(m, pubkeys, order, msg)
                    want = multisig_oracle(m, pubkeys, order, msg)
                    assert got == want, (n, m, picks, order is subset)
                    cases += 1
                    if len(subset) < 2:
                        break  # reversed order is identical
    assert cases > 2 * sum(2 ** n for n in range(1, 6))  # exhaustive coverage
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"exhaustive multisig took {elapsed:.1f}s (budget 10s)"


# -- criterion 4: script interpreter vs straight-line oracle and fuzzing ------


def test_criterion_4_script_differential_and_adversarial_fuzz():
    from helpers import random_adversarial_program, random_branch_free_script

    rng = random.Random(4242)
    for i in range(10_000):
        code, witness, ctx_kw = random_branch_free_script(rng)
        res = execute(code, witness, ScriptContext(**ctx_kw))
        ok, reason = straight_line_eval(
            code, witness, ctx_kw["signing_message"], ctx_kw["not_before"],
            ctx_kw["spend_script_hashes"], ctx_kw["covenants_enabled"],
        )
        assert (res.success, res.reason) == (ok, reason), (i, code.hex())
    for i in range(10_000):
        code, witness = random_adversarial_program(rng)
        res = execute(code, witness, ScriptContext())
        assert isinstance(res.success, bool)
        assert res.steps <= MAX_STEPS + 1, (i, res.steps)


# -- criterion 5: covenant soundness by enumeration ----------------------------


def test_criterion_5_covenant_spends_never_escape_allowed_set():
    cfg = make_config()
    target_locks = [
        Lock.pay_to_pubkey(ALICE.pubkey),
        Lock.pay_to_pubkey(BOB.pubkey),
        Lock.multisig(1, [ALICE.pubkey]),
        Lock.pay_to_script(assemble("TRUE")),
        Lock.pay_to_script(assemble("PUSH(ab) EQUALVERIFY TRUE")),
    ]
    witnesses = [(), (b"\x01",), (b"\xab",), (b"\x00" * 64,)]
    checked = accepted = 0
    for k in (1, 2):
        allowed = [sha256(lk.serialize()) for lk in target_locks[:k]]
        text = " ".join(f"PUSH({h.hex()})" for h in allowed) + f" PUSH(0{k}) COVENANT TRUE"
        cov_lock = Lock.pay_to_script(assemble(text))
        for n_out in (1, 2):
            for combo in itertools.product(range(len(target_locks)), repeat=n_out):
                outs = tuple(Output(10, target_locks[ci]) for ci in combo)
                for wit in witnesses:
                    op = utxo.Outpoint(sha256(b"cov" + bytes([k, n_out]) + bytes(combo)), 0)
                    utxos = {op: Output(10 * n_out, cov_lock)}
                    tx = Transaction(UtxoSpend((op,), outs)).with_witnesses((wit,))
                    status, _ = utxo.validate_spend(tx, txid(tx), utxos, 1, cfg)
                    checked += 1
                    if status == utxo.OK:
                        accepted += 1
                        spent_to = {sha256(o.lock.serialize()) for o in outs}
                        assert spent_to <= set(allowed), (k, combo)  # soundness
                    elif all(ci < k for ci in combo) and wit == ():
                        raise AssertionError(f"allowed spend rejected: {k} {combo} {status}")
    assert checked == 2 * (5 + 25) * 4
    assert accepted > 0


# -- criterion 6: declared-mode parallelism -----------------------------------


def _contract_fleet(n: int, code: bytes, cfg) -> tuple[ledger.LedgerState, list[bytes]]:
    state = ledger.LedgerState()
    for kp in KEYS:
        seed_balance(state, address_of_pubkey(kp.pubkey), 10_000_000)
    deploys = [
        make_deploy(KEYS[1], code + bytes([vm.OP_HALT]) * i, nonce=i, gas_limit=5000)
        for i in range(n)
    ]
    receipts, _ = ledger.apply_batch(state, deploys, 1, cfg, workers=1)
    assert all(r.status == 0 for r in receipts)
    return state, [txid(d) for d in deploys]


def _counter_access(contract: bytes) -> AccessDecl:
    return AccessDecl(
        storage_read=frozenset({(contract, 0)}),
        storage_written=frozenset({(contract, 0)}),
    )


def test_criterion_6_declared_equals_serial_with_real_concurrency():
    decl = make_config(access_mode=ACCESS_DECLARED, initial_subsidy=0)
    dyn = make_config(initial_subsidy=0)
    base_decl, contracts = _contract_fleet(6, counter_code(), decl)
    base_dyn = base_decl.copy()
    burn_base, burn_contracts = _contract_fleet(4, burn_code(), decl)

    rng = random.Random(66)
    telemetry: list[scheduler.Telemetry] = []
    for trial in range(100):
        if trial == 0:
            # Conflict-free heavyweight batch, forced onto the pool: the
            # telemetry demonstration that >= 2 transactions actually ran
            # concurrently. Each call takes a quarter of the wave gas that
            # pays for a fork (6 gas per loop iteration).
            sa, sb = burn_base.copy(), burn_base.copy()
            arg = scheduler.PARALLEL_MIN_GAS // 4 // 6
            txs = [
                make_call(KEYS[2 + i], c, nonce=0, arg=arg, gas_limit=6 * arg + 5_000,
                          access=AccessDecl())
                for i, c in enumerate(burn_contracts)
            ]
            min_gas = 0
        else:
            sa, sb = base_decl.copy(), base_dyn.copy()
            nonces: dict[bytes, int] = {}
            txs = []
            for _ in range(rng.randint(6, 14)):
                kp = KEYS[rng.randint(2, 9)]
                addr = address_of_pubkey(kp.pubkey)
                c = rng.choice(contracts)
                n = nonces.get(addr, 0)
                nonces[addr] = n + 1
                txs.append(make_call(kp, c, nonce=n, gas_limit=rng.choice([25, 19]),
                                     gas_price=rng.choice([0, 2]), access=_counter_access(c)))
            min_gas = 0 if trial % 3 == 0 else scheduler.PARALLEL_MIN_GAS
        ra, _ = ledger.apply_batch(sa, txs, 2, decl, workers=4, parallel_min_gas=min_gas,
                                   collect_telemetry=telemetry)
        rb, _ = ledger.apply_batch(sb, txs, 2, dyn, workers=1)
        assert [(r.tx_id, r.status, r.gas_used) for r in ra] == [
            (r.tx_id, r.status, r.gas_used) for r in rb
        ], trial
        assert ledger.state_digest(sa) == ledger.state_digest(sb), trial
        assert ledger.state_digest(sa) == ledger.recompute_state_digest(sa), trial
        assert ledger.state_digest(sb) == ledger.recompute_state_digest(sb), trial

    concurrent = [t for t in telemetry if t.parallel_waves and t.max_concurrency() >= 2]
    assert concurrent, "no batch demonstrated >= 2 concurrent transactions"
    assert any(len(set(t.worker_pids.values())) >= 2 for t in telemetry)

    # Timing: 32 conflict-free transactions, 4 workers vs serial, on a wave
    # of TIMING_WAVE_MIN_GAS_MULTIPLE times the gas from which the
    # scheduler forks a pool at all (6 gas per burn-loop iteration).
    timing_base, timing_contracts = _timing_fleet()
    arg = int(TIMING_WAVE_MIN_GAS_MULTIPLE * scheduler.PARALLEL_MIN_GAS) // (32 * 6)
    txs = [
        make_call(_extra_key(i), c, nonce=0, arg=arg, gas_limit=6 * arg + 5_000, access=AccessDecl())
        for i, c in enumerate(timing_contracts)
    ]
    items = [(tx, txid(tx)) for tx in txs]

    def run_once(workers: int) -> float:
        acc = timing_base.accounts.copy()
        t0 = time.perf_counter()
        outcomes, _ = scheduler.schedule_batch(
            acc, items, 2, make_config(access_mode=ACCESS_DECLARED),
            workers=workers, parallel_min_gas=0,
        )
        assert all(o.status == 0 for o in outcomes)
        return time.perf_counter() - t0

    t_par = min(run_once(4) for _ in range(3))
    t_ser = min(run_once(1) for _ in range(3))
    speedup = t_ser / t_par
    # Tolerance clause: never slower than serial by more than 10%.
    assert t_par <= 1.10 * t_ser, f"parallel {t_par:.3f}s vs serial {t_ser:.3f}s"
    assert speedup >= 1.3, (
        f"speedup {speedup:.2f}x (parallel {t_par:.3f}s, serial {t_ser:.3f}s) with "
        f"{len(os.sched_getaffinity(0))} CPUs available to this process; this clause "
        f"is sensitive to host load: other work on the same CPUs slows the fork pool's "
        f"workers, and with a single CPU fork-based workers cannot beat serial execution"
    )


TIMING_WAVE_MIN_GAS_MULTIPLE = 2.5


def _extra_key(i: int) -> crypto.KeyPair:
    return crypto.keygen(bytes([40 + i]) * 32)


def _timing_fleet() -> tuple[ledger.LedgerState, list[bytes]]:
    cfg = make_config(access_mode=ACCESS_DECLARED, initial_subsidy=0)
    state = ledger.LedgerState()
    for i in range(32):
        seed_balance(state, address_of_pubkey(_extra_key(i).pubkey), 1_000_000)
    seed_balance(state, A_ADDR, 10_000_000)
    deploys = [
        make_deploy(ALICE, burn_code() + bytes([vm.OP_HALT]) * i, nonce=i, gas_limit=5000)
        for i in range(32)
    ]
    receipts, _ = ledger.apply_batch(state, deploys, 1, cfg, workers=1)
    assert all(r.status == 0 for r in receipts)
    return state, [txid(d) for d in deploys]


# -- criterion 7: level gating matrix ------------------------------------------


def test_criterion_7_level_gating_matrix():
    script_lock = Lock.pay_to_script(assemble(f"PUSH({ALICE.pubkey.hex()}) CHECKSIG"))
    base = ledger.LedgerState()
    coins = [seed_utxo(base, p2pk(ALICE, 100)) for _ in range(3)]
    script_coin = seed_utxo(base, Output(100, script_lock))
    move_coin = seed_utxo(base, p2pk(ALICE, 100))
    seed_balance(base, A_ADDR, 1000)

    spend_script = Transaction(UtxoSpend((script_coin,), (p2pk(BOB, 100),)))
    sig = crypto.sign(ALICE.seed, crypto.utxo_signing_message(txid(spend_script), 0))
    spend_script = spend_script.with_witnesses(((sig,),))
    dep = make_deploy(ALICE, counter_code(), nonce=0, gas_limit=31)
    fixtures = [
        (signed_spend(ALICE, [coins[0]], [p2pk(BOB, 100)]), Level.L1),
        (signed_spend(ALICE, [coins[1]], [p2pk(BOB, 100)], not_after=5), Level.L1_5),
        (spend_script, Level.L2),
        (signed_spend(ALICE, [coins[2]], [Output(100, script_lock)]), Level.L2),
        (dep, Level.L3),
        (make_call(ALICE, txid(dep), nonce=1, gas_limit=25), Level.L3),
        (make_move_to_account(ALICE, [move_coin], 100), Level.L3),
        (make_move_to_utxo(ALICE, 50, [p2pk(ALICE, 50)], nonce=2), Level.L3),
    ]
    txs = [tx for tx, _ in fixtures]
    for tx, want in fixtures:
        assert classify_level(tx, base.utxos) == want

    def run_with(max_level: Level) -> list[int]:
        cfg = make_config(max_level=max_level, initial_subsidy=0)
        state = base.copy()
        receipts, _ = ledger.apply_batch(state, txs, 1, cfg, workers=1)
        check_conservation(state)
        return [r.status for r in receipts]

    baseline = run_with(Level.L3)
    assert baseline == [0] * len(fixtures)
    for max_level in (Level.L1, Level.L1_5, Level.L2, Level.L3):
        got = run_with(max_level)
        for (tx, lvl), base_status, status in zip(fixtures, baseline, got):
            if lvl <= max_level:
                assert status == base_status, (max_level, lvl)  # identical validation
            else:
                assert status == codes.LEVEL_EXCEEDS_CONFIG, (max_level, lvl)


# -- criterion 8: worked-example scenario fixtures -----------------------------


def test_criterion_8_fixture_scenarios_pass(tmp_path):
    assert len(FIXTURES) == 5, FIXTURES
    for fx in FIXTURES:
        ok, report = scenario.run_scenario(fx, logdir=tmp_path / fx.stem, workers=1)
        failed = [a for a in report["assertions"] if not a["ok"]]
        assert ok and not failed, (fx.name, failed)
        assert report["assertions"], fx.name  # each fixture actually asserts
        assert ledger.replay_verify(tmp_path / fx.stem).ok


# -- criterion 9: exact gas metering --------------------------------------------


def test_criterion_9_gas_hand_sums_and_out_of_gas():
    cfg = make_config(initial_subsidy=0)
    state = ledger.LedgerState()
    seed_balance(state, A_ADDR, 1_000_000)

    # Hand-summed tables, written out opcode by opcode.
    counter_table = [
        ("PUSHI", 1), ("PUSHI", 1), ("SLOAD", 5), ("PUSHI", 1),
        ("ADD", 1), ("SSTORE", 10), ("HALT", 1),
    ]
    counter_expected = sum(g for _, g in counter_table)
    assert counter_expected == COUNTER_GAS

    n = 7  # burn loop iterations
    burn_expected = (
        1  # ARG
        + n * (1 + 1 + 1 + 1 + 1 + 1)  # DUP NOT JUMPI PUSHI SUB JUMP
        + (1 + 1 + 1 + 1)  # final DUP NOT JUMPI HALT
    )

    dep_counter = make_deploy(ALICE, counter_code(), nonce=0, gas_limit=5000, gas_price=3)
    dep_burn = make_deploy(ALICE, burn_code(), nonce=1, gas_limit=5000, gas_price=3)
    call_counter = make_call(ALICE, txid(dep_counter), nonce=2, gas_limit=counter_expected,
                             gas_price=2)
    call_burn = make_call(ALICE, txid(dep_burn), nonce=3, arg=n, gas_limit=burn_expected,
                          gas_price=2)
    receipts, _ = ledger.apply_batch(
        state, [dep_counter, dep_burn, call_counter, call_burn], 1, cfg, workers=1
    )
    assert [r.status for r in receipts] == [0, 0, 0, 0]
    assert receipts[0].gas_used == len(counter_code())  # deploy gas = code size
    assert receipts[1].gas_used == len(burn_code())
    assert receipts[2].gas_used == counter_expected
    assert receipts[3].gas_used == burn_expected

    # One unit short: OutOfGas, full rollback except the fee, full limit charged.
    before_balance = state.accounts.balance(A_ADDR)
    before_storage = state.accounts.storage_get(txid(dep_counter), 0)
    before_operator = state.accounts.balance(cfg.operator_address)
    short = make_call(ALICE, txid(dep_counter), nonce=4, gas_limit=counter_expected - 1,
                      gas_price=2)
    receipts, _ = ledger.apply_batch(state, [short], 2, cfg, workers=1)
    r = receipts[0]
    assert r.status == vm.STATUS_OUT_OF_GAS
    assert r.gas_used == counter_expected - 1  # the whole limit is consumed
    fee = 2 * (counter_expected - 1)
    assert state.accounts.balance(A_ADDR) == before_balance - fee
    assert state.accounts.balance(cfg.operator_address) == before_operator + fee
    assert state.accounts.storage_get(txid(dep_counter), 0) == before_storage  # rolled back
    assert state.accounts.nonces[A_ADDR] == 5  # executed transactions advance the nonce
    check_conservation(state)
