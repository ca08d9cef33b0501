"""Batch cost against state size: ms per apply_batch for one fixed
6-transaction batch, with expiry on, at 1k, 10k and 100k UTXOs, and the
share of that time spent in rules.apply_expiry.

The batch spends two coins, moves two coins into accounts and two account
amounts back out to UTXOs; five outputs expire at its epoch. The rest of
the state is filler: one output in twenty carries an expiry in a later
epoch (spread over 50 epochs), the others none. Each repetition applies
the batch to a fresh copy of the same pre-state; only apply_batch is timed.

Microbenchmarks of the state commitment follow, each the median over
the repetitions of a timed loop:
- us per Accounts.set_balance that replaces a nonzero balance, on accounts
  holding 200 live balances (a contract call's settlement writes this way)
- us per state_digest after an account write, at 1k UTXOs, so only the
  account accumulator has changed (a contract receipt's digest)
- us per entry for LtHash.add_many of 1, 2 and 128 entries, against add
  called once per entry (a pay transaction writes one or two outputs)

Last, ms per apply_batch of a fan-out batch: 10 transactions of 1,000
outputs each, with the helper process on (where libsodium is installed and
the process may use two CPUs) and with crypto.CPUS = 1, and for the median
helper batch how many of its sum jobs the helper computed, how many the
caller claimed for itself, and how many it computed while the helper held
its own. Then the same for replay_verify of a log that ends with that
batch (a coinbase, its split into the 10 coins, the fan-out), which reads
the batch file one transaction at a time while the helper starts on it.

Usage: python benchmarks/bench_state.py [repetitions]
"""

from __future__ import annotations

import mmap
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from tierledger import crypto, helper, ledger, lthash, rules, vm
from tierledger.model import (
    Lock,
    MoveToAccount,
    MoveToUtxo,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    sha256,
    txid,
)

SIZES = (1_000, 10_000, 100_000)
FANOUT_TXS, FANOUT_OUTPUTS = 10, 1_000
SUM_SOURCES = ("helper", "caller's own", "caller helping")
LIVE = 200  # live balances in the set_balance microbenchmark
LOOP = 2_000  # timed calls per repetition of a microbenchmark
EPOCH = 1
DUE = 5  # outputs expiring at EPOCH
OPERATOR = crypto.keygen(b"\x01" * 32)
ALICE = crypto.keygen(b"\x02" * 32)
BOB = crypto.keygen(b"\x03" * 32)
A_ADDR = address_of_pubkey(ALICE.pubkey)


def pay(kp: crypto.KeyPair, amount: int, expiry=None) -> Output:
    return Output(amount, Lock.pay_to_pubkey(kp.pubkey), expiry)


def utxo_signed(tx: Transaction, kp: crypto.KeyPair, n_inputs: int) -> Transaction:
    tx_id = txid(tx)
    return tx.with_witnesses(
        tuple((crypto.sign(kp.seed, crypto.utxo_signing_message(tx_id, i)),) for i in range(n_inputs))
    )


def account_signed(tx: Transaction, kp: crypto.KeyPair) -> Transaction:
    return tx.with_auth(kp.pubkey, crypto.sign(kp.seed, crypto.account_signing_message(txid(tx))))


def build_batch(coins: list[Outpoint]) -> list[Transaction]:
    return [
        utxo_signed(Transaction(UtxoSpend((coins[0],), (pay(BOB, 60), pay(ALICE, 39)))), ALICE, 1),
        utxo_signed(Transaction(UtxoSpend((coins[1],), (pay(BOB, 100),))), ALICE, 1),
        utxo_signed(Transaction(MoveToAccount((coins[2],), A_ADDR, 99)), ALICE, 1),
        utxo_signed(
            Transaction(MoveToAccount((coins[3],), address_of_pubkey(BOB.pubkey), 100)), ALICE, 1
        ),
        account_signed(Transaction(MoveToUtxo(A_ADDR, 20, (pay(ALICE, 19),)), nonce=0), ALICE),
        account_signed(Transaction(MoveToUtxo(A_ADDR, 10, (pay(BOB, 10),)), nonce=1), ALICE),
    ]


def build_state(n_utxos: int, coins: list[Outpoint]) -> ledger.LedgerState:
    state = ledger.LedgerState()
    for op in coins:
        state.put_utxo(op, pay(ALICE, 100))
    for i in range(DUE):
        state.put_utxo(Outpoint(sha256(b"due" + bytes([i])), 0), pay(BOB, 5, expiry=EPOCH))
    for i in range(n_utxos - len(coins) - DUE):
        expiry = EPOCH + 1 + i % 50 if i % 20 == 0 else None
        state.put_utxo(Outpoint(sha256(b"filler" + i.to_bytes(4, "little")), 0), pay(BOB, 1, expiry))
    state.accounts.set_balance(A_ADDR, 50)
    state.issued = state.utxo_total + state.account_total
    return state


def bench(n_utxos: int, txs: list[Transaction], coins: list[Outpoint], cfg, reps: int):
    """Median (ms per batch, ms in rules.apply_expiry) over `reps` runs."""
    base = build_state(n_utxos, coins)
    apply_expiry = rules.apply_expiry
    expiry_s = [0.0]

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return apply_expiry(*args)
        finally:
            expiry_s[0] += time.perf_counter() - t0

    rules.apply_expiry = timed
    batch_ms, expiry_ms = [], []
    try:
        for _ in range(reps):
            state = base.copy()
            expiry_s[0] = 0.0
            t0 = time.perf_counter()
            receipts, _ = ledger.apply_batch(state, txs, EPOCH, cfg, workers=1)
            batch_ms.append((time.perf_counter() - t0) * 1e3)
            expiry_ms.append(expiry_s[0] * 1e3)
            assert all(r.status == 0 for r in receipts), receipts
            assert state.expired == 5 * DUE and state.conservation_holds()
    finally:
        rules.apply_expiry = apply_expiry
    batch_ms.sort()
    expiry_ms.sort()
    return batch_ms[reps // 2], expiry_ms[reps // 2]


def bench_set_balance(reps: int) -> float:
    """Median us per set_balance that replaces a nonzero balance."""
    acc = vm.Accounts()
    addrs = [sha256(b"acct" + i.to_bytes(4, "little")) for i in range(LIVE)]
    for i, addr in enumerate(addrs):
        acc.set_balance(addr, i + 1)
    runs, bal = [], LIVE
    for _ in range(reps):
        t0 = time.perf_counter()
        for i in range(LOOP):
            bal += 1
            acc.set_balance(addrs[i % LIVE], bal)
        runs.append((time.perf_counter() - t0) / LOOP * 1e6)
    runs.sort()
    return runs[reps // 2]


def bench_digest_after_account_write(reps: int, coins: list[Outpoint]) -> float:
    """Median us per state_digest when only an account balance changed
    since the last digest; the write itself is not timed."""
    state = build_state(SIZES[0], coins)
    state_digest, perf_counter = ledger.state_digest, time.perf_counter
    runs, bal = [], 50
    for _ in range(reps):
        spent = 0.0
        for _ in range(LOOP):
            bal += 1
            state.accounts.set_balance(A_ADDR, bal)
            t0 = perf_counter()
            state_digest(state)
            spent += perf_counter() - t0
        runs.append(spent / LOOP * 1e6)
    runs.sort()
    return runs[reps // 2]


def bench_add_many(reps: int) -> dict[int, tuple[float, float]]:
    """n -> median (us per entry for add_many of n entries, for add per entry)."""
    entries = [sha256(i.to_bytes(4, "little")) * 3 for i in range(LOOP)]
    acc = lthash.LtHash()
    out = {}
    for n in (1, 2, 128):
        groups = [entries[i : i + n] for i in range(0, LOOP - LOOP % n, n)]
        many, each = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            for g in groups:
                acc.add_many(g)
            t1 = time.perf_counter()
            for g in groups:
                for e in g:
                    acc.add(e)
            t2 = time.perf_counter()
            many.append((t1 - t0) / (len(groups) * n) * 1e6)
            each.append((t2 - t1) / (len(groups) * n) * 1e6)
        out[n] = (sorted(many)[reps // 2], sorted(each)[reps // 2])
    return out


def fanout_txs(coins: list[Outpoint]) -> list[Transaction]:
    """The fan-out batch: each of ALICE's coins spent into FANOUT_OUTPUTS outputs."""
    return [
        utxo_signed(Transaction(UtxoSpend((op,), tuple(pay(BOB, 1 + i % 500) for i in range(FANOUT_OUTPUTS)))), ALICE, 1)
        for op in coins
    ]


def fanout(cfg) -> tuple[ledger.LedgerState, list[Transaction]]:
    """A state holding FANOUT_TXS coins and one batch that spends each into
    FANOUT_OUTPUTS outputs."""
    coins = [Outpoint(sha256(b"fan" + bytes([i])), 0) for i in range(FANOUT_TXS)]
    state = ledger.LedgerState()
    for op in coins:
        state.put_utxo(op, pay(ALICE, 10**9))
    state.issued = state.utxo_total
    return state, fanout_txs(coins)


def fanout_log(logdir: Path) -> None:
    """A log of three batches: the operator's coinbase, its split into
    FANOUT_TXS coins of ALICE's, and the fan-out batch that spends them."""
    cfg = rules.SystemConfig(initial_subsidy=FANOUT_TXS * 10**9, operator_pubkey=OPERATOR.pubkey)
    ledger.init_log(logdir, cfg)
    state = ledger.LedgerState()

    def commit(epoch: int, txs: list[Transaction]) -> None:
        receipts, header = ledger.apply_batch(state, txs, epoch, cfg, workers=1)
        assert all(r.status == 0 for r in receipts), receipts
        ledger.write_batch_files(logdir, header.batch_number, epoch, txs, header, receipts)

    commit(1, [])
    (coinbase,) = state.utxos
    split = utxo_signed(Transaction(UtxoSpend((coinbase,), (pay(ALICE, 10**9),) * FANOUT_TXS)), OPERATOR, 1)
    commit(2, [split])
    commit(3, fanout_txs([Outpoint(txid(split), i) for i in range(FANOUT_TXS)]))


@contextmanager
def counting_sums() -> Iterator[memoryview]:
    """Count the sum jobs computed, by SUM_SOURCES, in memory shared with a
    helper forked inside the block (the current one is stopped first, since
    a helper runs the functions it forked with)."""
    counts = memoryview(mmap.mmap(-1, 8 * len(SUM_SOURCES))).cast("q")
    real_run = helper._run

    def run(table, slot, job, claim):
        if len(job) == 1:
            own = slot == int.from_bytes(table[: helper.HEAD], "little")
            counts[0 if claim == helper.HELPING else 1 if own else 2] += 1
        return real_run(table, slot, job, claim)

    stop_helper()
    helper._run = run
    try:
        yield counts
    finally:
        stop_helper()
        helper._run = real_run


def stop_helper() -> None:
    """Close the helper's pipe, so that it exits, and forget it."""
    running, helper._helper = helper._helper, None
    if running is not None:
        running[1].close()
        running[0].join(10)


def timed_with_helper_on_and_off(run: Callable[[], bytes], reps: int) -> dict:
    """on -> the median of reps timed calls of run, as (ms, sum jobs by
    SUM_SOURCES, the hash run returns), with the helper on where it can run
    (True) and with crypto.CPUS = 1 (False). Every run must return one hash."""
    cpus = crypto.CPUS
    results = {}
    try:
        for on in (True, False) if cpus >= 2 and crypto._sodium_verify() is not None else (False,):
            crypto.CPUS = cpus if on else 1
            with counting_sums() as counts:
                runs = []
                for _ in range(reps):
                    before = counts.tolist()
                    t0 = time.perf_counter()
                    result = run()
                    ms = (time.perf_counter() - t0) * 1e3
                    # The helper may still be finishing the batch, so read
                    # after the next one has waited for its acknowledgement.
                    with helper.split([], list):
                        runs.append((ms, [a - b for a, b in zip(counts.tolist(), before)], result))
            runs.sort(key=lambda run: run[0])
            results[on] = runs[reps // 2]
    finally:
        crypto.CPUS = cpus
    if len({run[2] for run in results.values()}) != 1:
        raise SystemExit("fan-out: the result depends on the helper")
    return results


def print_fanout(name: str, results: dict) -> None:
    if True in results:
        ms, counts, _ = results[True]
        sources = ", ".join(f"{source} {n}" for source, n in zip(SUM_SOURCES, counts))
        print(f"{name}, helper on   {ms:8.1f} ms; sum jobs: {sources}")
    else:
        print(f"{name}: the helper needs libsodium and two CPUs; CPUS=1 only")
    print(f"{name}, CPUS=1      {results[False][0]:8.1f} ms")


def bench_fanout(cfg, reps: int) -> None:
    base, txs = fanout(cfg)

    def apply() -> bytes:
        state = base.copy()
        receipts, header = ledger.apply_batch(state, txs, EPOCH, cfg, workers=1)
        assert all(r.status == 0 for r in receipts) and state.conservation_holds()
        return header.hash()

    name = f"fan-out {FANOUT_TXS} x {FANOUT_OUTPUTS} outputs"
    print_fanout(f"{name}, apply_batch", timed_with_helper_on_and_off(apply, reps))
    with tempfile.TemporaryDirectory() as logdir:
        fanout_log(Path(logdir))

        def replay() -> bytes:
            report = ledger.replay_verify(logdir)
            assert report.ok, report
            return bytes.fromhex(report.digest)

        print_fanout(f"{name}, replay of its log", timed_with_helper_on_and_off(replay, reps))


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 21
    cfg = rules.SystemConfig(expiry_enabled=True, initial_subsidy=0, operator_pubkey=OPERATOR.pubkey)
    coins = [Outpoint(sha256(b"coin" + bytes([i])), 0) for i in range(4)]
    txs = build_batch(coins)
    for n in SIZES:
        batch_ms, expiry_ms = bench(n, txs, coins, cfg, reps)
        print(
            f"{n:7d} utxos  {batch_ms:8.3f} ms/batch  {expiry_ms:8.3f} ms apply_expiry  "
            f"share {expiry_ms / batch_ms:5.3f}"
        )
    print(f"set_balance on an existing balance  {bench_set_balance(reps):8.3f} us/call ({LIVE} live)")
    digest_us = bench_digest_after_account_write(reps, coins)
    print(f"state_digest, UTXO side unchanged   {digest_us:8.3f} us/call ({SIZES[0]} utxos)")
    for n, (many, each) in bench_add_many(reps).items():
        print(f"add_many of {n:3d} entries           {many:8.3f} us/entry, add {each:8.3f} us/entry")
    bench_fanout(cfg, reps)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
