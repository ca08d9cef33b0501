"""Batch cost against state size: ms per apply_batch for one fixed
6-transaction batch, with expiry on, at 1k, 10k and 100k UTXOs, and the
share of that time spent in rules.apply_expiry.

The batch spends two coins, moves two coins into accounts and two account
amounts back out to UTXOs; five outputs expire at its epoch. The rest of
the state is filler: one output in twenty carries an expiry in a later
epoch (spread over 50 epochs), the others none. Each repetition applies
the batch to a fresh copy of the same pre-state; only apply_batch is timed.

Two microbenchmarks of the state commitment follow, each the median over
the repetitions of a timed loop:
- us per Accounts.set_balance that replaces a nonzero balance, on accounts
  holding 200 live balances (a contract call's settlement writes this way)
- us per state_digest after an account write, at 1k UTXOs, so only the
  account accumulator has changed (a contract receipt's digest)

Usage: python benchmarks/bench_state.py [repetitions]
"""

from __future__ import annotations

import sys
import time

from tierledger import crypto, ledger, rules, vm
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
