"""Contract VM throughput: gas/s for the burn loop and the counter contract,
in dynamic mode and in declared mode (runtime access checks on).

Each call runs through vm.invoke against the same pre-state; the diff is
not applied, so every repetition executes identical work.

Usage: python benchmarks/bench_vm.py [iterations]
"""

from __future__ import annotations

import sys
import time

from tierledger import vm
from tierledger.model import AccessDecl, Call, Deploy, Transaction, txid

# Same programs as the test suite and the ledger benchmark.
BURN_ASM = "ARG loop: DUP NOT JUMPI end PUSHI 1 SUB JUMP loop end: HALT"
COUNTER_ASM = "PUSHI 0 PUSHI 0 SLOAD PUSHI 1 ADD SSTORE HALT"
BURN_ITERS = 800  # 6 gas per iteration, as in the contracts-declared workload

CALLER = b"\x01" * 32
OPERATOR = b"\x02" * 32


def setup() -> tuple[vm.Accounts, bytes, bytes]:
    acc = vm.Accounts()
    acc.set_balance(CALLER, 10**12)
    addrs = []
    for nonce, asm in enumerate((BURN_ASM, COUNTER_ASM)):
        tx = Transaction(Deploy(vm.assemble(asm), 0, CALLER, 10_000, 0), nonce=nonce)
        diff = vm.deploy(acc, tx, txid(tx), OPERATOR)
        assert diff.outcome.committed, diff.outcome
        diff.apply(acc, OPERATOR)
        addrs.append(txid(tx))
    return acc, addrs[0], addrs[1]


def bench(acc: vm.Accounts, tx: Transaction, declared: bool, iterations: int) -> tuple[float, int]:
    """Best of three: (seconds for `iterations` calls, gas per call)."""
    tx_id = txid(tx)
    best, gas = float("inf"), 0
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(iterations):
            diff = vm.invoke(acc, tx, tx_id, 1, OPERATOR, declared)
        best = min(best, time.perf_counter() - t0)
        assert diff.outcome.committed, diff.outcome
        gas = diff.outcome.gas_used
    return best, gas


def main() -> int:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    acc, burner, counter = setup()
    nonce = acc.nonces[CALLER]
    slot = frozenset({(counter, 0)})
    calls = {
        "burn": (burner, BURN_ITERS, AccessDecl()),
        "counter": (counter, 0, AccessDecl(storage_read=slot, storage_written=slot)),
    }
    for name, (contract, arg, access) in calls.items():
        tx = Transaction(Call(contract, arg, 0, CALLER, 100_000, 0, access), nonce=nonce)
        for declared in (False, True):
            seconds, gas = bench(acc, tx, declared, iterations)
            mode = "declared" if declared else "dynamic"
            print(
                f"{name:8s} {mode:8s} {gas:6d} gas/call  {iterations / seconds:10.0f} calls/s  "
                f"{gas * iterations / seconds / 1e6:6.2f} Mgas/s"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
