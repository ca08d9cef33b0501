"""Process-pool crossover: one wave of 8 conflict-free burn calls run
inline against the same wave on the forked pool, over a range of wave gas
sizes. scheduler.PARALLEL_MIN_GAS should sit at the smallest size from
which the pool wins in every round.

Each call goes to its own burn contract (distinct code), from its own
caller, with an empty declaration, so the 8 calls form one wave. Each run
applies the wave to a fresh copy of the same pre-state through
scheduler.schedule_batch; only schedule_batch is timed. Inline runs use
workers=1; pool runs use the given workers and parallel_min_gas=0, so the
fork is paid on every run. The speed is inline time / pool time, from the
best of `repeats` runs per side, in each of `rounds` rounds.

Usage: python benchmarks/bench_pool.py [rounds] [workers] [repeats]
"""

from __future__ import annotations

import sys
import time

from tierledger import rules, scheduler, vm
from tierledger.model import AccessDecl, Call, Deploy, Transaction, txid

BURN_ASM = "ARG loop: DUP NOT JUMPI end PUSHI 1 SUB JUMP loop end: HALT"
CALLS = 8
WAVE_GAS = [768_000, 1_536_000, 3_072_000, 4_608_000, 6_144_000, 12_288_000]
CFG = rules.SystemConfig(access_mode=rules.ACCESS_DECLARED)
OPERATOR = CFG.operator_address
DEPLOYER = b"\x01" * 32
CALLERS = [bytes([0x40 + i]) * 32 for i in range(CALLS)]


def setup() -> tuple[vm.Accounts, list[bytes]]:
    acc = vm.Accounts()
    acc.set_balance(DEPLOYER, 10**9)
    contracts = []
    for i in range(CALLS):
        # Trailing HALTs make each code distinct, as distinct contracts are.
        code = vm.assemble(BURN_ASM) + bytes([vm.OP_HALT]) * i
        tx = Transaction(Deploy(code, 0, DEPLOYER, 10_000, 0), nonce=i)
        diff = vm.deploy(acc, tx, txid(tx), OPERATOR)
        assert diff.outcome.committed, diff.outcome
        diff.apply(acc, OPERATOR)
        contracts.append(txid(tx))
    for caller in CALLERS:
        acc.set_balance(caller, 10**9)
    return acc, contracts


def wave(contracts: list[bytes], wave_gas: int) -> list[tuple[Transaction, bytes]]:
    arg = wave_gas // CALLS // 6  # the burn loop costs 6 gas per iteration
    txs = [Transaction(Call(c, arg, 0, caller, 6 * arg + 100, 0, AccessDecl()), nonce=0)
           for c, caller in zip(contracts, CALLERS)]
    return [(tx, txid(tx)) for tx in txs]


def best(acc: vm.Accounts, items, workers: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        state = acc.copy()
        t0 = time.perf_counter()
        outcomes, telemetry = scheduler.schedule_batch(state, items, 1, CFG, workers=workers, parallel_min_gas=0)
        times.append(time.perf_counter() - t0)
        assert all(o.committed for o in outcomes), outcomes
        assert telemetry.parallel_waves == (workers > 1)
    return min(times)


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else scheduler.DEFAULT_WORKERS
    repeats = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    if workers < 2:
        print("the pool needs at least 2 workers")
        return 2
    acc, contracts = setup()
    print(f"{CALLS} calls per wave, {workers} workers, best of {repeats}; "
          f"PARALLEL_MIN_GAS = {scheduler.PARALLEL_MIN_GAS:,}")
    for wave_gas in WAVE_GAS:
        items = wave(contracts, wave_gas)
        speeds, inline_ms, pool_ms = [], [], []
        for _ in range(rounds):
            t_inline = best(acc, items, 1, repeats)
            t_pool = best(acc, items, workers, repeats)
            speeds.append(t_inline / t_pool)
            inline_ms.append(t_inline * 1e3)
            pool_ms.append(t_pool * 1e3)
        print(f"{wave_gas:>10,} gas  inline {min(inline_ms):7.1f}-{max(inline_ms):7.1f} ms  "
              f"pool {min(pool_ms):7.1f}-{max(pool_ms):7.1f} ms  "
              f"speed {' '.join(f'{s:.2f}' for s in speeds)}  "
              f"inline {wave_gas / min(inline_ms) / 1e3:5.1f} Mgas/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
