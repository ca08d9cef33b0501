"""Contract VM throughput: calls/s and gas/s for the burn loop, the counter
contract and the average-balance and DEX fixture contracts, in dynamic mode
and in declared mode (runtime access checks on).

Each call runs through vm.invoke against the same pre-state; the diff is
not applied, so every repetition executes identical work. The short
contracts run 25 times as many calls per timing as the burn loop. Each
contract's code is compiled once first (vm.compile_code); the size of its
generated source and the best of 20 compile times are printed with it, and
so is the best of five timings of vm.validate_code, which every deploy runs.
The same is printed for two 4 KiB codes: 455 PUSHIs, the most operand bytes
per instruction, and 4,096 DUPs, the most instructions.

Usage: python benchmarks/bench_vm.py [iterations]
"""

from __future__ import annotations

import json
import sys
import time
import timeit
from pathlib import Path

from tierledger import vm
from tierledger.model import AccessDecl, Call, Deploy, Transaction, txid

# Same programs as the test suite and the ledger benchmark.
BURN_ASM = "ARG loop: DUP NOT JUMPI end PUSHI 1 SUB JUMP loop end: HALT"
COUNTER_ASM = "PUSHI 0 PUSHI 0 SLOAD PUSHI 1 ADD SSTORE HALT"
BURN_ITERS = 800  # 6 gas per iteration, as in the contracts-declared workload
SHORT_REPEAT = 25

CALLER = b"\x01" * 32
OPERATOR = b"\x02" * 32
HOLDERS = [bytes([0x10 + i]) * 32 for i in range(4)]  # three balances and a payee
SELLER = b"\x20" * 32
ASK = 7
WORST_CODES = {
    "4k-pushi": (bytes([vm.OP_PUSHI]) + bytes(8)) * 455,
    "4k-dup": bytes([vm.OP_DUP]) * 4096,
}


def fixture_code(name: str) -> str:
    """Assembly of the contract the fixture deploys."""
    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    steps = json.loads(path.read_text(encoding="utf-8"))["steps"]
    return next(s["tx"]["code"] for s in steps if s.get("tx", {}).get("kind") == "deploy")


def setup() -> tuple[vm.Accounts, dict[str, bytes]]:
    acc = vm.Accounts()
    acc.set_balance(CALLER, 10**12)
    for i, holder in enumerate(HOLDERS[:3]):
        acc.set_balance(holder, 10 * (i + 1))
    programs = {
        "burn": BURN_ASM,
        "counter": COUNTER_ASM,
        "average": fixture_code("average_balance_contract"),
        "dex": fixture_code("dex_order_matching"),
    }
    addrs = {}
    for nonce, (name, asm) in enumerate(programs.items()):
        tx = Transaction(Deploy(vm.assemble(asm), 0, CALLER, 10_000, 0), nonce=nonce)
        diff = vm.deploy(acc, tx, txid(tx), OPERATOR)
        assert diff.outcome.committed, diff.outcome
        diff.apply(acc, OPERATOR)
        addrs[name] = txid(tx)
    acc.set_balance(addrs["average"], 100)  # pays 5 to the payee per call
    acc.set_slot(addrs["dex"], 0, ASK)  # an open ask that each call fills
    return acc, addrs


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


def compile_cost(code: bytes) -> tuple[int, float]:
    """(generated source bytes, best of 20 compile times in seconds)."""
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        vm.compile_code.__wrapped__(code)
        best = min(best, time.perf_counter() - t0)
    return len(vm.generate_source(vm.decode(code))), best


def validate_us(code: bytes) -> float:
    """Best of five: µs per vm.validate_code(code), over about 20 ms each."""
    number = max(1, 20_000 // len(code))
    return 1e6 * min(timeit.repeat(lambda: vm.validate_code(code), number=number, repeat=5)) / number


def print_validate(name: str, code: bytes) -> None:
    assert vm.validate_code(code)
    print(f"{name:8s} validate {len(code):6d} code bytes  {validate_us(code):8.2f} us")


def main() -> int:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    acc, addrs = setup()
    nonce = acc.nonces[CALLER]
    slot = frozenset({(addrs["counter"], 0)})
    dex_slot = frozenset({(addrs["dex"], 0)})
    # (arg, attached value, address constants, declaration)
    calls = {
        "burn": (BURN_ITERS, 0, (), AccessDecl()),
        "counter": (0, 0, (), AccessDecl(storage_read=slot, storage_written=slot)),
        # Average of 10, 20 and 30 is above 10: the contract pays the payee.
        "average": (10, 0, tuple(HOLDERS), AccessDecl(
            balances_read=frozenset(HOLDERS[:3]), balances_written=frozenset(HOLDERS[3:]))),
        # A bid of 10 fills the ask of 7 and refunds 3.
        "dex": (0, 10, (SELLER,), AccessDecl(
            balances_written=frozenset({SELLER}), storage_read=dex_slot, storage_written=dex_slot)),
    }
    for name, (arg, attached, consts, access) in calls.items():
        code = acc.contracts[addrs[name]].code
        print_validate(name, code)
        source_bytes, seconds = compile_cost(code)
        print(f"{name:8s} compile  {source_bytes:6d} source bytes  {seconds * 1e6:8.0f} us")
        tx = Transaction(Call(addrs[name], arg, attached, CALLER, 100_000, 0, access, consts), nonce=nonce)
        n = iterations if name == "burn" else iterations * SHORT_REPEAT
        for declared in (False, True):
            seconds, gas = bench(acc, tx, declared, n)
            mode = "declared" if declared else "dynamic"
            print(
                f"{name:8s} {mode:8s} {gas:6d} gas/call  {n / seconds:10.0f} calls/s  "
                f"{gas * n / seconds / 1e6:6.2f} Mgas/s"
            )
    for name, code in WORST_CODES.items():
        print_validate(name, code)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
