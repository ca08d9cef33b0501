"""Contract VM throughput: calls/s and gas/s for the burn loop, the counter
contract and the average-balance and DEX fixture contracts, in dynamic mode
and in declared mode (runtime access checks on).

Each call runs through vm.invoke against the same pre-state; the diff is
not applied, so every repetition executes identical work. Each row is the
best of [iterations] short windows: one burn call (about 2 ms), or 25 calls
of a short contract, since a short window is the least likely to take in a
burst of load from elsewhere on the host; the rows take turns window by
window, so that each samples the whole run. The size
of each contract's generated source and the best of 20 compile times
(vm.compile_code) are printed with it.

Then, each the best of five runs unless it says otherwise:
- cold: with the compile cache cleared, µs for vm.deploy, for the first
  call to the deployed code, and for the two together, on the four
  contracts and four 4 KiB codes: 455 PUSHIs (the most operand bytes per
  instruction), 4,096 DUPs (the most instructions), 1,021 two-op blocks
  between two HALTs (the most blocks) and 1,023 two-op self-loops after a
  HALT (the most loops, and the slowest compile);
- nested calls: ns per gas of a loop that stores a slot and calls a HALT
  contract each pass, at 1,000 and 16,000 passes;
- cycling: operator µs per call, and per unit of gas used, of calls with
  gas_limit 100 that cycle through 65 distinct 4 KiB block codes, one more
  than the compile cache holds, and through 65 distinct 4 KiB loop codes;
- SSTORE commit, one run: µs and resident bytes per new slot for
  StateDiff.apply of one call that stores 100,000 slots (18 gas each) and
  the account digest that folds their LtHash entries, and ns per gas of
  that commit;
- per-op: ns per gas of the burn loop with no compiled arms, so that every
  op runs through the per-op loop in vm._Machine.run_frame; the best of
  [iterations] single calls (about 2 ms each), since a short window is the
  least likely to take in a burst of load from elsewhere on the host.

Usage: python benchmarks/bench_vm.py [iterations]
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

from tierledger import vm
from tierledger.model import AccessDecl, Call, Deploy, Transaction, txid

# Same programs as the test suite and the ledger benchmark.
BURN_ASM = "ARG loop: DUP NOT JUMPI end PUSHI 1 SUB JUMP loop end: HALT"
COUNTER_ASM = "PUSHI 0 PUSHI 0 SLOAD PUSHI 1 ADD SSTORE HALT"
BURN_ITERS = 800  # 6 gas per iteration, as in the contracts-declared workload
SHORT_REPEAT = 25

CALLER = b"\x01" * 32
HOLDERS = [bytes([0x10 + i]) * 32 for i in range(4)]  # three balances and a payee
SELLER = b"\x20" * 32
ASK = 7
NESTED_ASM = ("ARG loop: DUP NOT JUMPI end DUP DUP SSTORE PUSHI 0 PUSHA 0 CALL DROP DROP "
              "PUSHI 1 SUB JUMP loop end: HALT")
STORE_ASM = "ARG loop: DUP NOT JUMPI end DUP DUP SSTORE PUSHI 1 SUB JUMP loop end: HALT"
STORE_SLOTS = 100_000
CYCLE_CODES = 65


def short_blocks(tag: int) -> bytes:
    """HALT, PUSHI tag, 1,021 blocks of `DUP JUMPI <next block>`, HALT:
    4,095 bytes, and the slowest compile of the block shapes tried."""
    blocks = " ".join(f"b{i}: DUP JUMPI b{i + 1}" for i in range(1021))
    return vm.assemble(f"HALT PUSHI {tag} {blocks} b1021: HALT")


def self_loops(tag: int) -> bytes:
    """HALT, PUSHA tag, 1,023 self-loops `lN: DUP JUMPI lN`: 4,095 bytes,
    and the slowest compile of the loop shapes tried."""
    loops = " ".join(f"l{i}: DUP JUMPI l{i}" for i in range(1023))
    return vm.assemble(f"HALT PUSHA {tag} {loops}")


WORST_CODES = {
    "4k-pushi": (bytes([vm.OP_PUSHI]) + bytes(8)) * 455,
    "4k-dup": bytes([vm.OP_DUP]) * 4096,
    "4k-block": short_blocks(0),
    "4k-loop": self_loops(0),
}


def fixture_code(name: str) -> str:
    """Assembly of the contract the fixture deploys."""
    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    steps = json.loads(path.read_text(encoding="utf-8"))["steps"]
    return next(s["tx"]["code"] for s in steps if s.get("tx", {}).get("kind") == "deploy")


def deploy_tx(acc: vm.Accounts, code: bytes) -> Transaction:
    return Transaction(Deploy(code, 0, CALLER, 10_000, 0), nonce=acc.nonces.get(CALLER, 0))


def deployed(acc: vm.Accounts, code: bytes) -> bytes:
    tx = deploy_tx(acc, code)
    diff = vm.deploy(acc, tx, txid(tx))
    assert diff.outcome.committed, diff.outcome
    diff.apply(acc)
    return txid(tx)


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
    addrs = {name: deployed(acc, vm.assemble(asm)) for name, asm in programs.items()}
    acc.set_balance(addrs["average"], 100)  # pays 5 to the payee per call
    acc.set_slot(addrs["dex"], 0, ASK)  # an open ask that each call fills
    return acc, addrs


def bench(acc: vm.Accounts, txs: dict[str, Transaction], windows: int) -> dict[tuple[str, bool], tuple[float, int]]:
    """(name, declared) -> (seconds per call in the best of `windows`
    windows, gas per call). A window is one burn call or SHORT_REPEAT calls
    of a short contract, and the rows take turns window by window, so that
    each row's windows are spread over the whole run."""
    best: dict = {}
    for _ in range(windows):
        for name, tx in txs.items():
            tx_id, calls = txid(tx), 1 if name == "burn" else SHORT_REPEAT
            for declared in (False, True):
                t0 = time.perf_counter()
                for _ in range(calls):
                    diff = vm.invoke(acc, tx, tx_id, 1, declared)
                seconds = (time.perf_counter() - t0) / calls
                assert diff.outcome.committed, diff.outcome
                best[name, declared] = min(best.get((name, declared), (float("inf"), 0)), (seconds, diff.outcome.gas_used))
    return best


def compile_cost(code: bytes) -> tuple[int, float]:
    """(generated source bytes, best of 20 compile times in seconds)."""
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        vm.compile_code.__wrapped__(code)
        best = min(best, time.perf_counter() - t0)
    return len(vm.generate_source(vm.decode(code))), best


def print_cold(name: str, acc: vm.Accounts, call: Transaction) -> None:
    """Best of five, each from a cleared compile cache: µs for a deploy of
    the called code, for the call, and for the two together."""
    code = acc.contracts[call.kind.contract].code
    deploy = deploy_tx(acc, code)
    best = [float("inf")] * 3
    for _ in range(5):
        vm.compile_code.cache_clear()
        t0 = time.perf_counter()
        assert vm.deploy(acc, deploy, txid(deploy)).outcome.committed
        t1 = time.perf_counter()
        vm.invoke(acc, call, txid(call), 1, False)
        t2 = time.perf_counter()
        best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t2 - t0))]
    print(f"{name:8s} cold     {len(code):6d} code bytes  deploy {best[0] * 1e6:8.0f} us  "
          f"first call {best[1] * 1e6:8.0f} us  both {best[2] * 1e6:8.0f} us")


def print_nested(acc: vm.Accounts) -> None:
    callee = deployed(acc, vm.assemble("HALT"))
    caller = deployed(acc, vm.assemble(NESTED_ASM))
    for passes in (1_000, 16_000):
        tx = Transaction(Call(caller, passes, 0, CALLER, 2**24, 0, None, (callee,)), nonce=acc.nonces[CALLER])
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            diff = vm.invoke(acc, tx, txid(tx), 1, False)
            best = min(best, time.perf_counter() - t0)
        assert diff.outcome.committed, diff.outcome
        print(f"nested   {passes:6d} passes {diff.outcome.gas_used:9d} gas  {best * 1e3:8.1f} ms  "
              f"{best * 1e9 / diff.outcome.gas_used:6.0f} ns/gas")


def print_cycling(acc: vm.Accounts, name: str, shape) -> None:
    """Calls that cycle through CYCLE_CODES codes shape(1), shape(2), ...:
    each call misses the compile cache."""
    contracts = [deployed(acc, shape(tag)) for tag in range(1, CYCLE_CODES + 1)]
    txs = [Transaction(Call(c, 0, 0, CALLER, 100, 0), nonce=acc.nonces[CALLER]) for c in contracts]
    best, gas = float("inf"), 0
    for _ in range(5):
        t0 = time.perf_counter()
        gas = sum(vm.invoke(acc, tx, txid(tx), 1, False).outcome.gas_used for tx in txs)
        best = min(best, time.perf_counter() - t0)
    print(f"cycling  {name:8s} {CYCLE_CODES:4d} codes  gas_limit 100  {best * 1e6 / len(txs):8.0f} us/call  "
          f"{best * 1e6 / gas:8.0f} us/gas")


def resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def print_sstore_commit(acc: vm.Accounts) -> None:
    contract = deployed(acc, vm.assemble(STORE_ASM))
    tx = Transaction(Call(contract, STORE_SLOTS, 0, CALLER, 2**24, 0), nonce=acc.nonces[CALLER])
    diff = vm.invoke(acc, tx, txid(tx), 1, False)
    assert diff.outcome.committed and len(diff.storage_new) == STORE_SLOTS, diff.outcome
    gc.collect()
    rss, t0 = resident_bytes(), time.perf_counter()
    diff.apply(acc)
    acc.lthash.digest()
    seconds = time.perf_counter() - t0
    gc.collect()
    grown = resident_bytes() - rss
    print(f"sstore   {STORE_SLOTS:6d} slots {diff.outcome.gas_used // STORE_SLOTS:4d} gas/slot  "
          f"commit {seconds * 1e6 / STORE_SLOTS:6.1f} us/slot  {grown / STORE_SLOTS:8.0f} B/slot  "
          f"{seconds * 1e9 / diff.outcome.gas_used:6.0f} ns/gas")


def print_per_op(acc: vm.Accounts, burn: bytes, iterations: int) -> None:
    """Burn calls with the compiler's line budget at 0, which leaves every
    code compiled meanwhile without arms. The compile cache is cleared on
    both sides, so only these calls run such code."""
    tx = Transaction(Call(burn, BURN_ITERS, 0, CALLER, 100_000, 0), nonce=acc.nonces[CALLER])
    tx_id = txid(tx)
    saved, vm._MAX_LINES = vm._MAX_LINES, 0
    vm.compile_code.cache_clear()
    try:
        best = float("inf")
        for _ in range(iterations):
            t0 = time.perf_counter()
            diff = vm.invoke(acc, tx, tx_id, 1, False)
            best = min(best, time.perf_counter() - t0)
    finally:
        vm._MAX_LINES = saved
        vm.compile_code.cache_clear()
    assert diff.outcome.committed, diff.outcome
    print(f"per-op   burn {diff.outcome.gas_used:6d} gas/call  {best * 1e9 / diff.outcome.gas_used:6.0f} ns/gas")


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
    txs = {name: Transaction(Call(addrs[name], arg, attached, CALLER, 100_000, 0, access, consts), nonce=nonce)
           for name, (arg, attached, consts, access) in calls.items()}
    for name in txs:
        source_bytes, seconds = compile_cost(acc.contracts[addrs[name]].code)
        print(f"{name:8s} compile  {source_bytes:6d} source bytes  {seconds * 1e6:8.0f} us")
    for (name, declared), (seconds, gas) in bench(acc, txs, iterations).items():
        mode = "declared" if declared else "dynamic"
        print(f"{name:8s} {mode:8s} {gas:6d} gas/call  {1 / seconds:10.0f} calls/s  {gas / seconds / 1e6:6.2f} Mgas/s")
    for name, tx in txs.items():
        print_cold(name, acc, tx)
    for name, code in WORST_CODES.items():
        contract = deployed(acc, code)
        print_cold(name, acc, Transaction(Call(contract, 0, 0, CALLER, 100, 0), nonce=acc.nonces[CALLER]))
    print_nested(acc)
    print_cycling(acc, "blocks", short_blocks)
    print_cycling(acc, "loops", self_loops)
    print_sstore_commit(acc)
    print_per_op(acc, addrs["burn"], iterations)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
