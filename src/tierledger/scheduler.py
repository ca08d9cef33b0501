"""Batch execution of contract transactions.

Both modes run through one wave loop. Dynamic mode gives each transaction
a wave of its own, so it runs strictly serially in submission order.
Declared mode builds a conflict graph from access declarations (a conflict
is one transaction's written set intersecting another's read-or-written
set over balances and storage keys, with callee footprints folded in) and
executes conflict-free waves on a process pool. The committed result is
extensionally identical to serial execution in submission order because
transactions within a wave touch disjoint state, and fees commute: each is
added to the batch's pending fee income, which no transaction reads, and
the batch credits it to the operator at its end.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import crypto, vm
from .model import AccessDecl, Call, Deploy, Transaction
from .rules import ACCESS_DECLARED, SystemConfig

# Waves cheaper than this many gas units run inline; below it, starting
# worker processes costs more than it saves. Measured with
# benchmarks/bench_pool.py on a shared 2-vCPU x86-64 host (waves of 8
# conflict-free burn calls, inline time / pool time, best of 5, three runs
# of three rounds): with 2 workers every round from 6.1M gas beat inline,
# 1.02-1.95x; at 3.1M one round in nine lost (0.79-1.42x), and at 1.5M
# most did (0.59-1.05x). The compiled VM runs the burn loop at 65-113M
# gas/s inline, and one wave on the pool costs 15-25 ms on top of its
# share of the work.
PARALLEL_MIN_GAS = 6_144_000

DEFAULT_WORKERS = crypto.CPUS


@dataclass
class Telemetry:
    """Scheduler observability: wave structure and per-transaction worker
    assignment, enough to demonstrate actual concurrency."""

    mode: str = "dynamic"
    waves: list[list[int]] = field(default_factory=list)
    parallel_waves: int = 0
    worker_pids: dict[int, int] = field(default_factory=dict)
    spans: dict[int, tuple[float, float]] = field(default_factory=dict)

    def max_concurrency(self) -> int:
        """Largest number of transactions whose execution spans overlap."""
        events: list[tuple[float, int]] = []
        for start, end in self.spans.values():
            events.append((start, 1))
            events.append((end, -1))
        events.sort()
        best = cur = 0
        for _, delta in events:
            cur += delta
            best = max(best, cur)
        return best


@dataclass(frozen=True)
class _Item:
    index: int
    tx: Transaction
    tx_id: bytes
    # vm.call_footprint of a declared call, against the pre-batch contracts.
    footprint: Optional[AccessDecl] = None
    # Every reachable callee existed before the batch, so no deploy in the
    # batch can extend the footprint that execution checks against.
    footprint_final: bool = False


def _wrap(index: int, tx: Transaction, tx_id: bytes, accounts: vm.Accounts, declared: bool) -> _Item:
    """A declared call's footprint for conflict analysis."""
    k = tx.kind
    if not declared or not isinstance(k, Call) or k.access is None:
        return _Item(index, tx, tx_id)
    fp = vm.call_footprint(k, accounts.contracts)
    return _Item(index, tx, tx_id, fp, all(c in accounts.contracts for c in fp.callees))


def _execute_one(
    accounts: vm.Accounts,
    item: _Item,
    epoch: int,
    declared: bool,
) -> vm.StateDiff:
    if isinstance(item.tx.kind, Deploy):
        return vm.deploy(accounts, item.tx, item.tx_id)
    final = item.footprint if item.footprint_final else None
    return vm.invoke(accounts, item.tx, item.tx_id, epoch, declared, final)


# Fork-inherited state for pool workers: set in the parent immediately
# before the pool is created, so children see it without pickling.
_FORK_STATE: dict = {}


def _worker(index: int) -> tuple[int, vm.StateDiff, int, float, float]:
    st = _FORK_STATE
    start = time.monotonic()
    diff = _execute_one(st["accounts"], st["items"][index], st["epoch"], True)
    end = time.monotonic()
    return index, diff, os.getpid(), start, end


def _footprint_sets(item: _Item) -> tuple[Optional[frozenset], Optional[frozenset], bool]:
    """(reads, writes, barrier) for conflict analysis. Keys are balance
    addresses (bytes) and storage slots ((address, key) tuples), which never
    compare equal to each other. A barrier transaction conflicts with
    everything: deploys, and calls that can reach a contract missing before
    the batch, since a deploy earlier in the batch can give it a footprint
    that execution checks but analysis did not see."""
    k = item.tx.kind
    if isinstance(k, Deploy):
        return None, None, True
    assert isinstance(k, Call)
    fp = item.footprint
    if fp is None:
        # Rejected before execution in declared mode: no footprint at all.
        return frozenset(), frozenset(), False
    # vm.call_footprint already holds the implicit writes of the caller's
    # and the callee's balances.
    reads = fp.balances_read | fp.storage_read
    writes = fp.balances_written | fp.storage_written
    return reads, writes, not item.footprint_final


def _conflict_waves(items: Sequence[_Item]) -> list[list[int]]:
    """Partition into waves of item indices: an item lands one level past
    the deepest earlier item it conflicts with, so each wave is pairwise
    conflict-free.

    Two transactions conflict when either is a barrier or one writes a key
    the other reads or writes. One pass over the footprints keeps, per key,
    the deepest level that wrote it and the deepest that read it, plus the
    deepest level overall and the deepest barrier, so the cost is linear in
    the total footprint size."""
    deepest_write: dict = {}
    deepest_read: dict = {}
    deepest = deepest_barrier = -1
    waves: list[list[int]] = []
    for item in items:
        reads, writes, barrier = _footprint_sets(item)
        if barrier:
            level = deepest_barrier = deepest + 1
        else:
            level = deepest_barrier + 1
            for key in reads:
                level = max(level, deepest_write.get(key, -1) + 1)
            for key in writes:
                level = max(level, deepest_write.get(key, -1) + 1, deepest_read.get(key, -1) + 1)
            for key in writes:
                deepest_write[key] = level
            for key in reads:
                deepest_read[key] = max(deepest_read.get(key, -1), level)
        deepest = max(deepest, level)
        if level == len(waves):
            waves.append([])
        waves[level].append(item.index)
    return waves


def schedule_batch(
    accounts: vm.Accounts,
    items: Sequence[tuple[Transaction, bytes]],
    epoch: int,
    cfg: SystemConfig,
    on_commit: Optional[Callable[[int, vm.ExecOutcome], None]] = None,
    workers: int = DEFAULT_WORKERS,
    parallel_min_gas: int = PARALLEL_MIN_GAS,
    admit: Optional[Callable[[int], bool]] = None,
) -> tuple[list[vm.ExecOutcome], Telemetry]:
    """Execute contract transactions and commit their effects into accounts.

    items are (transaction, txid) in submission order; on_commit fires right
    after each transaction's diff is applied, in a deterministic order
    (submission order within each wave). The telemetry's waves hold the
    transactions committed, wave by wave.

    admit(index), when given, is asked once about each transaction as late
    as possible: an inline one right before it executes, and every member
    of a parallel wave before the wave is dispatched. A refused transaction
    never runs. In dynamic mode it held a wave of its own, so the others run
    as if it were absent. In declared mode its footprint shaped the waves,
    so the pass stops at it, every transaction that has not run is asked at
    once, and the admitted ones are put into waves again. None of them
    conflicts with a committed transaction submitted after it, and no
    receipt depends on the order of commits, so either way the result is
    that of scheduling the admitted transactions only.
    """
    declared = cfg.access_mode == ACCESS_DECLARED
    wrapped = [_wrap(i, tx, tx_id, accounts, declared) for i, (tx, tx_id) in enumerate(items)]
    outcomes: list[Optional[vm.ExecOutcome]] = [None] * len(wrapped)
    telemetry = Telemetry(mode=cfg.access_mode)
    verdicts: dict[int, bool] = {}

    def admitted(item: _Item) -> bool:
        if admit is None:
            return True
        if item.index not in verdicts:
            verdicts[item.index] = admit(item.index)
        return verdicts[item.index]

    def commit(item: _Item, diff: vm.StateDiff) -> None:
        diff.apply(accounts)
        outcomes[item.index] = diff.outcome
        telemetry.waves[-1].append(item.index)
        if on_commit is not None:
            on_commit(item.index, diff.outcome)

    def run_waves(waves: list[list[int]]) -> None:
        """Commit wave after wave, up to a refusal in declared mode."""
        for wave in waves:
            telemetry.waves.append([])
            wave_items = [wrapped[j] for j in wave]
            results = None
            if (len(wave_items) >= 2 and workers > 1
                    and sum(_payable_gas(accounts, it.tx) for it in wave_items) >= parallel_min_gas):
                if not all(map(admitted, wave_items)):  # waves of two or more are declared
                    return
                with suppress(concurrent.futures.BrokenExecutor, OSError):  # no worker wrote: run it inline
                    results = _run_parallel(accounts, wave_items, epoch, workers)
            if results is not None:
                telemetry.parallel_waves += 1
                for idx, diff, pid, start, end in sorted(results):
                    item = wave_items[idx]
                    telemetry.worker_pids[item.index] = pid
                    telemetry.spans[item.index] = (start, end)
                    commit(item, diff)
            else:
                for item in wave_items:
                    if admitted(item):
                        commit(item, _execute_one(accounts, item, epoch, declared))
                    elif declared:
                        return

    pending = wrapped
    while pending:
        run_waves(_conflict_waves(pending) if declared else [[it.index] for it in pending])
        pending = [it for it in pending if outcomes[it.index] is None and admitted(it)]
    telemetry.waves = [wave for wave in telemetry.waves if wave]
    return [o for o in outcomes if o is not None], telemetry


def _payable_gas(accounts: vm.Accounts, tx: Transaction) -> int:
    """A call's gas limit when its caller can prepay it against the
    pre-wave state; 0 otherwise, since such a call is rejected without
    running. Deploys are barriers and never share a wave."""
    k = tx.kind
    if isinstance(k, Call) and vm._prepay_covered(accounts, k.caller, k.gas_limit, k.gas_price, k.attached):
        return k.gas_limit
    return 0


def _run_parallel(
    accounts: vm.Accounts,
    wave_items: list[_Item],
    epoch: int,
    workers: int,
) -> list[tuple[int, vm.StateDiff, int, float, float]]:
    global _FORK_STATE
    # Workers execute against the shared pre-state snapshot; within a wave
    # nothing they read is written by a sibling, so pre-state reads are the
    # same values serial execution would see.
    _FORK_STATE = {
        "accounts": accounts,
        "items": wave_items,
        "epoch": epoch,
    }
    # Compile the wave's codes in the parent, so that the workers inherit
    # them instead of each compiling its own copy. A footprint's callees
    # hold the called contract; a call without one is rejected unrun.
    for item in wave_items:
        for addr in item.footprint.callees if item.footprint is not None else ():
            acct = accounts.contracts.get(addr)
            if acct is not None:
                vm.compile_code(acct.code)
    ctx = multiprocessing.get_context("fork")
    nproc = min(workers, len(wave_items))
    try:
        # A worker that dies breaks the executor, so map raises
        # BrokenProcessPool (a RuntimeError); a multiprocessing.Pool waits
        # for the lost task forever.
        with concurrent.futures.ProcessPoolExecutor(nproc, mp_context=ctx) as pool:
            return list(pool.map(_worker, range(len(wave_items))))
    finally:
        _FORK_STATE = {}
