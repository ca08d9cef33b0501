"""Traffic census: what one perfbench run asks of the UTXO state and of the
helper process, counted over set-up, timed commit and replay of every
ledger. For each workload and seed it prints:
- how many lists reach LedgerState.put_utxos and LedgerState.spend_utxos,
  below and at or above helper.PLANNED_SUM entries
- the jobs batch plans hold, by kind: signature checks, and sum jobs that
  create a transaction's outputs (they sum the entries of the planned
  transaction's own outputs) or remove entries (any other sum)
- the plans sent to the helper process, the messages that carried them,
  and how many plans took more than one message
- the number of parallel waves the scheduler forked

It runs perfbench/run.py's main in-process, with its own output dropped,
and only wraps the ledger's functions and the pipe's send, so perfbench is
used unedited. Sums are planned only where the host sees the helper's
stores in order (x86-64), and plans are made and sent only where the
helper runs (libsodium and two CPUs); elsewhere those counts, checks
included, read 0.

Usage: python benchmarks/bench_traffic.py [--workloads W ...] [--seeds N ...] [--seconds S]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import multiprocessing.connection
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import run as perfbench  # noqa: E402
from tierledger import helper, ledger, scheduler  # noqa: E402


@contextlib.contextmanager
def counting(counts: Counter):
    """Count into counts while the ledger runs; the real functions are
    called unchanged."""
    put, spend, plan, schedule = (
        ledger.LedgerState.put_utxos, ledger.LedgerState.spend_utxos, ledger._plan, scheduler.schedule_batch,
    )
    send = multiprocessing.connection.Connection.send
    messages = [0]  # of the plan being sent

    def size(n: int) -> str:
        return "large" if n >= helper.PLANNED_SUM else "small"

    def counted_put(self, tx_id, outputs, *args, **kwargs):
        counts[f"put_utxos {size(len(outputs))}"] += 1
        return put(self, tx_id, outputs, *args, **kwargs)

    def counted_spend(self, ops):
        counts[f"spend_utxos {size(len(ops))}"] += 1
        return spend(self, ops)

    def counted_plan(utxos, tx, tx_id):
        jobs = plan(utxos, tx, tx_id)
        creating = set()
        if any(len(job) == 1 for job in jobs):
            outputs = getattr(tx.kind, "outputs", ())
            ops = ledger.outpoint_range(tx_id, 0, len(outputs))
            creating.update(helper.sums([ledger.utxo_entry(op, out) for op, out in zip(ops, outputs)]))
        for job in jobs:
            counts["check" if len(job) > 1 else "sum create" if job in creating else "sum remove"] += 1
        return jobs

    def counted_send(conn, obj):
        # Only helper.split sends with Connection.send: (jobs, plan ended).
        messages[0] += 1
        if obj[1]:
            counts["plans sent"] += 1
            counts["plan messages"] += messages[0]
            counts["plans of 2+ messages"] += messages[0] > 1
            messages[0] = 0
        return send(conn, obj)

    def counted_schedule(*args, **kwargs):
        result = schedule(*args, **kwargs)
        counts["parallel waves"] += result[1].parallel_waves
        return result

    ledger.LedgerState.put_utxos, ledger.LedgerState.spend_utxos = counted_put, counted_spend
    ledger._plan, scheduler.schedule_batch = counted_plan, counted_schedule
    multiprocessing.connection.Connection.send = counted_send
    try:
        yield
    finally:
        ledger.LedgerState.put_utxos, ledger.LedgerState.spend_utxos = put, spend
        ledger._plan, scheduler.schedule_batch = plan, schedule
        multiprocessing.connection.Connection.send = send


ROWS = [
    "put_utxos small", "put_utxos large", "spend_utxos small", "spend_utxos large",
    "check", "sum create", "sum remove", "plans sent", "plan messages", "plans of 2+ messages", "parallel waves",
]


def census(workload: str, seed: int, seconds: float) -> Counter:
    counts: Counter = Counter()
    argv = sys.argv
    sys.argv = ["run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    try:
        with counting(counts), contextlib.redirect_stdout(io.StringIO()):
            status = perfbench.main()
    finally:
        sys.argv = argv
    if status != 0:
        raise SystemExit(f"perfbench failed on {workload} seed {seed}")
    return counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(gen.WORKLOADS), default=sorted(gen.WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[41])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    print(f"--seconds {args.seconds:g}; large = {helper.PLANNED_SUM} entries or more; "
          f"lists and jobs over set-up, timed commit and replay of {perfbench.LEDGERS} ledgers")
    print(f"{'workload':<20}{'seed':>6}" + "".join(f"{row:>22}" for row in ROWS))
    for workload in args.workloads:
        for seed in args.seeds:
            counts = census(workload, seed, args.seconds)
            print(f"{workload:<20}{seed:>6}" + "".join(f"{counts[row]:>22}" for row in ROWS), flush=True)


if __name__ == "__main__":
    main()
