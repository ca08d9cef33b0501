"""Traffic census: what one perfbench run asks of the UTXO state and of the
helper process, counted over set-up, timed commit and replay of every
ledger. For each workload and seed it prints:
- how many lists reach LedgerState.put_utxos and LedgerState.spend_utxos,
  below and at or above helper.PLANNED_SUM entries
- the jobs batch plans hold, by kind: signature checks, and sum jobs that
  create a transaction's outputs (they sum a plan's `made` entries) or
  remove entries (any other sum)
- the number of parallel waves the scheduler forked

It runs perfbench/run.py's main in-process, with its own output dropped,
and only wraps the ledger's functions, so perfbench is used unedited. Sums
are planned only where the helper runs (libsodium and two CPUs) and the host
sees its stores in order (x86-64); elsewhere the sum counts read 0.

Usage: python benchmarks/bench_traffic.py [--workloads W ...] [--seeds N ...] [--seconds S]
"""

from __future__ import annotations

import argparse
import contextlib
import io
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

    def size(n: int) -> str:
        return "large" if n >= helper.PLANNED_SUM else "small"

    def counted_put(self, tx_id, outputs, *args, **kwargs):
        counts[f"put_utxos {size(len(outputs))}"] += 1
        return put(self, tx_id, outputs, *args, **kwargs)

    def counted_spend(self, ops):
        counts[f"spend_utxos {size(len(ops))}"] += 1
        return spend(self, ops)

    def counted_plan(*args):
        jobs = plan(*args)
        made = args[-1]
        creating = {job for _, _, entries in made.values() for job in helper.sums(entries)}
        for job in jobs:
            counts["check" if len(job) > 1 else "sum create" if job in creating else "sum remove"] += 1
        return jobs

    def counted_schedule(*args, **kwargs):
        result = schedule(*args, **kwargs)
        counts["parallel waves"] += result[1].parallel_waves
        return result

    ledger.LedgerState.put_utxos, ledger.LedgerState.spend_utxos = counted_put, counted_spend
    ledger._plan, scheduler.schedule_batch = counted_plan, counted_schedule
    try:
        yield
    finally:
        ledger.LedgerState.put_utxos, ledger.LedgerState.spend_utxos = put, spend
        ledger._plan, scheduler.schedule_batch = plan, schedule


ROWS = [
    "put_utxos small", "put_utxos large", "spend_utxos small", "spend_utxos large",
    "check", "sum create", "sum remove", "parallel waves",
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
    print(f"{'workload':<20}{'seed':>6}" + "".join(f"{row:>19}" for row in ROWS))
    for workload in args.workloads:
        for seed in args.seeds:
            counts = census(workload, seed, args.seconds)
            print(f"{workload:<20}{seed:>6}" + "".join(f"{counts[row]:>19}" for row in ROWS), flush=True)


if __name__ == "__main__":
    main()
