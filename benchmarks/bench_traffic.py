"""Traffic census: what one perfbench run asks of the UTXO state and of the
helper process, counted over set-up, timed commit and replay of every
ledger. For each workload and seed it prints:
- how many lists reach LedgerState.put_utxos and LedgerState.spend_utxos,
  below and at or above helper.PLANNED_SUM entries
- the jobs batch plans hold, by kind: signature checks, and sum jobs that
  create a transaction's outputs (they sum the entries of the planned
  transaction's own outputs) or remove entries (any other sum)
- the plans sent to the helper process, and the messages that carried
  them by kind: plan parts, sent while the batch is read; posted windows
  of LtHash deltas, sent while it runs and, the last, once it has run;
  and ends, of which those that also carried jobs are counted apart; then
  messages per plan
- the number of parallel waves the scheduler forked

A second table is the census of both CPUs over the timed commits only:
- batches, the number of apply_batch calls, and commit s, their wall time
- the helper's time inside helper._run, checks and vector jobs (sums and
  LtHash deltas) apart, read from a counter in shared memory, and its busy
  share of commit s
- the caller's time in LtHash expansions and lane arithmetic (lthash's
  functions and LtHash's methods), split into the settles of each batch's
  last window (the chunks of the net deltas its last cut made, or those
  deltas whole in a tree that folds them unchunked) and the rest, and,
  apart, in ledger.state_digest and in the receipts' writes digests
- the calls of ledger.state_digest
- the loose LtHash entries the state writes note (add, remove and their
  _many forms), the loose entries the batches settle (the entries of the
  settled deltas that are not sums kept whole: where a batch cancels adds
  against removes of equal bytes, what survives), and the SHAKE-128
  expansions (lthash._expand) by the caller and by the helper
- the libsodium checks and the vector jobs (sums and deltas) by who
  computed them: the helper; the caller helping, that is computing a job
  from the back while the helper held the one it asked; the caller
  computing the very job it asked through the table (the cursor's), which
  the helper had not reached; and, inline, a check the table does not
  hold or a delta the caller folds without a vector
- the last window's chunks (or whole deltas) folded, by whether their lanes
  came from the helper's table or the caller expanded them
- the caller's sends down the helper's pipe: their number, wall time, CPU
  time, and the involuntary context switches the caller took inside them
  (getrusage's ru_nivcsw): a send that wakes a helper scheduled on the
  caller's own CPU waits for it

It runs perfbench/run.py's main in-process, with its own output dropped,
and only wraps the ledger's functions and the pipe's send, so perfbench is
used unedited. Sums are planned only where the host sees the helper's
stores in order (x86-64), and plans are made and sent only where the
helper runs (libsodium and two CPUs); elsewhere those counts, checks
included, read 0. The wrappers cost time of their own, so the seconds are
for comparing trees under the same census, not for the throughput.

Usage: python benchmarks/bench_traffic.py [--workloads W ...] [--seeds N ...] [--seconds S]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import mmap
import multiprocessing.connection
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import run as perfbench  # noqa: E402
from tierledger import crypto, helper, ledger, lthash, scheduler  # noqa: E402


@contextlib.contextmanager
def counting(counts: Counter):
    """Count into counts while the ledger runs; the real functions are
    called unchanged."""
    put, spend, plan, schedule = (
        ledger.LedgerState.put_utxos, ledger.LedgerState.spend_utxos, ledger._plan, scheduler.schedule_batch,
    )
    send = multiprocessing.connection.Connection.send

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
        if any(len(job) < 3 for job in jobs):
            outputs = getattr(tx.kind, "outputs", ())
            ops = ledger.outpoint_range(tx_id, 0, len(outputs))
            creating.update(helper.sums([ledger.utxo_entry(op, out) for op, out in zip(ops, outputs)]))
        for job in jobs:
            counts["check" if len(job) == 3 else "sum create" if job in creating else "sum remove"] += 1
        return jobs

    def counted_send(conn, obj):
        # Only helper.split sends with Connection.send: (jobs, plan ended).
        # The running batch's table is indexed (helper._slots) only from
        # after its plan is read to its end.
        if obj[1]:
            counts["plans sent"] += 1
            counts["ends"] += 1
            counts["ends with jobs"] += bool(obj[0])
        else:
            counts["posted windows" if helper._slots is not None else "plan parts"] += 1
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
    "check", "sum create", "sum remove", "plans sent", "plan parts", "posted windows", "ends", "ends with jobs",
    "messages per plan", "parallel waves",
]

# Shared with the helper, as doubles: whether a timed commit runs, then its
# time in _run on checks and on vector jobs, the jobs of each kind, and its
# expansions.
TIMED, HELPER_CHECK_S, HELPER_VECTOR_S, HELPER_CHECKS, HELPER_VECTORS, HELPER_EXPANSIONS = range(6)
RUSAGE = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)  # the caller's own switches, where Linux counts them
CPU_ROWS = [
    "batches", "commit s", "helper busy s", "helper busy share", "helper checks s", "helper vectors s",
    "caller lthash s", "caller lthash last window s", "caller lthash rest s",
    "caller state_digest s", "caller writes digests s", "state_digest calls",
    "entries noted", "loose entries settled", "expansions by caller", "expansions by helper",
    "checks by helper", "checks by caller helping", "checks by caller own", "checks inline",
    "vectors by helper", "vectors by caller helping", "vectors by caller own", "vectors inline",
    "last window chunks", "last window by helper", "last window by caller",
    "sends", "send s", "send cpu s", "send involuntary switches",
]
LTHASH_METHODS = ("add", "add_many", "remove", "remove_many", "settle", "digest")


def stop_helper() -> None:
    """Close the helper's pipe, so that it exits, and forget it: the next
    batch forks one that runs the functions wrapped since."""
    running, helper._helper = helper._helper, None
    if running is not None:
        running[1].close()
        running[0].join(10)


@contextlib.contextmanager
def second_cpu(counts: Counter):
    """The census of both CPUs over perfbench's timed commits, into counts.
    Names missing from a tree (an older tree has no deltas, or no writes
    digests) are skipped."""
    shared = memoryview(mmap.mmap(-1, 8 * 6)).cast("d")
    caller = os.getpid()
    depth = [0]  # the caller's calls into timed code, outermost first
    kept: dict = {}  # id -> each sum the state defers whole, until it is settled
    last_cut: list = [None, set()]  # the running batch's last cut (ledger.apply_batch's), ids of its nets' entries
    patched: list = []

    def patch(owner, name: str, wrapper) -> None:
        real = getattr(owner, name, None)
        if real is not None:
            patched.append((owner, name, real))
            setattr(owner, name, wrapper(real))

    def timed_as(row: str):
        def wrapper(real):
            def timed(*args, **kwargs):
                if not shared[TIMED] or os.getpid() != caller or depth[0]:
                    return real(*args, **kwargs)
                depth[0] += 1
                t0 = time.perf_counter()
                try:
                    return real(*args, **kwargs)
                finally:
                    counts[row] += time.perf_counter() - t0
                    depth[0] -= 1
            return timed
        return wrapper

    def run(real):
        def counted(table, slot, job, claim):
            vector = len(job) < 3
            if os.getpid() == caller:
                if shared[TIMED]:
                    own = slot == int.from_bytes(table[: helper.HEAD], "little")
                    counts[f"{'vectors' if vector else 'checks'} by caller {'own' if own else 'helping'}"] += 1
                    counts["checks inline"] -= not vector  # counted again by sodium
                return real(table, slot, job, claim)
            t0 = time.perf_counter()
            try:
                return real(table, slot, job, claim)
            finally:
                if shared[TIMED]:
                    shared[HELPER_VECTOR_S if vector else HELPER_CHECK_S] += time.perf_counter() - t0
                    shared[HELPER_VECTORS if vector else HELPER_CHECKS] += 1
        return counted

    def sodium(real):
        def counted(*key):
            if shared[TIMED] and os.getpid() == caller:
                counts["checks inline"] += 1
            return real(*key)
        return counted

    def defer(real):
        def counted(self, delta):
            if shared[TIMED]:
                kept[id(delta)] = delta
            return real(self, delta)
        return counted

    def settle(real):
        def counted(self, delta, lanes=None):
            if not shared[TIMED]:
                return real(self, delta, lanes)
            counts["vectors inline"] += lanes is None
            if kept.pop(id(delta), None) is not None:
                return real(self, delta, lanes)
            counts["loose entries settled"] += len(delta[0]) + len(delta[1])
            if depth[0] or os.getpid() != caller or id(next(iter(delta[0] or delta[1]), None)) not in last_cut[1]:
                return real(self, delta, lanes)
            counts["last window chunks"] += 1
            counts[f"last window by {'caller' if lanes is None else 'helper'}"] += 1
            t0 = time.perf_counter()
            try:
                return real(self, delta, lanes)
            finally:
                counts["caller lthash last window s"] += time.perf_counter() - t0
        return counted

    def cut_nets(real):
        def recorded(added, removed):
            result = real(added, removed)
            cut = sys._getframe(1)
            if shared[TIMED] and cut.f_code.co_name == "cut":
                if cut is not last_cut[0]:  # a later cut: the batch's last so far
                    last_cut[:] = cut, set()
                last_cut[1].update(map(id, result[0] + result[1]))
            return result
        return recorded

    def sends(real):
        def timed(conn, obj):
            if not shared[TIMED] or os.getpid() != caller:
                return real(conn, obj)
            t0, c0, s0 = time.perf_counter(), time.thread_time(), resource.getrusage(RUSAGE).ru_nivcsw
            try:
                return real(conn, obj)
            finally:
                counts["sends"] += 1
                counts["send s"] += time.perf_counter() - t0
                counts["send cpu s"] += time.thread_time() - c0
                counts["send involuntary switches"] += resource.getrusage(RUSAGE).ru_nivcsw - s0
        return timed

    def noted(one: bool):
        def wrapper(real):
            def counted(self, entries):
                if one:
                    counts["entries noted"] += bool(shared[TIMED])
                elif shared[TIMED]:
                    entries = list(entries)
                    counts["entries noted"] += len(entries)
                return real(self, entries)
            return counted
        return wrapper

    def expand(real):
        def counted(entry):
            if shared[TIMED]:
                if os.getpid() == caller:
                    counts["expansions by caller"] += 1
                else:
                    shared[HELPER_EXPANSIONS] += 1
            return real(entry)
        return counted

    def digests(real):
        def counted(*args, **kwargs):
            counts["state_digest calls"] += bool(shared[TIMED])
            return real(*args, **kwargs)
        return counted

    def window(real):
        def timed_commits(*args, **kwargs):
            shared[TIMED] = 1
            try:
                return real(*args, **kwargs)
            finally:
                shared[TIMED] = 0
        return timed_commits

    def apply(real):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                if shared[TIMED]:
                    counts["commit s"] += time.perf_counter() - t0
                    counts["batches"] += 1
        return timed

    def kept_expansions() -> None:
        """An older tree keeps recent expansions through a cache made
        around lthash._expand: made again, it calls the name now bound."""
        if hasattr(lthash, "keep"):
            lthash.keep(lthash.RECENT)

    stop_helper()
    patch(perfbench, "commit_all", window)
    patch(ledger, "apply_batch", apply)
    patch(ledger, "state_digest", timed_as("caller state_digest s"))
    patch(ledger, "state_digest", digests)
    for name in ("_writes_digests", "_writes_digest"):  # an older tree's name, then this tree's
        patch(ledger, name, timed_as("caller writes digests s"))
    patch(lthash, "_expand", expand)
    kept_expansions()
    for name in ("vector", "net"):
        patch(lthash, name, timed_as("caller lthash s"))
    for name in LTHASH_METHODS:
        patch(lthash.LtHash, name, timed_as("caller lthash s"))
    patch(lthash.LtHash, "settle", settle)
    patch(lthash, "net", cut_nets)
    patch(multiprocessing.connection.Connection, "send", sends)
    patch(lthash.LtHash, "defer", defer)
    for name, one in (("add", True), ("remove", True), ("add_many", False), ("remove_many", False)):
        patch(lthash.LtHash, name, noted(one))
    patch(helper, "_run", run)
    patch(crypto, "_sodium_check", sodium)
    try:
        yield
    finally:
        stop_helper()
        for owner, name, real in reversed(patched):
            setattr(owner, name, real)
        kept_expansions()
        counts["helper checks s"] = shared[HELPER_CHECK_S]
        counts["helper vectors s"] = shared[HELPER_VECTOR_S]
        counts["helper busy s"] = shared[HELPER_CHECK_S] + shared[HELPER_VECTOR_S]
        counts["caller lthash rest s"] = counts["caller lthash s"] - counts["caller lthash last window s"]
        counts["helper busy share"] = counts["helper busy s"] / counts["commit s"] if counts["commit s"] else 0.0
        counts["checks by helper"] = int(shared[HELPER_CHECKS])
        counts["vectors by helper"] = int(shared[HELPER_VECTORS])
        counts["expansions by helper"] = int(shared[HELPER_EXPANSIONS])


def census(workload: str, seed: int, seconds: float) -> tuple[Counter, Counter]:
    """The traffic census over the whole run, and the census of both CPUs
    over its timed commits, from two runs, so that neither census's
    wrappers slow the other."""
    counts: Counter = Counter()
    cpus: Counter = Counter()
    argv = sys.argv
    sys.argv = ["run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    try:
        for tally in (counting(counts), second_cpu(cpus)):
            with tally, contextlib.redirect_stdout(io.StringIO()):
                if perfbench.main() != 0:
                    raise SystemExit(f"perfbench failed on {workload} seed {seed}")
    finally:
        sys.argv = argv
    if counts["plans sent"]:
        messages = counts["plan parts"] + counts["posted windows"] + counts["ends"]
        counts["messages per plan"] = round(messages / counts["plans sent"], 3)
    return counts, cpus


def cell(value) -> str:
    return f"{value:>30.4f}" if isinstance(value, float) else f"{value:>30}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(gen.WORKLOADS), default=sorted(gen.WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[41])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    print(f"--seconds {args.seconds:g}; large = {helper.PLANNED_SUM} entries or more; "
          f"lists and jobs over set-up, timed commit and replay of {perfbench.LEDGERS} ledgers")
    print(f"{'workload':<20}{'seed':>6}" + "".join(f"{row:>22}" for row in ROWS))
    cpus = []
    for workload in args.workloads:
        for seed in args.seeds:
            counts, cpu = census(workload, seed, args.seconds)
            cpus.append((workload, seed, cpu))
            print(f"{workload:<20}{seed:>6}" + "".join(f"{counts[row]:>22}" for row in ROWS), flush=True)
    print("\nboth CPUs over the timed commits (a run of its own, under the census's wrappers)")
    print(f"{'workload':<20}{'seed':>6}" + "".join(f"{row:>30}" for row in CPU_ROWS))
    for workload, seed, cpu in cpus:
        print(f"{workload:<20}{seed:>6}" + "".join(cell(cpu[row]) for row in CPU_ROWS))


if __name__ == "__main__":
    main()
