"""Ledger benchmark: commit and replay throughput per workload, and a traced
run that splits the commit time by layer.

Run from the repository root:

    python3 perfbench/run.py --workload pay-10k --seed 1 --seconds 10 --trace 0

A run drives LEDGERS independent ledgers, each with its own operator, keys
and sub-seed, so that set-up and replay are each measured several times.
Set-up builds a ledger's starting state through real batches (coinbase,
fan-out, funding, deploys), pre-generates and pre-signs its timed batches,
and decodes them from canonical JSON; setup_s is the median over the
ledgers. The timed phase is a closed loop with one operator: each batch
(apply_batch plus write_batch_files) starts after the previous one's files
are written. The number of timed batches is fixed by the workload and
--seconds (gen.timed_batches), so every run of a seed commits the same
transactions and ends on the same header hashes; on the reference host it
takes about --seconds. After each batch, outside the timed window, every
receipt is checked against the generator's expectation and conservation is
recomputed from scratch. Each ledger's whole log is then verified with
replay_verify, which is timed. Every timed interval is scaled to the
host's uncontended speed (HostClock), and throughputs are medians (per
batch, per replay), so that a busy spell of the host does not move them.

With --trace 1 only the first ledger runs: its timed batches are committed
twice from the same set-up state, traced and then untraced, the traced log
is replayed under the tracer, and the per-layer metrics are printed instead
of the end-to-end ones. Spans go to .perfbench/spans-<workload>.json.

The last line of standard output is one JSON object: correct, attempted
(transactions submitted in timed batches), failed (receipts that differ
from the expectation) and metrics. A conservation, replay or determinism
failure, or a set-up batch that does not go as planned, exits with status
1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
if not (SRC / "tierledger" / "__init__.py").is_file():
    sys.exit(f"perfbench: tierledger sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import cryptography  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402
from tierledger import crypto, ledger, rules, script  # noqa: E402
from tierledger.model import Transaction, tx_from_json_str  # noqa: E402

LEDGERS = 5
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

END_TO_END = [
    ("commit_tps", "tx/s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_tail", "ms"),
    ("replay_tps", "tx/s"),
    ("log_bytes_per_tx", "B/tx"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchFailure(Exception):
    """Conservation, replay, determinism or set-up failure: the run is
    invalid."""


class HostClock:
    """Scales measured times to the reference host's uncontended speed.

    The reference host, a 2-vCPU Intel Xeon virtual machine at 2.0 GHz,
    shares its hardware: a fixed pure-Python loop there runs up to 2x
    slower for seconds or minutes at a time because of other load, which
    no amount of averaging inside a run removes. So each measured time t
    is reported as t * REF_S / r, where r is the time of a fixed reference
    computation (sorting, joining and hashing 2,000 byte-string pairs,
    shaped like the state digest) taken right around the measurement.
    REF_S is that computation's time on the reference host when
    uncontended (its 5th percentile was 0.97 ms). The benchmark's own code
    runs the reference, so a change to the ledger cannot move it.
    """

    REF_S = 1.0e-3

    def __init__(self) -> None:
        self.items = [
            (hashlib.sha256(i.to_bytes(4, "little")).digest(), i.to_bytes(8, "little") * 4)
            for i in range(2000)
        ]

    def reference(self, n: int = 3) -> float:
        """Median time of n runs of the reference computation."""
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            pairs = sorted(self.items, key=lambda kv: kv[0][::-1])
            hashlib.sha256(b"".join(a + b for a, b in pairs)).digest()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scaled(self, t: float, before: float, after: float) -> float:
        return t * self.REF_S / ((before + after) / 2)


CLOCK = HostClock()


@dataclass
class Prepared:
    cfg: rules.SystemConfig
    base: ledger.LedgerState  # state after set-up; each pass starts from a copy
    logdir: Path  # genesis and set-up batches
    timed: list[gen.Batch]
    decoded: Optional[list[list[Transaction]]]  # decoded in set-up, used once
    setup_txs: int
    seconds: float  # wall clock
    scaled_s: float  # scaled by HostClock


@dataclass
class Pass:
    latencies: list[float]  # wall clock, per batch
    scaled: list[float]  # scaled by HostClock, per batch
    txs: int
    failed: int
    final_hash: bytes
    gas_used: int
    log: Path  # set-up plus timed batches


def decode(batch: gen.Batch) -> list[Transaction]:
    return [tx_from_json_str(s) for s in batch.txs]


def commit(state, cfg, epoch, txs, logdir, workers, telemetry=None):
    """One closed-loop step: apply the batch and write its files."""
    t0 = time.perf_counter()
    receipts, header = ledger.apply_batch(
        state, txs, epoch, cfg, workers=workers, collect_telemetry=telemetry
    )
    ledger.write_batch_files(logdir, header.batch_number, epoch, txs, header, receipts)
    return receipts, time.perf_counter() - t0


def mismatches(receipts, expect: list[gen.Expect]) -> int:
    """Receipts whose status, gas or level differ from the expectation;
    the first one of the batch is printed to standard error."""
    got = [(r.status, r.gas_used, r.level) for r in receipts]
    want = [(e.status, e.gas, e.level) for e in expect]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if bad:
        i = bad[0]
        print(f"receipt {i}: got {got[i]}, want {want[i]}", file=sys.stderr)
    return len(bad) + abs(len(got) - len(want))


def check_conservation(state: ledger.LedgerState) -> None:
    """Recompute every supply counter from scratch."""
    utxo_total = sum(out.amount for out in state.utxos.values())
    account_total = sum(state.accounts.balances.values())
    if state.utxo_total != utxo_total or state.issued != utxo_total + account_total + state.expired:
        raise BenchFailure(
            f"conservation broken at batch {state.batch_number}: issued={state.issued} "
            f"utxo={utxo_total} accounts={account_total} expired={state.expired}"
        )


def prepare(name: str, seed: int, part: int, n_batches: int, logdir: Path, workers: int) -> Prepared:
    before = CLOCK.reference(9)
    t0 = time.perf_counter()
    g = gen.generator(name, seed, part)
    ledger.init_log(logdir, g.cfg)
    state = ledger.LedgerState()
    commit(state, g.cfg, 1, [], logdir, workers)
    (coinbase,) = state.utxos
    setup, timed = gen.plan(g, name, coinbase, n_batches)
    setup_txs = 0
    for batch in setup:
        txs = decode(batch)
        receipts, _ = commit(state, g.cfg, batch.epoch, txs, logdir, workers)
        if mismatches(receipts, batch.expect):
            raise BenchFailure(f"set-up batch at epoch {batch.epoch} did not go as planned")
        check_conservation(state)
        setup_txs += len(txs)
    decoded = [decode(b) for b in timed]
    seconds = time.perf_counter() - t0
    scaled = CLOCK.scaled(seconds, before, CLOCK.reference(9))
    return Prepared(g.cfg, state, logdir, timed, decoded, setup_txs, seconds, scaled)


def commit_all(
    prep: Prepared, logdir: Path, workers: int,
    tracer: Optional[tracing.Tracer] = None, telemetry: Optional[list] = None,
) -> Pass:
    """Commit every timed batch, closed loop, from a copy of the set-up
    state into a copy of the set-up log."""
    state = prep.base.copy()
    shutil.copytree(prep.logdir, logdir)
    if prep.decoded is not None:
        batches, prep.decoded = prep.decoded, None
    else:
        batches = [decode(b) for b in prep.timed]
    lat: list[float] = []
    scaled: list[float] = []
    txs = failed = gas = 0
    ref = CLOCK.reference()
    for batch, batch_txs in zip(prep.timed, batches):
        if tracer is not None:
            tracer.request = state.batch_number
        receipts, dt = commit(state, prep.cfg, batch.epoch, batch_txs, logdir, workers, telemetry)
        if tracer is not None:
            tracer.request = None
        after = CLOCK.reference()
        lat.append(dt)
        scaled.append(CLOCK.scaled(dt, ref, after))
        ref = after
        txs += len(batch_txs)
        failed += mismatches(receipts, batch.expect)
        gas += sum(r.gas_used for r in receipts)
        check_conservation(state)
    return Pass(lat, scaled, txs, failed, state.prev_header_hash, gas, logdir)


def check_replay(report: ledger.ReplayReport) -> None:
    if not report.ok:
        raise BenchFailure(f"replay failed: {json.dumps(report.to_json())}")


def replay(log: Path) -> tuple[float, float]:
    """(wall-clock seconds, scaled seconds) of replay_verify on a log that
    must verify. The host reference runs between replayed batches, from a
    wrapper around ledger.apply_batch, and its own time is left out, so a
    slow spell is scaled where it happens."""
    apply_batch = ledger.apply_batch
    marks = [(time.perf_counter(), CLOCK.reference(9), time.perf_counter())]

    def apply_between_references(*args, **kwargs):
        t0 = time.perf_counter()
        ref = CLOCK.reference()
        marks.append((t0, ref, time.perf_counter()))
        return apply_batch(*args, **kwargs)

    ledger.apply_batch = apply_between_references
    try:
        report = ledger.replay_verify(log)
        end = time.perf_counter()
    finally:
        ledger.apply_batch = apply_batch
    marks.append((end, CLOCK.reference(9), end))
    check_replay(report)
    wall = scaled = 0.0
    for (_, ref_a, start), (stop, ref_b, _) in zip(marks, marks[1:]):
        wall += stop - start
        scaled += CLOCK.scaled(stop - start, ref_a, ref_b)
    return wall, scaled


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p
    return 50


def tail(latencies: list[float]) -> float:
    """Latency at tail_percentile, by nearest rank."""
    xs = sorted(latencies)
    return xs[max(0, math.ceil(tail_percentile(len(xs)) / 100 * len(xs)) - 1)]


def log_bytes(prep: Prepared, log: Path) -> int:
    first = prep.base.batch_number
    return sum(
        (log / f"{kind}_{n:06d}.json").stat().st_size
        for n in range(first, first + len(prep.timed))
        for kind in ("batch", "header")
    )


def time_metrics(preps: list[Prepared], passes: list[Pass], replays: list[tuple[float, float]],
                 scaled: bool) -> dict[str, float]:
    """The timed end-to-end metrics, from scaled or from wall-clock times."""
    batch_s = [d.scaled if scaled else d.latencies for d in passes]
    latencies = [dt for times in batch_s for dt in times]
    return {
        "commit_tps": statistics.median(
            len(b.txs) / dt for p, times in zip(preps, batch_s) for b, dt in zip(p.timed, times)
        ),
        "batch_ms_p50": 1e3 * statistics.median(latencies),
        "batch_ms_tail": 1e3 * tail(latencies),
        "replay_tps": statistics.median(
            (p.setup_txs + d.txs) / r[scaled] for p, d, r in zip(preps, passes, replays)
        ),
        "setup_s": statistics.median(p.scaled_s if scaled else p.seconds for p in preps),
    }


def run_untraced(args, workdir: Path, workers: int) -> tuple[dict, list[Pass]]:
    n_batches = gen.timed_batches(args.workload, args.seconds, LEDGERS)
    preps = [
        prepare(args.workload, args.seed, i, n_batches, workdir / f"setup-{i}", workers)
        for i in range(LEDGERS)
    ]
    passes = [commit_all(p, workdir / f"log-{i}", workers) for i, p in enumerate(preps)]
    replays = [replay(done.log) for done in passes]
    txs = sum(done.txs for done in passes)
    n = LEDGERS * n_batches
    print(f"timed: {LEDGERS} ledgers x {n_batches} batches, {txs} transactions; "
          f"batch_ms_tail is p{tail_percentile(n):g} of {n} batches")
    wall = time_metrics(preps, passes, replays, scaled=False)
    print("wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
    metrics = time_metrics(preps, passes, replays, scaled=True)
    metrics["log_bytes_per_tx"] = sum(log_bytes(p, d.log) for p, d in zip(preps, passes)) / txs
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, passes


def run_traced(args, workdir: Path, workers: int) -> tuple[dict, list[Pass]]:
    n_batches = gen.timed_batches(args.workload, args.seconds, LEDGERS)
    prep = prepare(args.workload, args.seed, 0, n_batches, workdir / "setup", workers)
    # Traced first, so the public-key cache starts as it does in an
    # untraced run rather than warmed by the same transactions.
    cache_info = getattr(getattr(crypto, "_public_key", None), "cache_info", None)
    before = cache_info() if cache_info else None
    tracer = tracing.Tracer()
    telemetry: list = []
    tracer.install()
    try:
        traced = commit_all(prep, workdir / "traced", workers, tracer, telemetry)
        after = cache_info() if cache_info else None
        tracer.request = tracing.REPLAY
        check_replay(ledger.replay_verify(traced.log))
    finally:
        tracer.restore()
    if not tracer.restored():
        raise BenchFailure("a traced name was not restored")
    plain = commit_all(prep, workdir / "plain", workers)
    if traced.final_hash != plain.final_hash:
        raise BenchFailure("traced and untraced runs ended on different header hashes")
    tracer.dump(WORK / f"spans-{args.workload}.json")
    key_cache = None
    if before is not None and after is not None:
        key_cache = (after.hits - before.hits, after.misses - before.misses)
    tps = tuple(
        statistics.median(len(b.txs) / dt for b, dt in zip(prep.timed, done.scaled))
        for done in (plain, traced)
    )
    values = tracer.metrics(telemetry, traced.gas_used, workers, key_cache, tps)
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        if values.get(name) is None:
            print(f"{name}: absent")
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    print(f"timed: ledger 0, {n_batches} batches, {traced.txs} transactions, "
          "committed traced then untraced")
    return metrics, [traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workers = len(os.sched_getaffinity(0))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"python={platform.python_version()} cryptography={cryptography.__version__} "
          f"cpus={workers} workers={workers} script_kernel={getattr(script, 'KERNEL', 'pure')}")
    workdir = WORK / f"run-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        metrics, passes = run(args, workdir, workers)
    except BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, done in enumerate(passes):
        print(f"final_header_hash[{i}]={done.final_hash.hex()}")
    txs = sum(done.txs for done in passes)
    failed = sum(done.failed for done in passes)
    print(f"failed_frac={failed / txs:.6f} ({failed} of {txs})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": txs,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
