"""Per-layer tracing for the ledger benchmark, from outside the program.

The tracer replaces public entry points of each tierledger module with
wrappers that record a span (name, start, end, parent span, request id)
and, for some layers, a count taken from the arguments or the result.
Names bound by `from ... import` are wrapped where their caller looks them
up: `ledger.state_digest`, `ledger.compute_txid`, `script.interpreter.verify`
and so on. Every wrapped name is restored by `restore()`.

Spans stay in memory until `dump()`; self times are computed from them.
The request id is the batch number during the timed commit phase and
REPLAY during replay; the per-layer metrics cover the commit phase, except
`ledger.replay_verify.s` and `model.tx_json.s`, which also take the replay.
Contract calls that run on the scheduler's fork pool are invisible to the
wrappers; their time comes from the scheduler's own Telemetry.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

from tierledger import crypto, ledger, rules, scheduler, script, utxo, vm
from tierledger.script import interpreter

REPLAY = "replay"


def _wrote_bytes(tr: "Tracer", args: tuple, res: Any) -> None:
    logdir, number = Path(args[0]), args[1]
    size = sum((logdir / f"{kind}_{number:06d}.json").stat().st_size for kind in ("batch", "header"))
    tr.add("ledger.write_batch_files.bytes", size)


def _verified(tr: "Tracer", args: tuple, res: Any) -> None:
    tr.add("crypto.verify.ok", res)


def _script_result(tr: "Tracer", args: tuple, res: Any) -> None:
    tr.add("script.execute.steps", res.steps)
    tr.add("script.execute.fails", not res.success)


# (owner, attribute, span name, hook on (tracer, args, result)). A missing
# attribute, such as a private scheduler function that was renamed, makes
# the metrics built on it absent instead of failing the run.
TARGETS: list[tuple[Any, str, str, Optional[Callable]]] = [
    (ledger, "apply_batch", "ledger.apply_batch", None),
    (ledger, "state_digest", "ledger.state_digest", None),
    (ledger, "write_batch_files", "ledger.write_batch_files", _wrote_bytes),
    (ledger, "replay_verify", "ledger.replay_verify", None),
    (ledger, "compute_txid", "model.txid", None),
    (ledger, "classify_level", "model.classify_level", None),
    (ledger, "tx_to_json", "model.tx_json", None),
    (ledger, "tx_from_json", "model.tx_json", None),
    (crypto, "verify", "crypto.verify", _verified),
    (interpreter, "verify", "crypto.verify", _verified),
    (crypto, "check_multisig", "crypto.check_multisig", None),
    (interpreter, "check_multisig", "crypto.check_multisig", None),
    (utxo, "check_inputs", "utxo.check_inputs", None),
    (utxo.PendingPool, "submit", "utxo.pool.submit", None),
    (utxo.PendingPool, "drain", "utxo.pool.drain", lambda tr, a, res: tr.add("utxo.pool.drained", len(res))),
    (script, "execute", "script.execute", _script_result),
    (vm, "invoke", "vm.invoke", None),
    (vm, "deploy", "vm.deploy", None),
    (scheduler, "schedule_batch", "scheduler.schedule_batch", None),
    (scheduler, "_conflict_waves", "scheduler.conflict", None),
    (scheduler, "_run_parallel", "scheduler.parallel_wave", None),
    (rules, "apply_expiry", "rules.apply_expiry", lambda tr, a, res: tr.add("rules.apply_expiry.scanned", len(a[0]))),
]

# name, unit, better. Kept in the order the result prints them.
PER_LAYER: list[tuple[str, str, str]] = [
    ("ledger.state_digest.calls", "count", "lower"),
    ("ledger.state_digest.s", "s", "lower"),
    ("ledger.state_digest.us_per_call", "us", "lower"),
    ("ledger.state_digest.share", "frac", "lower"),
    ("ledger.apply_batch.s", "s", "lower"),
    ("ledger.apply_batch.self_s", "s", "lower"),
    ("ledger.write_batch_files.s", "s", "lower"),
    ("ledger.write_batch_files.bytes", "B", "lower"),
    ("ledger.replay_verify.s", "s", "lower"),
    ("model.txid.s", "s", "lower"),
    ("model.classify_level.s", "s", "lower"),
    ("model.tx_json.s", "s", "lower"),
    ("crypto.verify.calls", "count", "lower"),
    ("crypto.verify.s", "s", "lower"),
    ("crypto.verify.us_per_call", "us", "lower"),
    ("crypto.verify.ok_ratio", "frac", "higher"),
    ("crypto.check_multisig.calls", "count", "lower"),
    ("crypto.key_cache.hit_ratio", "frac", "higher"),
    ("utxo.check_inputs.calls", "count", "lower"),
    ("utxo.check_inputs.s", "s", "lower"),
    ("utxo.check_inputs.self_s", "s", "lower"),
    ("utxo.pool.submits", "count", "lower"),
    ("utxo.pool.drains", "count", "lower"),
    ("utxo.pool.s", "s", "lower"),
    ("script.execute.calls", "count", "lower"),
    ("script.execute.s", "s", "lower"),
    ("script.execute.steps", "count", "lower"),
    ("script.execute.steps_per_s", "1/s", "higher"),
    ("script.execute.fail_ratio", "frac", "lower"),
    ("vm.invoke.calls", "count", "lower"),
    ("vm.invoke.s", "s", "lower"),
    ("vm.gas_used", "gas", "lower"),
    ("vm.gas_per_s", "gas/s", "higher"),
    ("scheduler.schedule_batch.s", "s", "lower"),
    ("scheduler.schedule_batch.self_s", "s", "lower"),
    ("scheduler.conflict_s", "s", "lower"),
    ("scheduler.parallel_wave_s", "s", "lower"),
    ("scheduler.worker_busy_s", "s", "lower"),
    ("scheduler.pool_efficiency", "frac", "higher"),
    ("scheduler.waves", "count", "lower"),
    ("scheduler.parallel_waves", "count", "higher"),
    ("scheduler.calls_per_wave", "count", "higher"),
    ("scheduler.max_concurrency", "count", "higher"),
    ("rules.apply_expiry.s", "s", "lower"),
    ("rules.apply_expiry.scanned", "count", "lower"),
    ("trace.commit_tps_untraced", "tx/s", "higher"),
    ("trace.commit_tps_traced", "tx/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
]

# A metric is absent when a span its name starts with is absent, or the
# span named here.
_NEEDS = {"scheduler.pool_efficiency": "scheduler.parallel_wave"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: dict[str, float] = defaultdict(float)
        self.request: Any = None
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # wrapping ----------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent.add(name)
                continue
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, hook))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def restored(self) -> bool:
        return all(
            not hasattr(getattr(owner, attr, None), "__perfbench_span__")
            for owner, attr, _, _ in TARGETS
        )

    def _wrap(self, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None and self.request != REPLAY:
                hook(self, args, res)
            return res

        traced.__perfbench_span__ = name
        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    # results -----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "request"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": fields, "spans": self.spans}, f)

    def totals(self, commit_only: bool = True) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, seconds, self seconds). A span's self time is its
        duration minus its children's; children of one span never overlap,
        because each runs inside its parent's call."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, request) in enumerate(self.spans):
            if commit_only and request == REPLAY:
                continue
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return {k: (c, s, ss) for k, (c, s, ss) in out.items()}

    def metrics(
        self,
        telemetry: list[scheduler.Telemetry],
        gas_used: int,
        workers: int,
        key_cache: Optional[tuple[int, int]],
        tps: tuple[float, float],
    ) -> dict[str, Optional[float]]:
        """Per-layer metrics over the traced commit phase. `key_cache` is
        (hits, misses) of the public-key cache, `tps` the untraced and
        traced commit_tps."""
        t = self.totals()
        everything = self.totals(commit_only=False)
        get = lambda name: t.get(name, (0, 0.0, 0.0))
        digest, apply = get("ledger.state_digest"), get("ledger.apply_batch")
        verify, execute = get("crypto.verify"), get("script.execute")
        submit, drain = get("utxo.pool.submit"), get("utxo.pool.drain")
        invoke = get("vm.invoke")
        parallel_s = get("scheduler.parallel_wave")[1]
        busy = sum(e - s for tel in telemetry for s, e in tel.spans.values())
        worker_calls = sum(len(tel.spans) for tel in telemetry)
        waves = sum(len(tel.waves) for tel in telemetry)
        calls = sum(len(w) for tel in telemetry for w in tel.waves)
        vm_s = invoke[1] + busy
        c = self.counts
        m: dict[str, Optional[float]] = {
            "ledger.state_digest.calls": digest[0],
            "ledger.state_digest.s": digest[1],
            "ledger.state_digest.us_per_call": 1e6 * _ratio(digest[1], digest[0]),
            "ledger.state_digest.share": _ratio(digest[1], apply[1]),
            "ledger.apply_batch.s": apply[1],
            "ledger.apply_batch.self_s": apply[2],
            "ledger.write_batch_files.s": get("ledger.write_batch_files")[1],
            "ledger.write_batch_files.bytes": c["ledger.write_batch_files.bytes"],
            "ledger.replay_verify.s": everything.get("ledger.replay_verify", (0, 0.0))[1],
            "model.txid.s": get("model.txid")[1],
            "model.classify_level.s": get("model.classify_level")[1],
            "model.tx_json.s": everything.get("model.tx_json", (0, 0.0))[1],
            "crypto.verify.calls": verify[0],
            "crypto.verify.s": verify[1],
            "crypto.verify.us_per_call": 1e6 * _ratio(verify[1], verify[0]),
            "crypto.verify.ok_ratio": _ratio(c["crypto.verify.ok"], verify[0]),
            "crypto.check_multisig.calls": get("crypto.check_multisig")[0],
            "crypto.key_cache.hit_ratio": (
                None if key_cache is None else _ratio(key_cache[0], sum(key_cache))
            ),
            "utxo.check_inputs.calls": get("utxo.check_inputs")[0],
            "utxo.check_inputs.s": get("utxo.check_inputs")[1],
            "utxo.check_inputs.self_s": get("utxo.check_inputs")[2],
            "utxo.pool.submits": submit[0],
            "utxo.pool.drains": c["utxo.pool.drained"],
            "utxo.pool.s": submit[1] + drain[1],
            "script.execute.calls": execute[0],
            "script.execute.s": execute[1],
            "script.execute.steps": c["script.execute.steps"],
            "script.execute.steps_per_s": _ratio(c["script.execute.steps"], execute[1]),
            "script.execute.fail_ratio": _ratio(c["script.execute.fails"], execute[0]),
            "vm.invoke.calls": invoke[0] + worker_calls,
            "vm.invoke.s": vm_s,
            "vm.gas_used": gas_used,
            "vm.gas_per_s": _ratio(gas_used, vm_s),
            "scheduler.schedule_batch.s": get("scheduler.schedule_batch")[1],
            "scheduler.schedule_batch.self_s": get("scheduler.schedule_batch")[2],
            "scheduler.conflict_s": get("scheduler.conflict")[1],
            "scheduler.parallel_wave_s": parallel_s,
            "scheduler.worker_busy_s": busy,
            "scheduler.pool_efficiency": _ratio(busy, parallel_s * workers),
            "scheduler.waves": waves,
            "scheduler.parallel_waves": sum(tel.parallel_waves for tel in telemetry),
            "scheduler.calls_per_wave": _ratio(calls, waves),
            "scheduler.max_concurrency": max((tel.max_concurrency() for tel in telemetry), default=0),
            "rules.apply_expiry.s": get("rules.apply_expiry")[1],
            "rules.apply_expiry.scanned": c["rules.apply_expiry.scanned"],
            "trace.commit_tps_untraced": tps[0],
            "trace.commit_tps_traced": tps[1],
            "trace.overhead_frac": _ratio(tps[0] - tps[1], tps[0]),
        }
        for metric in m:
            if _NEEDS.get(metric) in self.absent or any(metric.startswith(a) for a in self.absent):
                m[metric] = None
        return m
