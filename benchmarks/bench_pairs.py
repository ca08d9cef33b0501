"""Alternating pairs of perfbench runs in two trees: the end-to-end metrics
of each tree, how often the second beats the first, and how long each
run's two processes waited for a CPU.

For each workload, pair i runs perfbench/run.py once in each tree, the
parent first on even pairs and the change first on odd ones, each run in a
fresh Python process started in its tree's directory. That process runs
the tree's perfbench main in-process, with the tree's own src/, as
bench_traffic.py does, so perfbench is used unedited; it learns the pid of
the helper process by wrapping helper._ready_helper, which the ledger calls
once per batch, outside apply_batch's own work.

Per run it reads the run-queue wait, field 2 of /proc/<pid>/schedstat (ns
spent runnable but not running), of the caller (the process's main thread)
and of the helper, over the whole run and over the timed commits alone
(perfbench's commit_all calls, around which it is read). A helper that
exits before it is read, or a host without schedstat (not Linux), reads
null. A caller and a helper placed on one vCPU wait for each other, which
halves the run's commit_tps; such a run is named in `waited`: its caller
waited over the timed commits more than WAITED_OVER times the median of
all of the workload's runs and more than WAITED_MIN_S.

For each metric the JSON holds both trees' medians and inclusive quartiles,
the ratio change/parent, the pairs the change won (better in the direction
BENCHMARK.json gives), how much worse the change's median is against the
benchmark's bound (negative: better), and whether the parent's IQR, as a
share of its median, is wider than the bound, in which case a difference
inside it is unresolved. It also says whether both trees ended every run on
the same final header hashes.

Usage: python benchmarks/bench_pairs.py PARENT CHANGE [--workloads W ...]
       [--pairs N] [--seed S] [--seconds S] [--out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WAITED_OVER = 3.0
WAITED_MIN_S = 0.15


def run_queue_wait(pid: int) -> Optional[float]:
    """Seconds pid has waited on a run queue, or None where unreadable."""
    try:
        return int(Path(f"/proc/{pid}/schedstat").read_text().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return None


def since(after: Optional[float], before: Optional[float]) -> Optional[float]:
    return None if after is None or before is None else round(after - before, 4)


def total(waits: list) -> Optional[float]:
    return None if not waits or None in waits else round(sum(waits), 4)


def one_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run tree's perfbench main in this process and return its result,
    final header hashes and run-queue waits."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run as perfbench  # inserts tree/src into sys.path

    from tierledger import helper

    helpers: list[int] = []  # each helper's pid, in start order
    ready, commit_all = helper._ready_helper, perfbench.commit_all
    timed: dict[str, list] = {"caller": [], "helper": []}  # waits over each commit_all

    def ready_noting_pid():
        running = ready()
        if running is not None and (not helpers or helpers[-1] != running[0].pid):
            helpers.append(running[0].pid)
        return running

    def commit_all_timed(*args, **kwargs):
        pids = os.getpid(), helpers[-1] if helpers else None
        before = [run_queue_wait(pid) if pid else None for pid in pids]
        try:
            return commit_all(*args, **kwargs)
        finally:
            for waits, pid, then in zip(timed.values(), pids, before):
                waits.append(since(run_queue_wait(pid) if pid else None, then))

    helper._ready_helper, perfbench.commit_all = ready_noting_pid, commit_all_timed
    out = io.StringIO()
    caller_start = run_queue_wait(os.getpid())
    sys.argv = ["run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    with contextlib.redirect_stdout(out):
        status = perfbench.main()
    lines = out.getvalue().splitlines()
    waits = [run_queue_wait(pid) for pid in helpers]
    return {
        "status": status,
        "result": json.loads(lines[-1]) if status == 0 else None,
        "final_header_hashes": [line.split("=", 1)[1] for line in lines if line.startswith("final_header_hash[")],
        "caller_wait_s": since(run_queue_wait(os.getpid()), caller_start),
        "helper_wait_s": total(waits),
        "helpers": len(helpers),
        "caller_wait_timed_s": total(timed["caller"]),
        "helper_wait_timed_s": total(timed["helper"]),
    }


def spawn(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """one_run in a fresh process; its result is its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--one", str(tree), workload, str(seed), f"{seconds:g}"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return {"status": done.returncode, "result": None, "final_header_hashes": []}
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 3), round(q3, 3)]


def compare(name: str, parent: list[float], change: list[float], spec: dict) -> dict:
    """The pairs of one metric, each pair's parent and change value in
    the same position."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    row: dict = {"parent_median": round(p_med, 3), "change_median": round(c_med, 3)}
    row["ratio"] = round(c_med / p_med, 3) if p_med else None
    higher = {"higher": True, "lower": False}.get(spec.get("better"))
    if higher is not None and p_med:
        worse = (p_med - c_med) / p_med if higher else (c_med - p_med) / p_med
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        row.update(worse_by=round(worse, 3), bound=spec["bound"], within_bound=worse <= spec["bound"],
                   wins=f"{wins}/{len(parent)}")
    row.update(parent_q1_q3=p_q, parent_iqr=round(p_q[1] - p_q[0], 3), change_q1_q3=quartiles(change))
    if p_med and "bound" in spec:
        row["parent_iqr_frac"] = round((p_q[1] - p_q[0]) / p_med, 3)
        row["spread_exceeds_bound"] = row["parent_iqr_frac"] > spec["bound"]
    row["parent_runs"] = [round(x, 3) for x in parent]
    row["change_runs"] = [round(x, 3) for x in change]
    return row


def workload_pairs(trees: dict[str, Path], workload: str, args, specs: dict) -> dict:
    runs: list[dict] = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = spawn(trees[side], workload, args.seed, args.seconds)
            run.update(pair=i, tree=side)
            runs.append(run)
            metrics = (run["result"] or {}).get("metrics", {})
            print(f"{workload} pair {i} {side}: " + (
                f"commit_tps {metrics['commit_tps']['value']:.1f}, caller wait {run.get('caller_wait_timed_s')} s"
                if metrics else f"failed with status {run['status']}"), file=sys.stderr, flush=True)
    good = [r for r in runs if r["result"] is not None]
    bad_pairs = {r["pair"] for r in runs if r["result"] is None}
    side = {s: sorted((r for r in good if r["tree"] == s and r["pair"] not in bad_pairs), key=lambda r: r["pair"])
            for s in trees}
    out: dict = {
        "pairs": len(side["parent"]),
        "bad_runs": len(runs) - len(good),
        "failed_ops": {s: sum(r["result"]["failed"] for r in side[s]) for s in trees},
        "attempted_ops": {s: sum(r["result"]["attempted"] for r in side[s]) for s in trees},
    }
    hashes = {s: {tuple(r["final_header_hashes"]) for r in side[s]} for s in trees}
    out["final_header_hashes_equal_parent"] = len(hashes["parent"]) == 1 and hashes["parent"] == hashes["change"]
    if side["parent"]:
        for name in side["parent"][0]["result"]["metrics"]:
            out[name] = compare(
                name, *[[r["result"]["metrics"][name]["value"] for r in side[s]] for s in ("parent", "change")],
                specs.get(name, {}),
            )
    waits = [r["caller_wait_timed_s"] for r in good if r.get("caller_wait_timed_s") is not None]
    limit = max(WAITED_OVER * statistics.median(waits), WAITED_MIN_S) if waits else None
    out["runs"] = [
        {key: r.get(key) for key in ("pair", "tree", "caller_wait_s", "helper_wait_s",
                                     "caller_wait_timed_s", "helper_wait_timed_s", "helpers")}
        | {"commit_tps": round(r["result"]["metrics"]["commit_tps"]["value"], 3) if r["result"] else None}
        for r in runs
    ]
    out["waited"] = [
        f"{r['tree']} pair {r['pair']}" for r in good
        if limit is not None and (r.get("caller_wait_timed_s") or 0) > limit
    ]
    out["waited_over_s"] = None if limit is None else round(limit, 4)
    return out


def main() -> int:
    if sys.argv[1:2] == ["--one"]:
        tree, workload, seed, seconds = sys.argv[2:6]
        result = one_run(Path(tree).resolve(), workload, int(seed), float(seconds))
        print(json.dumps(result))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+", default=["contracts-declared"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", type=Path, help="also write the JSON to this file")
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    result = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "trees": {s: str(t) for s, t in trees.items()},
        "seed": args.seed,
        "workloads": {w: workload_pairs(trees, w, args, specs) for w in args.workloads},
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
