"""Script interpreter throughput: steps/s and microseconds per script on a
fixed mixed workload of signature checks, hash puzzles, branches, and
loop-heavy adversarial programs.

Each case runs through script.execute with the same context, so every
repetition executes identical work.

Usage: python benchmarks/bench_script.py [iterations]
"""

from __future__ import annotations

import random
import sys
import time

from tierledger import crypto
from tierledger.script import ScriptContext, assemble, execute


def build_workload(rng: random.Random) -> tuple[dict[str, list], bytes]:
    """Named groups of (program, witness) cases and the signing message."""
    kp = crypto.keygen(b"\x09" * 32)
    msg = bytes(32)
    sig = crypto.sign(kp.seed, msg)
    pk = kp.pubkey.hex()
    groups = {
        "checksig": [(assemble(f"PUSH({pk}) CHECKSIG"), (sig,))],
        "hash+sig": [(assemble(f"DUP SHA256 PUSH({pk}) SWAP DROP CHECKSIG"), (sig,))],
        "branch": [(assemble("TRUE IF TRUE ELSE FALSE ENDIF VERIFY TRUE"), ())],
        "equal": [(assemble("PUSH(ab) PUSH(ab) EQUALVERIFY TRUE"), ())],
        "steps": [(bytes([0x51, 0x75]) * 4000, ())],  # step-limit territory
        "stack": [(bytes([0x51]) * 300, ())],  # stack-limit territory
        "random": [
            (bytes(rng.choice([0x00, 0x51, 0x75, 0x76, 0x7C, 0x87, 0xA8]) for _ in range(30)),
             (b"\x01", b"\x02"))
            for _ in range(40)
        ],
    }
    return groups, msg


def bench(cases: list, ctx: ScriptContext, iterations: int) -> tuple[float, int]:
    """Best of three: (seconds for `iterations` passes over cases, steps per pass)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(iterations):
            for code, witness in cases:
                execute(code, witness, ctx)
        best = min(best, time.perf_counter() - t0)
    steps = sum(execute(code, witness, ctx).steps for code, witness in cases)
    return best, steps


def main() -> int:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    groups, msg = build_workload(random.Random(1))
    ctx = ScriptContext(signing_message=msg)
    groups["all"] = [case for cases in groups.values() for case in cases]
    for name, cases in groups.items():
        seconds, steps = bench(cases, ctx, iterations)
        scripts = iterations * len(cases)
        print(
            f"{name:8s} {len(cases):3d} scripts {steps / len(cases):8.1f} steps/script  "
            f"{1e6 * seconds / scripts:8.1f} us/script  "
            f"{steps * iterations / seconds / 1e6:6.3f} Msteps/s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
