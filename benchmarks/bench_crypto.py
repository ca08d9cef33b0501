"""Signature cost: µs per `crypto.verify` on four inputs, and which backend
answered.

- honest accept: a valid signature; libsodium accepts it and OpenSSL is
  never called (the fast path).
- reject: a valid signature on another message; libsodium rejects, then
  OpenSSL rejects (the cost of a refused signature).
- small-order accept: identity key, identity R and S = 0; OpenSSL accepts
  it and libsodium refuses small-order points, so OpenSSL decides.
- OpenSSL alone: the honest signature through the OpenSSL call only, which
  is what `crypto.verify` costs on a host without libsodium.

Times are medians over the repetitions of a loop of calls; raw wall clock,
not scaled by a host reference.

Usage: python benchmarks/bench_crypto.py [repetitions]
"""

from __future__ import annotations

import ctypes.util
import statistics
import sys
import time
from typing import Callable

from cryptography.hazmat.backends.openssl.backend import backend as openssl

from tierledger import crypto

CALLS = 2_000  # verifications per repetition
KEY = crypto.keygen(b"\x05" * 32)
MSG = crypto.account_signing_message(b"\xab" * 32)
HONEST = KEY.sign(MSG)
OTHER = KEY.sign(MSG[::-1])
IDENTITY = bytes([1]) + bytes(31)


def us_per_call(reps: int, fn: Callable[[], object]) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6 / CALLS


def openssl_alone() -> bool:
    return crypto._public_key(KEY.pubkey).verify(HONEST, MSG) is None


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    fast = crypto._sodium_verify()
    sodium = ctypes.util.find_library("sodium") if fast is not None else "none (every verdict from OpenSSL)"
    print(f"fast path: {sodium}; fallback: {openssl.openssl_version_text()}")
    cases = {
        "honest accept": ((KEY.pubkey, MSG, HONEST), True),
        "reject": ((KEY.pubkey, MSG, OTHER), False),
        "small-order accept": ((IDENTITY, MSG, IDENTITY + bytes(32)), True),
    }
    for name, (args, want) in cases.items():
        if crypto.verify(*args) is not want:
            raise SystemExit(f"{name}: unexpected verdict")
        print(f"  {name:20s} {us_per_call(reps, lambda: crypto.verify(*args)):7.1f} µs")
    print(f"  {'OpenSSL alone':20s} {us_per_call(reps, openssl_alone):7.1f} µs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
