"""Signature cost: µs per `crypto.verify` on four inputs, per `sign` and
`keygen` on each backend, and per multisig that skips a key, with which
backend answered.

- honest accept: a valid signature; libsodium accepts it and OpenSSL is
  never called (the fast path).
- reject: a valid signature on another message; libsodium rejects, then
  OpenSSL rejects (the cost of a refused signature).
- small-order accept: identity key, identity R and S = 0; OpenSSL accepts
  it and libsodium refuses small-order points, so OpenSSL decides.
- OpenSSL alone: the honest signature through the OpenSSL call only, which
  is what `crypto.verify` costs on a host without libsodium.
- sign / keygen: `crypto.sign` and `crypto.keygen` through libsodium and
  through OpenSSL (libsodium hidden). `sign` reuses one seed, whose derived
  key is cached as in a workload that reuses its keys; `keygen` cycles
  through more fresh seeds than the key caches hold, so every call derives.
- 2-of-3 skipping key 1: an honest `check_multisig` signed by keys 0 and
  2, with the number of OpenSSL verifications each check makes.

Times are medians over the repetitions of a loop of calls; raw wall clock,
not scaled by a host reference.

Usage: python benchmarks/bench_crypto.py [repetitions]
"""

from __future__ import annotations

import ctypes.util
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from itertools import cycle
from typing import Callable, Iterator

from cryptography.hazmat.backends.openssl.backend import backend as openssl

from tierledger import crypto

CALLS = 2_000  # calls per repetition
SEED = b"\x05" * 32
KEY = crypto.keygen(SEED)
MSG = crypto.account_signing_message(b"\xab" * 32)
HONEST = KEY.sign(MSG)
OTHER = KEY.sign(MSG[::-1])
IDENTITY = bytes([1]) + bytes(31)
FRESH = [i.to_bytes(32, "little") for i in range(CALLS + 1)]
MULTISIG = [crypto.keygen(bytes([60 + i]) * 32) for i in range(3)]


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


@contextmanager
def without_libsodium() -> Iterator[None]:
    real = crypto._sodium
    crypto._sodium = lambda: None
    try:
        yield
    finally:
        crypto._sodium = real


@contextmanager
def counting_openssl(calls: list) -> Iterator[None]:
    real = crypto._public_key
    crypto._public_key = lambda pk: calls.append(pk) or real(pk)
    try:
        yield
    finally:
        crypto._public_key = real


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
        print(f"  {name:28s} {us_per_call(reps, lambda: crypto.verify(*args)):7.1f} µs")
    print(f"  {'OpenSSL alone':28s} {us_per_call(reps, openssl_alone):7.1f} µs")

    backends = [("OpenSSL", without_libsodium)]
    if fast is not None:
        backends.insert(0, ("libsodium", nullcontext))
    for backend, hide in backends:
        with hide():
            if crypto.sign(SEED, MSG) != HONEST or crypto.keygen(SEED) != KEY:
                raise SystemExit(f"{backend}: sign or keygen differs")
            print(f"  {'sign, ' + backend:28s} {us_per_call(reps, lambda: crypto.sign(SEED, MSG)):7.1f} µs")
            seeds = cycle(FRESH)
            us = us_per_call(reps, lambda: crypto.keygen(next(seeds)))
            print(f"  {'keygen, ' + backend:28s} {us:7.1f} µs")

    pks = [kp.pubkey for kp in MULTISIG]
    sigs = [MULTISIG[0].sign(MSG), MULTISIG[2].sign(MSG)]
    calls: list = []
    with counting_openssl(calls):
        if not crypto.check_multisig(2, pks, sigs, MSG):
            raise SystemExit("2-of-3 multisig: unexpected verdict")
    us = us_per_call(reps, lambda: crypto.check_multisig(2, pks, sigs, MSG))
    print(f"  {'2-of-3 skipping key 1':28s} {us:7.1f} µs, {len(calls)} OpenSSL calls per check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
