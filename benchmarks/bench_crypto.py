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
- 200 account auths: a batch of 200 honest account-auth checks, each on
  its own message, run inline and split with the helper process
  (`helper.split`, on a host with two or more CPUs). The checks
  follow each other in plan order; the "+ 100 µs work" rows spin for 100 µs
  of Python between checks, as a batch does between its signatures, and
  the "shuffled" row asks them in a fixed shuffled order, as the scheduler
  asks contract calls' auths wave by wave. Each row counts, per batch, the
  libsodium verdicts computed by the helper, by the caller for its own
  check (inline), and by the caller for another check while the helper
  held its own (helping).

Times are medians over the repetitions of a loop of calls; raw wall clock,
not scaled by a host reference.

Usage: python benchmarks/bench_crypto.py [repetitions]
"""

from __future__ import annotations

import ctypes.util
import mmap
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from itertools import cycle
from typing import Callable, Iterator

from cryptography.hazmat.backends.openssl.backend import backend as openssl

from tierledger import crypto, helper

CALLS = 2_000  # calls per repetition
SEED = b"\x05" * 32
KEY = crypto.keygen(SEED)
MSG = crypto.account_signing_message(b"\xab" * 32)
HONEST = KEY.sign(MSG)
OTHER = KEY.sign(MSG[::-1])
IDENTITY = bytes([1]) + bytes(31)
FRESH = [i.to_bytes(32, "little") for i in range(CALLS + 1)]
MULTISIG = [crypto.keygen(bytes([60 + i]) * 32) for i in range(3)]
AUTH_BATCH = 200
AUTHS = [
    (KEY.pubkey, msg, KEY.sign(msg))
    for msg in (crypto.account_signing_message(i.to_bytes(32, "little")) for i in range(AUTH_BATCH))
]
SHUFFLED = random.Random(24).sample(AUTHS, AUTH_BATCH)


def us_per_call(reps: int, fn: Callable[[], object], calls: int = CALLS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6 / calls


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


def auth_batch(split: bool, work_s: float = 0.0, order: list = AUTHS) -> None:
    """One batch of AUTHS, planned in their order and asked in order, inline
    or shared with the helper process, with work_s of Python spinning
    between checks."""
    with helper.split([[((pk,), msg, (sig,)) for pk, msg, sig in AUTHS]], list) if split else nullcontext():
        for auth in order:
            if not crypto.verify(*auth):
                raise SystemExit("account auth: unexpected verdict")
            end = time.perf_counter() + work_s
            while time.perf_counter() < end:
                pass


VERDICT_SOURCES = ("helper", "caller inline", "caller helping", "caller, no slot")


@contextmanager
def counting_verdicts() -> Iterator[memoryview]:
    """Count libsodium verdicts by VERDICT_SOURCES, in memory shared with a
    helper forked inside the block (the current one is stopped first, since
    a helper runs the functions it forked with). The caller computes its own
    check with its cursor on the slot, and helps with another one."""
    counts = memoryview(mmap.mmap(-1, 8 * len(VERDICT_SOURCES))).cast("q")
    main = os.getpid()
    real_verdict, real_check = helper._run, crypto._sodium_check

    def verdict(table, slot, key, claim):
        if claim == helper.HELPING:
            counts[0] += 1
        else:
            counts[1 if slot == int.from_bytes(table[: helper.HEAD], "little") else 2] += 1
            counts[3] -= 1  # counted again as a caller call below
        return real_verdict(table, slot, key, claim)

    def check(*key):
        if os.getpid() == main:
            counts[3] += 1
        return real_check(*key)

    stop_helper()
    helper._run, crypto._sodium_check = verdict, check
    try:
        yield counts
    finally:
        stop_helper()
        helper._run, crypto._sodium_check = real_verdict, real_check


def stop_helper() -> None:
    """Close the helper's pipe, so that it exits, and forget it."""
    running, helper._helper = helper._helper, None
    if running is not None:
        running[1].close()
        running[0].join(10)


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

    if crypto.CPUS < 2 or fast is None:
        print(f"  {AUTH_BATCH} account auths: split needs libsodium and two CPUs; inline only")
    for work_s, order, label in ((0.0, AUTHS, ""), (100e-6, AUTHS, " + 100 µs work"),
                                 (100e-6, SHUFFLED, " + 100 µs work, shuffled")):
        for split in (False, True) if crypto.CPUS >= 2 and fast is not None else (False,):
            with counting_verdicts() as counts:
                auth_batch(split, work_s, order)
                # The helper may still be finishing the batch, so read after
                # the next one has waited for its acknowledgement.
                with helper.split([], list) if split else nullcontext():
                    sources = ", ".join(f"{name} {n}" for name, n in zip(VERDICT_SOURCES, counts))
            auth_batch(split, work_s, order)  # forks the helper outside the timed loop
            us = us_per_call(reps, lambda: auth_batch(split, work_s, order), 10) / AUTH_BATCH
            name = f"{AUTH_BATCH} account auths{label}, {'split' if split else 'inline'}"
            print(f"  {name:51s} {us:7.1f} µs per check; verdicts: {sources}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
