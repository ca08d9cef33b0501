"""Signature primitives: Ed25519 keys, fail-closed verification, and
deterministic m-of-n multisignature checking.

libsodium, when installed, derives keys (`keygen`), signs (`sign`) and
short-cuts accepts (`verify`); Ed25519 signing is deterministic, so it
returns OpenSSL's bytes. Without it, OpenSSL (through `cryptography`) does
all three. OpenSSL decides every rejection either way: `check_multisig`
first matches with libsodium's accepts alone and asks `verify` only when
that pass fails.

Inside `split_checks`, one forked helper process runs libsodium over the
batch's planned checks from the front, ahead of the caller, and the two
share verdicts through a byte table in shared memory. Only libsodium
verdicts are shared, so no verdict depends on the helper.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import mmap
import multiprocessing
import os
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Iterator, Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .model import MAX_MULTISIG_KEYS, sha256

SEED_BYTES = 32
PUBKEY_BYTES = 32
SIG_BYTES = 64
# Order of the Ed25519 base point; a signature's S half must be below it.
GROUP_ORDER = 2**252 + 27742317777372353535851937790883648493
# CPUs this process may run on; with one, no helper process is started.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


@dataclass(frozen=True)
class KeyPair:
    seed: bytes
    pubkey: bytes

    def sign(self, msg: bytes) -> bytes:
        return sign(self.seed, msg)


@cache
def _sodium() -> Optional[ctypes.CDLL]:
    """libsodium, loaded and initialised on first use with the signatures of
    the three Ed25519 calls used here, or None where it is not installed."""
    name = ctypes.util.find_library("sodium")
    if name is None:
        return None
    try:
        lib = ctypes.CDLL(name)
        init = lib.sodium_init
        keypair = lib.crypto_sign_ed25519_seed_keypair
        detached = lib.crypto_sign_ed25519_detached
        verify_detached = lib.crypto_sign_ed25519_verify_detached
    except (OSError, AttributeError):
        return None
    init.argtypes = ()
    init.restype = ctypes.c_int
    if init() < 0:
        return None
    # (pk out, sk out, seed)
    keypair.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
    keypair.restype = ctypes.c_int
    # (sig out, siglen out or NULL, msg, msglen, sk)
    detached.argtypes = (
        ctypes.c_char_p,
        ctypes.c_void_p,
        ctypes.c_char_p,
        ctypes.c_ulonglong,
        ctypes.c_char_p,
    )
    detached.restype = ctypes.c_int
    # (sig, msg, msglen, pk)
    verify_detached.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
    verify_detached.restype = ctypes.c_int
    return lib


def _sodium_verify() -> Optional[Callable[[bytes, bytes, int, bytes], int]]:
    """libsodium's `crypto_sign_ed25519_verify_detached`, or None."""
    lib = _sodium()
    return None if lib is None else lib.crypto_sign_ed25519_verify_detached


def _check_seed(seed: bytes) -> None:
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes")


# Deriving a key costs about as much as a signature; workloads reuse a
# handful of keys, so memoize the derived keys and parsed key objects.
@lru_cache(maxsize=256)
def _secret_key(seed: bytes) -> bytes:
    """libsodium's 64-byte secret key (seed || public key), derived from the
    seed alone. Only called once `_sodium()` is known to be loaded."""
    _check_seed(seed)  # libsodium reads SEED_BYTES from the pointer
    pk = ctypes.create_string_buffer(PUBKEY_BYTES)
    sk = ctypes.create_string_buffer(SEED_BYTES + PUBKEY_BYTES)
    _sodium().crypto_sign_ed25519_seed_keypair(pk, sk, seed)
    return sk.raw


@lru_cache(maxsize=256)
def _private_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@lru_cache(maxsize=256)
def _public_key(pubkey: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(pubkey)


def keygen(seed: bytes) -> KeyPair:
    """Deterministic Ed25519 keypair from a 32-byte seed."""
    _check_seed(seed)
    if _sodium() is None:
        return KeyPair(seed, _private_key(seed).public_key().public_bytes_raw())
    return KeyPair(seed, _secret_key(seed)[SEED_BYTES:])


def sign(seed: bytes, msg: bytes) -> bytes:
    """Ed25519 signature on msg under the key derived from seed.

    Signing is deterministic (RFC 8032 section 5.1.6), so libsodium and
    OpenSSL return the same bytes; OpenSSL signs where libsodium is absent.
    """
    lib = _sodium()
    if lib is None:
        return _private_key(seed).sign(msg)
    sig = ctypes.create_string_buffer(SIG_BYTES)
    lib.crypto_sign_ed25519_detached(sig, None, msg, len(msg), _secret_key(seed))
    return sig.raw


def _sodium_check(pubkey: bytes, msg: bytes, sig: bytes) -> bool:
    """True iff libsodium is installed and accepts sig, with the S < L guard.

    This accept set is a subset of OpenSSL's: both check the same
    cofactorless equation over the same SHA512(R || A || M), and libsodium
    only adds rejections (small-order A or R, non-canonical A). The explicit
    guard keeps that true for a libsodium built without its own S check.
    """
    fast = _sodium_verify()
    return (
        fast is not None
        and len(pubkey) == PUBKEY_BYTES
        and len(sig) == SIG_BYTES
        and int.from_bytes(sig[32:], "little") < GROUP_ORDER
        and fast(sig, msg, len(msg), pubkey) == 0
    )


def verify(pubkey: bytes, msg: bytes, sig: bytes) -> bool:
    """True iff sig is a valid signature on msg under pubkey.

    The ledger's acceptance rules are OpenSSL's (through `cryptography`):
    every False comes from OpenSSL. libsodium, when installed, is asked
    first and may only short-cut an accept (`_sodium_accepts`). An honest
    signature costs one libsodium call; a rejected one costs a libsodium
    call and then the OpenSSL call.

    Malformed key or signature lengths yield False, not an exception:
    validation pipelines treat every failure as "lock not satisfied".
    """
    if _sodium_accepts(pubkey, msg, sig):
        return True
    if len(pubkey) != PUBKEY_BYTES or len(sig) != SIG_BYTES:
        return False
    try:
        _public_key(pubkey).verify(sig, msg)
        return True
    except (InvalidSignature, ValueError):
        return False


def _in_order(
    accepts: Callable[[bytes, bytes, bytes], bool],
    pubkeys: Sequence[bytes],
    sigs: Sequence[bytes],
    msg: bytes,
) -> bool:
    """Greedy left-to-right match: each signature takes the first unused key
    after the previous match that `accepts` it. Taking the earliest key never
    hurts a later signature, so this finds an order-preserving matching
    whenever one exists."""
    n = len(pubkeys)
    ki = 0
    for sig in sigs:
        while ki < n and not accepts(pubkeys[ki], msg, sig):
            ki += 1
        if ki == n:
            return False
        ki += 1
    return True


def check_multisig(m: int, pubkeys: Sequence[bytes], sigs: Sequence[bytes], msg: bytes) -> bool:
    """m-of-n multisignature check, left to right.

    Every signature must match some key, keys and signatures in consistent
    order, each key used at most once. True iff all signatures match and at
    least m were provided.

    The first pass asks libsodium alone, so an honest multisig that skips a
    key never pays OpenSSL's rejection. Only if it fails does the second
    pass ask `verify`, so OpenSSL still decides every rejection. The verdict
    is `verify`'s: libsodium's accepts are a subset of `verify`'s, and a
    matching under the subset is a matching under `verify`, which its
    greedy pass then finds.
    """
    n = len(pubkeys)
    if not 1 <= m <= n <= MAX_MULTISIG_KEYS:
        return False
    if len(sigs) > n or len(sigs) < m:
        return False
    return _in_order(_sodium_accepts, pubkeys, sigs, msg) or _in_order(verify, pubkeys, sigs, msg)


Check = tuple[Sequence[bytes], bytes, Sequence[bytes]]  # (pubkeys, msg, sigs)

# The verdict table in shared memory: a 4-byte cursor (the caller's last slot,
# or DONE after the batch), then a state byte per planned triple in plan order.
# Claims are plain byte writes: racing, both sides may compute one triple.
FREE, HELPING, CALLING, ACCEPT, REJECT = range(5)
HEAD, TABLE_SLOTS, DONE = 4, 1 << 16, 2**32 - 1  # planned triples past TABLE_SLOTS verify inline
# The helper (process, the caller's end of its pipe, table); the running
# batch's triple -> offset (None outside `split_checks`) and offset - HEAD -> triple.
_helper: Optional[tuple] = None
_slots: Optional[dict] = None
_triples: list = []


def _index(plan: Sequence[Check]) -> dict:
    """Each distinct triple that `check_multisig`'s greedy pass over plan may
    ask libsodium (signature j against keys j onwards), to its table offset
    while the table has room."""
    slots: dict = {}
    for pubkeys, msg, sigs in plan:
        for j, sig in enumerate(sigs):
            for pubkey in pubkeys[j:]:
                if len(slots) < TABLE_SLOTS:
                    slots.setdefault((pubkey, msg, sig), HEAD + len(slots))
    return slots


def _verdict(table: mmap.mmap, slot: int, key: tuple[bytes, bytes, bytes], claim: int) -> bool:
    """key's libsodium verdict, computed under claim and written to its slot."""
    table[slot] = claim
    verdict = _sodium_check(*key)
    table[slot] = ACCEPT if verdict else REJECT
    return verdict


def _sodium_accepts(pubkey: bytes, msg: bytes, sig: bytes) -> bool:
    """`_sodium_check`, through the running batch's table if the triple is
    planned. While the helper computes the caller's slot, the caller computes
    the next free slot; with none left it waits, as long as the helper lives."""
    key = (pubkey, msg, sig)
    slot = None if _slots is None else _slots.get(key)
    if slot is None:
        return _sodium_check(*key)
    process, _, table = _helper
    table[:HEAD] = slot.to_bytes(HEAD, "little")
    while (state := table[slot]) == HELPING:
        if (free := table.find(b"\0", slot + 1, HEAD + len(_triples))) > 0:
            _verdict(table, free, _triples[free - HEAD], CALLING)
        elif not process.is_alive():
            break
    return state == ACCEPT if state >= ACCEPT else _verdict(table, slot, key, CALLING)


def _serve(conn: multiprocessing.connection.Connection, table: mmap.mmap) -> None:
    """The helper process: for each plan, `check_multisig`'s libsodium pass over
    the free slots past the caller's cursor, then an acknowledgement, after which
    it writes nothing until it blocks on the next plan. EOF ends it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C stops the parent, and EOF this

    def accepts(*key: bytes) -> bool:
        slot = slots.get(key)
        if slot is None or slot <= int.from_bytes(table[:HEAD], "little"):
            return True  # unplanned, or the caller is past it: assume honest
        return _verdict(table, slot, key, HELPING) if table[slot] == FREE else table[slot] != REJECT

    with suppress(EOFError, OSError):  # the caller's end is closed
        while True:
            plan = conn.recv()
            slots = _index(plan)
            for pubkeys, msg, sigs in plan:
                _in_order(accepts, pubkeys, sigs, msg)
            conn.send_bytes(b"")


def _ready_helper() -> tuple:
    """The helper once it has acknowledged its last batch, after which it
    writes nothing until the next plan; a new helper if it died."""
    global _helper
    if _helper is not None:
        with suppress(EOFError, OSError):  # else it died; starting the next process reaps it
            _helper[1].recv_bytes()
            return _helper
    table, (conn, child_end) = mmap.mmap(-1, HEAD + TABLE_SLOTS), multiprocessing.Pipe()
    fork = multiprocessing.get_context("fork")
    process = fork.Process(target=_serve, args=(child_end, table), name="tierledger-verify", daemon=True)
    _helper = (process, conn, table)
    try:
        process.start()  # the fork hook closes conn in the helper
    finally:
        child_end.close()
    return _helper


@contextmanager
def split_checks(plan: Callable[[], Sequence[Check]]) -> Iterator[None]:
    """Share the batch's libsodium verdicts with the helper process, which
    works through plan() meanwhile; only with libsodium and two CPUs is
    plan() called."""
    global _slots, _triples
    if CPUS < 2 or _sodium_verify() is None:
        yield
        return
    checks = plan()
    slots = _index(checks)
    helper = _ready_helper()
    helper[2][: HEAD + len(slots)] = bytes(HEAD + len(slots))
    with suppress(OSError):  # a helper that died since: inline now, a new one next batch
        helper[1].send(checks)
        _slots, _triples = slots, list(slots)
    try:
        yield
    finally:
        _slots, _triples = None, []
        if _helper is helper:  # not in a forked child
            helper[2][:HEAD] = DONE.to_bytes(HEAD, "little")


def _forget_helper() -> None:
    """In a forked child: verify inline, never touching the parent's table or pipe."""
    global _helper, _slots
    if _helper is not None:
        _helper[1].close()
        multiprocessing.process._children.discard(_helper[0])  # the child's exit must not stop it
    _helper = _slots = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def utxo_signing_message(txid: bytes, input_index: int) -> bytes:
    """Signing message for UTXO spend input i: sha256(txid || u32 LE i)."""
    return sha256(txid + input_index.to_bytes(4, "little"))


ACCOUNT_AUTH_TAG = (0xFFFFFFFF).to_bytes(4, "little")


def account_signing_message(txid: bytes) -> bytes:
    """Signing message authenticating an account-based transaction.

    Distinct from every per-input message: the index slot holds 0xffffffff.
    """
    return sha256(txid + ACCOUNT_AUTH_TAG)
