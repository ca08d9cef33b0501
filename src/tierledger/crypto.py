"""Signature primitives: Ed25519 keys, fail-closed verification, and
deterministic m-of-n multisignature checking.

libsodium, when installed, derives keys (`keygen`), signs (`sign`) and
short-cuts accepts (`verify`); Ed25519 signing is deterministic, so it
returns OpenSSL's bytes. Without it, OpenSSL (through `cryptography`) does
all three. OpenSSL decides every rejection either way: `check_multisig`
first matches with libsodium's accepts alone and asks `verify` only when
that pass fails.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Optional, Sequence

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


def _sodium_accepts(pubkey: bytes, msg: bytes, sig: bytes) -> bool:
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


def utxo_signing_message(txid: bytes, input_index: int) -> bytes:
    """Signing message for UTXO spend input i: sha256(txid || u32 LE i)."""
    return sha256(txid + input_index.to_bytes(4, "little"))


ACCOUNT_AUTH_TAG = (0xFFFFFFFF).to_bytes(4, "little")


def account_signing_message(txid: bytes) -> bytes:
    """Signing message authenticating an account-based transaction.

    Distinct from every per-input message: the index slot holds 0xffffffff.
    """
    return sha256(txid + ACCOUNT_AUTH_TAG)
