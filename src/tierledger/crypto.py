"""Signature primitives: Ed25519 keys, fail-closed verification, and
deterministic m-of-n multisignature checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .model import MAX_MULTISIG_KEYS, sha256

SEED_BYTES = 32
PUBKEY_BYTES = 32
SIG_BYTES = 64


@dataclass(frozen=True)
class KeyPair:
    seed: bytes
    pubkey: bytes

    def sign(self, msg: bytes) -> bytes:
        return sign(self.seed, msg)


def keygen(seed: bytes) -> KeyPair:
    """Deterministic Ed25519 keypair from a 32-byte seed."""
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes")
    sk = Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(seed, sk.public_key().public_bytes_raw())


# Key-object construction costs as much as the signature math; workloads
# reuse a handful of keys, so memoize the parsed objects.
@lru_cache(maxsize=256)
def _private_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@lru_cache(maxsize=256)
def _public_key(pubkey: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(pubkey)


def sign(seed: bytes, msg: bytes) -> bytes:
    return _private_key(seed).sign(msg)


def verify(pubkey: bytes, msg: bytes, sig: bytes) -> bool:
    """True iff sig is a valid signature on msg under pubkey.

    Malformed key or signature lengths yield False, not an exception:
    validation pipelines treat every failure as "lock not satisfied".
    """
    if len(pubkey) != PUBKEY_BYTES or len(sig) != SIG_BYTES:
        return False
    try:
        _public_key(pubkey).verify(sig, msg)
        return True
    except (InvalidSignature, ValueError):
        return False


def check_multisig(m: int, pubkeys: Sequence[bytes], sigs: Sequence[bytes], msg: bytes) -> bool:
    """m-of-n multisignature check, single left-to-right pass.

    Every signature must match some key, keys and signatures in consistent
    order, each key used at most once, no backtracking. True iff all
    signatures match and at least m were provided.
    """
    n = len(pubkeys)
    if not 1 <= m <= n <= MAX_MULTISIG_KEYS:
        return False
    if len(sigs) > n or len(sigs) < m:
        return False
    ki = 0
    for sig in sigs:
        while ki < n and not verify(pubkeys[ki], msg, sig):
            ki += 1
        if ki == n:
            return False
        ki += 1
    return True


def utxo_signing_message(txid: bytes, input_index: int) -> bytes:
    """Signing message for UTXO spend input i: sha256(txid || u32 LE i)."""
    return sha256(txid + input_index.to_bytes(4, "little"))


ACCOUNT_AUTH_TAG = (0xFFFFFFFF).to_bytes(4, "little")


def account_signing_message(txid: bytes) -> bytes:
    """Signing message authenticating an account-based transaction.

    Distinct from every per-input message: the index slot holds 0xffffffff.
    """
    return sha256(txid + ACCOUNT_AUTH_TAG)
