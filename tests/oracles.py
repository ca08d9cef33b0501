"""Independent oracles the differential tests compare against.

Deliberately written from the documented tables, not from the package
internals: opcode bytes, limits, and failure reasons are restated as
literals, signature verification goes straight to the cryptography
library, and multisig matching is brute force instead of greedy.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey


def verify_sig(pubkey: bytes, msg: bytes, sig: bytes) -> bool:
    if len(pubkey) != 32 or len(sig) != 64:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(pubkey).verify(sig, msg)
        return True
    except (InvalidSignature, ValueError):
        return False


def multisig_oracle(m: int, pubkeys: Sequence[bytes], sigs: Sequence[bytes], msg: bytes) -> bool:
    """Brute force: valid iff some order-preserving injection of signatures
    into the key list verifies every signature, with 1 <= m <= n <= 16 and
    m <= len(sigs) <= n."""
    n = len(pubkeys)
    if not (1 <= m <= n <= 16 and m <= len(sigs) <= n):
        return False
    for picks in combinations(range(n), len(sigs)):
        if all(verify_sig(pubkeys[ki], msg, sig) for ki, sig in zip(picks, sigs)):
            return True
    return False


# Script machine constants, restated from the documented tables.
_FALSE, _TRUE = 0x00, 0x51
_IF, _ELSE, _ENDIF = 0x63, 0x67, 0x68
_VERIFY, _RETURN = 0x69, 0x6A
_DROP, _DUP, _SWAP = 0x75, 0x76, 0x7C
_EQUAL, _EQUALVERIFY = 0x87, 0x88
_SHA256 = 0xA8
_CHECKSIG, _CHECKSIGVERIFY, _CHECKMULTISIG = 0xAC, 0xAD, 0xAE
_CHECKLOCKTIME = 0xB1
_COVENANT = 0xC0
_MAX_PUSH = 0x4B

MAX_STEPS = 10_000
MAX_STACK = 256
MAX_ELEMENT = 256
MAX_WITNESS_ITEMS = 32

# Failure reasons (200 + reason in receipts).
R_EMPTY, R_UNDERFLOW, R_STEPS, R_STACKLIM = 0, 1, 2, 3
R_VERIFY, R_RETURN, R_BADPUSH, R_UNBALANCED, R_TYPE = 4, 5, 6, 7, 8


class _Halt(Exception):
    def __init__(self, reason: int) -> None:
        self.reason = reason


def straight_line_eval(
    code: bytes,
    witness: Sequence[bytes],
    msg: bytes,
    not_before,
    spend_script_hashes: Sequence[bytes] = (),
    covenants_enabled: bool = True,
) -> tuple[bool, int]:
    """Reference evaluator for branch-free scripts: (success, reason).

    reason is -1 on success. Raises ValueError on IF/ELSE/ENDIF, which the
    branch-free generator never emits.
    """
    if not code:
        return False, R_EMPTY
    if len(witness) > MAX_WITNESS_ITEMS or any(len(it) > MAX_ELEMENT for it in witness):
        return False, R_STACKLIM
    stack = [bytes(it) for it in witness]

    def need(k: int) -> None:
        if len(stack) < k:
            raise _Halt(R_UNDERFLOW)

    def truthy(b: bytes) -> bool:
        return b.strip(b"\x00") != b""

    def small(b: bytes) -> int:
        return int.from_bytes(b, "little") if len(b) <= 8 else -1

    pc, steps = 0, 0
    try:
        while pc < len(code):
            steps += 1
            if steps > MAX_STEPS:
                raise _Halt(R_STEPS)
            op = code[pc]
            pc += 1
            if op in (_IF, _ELSE, _ENDIF):
                raise ValueError("straight-line oracle got a branch opcode")
            if 1 <= op <= _MAX_PUSH:
                if pc + op > len(code):
                    raise _Halt(R_BADPUSH)
                stack.append(code[pc : pc + op])
                pc += op
                if len(stack) > MAX_STACK:
                    raise _Halt(R_STACKLIM)
            elif op in (_FALSE, _TRUE):
                stack.append(b"\x01" if op == _TRUE else b"")
                if len(stack) > MAX_STACK:
                    raise _Halt(R_STACKLIM)
            elif op == _VERIFY:
                need(1)
                if not truthy(stack.pop()):
                    raise _Halt(R_VERIFY)
            elif op == _RETURN:
                raise _Halt(R_RETURN)
            elif op == _DROP:
                need(1)
                stack.pop()
            elif op == _DUP:
                need(1)
                stack.append(stack[-1])
                if len(stack) > MAX_STACK:
                    raise _Halt(R_STACKLIM)
            elif op == _SWAP:
                need(2)
                stack[-2], stack[-1] = stack[-1], stack[-2]
            elif op in (_EQUAL, _EQUALVERIFY):
                need(2)
                eq = stack.pop() == stack.pop()
                if op == _EQUAL:
                    stack.append(b"\x01" if eq else b"")
                elif not eq:
                    raise _Halt(R_VERIFY)
            elif op == _SHA256:
                need(1)
                stack.append(hashlib.sha256(stack.pop()).digest())
            elif op in (_CHECKSIG, _CHECKSIGVERIFY):
                need(2)
                pk = stack.pop()
                sig = stack.pop()
                ok = verify_sig(pk, msg, sig)
                if op == _CHECKSIG:
                    stack.append(b"\x01" if ok else b"")
                elif not ok:
                    raise _Halt(R_VERIFY)
            elif op == _CHECKMULTISIG:
                need(1)
                nkeys = small(stack.pop())
                if not 1 <= nkeys <= 16:
                    raise _Halt(R_TYPE)
                need(nkeys)
                pks = [stack.pop() for _ in range(nkeys)][::-1]
                need(1)
                m = small(stack.pop())
                if not 1 <= m <= nkeys:
                    raise _Halt(R_TYPE)
                need(m)
                sigs = [stack.pop() for _ in range(m)][::-1]
                stack.append(b"\x01" if multisig_oracle(m, pks, sigs, msg) else b"")
            elif op == _CHECKLOCKTIME:
                need(1)
                t = stack.pop()
                if len(t) != 8:
                    raise _Halt(R_TYPE)
                if not_before is None or not_before < 0 or not_before < int.from_bytes(t, "little"):
                    raise _Halt(R_VERIFY)
            elif op == _COVENANT:
                if not covenants_enabled:
                    raise _Halt(R_TYPE)
                need(1)
                k = small(stack.pop())
                if not 0 <= k <= 32:
                    raise _Halt(R_TYPE)
                need(k)
                allowed = set()
                for _ in range(k):
                    h = stack.pop()
                    if len(h) != 32:
                        raise _Halt(R_TYPE)
                    allowed.add(h)
                if any(h not in allowed for h in spend_script_hashes):
                    raise _Halt(R_VERIFY)
            else:
                raise _Halt(R_TYPE)
    except _Halt as halt:
        return False, halt.reason
    if not stack or not truthy(stack[-1]):
        return False, R_VERIFY
    return True, -1


def lthash16_oracle(added: Sequence[bytes], removed: Sequence[bytes] = ()) -> bytes:
    """LtHash16 lane by lane: each element's SHAKE-128 output, read as 1024
    little-endian 16-bit lanes, is added (or, for removed elements,
    subtracted) lane-wise mod 2^16; the result is the lanes in order."""
    lanes = [0] * 1024
    for sign, entries in ((1, added), (-1, removed)):
        for entry in entries:
            expanded = hashlib.shake_128(entry).digest(2048)
            for i in range(1024):
                lane = int.from_bytes(expanded[2 * i : 2 * i + 2], "little")
                lanes[i] = (lanes[i] + sign * lane) % 65536
    return b"".join(v.to_bytes(2, "little") for v in lanes)
