"""Script interpreter: the execution context, the result, and execute.

The test suite checks execute against an independent straight-line
evaluator (tests/oracles.py) on random branch-free programs and fuzzes it
with adversarial bytecode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from ..crypto import PUBKEY_BYTES, check_multisig, verify
from ..model import MAX_MULTISIG_KEYS
from .opcodes import (
    MAX_ELEMENT,
    MAX_PUSH,
    MAX_STACK,
    MAX_STEPS,
    MAX_WITNESS_ITEMS,
    OP_CHECKLOCKTIME,
    OP_CHECKMULTISIG,
    OP_CHECKSIG,
    OP_CHECKSIGVERIFY,
    OP_COVENANT,
    OP_DROP,
    OP_DUP,
    OP_ELSE,
    OP_ENDIF,
    OP_EQUAL,
    OP_EQUALVERIFY,
    OP_FALSE,
    OP_IF,
    OP_RETURN,
    OP_SHA256,
    OP_SWAP,
    OP_TRUE,
    OP_VERIFY,
    R_BAD_PUSH,
    R_EMPTY_SCRIPT,
    R_RETURN_HIT,
    R_STACK_LIMIT,
    R_STACK_UNDERFLOW,
    R_STEP_LIMIT,
    R_TYPE_ERROR,
    R_UNBALANCED_IF,
    R_VERIFY_FAILED,
)

TRUE_ITEM = b"\x01"
FALSE_ITEM = b""


def _as_small_int(item: bytes) -> int:
    """Little-endian unsigned decode of a stack element, at most 8 bytes."""
    if len(item) > 8:
        return -1
    return int.from_bytes(item, "little")


@dataclass(frozen=True)
class ScriptContext:
    """Read-only execution context: the deliberate, minimal view a script
    gets of the world outside its own bytes."""

    signing_message: bytes = b"\x00" * 32
    not_before: Optional[int] = None
    spend_script_hashes: tuple[bytes, ...] = ()
    covenants_enabled: bool = True


@dataclass(frozen=True)
class ScriptResult:
    success: bool
    reason: int  # -1 on success, else a R_* code from opcodes
    steps: int


def checksig_keys(program: bytes) -> list[bytes]:
    """Each 32-byte push in program that CHECKSIG or CHECKSIGVERIFY follows
    directly: a key that execute will most likely check a signature against.
    Pushes are stepped over whole, as execute reads them."""
    keys, pc, n = [], 0, len(program)
    while pc < n:
        op = program[pc]
        pc += 1
        if 1 <= op <= MAX_PUSH:
            if op == PUBKEY_BYTES and pc + op < n and program[pc + op] in (OP_CHECKSIG, OP_CHECKSIGVERIFY):
                keys.append(program[pc : pc + op])
            pc += op
    return keys


def execute(program: bytes, witness: Sequence[bytes], ctx: ScriptContext) -> ScriptResult:
    """Execute a script program against a witness stack and context.
    Witness elements seed the stack, first element deepest."""
    steps = 0
    if len(program) == 0:
        return ScriptResult(False, R_EMPTY_SCRIPT, steps)
    if len(witness) > MAX_WITNESS_ITEMS:
        return ScriptResult(False, R_STACK_LIMIT, steps)
    stack: list[bytes] = []
    for item in witness:
        if len(item) > MAX_ELEMENT:
            return ScriptResult(False, R_STACK_LIMIT, steps)
        stack.append(bytes(item))
    cond: list[bool] = []

    pc = 0
    n = len(program)
    while pc < n:
        steps += 1
        if steps > MAX_STEPS:
            return ScriptResult(False, R_STEP_LIMIT, steps)
        op = program[pc]
        pc += 1
        executing = all(cond)

        if 1 <= op <= MAX_PUSH:
            if pc + op > n:
                return ScriptResult(False, R_BAD_PUSH, steps)
            if executing:
                stack.append(program[pc : pc + op])
                if len(stack) > MAX_STACK:
                    return ScriptResult(False, R_STACK_LIMIT, steps)
            pc += op
            continue

        if op == OP_IF:
            if executing:
                if not stack:
                    return ScriptResult(False, R_STACK_UNDERFLOW, steps)
                cond.append(any(stack.pop()))
            else:
                cond.append(False)
            continue
        if op == OP_ELSE:
            if not cond:
                return ScriptResult(False, R_UNBALANCED_IF, steps)
            cond[-1] = not cond[-1]
            continue
        if op == OP_ENDIF:
            if not cond:
                return ScriptResult(False, R_UNBALANCED_IF, steps)
            cond.pop()
            continue

        if not executing:
            continue

        if op == OP_FALSE or op == OP_TRUE:
            stack.append(TRUE_ITEM if op == OP_TRUE else FALSE_ITEM)
            if len(stack) > MAX_STACK:
                return ScriptResult(False, R_STACK_LIMIT, steps)
        elif op == OP_VERIFY:
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            if not any(stack.pop()):
                return ScriptResult(False, R_VERIFY_FAILED, steps)
        elif op == OP_RETURN:
            return ScriptResult(False, R_RETURN_HIT, steps)
        elif op == OP_DROP:
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            stack.pop()
        elif op == OP_DUP:
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            stack.append(stack[-1])
            if len(stack) > MAX_STACK:
                return ScriptResult(False, R_STACK_LIMIT, steps)
        elif op == OP_SWAP:
            if len(stack) < 2:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op == OP_EQUAL or op == OP_EQUALVERIFY:
            if len(stack) < 2:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            a = stack.pop()
            b = stack.pop()
            if op == OP_EQUAL:
                stack.append(TRUE_ITEM if a == b else FALSE_ITEM)
            elif a != b:
                return ScriptResult(False, R_VERIFY_FAILED, steps)
        elif op == OP_SHA256:
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            stack.append(hashlib.sha256(stack.pop()).digest())
        elif op == OP_CHECKSIG or op == OP_CHECKSIGVERIFY:
            if len(stack) < 2:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            pk = stack.pop()
            sig = stack.pop()
            ok = verify(pk, ctx.signing_message, sig)
            if op == OP_CHECKSIG:
                stack.append(TRUE_ITEM if ok else FALSE_ITEM)
            elif not ok:
                return ScriptResult(False, R_VERIFY_FAILED, steps)
        elif op == OP_CHECKMULTISIG:
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            nkeys = _as_small_int(stack.pop())
            if not 1 <= nkeys <= MAX_MULTISIG_KEYS:
                return ScriptResult(False, R_TYPE_ERROR, steps)
            if len(stack) < nkeys:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            pks = [stack.pop() for _ in range(nkeys)]
            pks.reverse()
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            m = _as_small_int(stack.pop())
            if not 1 <= m <= nkeys:
                return ScriptResult(False, R_TYPE_ERROR, steps)
            if len(stack) < m:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            sigs = [stack.pop() for _ in range(m)]
            sigs.reverse()
            ok = check_multisig(m, pks, sigs, ctx.signing_message)
            stack.append(TRUE_ITEM if ok else FALSE_ITEM)
        elif op == OP_CHECKLOCKTIME:
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            t_item = stack.pop()
            if len(t_item) != 8:
                return ScriptResult(False, R_TYPE_ERROR, steps)
            t = int.from_bytes(t_item, "little")
            if ctx.not_before is None or ctx.not_before < t:
                return ScriptResult(False, R_VERIFY_FAILED, steps)
        elif op == OP_COVENANT:
            if not ctx.covenants_enabled:
                return ScriptResult(False, R_TYPE_ERROR, steps)
            if not stack:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            k = _as_small_int(stack.pop())
            if not 0 <= k <= 32:
                return ScriptResult(False, R_TYPE_ERROR, steps)
            if len(stack) < k:
                return ScriptResult(False, R_STACK_UNDERFLOW, steps)
            allowed = set()
            for _ in range(k):
                h = stack.pop()
                if len(h) != 32:
                    return ScriptResult(False, R_TYPE_ERROR, steps)
                allowed.add(h)
            for h in ctx.spend_script_hashes:
                if h not in allowed:
                    return ScriptResult(False, R_VERIFY_FAILED, steps)
        else:
            return ScriptResult(False, R_TYPE_ERROR, steps)

    if cond:
        return ScriptResult(False, R_UNBALANCED_IF, steps)
    if not stack or not any(stack[-1]):
        return ScriptResult(False, R_VERIFY_FAILED, steps)
    return ScriptResult(True, -1, steps)
