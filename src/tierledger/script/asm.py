"""Assembler and disassembler for Level-2 script bytecode."""

from __future__ import annotations

from ..model import MAX_SCRIPT_BYTES, ModelError
from .opcodes import (
    MAX_PUSH,
    MNEMONICS,
    OP_COVENANT,
    OP_ELSE,
    OP_ENDIF,
    OP_IF,
    OPCODES,
)


class ScriptSyntaxError(ModelError):
    """Malformed assembly text or bytecode."""


def assemble(text: str, covenants_enabled: bool = True) -> bytes:
    """Assemble whitespace-separated mnemonics; data pushes as PUSH(hex)."""
    out = bytearray()
    if_depth: list[bool] = []  # per open IF: has an ELSE been seen
    for token in text.split():
        if token.startswith("PUSH(") and token.endswith(")"):
            hexpart = token[5:-1]
            try:
                data = bytes.fromhex(hexpart)
            except ValueError as exc:
                raise ScriptSyntaxError(f"bad hex literal {hexpart!r}") from exc
            if not 1 <= len(data) <= MAX_PUSH:
                raise ScriptSyntaxError(f"push must be 1..{MAX_PUSH} bytes, got {len(data)}")
            out.append(len(data))
            out.extend(data)
            continue
        op = OPCODES.get(token)
        if op is None:
            raise ScriptSyntaxError(f"unknown mnemonic {token!r}")
        if op == OP_COVENANT and not covenants_enabled:
            raise ScriptSyntaxError("COVENANT is disabled by system configuration")
        if op == OP_IF:
            if_depth.append(False)
        elif op == OP_ELSE:
            if not if_depth or if_depth[-1]:
                raise ScriptSyntaxError("ELSE without matching IF")
            if_depth[-1] = True
        elif op == OP_ENDIF:
            if not if_depth:
                raise ScriptSyntaxError("ENDIF without matching IF")
            if_depth.pop()
        out.append(op)
    if if_depth:
        raise ScriptSyntaxError("unbalanced IF")
    if len(out) > MAX_SCRIPT_BYTES:
        raise ScriptSyntaxError(f"script exceeds {MAX_SCRIPT_BYTES} bytes")
    return bytes(out)


def disassemble(code: bytes, covenants_enabled: bool = True) -> str:
    """Inverse of assemble on well-formed bytecode."""
    parts: list[str] = []
    pc = 0
    n = len(code)
    while pc < n:
        op = code[pc]
        pc += 1
        if 1 <= op <= MAX_PUSH:
            if pc + op > n:
                raise ScriptSyntaxError("truncated push")
            parts.append(f"PUSH({code[pc:pc + op].hex()})")
            pc += op
            continue
        if op == OP_COVENANT and not covenants_enabled:
            raise ScriptSyntaxError("COVENANT is disabled by system configuration")
        name = MNEMONICS.get(op)
        if name is None:
            raise ScriptSyntaxError(f"unknown opcode byte 0x{op:02x}")
        parts.append(name)
    return " ".join(parts)
