"""Level-2 script machine: assembler, disassembler, and interpreter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..model import MAX_SCRIPT_BYTES
from .asm import ScriptSyntaxError, assemble, disassemble
from .interpreter import execute_bytecode
from .opcodes import (
    MAX_ELEMENT,
    MAX_STACK,
    MAX_STEPS,
    MAX_WITNESS_ITEMS,
    REASON_NAMES,
)

__all__ = [
    "ScriptContext",
    "ScriptResult",
    "ScriptSyntaxError",
    "assemble",
    "disassemble",
    "execute",
    "REASON_NAMES",
    "MAX_SCRIPT_BYTES",
    "MAX_STEPS",
    "MAX_STACK",
    "MAX_ELEMENT",
    "MAX_WITNESS_ITEMS",
]


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

    @property
    def reason_name(self) -> str:
        return "" if self.success else REASON_NAMES[self.reason]


def execute(program: bytes, witness: Sequence[bytes], ctx: ScriptContext) -> ScriptResult:
    """Execute a script program against a witness stack and context."""
    nb = -1 if ctx.not_before is None else ctx.not_before
    success, reason, steps = execute_bytecode(
        bytes(program),
        tuple(witness),
        ctx.signing_message,
        nb,
        ctx.spend_script_hashes,
        ctx.covenants_enabled,
    )
    return ScriptResult(success, reason, steps)
