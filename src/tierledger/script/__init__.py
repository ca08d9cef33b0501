"""Level-2 script machine: assembler, disassembler, and interpreter."""

from __future__ import annotations

from ..model import MAX_SCRIPT_BYTES
from .asm import ScriptSyntaxError, assemble, disassemble
from .interpreter import ScriptContext, ScriptResult, execute
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
