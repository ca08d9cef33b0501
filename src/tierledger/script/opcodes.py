"""Opcode table and failure reasons for the Level-2 script machine.

Byte values loosely mirror well-known script numbering for readability.
0x01-0x4b are raw pushes of that many bytes.
"""

from __future__ import annotations

OP_FALSE = 0x00
OP_TRUE = 0x51
OP_IF = 0x63
OP_ELSE = 0x67
OP_ENDIF = 0x68
OP_VERIFY = 0x69
OP_RETURN = 0x6A
OP_DROP = 0x75
OP_DUP = 0x76
OP_SWAP = 0x7C
OP_EQUAL = 0x87
OP_EQUALVERIFY = 0x88
OP_SHA256 = 0xA8
OP_CHECKSIG = 0xAC
OP_CHECKSIGVERIFY = 0xAD
OP_CHECKMULTISIG = 0xAE
OP_CHECKLOCKTIME = 0xB1
OP_COVENANT = 0xC0

MAX_PUSH = 0x4B  # 75

MNEMONICS: dict[int, str] = {
    OP_FALSE: "FALSE",
    OP_TRUE: "TRUE",
    OP_IF: "IF",
    OP_ELSE: "ELSE",
    OP_ENDIF: "ENDIF",
    OP_VERIFY: "VERIFY",
    OP_RETURN: "RETURN",
    OP_DROP: "DROP",
    OP_DUP: "DUP",
    OP_SWAP: "SWAP",
    OP_EQUAL: "EQUAL",
    OP_EQUALVERIFY: "EQUALVERIFY",
    OP_SHA256: "SHA256",
    OP_CHECKSIG: "CHECKSIG",
    OP_CHECKSIGVERIFY: "CHECKSIGVERIFY",
    OP_CHECKMULTISIG: "CHECKMULTISIG",
    OP_CHECKLOCKTIME: "CHECKLOCKTIME",
    OP_COVENANT: "COVENANT",
}

OPCODES: dict[str, int] = {v: k for k, v in MNEMONICS.items()}

# Execution limits.
MAX_STEPS = 10_000
MAX_STACK = 256
MAX_ELEMENT = 256
MAX_WITNESS_ITEMS = 32

# Failure reasons (stable small integers; receipts report 200 + reason).
R_EMPTY_SCRIPT = 0
R_STACK_UNDERFLOW = 1
R_STEP_LIMIT = 2
R_STACK_LIMIT = 3
R_VERIFY_FAILED = 4
R_RETURN_HIT = 5
R_BAD_PUSH = 6
R_UNBALANCED_IF = 7
R_TYPE_ERROR = 8

REASON_NAMES: dict[int, str] = {
    R_EMPTY_SCRIPT: "EmptyScript",
    R_STACK_UNDERFLOW: "StackUnderflow",
    R_STEP_LIMIT: "StepLimit",
    R_STACK_LIMIT: "StackLimit",
    R_VERIFY_FAILED: "VerifyFailed",
    R_RETURN_HIT: "ReturnHit",
    R_BAD_PUSH: "BadPush",
    R_UNBALANCED_IF: "UnbalancedIf",
    R_TYPE_ERROR: "TypeError",
}

