"""Stateful contract VM: gas-metered stack machine over tagged 64-bit
words, with storage, balances, transfers, cross-contract calls, and
declared-vs-dynamic access tracking.

Words are Int(u64) or Addr(32 bytes); addresses enter programs only
through the calling transaction's address-constant table and the
CALLER/SELF opcodes. All arithmetic is checked; faults revert.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .lthash import LtHash
from .model import (
    AccessDecl,
    Call,
    Deploy,
    MAX_CONTRACT_CODE_BYTES,
    ModelError,
    Transaction,
    U64_MAX,
    checked_add,
    checked_sub,
)

# Opcodes. Operand widths: PUSHI carries a u64 LE immediate, PUSHA a one-byte
# index into the transaction's address-constant table, JUMP/JUMPI a u16 LE
# absolute code offset (validated at deploy to land on instruction starts).
OP_HALT = 0x00
OP_PUSHI = 0x01
OP_PUSHA = 0x02
OP_DUP = 0x03
OP_DROP = 0x04
OP_SWAP = 0x05
OP_ADD = 0x10
OP_SUB = 0x11
OP_MUL = 0x12
OP_DIV = 0x13
OP_MOD = 0x14
OP_LT = 0x18
OP_GT = 0x19
OP_EQ = 0x1A
OP_NOT = 0x1B
OP_JUMP = 0x20
OP_JUMPI = 0x21
OP_ARG = 0x30
OP_CALLER = 0x31
OP_SELF = 0x32
OP_VALUE = 0x33
OP_EPOCH = 0x34
OP_BALANCE = 0x40
OP_SLOAD = 0x41
OP_SSTORE = 0x42
OP_TRANSFER = 0x50
OP_EVENT = 0x51
OP_CALL = 0x52
OP_RETURN = 0x60
OP_REVERT = 0x61

_OPERAND_WIDTH = {OP_PUSHI: 8, OP_PUSHA: 1, OP_JUMP: 2, OP_JUMPI: 2}

MNEMONICS = {
    OP_HALT: "HALT",
    OP_PUSHI: "PUSHI",
    OP_PUSHA: "PUSHA",
    OP_DUP: "DUP",
    OP_DROP: "DROP",
    OP_SWAP: "SWAP",
    OP_ADD: "ADD",
    OP_SUB: "SUB",
    OP_MUL: "MUL",
    OP_DIV: "DIV",
    OP_MOD: "MOD",
    OP_LT: "LT",
    OP_GT: "GT",
    OP_EQ: "EQ",
    OP_NOT: "NOT",
    OP_JUMP: "JUMP",
    OP_JUMPI: "JUMPI",
    OP_ARG: "ARG",
    OP_CALLER: "CALLER",
    OP_SELF: "SELF",
    OP_VALUE: "VALUE",
    OP_EPOCH: "EPOCH",
    OP_BALANCE: "BALANCE",
    OP_SLOAD: "SLOAD",
    OP_SSTORE: "SSTORE",
    OP_TRANSFER: "TRANSFER",
    OP_EVENT: "EVENT",
    OP_CALL: "CALL",
    OP_RETURN: "RETURN",
    OP_REVERT: "REVERT",
}
OPCODES = {v: k for k, v in MNEMONICS.items()}

MAX_CALL_DEPTH = 8
MAX_FRAME_STACK = 1024

_GAS_TABLE = {
    OP_SSTORE: 10,
    OP_TRANSFER: 10,
    OP_CALL: 20,
    OP_SLOAD: 5,
    OP_BALANCE: 5,
}


def gas_cost(opcode: int) -> int:
    """Cost charged before executing an opcode."""
    if opcode not in MNEMONICS:
        raise ModelError(f"unknown opcode 0x{opcode:02x}")
    return _GAS_TABLE.get(opcode, 1)


# Execution statuses (status registry range 300-399; committed maps to 0).
STATUS_COMMITTED = 0
STATUS_REVERTED = 300
STATUS_OUT_OF_GAS = 301
STATUS_ACCESS_VIOLATION = 302
STATUS_MALFORMED_CODE = 303
STATUS_INSUFFICIENT_BALANCE = 304
STATUS_MISSING_ACCESS_DECL = 305
STATUS_NO_SUCH_CONTRACT = 306
STATUS_BAD_NONCE = 307

# Statuses where the transaction executed: nonce advances and gas is paid.
EXECUTED_STATUSES = frozenset(
    {STATUS_COMMITTED, STATUS_REVERTED, STATUS_OUT_OF_GAS, STATUS_ACCESS_VIOLATION}
)


@dataclass(frozen=True)
class ContractAccount:
    address: bytes
    code: bytes
    footprint: Optional[AccessDecl] = None

    def code_hash(self) -> bytes:
        from .model import sha256

        return sha256(self.code)


def balance_entry(addr: bytes, bal: int) -> bytes:
    return b"B" + addr + bal.to_bytes(8, "little")


def slot_entry(addr: bytes, key: int, val: int) -> bytes:
    return b"S" + addr + key.to_bytes(8, "little") + val.to_bytes(8, "little")


def contract_entry(acct: ContractAccount) -> bytes:
    return b"C" + acct.address + acct.code_hash()


class Accounts:
    """Account-model half of the ledger: balances (externally owned and
    contract), contract code, contract storage keyed by (address, key), and
    nonces.

    The mappings are read-only views. Every write goes through set_balance,
    set_slot, add_contract or set_nonce, which keep the running balance
    total and an LtHash over the committed entries (nonzero balances,
    nonzero slots, contracts) up to date. Nonces are not committed."""

    def __init__(self) -> None:
        self._balances: dict[bytes, int] = {}
        self._contracts: dict[bytes, ContractAccount] = {}
        self._storage: dict[tuple[bytes, int], int] = {}
        self._nonces: dict[bytes, int] = {}
        self.balances: Mapping[bytes, int] = MappingProxyType(self._balances)
        self.contracts: Mapping[bytes, ContractAccount] = MappingProxyType(self._contracts)
        self.storage: Mapping[tuple[bytes, int], int] = MappingProxyType(self._storage)
        self.nonces: Mapping[bytes, int] = MappingProxyType(self._nonces)
        self.lthash = LtHash()
        self.total = 0

    def balance(self, addr: bytes) -> int:
        return self._balances.get(addr, 0)

    def storage_get(self, addr: bytes, key: int) -> int:
        return self._storage.get((addr, key), 0)

    def set_balance(self, addr: bytes, bal: int) -> None:
        old = self._balances.get(addr, 0)
        if bal == old:
            return
        if old:
            self.lthash.remove(balance_entry(addr, old))
        if bal:
            self.lthash.add(balance_entry(addr, bal))
            self._balances[addr] = bal
        else:
            del self._balances[addr]
        self.total += bal - old

    def set_slot(self, addr: bytes, key: int, val: int) -> None:
        old = self._storage.get((addr, key), 0)
        if val == old:
            return
        if old:
            self.lthash.remove(slot_entry(addr, key, old))
        if val:
            self.lthash.add(slot_entry(addr, key, val))
            self._storage[(addr, key)] = val
        else:
            del self._storage[(addr, key)]

    def add_contract(self, acct: ContractAccount) -> None:
        self._contracts[acct.address] = acct
        self.lthash.add(contract_entry(acct))

    def set_nonce(self, addr: bytes, nonce: int) -> None:
        self._nonces[addr] = nonce

    def copy(self) -> "Accounts":
        other = Accounts()
        other._balances.update(self._balances)
        other._contracts.update(self._contracts)
        other._storage.update(self._storage)
        other._nonces.update(self._nonces)
        other.lthash = self.lthash.copy()
        other.total = self.total
        return other


@dataclass(frozen=True)
class ExecOutcome:
    status: int
    gas_used: int = 0
    ret: Optional[int] = None
    events: tuple[tuple[bytes, int, int], ...] = ()
    detail: str = ""

    @property
    def committed(self) -> bool:
        return self.status == STATUS_COMMITTED


@dataclass
class StateDiff:
    """Effects of one executed transaction relative to a fixed pre-state.

    Balances of addresses inside the transaction's footprint are absolute;
    the operator's fee income is a delta so that fee credits from
    non-conflicting transactions commute.
    """

    outcome: ExecOutcome
    balance_new: dict[bytes, int] = field(default_factory=dict)
    storage_new: dict[tuple[bytes, int], int] = field(default_factory=dict)
    new_contract: Optional[ContractAccount] = None
    nonce_new: Optional[tuple[bytes, int]] = None
    operator_delta: int = 0

    def apply(self, accounts: Accounts, operator: bytes) -> None:
        for addr, bal in self.balance_new.items():
            accounts.set_balance(addr, bal)
        for (addr, key), val in self.storage_new.items():
            accounts.set_slot(addr, key, val)
        if self.new_contract is not None:
            accounts.add_contract(self.new_contract)
        if self.nonce_new is not None:
            accounts.set_nonce(*self.nonce_new)
        if self.operator_delta:
            accounts.set_balance(
                operator, checked_add(accounts.balance(operator), self.operator_delta)
            )


# ---------------------------------------------------------------------------
# Code validation, assembler, disassembler


def validate_code(code: bytes) -> bool:
    """Well-formed: known opcodes, complete operands, jump targets landing
    on instruction starts."""
    if len(code) == 0 or len(code) > MAX_CONTRACT_CODE_BYTES:
        return False
    starts: set[int] = set()
    targets: list[int] = []
    pc = 0
    n = len(code)
    while pc < n:
        starts.add(pc)
        op = code[pc]
        if op not in MNEMONICS:
            return False
        width = _OPERAND_WIDTH.get(op, 0)
        if pc + 1 + width > n:
            return False
        if op in (OP_JUMP, OP_JUMPI):
            targets.append(int.from_bytes(code[pc + 1 : pc + 3], "little"))
        pc += 1 + width
    return all(t in starts for t in targets)


def assemble(text: str) -> bytes:
    """Two-pass assembler for contract fixtures.

    Whitespace-separated tokens; "name:" defines a label, JUMP/JUMPI take a
    label or absolute offset, PUSHI a u64, PUSHA a table index.
    """
    tokens = [t for t in text.split() if not t.startswith("#")]
    labels: dict[str, int] = {}
    pc = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.endswith(":"):
            labels[tok[:-1]] = pc
            i += 1
            continue
        op = OPCODES.get(tok)
        if op is None:
            raise ModelError(f"unknown vm mnemonic {tok!r}")
        pc += 1 + _OPERAND_WIDTH.get(op, 0)
        i += _OPERAND_WIDTH.get(op, 0) and 2 or 1
    out = bytearray()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.endswith(":"):
            i += 1
            continue
        op = OPCODES[tok]
        out.append(op)
        width = _OPERAND_WIDTH.get(op, 0)
        if width:
            operand = tokens[i + 1]
            if op in (OP_JUMP, OP_JUMPI) and operand in labels:
                value = labels[operand]
            else:
                value = int(operand)
            out.extend(value.to_bytes(width, "little"))
            i += 2
        else:
            i += 1
    code = bytes(out)
    if not validate_code(code):
        raise ModelError("assembled code failed validation")
    return code


def disassemble(code: bytes) -> str:
    parts = []
    pc = 0
    while pc < len(code):
        op = code[pc]
        name = MNEMONICS.get(op)
        if name is None:
            raise ModelError(f"unknown opcode 0x{op:02x} at {pc}")
        width = _OPERAND_WIDTH.get(op, 0)
        if width:
            operand = int.from_bytes(code[pc + 1 : pc + 1 + width], "little")
            parts.append(f"{name} {operand}")
        else:
            parts.append(name)
        pc += 1 + width
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Footprints


def effective_footprint(
    access: AccessDecl, top_callee: bytes, contracts: Mapping[bytes, ContractAccount]
) -> AccessDecl:
    """Transaction declaration expanded by the declared footprints of every
    reachable callee (fixed at deploy time), plus the top-level callee."""
    br, bw = access.balances_read, access.balances_written
    sr, sw = access.storage_read, access.storage_written
    callees = access.callees | {top_callee}
    seen: set[bytes] = set()
    frontier = list(callees)
    while frontier:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        acct = contracts.get(c)
        fp = acct.footprint if acct is not None else None
        if fp is None:
            continue
        # Rebinding unions (not in-place updates): the declaration's own
        # sets are shared, never modified.
        br = br | fp.balances_read
        bw = bw | fp.balances_written
        sr = sr | fp.storage_read
        sw = sw | fp.storage_written
        callees = callees | fp.callees
        frontier.extend(fp.callees)
    return AccessDecl(br, bw, sr, sw, callees)


def call_footprint(k: Call, contracts: Mapping[bytes, ContractAccount]) -> AccessDecl:
    """Effective footprint of a declared call, plus the balances every call
    writes implicitly: the caller's (attached value and fees) and the
    callee's (attached value)."""
    assert k.access is not None
    fp = effective_footprint(k.access, k.contract, contracts)
    written = fp.balances_written | {k.caller, k.contract}
    return AccessDecl(fp.balances_read, written, fp.storage_read, fp.storage_written, fp.callees)


class AccessViolationError(Exception):
    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


class _OutOfGas(Exception):
    pass


class _Fault(Exception):
    """Frame-local fault: reverts the innermost call, or the whole
    transaction at the top level."""

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


class _Checker:
    """Runtime access checking against an effective footprint (declared
    mode); a None checker means dynamic mode (everything allowed)."""

    def __init__(self, fp: AccessDecl) -> None:
        self.fp = fp
        self.readable = fp.balances_read | fp.balances_written
        self.slot_readable = fp.storage_read | fp.storage_written

    def balance_read(self, addr: bytes) -> None:
        if addr not in self.readable:
            raise AccessViolationError(f"undeclared balance read of {addr.hex()[:16]}")

    def balance_write(self, addr: bytes) -> None:
        if addr not in self.fp.balances_written:
            raise AccessViolationError(f"undeclared balance write of {addr.hex()[:16]}")

    def storage_read(self, addr: bytes, key: int) -> None:
        if (addr, key) not in self.slot_readable:
            raise AccessViolationError(f"undeclared storage read {addr.hex()[:16]}:{key}")

    def storage_write(self, addr: bytes, key: int) -> None:
        if (addr, key) not in self.fp.storage_written:
            raise AccessViolationError(f"undeclared storage write {addr.hex()[:16]}:{key}")

    def call(self, addr: bytes) -> None:
        if addr not in self.fp.callees:
            raise AccessViolationError(f"undeclared call to {addr.hex()[:16]}")


# Superinstructions (Ertl & Gregg, "The Structure and Performance of
# Efficient Interpreters", JILP 2003): decode writes one fused entry at the
# first offset of each group below. Only groups with measured traffic are
# fused: the burn loop's DUP NOT JUMPI and PUSHI k SUB. Fused opcodes sit
# above the byte range, so they never collide with a real opcode.
_F_PUSHI_SUB = 0x100
_F_DUP_NOT_JUMPI = 0x101
# Fused opcode -> the opcodes of its group, in order.
FUSED = {
    _F_PUSHI_SUB: (OP_PUSHI, OP_SUB),
    _F_DUP_NOT_JUMPI: (OP_DUP, OP_NOT, OP_JUMPI),
}
_FUSED_GAS = {fop: sum(_GAS_TABLE.get(op, 1) for op in ops) for fop, ops in FUSED.items()}


# A 4 KiB program decodes to at most about 430 KiB (4096 one-byte
# instructions; a fused entry adds about 160 B per group of 5 or more
# bytes), so 64 entries bound the cache near 28 MiB; a miss costs about
# 0.7 us per instruction.
@functools.lru_cache(maxsize=64)
def decode(code: bytes) -> tuple[Optional[tuple], ...]:
    """Pre-decode validated code once per distinct code: for each
    instruction start, (opcode, immediate, next pc, gas). The immediate is
    the u64 of PUSHI, the table index of PUSHA, the target of JUMP/JUMPI and
    0 otherwise. Offsets inside an operand hold None; validate_code keeps
    jump targets off them.

    Where a group of FUSED starts, the entry is fused instead: (fused
    opcode, (operand, the first op's own entry), pc after the group, the
    group's total gas), where the operand is the PUSHI value or the JUMPI
    target. The group's later ops keep their own entries, so a jump into
    the middle of a group runs from there."""
    prog: list[Optional[tuple]] = [None] * len(code)
    pc = 0
    while pc < len(code):
        op = code[pc]
        nxt = pc + 1 + _OPERAND_WIDTH.get(op, 0)
        prog[pc] = (op, int.from_bytes(code[pc + 1 : nxt], "little"), nxt, _GAS_TABLE.get(op, 1))
        pc = nxt
    for pc, first in enumerate(prog):
        if first is None:
            continue
        for fop, ops in FUSED.items():
            at = pc
            for op in ops:
                last = prog[at] if at < len(code) else None
                if last is None or last[0] != op:
                    break
                at = last[2]
            else:
                operand = first[1] if first[0] == OP_PUSHI else last[1]
                prog[pc] = (fop, (operand, first), at, _FUSED_GAS[fop])
                break
    return tuple(prog)


# Stack words are plain values: an int is an Int, bytes are an Addr.
_ARITH = frozenset({OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MOD, OP_LT, OP_GT})
_EXPECTED_INT = "type error: expected Int"


def _pop(stack: list, want_int: bool):
    if not stack:
        raise _Fault("stack underflow")
    v = stack.pop()
    if (v.__class__ is int) != want_int:
        raise _Fault(_EXPECTED_INT if want_int else "type error: expected Addr")
    return v


class _Machine:
    """One transaction's execution: a journal of balance/storage writes over
    an immutable pre-state, a global gas counter, and nested call frames."""

    def __init__(
        self,
        accounts: Accounts,
        epoch: int,
        consts: tuple[bytes, ...],
        gas_limit: int,
        checker: Optional[_Checker],
    ) -> None:
        self.base = accounts
        self.epoch = epoch
        self.consts = consts
        self.gas = gas_limit
        self.checker = checker
        self.balances: dict[bytes, int] = {}
        self.storage: dict[tuple[bytes, int], int] = {}
        self.events: list[tuple[bytes, int, int]] = []

    # journaled state access ------------------------------------------------

    def balance(self, addr: bytes) -> int:
        if addr in self.balances:
            return self.balances[addr]
        return self.base.balance(addr)

    def move_value(self, src: bytes, dst: bytes, amount: int) -> None:
        if amount == 0:
            return
        have = self.balance(src)
        if have < amount:
            raise _Fault(f"insufficient balance: {have} < {amount}")
        self.balances[src] = have - amount
        self.balances[dst] = checked_add(self.balance(dst), amount)

    def sload(self, addr: bytes, key: int) -> int:
        if (addr, key) in self.storage:
            return self.storage[(addr, key)]
        return self.base.storage_get(addr, key)

    def snapshot(self) -> tuple[dict, dict, int]:
        return (dict(self.balances), dict(self.storage), len(self.events))

    def rollback(self, snap: tuple[dict, dict, int]) -> None:
        self.balances, self.storage, nevents = snap[0], snap[1], snap[2]
        del self.events[nevents:]

    # execution --------------------------------------------------------------

    def run_frame(self, self_addr: bytes, caller: bytes, arg: int, value: int, depth: int) -> Optional[int]:
        """Execute a contract frame; returns its RETURN value (None for
        HALT). Raises _Fault to revert the frame.

        One loop over the pre-decoded program with gas in a local: each step
        charges gas before it executes, and the common stack and control-flow
        opcodes come first. self.gas is exact whenever the frame exits or
        calls another frame.

        A fused entry runs its whole group at once only when the gas covers
        the group and no op before the last can fault; only the last op may
        then fault, after the whole group is charged, as op by op. Otherwise
        the group's first op runs alone through the per-op code, so the
        faulting op, its detail and gas_used stay exact."""
        acct = self.base.contracts.get(self_addr)
        if acct is None:
            raise _Fault("no such contract")
        self.move_value(caller, self_addr, value)
        prog = decode(acct.code)
        n = len(prog)
        checker = self.checker
        env = {OP_ARG: arg, OP_CALLER: caller, OP_SELF: self_addr, OP_VALUE: value, OP_EPOCH: self.epoch}
        stack: list = []
        push, pop = stack.append, stack.pop
        gas = self.gas
        pc = 0
        try:
            while pc < n:
                op, imm, pc, cost = prog[pc]
                if op > 0xFF:
                    if (gas >= cost and stack and stack[-1].__class__ is int
                            and len(stack) < MAX_FRAME_STACK):
                        gas -= cost
                        a = stack[-1]
                        if op == _F_PUSHI_SUB:
                            b = imm[0]
                            if b > a:
                                raise _Fault("sub underflow")
                            stack[-1] = a - b
                        elif not a:
                            # DUP NOT JUMPI jumps on a zero top and leaves
                            # the stack as it was.
                            pc = imm[0]
                        continue
                    op, imm, pc, cost = imm[1]
                gas -= cost
                if gas < 0:
                    raise _OutOfGas()
                if op == OP_PUSHI:
                    if len(stack) >= MAX_FRAME_STACK:
                        raise _Fault("frame stack overflow")
                    push(imm)
                elif op == OP_DUP:
                    if not stack:
                        raise _Fault("stack underflow")
                    if len(stack) >= MAX_FRAME_STACK:
                        raise _Fault("frame stack overflow")
                    push(stack[-1])
                elif op == OP_JUMPI:
                    if not stack:
                        raise _Fault("stack underflow")
                    v = pop()
                    if v.__class__ is not int:
                        raise _Fault(_EXPECTED_INT)
                    if v:
                        pc = imm
                elif op == OP_JUMP:
                    pc = imm
                elif op == OP_NOT:
                    if not stack:
                        raise _Fault("stack underflow")
                    if stack[-1].__class__ is not int:
                        raise _Fault(_EXPECTED_INT)
                    stack[-1] = 0 if stack[-1] else 1
                elif op in _ARITH:
                    if not stack:
                        raise _Fault("stack underflow")
                    b = pop()
                    if b.__class__ is not int:
                        raise _Fault(_EXPECTED_INT)
                    if not stack:
                        raise _Fault("stack underflow")
                    a = stack[-1]
                    if a.__class__ is not int:
                        raise _Fault(_EXPECTED_INT)
                    if op == OP_SUB:
                        if b > a:
                            raise _Fault("sub underflow")
                        a -= b
                    elif op == OP_ADD:
                        a += b
                        if a > U64_MAX:
                            raise _Fault("add overflow")
                    elif op == OP_MUL:
                        a *= b
                        if a > U64_MAX:
                            raise _Fault("mul overflow")
                    elif op == OP_DIV:
                        if b == 0:
                            raise _Fault("division by zero")
                        a //= b
                    elif op == OP_MOD:
                        if b == 0:
                            raise _Fault("modulo by zero")
                        a %= b
                    else:
                        a = int(a < b) if op == OP_LT else int(a > b)
                    stack[-1] = a
                elif op == OP_HALT:
                    return None
                elif op in env:
                    if len(stack) >= MAX_FRAME_STACK:
                        raise _Fault("frame stack overflow")
                    push(env[op])
                elif op == OP_PUSHA:
                    if imm >= len(self.consts):
                        raise _Fault(f"address constant {imm} out of range")
                    if len(stack) >= MAX_FRAME_STACK:
                        raise _Fault("frame stack overflow")
                    push(self.consts[imm])
                elif op == OP_DROP:
                    if not stack:
                        raise _Fault("stack underflow")
                    pop()
                elif op == OP_SWAP:
                    if len(stack) < 2:
                        raise _Fault("stack underflow")
                    stack[-1], stack[-2] = stack[-2], stack[-1]
                elif op == OP_EQ:
                    if len(stack) < 2:
                        raise _Fault("stack underflow")
                    b = pop()
                    a = stack[-1]
                    if (a.__class__ is int) != (b.__class__ is int):
                        raise _Fault("type error: EQ on mixed tags")
                    stack[-1] = int(a == b)
                elif op == OP_BALANCE:
                    addr = _pop(stack, False)
                    if checker is not None:
                        checker.balance_read(addr)
                    push(self.balance(addr))
                elif op == OP_SLOAD:
                    key = _pop(stack, True)
                    if checker is not None:
                        checker.storage_read(self_addr, key)
                    push(self.sload(self_addr, key))
                elif op == OP_SSTORE:
                    val = _pop(stack, True)
                    key = _pop(stack, True)
                    if checker is not None:
                        checker.storage_write(self_addr, key)
                    self.storage[(self_addr, key)] = val
                elif op == OP_TRANSFER:
                    dst = _pop(stack, False)
                    amount = _pop(stack, True)
                    if checker is not None:
                        checker.balance_write(self_addr)
                        checker.balance_write(dst)
                    self.move_value(self_addr, dst, amount)
                elif op == OP_EVENT:
                    val = _pop(stack, True)
                    topic = _pop(stack, True)
                    self.events.append((self_addr, topic, val))
                elif op == OP_CALL:
                    callee = _pop(stack, False)
                    call_arg = _pop(stack, True)
                    if checker is not None:
                        checker.call(callee)
                    ret, ok = None, 0
                    if depth + 1 <= MAX_CALL_DEPTH and callee in self.base.contracts:
                        snap = self.snapshot()
                        self.gas = gas
                        try:
                            ret = self.run_frame(callee, self_addr, call_arg, 0, depth + 1)
                            ok = 1
                        except _Fault:
                            self.rollback(snap)
                        finally:
                            gas = self.gas
                    push(ret or 0)  # return value
                    push(ok)  # status
                elif op == OP_RETURN:
                    return _pop(stack, True)
                elif op == OP_REVERT:
                    raise _Fault("explicit revert")
                else:  # pragma: no cover - validate_code rejects unknown opcodes
                    raise _Fault(f"unknown opcode 0x{op:02x}")
            return None
        finally:
            self.gas = gas


def _finish(
    machine: Optional[_Machine],
    accounts: Accounts,
    actor: bytes,
    operator: bytes,
    gas_used: int,
    gas_price: int,
    outcome: ExecOutcome,
) -> StateDiff:
    """Assemble the committed diff: journal effects (when committed), nonce
    advance, and the fee transfer caller -> operator."""
    diff = StateDiff(outcome)
    fee = gas_used * gas_price
    if outcome.committed and machine is not None:
        diff.balance_new = dict(machine.balances)
        diff.storage_new = dict(machine.storage)
    diff.nonce_new = (actor, accounts.nonces.get(actor, 0) + 1)
    if fee:
        caller_bal = diff.balance_new.get(actor, accounts.balance(actor))
        diff.balance_new[actor] = checked_sub(caller_bal, fee)
        diff.operator_delta = fee
    # The operator's own balance never appears as an absolute write: fee
    # income must commute across non-conflicting transactions.
    if operator in diff.balance_new and operator != actor:
        delta = diff.balance_new.pop(operator) - accounts.balance(operator)
        diff.operator_delta += delta
    return diff


def invoke(
    accounts: Accounts,
    tx: Transaction,
    tx_id: bytes,
    epoch: int,
    operator: bytes,
    declared_mode: bool,
    footprint: Optional[AccessDecl] = None,
) -> StateDiff:
    """Execute a Call transaction against a fixed pre-state.

    The returned diff is not yet applied; StateDiff.apply commits it.
    Rejections (bad structure, missing callee, insufficient prepay) produce
    a diff with no effects at all; executed transactions always advance the
    nonce and pay the gas fee, whatever their status. In declared mode,
    `footprint` is the call's `call_footprint` when the caller already has
    it and no contract it can reach was deployed since; otherwise it is
    computed here.
    """
    k = tx.kind
    assert isinstance(k, Call)
    caller = k.caller
    if tx.nonce != accounts.nonces.get(caller, 0):
        return StateDiff(ExecOutcome(STATUS_BAD_NONCE, detail=f"expected nonce {accounts.nonces.get(caller, 0)}"))
    if k.contract not in accounts.contracts:
        return StateDiff(ExecOutcome(STATUS_NO_SUCH_CONTRACT, detail="unknown contract"))
    if declared_mode and k.access is None:
        return StateDiff(ExecOutcome(STATUS_MISSING_ACCESS_DECL, detail="declared mode requires an access declaration"))
    prepay = k.gas_limit * k.gas_price
    if accounts.balance(caller) < checked_add(prepay, k.attached):
        return StateDiff(ExecOutcome(STATUS_INSUFFICIENT_BALANCE, detail="cannot cover attached value plus gas prepay"))

    checker = None
    if declared_mode:
        if footprint is None:
            footprint = call_footprint(k, accounts.contracts)
        checker = _Checker(footprint)

    machine = _Machine(accounts, epoch, k.address_consts, k.gas_limit, checker)
    try:
        ret = machine.run_frame(k.contract, caller, k.arg, k.attached, depth=0)
    except _OutOfGas:
        outcome = ExecOutcome(STATUS_OUT_OF_GAS, gas_used=k.gas_limit)
        return _finish(None, accounts, caller, operator, k.gas_limit, k.gas_price, outcome)
    except AccessViolationError as exc:
        gas_used = k.gas_limit - max(machine.gas, 0)
        outcome = ExecOutcome(STATUS_ACCESS_VIOLATION, gas_used=gas_used, detail=exc.detail)
        return _finish(None, accounts, caller, operator, gas_used, k.gas_price, outcome)
    except _Fault as exc:
        gas_used = k.gas_limit - machine.gas
        outcome = ExecOutcome(STATUS_REVERTED, gas_used=gas_used, detail=exc.detail)
        return _finish(None, accounts, caller, operator, gas_used, k.gas_price, outcome)
    gas_used = k.gas_limit - machine.gas
    outcome = ExecOutcome(
        STATUS_COMMITTED, gas_used=gas_used, ret=ret, events=tuple(machine.events)
    )
    return _finish(machine, accounts, caller, operator, gas_used, k.gas_price, outcome)


# Deploy gas: one unit per code byte (documented; there is no constructor
# execution, so metering is by stored size).
def deploy_gas(code: bytes) -> int:
    return len(code)


def deploy(
    accounts: Accounts,
    tx: Transaction,
    tx_id: bytes,
    operator: bytes,
) -> StateDiff:
    """Create a contract account at the deploy transaction's id."""
    k = tx.kind
    assert isinstance(k, Deploy)
    if tx.nonce != accounts.nonces.get(k.payer, 0):
        return StateDiff(ExecOutcome(STATUS_BAD_NONCE, detail=f"expected nonce {accounts.nonces.get(k.payer, 0)}"))
    if not validate_code(k.code):
        return StateDiff(ExecOutcome(STATUS_MALFORMED_CODE, detail="code failed validation"))
    prepay = k.gas_limit * k.gas_price
    if accounts.balance(k.payer) < checked_add(prepay, k.endowment):
        return StateDiff(ExecOutcome(STATUS_INSUFFICIENT_BALANCE, detail="cannot cover endowment plus gas prepay"))
    gas_needed = deploy_gas(k.code)
    if gas_needed > k.gas_limit:
        outcome = ExecOutcome(STATUS_OUT_OF_GAS, gas_used=k.gas_limit)
        return _finish(None, accounts, k.payer, operator, k.gas_limit, k.gas_price, outcome)
    footprint = k.access.substitute_self(tx_id) if k.access is not None else None
    contract = ContractAccount(tx_id, k.code, footprint)
    outcome = ExecOutcome(STATUS_COMMITTED, gas_used=gas_needed, ret=None)
    diff = StateDiff(outcome)
    diff.new_contract = contract
    payer_bal = accounts.balance(k.payer)
    diff.balance_new[k.payer] = checked_sub(payer_bal, k.endowment)
    if k.endowment:
        diff.balance_new[tx_id] = checked_add(accounts.balance(tx_id), k.endowment)
    fee = gas_needed * k.gas_price
    if fee:
        diff.balance_new[k.payer] = checked_sub(diff.balance_new[k.payer], fee)
        diff.operator_delta = fee
    diff.nonce_new = (k.payer, accounts.nonces.get(k.payer, 0) + 1)
    return diff
