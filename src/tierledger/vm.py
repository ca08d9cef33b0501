"""Stateful contract VM: gas-metered stack machine over tagged 64-bit
words, with storage, balances, transfers, cross-contract calls, and
declared-vs-dynamic access tracking.

Words are Int(u64) or Addr(32 bytes); addresses enter programs only
through the calling transaction's address-constant table and the
CALLER/SELF opcodes. All arithmetic is checked; faults revert.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    br = set(access.balances_read)
    bw = set(access.balances_written)
    sr = set(access.storage_read)
    sw = set(access.storage_written)
    callees = set(access.callees) | {top_callee}
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
        br |= fp.balances_read
        bw |= fp.balances_written
        sr |= fp.storage_read
        sw |= fp.storage_written
        for nxt in fp.callees:
            callees.add(nxt)
            frontier.append(nxt)
    return AccessDecl(
        frozenset(br), frozenset(bw), frozenset(sr), frozenset(sw), frozenset(callees)
    )


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


TAG_INT = 0
TAG_ADDR = 1


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

    def charge(self, opcode: int) -> None:
        self.gas -= _GAS_TABLE.get(opcode, 1)
        if self.gas < 0:
            raise _OutOfGas()

    # execution --------------------------------------------------------------

    def run_frame(self, self_addr: bytes, caller: bytes, arg: int, value: int, depth: int) -> Optional[int]:
        """Execute a contract frame; returns its RETURN value (None for
        HALT). Raises _Fault to revert the frame."""
        acct = self.base.contracts.get(self_addr)
        if acct is None:
            raise _Fault("no such contract")
        self.move_value(caller, self_addr, value)
        code = acct.code
        n = len(code)
        stack: list[tuple[int, object]] = []

        def pop_int() -> int:
            if not stack:
                raise _Fault("stack underflow")
            tag, v = stack.pop()
            if tag != TAG_INT:
                raise _Fault("type error: expected Int")
            return v  # type: ignore[return-value]

        def pop_addr() -> bytes:
            if not stack:
                raise _Fault("stack underflow")
            tag, v = stack.pop()
            if tag != TAG_ADDR:
                raise _Fault("type error: expected Addr")
            return v  # type: ignore[return-value]

        def push(tag: int, v: object) -> None:
            if len(stack) >= MAX_FRAME_STACK:
                raise _Fault("frame stack overflow")
            stack.append((tag, v))

        pc = 0
        while pc < n:
            op = code[pc]
            self.charge(op)
            pc += 1 + _OPERAND_WIDTH.get(op, 0)

            if op == OP_HALT:
                return None
            if op == OP_PUSHI:
                push(TAG_INT, int.from_bytes(code[pc - 8 : pc], "little"))
            elif op == OP_PUSHA:
                idx = code[pc - 1]
                if idx >= len(self.consts):
                    raise _Fault(f"address constant {idx} out of range")
                push(TAG_ADDR, self.consts[idx])
            elif op == OP_DUP:
                if not stack:
                    raise _Fault("stack underflow")
                push(*stack[-1])
            elif op == OP_DROP:
                if not stack:
                    raise _Fault("stack underflow")
                stack.pop()
            elif op == OP_SWAP:
                if len(stack) < 2:
                    raise _Fault("stack underflow")
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op in (OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MOD):
                b = pop_int()
                a = pop_int()
                if op == OP_ADD:
                    c = a + b
                    if c > U64_MAX:
                        raise _Fault("add overflow")
                elif op == OP_SUB:
                    if b > a:
                        raise _Fault("sub underflow")
                    c = a - b
                elif op == OP_MUL:
                    c = a * b
                    if c > U64_MAX:
                        raise _Fault("mul overflow")
                elif op == OP_DIV:
                    if b == 0:
                        raise _Fault("division by zero")
                    c = a // b
                else:
                    if b == 0:
                        raise _Fault("modulo by zero")
                    c = a % b
                push(TAG_INT, c)
            elif op in (OP_LT, OP_GT):
                b = pop_int()
                a = pop_int()
                push(TAG_INT, int(a < b) if op == OP_LT else int(a > b))
            elif op == OP_EQ:
                if len(stack) < 2:
                    raise _Fault("stack underflow")
                tb, vb = stack.pop()
                ta, va = stack.pop()
                if ta != tb:
                    raise _Fault("type error: EQ on mixed tags")
                push(TAG_INT, int(va == vb))
            elif op == OP_NOT:
                push(TAG_INT, int(pop_int() == 0))
            elif op == OP_JUMP:
                pc = int.from_bytes(code[pc - 2 : pc], "little")
            elif op == OP_JUMPI:
                target = int.from_bytes(code[pc - 2 : pc], "little")
                if pop_int() != 0:
                    pc = target
            elif op == OP_ARG:
                push(TAG_INT, arg)
            elif op == OP_CALLER:
                push(TAG_ADDR, caller)
            elif op == OP_SELF:
                push(TAG_ADDR, self_addr)
            elif op == OP_VALUE:
                push(TAG_INT, value)
            elif op == OP_EPOCH:
                push(TAG_INT, self.epoch)
            elif op == OP_BALANCE:
                addr = pop_addr()
                if self.checker is not None:
                    self.checker.balance_read(addr)
                push(TAG_INT, self.balance(addr))
            elif op == OP_SLOAD:
                key = pop_int()
                if self.checker is not None:
                    self.checker.storage_read(self_addr, key)
                push(TAG_INT, self.sload(self_addr, key))
            elif op == OP_SSTORE:
                val = pop_int()
                key = pop_int()
                if self.checker is not None:
                    self.checker.storage_write(self_addr, key)
                self.storage[(self_addr, key)] = val
            elif op == OP_TRANSFER:
                dst = pop_addr()
                amount = pop_int()
                if self.checker is not None:
                    self.checker.balance_write(self_addr)
                    self.checker.balance_write(dst)
                self.move_value(self_addr, dst, amount)
            elif op == OP_EVENT:
                val = pop_int()
                topic = pop_int()
                self.events.append((self_addr, topic, val))
            elif op == OP_CALL:
                callee = pop_addr()
                call_arg = pop_int()
                if self.checker is not None:
                    self.checker.call(callee)
                if depth + 1 > MAX_CALL_DEPTH or callee not in self.base.contracts:
                    push(TAG_INT, 0)  # return value
                    push(TAG_INT, 0)  # status
                else:
                    snap = self.snapshot()
                    try:
                        ret = self.run_frame(callee, self_addr, call_arg, 0, depth + 1)
                    except _Fault:
                        self.rollback(snap)
                        push(TAG_INT, 0)
                        push(TAG_INT, 0)
                    else:
                        push(TAG_INT, ret if ret is not None else 0)
                        push(TAG_INT, 1)
            elif op == OP_RETURN:
                return pop_int()
            elif op == OP_REVERT:
                raise _Fault("explicit revert")
            else:  # pragma: no cover - validate_code rejects unknown opcodes
                raise _Fault(f"unknown opcode 0x{op:02x}")
        return None


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
) -> StateDiff:
    """Execute a Call transaction against a fixed pre-state.

    The returned diff is not yet applied; StateDiff.apply commits it.
    Rejections (bad structure, missing callee, insufficient prepay) produce
    a diff with no effects at all; executed transactions always advance the
    nonce and pay the gas fee, whatever their status.
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
        assert k.access is not None
        fp = effective_footprint(k.access, k.contract, accounts.contracts)
        # The caller's balance is implicitly written by every transaction
        # (attached value and fees), so it is always in the footprint.
        fp = replace(
            fp,
            balances_written=fp.balances_written | {caller, k.contract},
        )
        checker = _Checker(fp)

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
