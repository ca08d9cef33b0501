"""Stateful contract VM: gas-metered stack machine over tagged 64-bit
words, with storage, balances, transfers, cross-contract calls, and
declared-vs-dynamic access tracking.

Words are Int(u64) or Addr(32 bytes); addresses enter programs only
through the calling transaction's address-constant table and the
CALLER/SELF opcodes. All arithmetic is checked; faults revert.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from . import lthash as _lthash
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
    sha256,
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


@dataclass(frozen=True)
class ContractAccount:
    address: bytes
    code: bytes
    footprint: Optional[AccessDecl] = None

    def code_hash(self) -> bytes:
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
    nonzero slots, contracts) up to date. Nonces are not committed. A write
    only notes the entries it removes and adds; the accumulator expands
    them when they are settled, which a batch leaves to its end.

    fees is the fee income the running batch owes the operator: counted in
    no balance, and credited to the operator's once, at the batch end."""

    def __init__(self) -> None:
        self._balances: dict[bytes, int] = {}
        self._contracts: dict[bytes, ContractAccount] = {}
        self._storage: dict[tuple[bytes, int], int] = {}
        self._nonces: dict[bytes, int] = {}
        self.balances: Mapping[bytes, int] = MappingProxyType(self._balances)
        self.contracts: Mapping[bytes, ContractAccount] = MappingProxyType(self._contracts)
        self.storage: Mapping[tuple[bytes, int], int] = MappingProxyType(self._storage)
        self.nonces: Mapping[bytes, int] = MappingProxyType(self._nonces)
        self.lthash = _lthash.LtHash()
        self.total = 0
        self.fees = 0

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
        other.fees = self.fees
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

    Balances of addresses inside the transaction's footprint are absolute.
    The fee is the actor's payment to the operator: apply adds it to the
    batch's pending fee income, which no transaction reads, so the diffs of
    non-conflicting transactions commute.
    """

    outcome: ExecOutcome
    balance_new: dict[bytes, int] = field(default_factory=dict)
    storage_new: dict[tuple[bytes, int], int] = field(default_factory=dict)
    new_contract: Optional[ContractAccount] = None
    nonce_new: Optional[tuple[bytes, int]] = None
    fee: int = 0

    def apply(self, accounts: Accounts) -> None:
        for addr, bal in self.balance_new.items():
            accounts.set_balance(addr, bal)
        for (addr, key), val in self.storage_new.items():
            accounts.set_slot(addr, key, val)
        if self.new_contract is not None:
            accounts.add_contract(self.new_contract)
        if self.nonce_new is not None:
            accounts.set_nonce(*self.nonce_new)
        accounts.fees += self.fee


# ---------------------------------------------------------------------------
# Code validation, assembler, disassembler


# Per opcode byte: instruction size (None: unknown opcode), gas, operand reader.
_SIZE = tuple(1 + _OPERAND_WIDTH.get(op, 0) if op in MNEMONICS else None for op in range(256))
_GAS = tuple(_GAS_TABLE.get(op, 1) for op in range(256))
_READ = {op: struct.Struct("<" + {1: "B", 2: "H", 8: "Q"}[w]).unpack_from for op, w in _OPERAND_WIDTH.items()}


def _instructions(code: bytes) -> Iterator[tuple[int, int, int, int]]:
    """The one walk over bytecode: (pc, opcode, immediate, next pc) for each
    instruction from offset 0. The immediate is the u64 of PUSHI, the table
    index of PUSHA, the target of JUMP/JUMPI and 0 otherwise. Raises
    ModelError on an unknown opcode or a truncated operand."""
    pc, end = 0, len(code)
    while pc < end:
        op = code[pc]
        size = _SIZE[op]
        if size is None:
            raise ModelError(f"unknown opcode 0x{op:02x} at {pc}")
        nxt = pc + size
        if nxt > end:
            raise ModelError(f"truncated {MNEMONICS[op]} operand at {pc}")
        yield pc, op, _READ[op](code, pc + 1)[0] if size > 1 else 0, nxt
        pc = nxt


def decode(code: bytes) -> Optional[tuple[Optional[tuple], ...]]:
    """The decoded program of well-formed code, None for any other code: for
    each instruction start, (opcode, immediate, next pc, gas); offsets inside
    an operand hold None. Well formed: 1 to MAX_CONTRACT_CODE_BYTES bytes,
    known opcodes, complete operands, jump targets on instruction starts."""
    if not 0 < len(code) <= MAX_CONTRACT_CODE_BYTES:
        return None
    prog: list[Optional[tuple]] = [None] * len(code)
    targets = []
    gas, jumps = _GAS, (OP_JUMP, OP_JUMPI)  # locals: every deploy's compile runs this loop
    try:
        for pc, op, imm, nxt in _instructions(code):
            prog[pc] = (op, imm, nxt, gas[op])
            if op in jumps:
                targets.append(imm)
    except ModelError:
        return None
    if not all(t < len(prog) and prog[t] is not None for t in targets):
        return None
    return tuple(prog)


def validate_code(code: bytes) -> bool:
    """Well formed, as decode defines it."""
    return decode(code) is not None


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
            operand = tokens[i + 1] if i + 1 < len(tokens) else ""
            if op in (OP_JUMP, OP_JUMPI) and operand in labels:
                value = labels[operand]
            elif operand.isascii() and operand.isdigit() and len(operand) <= 3 * width:
                value = int(operand)
            else:
                value = -1
            if not 0 <= value < 1 << 8 * width:
                raise ModelError(f"bad operand {operand!r} for {tok}")
            out.extend(value.to_bytes(width, "little"))
            i += 2
        else:
            i += 1
    code = bytes(out)
    if not validate_code(code):
        raise ModelError("assembled code failed validation")
    return code


def disassemble(code: bytes) -> str:
    return " ".join(
        f"{MNEMONICS[op]} {imm}" if op in _OPERAND_WIDTH else MNEMONICS[op] for _, op, imm, _ in _instructions(code)
    )


# ---------------------------------------------------------------------------
# Footprints


class Footprint(NamedTuple):
    """A declared call's footprint, which conflict analysis and the VM's
    access checks both read. Keys are balance addresses and storage slots
    (address, key); the two never compare equal, so one set holds both."""

    reads: frozenset  # what the call and the contracts it can reach declare they read
    writes: frozenset  # what they may write, and so read; the caller's and callee's balances too
    callees: frozenset  # every contract it can reach, the called one included


def call_footprint(k: Call, contracts: Mapping[bytes, ContractAccount]) -> Footprint:
    """The footprint of a declared call: its declaration folded with the
    deploy-time declarations of every contract it can reach, which never
    change once deployed. Each reachable contract is folded once."""
    a = k.access
    reads = a.balances_read | a.storage_read
    writes = a.balances_written | a.storage_written | {k.caller, k.contract}
    callees = a.callees | {k.contract}
    frontier = list(callees)
    while frontier:
        acct = contracts.get(frontier.pop())
        d = acct.footprint if acct is not None else None
        if d is not None:
            reads = reads | d.balances_read | d.storage_read
            writes = writes | d.balances_written | d.storage_written
            frontier += d.callees - callees
            callees = callees | d.callees
    return Footprint(reads, writes, callees)


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


# Stack words are plain values: an int is an Int, bytes are an Addr.
_ARITH = frozenset({OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MOD, OP_LT, OP_GT})


# ---------------------------------------------------------------------------
# Compiled code: one generated Python function per distinct code
#
# The dispatch per opcode is what an interpreter written in Python pays most
# for, and it dominates inside loops (Ertl & Gregg, "The Structure and
# Performance of Efficient Interpreters", JILP 2003). compile_code removes it
# from loops alone: a cycle of basic blocks of stack, arithmetic and
# control-flow ops that keeps its stack shape from one pass to the next, such
# as the burn loop, becomes a Python `while` over locals, from templates per
# op with an exact fallback (the stencil idea of Xu & Kjolstad,
# "Copy-and-Patch Compilation", OOPSLA 2021, without their machine code).
# The loop checks at entry that the stack holds the depth and the Int or
# Addr tags it consumes without passing MAX_FRAME_STACK, and each pass checks
# that the gas covers it. A failed entry guard, a pass the gas does not
# cover, and a pass that would fault (sub underflow, add/mul overflow,
# division by zero) hand the pass's entry (pc, stack, gas) to the per-op
# loop in _Machine.run_frame, which charges op by op, so the faulting op,
# its detail and gas_used stay exact. Every other op, straight-line pure
# code included, runs through the per-op loop.

_PURE = frozenset({
    OP_PUSHI, OP_PUSHA, OP_DUP, OP_DROP, OP_SWAP, OP_NOT, OP_EQ, OP_JUMP, OP_JUMPI,
    OP_ARG, OP_CALLER, OP_SELF, OP_VALUE, OP_EPOCH,
}) | _ARITH
# Tags of the words the frame constants push: Int or Addr.
_ENV_TAGS = {OP_ARG: "I", OP_CALLER: "A", OP_SELF: "A", OP_VALUE: "I", OP_EPOCH: "I"}
_NEGATED = {"<": ">=", ">": "<=", "==": "!="}
# Bounds on the compiler's work for one code: the generated function holds
# at most _MAX_LINES lines, and at most _MAX_TRACED ops are traced or blocks
# visited in the search for loops. Loop arms go in by header offset until
# the next would pass a bound; the loops left out run through the per-op
# loop. The burn loop's source takes 25 lines. A loop is looked for over at
# most _MAX_LOOP_BLOCKS blocks.
_MAX_LINES = 1_000
_MAX_TRACED = 4_096
_MAX_LOOP_BLOCKS = 8


class _Skip(Exception):
    """The ops fault whatever the stack holds; the per-op loop runs them."""


class _Full(Exception):
    """The arm would pass _MAX_LINES."""


class _Sym:
    """A symbolic stack word. expr is a Python expression that is cheap and
    cannot fail: an int literal, a local, or a frame constant. A 0/1 result
    of a comparison or NOT keeps its condition and the negation instead
    (expr is None) until a use needs the word. tag is "I" (Int), "A" (Addr)
    or None for an entry word no guard has fixed; slot is the entry word's
    depth below the top (1 = top), 0 for computed words."""

    __slots__ = ("expr", "tag", "cond", "neg", "slot")

    def __init__(self, expr, tag, cond=None, neg=None, slot=0):
        self.expr, self.tag, self.cond, self.neg, self.slot = expr, tag, cond, neg, slot


class _Trace:
    """Symbolic execution of pure ops into Python lines over locals.

    The entry words the ops reach are s1 (top), s2, ...; computed words go
    to t1, t2, .... lines holds (indent, text), at most `limit` of them; a
    possible fault emits `if <fault>:` followed by the `fault` lines. depth,
    peak, guards and max_const are what the entry guard checks."""

    def __init__(self, fault: list[str], limit: int, slots: int = 0, tags: Optional[dict] = None) -> None:
        self.fault = fault
        self.limit = limit
        self.lines: list[tuple[int, str]] = []
        self.guards: dict[int, str] = {}
        self.tags = tags or {}
        self.st: list[_Sym] = []
        self.depth = self.peak = self.gas = self.temps = 0
        self.max_const = -1
        self._need(slots)

    def _fits(self) -> None:
        # depth <= len(stack) <= MAX_FRAME_STACK - peak cannot hold.
        if self.depth + self.peak > MAX_FRAME_STACK:
            raise _Skip()

    def _need(self, k: int) -> None:
        while len(self.st) < k:
            self.depth += 1
            self.st.insert(0, _Sym(f"s{self.depth}", self.tags.get(self.depth), slot=self.depth))
        self._fits()

    def _push(self, sym: _Sym) -> None:
        self.st.append(sym)
        self.peak = max(self.peak, len(self.st) - self.depth)
        self._fits()

    def _pop(self, tag: Optional[str]) -> _Sym:
        self._need(1)
        sym = self.st.pop()
        if tag is not None:
            self._want(sym, tag)
        return sym

    def _want(self, sym: _Sym, tag: str) -> None:
        if sym.tag is None:
            sym.tag = self.guards[sym.slot] = tag
        elif sym.tag != tag:
            raise _Skip()

    def _emit(self, indent: int, text: str) -> None:
        if len(self.lines) >= self.limit:
            raise _Full()
        self.lines.append((indent, text))

    def word(self, sym: _Sym) -> str:
        """Expression of the word, without emitting anything."""
        return sym.expr if sym.expr is not None else f"(1 if {sym.cond} else 0)"

    def truth(self, sym: _Sym, nonzero: bool) -> str:
        """Condition that the word is nonzero (or zero)."""
        if sym.expr is None:
            return sym.cond if nonzero else sym.neg
        return self.word(sym) if nonzero else f"not {self.word(sym)}"

    def _atom(self, sym: _Sym) -> str:
        if sym.expr is None:
            sym.expr = self._temp(f"1 if {sym.cond} else 0")
            sym.cond = sym.neg = None
        return self.word(sym)

    def _temp(self, expr: str) -> str:
        self.temps += 1
        self._emit(0, f"t{self.temps} = {expr}")
        return f"t{self.temps}"

    def _check(self, cond: str) -> None:
        self._emit(0, f"if {cond}:")
        for line in self.fault:
            self._emit(1, line)

    def op(self, op: int, imm: int, cost: int) -> Optional[_Sym]:
        """Run one pure op; JUMPI returns its condition word."""
        self.gas += cost
        if op == OP_PUSHI:
            self._push(_Sym(str(imm), "I"))
        elif op == OP_PUSHA:
            self.max_const = max(self.max_const, imm)
            self._push(_Sym(f"consts[{imm}]", "A"))
        elif op in _ENV_TAGS:
            self._push(_Sym(f"env[{op}]", _ENV_TAGS[op]))
        elif op == OP_DUP:
            self._need(1)
            self._push(self.st[-1])
        elif op == OP_DROP:
            self._pop(None)
        elif op == OP_SWAP:
            self._need(2)
            self.st[-1], self.st[-2] = self.st[-2], self.st[-1]
        elif op == OP_NOT:
            x = self._pop("I")
            if x.expr is None:
                self._push(_Sym(None, "I", x.neg, x.cond))
            else:
                self._push(_Sym(None, "I", f"not {self.word(x)}", self.word(x)))
        elif op == OP_EQ:
            b, a = self._pop(None), self._pop(None)
            if a.tag is None or b.tag is None:
                tag = a.tag or b.tag or "I"
                self._want(a, tag)
                self._want(b, tag)
            elif a.tag != b.tag:
                raise _Skip()
            self._compare(a, "==", b)
        elif op == OP_JUMPI:
            return self._pop("I")
        elif op != OP_JUMP:
            b, a = self._pop("I"), self._pop("I")
            if op == OP_LT or op == OP_GT:
                self._compare(a, "<" if op == OP_LT else ">", b)
            else:
                self._arith(op, a, b)
        return None

    def _compare(self, a: _Sym, rel: str, b: _Sym) -> None:
        x, y = self._atom(a), self._atom(b)
        self._push(_Sym(None, "I", f"{x} {rel} {y}", f"{x} {_NEGATED[rel]} {y}"))

    def _arith(self, op: int, a: _Sym, b: _Sym) -> None:
        x, y = self._atom(a), self._atom(b)
        if op == OP_SUB:
            self._check(f"{y} > {x}")
            t = self._temp(f"{x} - {y}")
        elif op == OP_ADD or op == OP_MUL:
            t = self._temp(f"{x} {'+' if op == OP_ADD else '*'} {y}")
            self._check(f"{t} > {U64_MAX}")
        else:
            self._check(f"not {y}")
            t = self._temp(f"{x} {'//' if op == OP_DIV else '%'} {y}")
        self._push(_Sym(t, "I"))

    def writeback(self) -> list[str]:
        """Lines that put the symbolic words over the real stack's top
        `depth` words."""
        words = [self.word(sym) for sym in self.st]
        if self.depth == 1 and len(words) == 1:
            return [f"stack[-1] = {words[0]}"]
        if self.depth or words:
            return [f"stack[len(stack) - {self.depth}:] = ({''.join(w + ', ' for w in words)})"]
        return []

    def entry_ok(self) -> list[str]:
        """What the ops need of the stack and the constants, the gas aside:
        depth, room below MAX_FRAME_STACK, tags, table size."""
        ok = [f"{self.depth} <= len(stack) <= {MAX_FRAME_STACK - self.peak}"]
        ok += [f"stack[-{i}].__class__ is {'' if tag == 'I' else 'not '}int"
               for i, tag in sorted(self.guards.items())]
        if self.max_const >= 0:
            ok.append(f"len(consts) > {self.max_const}")
        return ok


class _Program:
    """Basic blocks of decoded code. A block is a run of pure ops that
    starts at a leader (offset 0, a jump target, or the op after a jump or
    after an op the per-op loop runs) and ends at a jump, before a leader or
    before an op that is not pure.

    armed holds the loop headers that got an arm; _source fills it."""

    def __init__(self, prog: tuple) -> None:
        self.prog = prog
        self.end = len(prog)
        self.traced = 0
        leaders = {0}
        self.back_targets: set[int] = set()
        for pc, entry in enumerate(prog):
            if entry is None:
                continue
            op, imm, nxt, _ = entry
            if op in (OP_JUMP, OP_JUMPI):
                leaders.update((imm, nxt))
                if imm <= pc:
                    self.back_targets.add(imm)
            elif op not in _PURE:
                leaders.add(nxt)
        self.blocks: dict[int, list[int]] = {}
        for pc in sorted(leaders):
            block: list[int] = []
            while pc < self.end and prog[pc][0] in _PURE and not (block and pc in leaders):
                block.append(pc)
                if prog[pc][0] in (OP_JUMP, OP_JUMPI):
                    break
                pc = prog[pc][2]
            if block:
                self.blocks[block[0]] = block
        self.armed: set[int] = set()

    def runs(self) -> tuple[int, ...]:
        """runs[pc] is how many ops the per-op loop runs from pc: up to the
        next armed header, the end of the code, or a jump, whose target is
        known only at run time."""
        runs = [0] * (self.end + 1)
        for pc in range(self.end - 1, -1, -1):
            if self.prog[pc] is not None:
                op, _, nxt, _ = self.prog[pc]
                stop = op in (OP_JUMP, OP_JUMPI) or nxt in self.armed
                runs[pc] = 1 if stop else 1 + runs[nxt]
        return tuple(runs)

    def successors(self, block: list[int]) -> tuple[int, ...]:
        """(target,) for JUMP or falling through; (taken, not taken) for
        JUMPI."""
        op, imm, nxt, _ = self.prog[block[-1]]
        if op == OP_JUMP:
            return (imm,)
        return (imm, nxt) if op == OP_JUMPI else (nxt,)

    def trace(self, path: list[list[int]], tr: _Trace, exit_lines) -> None:
        """Trace a cycle of blocks into tr; a JUMPI whose other target leaves
        the cycle calls exit_lines(target, condition)."""
        self.traced += sum(map(len, path))
        for block, stay in zip(path, [block[0] for block in path[1:]] + [path[0][0]]):
            for pc in block:
                op, imm, _, cost = self.prog[pc]
                cond = tr.op(op, imm, cost)
            succ = self.successors(block)
            if len(succ) == 2 and succ[0] != succ[1]:
                out = succ[1] if succ[0] == stay else succ[0]
                exit_lines(out, tr.truth(cond, out == succ[0]))

    def cycle(self, header: int) -> Optional[list[list[int]]]:
        """Shortest path of blocks from header back to it, found breadth
        first, so no block on it but the last can go to the header."""
        parent: dict[int, Optional[int]] = {header: None}
        frontier = [header]
        for _ in range(_MAX_LOOP_BLOCKS):
            self.traced += len(frontier)
            later = []
            for at in frontier:
                for target in self.successors(self.blocks[at]):
                    if target == header:
                        path = [at]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return [self.blocks[b] for b in reversed(path)]
                    if target in self.blocks and target not in parent:
                        parent[target] = at
                        later.append(target)
            frontier = later
        return None

    def loop_arm(self, path: list[list[int]], limit: int) -> Optional[list[tuple[int, str]]]:
        """A `while` over a cycle of blocks whose words keep their depth and
        tags from one pass to the next: the entry words live in locals
        s1..sd, so each pass checks only its gas. An exit writes the words
        back and dispatches on its target. A pass that could fault or that
        the gas does not cover writes back the pass's entry words and
        returns the header's run to the per-op loop, as a failed entry guard
        does. Raises _Skip if the ops fault whatever the stack holds."""
        header = path[0][0]
        probe = _Trace([], limit)
        self.trace(path, probe, lambda out, when: None)
        d = probe.depth
        if len(probe.st) != d or any(probe.st[-i].tag != tag for i, tag in probe.guards.items()):
            return None
        words = ", ".join(f"s{i}" for i in range(d, 0, -1))
        restore = [f"stack[-{d}:] = {words}," if d > 1 else "stack[-1] = s1"] if d else []
        tr = _Trace(restore + ["break"], limit, d, probe.guards)

        def exit_lines(out: int, when: str) -> None:
            tr._emit(0, f"if {when}:")
            for line in tr.writeback() + [f"gas -= {tr.gas}", f"pc = {out}", "break"]:
                tr._emit(1, line)

        self.trace(path, tr, exit_lines)
        new = {i: tr.word(tr.st[-i]) for i in range(1, d + 1)}
        changed = [i for i in new if new[i] != f"s{i}"]
        body = list(tr.lines)
        if changed:
            body.append((0, f"{', '.join(f's{i}' for i in changed)} = {', '.join(new[i] for i in changed)}"))
        # The pass ends in `continue`, an unconditional jump back: CPython
        # 3.11 counts a function's warm-up only at its calls and at such
        # jumps, so a loop that ends at its condition stays unspecialized,
        # about 1.5x slower a pass, until the function's eighth call.
        body += [(0, f"gas -= {tr.gas}"), (0, "continue")]
        loop = [(0, f"s{i} = stack[-{i}]") for i in range(1, d + 1)]
        loop += [(0, f"while gas >= {tr.gas}:")] + [(k + 1, line) for k, line in body]
        if restore:
            loop += [(0, "else:"), (1, restore[0])]
        loop += [(0, f"if pc != {header}:"), (1, "continue")]
        if probe.entry_ok():
            loop = [(0, f"if {' and '.join(probe.entry_ok())}:")] + [(k + 1, line) for k, line in loop]
        return loop + [(0, "return pc, gas, runs[pc]")]


def _dispatch(arms: list[tuple[int, list[tuple[int, str]]]], indent: int, out: list[str]) -> None:
    """An if-tree on pc over the arms, halving until four are left; an
    offset with no arm returns its run to the per-op loop."""
    pad = "    " * indent
    if len(arms) > 4:
        mid = len(arms) // 2
        out.append(f"{pad}if pc < {arms[mid][0]}:")
        _dispatch(arms[:mid], indent + 1, out)
        out.append(f"{pad}else:")
        _dispatch(arms[mid:], indent + 1, out)
        return
    for i, (start, lines) in enumerate(arms):
        out.append(f"{pad}{'el' if i else ''}if pc == {start}:")
        out.extend(f"{pad}{'    ' * (k + 1)}{line}" for k, line in lines)
    out.append(f"{pad}{'else:' if arms else 'if True:'}")
    out.append(f"{pad}    return pc, gas, runs[pc]")


def generate_source(prog: tuple) -> str:
    """Python source of `run(stack, gas, pc, env, consts)` for a decoded
    program; see _source."""
    return _source(_Program(prog))


def _source(p: _Program) -> str:
    """Python source of `run(stack, gas, pc, env, consts)` for a decoded
    program. From pc it runs compiled loops over `stack` until the per-op
    loop must take over, and returns (pc, gas, steps): the per-op loop runs
    `steps` ops from pc and calls it again; steps is 0 at the end of the
    code. The source holds only integers from the decoded program, never
    bytes of the code.

    A block that heads a cycle of blocks (the target of a backward jump)
    gets an arm if the cycle compiles to a `while`, until the bounds above;
    p.armed is set to those headers. Any other offset returns its run from
    the global `runs`, which compile_code sets to p.runs()."""
    left = _MAX_LINES
    arms = []
    for start in sorted(p.back_targets.intersection(p.blocks)):
        if p.traced >= _MAX_TRACED:
            break
        path = p.cycle(start)
        try:
            lines = path and p.loop_arm(path, left)
        except _Skip:
            continue
        except _Full:
            break
        if not lines:
            continue
        # Two lines for the arm's place in the dispatch tree.
        if len(lines) + 2 > left:
            break
        arms.append((start, lines))
        left -= len(lines) + 2
    p.armed = {start for start, _ in arms}
    out = ["def run(stack, gas, pc, env, consts):", "    while True:"]
    _dispatch(arms, 2, out)
    return "\n".join(out) + "\n"


# Each entry holds the decoded program, the run table and the compiled
# function. For a 4 KiB code that is at most about 600 KiB: the decoded
# program up to about 440 KiB (4096 one-byte instructions), the run table
# up to about 150 KiB, and the function, which _MAX_LINES holds near 30 KiB.
# So 64 entries bound the cache near 38 MiB. On a shared 2-vCPU x86-64
# host a miss costs 40-200 us for the burn, counter, average and DEX
# contracts, and up to about 11 ms (under 4 MiB peak) for the worst 4 KiB
# codes tried: 1,000-line sources of many loops. deploy compiles, so a miss
# is paid there, or by the first call after an eviction.
@functools.lru_cache(maxsize=64)
def compile_code(code: bytes) -> tuple[tuple, Callable]:
    """(decoded program, compiled function) of well-formed code, built once
    per distinct code; ModelError, never a cache entry, for any other code."""
    prog = decode(code)
    if prog is None:
        raise ModelError("code failed validation")
    program = _Program(prog)
    source = _source(program)
    namespace = {"runs": program.runs()}
    exec(source, namespace)
    return program.prog, namespace["run"]


def _pop(stack: list, want_int: Optional[bool] = None):
    """The top word, which must be an Int (want_int True), an Addr (False)
    or either (None)."""
    if not stack:
        raise _Fault("stack underflow")
    v = stack.pop()
    if want_int is not None and (v.__class__ is int) != want_int:
        raise _Fault("type error: expected Int" if want_int else "type error: expected Addr")
    return v


def _push(stack: list, v) -> None:
    """Push v, unless the stack is at MAX_FRAME_STACK."""
    if len(stack) >= MAX_FRAME_STACK:
        raise _Fault("frame stack overflow")
    stack.append(v)


def _arith(op: int, stack: list) -> int:
    """Pop b, then a, both Ints, and return a op b for the seven checked
    arithmetic and comparison ops."""
    b = _pop(stack, True)
    a = _pop(stack, True)
    if op == OP_SUB:
        if b > a:
            raise _Fault("sub underflow")
        return a - b
    if op == OP_ADD or op == OP_MUL:
        c = a + b if op == OP_ADD else a * b
        if c > U64_MAX:
            raise _Fault("add overflow" if op == OP_ADD else "mul overflow")
        return c
    if op == OP_DIV or op == OP_MOD:
        if not b:
            raise _Fault("division by zero" if op == OP_DIV else "modulo by zero")
        return a // b if op == OP_DIV else a % b
    return int(a < b) if op == OP_LT else int(a > b)


class _Machine:
    """One transaction's execution: a journal of balance/storage writes over
    an immutable pre-state, a global gas counter, and nested call frames.
    Every journal write also appends (journal, key, old value or None) to
    one trail, so a call's revert point is a pair of lengths, trail and
    events, and a reverted call pops its own writes back off. footprint is
    the declared call's, which run_frame checks each state op and call
    against; None in dynamic mode."""

    def __init__(
        self,
        accounts: Accounts,
        epoch: int,
        consts: tuple[bytes, ...],
        gas_limit: int,
        footprint: Optional[Footprint],
    ) -> None:
        self.base = accounts
        self.epoch = epoch
        self.consts = consts
        self.gas = gas_limit
        self.footprint = footprint
        self.balances: dict[bytes, int] = {}
        self.storage: dict[tuple[bytes, int], int] = {}
        self.events: list[tuple[bytes, int, int]] = []
        self.trail: list[tuple[dict, object, Optional[int]]] = []

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
        self.write(self.balances, src, have - amount)
        self.write(self.balances, dst, checked_add(self.balance(dst), amount))

    def sload(self, addr: bytes, key: int) -> int:
        if (addr, key) in self.storage:
            return self.storage[(addr, key)]
        return self.base.storage_get(addr, key)

    def write(self, journal: dict, key, val: int) -> None:
        self.trail.append((journal, key, journal.get(key)))
        journal[key] = val

    def revert(self, snap: tuple[int, int]) -> None:
        while len(self.trail) > snap[0]:
            journal, key, old = self.trail.pop()
            if old is None:
                del journal[key]
            else:
                journal[key] = old
        del self.events[snap[1]:]

    # execution --------------------------------------------------------------

    def run_frame(self, self_addr: bytes, caller: bytes, arg: int, value: int, depth: int) -> Optional[int]:
        """Execute a contract frame; returns its RETURN value (None for
        HALT). Raises _Fault to revert the frame.

        The code's compiled function runs its loops and returns where the
        per-op loop takes over and for how many ops: every op outside a
        compiled loop, and a loop pass whose guard failed or that would
        fault. The per-op loop keeps gas in a local and charges each op
        before it executes it. self.gas is exact whenever the frame exits or
        calls another frame. Words leave the stack through _pop and enter it
        through _push, which checks MAX_FRAME_STACK; an op that pushes no
        more words than it has popped appends them directly. The op chain
        tests PUSHI, DUP, JUMPI and arithmetic first, then the state and
        call ops, which a short contract such as the counter runs at each
        call, then the other pure ops."""
        self.move_value(caller, self_addr, value)
        prog, compiled = compile_code(self.base.contracts[self_addr].code)
        n = len(prog)
        fp = self.footprint
        consts = self.consts
        env = {OP_ARG: arg, OP_CALLER: caller, OP_SELF: self_addr, OP_VALUE: value, OP_EPOCH: self.epoch}
        stack: list = []
        push = stack.append
        gas = self.gas
        pc = 0
        try:
            while pc < n:
                pc, gas, steps = compiled(stack, gas, pc, env, consts)
                for _ in range(steps):
                    op, imm, pc, cost = prog[pc]
                    gas -= cost
                    if gas < 0:
                        raise _OutOfGas()
                    if op == OP_PUSHI:
                        _push(stack, imm)
                    elif op == OP_DUP:
                        v = _pop(stack)
                        push(v)
                        _push(stack, v)
                    elif op == OP_JUMPI:
                        if _pop(stack, True):
                            pc = imm
                    elif op in _ARITH:
                        push(_arith(op, stack))
                    elif op == OP_HALT:
                        return None
                    elif op == OP_SLOAD:
                        key = _pop(stack, True)
                        if fp is not None and (self_addr, key) not in fp.reads and (self_addr, key) not in fp.writes:
                            raise AccessViolationError(f"undeclared storage read {self_addr.hex()[:16]}:{key}")
                        push(self.sload(self_addr, key))
                    elif op == OP_SSTORE:
                        val = _pop(stack, True)
                        key = _pop(stack, True)
                        if fp is not None and (self_addr, key) not in fp.writes:
                            raise AccessViolationError(f"undeclared storage write {self_addr.hex()[:16]}:{key}")
                        self.write(self.storage, (self_addr, key), val)
                    elif op == OP_BALANCE:
                        addr = _pop(stack, False)
                        if fp is not None and addr not in fp.reads and addr not in fp.writes:
                            raise AccessViolationError(f"undeclared balance read of {addr.hex()[:16]}")
                        push(self.balance(addr))
                    elif op == OP_TRANSFER:
                        dst = _pop(stack, False)
                        amount = _pop(stack, True)
                        if fp is not None:
                            for addr in (self_addr, dst):
                                if addr not in fp.writes:
                                    raise AccessViolationError(f"undeclared balance write of {addr.hex()[:16]}")
                        self.move_value(self_addr, dst, amount)
                    elif op == OP_RETURN:
                        return _pop(stack, True)
                    elif op == OP_EVENT:
                        val = _pop(stack, True)
                        topic = _pop(stack, True)
                        self.events.append((self_addr, topic, val))
                    elif op == OP_CALL:
                        callee = _pop(stack, False)
                        call_arg = _pop(stack, True)
                        if fp is not None and callee not in fp.callees:
                            raise AccessViolationError(f"undeclared call to {callee.hex()[:16]}")
                        ret, ok = None, 0
                        if depth + 1 <= MAX_CALL_DEPTH and callee in self.base.contracts:
                            snap = len(self.trail), len(self.events)
                            self.gas = gas
                            try:
                                ret = self.run_frame(callee, self_addr, call_arg, 0, depth + 1)
                                ok = 1
                            except _Fault:
                                self.revert(snap)
                            finally:
                                gas = self.gas
                        push(ret or 0)  # return value
                        push(ok)  # status
                    elif op == OP_REVERT:
                        raise _Fault("explicit revert")
                    elif op == OP_JUMP:
                        pc = imm
                    elif op == OP_NOT:
                        push(0 if _pop(stack, True) else 1)
                    elif op in env:
                        _push(stack, env[op])
                    elif op == OP_PUSHA:
                        if imm >= len(consts):
                            raise _Fault(f"address constant {imm} out of range")
                        _push(stack, consts[imm])
                    elif op == OP_DROP:
                        _pop(stack)
                    elif op == OP_SWAP:
                        b, a = _pop(stack), _pop(stack)
                        stack += b, a
                    elif op == OP_EQ:
                        b, a = _pop(stack), _pop(stack)
                        if (a.__class__ is int) != (b.__class__ is int):
                            raise _Fault("type error: EQ on mixed tags")
                        push(int(a == b))
                    else:  # pragma: no cover - decode rejects unknown opcodes
                        raise _Fault(f"unknown opcode 0x{op:02x}")
            return None
        finally:
            self.gas = gas


def _prepay_covered(accounts: Accounts, payer: bytes, gas_limit: int, gas_price: int, value: int) -> bool:
    """The payer's balance covers the value it moves plus the whole gas
    prepay. Plain ints: a signed gas_limit * gas_price may pass 2^64-1, and
    such a transaction is rejected, never raised on."""
    return accounts.balance(payer) >= gas_limit * gas_price + value


def _finish(
    accounts: Accounts,
    actor: bytes,
    gas_price: int,
    outcome: ExecOutcome,
    balances: dict[bytes, int],
    storage: dict[tuple[bytes, int], int],
) -> StateDiff:
    """Settle an executed transaction: its balance and storage writes when
    it committed (the diff takes both dicts over), the nonce advance, and
    the fee the actor pays."""
    diff = StateDiff(outcome, fee=outcome.gas_used * gas_price)
    if outcome.committed:
        diff.balance_new, diff.storage_new = balances, storage
    diff.nonce_new = (actor, accounts.nonces.get(actor, 0) + 1)
    if diff.fee:
        actor_bal = diff.balance_new.get(actor, accounts.balance(actor))
        diff.balance_new[actor] = checked_sub(actor_bal, diff.fee)
    return diff


def invoke(
    accounts: Accounts,
    tx: Transaction,
    tx_id: bytes,
    epoch: int,
    declared_mode: bool,
    footprint: Optional[Footprint] = None,
) -> StateDiff:
    """Execute a Call transaction against a fixed pre-state.

    The returned diff is not yet applied; StateDiff.apply commits it.
    Rejections (bad structure, missing callee, insufficient prepay) produce
    a diff with no effects at all; executed transactions always advance the
    nonce and pay the gas fee, whatever their status. In declared mode,
    every balance read and write, storage read and write, and call is
    checked against the call's `Footprint`: the keys it may read, the keys
    it may write (and read), and the contracts it may call. `footprint` is
    the call's `call_footprint` when the caller already has it and no
    contract it can reach was deployed since; otherwise it is computed here.
    Dynamic mode ignores it and checks nothing.
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
    if not _prepay_covered(accounts, caller, k.gas_limit, k.gas_price, k.attached):
        return StateDiff(ExecOutcome(STATUS_INSUFFICIENT_BALANCE, detail="cannot cover attached value plus gas prepay"))

    if not declared_mode:
        footprint = None
    elif footprint is None:
        footprint = call_footprint(k, accounts.contracts)

    machine = _Machine(accounts, epoch, k.address_consts, k.gas_limit, footprint)
    ret, detail = None, ""
    try:
        ret = machine.run_frame(k.contract, caller, k.arg, k.attached, depth=0)
        status = STATUS_COMMITTED
    except _OutOfGas:
        status = STATUS_OUT_OF_GAS
    except AccessViolationError as exc:
        status, detail = STATUS_ACCESS_VIOLATION, exc.detail
    except _Fault as exc:
        status, detail = STATUS_REVERTED, exc.detail
    # Gas runs negative only on out-of-gas, which uses the whole limit.
    gas_used = k.gas_limit - max(machine.gas, 0)
    events = tuple(machine.events) if status == STATUS_COMMITTED else ()
    outcome = ExecOutcome(status, gas_used, ret, events, detail)
    return _finish(accounts, caller, k.gas_price, outcome, machine.balances, machine.storage)


# Deploy gas: one unit per code byte (documented; there is no constructor
# execution, so metering is by stored size).
def deploy_gas(code: bytes) -> int:
    return len(code)


def deploy(
    accounts: Accounts,
    tx: Transaction,
    tx_id: bytes,
) -> StateDiff:
    """Create a contract account at the deploy transaction's id, with the
    same rejections and settlement as invoke."""
    k = tx.kind
    assert isinstance(k, Deploy)
    payer = k.payer
    if tx.nonce != accounts.nonces.get(payer, 0):
        return StateDiff(ExecOutcome(STATUS_BAD_NONCE, detail=f"expected nonce {accounts.nonces.get(payer, 0)}"))
    try:
        compile_code(k.code)
    except ModelError:
        return StateDiff(ExecOutcome(STATUS_MALFORMED_CODE, detail="code failed validation"))
    if not _prepay_covered(accounts, payer, k.gas_limit, k.gas_price, k.endowment):
        return StateDiff(ExecOutcome(STATUS_INSUFFICIENT_BALANCE, detail="cannot cover endowment plus gas prepay"))
    gas_used = deploy_gas(k.code)
    if gas_used > k.gas_limit:
        outcome = ExecOutcome(STATUS_OUT_OF_GAS, gas_used=k.gas_limit)
        return _finish(accounts, payer, k.gas_price, outcome, {}, {})
    balances = {payer: accounts.balance(payer) - k.endowment}
    if k.endowment:
        balances[tx_id] = checked_add(accounts.balance(tx_id), k.endowment)
    diff = _finish(accounts, payer, k.gas_price, ExecOutcome(STATUS_COMMITTED, gas_used), balances, {})
    footprint = k.access.substitute_self(tx_id) if k.access is not None else None
    diff.new_contract = ContractAccount(tx_id, k.code, footprint)
    return diff
