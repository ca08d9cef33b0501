"""Independent oracles the differential tests compare against.

Deliberately written from the documented tables, not from the package
internals: opcode bytes, limits, and failure reasons are restated as
literals, signature verification goes straight to the cryptography
library, and multisig matching is brute force instead of greedy. The
exceptions are the canonical codec, the JSON codec, the contract VM and
the conflict-wave builder: their oracles are the package's earlier, simpler
implementations, which share the value types (and, for the VM and the
waves, the opcode table, gas table, state types and footprint derivation)
with the code under test and differ only in how they encode or execute.
The state digest is also rebuilt here from scratch with the package's own
LtHash, as the oracle for its incremental bookkeeping.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import replace
from itertools import combinations
from typing import Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from tierledger.ledger import LedgerState, utxo_entry
from tierledger.lthash import LtHash
from tierledger.model import (
    LOCK_MULTISIG,
    LOCK_PUBKEY,
    LOCK_SCRIPT,
    U64_MAX,
    AccessDecl,
    Call,
    Deploy,
    JsonCodec,
    Lock,
    ModelError,
    MoveToAccount,
    MoveToUtxo,
    Outpoint,
    Output,
    Transaction,
    TxKind,
    UtxoSpend,
    checked_add,
    require_u32,
    require_u64,
)
from tierledger.vm import (
    MAX_CALL_DEPTH,
    MAX_FRAME_STACK,
    OP_ADD,
    OP_ARG,
    OP_BALANCE,
    OP_CALL,
    OP_CALLER,
    OP_DIV,
    OP_DROP,
    OP_DUP,
    OP_EPOCH,
    OP_EQ,
    OP_EVENT,
    OP_GT,
    OP_HALT,
    OP_JUMP,
    OP_JUMPI,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NOT,
    OP_PUSHA,
    OP_PUSHI,
    OP_RETURN,
    OP_REVERT,
    OP_SELF,
    OP_SLOAD,
    OP_SSTORE,
    OP_SUB,
    OP_SWAP,
    OP_TRANSFER,
    OP_VALUE,
    STATUS_ACCESS_VIOLATION,
    STATUS_BAD_NONCE,
    STATUS_COMMITTED,
    STATUS_INSUFFICIENT_BALANCE,
    STATUS_MISSING_ACCESS_DECL,
    STATUS_NO_SUCH_CONTRACT,
    STATUS_OUT_OF_GAS,
    STATUS_REVERTED,
    _GAS_TABLE,
    _OPERAND_WIDTH,
    AccessViolationError,
    Accounts,
    ExecOutcome,
    StateDiff,
    balance_entry,
    contract_entry,
    slot_entry,
    _Checker,
    _Fault,
    _finish,
    _OutOfGas,
    effective_footprint,
)


def ref_verify(pubkey: bytes, msg: bytes, sig: bytes) -> bool:
    """Ed25519 verification through OpenSSL alone: `crypto.verify` without
    its libsodium fast path. OpenSSL's verdicts are the ledger's rules."""
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
        if all(ref_verify(pubkeys[ki], msg, sig) for ki, sig in zip(picks, sigs)):
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
                ok = ref_verify(pk, msg, sig)
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


# ---------------------------------------------------------------------------
# Canonical codec: the package's earlier per-field Writer encoder, kept as
# the reference the struct-packing encoder must match byte for byte, and
# the binary decoder, which nothing in the package needs (its log is JSON)
# and which checks here that the encoding is injective.


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFF:
            raise ModelError(f"u8 out of range: {v}")
        self._parts.append(v.to_bytes(1, "little"))
        return self

    def u16(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFFFF:
            raise ModelError(f"u16 out of range: {v}")
        self._parts.append(v.to_bytes(2, "little"))
        return self

    def u32(self, v: int) -> "Writer":
        require_u32(v)
        self._parts.append(v.to_bytes(4, "little"))
        return self

    def u64(self, v: int) -> "Writer":
        require_u64(v)
        self._parts.append(v.to_bytes(8, "little"))
        return self

    def bytes_(self, b: bytes) -> "Writer":
        self.u32(len(b))
        self._parts.append(bytes(b))
        return self

    def raw(self, b: bytes) -> "Writer":
        """Append pre-serialized bytes without a length prefix."""
        self._parts.append(b)
        return self

    def opt_u64(self, v: Optional[int]) -> "Writer":
        if v is None:
            return self.u8(0)
        return self.u8(1).u64(v)

    def done(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ModelError("truncated canonical encoding")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "little")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "little")

    def bytes_(self) -> bytes:
        return self._take(self.u32())

    def opt_u64(self) -> Optional[int]:
        return self.u64() if self.u8() else None

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise ModelError("trailing bytes in canonical encoding")


def write_lock(w: Writer, lock: Lock) -> None:
    w.u8(lock.kind)
    if lock.kind == LOCK_PUBKEY:
        w.bytes_(lock.pubkey)
    elif lock.kind == LOCK_MULTISIG:
        w.u8(lock.m).u32(len(lock.pubkeys))
        for pk in lock.pubkeys:
            w.bytes_(pk)
    elif lock.kind == LOCK_SCRIPT:
        w.bytes_(lock.script)
    else:
        raise ModelError(f"unknown lock kind {lock.kind}")


def write_output(w: Writer, out: Output) -> None:
    w.u64(out.amount)
    write_lock(w, out.lock)
    w.opt_u64(out.expiry)


def write_outpoint(w: Writer, op: Outpoint) -> None:
    w.bytes_(op.txid)
    w.u32(op.index)


def write_access(w: Writer, a: AccessDecl) -> None:
    for addrs in (a.balances_read, a.balances_written):
        w.u32(len(addrs))
        for x in sorted(addrs):
            w.bytes_(x)
    for slots in (a.storage_read, a.storage_written):
        w.u32(len(slots))
        for x, k in sorted(slots):
            w.bytes_(x)
            w.u64(k)
    w.u32(len(a.callees))
    for x in sorted(a.callees):
        w.bytes_(x)


def _write_opt_access(w: Writer, access: Optional[AccessDecl]) -> None:
    if access is None:
        w.u8(0)
    else:
        w.u8(1)
        write_access(w, access)


def encode(write, value) -> bytes:
    """Bytes of one value through one of the write_* functions above."""
    w = Writer()
    write(w, value)
    return w.done()


def ref_canonical_serialize(tx: Transaction) -> bytes:
    w = Writer()
    k = tx.kind
    if isinstance(k, UtxoSpend):
        w.u8(0).u32(len(k.inputs))
        for op in k.inputs:
            write_outpoint(w, op)
        w.u32(len(k.outputs))
        for out in k.outputs:
            write_output(w, out)
    elif isinstance(k, Deploy):
        w.u8(1).bytes_(k.code).u64(k.endowment).bytes_(k.payer)
        w.u64(k.gas_limit).u64(k.gas_price)
        _write_opt_access(w, k.access)
    elif isinstance(k, Call):
        w.u8(2).bytes_(k.contract).u64(k.arg).u64(k.attached).bytes_(k.caller)
        w.u64(k.gas_limit).u64(k.gas_price)
        _write_opt_access(w, k.access)
        w.u32(len(k.address_consts))
        for a in k.address_consts:
            w.bytes_(a)
    elif isinstance(k, MoveToAccount):
        w.u8(3).u32(len(k.inputs))
        for op in k.inputs:
            write_outpoint(w, op)
        w.bytes_(k.to).u64(k.amount)
    elif isinstance(k, MoveToUtxo):
        w.u8(4).bytes_(k.source).u64(k.amount)
        w.u32(len(k.outputs))
        for out in k.outputs:
            write_output(w, out)
    else:
        raise ModelError(f"unknown transaction kind {type(k)!r}")
    w.opt_u64(tx.not_before)
    w.opt_u64(tx.not_after)
    w.u64(tx.nonce)
    return w.done()


def ref_txid(tx: Transaction) -> bytes:
    return hashlib.sha256(ref_canonical_serialize(tx)).digest()


def ref_full_serialize(tx: Transaction) -> bytes:
    w = Writer()
    w.bytes_(ref_canonical_serialize(tx))
    w.u32(len(tx.witnesses))
    for wit in tx.witnesses:
        w.u32(len(wit))
        for item in wit:
            w.bytes_(item)
    if tx.auth is None:
        w.u8(0)
    else:
        w.u8(1).bytes_(tx.auth.pubkey).bytes_(tx.auth.signature)
    e = tx.endorsement
    if e is None:
        w.u8(0)
    else:
        w.u8(1).u8(0 if e.granularity == "per_transaction" else 1)
        w.bytes_(e.intermediary_pubkey).bytes_(e.signature)
        w.bytes_(e.user_pubkey).u64(e.expiry)
    return w.done()


def ref_receipt_hash(tx_id: bytes, status: int, gas_used: int, level: int, digest: bytes) -> bytes:
    w = Writer()
    w.bytes_(tx_id).u16(status).u64(gas_used).u8(level).bytes_(digest)
    return hashlib.sha256(w.done()).digest()


def ref_header_hash(
    batch_number: int, epoch: int, prev_hash: bytes, txs_hash: bytes, receipts_hash: bytes,
    post_state_digest: bytes, config_hash: bytes,
) -> bytes:
    w = Writer()
    w.u64(batch_number).u64(epoch)
    w.bytes_(prev_hash).bytes_(txs_hash).bytes_(receipts_hash)
    w.bytes_(post_state_digest).bytes_(config_hash)
    return hashlib.sha256(w.done()).digest()


def ref_state_digest(
    utxos: dict, account_entries: Sequence[bytes], issued: int, expired: int, account_total: int,
    epoch: int,
) -> bytes:
    """The documented state digest from the UTXO mapping, the account
    entries and the counters, with each UTXO entry encoded by the
    reference encoder and both accumulators summed lane by lane."""
    utxo_acc = lthash16_oracle([
        b"U" + encode(write_outpoint, op) + encode(write_output, out) for op, out in utxos.items()
    ])
    w = Writer().raw(b"tierledger/state/lthash16/v1").raw(utxo_acc)
    w.raw(lthash16_oracle(account_entries)).u64(issued).u64(expired)
    w.u64(sum(out.amount for out in utxos.values())).u64(account_total).u64(epoch)
    return hashlib.sha256(w.done()).digest()


def recompute_state_digest(state: LedgerState) -> bytes:
    """state_digest rebuilt from scratch: both accumulators are summed anew
    from the mappings, one add per entry, and both totals recomputed. The
    oracle for the state-write API's incremental bookkeeping."""
    utxo_acc = LtHash()
    for op, out in state.utxos.items():
        utxo_acc.add(utxo_entry(op, out))
    accounts = state.accounts
    account_acc = LtHash()
    for addr, bal in accounts.balances.items():
        if bal:
            account_acc.add(balance_entry(addr, bal))
    for (addr, key), val in accounts.storage.items():
        if val:
            account_acc.add(slot_entry(addr, key, val))
    for acct in accounts.contracts.values():
        account_acc.add(contract_entry(acct))
    counters = struct.pack(
        "<5Q", state.issued, state.expired, sum(out.amount for out in state.utxos.values()),
        sum(accounts.balances.values()), state.epoch,
    )
    tag = b"tierledger/state/lthash16/v1"
    return hashlib.sha256(tag + utxo_acc.digest() + account_acc.digest() + counters).digest()


def read_lock(r: Reader) -> Lock:
    kind = r.u8()
    if kind == LOCK_PUBKEY:
        return Lock.pay_to_pubkey(r.bytes_())
    if kind == LOCK_MULTISIG:
        m = r.u8()
        n = r.u32()
        return Lock.multisig(m, tuple(r.bytes_() for _ in range(n)))
    if kind == LOCK_SCRIPT:
        return Lock.pay_to_script(r.bytes_())
    raise ModelError(f"unknown lock kind {kind}")


def read_output(r: Reader) -> Output:
    amount = r.u64()
    lock = read_lock(r)
    return Output(amount, lock, r.opt_u64())


def read_outpoint(r: Reader) -> Outpoint:
    return Outpoint(r.bytes_(), r.u32())


def read_access(r: Reader) -> AccessDecl:
    br = frozenset(r.bytes_() for _ in range(r.u32()))
    bw = frozenset(r.bytes_() for _ in range(r.u32()))
    sr = frozenset((r.bytes_(), r.u64()) for _ in range(r.u32()))
    sw = frozenset((r.bytes_(), r.u64()) for _ in range(r.u32()))
    cs = frozenset(r.bytes_() for _ in range(r.u32()))
    return AccessDecl(br, bw, sr, sw, cs)


def _read_opt_access(r: Reader) -> Optional[AccessDecl]:
    return read_access(r) if r.u8() else None


def canonical_deserialize(data: bytes) -> Transaction:
    """Inverse of canonical_serialize (witness-free)."""
    r = Reader(data)
    tag = r.u8()
    kind: TxKind
    if tag == 0:
        inputs = tuple(read_outpoint(r) for _ in range(r.u32()))
        outputs = tuple(read_output(r) for _ in range(r.u32()))
        kind = UtxoSpend(inputs, outputs)
    elif tag == 1:
        code = r.bytes_()
        endowment = r.u64()
        payer = r.bytes_()
        gas_limit = r.u64()
        gas_price = r.u64()
        kind = Deploy(code, endowment, payer, gas_limit, gas_price, _read_opt_access(r))
    elif tag == 2:
        contract = r.bytes_()
        arg = r.u64()
        attached = r.u64()
        caller = r.bytes_()
        gas_limit = r.u64()
        gas_price = r.u64()
        access = _read_opt_access(r)
        consts = tuple(r.bytes_() for _ in range(r.u32()))
        kind = Call(contract, arg, attached, caller, gas_limit, gas_price, access, consts)
    elif tag == 3:
        inputs = tuple(read_outpoint(r) for _ in range(r.u32()))
        kind = MoveToAccount(inputs, r.bytes_(), r.u64())
    elif tag == 4:
        source = r.bytes_()
        amount = r.u64()
        outputs = tuple(read_output(r) for _ in range(r.u32()))
        kind = MoveToUtxo(source, amount, outputs)
    else:
        raise ModelError(f"unknown transaction kind tag {tag}")
    not_before = r.opt_u64()
    not_after = r.opt_u64()
    nonce = r.u64()
    r.finish()
    return Transaction(kind, nonce=nonce, not_before=not_before, not_after=not_after)


# ---------------------------------------------------------------------------
# JSON codec: the per-output decoder and encoder from before the codec
# interned values. Swapped in for JsonCodec, it decodes every output and
# lock afresh, so a differential test sees whether interning changes a
# decoded value or a rejection; its output_json is compared with
# model.OUTPUT_JSON's encode directly.


def _ref_unhex(s: str) -> bytes:
    try:
        return bytes.fromhex(s)
    except (ValueError, TypeError) as exc:
        raise ModelError(f"bad hex: {s!r}") from exc


def ref_lock_from_json(obj: dict) -> Lock:
    if not isinstance(obj, dict):
        raise ModelError("lock JSON must be an object")
    kind = obj.get("kind")
    if kind == "pubkey":
        return Lock.pay_to_pubkey(_ref_unhex(obj["pubkey"]))
    if kind == "multisig":
        return Lock.multisig(obj["m"], [_ref_unhex(pk) for pk in obj["pubkeys"]])
    if kind == "script":
        return Lock.pay_to_script(_ref_unhex(obj["script"]))
    raise ModelError(f"unknown lock kind {kind!r}")


def ref_lock_to_json(lock: Lock) -> dict:
    if lock.kind == LOCK_PUBKEY:
        return {"kind": "pubkey", "pubkey": lock.pubkey.hex()}
    if lock.kind == LOCK_MULTISIG:
        return {"kind": "multisig", "m": lock.m, "pubkeys": [pk.hex() for pk in lock.pubkeys]}
    return {"kind": "script", "script": lock.script.hex()}


class PlainJsonCodec(JsonCodec):
    """JsonCodec without its tables."""

    __slots__ = ()

    def output(self, obj: dict) -> Output:
        return Output(obj["amount"], ref_lock_from_json(obj["lock"]), obj.get("expiry"))

    def output_json(self, out: Output) -> dict:
        obj: dict = {"amount": out.amount, "lock": ref_lock_to_json(out.lock)}
        if out.expiry is not None:
            obj["expiry"] = out.expiry
        return obj


# ---------------------------------------------------------------------------
# Contract VM: the tagged-tuple interpreter that preceded the pre-decoded
# dispatch loop in tierledger.vm, kept unchanged apart from its names. Every
# word is a (tag, value) tuple, every step re-decodes its operand and charges
# gas through a method call. The differential tests require the package's
# vm.invoke to match tagged_invoke exactly: outcome (status, gas, return
# value, events, detail) and the committed StateDiff.

TAG_INT = 0
TAG_ADDR = 1


class TaggedMachine:
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


def tagged_invoke(
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

    machine = TaggedMachine(accounts, epoch, k.address_consts, k.gas_limit, checker)
    try:
        ret = machine.run_frame(k.contract, caller, k.arg, k.attached, depth=0)
    except _OutOfGas:
        outcome = ExecOutcome(STATUS_OUT_OF_GAS, gas_used=k.gas_limit)
        return _finish(accounts, caller, operator, k.gas_price, outcome, {}, {})
    except AccessViolationError as exc:
        gas_used = k.gas_limit - max(machine.gas, 0)
        outcome = ExecOutcome(STATUS_ACCESS_VIOLATION, gas_used=gas_used, detail=exc.detail)
        return _finish(accounts, caller, operator, k.gas_price, outcome, {}, {})
    except _Fault as exc:
        gas_used = k.gas_limit - machine.gas
        outcome = ExecOutcome(STATUS_REVERTED, gas_used=gas_used, detail=exc.detail)
        return _finish(accounts, caller, operator, k.gas_price, outcome, {}, {})
    gas_used = k.gas_limit - machine.gas
    outcome = ExecOutcome(
        STATUS_COMMITTED, gas_used=gas_used, ret=ret, events=tuple(machine.events)
    )
    return _finish(accounts, caller, operator, k.gas_price, outcome, machine.balances, machine.storage)


# ---------------------------------------------------------------------------
# Conflict waves: the pairwise builder that preceded the key index in
# tierledger.scheduler. Input is one (reads, writes, barrier) triple per
# transaction, as scheduler._footprint_sets derives them.


def pairwise_waves(sets: Sequence[tuple]) -> list[list[int]]:
    """Partition into waves: tx j lands one level past the deepest earlier
    transaction it conflicts with, so each wave is pairwise conflict-free."""
    n = len(sets)
    level = [0] * n
    for j in range(n):
        rj, wj, bj = sets[j]
        for i in range(j):
            ri, wi, bi = sets[i]
            if bi or bj:
                conflict = True
            else:
                conflict = bool(wi & (rj | wj)) or bool(wj & (ri | wi))
            if conflict:
                level[j] = max(level[j], level[i] + 1)
    waves: dict[int, list[int]] = {}
    for j in range(n):
        waves.setdefault(level[j], []).append(j)
    return [waves[lv] for lv in sorted(waves)]
