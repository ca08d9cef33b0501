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
LtHash, as the oracle for its incremental bookkeeping, and a receipt's
writes digest from the entries read off the state's mappings.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from tierledger import codes, rules
from tierledger.ledger import (
    HEADER_JSON,
    BatchError,
    BatchHeader,
    LedgerState,
    Receipt,
    ReplayReport,
    _decode_txs,
    _encode_batch,
    _encode_header,
    _log_file,
    apply_batch,
    log_extent,
    state_digest,
    utxo_entry,
)
from tierledger.lthash import LtHash
from tierledger.model import (
    LOCK_MULTISIG,
    LOCK_PUBKEY,
    LOCK_SCRIPT,
    U64_MAX,
    MAX_CONTRACT_CODE_BYTES,
    AccessDecl,
    Call,
    Deploy,
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
    json_field,
    json_value,
    read_json,
    require_u32,
    require_u64,
)
from tierledger.vm import (
    MAX_CALL_DEPTH,
    MAX_FRAME_STACK,
    MNEMONICS,
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


def state_entries(state: LedgerState) -> Counter:
    """The committed entries of state, read from its mappings: each UTXO,
    nonzero balance, nonzero storage slot and contract, as a multiset."""
    accounts = state.accounts
    entries = Counter(utxo_entry(op, out) for op, out in state.utxos.items())
    entries.update(balance_entry(addr, bal) for addr, bal in accounts.balances.items() if bal)
    entries.update(slot_entry(addr, key, val) for (addr, key), val in accounts.storage.items() if val)
    entries.update(contract_entry(acct) for acct in accounts.contracts.values())
    return entries


def recompute_state_digest(state: LedgerState) -> bytes:
    """state_digest rebuilt from scratch: both accumulators are summed anew
    from the mappings, one add per entry, and both totals recomputed. The
    oracle for the state-write API's incremental bookkeeping."""
    utxo_acc, account_acc = LtHash(), LtHash()
    for entry in state_entries(state).elements():
        (utxo_acc if entry.startswith(b"U") else account_acc).add(entry)
    counters = struct.pack(
        "<5Q", state.issued, state.expired, sum(out.amount for out in state.utxos.values()),
        sum(state.accounts.balances.values()), state.epoch,
    )
    tag = b"tierledger/state/lthash16/v1"
    return hashlib.sha256(tag + utxo_acc.digest() + account_acc.digest() + counters).digest()


def ref_writes_digest(added, removed) -> bytes:
    """The documented writes digest of a receipt whose transaction added
    and removed these entries: sha256 over the tag, then the removed
    entries, then the added ones, each list net of the other, sorted and
    led by its u32 count, each entry by its u32 length."""
    added, removed = Counter(added), Counter(removed)
    w = Writer().raw(b"tierledger/receipt/writes/v1")
    for entries in (removed - added, added - removed):
        w.u32(sum(entries.values()))
        for entry in sorted(entries.elements()):
            w.bytes_(entry)
    return hashlib.sha256(w.done()).digest()


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
# JSON codec: the per-output decoder and encoder from before the log's
# JSON tables. model.OUTPUT_JSON's decode must read what ref_output_from_json
# reads and refuse what it refuses, and its encode must write canonical_json
# of ref_output_json.


# The canonical JSON text the log's compiled encoders must write: sorted
# keys, no spaces, strings ASCII-escaped.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


def ref_output_from_json(obj: dict) -> Output:
    return Output(obj["amount"], ref_lock_from_json(obj["lock"]), obj.get("expiry"))


def ref_output_json(out: Output) -> dict:
    obj: dict = {"amount": out.amount, "lock": ref_lock_to_json(out.lock)}
    if out.expiry is not None:
        obj["expiry"] = out.expiry
    return obj


# ---------------------------------------------------------------------------
# Log objects, written out by hand from the key tables in model.py,
# ledger.py, rules.py and permission.py. canonical_json of each must be the
# text the package's compiled encoders write.

_LEVEL_LABELS = {1: "L1", 2: "L1.5", 3: "L2", 4: "L3"}


def _ref_access_json(a: AccessDecl) -> dict:
    return {
        "balances_read": sorted(x.hex() for x in a.balances_read),
        "balances_written": sorted(x.hex() for x in a.balances_written),
        "storage_read": [[x.hex(), key] for x, key in sorted(a.storage_read)],
        "storage_written": [[x.hex(), key] for x, key in sorted(a.storage_written)],
        "callees": sorted(x.hex() for x in a.callees),
    }


def ref_tx_json(tx: Transaction) -> dict:
    k = tx.kind
    inputs = [{"txid": op.txid.hex(), "index": op.index} for op in getattr(k, "inputs", ())]
    outputs = [ref_output_json(out) for out in getattr(k, "outputs", ())]
    if isinstance(k, UtxoSpend):
        obj: dict = {"kind": "utxo_spend", "inputs": inputs, "outputs": outputs}
    elif isinstance(k, Deploy):
        obj = {"kind": "deploy", "code": k.code.hex(), "endowment": k.endowment, "payer": k.payer.hex()}
    elif isinstance(k, Call):
        obj = {"kind": "call", "contract": k.contract.hex(), "arg": k.arg, "attached": k.attached,
               "caller": k.caller.hex()}
        if k.address_consts:
            obj["address_consts"] = [a.hex() for a in k.address_consts]
    elif isinstance(k, MoveToAccount):
        obj = {"kind": "move_to_account", "inputs": inputs, "to": k.to.hex(), "amount": k.amount}
    else:
        obj = {"kind": "move_to_utxo", "source": k.source.hex(), "amount": k.amount, "outputs": outputs}
    if isinstance(k, (Deploy, Call)):
        obj.update(gas_limit=k.gas_limit, gas_price=k.gas_price)
        if k.access is not None:
            obj["access"] = _ref_access_json(k.access)
    obj["nonce"] = tx.nonce
    if tx.not_before is not None:
        obj["not_before"] = tx.not_before
    if tx.not_after is not None:
        obj["not_after"] = tx.not_after
    if tx.witnesses:
        obj["witnesses"] = [[item.hex() for item in w] for w in tx.witnesses]
    if tx.auth is not None:
        obj["auth"] = {"pubkey": tx.auth.pubkey.hex(), "signature": tx.auth.signature.hex()}
    e = tx.endorsement
    if e is not None:
        obj["endorsement"] = {
            "granularity": e.granularity, "intermediary_pubkey": e.intermediary_pubkey.hex(),
            "signature": e.signature.hex(),
        }
        if e.granularity == "per_user":
            obj["endorsement"].update(user_pubkey=e.user_pubkey.hex(), expiry=e.expiry)
    return obj


def ref_receipt_json(r: Receipt) -> dict:
    return {
        "txid": r.tx_id.hex(), "status": r.status, "status_name": codes.name(r.status), "gas_used": r.gas_used,
        "level": _LEVEL_LABELS[r.level.value], "writes_digest": r.writes_digest.hex(),
    }


def ref_header_json(h: BatchHeader) -> dict:
    return {
        "batch_number": h.batch_number, "epoch": h.epoch, "prev_hash": h.prev_hash.hex(),
        "txs_hash": h.txs_hash.hex(), "receipts_hash": h.receipts_hash.hex(),
        "post_state_digest": h.post_state_digest.hex(), "config_hash": h.config_hash.hex(),
    }


def _ref_policy_json(p) -> dict:
    if p.kind == "open":
        return {"kind": "open"}
    if p.kind == "allow_list":
        return {"kind": "allow_list", "pubkeys": sorted(pk.hex() for pk in p.allowed_pubkeys)}
    return {"kind": "endorsed", "granularity": p.granularity}


def ref_genesis_json(cfg: rules.SystemConfig) -> dict:
    obj = {
        "max_level": _LEVEL_LABELS[cfg.max_level.value], "initial_subsidy": cfg.initial_subsidy,
        "halving_interval": cfg.halving_interval, "min_fee": cfg.min_fee, "min_gas_price": cfg.min_gas_price,
        "covenants": cfg.covenants, "access_mode": cfg.access_mode, "expiry_enabled": cfg.expiry_enabled,
        "operator_pubkey": cfg.operator_pubkey.hex(), "deploy_policy": _ref_policy_json(cfg.deploy_policy),
        "call_policy": _ref_policy_json(cfg.call_policy),
        "intermediary_registry": [{"name": e.name, "pubkey": e.pubkey.hex()} for e in cfg.intermediary_registry],
    }
    if cfg.allow_list is not None:
        obj["allow_list"] = sorted(a.hex() for a in cfg.allow_list)
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
        return _finish(accounts, caller, k.gas_price, outcome, {}, {})
    except AccessViolationError as exc:
        gas_used = k.gas_limit - max(machine.gas, 0)
        outcome = ExecOutcome(STATUS_ACCESS_VIOLATION, gas_used=gas_used, detail=exc.detail)
        return _finish(accounts, caller, k.gas_price, outcome, {}, {})
    except _Fault as exc:
        gas_used = k.gas_limit - machine.gas
        outcome = ExecOutcome(STATUS_REVERTED, gas_used=gas_used, detail=exc.detail)
        return _finish(accounts, caller, k.gas_price, outcome, {}, {})
    gas_used = k.gas_limit - machine.gas
    outcome = ExecOutcome(
        STATUS_COMMITTED, gas_used=gas_used, ret=ret, events=tuple(machine.events)
    )
    return _finish(accounts, caller, k.gas_price, outcome, machine.balances, machine.storage)


# ---------------------------------------------------------------------------
# Contract code: the validator and the decoder that preceded the one
# bytecode walk in tierledger.vm, each with its own loop. ref_decode is only
# defined on code ref_validate_code accepts.


def ref_validate_code(code: bytes) -> bool:
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


def ref_decode(code: bytes) -> tuple[Optional[tuple], ...]:
    """For each instruction start, (opcode, immediate, next pc, gas); None
    at offsets inside an operand."""
    prog: list[Optional[tuple]] = [None] * len(code)
    pc = 0
    while pc < len(code):
        op = code[pc]
        nxt = pc + 1 + _OPERAND_WIDTH.get(op, 0)
        prog[pc] = (op, int.from_bytes(code[pc + 1 : nxt], "little"), nxt, _GAS_TABLE.get(op, 1))
        pc = nxt
    return tuple(prog)


# ---------------------------------------------------------------------------
# Conflict waves: the pairwise builder that preceded the key index in
# tierledger.scheduler. Input is one (reads, writes, barrier) triple per
# transaction (pairwise_sets).


def pairwise_sets(item, contracts) -> tuple:
    """(reads, writes, barrier) of a declared-mode scheduler item wrapped
    against contracts: a deploy, and a call that can reach a contract
    missing from them, conflict with everything; a call without a
    footprint, rejected unrun, with nothing. Operator accounts are keys
    like any other."""
    if isinstance(item.tx.kind, Deploy):
        return None, None, True
    fp = item.footprint
    if fp is None:
        return frozenset(), frozenset(), False
    reads, writes = fp.balances_read | fp.storage_read, fp.balances_written | fp.storage_written
    return reads, writes, not all(c in contracts for c in fp.callees)


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


# ---------------------------------------------------------------------------
# Replay verifier: ledger.replay_verify as it was before a batch could verify
# on its bytes alone, unchanged apart from its name. It parses and decodes
# every header file and compares values before bytes. The differential tests
# require the package's replay_verify to give the same report on every log.


def ref_replay_verify(logdir: Union[str, Path]) -> ReplayReport:
    """Re-execute the whole log from genesis and compare every header field
    and every receipt; report the first mismatch, or the final state digest,
    batch count and epoch of a log that verifies."""
    path = Path(logdir)
    try:
        raw_genesis = (path / "genesis.json").read_bytes()
        cfg = rules.SystemConfig.from_json(read_json(raw_genesis))
    except (OSError, ModelError):
        return ReplayReport(False, "unreadable", batch=-1, field="genesis")
    if cfg.to_json_str().encode() != raw_genesis:
        return ReplayReport(
            False, "divergence", batch=-1, field="genesis_encoding",
            expected="canonical json", found="non-canonical bytes",
        )
    state = LedgerState()
    n, missing = log_extent(path)
    for i in range(n):
        try:
            raw_batch = (path / _log_file("batch", i)).read_bytes()
            raw_header = (path / _log_file("header", i)).read_bytes()
            batch_obj = json_value(read_json(raw_batch), dict, "batch file")
            stored_obj = json_value(read_json(raw_header), dict, "header file")
            # Integers, not bools (JSON true equals 1 and re-encodes as
            # true); the epoch is committed as a u64 in every state digest.
            batch_number = require_u64(json_field(batch_obj, "batch", int), "batch")
            epoch = require_u64(json_field(batch_obj, "epoch", int), "epoch")
            txs = _decode_txs(json_field(batch_obj, "txs", list))
            stored_header = BatchHeader.from_json(json_field(stored_obj, "header", dict))
            stored_receipts = [Receipt.from_json(r) for r in json_field(stored_obj, "receipts", list, of=dict)]
        except (OSError, ModelError):
            return ReplayReport(False, "unreadable", batch=i)
        # The log is written in one canonical encoding. Re-serializing the
        # decoded transactions must reproduce the file byte for byte;
        # anything else is tampering, even when it parses to equal values
        # (hex case flips, stray keys, number formatting).
        if _encode_batch(batch_number, epoch, txs).encode() != raw_batch:
            return ReplayReport(
                False, "divergence", batch=i, field="encoding",
                expected="canonical json", found="non-canonical bytes",
            )
        if batch_number != i:
            return ReplayReport(
                False, "divergence", batch=i, field="batch",
                expected=str(i), found=str(batch_number),
            )
        try:
            receipts, header = apply_batch(state, txs, epoch, cfg, workers=1)
        except BatchError as exc:
            return ReplayReport(
                False, "divergence", batch=i, field="epoch", expected="monotone", found=str(exc)
            )
        for row in HEADER_JSON.rows:
            want = getattr(header, row.key)
            got = getattr(stored_header, row.key)
            if want != got:
                as_str = lambda v: v.hex() if isinstance(v, bytes) else str(v)
                return ReplayReport(
                    False, "divergence", batch=i, field=row.key,
                    expected=as_str(want), found=as_str(got),
                )
        if len(receipts) != len(stored_receipts):
            return ReplayReport(
                False, "divergence", batch=i, field="receipts",
                expected=str(len(receipts)), found=str(len(stored_receipts)),
            )
        for j, (want_r, got_r) in enumerate(zip(receipts, stored_receipts)):
            if want_r != got_r:
                return ReplayReport(
                    False, "divergence", batch=i, field=f"receipt[{j}]",
                    expected=json.dumps(want_r.to_json(), sort_keys=True),
                    found=json.dumps(got_r.to_json(), sort_keys=True),
                )
        # Byte-identity of the header file against a reconstruction from the
        # recomputed header and receipts, catching edits to derived display
        # fields that decode to equal values.
        if _encode_header(header, receipts).encode() != raw_header:
            return ReplayReport(
                False, "divergence", batch=i, field="encoding",
                expected="canonical json", found="non-canonical bytes",
            )
    if missing:
        return ReplayReport(False, "unreadable", batch=n, field=missing)
    return ReplayReport(
        True, "ok", digest=state_digest(state).hex(), batches=state.batch_number, epoch=state.epoch
    )
