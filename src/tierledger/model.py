"""Core domain types, canonical serialization, transaction identity, and
programmability-level classification.

Canonical byte format: fields in declared order, integers little-endian
fixed-width, byte arrays length-prefixed (u32), lists count-prefixed (u32).
Witnesses and endorsements are excluded so that signatures can cover a
stable transaction id.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1

MAX_SCRIPT_BYTES = 1024
MAX_CONTRACT_CODE_BYTES = 4096
MAX_MULTISIG_KEYS = 16


class ModelError(ValueError):
    """Structural invariant violation in a domain value."""


def checked_add(a: int, b: int) -> int:
    """u64 addition; overflow is an error, never wraparound."""
    c = a + b
    if c > U64_MAX:
        raise ModelError(f"amount overflow: {a} + {b}")
    return c


def checked_sub(a: int, b: int) -> int:
    """u64 subtraction; underflow is an error."""
    if b > a:
        raise ModelError(f"amount underflow: {a} - {b}")
    return a - b


def require_u64(v: int, what: str = "value") -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v <= U64_MAX):
        raise ModelError(f"{what} out of u64 range: {v!r}")
    return v


def require_u32(v: int, what: str = "value") -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v <= U32_MAX):
        raise ModelError(f"{what} out of u32 range: {v!r}")
    return v


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def address_of_pubkey(pk: bytes) -> bytes:
    """32-byte address of a public key."""
    return sha256(pk)


class Level(Enum):
    """Programmability level of a transaction, lowest to highest."""

    L1 = 1
    L1_5 = 2
    L2 = 3
    L3 = 4

    def __lt__(self, other: "Level") -> bool:
        return self.value < other.value

    def __le__(self, other: "Level") -> bool:
        return self.value <= other.value

    @property
    def label(self) -> str:
        return {"L1": "L1", "L1_5": "L1.5", "L2": "L2", "L3": "L3"}[self.name]

    @classmethod
    def from_label(cls, label: str) -> "Level":
        for lvl in cls:
            if lvl.label == label or lvl.name == label:
                return lvl
        raise ModelError(f"unknown level: {label!r}")


# ---------------------------------------------------------------------------
# Canonical byte encoding


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


# ---------------------------------------------------------------------------
# Locks and outputs


LOCK_PUBKEY = 0
LOCK_MULTISIG = 1
LOCK_SCRIPT = 2


@dataclass(frozen=True)
class Lock:
    """Spending condition attached to an output."""

    kind: int
    pubkey: bytes = b""
    m: int = 0
    pubkeys: tuple[bytes, ...] = ()
    script: bytes = b""

    @staticmethod
    def pay_to_pubkey(pk: bytes) -> "Lock":
        if len(pk) != 32:
            raise ModelError("pubkey must be 32 bytes")
        return Lock(LOCK_PUBKEY, pubkey=pk)

    @staticmethod
    def multisig(m: int, pubkeys: Iterable[bytes]) -> "Lock":
        pks = tuple(pubkeys)
        if not 1 <= m <= len(pks) <= MAX_MULTISIG_KEYS:
            raise ModelError(f"multisig requires 1 <= m <= n <= {MAX_MULTISIG_KEYS}")
        if any(len(pk) != 32 for pk in pks):
            raise ModelError("multisig pubkeys must be 32 bytes")
        return Lock(LOCK_MULTISIG, m=m, pubkeys=pks)

    @staticmethod
    def pay_to_script(bytecode: bytes) -> "Lock":
        if len(bytecode) > MAX_SCRIPT_BYTES:
            raise ModelError(f"script exceeds {MAX_SCRIPT_BYTES} bytes")
        return Lock(LOCK_SCRIPT, script=bytes(bytecode))

    def write(self, w: Writer) -> None:
        w.u8(self.kind)
        if self.kind == LOCK_PUBKEY:
            w.bytes_(self.pubkey)
        elif self.kind == LOCK_MULTISIG:
            w.u8(self.m).u32(len(self.pubkeys))
            for pk in self.pubkeys:
                w.bytes_(pk)
        elif self.kind == LOCK_SCRIPT:
            w.bytes_(self.script)
        else:
            raise ModelError(f"unknown lock kind {self.kind}")

    @staticmethod
    def read(r: Reader) -> "Lock":
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

    def serialize(self) -> bytes:
        w = Writer()
        self.write(w)
        return w.done()

    def address(self) -> bytes:
        """Address a lock pays to: sha256(pk) for single-key locks, else
        sha256 of the canonical lock bytes."""
        if self.kind == LOCK_PUBKEY:
            return address_of_pubkey(self.pubkey)
        return sha256(self.serialize())


@dataclass(frozen=True)
class Output:
    amount: int
    lock: Lock
    expiry: Optional[int] = None

    def __post_init__(self) -> None:
        require_u64(self.amount, "output amount")
        if self.amount == 0:
            raise ModelError("output amount must be positive")
        if self.expiry is not None:
            require_u64(self.expiry, "output expiry")

    def write(self, w: Writer) -> None:
        w.u64(self.amount)
        self.lock.write(w)
        w.opt_u64(self.expiry)

    @staticmethod
    def read(r: Reader) -> "Output":
        amount = r.u64()
        lock = Lock.read(r)
        return Output(amount, lock, r.opt_u64())

    def serialize(self) -> bytes:
        cached = self.__dict__.get("_ser")
        if cached is None:
            w = Writer()
            self.write(w)
            cached = w.done()
            object.__setattr__(self, "_ser", cached)
        return cached


@dataclass(frozen=True, order=True)
class Outpoint:
    txid: bytes
    index: int

    def __post_init__(self) -> None:
        if len(self.txid) != 32:
            raise ModelError("outpoint txid must be 32 bytes")
        require_u32(self.index, "outpoint index")

    def write(self, w: Writer) -> None:
        w.bytes_(self.txid)
        w.u32(self.index)

    @staticmethod
    def read(r: Reader) -> "Outpoint":
        return Outpoint(r.bytes_(), r.u32())

    def serialize(self) -> bytes:
        # Immutable, so cache: an outpoint is serialized into the state
        # accumulator when its output is created and again when spent.
        cached = self.__dict__.get("_ser")
        if cached is None:
            w = Writer()
            self.write(w)
            cached = w.done()
            object.__setattr__(self, "_ser", cached)
        return cached


# ---------------------------------------------------------------------------
# Access declarations (Level 3 pre-specified footprints)


@dataclass(frozen=True)
class AccessDecl:
    """Pre-declared read/write footprint of a contract transaction."""

    balances_read: frozenset[bytes] = frozenset()
    balances_written: frozenset[bytes] = frozenset()
    storage_read: frozenset[tuple[bytes, int]] = frozenset()
    storage_written: frozenset[tuple[bytes, int]] = frozenset()
    callees: frozenset[bytes] = frozenset()

    def write(self, w: Writer) -> None:
        for addrs in (self.balances_read, self.balances_written):
            w.u32(len(addrs))
            for a in sorted(addrs):
                w.bytes_(a)
        for slots in (self.storage_read, self.storage_written):
            w.u32(len(slots))
            for a, k in sorted(slots):
                w.bytes_(a)
                w.u64(k)
        w.u32(len(self.callees))
        for a in sorted(self.callees):
            w.bytes_(a)

    @staticmethod
    def read(r: Reader) -> "AccessDecl":
        br = frozenset(r.bytes_() for _ in range(r.u32()))
        bw = frozenset(r.bytes_() for _ in range(r.u32()))
        sr = frozenset((r.bytes_(), r.u64()) for _ in range(r.u32()))
        sw = frozenset((r.bytes_(), r.u64()) for _ in range(r.u32()))
        cs = frozenset(r.bytes_() for _ in range(r.u32()))
        return AccessDecl(br, bw, sr, sw, cs)

    def substitute_self(self, addr: bytes) -> "AccessDecl":
        """Replace the all-zero placeholder address with a concrete one.

        Contract footprints are declared before the contract's address (its
        deploy txid) exists, so they use the zero address to mean "self".
        """
        zero = b"\x00" * 32

        def sub(a: bytes) -> bytes:
            return addr if a == zero else a

        return AccessDecl(
            frozenset(sub(a) for a in self.balances_read),
            frozenset(sub(a) for a in self.balances_written),
            frozenset((sub(a), k) for a, k in self.storage_read),
            frozenset((sub(a), k) for a, k in self.storage_written),
            frozenset(sub(a) for a in self.callees),
        )


# ---------------------------------------------------------------------------
# Transaction kinds

Witness = tuple[bytes, ...]


@dataclass(frozen=True)
class UtxoSpend:
    inputs: tuple[Outpoint, ...]
    outputs: tuple[Output, ...]

    def __post_init__(self) -> None:
        if not self.inputs or not self.outputs:
            raise ModelError("UtxoSpend needs at least one input and one output")


@dataclass(frozen=True)
class Deploy:
    code: bytes
    endowment: int
    payer: bytes
    gas_limit: int
    gas_price: int
    access: Optional[AccessDecl] = None

    def __post_init__(self) -> None:
        if len(self.code) > MAX_CONTRACT_CODE_BYTES:
            raise ModelError(f"contract code exceeds {MAX_CONTRACT_CODE_BYTES} bytes")
        if len(self.payer) != 32:
            raise ModelError("payer must be a 32-byte address")
        require_u64(self.endowment, "endowment")
        require_u64(self.gas_limit, "gas_limit")
        require_u64(self.gas_price, "gas_price")


@dataclass(frozen=True)
class Call:
    contract: bytes
    arg: int
    attached: int
    caller: bytes
    gas_limit: int
    gas_price: int
    access: Optional[AccessDecl] = None
    address_consts: tuple[bytes, ...] = ()

    def __post_init__(self) -> None:
        if len(self.contract) != 32 or len(self.caller) != 32:
            raise ModelError("contract and caller must be 32-byte addresses")
        require_u64(self.arg, "arg")
        require_u64(self.attached, "attached")
        require_u64(self.gas_limit, "gas_limit")
        require_u64(self.gas_price, "gas_price")
        if len(self.address_consts) > 255:
            raise ModelError("at most 255 address constants")
        if any(len(a) != 32 for a in self.address_consts):
            raise ModelError("address constants must be 32 bytes")


@dataclass(frozen=True)
class MoveToAccount:
    """Representation move: UTXO value into an account balance."""

    inputs: tuple[Outpoint, ...]
    to: bytes
    amount: int

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ModelError("MoveToAccount needs at least one input")
        if len(self.to) != 32:
            raise ModelError("destination must be a 32-byte address")
        require_u64(self.amount, "amount")


@dataclass(frozen=True)
class MoveToUtxo:
    """Representation move: account balance back into UTXO outputs."""

    source: bytes
    amount: int
    outputs: tuple[Output, ...]

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ModelError("MoveToUtxo needs at least one output")
        if len(self.source) != 32:
            raise ModelError("source must be a 32-byte address")
        require_u64(self.amount, "amount")


TxKind = Union[UtxoSpend, Deploy, Call, MoveToAccount, MoveToUtxo]

_KIND_TAGS: dict[type, int] = {
    UtxoSpend: 0,
    Deploy: 1,
    Call: 2,
    MoveToAccount: 3,
    MoveToUtxo: 4,
}
_KIND_NAMES: dict[type, str] = {
    UtxoSpend: "utxo_spend",
    Deploy: "deploy",
    Call: "call",
    MoveToAccount: "move_to_account",
    MoveToUtxo: "move_to_utxo",
}


@dataclass(frozen=True)
class EndorsementData:
    """Intermediary endorsement carried by a transaction.

    per_transaction: signature over the txid.
    per_user: bearer credential, signature over (user pubkey || expiry LE8).
    """

    granularity: str  # "per_transaction" | "per_user"
    intermediary_pubkey: bytes
    signature: bytes
    user_pubkey: bytes = b""
    expiry: int = 0

    def __post_init__(self) -> None:
        if self.granularity not in ("per_transaction", "per_user"):
            raise ModelError(f"unknown endorsement granularity {self.granularity!r}")


@dataclass(frozen=True)
class AccountAuth:
    """Pubkey and signature authenticating an account-based transaction."""

    pubkey: bytes
    signature: bytes


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    nonce: int = 0
    not_before: Optional[int] = None
    not_after: Optional[int] = None
    # Everything below is excluded from the canonical bytes and the txid.
    witnesses: tuple[Witness, ...] = ()
    auth: Optional[AccountAuth] = None
    endorsement: Optional[EndorsementData] = None

    def __post_init__(self) -> None:
        require_u64(self.nonce, "nonce")
        if self.not_before is not None:
            require_u64(self.not_before, "not_before")
        if self.not_after is not None:
            require_u64(self.not_after, "not_after")
        if (
            self.not_before is not None
            and self.not_after is not None
            and self.not_before > self.not_after
        ):
            raise ModelError("not_before must be <= not_after")

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[type(self.kind)]

    def with_witnesses(self, witnesses: Iterable[Witness]) -> "Transaction":
        return replace(self, witnesses=tuple(tuple(w) for w in witnesses))

    def with_auth(self, pubkey: bytes, signature: bytes) -> "Transaction":
        return replace(self, auth=AccountAuth(pubkey, signature))


def _write_opt_access(w: Writer, access: Optional[AccessDecl]) -> None:
    if access is None:
        w.u8(0)
    else:
        w.u8(1)
        access.write(w)


def _read_opt_access(r: Reader) -> Optional[AccessDecl]:
    return AccessDecl.read(r) if r.u8() else None


def canonical_serialize(tx: Transaction) -> bytes:
    """Deterministic witness-free byte encoding of a transaction."""
    w = Writer()
    k = tx.kind
    w.u8(_KIND_TAGS[type(k)])
    # Outpoints and outputs go through their cached serializations, which
    # the state accumulator reuses when they are spent and created.
    if isinstance(k, UtxoSpend):
        w.u32(len(k.inputs))
        for op in k.inputs:
            w.raw(op.serialize())
        w.u32(len(k.outputs))
        for out in k.outputs:
            w.raw(out.serialize())
    elif isinstance(k, Deploy):
        w.bytes_(k.code).u64(k.endowment).bytes_(k.payer)
        w.u64(k.gas_limit).u64(k.gas_price)
        _write_opt_access(w, k.access)
    elif isinstance(k, Call):
        w.bytes_(k.contract).u64(k.arg).u64(k.attached).bytes_(k.caller)
        w.u64(k.gas_limit).u64(k.gas_price)
        _write_opt_access(w, k.access)
        w.u32(len(k.address_consts))
        for a in k.address_consts:
            w.bytes_(a)
    elif isinstance(k, MoveToAccount):
        w.u32(len(k.inputs))
        for op in k.inputs:
            w.raw(op.serialize())
        w.bytes_(k.to).u64(k.amount)
    elif isinstance(k, MoveToUtxo):
        w.bytes_(k.source).u64(k.amount)
        w.u32(len(k.outputs))
        for out in k.outputs:
            w.raw(out.serialize())
    else:  # pragma: no cover - _KIND_TAGS lookup already failed
        raise ModelError(f"unknown transaction kind {type(k)!r}")
    w.opt_u64(tx.not_before)
    w.opt_u64(tx.not_after)
    w.u64(tx.nonce)
    return w.done()


def canonical_deserialize(data: bytes) -> Transaction:
    """Inverse of canonical_serialize (witness-free)."""
    r = Reader(data)
    tag = r.u8()
    kind: TxKind
    if tag == 0:
        inputs = tuple(Outpoint.read(r) for _ in range(r.u32()))
        outputs = tuple(Output.read(r) for _ in range(r.u32()))
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
        inputs = tuple(Outpoint.read(r) for _ in range(r.u32()))
        kind = MoveToAccount(inputs, r.bytes_(), r.u64())
    elif tag == 4:
        source = r.bytes_()
        amount = r.u64()
        outputs = tuple(Output.read(r) for _ in range(r.u32()))
        kind = MoveToUtxo(source, amount, outputs)
    else:
        raise ModelError(f"unknown transaction kind tag {tag}")
    not_before = r.opt_u64()
    not_after = r.opt_u64()
    nonce = r.u64()
    r.finish()
    return Transaction(kind, nonce=nonce, not_before=not_before, not_after=not_after)


def txid(tx: Transaction) -> bytes:
    """Transaction id: sha256 of the canonical (witness-free) bytes."""
    return sha256(canonical_serialize(tx))


def full_serialize(tx: Transaction) -> bytes:
    """Canonical bytes followed by witnesses, auth, and endorsement.

    Used only for tamper-evidence hashing of persisted logs; not an input
    to the txid.
    """
    w = Writer()
    body = canonical_serialize(tx)
    w.bytes_(body)
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


# ---------------------------------------------------------------------------
# Level classification


def classify_level(tx: Transaction, utxos: Optional[Mapping[Outpoint, Output]] = None) -> Level:
    """Programmability level of a transaction.

    Spent locks can only be inspected when a UTXO view is supplied; without
    one, classification considers created locks and the validity window.
    """
    if isinstance(tx.kind, (Deploy, Call, MoveToAccount, MoveToUtxo)):
        return Level.L3
    assert isinstance(tx.kind, UtxoSpend)
    created_script = any(out.lock.kind == LOCK_SCRIPT for out in tx.kind.outputs)
    spent_script = False
    if utxos is not None:
        for op in tx.kind.inputs:
            out = utxos.get(op)
            if out is not None and out.lock.kind == LOCK_SCRIPT:
                spent_script = True
                break
    if created_script or spent_script:
        return Level.L2
    if tx.not_before is not None or tx.not_after is not None:
        return Level.L1_5
    return Level.L1


# ---------------------------------------------------------------------------
# JSON encoding (human-facing files; byte arrays hex-encoded lowercase)


def _hex(b: bytes) -> str:
    return b.hex()


def _unhex(s: str, what: str = "field") -> bytes:
    try:
        return bytes.fromhex(s)
    except (ValueError, TypeError) as exc:
        raise ModelError(f"bad hex in {what}: {s!r}") from exc


def lock_to_json(lock: Lock) -> dict:
    if lock.kind == LOCK_PUBKEY:
        return {"kind": "pubkey", "pubkey": _hex(lock.pubkey)}
    if lock.kind == LOCK_MULTISIG:
        return {"kind": "multisig", "m": lock.m, "pubkeys": [_hex(pk) for pk in lock.pubkeys]}
    return {"kind": "script", "script": _hex(lock.script)}


def lock_from_json(obj: dict) -> Lock:
    kind = obj.get("kind")
    if kind == "pubkey":
        return Lock.pay_to_pubkey(_unhex(obj["pubkey"], "pubkey"))
    if kind == "multisig":
        return Lock.multisig(obj["m"], [_unhex(pk, "pubkey") for pk in obj["pubkeys"]])
    if kind == "script":
        return Lock.pay_to_script(_unhex(obj["script"], "script"))
    raise ModelError(f"unknown lock kind {kind!r}")


def output_to_json(out: Output) -> dict:
    obj: dict = {"amount": out.amount, "lock": lock_to_json(out.lock)}
    if out.expiry is not None:
        obj["expiry"] = out.expiry
    return obj


def output_from_json(obj: dict) -> Output:
    return Output(obj["amount"], lock_from_json(obj["lock"]), obj.get("expiry"))


def outpoint_to_json(op: Outpoint) -> dict:
    return {"txid": _hex(op.txid), "index": op.index}


def outpoint_from_json(obj: dict) -> Outpoint:
    return Outpoint(_unhex(obj["txid"], "txid"), obj["index"])


def access_to_json(a: AccessDecl) -> dict:
    return {
        "balances_read": sorted(_hex(x) for x in a.balances_read),
        "balances_written": sorted(_hex(x) for x in a.balances_written),
        "storage_read": [[_hex(ad), k] for ad, k in sorted(a.storage_read)],
        "storage_written": [[_hex(ad), k] for ad, k in sorted(a.storage_written)],
        "callees": sorted(_hex(x) for x in a.callees),
    }


def access_from_json(obj: dict) -> AccessDecl:
    return AccessDecl(
        frozenset(_unhex(x, "address") for x in obj.get("balances_read", [])),
        frozenset(_unhex(x, "address") for x in obj.get("balances_written", [])),
        frozenset((_unhex(a, "address"), k) for a, k in obj.get("storage_read", [])),
        frozenset((_unhex(a, "address"), k) for a, k in obj.get("storage_written", [])),
        frozenset(_unhex(x, "address") for x in obj.get("callees", [])),
    )


def tx_to_json(tx: Transaction) -> dict:
    k = tx.kind
    obj: dict = {"kind": tx.kind_name, "nonce": tx.nonce}
    if isinstance(k, UtxoSpend):
        obj["inputs"] = [outpoint_to_json(op) for op in k.inputs]
        obj["outputs"] = [output_to_json(o) for o in k.outputs]
    elif isinstance(k, Deploy):
        obj.update(
            code=_hex(k.code),
            endowment=k.endowment,
            payer=_hex(k.payer),
            gas_limit=k.gas_limit,
            gas_price=k.gas_price,
        )
        if k.access is not None:
            obj["access"] = access_to_json(k.access)
    elif isinstance(k, Call):
        obj.update(
            contract=_hex(k.contract),
            arg=k.arg,
            attached=k.attached,
            caller=_hex(k.caller),
            gas_limit=k.gas_limit,
            gas_price=k.gas_price,
        )
        if k.access is not None:
            obj["access"] = access_to_json(k.access)
        if k.address_consts:
            obj["address_consts"] = [_hex(a) for a in k.address_consts]
    elif isinstance(k, MoveToAccount):
        obj["inputs"] = [outpoint_to_json(op) for op in k.inputs]
        obj["to"] = _hex(k.to)
        obj["amount"] = k.amount
    elif isinstance(k, MoveToUtxo):
        obj["source"] = _hex(k.source)
        obj["amount"] = k.amount
        obj["outputs"] = [output_to_json(o) for o in k.outputs]
    if tx.not_before is not None:
        obj["not_before"] = tx.not_before
    if tx.not_after is not None:
        obj["not_after"] = tx.not_after
    if tx.witnesses:
        obj["witnesses"] = [[_hex(item) for item in wit] for wit in tx.witnesses]
    if tx.auth is not None:
        obj["auth"] = {"pubkey": _hex(tx.auth.pubkey), "signature": _hex(tx.auth.signature)}
    if tx.endorsement is not None:
        e = tx.endorsement
        eobj = {
            "granularity": e.granularity,
            "intermediary_pubkey": _hex(e.intermediary_pubkey),
            "signature": _hex(e.signature),
        }
        if e.granularity == "per_user":
            eobj["user_pubkey"] = _hex(e.user_pubkey)
            eobj["expiry"] = e.expiry
        obj["endorsement"] = eobj
    return obj


def tx_from_json(obj: dict) -> Transaction:
    if not isinstance(obj, dict):
        raise ModelError("transaction JSON must be an object")
    name = obj.get("kind")
    kind: TxKind
    if name == "utxo_spend":
        kind = UtxoSpend(
            tuple(outpoint_from_json(o) for o in obj["inputs"]),
            tuple(output_from_json(o) for o in obj["outputs"]),
        )
    elif name == "deploy":
        kind = Deploy(
            _unhex(obj["code"], "code"),
            obj["endowment"],
            _unhex(obj["payer"], "payer"),
            obj["gas_limit"],
            obj["gas_price"],
            access_from_json(obj["access"]) if "access" in obj else None,
        )
    elif name == "call":
        kind = Call(
            _unhex(obj["contract"], "contract"),
            obj["arg"],
            obj["attached"],
            _unhex(obj["caller"], "caller"),
            obj["gas_limit"],
            obj["gas_price"],
            access_from_json(obj["access"]) if "access" in obj else None,
            tuple(_unhex(a, "address") for a in obj.get("address_consts", [])),
        )
    elif name == "move_to_account":
        kind = MoveToAccount(
            tuple(outpoint_from_json(o) for o in obj["inputs"]),
            _unhex(obj["to"], "to"),
            obj["amount"],
        )
    elif name == "move_to_utxo":
        kind = MoveToUtxo(
            _unhex(obj["source"], "source"),
            obj["amount"],
            tuple(output_from_json(o) for o in obj["outputs"]),
        )
    else:
        raise ModelError(f"unknown transaction kind {name!r}")
    witnesses = tuple(
        tuple(_unhex(item, "witness") for item in wit) for wit in obj.get("witnesses", [])
    )
    auth = None
    if "auth" in obj:
        auth = AccountAuth(
            _unhex(obj["auth"]["pubkey"], "pubkey"),
            _unhex(obj["auth"]["signature"], "signature"),
        )
    endorsement = None
    if "endorsement" in obj:
        e = obj["endorsement"]
        endorsement = EndorsementData(
            e["granularity"],
            _unhex(e["intermediary_pubkey"], "pubkey"),
            _unhex(e["signature"], "signature"),
            _unhex(e.get("user_pubkey", ""), "pubkey"),
            e.get("expiry", 0),
        )
    return Transaction(
        kind,
        nonce=obj.get("nonce", 0),
        not_before=obj.get("not_before"),
        not_after=obj.get("not_after"),
        witnesses=witnesses,
        auth=auth,
        endorsement=endorsement,
    )


def tx_to_json_str(tx: Transaction) -> str:
    return json.dumps(tx_to_json(tx), sort_keys=True, separators=(",", ":"))


def tx_from_json_str(s: str) -> Transaction:
    return tx_from_json(json.loads(s))
