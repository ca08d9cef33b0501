"""Core domain types, canonical serialization, transaction identity, and
programmability-level classification.

Canonical byte format: fields in declared order, integers little-endian
fixed-width, byte arrays length-prefixed (u32), lists count-prefixed (u32).
Witnesses and endorsements are excluded so that signatures can cover a
stable transaction id.

The encoder packs precompiled struct layouts. Outpoint, Output and Lock are
slotted frozen values that encode themselves once, at construction, and
keep the bytes in a slot outside equality, hashing and ordering. A
Transaction encodes its canonical body, and hashes its txid, on first use
and keeps both; a copy made with with_witnesses, with_auth or
dataclasses.replace is a new instance and encodes afresh. Nothing in the
program decodes these bytes (the log is JSON): the decoder lives in the
tests as the oracle that checks the encoding is injective.
"""

from __future__ import annotations

import hashlib
import json
import struct
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


# The one canonical JSON text: sorted keys, no spaces. Callers encode trees
# built fresh from model values, never cyclic, so the circular-reference
# check (about a sixth of each encode) is skipped.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


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
# Canonical byte encoding: precompiled little-endian layouts. Every field is
# range-checked when its value is constructed, so packing cannot fail.

_U32 = struct.Struct("<I").pack
_U64 = struct.Struct("<Q").pack
_U64X2 = struct.Struct("<QQ").pack
_TAG_COUNT = struct.Struct("<BI").pack  # a u8 tag, then a u32 count or length
_SOME_U64 = struct.Struct("<BQ").pack
_MULTISIG_HEAD = struct.Struct("<BBI").pack  # kind, m, key count
_OUTPOINT = struct.Struct("<I32sI").pack  # length-prefixed 32-byte txid, index
_NONE = b"\x00"


def _blob(b: bytes) -> bytes:
    return _U32(len(b)) + b


def _opt_u64(v: Optional[int]) -> bytes:
    return _NONE if v is None else _SOME_U64(1, v)


# ---------------------------------------------------------------------------
# Locks and outputs


LOCK_PUBKEY = 0
LOCK_MULTISIG = 1
LOCK_SCRIPT = 2


@dataclass(frozen=True, slots=True)
class Lock:
    """Spending condition attached to an output."""

    kind: int
    pubkey: bytes = b""
    m: int = 0
    pubkeys: tuple[bytes, ...] = ()
    script: bytes = b""
    _ser: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == LOCK_PUBKEY:
            ser = _TAG_COUNT(LOCK_PUBKEY, len(self.pubkey)) + self.pubkey
        elif self.kind == LOCK_MULTISIG:
            head = _MULTISIG_HEAD(LOCK_MULTISIG, self.m, len(self.pubkeys))
            ser = b"".join([head, *map(_blob, self.pubkeys)])
        elif self.kind == LOCK_SCRIPT:
            ser = _TAG_COUNT(LOCK_SCRIPT, len(self.script)) + self.script
        else:
            raise ModelError(f"unknown lock kind {self.kind}")
        object.__setattr__(self, "_ser", ser)

    @staticmethod
    def pay_to_pubkey(pk: bytes) -> "Lock":
        if len(pk) != 32:
            raise ModelError("pubkey must be 32 bytes")
        return Lock(LOCK_PUBKEY, pubkey=pk)

    @staticmethod
    def multisig(m: int, pubkeys: Iterable[bytes]) -> "Lock":
        pks = tuple(pubkeys)
        require_u32(m, "multisig m")  # also refuses a bool, which JSON would keep as true
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

    def serialize(self) -> bytes:
        return self._ser

    def address(self) -> bytes:
        """Address a lock pays to: sha256(pk) for single-key locks, else
        sha256 of the canonical lock bytes."""
        if self.kind == LOCK_PUBKEY:
            return address_of_pubkey(self.pubkey)
        return sha256(self._ser)


@dataclass(frozen=True, slots=True)
class Output:
    amount: int
    lock: Lock
    expiry: Optional[int] = None
    _ser: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_u64(self.amount, "output amount")
        if self.amount == 0:
            raise ModelError("output amount must be positive")
        if self.expiry is not None:
            require_u64(self.expiry, "output expiry")
        object.__setattr__(self, "_ser", _U64(self.amount) + self.lock._ser + _opt_u64(self.expiry))

    def serialize(self) -> bytes:
        return self._ser


@dataclass(frozen=True, order=True, slots=True)
class Outpoint:
    txid: bytes
    index: int
    _ser: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.txid) != 32:
            raise ModelError("outpoint txid must be 32 bytes")
        require_u32(self.index, "outpoint index")
        # An outpoint is encoded into the state accumulator when its output
        # is created and again when it is spent.
        object.__setattr__(self, "_ser", _OUTPOINT(32, self.txid, self.index))

    def serialize(self) -> bytes:
        return self._ser


_SET_OUTPOINT = (Outpoint.txid.__set__, Outpoint.index.__set__, Outpoint._ser.__set__)


def outpoint_range(txid: bytes, start: int, stop: int) -> list[Outpoint]:
    """[Outpoint(txid, i) for i in range(start, stop)], with the txid and the
    index range checked once rather than per outpoint: a fan-out creates
    thousands of outputs under one txid."""
    if len(txid) != 32:
        raise ModelError("outpoint txid must be 32 bytes")
    if start < stop:
        require_u32(start, "outpoint index")
        require_u32(stop - 1, "outpoint index")
    set_txid, set_index, set_ser = _SET_OUTPOINT
    ops = []
    for i in range(start, stop):
        op = object.__new__(Outpoint)
        set_txid(op, txid)
        set_index(op, i)
        set_ser(op, _OUTPOINT(32, txid, i))
        ops.append(op)
    return ops


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

    def __post_init__(self) -> None:
        for slots in (self.storage_read, self.storage_written):
            for _, key in slots:
                require_u64(key, "storage key")

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
        require_u64(self.expiry, "endorsement expiry")


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


def _access_bytes(access: Optional[AccessDecl]) -> bytes:
    if access is None:
        return _NONE
    parts = [b"\x01"]
    for addrs in (access.balances_read, access.balances_written):
        parts.append(_U32(len(addrs)))
        parts += map(_blob, sorted(addrs))
    for slots in (access.storage_read, access.storage_written):
        parts.append(_U32(len(slots)))
        parts += [_blob(a) + _U64(k) for a, k in sorted(slots)]
    parts.append(_U32(len(access.callees)))
    parts += map(_blob, sorted(access.callees))
    return b"".join(parts)


def _encode_body(tx: Transaction) -> bytes:
    k = tx.kind
    t = type(k)
    # Outpoints and outputs carry their encodings, which the state
    # accumulator reuses when they are spent and created.
    if t is UtxoSpend:
        parts = [_TAG_COUNT(0, len(k.inputs)), *[op._ser for op in k.inputs], _U32(len(k.outputs))]
        parts += [out._ser for out in k.outputs]
    elif t is Deploy:
        parts = [
            _TAG_COUNT(1, len(k.code)), k.code, _U64(k.endowment), _blob(k.payer),
            _U64X2(k.gas_limit, k.gas_price), _access_bytes(k.access),
        ]
    elif t is Call:
        parts = [
            _TAG_COUNT(2, len(k.contract)), k.contract, _U64X2(k.arg, k.attached), _blob(k.caller),
            _U64X2(k.gas_limit, k.gas_price), _access_bytes(k.access),
            _U32(len(k.address_consts)), *map(_blob, k.address_consts),
        ]
    elif t is MoveToAccount:
        parts = [_TAG_COUNT(3, len(k.inputs)), *[op._ser for op in k.inputs]]
        parts += [_blob(k.to), _U64(k.amount)]
    elif t is MoveToUtxo:
        parts = [_TAG_COUNT(4, len(k.source)), k.source, _U64(k.amount), _U32(len(k.outputs))]
        parts += [out._ser for out in k.outputs]
    else:
        raise ModelError(f"unknown transaction kind {t!r}")
    parts += [_opt_u64(tx.not_before), _opt_u64(tx.not_after), _U64(tx.nonce)]
    return b"".join(parts)


# Both are cached in the transaction's instance __dict__ on first use. The
# fields they cover are frozen, and every changed copy is a new instance.


def canonical_serialize(tx: Transaction) -> bytes:
    """Deterministic witness-free byte encoding of a transaction."""
    cache = tx.__dict__
    body = cache.get("_body")
    if body is None:
        body = cache["_body"] = _encode_body(tx)
    return body


def txid(tx: Transaction) -> bytes:
    """Transaction id: sha256 of the canonical (witness-free) bytes."""
    cache = tx.__dict__
    tx_id = cache.get("_txid")
    if tx_id is None:
        tx_id = cache["_txid"] = sha256(canonical_serialize(tx))
    return tx_id


def full_serialize(tx: Transaction) -> bytes:
    """Canonical bytes followed by witnesses, auth, and endorsement.

    Used only for tamper-evidence hashing of persisted logs; not an input
    to the txid.
    """
    body = canonical_serialize(tx)
    parts = [_U32(len(body)), body, _U32(len(tx.witnesses))]
    for wit in tx.witnesses:
        parts.append(_U32(len(wit)))
        parts += map(_blob, wit)
    if tx.auth is None:
        parts.append(_NONE)
    else:
        parts += [b"\x01", _blob(tx.auth.pubkey), _blob(tx.auth.signature)]
    e = tx.endorsement
    if e is None:
        parts.append(_NONE)
    else:
        parts += [
            b"\x01", b"\x00" if e.granularity == "per_transaction" else b"\x01",
            _blob(e.intermediary_pubkey), _blob(e.signature), _blob(e.user_pubkey), _U64(e.expiry),
        ]
    return b"".join(parts)


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


# The one input boundary. Every JSON file the CLI and replay read is parsed
# by read_json, and every value in it is taken by json_field or json_value,
# so malformed input of any shape is a ModelError and nothing else.

_JSON_TYPE_NAMES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    bool: "a boolean", bytes: "a hex string",
}
_REQUIRED = object()


def read_json(data: Union[str, bytes]) -> object:
    """The value of a JSON text, or of its UTF-8 bytes. Any failure, bytes
    that are not UTF-8 and nesting too deep for the parser included, is a
    ModelError."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc


def json_value(value: object, kind: object, what: str):
    """value, which must be exactly of JSON type kind: dict, list, str, int
    or bool (a bool is not an int). kind bytes reads a hex string and
    returns its bytes. A tuple of kinds reads an array of that many items,
    one of each kind, as a tuple."""
    if type(value) is kind:
        return value
    if kind is bytes and type(value) is str:
        try:
            return bytes.fromhex(value)
        except ValueError:
            pass
    elif type(kind) is tuple and type(value) is list and len(value) == len(kind):
        return tuple([json_value(v, k, what) for v, k in zip(value, kind)])
    name = f"an array of {len(kind)} items" if type(kind) is tuple else _JSON_TYPE_NAMES[kind]
    raise ModelError(f"{what} must be {name}")


def json_field(obj: dict, key: str, kind: object, default: object = _REQUIRED, of: object = None):
    """obj[key], read by json_value. An absent key, or a null one where the
    default is None, gives the default; without one the key is required.
    With of, each item of the array, or each value of the object, is read
    as of, into a new list or dict."""
    value = obj.get(key)
    if type(value) is kind and of is None:
        return value
    if value is None and (default is None or key not in obj):
        if default is _REQUIRED:
            raise ModelError(f"missing {key}")
        return default
    value = json_value(value, kind, key)
    if of is None:
        return value
    what = f"each item of {key}"
    if kind is dict:
        return {k: json_value(v, of, what) for k, v in value.items()}
    return [json_value(v, of, what) for v in value]


def _lock_key(obj) -> Optional[tuple]:
    """A lock JSON's intern key: the fields the decoder reads, when each has
    the one JSON type the decoder accepts; None for any other shape."""
    if type(obj) is not dict:
        return None
    kind = obj.get("kind")
    if kind == "pubkey" or kind == "script":
        value = obj.get(kind)
        return (kind, value) if type(value) is str else None
    if kind == "multisig":
        m, pks = obj.get("m"), obj.get("pubkeys")
        if type(m) is int and type(pks) is list and all(type(pk) is str for pk in pks):
            return (kind, m, *pks)
    return None


def _decode_lock(obj: dict) -> Lock:
    kind = json_field(obj, "kind", str)
    if kind == "pubkey":
        return Lock.pay_to_pubkey(json_field(obj, "pubkey", bytes))
    if kind == "multisig":
        return Lock.multisig(json_field(obj, "m", int), json_field(obj, "pubkeys", list, of=bytes))
    if kind == "script":
        return Lock.pay_to_script(json_field(obj, "script", bytes))
    raise ModelError(f"unknown lock kind {kind!r}")


class JsonCodec:
    """Intern tables for the JSON of one batch, or of one transaction when
    tx_from_json or tx_to_json is called without a codec.

    Decoding turns each distinct lock JSON into one Lock and each distinct
    output JSON into one Output. A key holds only fields of the one JSON
    type the decoder accepts. Python hashes 1, 1.0 and true equal, so an
    amount of 1.0 or an m of true misses the table and reaches the
    constructor that rejects it. Keys the decoder does not read are left out
    of the key, as the decoder ignores them; the log's byte-identity check
    is what refuses them.

    Encoding builds each distinct Lock's and Output's JSON once, by
    identity. The table keeps each value alive with its JSON, so no id is
    reused while the codec lives. Outputs that share a value share its JSON
    dict, so an encoding must not be mutated."""

    __slots__ = ("_locks", "_outputs", "_json")

    def __init__(self) -> None:
        self._locks: dict[tuple, Lock] = {}
        self._outputs: dict[tuple, Output] = {}
        self._json: dict[int, tuple[object, dict]] = {}

    def output(self, obj: dict) -> Output:
        if type(obj) is dict:
            amount, expiry = obj.get("amount"), obj.get("expiry")
            lock_key = _lock_key(obj.get("lock"))
            if lock_key is not None and type(amount) is int and (expiry is None or type(expiry) is int):
                key = (amount, expiry, lock_key)
                out = self._outputs.get(key)
                if out is None:
                    lock = self._locks.get(lock_key)
                    if lock is None:
                        lock = self._locks[lock_key] = _decode_lock(obj["lock"])
                    out = self._outputs[key] = Output(amount, lock, expiry)
                return out
        obj = json_value(obj, dict, "output")
        lock = _decode_lock(json_field(obj, "lock", dict))
        return Output(json_field(obj, "amount", int), lock, json_field(obj, "expiry", int, None))

    def lock_json(self, lock: Lock) -> dict:
        hit = self._json.get(id(lock))
        if hit is None:
            if lock.kind == LOCK_PUBKEY:
                obj = {"kind": "pubkey", "pubkey": lock.pubkey.hex()}
            elif lock.kind == LOCK_MULTISIG:
                obj = {"kind": "multisig", "m": lock.m, "pubkeys": [pk.hex() for pk in lock.pubkeys]}
            else:
                obj = {"kind": "script", "script": lock.script.hex()}
            hit = self._json[id(lock)] = (lock, obj)
        return hit[1]

    def output_json(self, out: Output) -> dict:
        hit = self._json.get(id(out))
        if hit is None:
            obj = {"amount": out.amount, "lock": self.lock_json(out.lock)}
            if out.expiry is not None:
                obj["expiry"] = out.expiry
            hit = self._json[id(out)] = (out, obj)
        return hit[1]


def outpoint_to_json(op: Outpoint) -> dict:
    return {"txid": op.txid.hex(), "index": op.index}


def outpoint_from_json(obj: dict) -> Outpoint:
    return Outpoint(json_field(obj, "txid", bytes), json_field(obj, "index", int))


def _inputs(obj: dict) -> tuple[Outpoint, ...]:
    return tuple(map(outpoint_from_json, json_field(obj, "inputs", list, of=dict)))


def access_to_json(a: AccessDecl) -> dict:
    return {
        "balances_read": sorted(x.hex() for x in a.balances_read),
        "balances_written": sorted(x.hex() for x in a.balances_written),
        "storage_read": [[ad.hex(), k] for ad, k in sorted(a.storage_read)],
        "storage_written": [[ad.hex(), k] for ad, k in sorted(a.storage_written)],
        "callees": sorted(x.hex() for x in a.callees),
    }


def access_from_json(obj: Optional[dict]) -> Optional[AccessDecl]:
    if obj is None:
        return None

    def read(key: str, item: object) -> frozenset:
        return frozenset(json_field(obj, key, list, [], of=item))

    slot = (bytes, int)
    return AccessDecl(
        read("balances_read", bytes), read("balances_written", bytes),
        read("storage_read", slot), read("storage_written", slot), read("callees", bytes),
    )


def tx_to_json(tx: Transaction, codec: Optional[JsonCodec] = None) -> dict:
    """The transaction's JSON; its outputs' JSON comes from codec, which is
    fresh when none is given."""
    if codec is None:
        codec = JsonCodec()
    k = tx.kind
    obj: dict = {"kind": tx.kind_name, "nonce": tx.nonce}
    if isinstance(k, UtxoSpend):
        obj["inputs"] = [outpoint_to_json(op) for op in k.inputs]
        obj["outputs"] = [codec.output_json(o) for o in k.outputs]
    elif isinstance(k, Deploy):
        obj.update(
            code=k.code.hex(),
            endowment=k.endowment,
            payer=k.payer.hex(),
            gas_limit=k.gas_limit,
            gas_price=k.gas_price,
        )
        if k.access is not None:
            obj["access"] = access_to_json(k.access)
    elif isinstance(k, Call):
        obj.update(
            contract=k.contract.hex(),
            arg=k.arg,
            attached=k.attached,
            caller=k.caller.hex(),
            gas_limit=k.gas_limit,
            gas_price=k.gas_price,
        )
        if k.access is not None:
            obj["access"] = access_to_json(k.access)
        if k.address_consts:
            obj["address_consts"] = [a.hex() for a in k.address_consts]
    elif isinstance(k, MoveToAccount):
        obj["inputs"] = [outpoint_to_json(op) for op in k.inputs]
        obj["to"] = k.to.hex()
        obj["amount"] = k.amount
    elif isinstance(k, MoveToUtxo):
        obj["source"] = k.source.hex()
        obj["amount"] = k.amount
        obj["outputs"] = [codec.output_json(o) for o in k.outputs]
    if tx.not_before is not None:
        obj["not_before"] = tx.not_before
    if tx.not_after is not None:
        obj["not_after"] = tx.not_after
    if tx.witnesses:
        obj["witnesses"] = [[item.hex() for item in wit] for wit in tx.witnesses]
    if tx.auth is not None:
        obj["auth"] = {"pubkey": tx.auth.pubkey.hex(), "signature": tx.auth.signature.hex()}
    if tx.endorsement is not None:
        e = tx.endorsement
        eobj = {
            "granularity": e.granularity,
            "intermediary_pubkey": e.intermediary_pubkey.hex(),
            "signature": e.signature.hex(),
        }
        if e.granularity == "per_user":
            eobj["user_pubkey"] = e.user_pubkey.hex()
            eobj["expiry"] = e.expiry
        obj["endorsement"] = eobj
    return obj


def tx_from_json(obj: dict, codec: Optional[JsonCodec] = None) -> Transaction:
    """Decode a transaction; its outputs are interned in codec, which is
    fresh when none is given."""
    if codec is None:
        codec = JsonCodec()
    obj = json_value(obj, dict, "transaction")
    name = json_field(obj, "kind", str)
    kind: TxKind
    if name == "utxo_spend":
        kind = UtxoSpend(_inputs(obj), tuple(map(codec.output, json_field(obj, "outputs", list))))
    elif name == "move_to_account":
        kind = MoveToAccount(_inputs(obj), json_field(obj, "to", bytes), json_field(obj, "amount", int))
    elif name == "deploy":
        kind = Deploy(
            json_field(obj, "code", bytes),
            json_field(obj, "endowment", int),
            json_field(obj, "payer", bytes),
            json_field(obj, "gas_limit", int),
            json_field(obj, "gas_price", int),
            access_from_json(json_field(obj, "access", dict, None)),
        )
    elif name == "call":
        kind = Call(
            json_field(obj, "contract", bytes),
            json_field(obj, "arg", int),
            json_field(obj, "attached", int),
            json_field(obj, "caller", bytes),
            json_field(obj, "gas_limit", int),
            json_field(obj, "gas_price", int),
            access_from_json(json_field(obj, "access", dict, None)),
            tuple(json_field(obj, "address_consts", list, [], of=bytes)),
        )
    elif name == "move_to_utxo":
        kind = MoveToUtxo(
            json_field(obj, "source", bytes),
            json_field(obj, "amount", int),
            tuple(map(codec.output, json_field(obj, "outputs", list))),
        )
    else:
        raise ModelError(f"unknown transaction kind {name!r}")
    witnesses = tuple(
        tuple(json_value(item, bytes, "witnesses") for item in wit)
        for wit in json_field(obj, "witnesses", list, [], of=list)
    )
    auth = json_field(obj, "auth", dict, None)
    if auth is not None:
        auth = AccountAuth(json_field(auth, "pubkey", bytes), json_field(auth, "signature", bytes))
    e = json_field(obj, "endorsement", dict, None)
    endorsement = None if e is None else EndorsementData(
        json_field(e, "granularity", str),
        json_field(e, "intermediary_pubkey", bytes),
        json_field(e, "signature", bytes),
        json_field(e, "user_pubkey", bytes, b""),
        json_field(e, "expiry", int, 0),
    )
    return Transaction(
        kind,
        nonce=json_field(obj, "nonce", int, 0),
        not_before=json_field(obj, "not_before", int, None),
        not_after=json_field(obj, "not_after", int, None),
        witnesses=witnesses,
        auth=auth,
        endorsement=endorsement,
    )


def tx_to_json_str(tx: Transaction) -> str:
    return canonical_json(tx_to_json(tx))


def tx_from_json_str(s: str) -> Transaction:
    return tx_from_json(read_json(s))
