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
import re
import struct
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial, total_ordering
from json.encoder import encode_basestring_ascii
from operator import attrgetter, lt
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

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


@total_ordering
class Level(Enum):
    """Programmability level of a transaction, lowest to highest."""

    L1 = 1
    L1_5 = 2
    L2 = 3
    L3 = 4

    def __lt__(self, other: "Level") -> bool:
        return self.value < other.value

    @property
    def label(self) -> str:
        return _LABELS[self._name_]

    @classmethod
    def from_label(cls, label: str) -> "Level":
        if type(label) is not str or label not in _BY_LABEL:
            raise ModelError(f"unknown level: {label!r}")
        return _BY_LABEL[label]


_LABELS = {lvl.name: lvl.name.replace("_", ".") for lvl in Level}
_BY_LABEL = {**{lvl.name: lvl for lvl in Level}, **{_LABELS[lvl.name]: lvl for lvl in Level}}


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
    def pay_to_pubkey(pubkey: bytes) -> "Lock":
        if len(pubkey) != 32:
            raise ModelError("pubkey must be 32 bytes")
        return Lock(LOCK_PUBKEY, pubkey=pubkey)

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
    def pay_to_script(script: bytes) -> "Lock":
        if len(script) > MAX_SCRIPT_BYTES:
            raise ModelError(f"script exceeds {MAX_SCRIPT_BYTES} bytes")
        return Lock(LOCK_SCRIPT, script=bytes(script))

    def serialize(self) -> bytes:
        return self._ser

    def address(self) -> bytes:
        """Address a lock pays to: sha256(pk) for single-key locks, else sha256 of the canonical lock bytes."""
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
        sub = {b"\x00" * 32: addr}.get
        return AccessDecl(
            frozenset(sub(a, a) for a in self.balances_read),
            frozenset(sub(a, a) for a in self.balances_written),
            frozenset((sub(a, a), k) for a, k in self.storage_read),
            frozenset((sub(a, a), k) for a, k in self.storage_written),
            frozenset(sub(a, a) for a in self.callees),
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


@dataclass(frozen=True)
class EndorsementData:
    """Intermediary endorsement carried by a transaction.

    per_transaction: signature over the txid; user_pubkey and expiry keep
    their defaults, which the log leaves out.
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
        if self.granularity == "per_transaction" and (self.user_pubkey or self.expiry):
            raise ModelError("a per_transaction endorsement has no user_pubkey or expiry")


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
        if self.not_before is not None and self.not_after is not None and self.not_before > self.not_after:
            raise ModelError("not_before must be <= not_after")

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


# Both are cached in the transaction's instance __dict__ on first use, as
# is the canonical text a transaction was read whole from (tx_from_json_str).
# The fields they cover are frozen, and every changed copy is a new instance.


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
    k = tx.kind
    if type(k) is not UtxoSpend:
        return Level.L3
    spent = () if utxos is None else map(utxos.get, k.inputs)
    if any(out is not None and out.lock.kind == LOCK_SCRIPT for out in (*k.outputs, *spent)):
        return Level.L2
    if tx.not_before is not None or tx.not_after is not None:
        return Level.L1_5
    return Level.L1


# ---------------------------------------------------------------------------
# JSON encoding (human-facing files; byte arrays hex-encoded lowercase)


# The one input boundary. Every JSON file the CLI and replay read is parsed
# by read_json, and every value in it is taken by json_field, json_value or
# a log record's table, so malformed input of any shape is a ModelError and
# nothing else. The transactions of a batch file that replay streams are
# read by read_tx, which raises ModelError on any text but their canonical
# text.

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


# ---------------------------------------------------------------------------
# The log format. Each record's JSON is one table of rows, and these tables,
# with the receipt's and the header's in ledger.py, genesis's in rules.py and
# the policy's and registry entry's in permission.py, are the one place where
# a key, its JSON type and its omission rule are defined. JsonTable.decode
# is the one decode loop; _compile_encode builds each table's encode from its
# rows, and _compile_parse a table's canonical-text parser. Log text is
# canonical JSON: what json.dumps writes with sort_keys and separators
# (",", ":"), strings ASCII-escaped.


class JsonKind(NamedTuple):
    """A value's JSON type (dict, list, str, int or bool; a bool is not an
    int), its decode (None keeps the value) and its encode to canonical JSON
    text (None: an int, formatted). A decode raises ValueError or TypeError
    for a value it cannot read. table is the table of an object, or of each
    object of an array, for the canonical-text parser."""

    json_type: type
    decode: Optional[Callable] = None
    encode: Optional[Callable] = None
    table: Union["JsonTable", "JsonTagged", None] = None


DERIVED = object()


class JsonRow(NamedTuple):
    """A key, its kind, the default an absent key reads as (none: required;
    DERIVED: written from the record, never read), whether the key is left
    out when the value is the default (of its type and equal to it), and
    the record's attribute, when not the key. A dotted attribute names a
    field of a part of the record."""

    key: str
    kind: JsonKind
    default: object = _REQUIRED
    omit: bool = False
    attr: str = ""


class JsonTable:
    """One record's JSON. make takes the record's fields in row order."""

    __slots__ = ("make", "rows", "tag", "_read", "_defaults", "_required", "encode")

    def __init__(self, make: Callable, *rows: JsonRow, tag: Optional[tuple[str, str]] = None) -> None:
        self.make, self.rows, self.tag = make, rows, tag
        read = [row for row in rows if row.default is not DERIVED]
        self._read = {
            row.key: (i, row.kind.json_type, row.kind.decode, row.default is None, row.default is _REQUIRED)
            for i, row in enumerate(read)
        }
        self._defaults = [row.default for row in read]
        self._required = sum(row.default is _REQUIRED for row in read)
        self.encode = _compile_encode(rows, tag)

    def decode(self, obj: dict):
        """The record in obj, visiting only the keys obj holds. A key that no
        row names is skipped: the log's byte-identity check refuses it."""
        vals = self._defaults.copy()
        read = self._read
        missing = self._required
        for key, value in obj.items():
            row = read.get(key)
            if row is None:
                continue
            i, json_type, decode, nullable, required = row
            missing -= required
            if type(value) is not json_type:
                if value is None and nullable:
                    continue
                raise ModelError(f"{key} must be {_JSON_TYPE_NAMES[json_type]}")
            if decode is not None:
                try:
                    value = decode(value)
                except ModelError:
                    raise
                except (ValueError, TypeError) as exc:
                    raise ModelError(f"bad {key}: {exc}") from None
            vals[i] = value
        if missing:
            raise ModelError(f"missing {next(k for k, row in read.items() if vals[row[0]] is _REQUIRED)}")
        return self.make(*vals)


class JsonTagged:
    """A record with variants, whose JSON names its variant: each variant's
    table has a tag, one key with its own value. variants maps what select
    returns for a record to the variant's table."""

    def __init__(self, what: str, select: Callable, variants: dict) -> None:
        self.what, self.variants = what, variants
        self.key = next(iter(variants.values())).tag[0]
        self._tables = {table.tag[1]: table for table in variants.values()}
        encoders = {value: table.encode for value, table in variants.items()}
        self.encode = lambda rec: encoders[select(rec)](rec)

    def decode(self, obj: dict):
        tag = obj.get(self.key)
        table = self._tables.get(tag) if type(tag) is str else None
        if table is None:
            raise ModelError(f"unknown {self.what} {self.key} {json_field(obj, self.key, str)!r}")
        return table.decode(obj)


def _compile_encode(rows: tuple[JsonRow, ...], tag: Optional[tuple[str, str]]) -> Callable:
    """A table's encode, as straight-line code built once from its rows, as
    dataclasses builds __init__: one f-string of the record's canonical JSON
    text, keys sorted here. A key left out is an empty piece; keys before the
    first one always written end with their comma, later keys start with one.
    The source holds only keys, tag and attribute names; kinds and defaults
    are bound by name."""
    env: dict = {}

    def value(i: int, row: JsonRow) -> str:
        v = "v" if row.omit else f"rec.{row.attr or row.key}"
        if row.kind.encode is None:  # an int
            return f"{{{v}}}"
        if row.kind is HEX:
            return f'"{{{v}.hex()}}"'
        env[f"e{i}"] = row.kind.encode
        return f"{{e{i}({v})}}"

    text = lambda s: encode_basestring_ascii(s).replace("{", "{{").replace("}", "}}")
    items = sorted([(row.key, i, row) for i, row in enumerate(rows)] + ([(tag[0], -1, None)] if tag else []))
    first = next(n for n, (_, _, row) in enumerate(items) if row is None or not row.omit)
    lines, out = [], "{{"
    for n, (key, i, row) in enumerate(items):
        piece = f"{text(key)}:{text(tag[1]) if row is None else value(i, row)}"
        piece = piece + "," if n < first else "," + piece if n > first else piece
        if row is not None and row.omit:
            env[f"d{i}"], env[f"t{i}"] = row.default, type(row.default)
            kept = "v is not None" if row.default is None else f"not (type(v) is t{i} and v == d{i})"
            lines += [f"    v = rec.{row.attr or row.key}", f"    o{i} = f{piece!r} if {kept} else ''"]
            piece = f"{{o{i}}}"
        out += piece
    exec("\n".join(["def encode(rec):", *lines, f"    return f{out + '}}'!r}"]), env)
    return env["encode"]


def json_object(table: Union[JsonTable, JsonTagged]) -> JsonKind:
    return JsonKind(dict, table.decode, table.encode, table=table)


def json_list(table: JsonTable) -> JsonKind:
    """An array of objects, each read and written by table."""
    return JsonKind(list, _items(dict, table.decode), lambda recs: _array(map(table.encode, recs)), table=table)


def _u64(value: int) -> int:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"{value} is out of u64 range")
    return value


def _items(item_type: type, read: Callable) -> Callable:
    """A decode of an array whose items are each of item_type, read by read."""

    def decode(value: list) -> tuple:
        if not all(type(item) is item_type for item in value):
            raise ValueError(f"each item must be {_JSON_TYPE_NAMES[item_type]}")
        return tuple(map(read, value))

    return decode


def _slot(pair: list) -> tuple[bytes, int]:
    if type(pair) is not list or len(pair) != 2 or type(pair[1]) is not int:
        raise ValueError("each item must be a [hex string, integer] pair")
    return bytes.fromhex(pair[0]), pair[1]


def _hex_list(value: list) -> tuple:
    return tuple(map(bytes.fromhex, value))


def _array(texts: Iterable[str]) -> str:
    return f"[{','.join(texts)}]"


INT = JsonKind(int)
BOOL = JsonKind(bool, None, lambda b: "true" if b else "false")
U64 = JsonKind(int, _u64)
STR = JsonKind(str, None, encode_basestring_ascii)
HEX = JsonKind(str, bytes.fromhex, lambda b: f'"{b.hex()}"')  # written inline by _compile_encode
HEX_LIST = JsonKind(list, _hex_list, lambda bs: _array([f'"{b.hex()}"' for b in bs]))
# Sets are written sorted; hex keeps the order of the bytes.
HEX_SET = JsonKind(list, lambda v: frozenset(map(bytes.fromhex, v)), lambda bs: HEX_LIST.encode(sorted(bs)))
SLOT_SET = JsonKind(list, lambda v: frozenset(map(_slot, v)), lambda s: _array([f'["{a.hex()}",{k}]' for a, k in sorted(s)]))
WITNESSES = JsonKind(list, _items(list, _hex_list), lambda ws: _array([HEX_LIST.encode(w) for w in ws]))
LEVEL = JsonKind(str, Level.from_label, lambda lvl: f'"{lvl.label}"')

OUTPOINT_JSON = JsonTable(Outpoint, JsonRow("txid", HEX), JsonRow("index", INT))
INPUTS = json_list(OUTPOINT_JSON)
LOCK_JSON = JsonTagged("lock", attrgetter("kind"), {
    LOCK_PUBKEY: JsonTable(Lock.pay_to_pubkey, JsonRow("pubkey", HEX), tag=("kind", "pubkey")),
    LOCK_MULTISIG: JsonTable(Lock.multisig, JsonRow("m", INT), JsonRow("pubkeys", HEX_LIST), tag=("kind", "multisig")),
    LOCK_SCRIPT: JsonTable(Lock.pay_to_script, JsonRow("script", HEX), tag=("kind", "script")),
})
OUTPUT_JSON = JsonTable(
    Output, JsonRow("amount", INT), JsonRow("lock", json_object(LOCK_JSON)), JsonRow("expiry", INT, None, True)
)
OUTPUTS = json_list(OUTPUT_JSON)
ACCESS_JSON = JsonTable(
    AccessDecl,
    JsonRow("balances_read", HEX_SET, frozenset()),
    JsonRow("balances_written", HEX_SET, frozenset()),
    JsonRow("storage_read", SLOT_SET, frozenset()),
    JsonRow("storage_written", SLOT_SET, frozenset()),
    JsonRow("callees", HEX_SET, frozenset()),
)
AUTH_JSON = JsonTable(AccountAuth, JsonRow("pubkey", HEX), JsonRow("signature", HEX))
# A per_transaction endorsement always holds the user fields' defaults, so
# they are left out; a per_user one writes them.
ENDORSEMENT_JSON = JsonTagged("endorsement", attrgetter("granularity"), {
    granularity: JsonTable(
        partial(EndorsementData, granularity),
        JsonRow("intermediary_pubkey", HEX),
        JsonRow("signature", HEX),
        JsonRow("user_pubkey", HEX, b"", granularity == "per_transaction"),
        JsonRow("expiry", INT, 0, granularity == "per_transaction"),
        tag=("granularity", granularity),
    )
    for granularity in ("per_transaction", "per_user")
})

_ENVELOPE = (
    JsonRow("nonce", INT, 0),
    JsonRow("not_before", INT, None, True),
    JsonRow("not_after", INT, None, True),
    JsonRow("witnesses", WITNESSES, (), True),
    JsonRow("auth", json_object(AUTH_JSON), None, True),
    JsonRow("endorsement", json_object(ENDORSEMENT_JSON), None, True),
)


def _tx(name: str, cls: type, *rows: JsonRow) -> JsonTable:
    """A transaction of kind cls: the envelope's keys and the kind's in one object."""

    def make(nonce, not_before, not_after, witnesses, auth, endorsement, *fields) -> Transaction:
        return Transaction(cls(*fields), nonce, not_before, not_after, witnesses, auth, endorsement)

    return JsonTable(make, *_ENVELOPE, *[row._replace(attr="kind." + row.key) for row in rows], tag=("kind", name))


_ACCESS = JsonRow("access", json_object(ACCESS_JSON), None, True)
_GAS = (JsonRow("gas_limit", INT), JsonRow("gas_price", INT))
TX_JSON = JsonTagged("transaction", attrgetter("kind.__class__"), {
    UtxoSpend: _tx("utxo_spend", UtxoSpend, JsonRow("inputs", INPUTS), JsonRow("outputs", OUTPUTS)),
    Deploy: _tx(
        "deploy", Deploy, JsonRow("code", HEX), JsonRow("endowment", INT), JsonRow("payer", HEX), *_GAS, _ACCESS
    ),
    Call: _tx(
        "call", Call, JsonRow("contract", HEX), JsonRow("arg", INT), JsonRow("attached", INT),
        JsonRow("caller", HEX), *_GAS, _ACCESS, JsonRow("address_consts", HEX_LIST, (), True),
    ),
    MoveToAccount: _tx(
        "move_to_account", MoveToAccount, JsonRow("inputs", INPUTS), JsonRow("to", HEX), JsonRow("amount", INT)
    ),
    MoveToUtxo: _tx(
        "move_to_utxo", MoveToUtxo, JsonRow("source", HEX), JsonRow("amount", INT), JsonRow("outputs", OUTPUTS)
    ),
})


# ---------------------------------------------------------------------------
# Canonical-text parsers. Log text has one layout per record: keys sorted,
# omitted defaults absent, ints with no leading zero, hex lowercase and of
# even length, set items in increasing order. So a table's parser is one
# regex of that layout, with a group per value, and a builder that passes
# what the groups hold to the record's constructors, both generated once
# from the rows _compile_encode builds the table's encode from. The parser
# accepts exactly the text that encode writes for a record the constructors
# take: one match and one build read a record and prove its text canonical.
# A nested record is inlined in its parent's regex. An array of records is
# one group too, whose items are cut apart at "},{"; the item table's own
# parser reads each item that is not interned yet. Canonical text and
# value correspond one to one, so interned records are keyed by their text.

# Every repeat and optional piece gives nothing back: what may follow one
# can never start inside what it took, since keys are distinct and a digit,
# hex digit or item never continues with what ends its run. Python 3.11's
# possessive forms keep no state to backtrack to; a greedy repeat over a
# 10,000-output array holds about 27 MB of it while it matches.
_ONCE = "+" if sys.version_info >= (3, 11) else ""
_INT_TEXT = f"(?:0|-?[1-9][0-9]*{_ONCE})"
_HEX_TEXT = f"[0-9a-f]*{_ONCE}"  # bytes.fromhex refuses an odd length


def _array_text(item: str) -> str:
    """The regex of an array's items, between its brackets."""
    return f"(?:{item}(?:,{item})*{_ONCE})?{_ONCE}"


def _increasing(items: list) -> list:
    """items, each greater than the one before, as a set's are written."""
    if len(items) > 1 and not all(map(lt, items, items[1:])):
        raise ModelError("a set's items must be written in increasing order, once each")
    return items


def _hex_set(text: str) -> frozenset:
    # Lowercase hex of even length orders as its bytes do.
    return frozenset(map(bytes.fromhex, _increasing(text[1:-1].split('","')))) if text else frozenset()


_HEX_ITEMS = _array_text(f'"{_HEX_TEXT}"')
_slot_items = re.compile(f'"({_HEX_TEXT})",({_INT_TEXT})').findall


def _slot_set(text: str) -> frozenset:
    return frozenset(_increasing([(bytes.fromhex(a), int(k)) for a, k in _slot_items(text)])) if text else frozenset()


def _hex_tuple(text: str) -> tuple:
    return tuple(map(bytes.fromhex, text[1:-1].split('","'))) if text else ()


# Each leaf kind's text: the regex its group holds, the text around the
# group, and what reads the value from the group's text.
_LEAF_TEXTS = {
    INT: ("", _INT_TEXT, "", int),
    HEX: ('"', _HEX_TEXT, '"', bytes.fromhex),
    HEX_LIST: (r"\[", _HEX_ITEMS, r"\]", _hex_tuple),
    HEX_SET: (r"\[", _HEX_ITEMS, r"\]", _hex_set),
    SLOT_SET: (r"\[", _array_text(f'\\["{_HEX_TEXT}",{_INT_TEXT}\\]'), r"\]", _slot_set),
    WITNESSES: (
        r"\[", _array_text(rf"\[{_HEX_ITEMS}\]"), r"\]",
        lambda text: tuple(map(_hex_tuple, text[1:-1].split("],["))) if text else (),
    ),
}


def _written(value: object, default: object) -> object:
    """value, read from the text of a row that is left out at its default."""
    if type(value) is type(default) and value == default:
        raise ModelError(f"a default ({value!r}) is written out")
    return value


def _holds_record_arrays(table: Union[JsonTable, JsonTagged]) -> bool:
    tables = table.variants.values() if isinstance(table, JsonTagged) else (table,)
    return any(
        row.kind.table is not None and (row.kind.json_type is list or _holds_record_arrays(row.kind.table))
        for t in tables for row in t.rows
    )


def _record_items(text: str) -> list:
    """The texts inside the braces of an array's records, between its
    brackets. Only an array of records writes "},{", so a record that holds
    none is cut from the next one there."""
    return text[1:-1].split("},{") if text else []


class _ParserSource:
    """A parser's regex and builder as they are generated. The builder reads
    g, the match's groups; capture is false for the copy of an item table's
    regex inlined in its array's, which has no groups. interned holds the
    tables whose records the builder keeps in the dict t, by their text (a
    record is never false, so "t.get(k) or" finds any)."""

    def __init__(self, interned: tuple, capture: bool = True) -> None:
        self.interned, self.capture, self.groups = interned, capture, 0
        self.env: dict = {"_written": _written}

    def open(self) -> tuple[str, int]:
        """The next group's opening, and its number."""
        if not self.capture:
            return "(?:", 0
        self.groups += 1
        return "(", self.groups

    def bind(self, value: object) -> str:
        name = f"b{len(self.env)}"
        self.env[name] = value
        return name

    def value(self, kind: JsonKind) -> tuple[str, str]:
        """The regex of a value of kind, and the builder's expression of it."""
        leaf = _LEAF_TEXTS.get(kind)
        if leaf is not None:
            before, inner, after, read = leaf
            o, n = self.open()
            return f"{before}{o}{inner}){after}", f"{self.bind(read)}(g[{n - 1}])"
        if kind.table is None or kind.json_type is list and _holds_record_arrays(kind.table):
            raise TypeError(f"no canonical-text parser for a {kind.json_type.__name__} of this kind")
        if kind.json_type is dict:
            return self.record(kind.table)
        # An array of records: its regex checks every item, and its builder
        # matches an item's text x again, its braces put back, only to build
        # a record not interned.
        o, n = self.open()
        items = _ParserSource(self.interned, capture=False).record(kind.table)[0]
        regex, build = _compile_parse(kind.table, tuple(t for t in self.interned if t is not kind.table))
        item = f"{self.bind(build)}({self.bind(regex.match)}('{{' + x + '}}'), t)"
        if kind.table in self.interned:
            item = f"(t.get(x) or t.setdefault(x, {item}))"
        return rf"\[{o}{_array_text(items)})\]", f"tuple([{item} for x in {self.bind(_record_items)}(g[{n - 1}])])"

    def record(self, table: Union[JsonTable, JsonTagged]) -> tuple[str, str]:
        """The regex of a record's text, and the builder's expression of
        the record. A tagged record's variants are alternatives, each in a
        group that tells whether it matched."""
        o, n = self.open() if table in self.interned else ("(?:", 0)
        if isinstance(table, JsonTagged):
            alternatives, built = [], []
            for variant in table.variants.values():
                vo, vn = self.open()
                regex, expr = self.table(variant)
                alternatives.append(f"{vo}{regex})")
                built.append((vn, expr))
            regex, expr = "|".join(alternatives), built[-1][1]
            for vn, e in reversed(built[:-1]):
                expr = f"({e} if g[{vn - 1}] is not None else {expr})"
        else:
            regex, expr = self.table(table)
        if n:
            expr = f"(t.get(k{n} := g[{n - 1}]) or t.setdefault(k{n}, {expr}))"
        return f"{o}{regex})", expr

    def table(self, table: JsonTable) -> tuple[str, str]:
        """One table's layout, keys and commas placed as _compile_encode
        places them. A row left out at its default is an optional group,
        which never holds the default."""
        key = lambda k: re.escape(encode_basestring_ascii(k))
        items = sorted([(row.key, i, row) for i, row in enumerate(table.rows)] + ([(table.tag[0], -1, None)] if table.tag else []))
        first = next(n for n, (_, _, row) in enumerate(items) if row is None or not row.omit)
        regex, args = r"\{", {}
        for n, (k, i, row) in enumerate(items):
            omit = row is not None and row.omit
            if omit:
                o, on = self.open()
            value, expr = (key(table.tag[1]), "") if row is None else self.value(row.kind)
            piece = f"{key(k)}:{value}"
            piece = piece + "," if n < first else "," + piece if n > first else piece
            if omit:
                piece = f"{o}{piece})?{_ONCE}"
                d = self.bind(row.default)
                if row.default is not None:  # a value read from text is never None
                    expr = f"_written({expr}, {d})"
                expr = f"({d} if g[{on - 1}] is None else {expr})"
            regex += piece
            if row is not None:
                args[i] = expr
        return regex + r"\}", f"{self.bind(table.make)}({', '.join(args[i] for i in sorted(args))})"


def _compile_parse(table: Union[JsonTable, JsonTagged], interned: tuple) -> tuple[re.Pattern, Callable]:
    """A table's canonical-text regex, and build(m, t): the record in a match
    m of it, with the records of the interned tables kept in the dict t by
    their text."""
    source = _ParserSource(interned)
    regex, expr = source.record(table)
    exec(f"def build(m, t):\n    g = m.groups()\n    return {expr}", source.env)
    return re.compile(regex), source.env["build"]


# One parser per kind of transaction, picked by the first "kind" key in the
# text. In a transaction's canonical text that key is its own: the keys that
# sort before it hold hex, ints and records with no "kind" key. A batch
# builds each distinct lock, output and access list once. The parsers are
# compiled when read_tx first needs them, not by every process that imports.
_TX_KIND = f'"{TX_JSON.key}":"'
_TX_PARSERS: dict = {}


def _compile_tx_parsers() -> dict:
    interned = (LOCK_JSON, OUTPUT_JSON, ACCESS_JSON)
    _TX_PARSERS.update((v.tag[1], _compile_parse(v, interned)) for v in TX_JSON.variants.values())
    return _TX_PARSERS


def read_tx(text: str, at: int, interned: dict) -> tuple[Transaction, int]:
    """The transaction whose canonical text starts at text[at], and the
    index just past it. Its locks, outputs and access list are kept in
    interned by their text, and taken from it when they are there already.
    Any other text is a ModelError."""
    kind = text.find(_TX_KIND, at) + len(_TX_KIND)
    parsers = _TX_PARSERS or _compile_tx_parsers()
    parser = parsers.get(text[kind:text.find('"', kind)]) if kind >= len(_TX_KIND) else None
    m = None if parser is None else parser[0].match(text, at)
    if m is None:
        raise ModelError("a transaction's text is not its canonical encoding")
    try:
        return parser[1](m, interned), m.end()
    except ModelError:
        raise
    except ValueError as exc:  # odd-length hex, or an int with more digits than int() reads
        raise ModelError(f"unreadable transaction: {exc}") from None


def tx_from_json(obj: dict) -> Transaction:
    return TX_JSON.decode(json_value(obj, dict, "transaction"))


def tx_to_json_str(tx: Transaction) -> str:
    """tx's canonical text: the text it was read whole from, if any."""
    return tx.__dict__.get("_text") or TX_JSON.encode(tx)


def tx_from_json_str(s: str) -> Transaction:
    """The transaction in s: read by read_tx when s is its canonical text,
    which the transaction keeps, else by read_json and tx_from_json, whose
    errors are the ones raised."""
    try:
        tx, end = read_tx(s, 0, {})
        if end == len(s):
            tx.__dict__["_text"] = s
            return tx
    except ModelError:
        pass
    return tx_from_json(read_json(s))
