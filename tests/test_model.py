"""Canonical codec, transaction identity, JSON round trips, and level
classification."""

from __future__ import annotations

import dataclasses
import inspect
import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KEYS, p2pk
from oracles import (
    Reader,
    Writer,
    canonical_deserialize,
    canonical_json,
    encode,
    read_lock,
    read_output,
    ref_canonical_serialize,
    ref_full_serialize,
    ref_genesis_json,
    ref_header_json,
    ref_output_from_json,
    ref_output_json,
    ref_receipt_json,
    ref_tx_json,
    ref_txid,
    write_lock,
    write_outpoint,
    write_output,
)
from tierledger import ledger, model, permission, rules
from tierledger.model import (
    AccessDecl,
    AccountAuth,
    Call,
    Deploy,
    EndorsementData,
    Level,
    Lock,
    ModelError,
    MoveToAccount,
    MoveToUtxo,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    canonical_serialize,
    checked_add,
    checked_sub,
    classify_level,
    full_serialize,
    outpoint_range,
    tx_from_json_str,
    tx_to_json_str,
    txid,
    U64_MAX,
)

A, B = KEYS[0], KEYS[1]
OP1 = Outpoint(b"\x11" * 32, 0)
OP2 = Outpoint(b"\x22" * 32, 3)


def sample_txs() -> list[Transaction]:
    spend = Transaction(UtxoSpend((OP1, OP2), (p2pk(A, 5), Output(3, Lock.pay_to_script(b"\x51"), expiry=9))))
    windowed = Transaction(UtxoSpend((OP1,), (p2pk(B, 2),)), not_before=3, not_after=7)
    access = AccessDecl(
        balances_read=frozenset({b"\x01" * 32}),
        balances_written=frozenset({b"\x02" * 32}),
        storage_read=frozenset({(b"\x03" * 32, 4)}),
        storage_written=frozenset({(b"\x03" * 32, 5)}),
        callees=frozenset({b"\x04" * 32}),
    )
    deploy = Transaction(Deploy(b"\x00", 7, address_of_pubkey(A.pubkey), 100, 2, access), nonce=1)
    call = Transaction(
        Call(b"\x05" * 32, 9, 1, address_of_pubkey(B.pubkey), 50, 1, access, (b"\x06" * 32,)),
        nonce=4,
    )
    to_acct = Transaction(MoveToAccount((OP1,), address_of_pubkey(A.pubkey), 4))
    to_utxo = Transaction(MoveToUtxo(address_of_pubkey(A.pubkey), 4, (p2pk(B, 4),)), nonce=2)
    return [spend, windowed, deploy, call, to_acct, to_utxo]


def test_writer_reader_round_trip():
    w = Writer()
    w.u8(7).u16(300).u32(70_000).u64(U64_MAX).bytes_(b"abc").opt_u64(None).opt_u64(9)
    r = Reader(w.done())
    assert (r.u8(), r.u16(), r.u32(), r.u64()) == (7, 300, 70_000, U64_MAX)
    assert r.bytes_() == b"abc"
    assert r.opt_u64() is None
    assert r.opt_u64() == 9
    r.finish()


def test_reader_rejects_truncation_and_trailing():
    with pytest.raises(ModelError):
        Reader(b"\x01").u32()
    r = Reader(b"\x01\x02")
    r.u8()
    with pytest.raises(ModelError):
        r.finish()


@given(st.integers(min_value=0, max_value=U64_MAX), st.binary(max_size=64))
@settings(max_examples=60)
def test_writer_reader_property(v, blob):
    r = Reader(Writer().u64(v).bytes_(blob).done())
    assert r.u64() == v
    assert r.bytes_() == blob
    r.finish()


def test_checked_arithmetic():
    assert checked_add(1, 2) == 3
    assert checked_sub(5, 5) == 0
    with pytest.raises(ModelError):
        checked_add(U64_MAX, 1)
    with pytest.raises(ModelError):
        checked_sub(1, 2)


def test_lock_round_trip_and_addresses():
    locks = [
        Lock.pay_to_pubkey(A.pubkey),
        Lock.multisig(2, [A.pubkey, B.pubkey]),
        Lock.pay_to_script(b"\x51\x69"),
    ]
    for lock in locks:
        r = Reader(lock.serialize())
        assert read_lock(r) == lock
        r.finish()
        assert len(lock.address()) == 32
    assert Lock.pay_to_pubkey(A.pubkey).address() == address_of_pubkey(A.pubkey)
    assert locks[1].address() != locks[2].address()


def test_lock_constructor_guards():
    with pytest.raises(ModelError):
        Lock.pay_to_pubkey(b"short")
    with pytest.raises(ModelError):
        Lock.multisig(3, [A.pubkey, B.pubkey])
    with pytest.raises(ModelError):
        Lock.multisig(0, [A.pubkey])
    with pytest.raises(ModelError):
        Lock.pay_to_script(b"\x00" * 2000)


def test_output_guards():
    with pytest.raises(ModelError):
        Output(0, Lock.pay_to_pubkey(A.pubkey))
    out = Output(5, Lock.pay_to_pubkey(A.pubkey), expiry=12)
    r = Reader(out.serialize())
    assert read_output(r) == out


def test_canonical_round_trip_all_kinds():
    for tx in sample_txs():
        data = canonical_serialize(tx)
        back = canonical_deserialize(data)
        assert canonical_serialize(back) == data
        assert txid(back) == txid(tx)


def test_canonical_deserialize_rejects_garbage():
    with pytest.raises(ModelError):
        canonical_deserialize(b"\xff\x00\x01")
    good = canonical_serialize(sample_txs()[0])
    with pytest.raises(ModelError):
        canonical_deserialize(good + b"\x00")


def test_txid_excludes_witnesses_auth_endorsement():
    tx = sample_txs()[0]
    base = txid(tx)
    with_wit = tx.with_witnesses([(b"\x01" * 64,), (b"\x02" * 64,)])
    assert txid(with_wit) == base
    deploy = sample_txs()[2]
    assert txid(deploy.with_auth(A.pubkey, b"\x03" * 64)) == txid(deploy)


def test_full_serialize_covers_witnesses():
    tx = sample_txs()[0]
    assert full_serialize(tx) != full_serialize(tx.with_witnesses([(b"\x01",), ()]))
    deploy = sample_txs()[2]
    assert full_serialize(deploy) != full_serialize(deploy.with_auth(A.pubkey, b"\x04" * 64))


def test_window_ordering_enforced():
    with pytest.raises(ModelError):
        Transaction(UtxoSpend((OP1,), (p2pk(A, 1),)), not_before=5, not_after=4)


def test_classify_level():
    spend, windowed, deploy, call, to_acct, to_utxo = sample_txs()
    assert classify_level(windowed) == Level.L1_5
    assert classify_level(spend) == Level.L2  # creates a script lock
    for tx in (deploy, call, to_acct, to_utxo):
        assert classify_level(tx) == Level.L3
    plain = Transaction(UtxoSpend((OP1,), (p2pk(A, 1),)))
    assert classify_level(plain) == Level.L1
    # A spent script lock is only visible with a UTXO view.
    view = {OP1: Output(2, Lock.pay_to_script(b"\x51"))}
    assert classify_level(plain, view) == Level.L2
    assert classify_level(plain, {}) == Level.L1


def test_level_ordering_and_labels():
    assert Level.L1 < Level.L1_5 < Level.L2 < Level.L3
    for lvl in Level:
        assert Level.from_label(lvl.label) == lvl
    with pytest.raises(ModelError):
        Level.from_label("L9")


def test_json_round_trip_all_kinds():
    for tx in sample_txs():
        loaded = tx_from_json_str(tx_to_json_str(tx))
        assert loaded == tx
        assert tx_to_json_str(loaded) == tx_to_json_str(tx)


def test_json_round_trip_with_attachments():
    tx = sample_txs()[3]
    tx = tx.with_auth(B.pubkey, b"\x01" * 64)
    tx = Transaction(
        tx.kind, tx.nonce, tx.not_before, tx.not_after, tx.witnesses, tx.auth,
        EndorsementData("per_user", A.pubkey, b"\x02" * 64, user_pubkey=B.pubkey, expiry=44),
    )
    assert tx_from_json_str(tx_to_json_str(tx)) == tx


def test_json_rejects_bad_hex_and_kind():
    with pytest.raises(ModelError):
        tx_from_json_str('{"kind":"utxo_spend","inputs":[{"txid":"zz","index":0}],"outputs":[]}')
    with pytest.raises(ModelError):
        tx_from_json_str('{"kind":"no_such_kind"}')
    op = '{"txid":"' + "11" * 32 + '","index":0}'
    with pytest.raises(ModelError):
        tx_from_json_str('{"kind":"utxo_spend","inputs":[' + op + '],"outputs":[{"amount":1,"lock":[]}]}')
    with pytest.raises(ModelError):
        tx_from_json_str(tx_to_json_str(sample_txs()[3])[:-1] + ',"access":"x"}')
    # An output that is not an object is reported as an input is.
    with pytest.raises(ModelError, match="^bad inputs: each item must be an object$"):
        tx_from_json_str('{"kind":"utxo_spend","inputs":[1],"outputs":[]}')
    with pytest.raises(ModelError, match="^bad outputs: each item must be an object$"):
        tx_from_json_str('{"kind":"utxo_spend","inputs":[' + op + '],"outputs":[1]}')


def test_per_transaction_endorsement_carries_no_user_fields():
    """The log leaves a per_transaction endorsement's user fields out, while
    full_serialize, and so the header's txs_hash, covers them: a value the
    log cannot hold is refused when it is made."""
    EndorsementData("per_transaction", A.pubkey, b"\x02" * 64)
    for user in ({"user_pubkey": b"\x07" * 32}, {"expiry": 9}, {"user_pubkey": b"\x07" * 32, "expiry": 9}):
        with pytest.raises(ModelError):
            EndorsementData("per_transaction", A.pubkey, b"\x02" * 64, **user)
        EndorsementData("per_user", A.pubkey, b"\x02" * 64, **user)


def test_output_decode_keeps_json_types_apart():
    """The output table reads what the reference decoder reads, and refuses
    what it refuses: a field that Python hashes equal to the one it holds
    but of another JSON type (1.0 or true for 1)."""
    pk = {"kind": "pubkey", "pubkey": "11" * 32}
    msig = {"kind": "multisig", "m": 1, "pubkeys": ["11" * 32, "22" * 32]}
    good = [
        {"amount": 1, "lock": pk},
        {"amount": 1, "lock": dict(pk), "memo": 0},
        {"amount": 1, "lock": msig, "expiry": 1},
        {"amount": 2, "lock": pk, "expiry": None},
        {"amount": 1, "lock": pk, "expiry": 1},
    ]
    bad = [
        {"amount": 1.0, "lock": pk},
        {"amount": True, "lock": pk},
        {"amount": 1, "lock": msig, "expiry": True},
        {"amount": 1, "lock": {**msig, "m": True}},
        {"amount": 1, "lock": {**msig, "m": 1.0}},
        {"amount": 1, "lock": {**pk, "pubkey": 1}},
    ]
    assert [model.OUTPUT_JSON.decode(obj) for obj in good] == [ref_output_from_json(obj) for obj in good]
    for obj in bad:
        for decode in (model.OUTPUT_JSON.decode, ref_output_from_json):
            with pytest.raises(ModelError):
                decode(obj)


def test_values_the_encoder_packs_are_range_checked_at_construction():
    # Before, these failed only when the transaction was first hashed.
    with pytest.raises(ModelError):
        AccessDecl(storage_read=frozenset({(b"\x03" * 32, -1)}))
    with pytest.raises(ModelError):
        AccessDecl(storage_written=frozenset({(b"\x03" * 32, U64_MAX + 1)}))
    with pytest.raises(ModelError):
        EndorsementData("per_user", A.pubkey, b"\x02" * 64, B.pubkey, expiry=-1)
    # JSON true would decode to a lock equal to m=1 and re-encode as true,
    # so a log edited from 1 to true would still verify.
    with pytest.raises(ModelError):
        Lock.multisig(True, [A.pubkey])


@given(st.binary(min_size=1, max_size=32), st.integers(min_value=0, max_value=200))
@settings(max_examples=60)
def test_outpoint_rejects_bad_txid_length(blob, idx):
    if len(blob) == 32:
        Outpoint(blob, idx)
    else:
        with pytest.raises(ModelError):
            Outpoint(blob, idx)
        with pytest.raises(ModelError):
            outpoint_range(blob, idx, idx + 1)


def test_outpoint_range_equals_the_constructor():
    tx_id = b"\x5c" * 32
    top = 2**32 - 1
    for start, stop in ((0, 40), (7, 9), (top - 2, top + 1), (5, 5)):
        built = outpoint_range(tx_id, start, stop)
        assert len(built) == stop - start
        for j, op in zip(range(start, stop), built):
            ref = Outpoint(tx_id, j)
            assert op == ref and hash(op) == hash(ref) and repr(op) == repr(ref)
            assert op.serialize() == ref.serialize() == encode(write_outpoint, ref)
            back = pickle.loads(pickle.dumps(op))
            assert back == ref and back.serialize() == ref.serialize()
            assert not op < ref and not ref < op
            assert Outpoint(tx_id, j - 1) < op if j else op < Outpoint(tx_id, j + 1)
        assert sorted(reversed(built)) == built
    for start, stop in ((top, top + 2), (-1, 1)):
        with pytest.raises(ModelError):
            outpoint_range(tx_id, start, stop)


# ---------------------------------------------------------------------------
# The struct-packing encoder against the reference Writer encoder

_addr = st.binary(min_size=32, max_size=32)
_blob = st.binary(max_size=40)
_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_u64 = st.integers(min_value=0, max_value=U64_MAX)
_opt_u64 = st.none() | _u64


@st.composite
def _multisig(draw):
    pks = draw(st.lists(_addr, min_size=1, max_size=16))
    return Lock.multisig(draw(st.integers(min_value=1, max_value=len(pks))), pks)


_locks = st.one_of(
    st.builds(Lock.pay_to_pubkey, _addr),
    _multisig(),
    st.builds(Lock.pay_to_script, st.binary(max_size=80)),
)
_outputs = st.builds(Output, st.integers(min_value=1, max_value=U64_MAX), _locks, _opt_u64)
_outpoints = st.builds(Outpoint, _addr, _u32)
_access = st.none() | st.builds(
    AccessDecl,
    st.frozensets(_blob, max_size=3),
    st.frozensets(_blob, max_size=3),
    st.frozensets(st.tuples(_blob, _u64), max_size=3),
    st.frozensets(st.tuples(_blob, _u64), max_size=3),
    st.frozensets(_blob, max_size=3),
)
_kinds = st.one_of(
    st.builds(
        UtxoSpend,
        st.lists(_outpoints, min_size=1, max_size=4).map(tuple),
        st.lists(_outputs, min_size=1, max_size=4).map(tuple),
    ),
    st.builds(Deploy, st.binary(max_size=80), _u64, _addr, _u64, _u64, _access),
    st.builds(
        Call, _addr, _u64, _u64, _addr, _u64, _u64, _access,
        st.lists(_addr, max_size=3).map(tuple),
    ),
    st.builds(MoveToAccount, st.lists(_outpoints, min_size=1, max_size=4).map(tuple), _addr, _u64),
    st.builds(MoveToUtxo, _addr, _u64, st.lists(_outputs, min_size=1, max_size=4).map(tuple)),
)
# A per_transaction endorsement keeps the user fields' defaults.
_endorsements = (
    st.none()
    | st.builds(EndorsementData, st.just("per_transaction"), _blob, _blob)
    | st.builds(EndorsementData, st.just("per_user"), _blob, _blob, _blob, _u64)
)


@st.composite
def random_txs(draw):
    window = sorted(draw(st.lists(_u64, min_size=2, max_size=2)))
    not_before = draw(st.none() | st.just(window[0]))
    not_after = draw(st.none() | st.just(window[1]))
    return Transaction(
        draw(_kinds),
        nonce=draw(_u64),
        not_before=not_before,
        not_after=not_after,
        witnesses=draw(st.lists(st.lists(_blob, max_size=3).map(tuple), max_size=3).map(tuple)),
        auth=draw(st.none() | st.builds(AccountAuth, _blob, _blob)),
        endorsement=draw(_endorsements),
    )


@given(random_txs())
@settings(max_examples=300, deadline=None)
def test_encoder_matches_reference_encoder(tx):
    body = canonical_serialize(tx)
    assert body == ref_canonical_serialize(tx)
    assert txid(tx) == ref_txid(tx)
    assert full_serialize(tx) == ref_full_serialize(tx)
    assert canonical_serialize(canonical_deserialize(body)) == body
    k = tx.kind
    for op in getattr(k, "inputs", ()):
        assert op.serialize() == encode(write_outpoint, op)
    for out in getattr(k, "outputs", ()):
        assert out.serialize() == encode(write_output, out)
        assert out.lock.serialize() == encode(write_lock, out.lock)


@given(_outputs)
@settings(max_examples=300, deadline=None)
def test_output_table_encodes_as_the_reference_encoder(out):
    """Every lock kind, with and without expiry: the output table writes
    what the per-output encoder it replaced wrote."""
    assert model.OUTPUT_JSON.encode(out) == canonical_json(ref_output_json(out))


@given(random_txs())
@settings(max_examples=300, deadline=None)
def test_json_round_trip_of_every_kind_and_optional_field(tx):
    text = tx_to_json_str(tx)
    back = tx_from_json_str(text)
    assert back == tx
    assert full_serialize(back) == full_serialize(tx)
    assert tx_to_json_str(back) == text


@given(random_txs())
@settings(max_examples=300, deadline=None)
def test_transaction_text_is_canonical_json_of_the_reference_object(tx):
    assert tx_to_json_str(tx) == canonical_json(ref_tx_json(tx))


@given(st.lists(random_txs(), max_size=4), st.lists(st.integers(0, 3), max_size=6), _u64, _u64)
@settings(max_examples=100, deadline=None)
def test_batch_text_is_canonical_json_with_repeated_transactions_and_outputs(txs, repeats, number, epoch):
    """A transaction listed twice, and so its output objects, is written
    again in full each time."""
    txs += [txs[i] for i in repeats if i < len(txs)]
    want = {"batch": number, "epoch": epoch, "txs": [ref_tx_json(tx) for tx in txs]}
    assert ledger._encode_batch(number, epoch, txs) == canonical_json(want)


_receipts = st.builds(ledger.Receipt, _addr, st.sampled_from([0, 1, 104, 500, 999_999]) | _u64, _u64,
                      st.sampled_from(list(Level)), _addr)
_headers = st.builds(ledger.BatchHeader, _u64, _u64, _addr, _addr, _addr, _addr, _addr)


@given(_headers, st.lists(_receipts, max_size=4))
@settings(max_examples=200, deadline=None)
def test_header_file_text_is_canonical_json_of_the_reference_objects(header, receipts):
    want = {"header": ref_header_json(header), "receipts": [ref_receipt_json(r) for r in receipts]}
    assert ledger._encode_header(header, receipts) == canonical_json(want)
    for r in receipts:
        assert r.to_json() == ref_receipt_json(r)


# Names an intermediary may take: non-ASCII, control characters, quotes,
# braces and the separators JSON escapes.
_names = st.text(max_size=6) | st.sampled_from(["bänk", "\x00\n\t\x1f", '"{}"\\', "\u2028\ud7ff", "card\U0001f600"])


@st.composite
def _configs(draw):
    registry = draw(st.lists(st.tuples(_names, _addr), max_size=3, unique_by=(lambda e: e[0], lambda e: e[1])))
    policy = permission.PermissionPolicy
    policies = [policy.open(), policy.allow_list(draw(st.lists(_addr, max_size=3)))]
    if registry:
        policies += [policy.endorsed(g) for g in ("per_transaction", "per_user")]
    return rules.SystemConfig(
        max_level=draw(st.sampled_from(list(Level))), initial_subsidy=draw(_u64),
        halving_interval=draw(st.integers(1, U64_MAX)), min_fee=draw(_u64), min_gas_price=draw(_u64),
        covenants=draw(st.booleans()), access_mode=draw(st.sampled_from([rules.ACCESS_DECLARED, rules.ACCESS_DYNAMIC])),
        allow_list=draw(st.none() | st.frozensets(_addr, max_size=3)), expiry_enabled=draw(st.booleans()),
        operator_pubkey=draw(_addr), deploy_policy=draw(st.sampled_from(policies)),
        call_policy=draw(st.sampled_from(policies)), intermediary_registry=tuple(registry),
    )


@given(_configs())
@settings(max_examples=200, deadline=None)
def test_genesis_text_is_canonical_json_of_the_reference_object(cfg):
    text = cfg.to_json_str()
    assert text == canonical_json(ref_genesis_json(cfg))
    assert rules.SystemConfig.from_json(json.loads(text)) == cfg


def test_genesis_text_escapes_every_intermediary_name_as_json_does():
    registry = tuple((name, bytes([i + 1]) * 32) for i, name in enumerate(
        ["bänk", "\x00\n\t\x1f", '"{}"\\', "\u2028", "card\U0001f600"]
    ))
    for policy in (permission.PermissionPolicy.endorsed("per_user"),
                   permission.PermissionPolicy.allow_list([b"\x09" * 32, b"\x02" * 32])):
        cfg = rules.SystemConfig(call_policy=policy, intermediary_registry=registry)
        text = cfg.to_json_str()
        assert text.isascii() and text == canonical_json(ref_genesis_json(cfg))
        assert rules.SystemConfig.from_json(json.loads(text)) == cfg


def _fields(make) -> list[str]:
    """The names make takes one by one, in order."""
    params = inspect.signature(make).parameters.values()
    return [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]


def _row_attrs(table: model.JsonTable) -> list[str]:
    return [row.attr or row.key for row in table.rows if row.default is not model.DERIVED]


def test_each_log_table_covers_its_record():
    """Every field of a log record has a row, in the order the table's
    constructor takes it, apart from derived keys such as status_name. A
    field added later cannot be left out of the log silently."""
    records = {
        model.OUTPOINT_JSON: Outpoint,
        model.OUTPUT_JSON: Output,
        model.ACCESS_JSON: AccessDecl,
        model.AUTH_JSON: AccountAuth,
        ledger.RECEIPT_JSON: ledger.Receipt,
        ledger.HEADER_JSON: ledger.BatchHeader,
        rules.GENESIS_JSON: rules.SystemConfig,
        permission.INTERMEDIARY_JSON: permission.Intermediary,
    }
    for table, cls in records.items():
        assert _row_attrs(table) == _fields(table.make) == _fields(cls)
    assert [row.key for row in ledger.RECEIPT_JSON.rows if row.default is model.DERIVED] == ["status_name"]
    # Each genesis key reads, when absent, as the config's own default.
    defaults = [f.default_factory() if f.default is dataclasses.MISSING else f.default
                for f in dataclasses.fields(rules.SystemConfig)]
    assert [row.default for row in rules.GENESIS_JSON.rows] == defaults
    assert rules.SystemConfig.from_json({}) == rules.SystemConfig()
    tagged_records = (
        (model.LOCK_JSON, Lock), (model.ENDORSEMENT_JSON, EndorsementData),
        (permission.POLICY_JSON, permission.PermissionPolicy),
    )
    for tagged, cls in tagged_records:
        covered = {tagged.key}
        for table in tagged.variants.values():
            assert _row_attrs(table) == _fields(table.make)
            covered.update(_row_attrs(table))
        assert covered == {f.name for f in dataclasses.fields(cls) if f.init}
    for kind, table in model.TX_JSON.variants.items():
        attrs = _row_attrs(table)
        envelope = [a for a in attrs if "." not in a]
        assert [model.TX_JSON.key, *envelope] == _fields(Transaction)
        assert envelope == _fields(table.make)
        assert [a.removeprefix("kind.") for a in attrs if "." in a] == _fields(kind)


def test_changed_copies_never_carry_stale_bytes():
    out = Output(5, Lock.pay_to_pubkey(A.pubkey), expiry=3)
    script = Lock.pay_to_script(b"\x51")
    for changed in (replace(out, amount=7), replace(out, expiry=None), replace(out, lock=script)):
        assert changed.serialize() == encode(write_output, changed) != out.serialize()
    moved = replace(OP1, index=9)
    assert moved.serialize() == encode(write_outpoint, moved) != OP1.serialize()
    for tx in sample_txs():
        body, tx_id = canonical_serialize(tx), txid(tx)
        bumped = replace(tx, nonce=tx.nonce + 1)
        assert canonical_serialize(bumped) == ref_canonical_serialize(bumped) != body
        assert txid(bumped) == ref_txid(bumped) != tx_id
        signed = tx.with_witnesses([(b"\x07" * 64,)]).with_auth(A.pubkey, b"\x08" * 64)
        assert txid(signed) == tx_id
        assert full_serialize(signed) == ref_full_serialize(signed) != full_serialize(tx)


def test_slotted_values_pickle_compare_hash_and_order_as_before():
    lock = Lock.multisig(2, [A.pubkey, B.pubkey])
    out = Output(9, lock, expiry=4)
    for value in (OP1, out, lock, Lock.pay_to_script(b"\x51"), Lock.pay_to_pubkey(A.pubkey)):
        assert not hasattr(value, "__dict__")
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
        assert back.serialize() == value.serialize()
    # Equality and hashing cover the declared fields only, never the bytes.
    assert hash(OP1) == hash((OP1.txid, OP1.index))
    assert hash(out) == hash((out.amount, out.lock, out.expiry))
    assert Output(9, Lock.multisig(2, [A.pubkey, B.pubkey]), 4) == out
    assert Output(9, lock) != out
    # Outpoints order by (txid, index), as apply_expiry's sort needs.
    ops = [Outpoint(bytes([b]) * 32, i) for b in (3, 1, 2) for i in (2, 0, 1)]
    assert sorted(ops) == sorted(ops, key=lambda op: (op.txid, op.index))
    assert Outpoint(b"\x01" * 32, 5) < Outpoint(b"\x02" * 32, 0) < Outpoint(b"\x02" * 32, 1)
    tx = sample_txs()[0]
    txid(tx)
    back = pickle.loads(pickle.dumps(tx))
    assert back == tx and txid(back) == ref_txid(tx)
