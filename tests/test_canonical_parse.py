"""The canonical-text parser against the whole-file decoder. read_tx must
read exactly the texts that tx_from_json decodes to a transaction whose
encoding is that text, and read them into equal records; tx_from_json_str,
which tries it first, must return and raise what the decoder does."""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KEYS
from test_model import random_txs, sample_txs
from tierledger import ledger
from tierledger.model import (
    TX_JSON,
    U64_MAX,
    AccessDecl,
    Call,
    EndorsementData,
    JsonTagged,
    Lock,
    ModelError,
    Output,
    Transaction,
    UtxoSpend,
    full_serialize,
    read_json,
    read_tx,
    tx_from_json,
    tx_from_json_str,
    tx_to_json_str,
    txid,
)

A = KEYS[0].pubkey


def decoder_accepts(text: str) -> bool:
    """Whether the whole-file decoder takes text as one transaction's
    canonical text."""
    try:
        return tx_to_json_str(tx_from_json(read_json(text))) == text
    except ModelError:
        return False


def parser_reads(text: str):
    """The transaction read_tx reads from the whole of text, or None."""
    try:
        tx, end = read_tx(text, 0, {})
    except ModelError:
        return None
    return tx if end == len(text) else None


@given(random_txs())
@settings(max_examples=300, deadline=None)
def test_honest_text_reads_as_the_decoder_reads_it(tx):
    text = tx_to_json_str(tx)
    want = tx_from_json(json.loads(text))
    # Read in place, between other text, as a batch file holds it.
    got, end = read_tx(f'[{text},"', 1, {})
    assert end == len(text) + 1
    assert got == want == tx
    assert txid(got) == txid(want) and full_serialize(got) == full_serialize(want)
    assert tx_from_json_str(text) == want


# Characters that change what a JSON text means, or that the canonical form
# refuses: digits, hex digits of both cases, structure, signs, exponents,
# escapes, whitespace and the letters of true, false and null.
EDIT_CHARS = '0123456789abcdefABCDEF",:{}[]-+.eE\\u tnrl'


@given(random_txs(), st.data())
@settings(max_examples=400, deadline=None)
def test_edited_text_is_read_exactly_when_the_decoder_takes_it(tx, data):
    """One byte flipped, inserted or deleted."""
    text = tx_to_json_str(tx)
    at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from(EDIT_CHARS))
    edit = data.draw(st.sampled_from(["flip", "insert", "delete"]))
    edited = {
        "flip": text[:at] + char + text[at + 1:],
        "insert": text[:at] + char + text[at:],
        "delete": text[:at] + text[at + 1:],
    }[edit]
    got = parser_reads(edited)
    assert (got is not None) == decoder_accepts(edited), edited
    if got is not None:
        assert got == tx_from_json(read_json(edited))


def _call(**envelope) -> Transaction:
    access = AccessDecl(
        balances_read=frozenset({b"\x01" * 32, b"\x02" * 32}),
        storage_read=frozenset({(b"\x03" * 32, 4), (b"\x03" * 32, 10)}),
        storage_written=frozenset({(b"\x03" * 32, 5)}),
    )
    return Transaction(Call(b"\x05" * 32, 9, 1, b"\x06" * 32, 50, 1, access, (b"\x07" * 32,)), **envelope)


SPEND = tx_to_json_str(Transaction(UtxoSpend(
    sample_txs()[0].kind.inputs[:1], (Output(7, Lock.pay_to_pubkey(A)), Output(3, Lock.multisig(1, [A]), 0)),
), nonce=3, witnesses=((b"\x09" * 4,),)))
CALL = tx_to_json_str(_call(nonce=2, endorsement=EndorsementData("per_transaction", A, b"\x02" * 64)))
HEX_01, HEX_02, HEX_03 = "01" * 32, "02" * 32, "03" * 32
SLOTS = f'["{HEX_03}",4],["{HEX_03}",10]'


def _first_a(text: str, key: str, written: str) -> str:
    """text with the first "a" of key's hex value written as written."""
    at = text.index("a", text.index(f'"{key}":"'))
    return text[:at] + written + text[at + 1:]


def _in_endorsement(text: str, piece: str) -> str:
    """text with piece written last in its endorsement."""
    at = text.index("}", text.index('"endorsement":'))
    return text[:at] + piece + text[at:]


# Texts a hand-written parser could get wrong: each is (text, whether the
# decoder takes it). The honest texts hold an output with expiry 0, a
# per_transaction endorsement and slots whose keys order apart from their text.
HOSTILE = {
    "honest spend": (SPEND, True),
    "honest call": (CALL, True),
    "leading zero": (SPEND.replace('"amount":7,', '"amount":07,'), False),
    "minus zero": (SPEND.replace('"expiry":0', '"expiry":-0'), False),
    "negative nonce": (SPEND.replace('"nonce":3', '"nonce":-3'), False),
    "nonce of 2**64": (SPEND.replace('"nonce":3', f'"nonce":{U64_MAX + 1}'), False),
    "nonce of 2**64 - 1": (SPEND.replace('"nonce":3', f'"nonce":{U64_MAX}'), True),
    "an int of 5,000 digits": (SPEND.replace('"nonce":3', '"nonce":' + "9" * 5000), False),
    "true for an int": (SPEND.replace('"amount":7,', '"amount":true,'), False),
    "a float amount": (SPEND.replace('"amount":7,', '"amount":1.0,'), False),
    "true for m": (SPEND.replace('"m":1,', '"m":true,'), False),
    "a float m": (SPEND.replace('"m":1,', '"m":1.0,'), False),
    "a float expiry": (SPEND.replace('"expiry":0', '"expiry":9.0'), False),
    "an exponent": (SPEND.replace('"amount":7,', '"amount":7e0,'), False),
    "odd-length hex": (SPEND.replace('"09090909"', '"0909090"'), False),
    "upper-case hex": (_first_a(CALL, "intermediary_pubkey", "A"), False),
    "an escaped hex digit": (CALL.replace(f'"{HEX_01}', f'"\\u0030{HEX_01[1:]}', 1), False),
    "an escaped hex letter": (_first_a(CALL, "intermediary_pubkey", "\\u0061"), False),
    "not_before null": (SPEND.replace('"nonce":3', '"nonce":3,"not_before":null'), False),
    "witnesses empty": (CALL[:-1] + ',"witnesses":[]}', False),
    "address_consts empty": (CALL.replace(f'"address_consts":["{"07" * 32}"]', '"address_consts":[]'), False),
    "balances out of order": (CALL.replace(f'"{HEX_01}","{HEX_02}"', f'"{HEX_02}","{HEX_01}"'), False),
    "a balance twice": (CALL.replace(f'"{HEX_01}","{HEX_02}"', f'"{HEX_01}","{HEX_01}"'), False),
    "slots in text order": (CALL.replace(SLOTS, f'["{HEX_03}",10],["{HEX_03}",4]'), False),
    "a slot twice": (CALL.replace(SLOTS, f'["{HEX_03}",4],["{HEX_03}",4]'), False),
    "per_transaction expiry 0": (CALL.replace('{"granularity"', '{"expiry":0,"granularity"'), False),
    "per_transaction user_pubkey empty": (_in_endorsement(CALL, ',"user_pubkey":""'), False),
    "per_transaction user_pubkey": (_in_endorsement(CALL, f',"user_pubkey":"{HEX_01}"'), False),
    "stray key": (SPEND[:-1] + ',"memo":1}', False),
    "space after a comma": (SPEND.replace(',"kind"', ', "kind"'), False),
    "kind of another variant": (CALL.replace('"kind":"call"', '"kind":"deploy"'), False),
    "unknown kind": (CALL.replace('"kind":"call"', '"kind":"calls"'), False),
    "no kind": (CALL.replace('"kind":"call",', ""), False),
    "trailing comma in an array": (SPEND.replace('"09090909"]', '"09090909",]'), False),
    "no inputs": (SPEND.replace(SPEND[SPEND.index('"inputs":[') + 10:SPEND.index('],"kind"')], ""), False),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_text_is_read_exactly_when_the_decoder_takes_it(case):
    text, taken = HOSTILE[case]
    assert decoder_accepts(text) is taken
    got = parser_reads(text)
    assert (got is not None) is taken
    if taken:
        assert got == tx_from_json(read_json(text))


def test_the_first_kind_key_in_a_transactions_text_is_its_own():
    """read_tx picks a kind's parser by the first "kind" key after the
    transaction's start: no record written before a transaction's own
    "kind" key has one."""

    def keys(table) -> set:
        tables = table.variants.values() if isinstance(table, JsonTagged) else (table,)
        found = set()
        for t in tables:
            found |= {row.key for row in t.rows} | ({t.tag[0]} if t.tag else set())
            found |= set().union(*[keys(row.kind.table) for row in t.rows if row.kind.table is not None])
        return found

    for variant in TX_JSON.variants.values():
        for row in variant.rows:
            if row.key < TX_JSON.key and row.kind.table is not None:
                assert TX_JSON.key not in keys(row.kind.table), (variant.tag, row.key)


def test_a_batch_builds_each_lock_output_and_access_list_once():
    outs = (Output(7, Lock.pay_to_pubkey(A)), Output(7, Lock.pay_to_pubkey(A), 9), Output(8, Lock.multisig(1, [A])))
    spend = Transaction(UtxoSpend(sample_txs()[0].kind.inputs, outs * 3))
    txs = [spend, _call(nonce=1), _call(nonce=2), spend]
    raw = ledger._encode_batch(1, 2, txs).encode()
    read = list(ledger._batch_txs(raw, ledger._batch_head(raw, 1)[1]))
    assert read == txs
    outputs = [out for tx in (read[0], read[3]) for out in tx.kind.outputs]
    assert len({id(out) for out in outputs}) == 3
    assert outputs[0].lock is outputs[1].lock
    assert read[1].kind.access is read[2].kind.access
    # Each transaction read alone gets its own objects.
    alone = [tx_from_json_str(tx_to_json_str(tx)) for tx in (spend, spend)]
    assert alone[0].kind.outputs[0] is not alone[1].kind.outputs[0]


# tx_from_json_str's refusals in test_model.py, and texts it must decode
# although they are not canonical.
OP = '{"txid":"' + "11" * 32 + '","index":0}'
NOT_TRANSACTIONS = [
    '{"kind":"utxo_spend","inputs":[{"txid":"zz","index":0}],"outputs":[]}',
    '{"kind":"no_such_kind"}',
    '{"kind":"utxo_spend","inputs":[' + OP + '],"outputs":[{"amount":1,"lock":[]}]}',
    tx_to_json_str(sample_txs()[3])[:-1] + ',"access":"x"}',
    tx_to_json_str(sample_txs()[0])[:-1],
    '[]',
]


@pytest.mark.parametrize("text", NOT_TRANSACTIONS)
def test_tx_from_json_str_raises_what_the_decoder_raises(text):
    with pytest.raises(ModelError) as want:
        tx_from_json(read_json(text))
    with pytest.raises(ModelError) as got:
        tx_from_json_str(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("i", range(len(sample_txs())))
def test_tx_from_json_str_reads_canonical_and_other_text_as_the_decoder(i):
    text = tx_to_json_str(sample_txs()[i])
    spaced = json.dumps(json.loads(text), indent=1)
    for s in (text, spaced, text.upper().replace('"KIND"', '"kind"')):
        try:
            want = tx_from_json(read_json(s))
        except ModelError:
            continue
        assert tx_from_json_str(s) == want
    assert tx_from_json_str(spaced) == tx_from_json_str(text) == sample_txs()[i]


# A transaction read whole from its canonical text keeps that text, and the
# batch file joins it. These hold the kept text to the encoder.


def kept(tx: Transaction):
    return tx.__dict__.get("_text")


def test_every_kind_keeps_the_text_it_was_read_from():
    assert {type(tx.kind) for tx in sample_txs()} == set(TX_JSON.variants)
    for tx in sample_txs():
        text = TX_JSON.encode(tx)
        got = tx_from_json_str(text)
        assert kept(got) is text and tx_to_json_str(got) is text


@given(random_txs())
@settings(max_examples=200, deadline=None)
def test_a_transaction_read_whole_from_its_text_keeps_it(tx):
    text = TX_JSON.encode(tx)
    got = tx_from_json_str(text)
    assert kept(got) is text and tx_to_json_str(got) is text
    assert kept(tx) is None and tx_to_json_str(tx) == text


@st.composite
def edited_texts(draw) -> str:
    """A transaction's canonical text with one byte flipped, inserted or
    deleted, drawn as test_edited_text_is_read_exactly_when_the_decoder_takes_it
    draws it."""
    text = tx_to_json_str(draw(random_txs()))
    at = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from(EDIT_CHARS))
    edit = draw(st.sampled_from(["flip", "insert", "delete"]))
    return {
        "flip": text[:at] + char + text[at + 1:],
        "insert": text[:at] + char + text[at:],
        "delete": text[:at] + text[at + 1:],
    }[edit]


@given(edited_texts())
@settings(max_examples=400, deadline=None)
def test_kept_text_is_what_the_encoder_writes_for_the_decoded_transaction(edited):
    """The parser decides what the log holds: whatever it reads, it keeps,
    and that must be the encoding of the decoder's transaction."""
    try:
        want = TX_JSON.encode(tx_from_json(read_json(edited)))
    except ModelError:
        want = None
    if parser_reads(edited) is None:
        if want is not None:
            assert kept(tx_from_json_str(edited)) is None
        return
    got = tx_from_json_str(edited)
    assert kept(got) is edited
    assert tx_to_json_str(got) == want


def _reordered(text: str) -> str:
    """text with every record's keys written in reverse order."""
    return json.dumps(json.loads(text, object_pairs_hook=lambda pairs: dict(reversed(pairs))), separators=(",", ":"))


@pytest.mark.parametrize("i", range(len(sample_txs())))
def test_text_only_the_decoder_reads_keeps_nothing(i):
    text = tx_to_json_str(sample_txs()[i])
    spaced = json.dumps(json.loads(text), indent=1)
    upper = text.upper().replace('"KIND"', '"kind"')
    decoded = 0
    for s in (spaced, upper, _reordered(text)):
        assert s != text
        try:
            want = tx_from_json(read_json(s))
        except ModelError:
            continue
        got = tx_from_json_str(s)
        decoded += 1
        assert kept(got) is None
        assert tx_to_json_str(got) == TX_JSON.encode(want) == text != s
    assert decoded >= 2


@pytest.mark.parametrize("i", range(len(sample_txs())))
def test_a_changed_copy_encodes_its_own_fields(i):
    read = tx_from_json_str(tx_to_json_str(sample_txs()[i]))
    copies = [
        read.with_witnesses([(b"\x0a" * 3,), ()]),
        read.with_auth(A, b"\x0b" * 64),
        dataclasses.replace(read, nonce=read.nonce + 1),
    ]
    for copy in copies:
        assert kept(copy) is None
        assert tx_to_json_str(copy) == TX_JSON.encode(dataclasses.replace(copy)) != kept(read)


@given(st.lists(random_txs(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_a_batch_of_transactions_read_from_text_is_written_byte_for_byte(txs):
    """write_batch_files joins the kept texts: the file is the one written
    from the same transactions built in memory."""
    read = [tx_from_json_str(TX_JSON.encode(tx)) for tx in txs]
    assert all(kept(tx) is not None for tx in read)
    header = ledger.BatchHeader(3, 4, *(bytes([i]) * 32 for i in range(5)))
    files = []
    with tempfile.TemporaryDirectory() as built, tempfile.TemporaryDirectory() as received:
        for logdir, batch in ((built, txs), (received, read)):
            ledger.write_batch_files(logdir, 3, 4, batch, header, [])
            files.append([(Path(logdir) / name).read_bytes() for name in ("batch_000003.json", "header_000003.json")])
    assert files[0] == files[1]
    assert files[0][0] == ledger._encode_batch(3, 4, [dataclasses.replace(tx) for tx in txs]).encode()
