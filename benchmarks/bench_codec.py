"""Codec cost: µs per canonical encode by transaction kind; the decode,
JSON re-encode and txid of one 1000-output fan-out transaction; the decode
and re-encode of a batch of 200 declared calls; µs per transaction to read
a batch file's transactions the earlier way and with read_tx; the check of
a header file of 1,000 receipts; the replay of a batch holding one
1000-output fan-out, along replay's path and in the whole-file stages that
name a divergence;
put_utxos of 10k outputs at once against put_utxos of each alone;
and the tracked objects and the memory that 10k UTXOs add to a ledger state.

Each encode is timed on a fresh Transaction instance (a copy made before
the clock starts), so a cached encoding is never what is measured. The
fan-out is decoded from its canonical JSON by tx_from_json_str, as the
benchmark's set-up decodes it; its txid is timed on a freshly decoded
instance. The
10k outputs written both ways and for the memory figures are that fan-out's
outputs, decoded ten times. Their memory is what tracemalloc counts as
still allocated once the state is built, so it does not depend on how much
freed memory the allocator had to reuse, as a resident-set difference does.

The call batch is what contracts-declared replays: each call has an
access list of two storage slots and two balances, an auth and an address
constant, and its caller, contract and argument vary. Its decode and
re-encode are the whole-file ones (_decode_txs and _encode_batch), per
transaction, which replay_verify runs only to name a divergence.

A batch file's transactions are read two ways, in µs per transaction:
the earlier way, as replay read each transaction before read_tx (parse
one JSON value at its place in the text, decode it, re-encode it and
compare the text; the decode builds each output afresh, where replay then
kept a batch's repeated outputs once), and by _batch_txs, which reads each
with read_tx, its kind's canonical-text parser. Both read the call batch,
a batch holding the fan-out, and a batch holding one transaction of each
kind in sample_kinds; each read by read_tx starts from a fresh intern
table.

The header file check is timed two ways, in µs per receipt. The decode
check is what replay_verify ran on every batch before it checked bytes
first: parse the file, decode its header and receipts, compare them with
the recomputed ones, then compare the file with their encoding. The byte
check is what replay now runs on a batch that verifies: the encoding
compared with the file. Its receipts mix three statuses and the four
levels.

The replayed batch holds one fan-out with the output mix of perfbench's
pay-10k set-up: 900 outputs to 100 keys and 100 to 2-of-3 multisig locks,
all of one amount, shuffled; 200 distinct locks, five outputs per lock on
average. Replay's path is what replay_verify runs on each batch file:
_batch_head, then apply_batch over _batch_txs, which reads each
transaction from its canonical text as apply_batch asks for it. The
whole-file stages are what replay_verify runs only to name a divergence
(and ran on every batch before it streamed the file): read_json of the
batch file's bytes, decoding its transactions from the parsed JSON,
re-encoding them for the byte-identity check, and apply_batch on the
decoded list. Each run starts from a copy of the state before the batch.
Both ways of writing the 10k outputs build
their outpoints inside the timed loop, as the transfer routine does.

Times are medians over the repetitions; raw wall clock, not scaled by a
host reference.

Usage: python benchmarks/bench_codec.py [repetitions]
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import statistics
import sys
import time
import tracemalloc
from typing import Callable, Optional

from tierledger import codes, crypto, ledger, rules
from tierledger.model import (
    AccessDecl,
    Level,
    Call,
    Deploy,
    Lock,
    MoveToAccount,
    MoveToUtxo,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    canonical_serialize,
    read_json,
    sha256,
    tx_from_json,
    tx_from_json_str,
    tx_to_json_str,
    txid,
)

FANOUT = 1_000
RECEIPTS = 1_000
CALLS = 200
UTXOS = 10_000
REPLAY_LOCKS = 200  # 100 single-key locks and 100 multisig locks
COPIES = 2_000  # fresh instances per kind and repetition
KEYS = [crypto.keygen(bytes([i]) * 32) for i in range(1, 4)]
ADDRS = [address_of_pubkey(kp.pubkey) for kp in KEYS]
OPS = [Outpoint(sha256(b"in" + bytes([i])), i) for i in range(2)]


def pay(i: int, amount: int, expiry: Optional[int] = None) -> Output:
    return Output(amount, Lock.pay_to_pubkey(KEYS[i % 3].pubkey), expiry)


def sample_kinds() -> dict[str, Transaction]:
    access = AccessDecl(
        balances_read=frozenset(ADDRS[:2]),
        balances_written=frozenset(ADDRS[1:]),
        storage_read=frozenset((ADDRS[0], k) for k in range(3)),
        storage_written=frozenset((ADDRS[0], k) for k in range(2)),
        callees=frozenset(ADDRS[2:]),
    )
    multisig = Lock.multisig(2, [kp.pubkey for kp in KEYS])
    sigs = ((b"\x01" * 64,), (b"\x02" * 64,))
    return {
        "utxo_spend/p2pk": Transaction(UtxoSpend(tuple(OPS), (pay(0, 60), pay(1, 39)))),
        "utxo_spend/multisig": Transaction(UtxoSpend(tuple(OPS), (Output(99, multisig, 40),))),
        "utxo_spend/script": Transaction(
            UtxoSpend((OPS[0],), (Output(50, Lock.pay_to_script(b"\x51" * 40)),)), not_before=3
        ),
        "deploy": Transaction(Deploy(b"\x00" * 200, 5, ADDRS[0], 10_000, 1, access), nonce=1),
        "call": Transaction(Call(ADDRS[2], 7, 0, ADDRS[0], 5_000, 1, access, (ADDRS[1],)), nonce=2),
        "move_to_account": Transaction(MoveToAccount(tuple(OPS), ADDRS[1], 90)).with_witnesses(sigs),
        "move_to_utxo": Transaction(MoveToUtxo(ADDRS[0], 30, (pay(1, 29),)), nonce=3),
    }


def median_of(reps: int, run: Callable[[], float]) -> float:
    return statistics.median(run() for _ in range(reps))


def encode_us(tx: Transaction, reps: int) -> float:
    def once() -> float:
        fresh = [dataclasses.replace(tx) for _ in range(COPIES)]
        t0 = time.perf_counter()
        for copy in fresh:
            canonical_serialize(copy)
        return (time.perf_counter() - t0) / COPIES * 1e6

    return median_of(reps, once)


def timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def call_batch() -> list[Transaction]:
    """CALLS declared calls, as contracts-declared replays them."""
    rng = random.Random(7)
    contracts = [sha256(b"contract" + bytes([i])) for i in range(4)]
    txs = []
    for i in range(CALLS):
        caller, contract = sha256(b"caller" + i.to_bytes(4, "little")), rng.choice(contracts)
        access = AccessDecl(
            balances_read=frozenset({caller}),
            balances_written=frozenset({caller, contract}),
            storage_read=frozenset({(contract, 0), (contract, 1 + i % 3)}),
            storage_written=frozenset({(contract, 0)}),
        )
        call = Call(contract, rng.randrange(1000), 0, caller, 5_000, 1, access, (ADDRS[i % 3],))
        txs.append(Transaction(call, nonce=i % 5).with_auth(KEYS[i % 3].pubkey, sha256(bytes([i])) * 2))
    return txs


def call_batch_us(reps: int) -> tuple[float, float]:
    """Median µs per transaction to decode, and to re-encode, a batch file of
    CALLS declared calls."""
    txs = call_batch()
    raw = ledger._encode_batch(1, 2, txs)
    txs_json = read_json(raw)["txs"]
    decode_s = median_of(reps, lambda: timed(lambda: ledger._decode_txs(txs_json)))
    reencode_s = median_of(reps, lambda: timed(lambda: ledger._encode_batch(1, 2, txs)))
    return 1e6 * decode_s / CALLS, 1e6 * reencode_s / CALLS


def earlier_read(text: str, at: int) -> list[Transaction]:
    """The transactions of a batch file's text from the end of its head at
    at, read as replay read them before read_tx."""
    decoder, txs = json.JSONDecoder(), []
    end = len(text) - 2
    while at < end:
        obj, stop = decoder.raw_decode(text, at)
        tx = tx_from_json(obj)
        if text[at:stop] != tx_to_json_str(tx):
            raise ValueError("not canonical")
        txs.append(tx)
        at = stop + 1
    return txs


def read_us(txs: list[Transaction], reps: int) -> tuple[float, float]:
    """Median µs per transaction to read the batch file of txs the earlier
    way and by _batch_txs, over enough reads of it to hold 2,000
    transactions."""
    raw = ledger._encode_batch(1, 2, txs).encode()
    at = ledger._batch_head(raw, 1)[1]
    text = raw.decode("latin-1")
    rounds = max(1, 2_000 // len(txs))
    assert earlier_read(text, at) == list(ledger._batch_txs(raw, at)) == txs

    def per_tx(read: Callable[[], object]) -> float:
        return 1e6 * median_of(reps, lambda: timed(lambda: [read() for _ in range(rounds)])) / (rounds * len(txs))

    return per_tx(lambda: earlier_read(text, at)), per_tx(lambda: list(ledger._batch_txs(raw, at)))


def header_check_us(reps: int) -> tuple[float, float]:
    """Median µs per receipt of the decode check and of the byte check of a
    header file of RECEIPTS receipts."""
    rng = random.Random(3)
    receipts = [
        ledger.Receipt(
            sha256(i.to_bytes(4, "little")), rng.choice([codes.OK, codes.BAD_AUTH, codes.LEVEL_EXCEEDS_CONFIG]),
            rng.randrange(100_000), rng.choice(list(Level)), sha256(b"digest" + i.to_bytes(4, "little")),
        )
        for i in range(RECEIPTS)
    ]
    header = ledger.BatchHeader(7, 9, *(sha256(bytes([i])) for i in range(5)))
    raw = ledger._encode_header(header, receipts).encode()

    def decode_check() -> bool:
        obj = read_json(raw)
        stored_header = ledger.BatchHeader.from_json(obj["header"])
        stored = [ledger.Receipt.from_json(r) for r in obj["receipts"]]
        return stored_header == header and stored == receipts and ledger._encode_header(header, receipts).encode() == raw

    def byte_check() -> bool:
        return ledger._encode_header(header, receipts).encode() == raw

    assert decode_check() and byte_check()
    return tuple(1e6 * median_of(reps, lambda: timed(check)) / RECEIPTS for check in (decode_check, byte_check))


def replay_batch() -> tuple[rules.SystemConfig, ledger.LedgerState, bytes]:
    """The genesis config, the state after the coinbase batch, and the
    canonical batch file of one signed fan-out of the coinbase."""
    operator = KEYS[0]
    cfg = rules.SystemConfig(operator_pubkey=operator.pubkey, initial_subsidy=10**9)
    state = ledger.LedgerState()
    ledger.apply_batch(state, [], 1, cfg, workers=1)
    rng = random.Random(12)
    keys = [sha256(b"key" + i.to_bytes(4, "little")) for i in range(REPLAY_LOCKS)]
    n_keys = REPLAY_LOCKS // 2
    locks = [Lock.pay_to_pubkey(keys[i % n_keys]) for i in range(FANOUT - n_keys)]
    locks += [Lock.multisig(2, rng.sample(keys, 3)) for _ in range(n_keys)]
    rng.shuffle(locks)
    outputs = tuple(Output(1_000, lock) for lock in locks)
    tx = Transaction(UtxoSpend((ledger._coinbase_outpoint(0),), outputs))
    sig = crypto.sign(operator.seed, crypto.utxo_signing_message(txid(tx), 0))
    return cfg, state, ledger._encode_batch(1, 2, [tx.with_witnesses([(sig,)])]).encode()


def replay_path_ms(reps: int) -> float:
    """Median ms of replay_verify's path over the fan-out batch: its head,
    then apply_batch over the transactions as the file streams them."""
    cfg, base, raw = replay_batch()

    def once() -> float:
        state = base.copy()
        t0 = time.perf_counter()
        epoch, at = ledger._batch_head(raw, 1)
        receipts, _ = ledger.apply_batch(state, ledger._batch_txs(raw, at), epoch, cfg, workers=1)
        dt = time.perf_counter() - t0
        assert [r.status for r in receipts] == [codes.OK]
        return dt

    return 1e3 * median_of(reps, once)


def divergence_stages_ms(reps: int) -> dict[str, float]:
    """Median ms of each whole-file stage of the fan-out batch, and their
    sum: the work replay_verify does only to name a divergence."""
    cfg, base, raw = replay_batch()
    stages: dict[str, list[float]] = {"loads": [], "decode": [], "re-encode": [], "apply": []}
    for _ in range(reps):
        state = base.copy()
        t0 = time.perf_counter()
        obj = read_json(raw)
        t1 = time.perf_counter()
        txs = ledger._decode_txs(obj["txs"])
        t2 = time.perf_counter()
        same = ledger._encode_batch(obj["batch"], obj["epoch"], txs).encode() == raw
        t3 = time.perf_counter()
        receipts, _ = ledger.apply_batch(state, txs, obj["epoch"], cfg, workers=1)
        t4 = time.perf_counter()
        assert same and [r.status for r in receipts] == [codes.OK]
        for stage, dt in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            stages[stage].append(1e3 * dt)
    medians = {stage: statistics.median(times) for stage, times in stages.items()}
    medians["total"] = sum(medians.values())
    return medians


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    print("canonical encode, fresh instance:")
    for name, tx in sample_kinds().items():
        print(f"  {name:22s} {encode_us(tx, reps):7.2f} µs  ({len(canonical_serialize(tx))} B)")

    fanout = Transaction(
        UtxoSpend((OPS[0],), tuple(pay(i, 1 + i, 100 + i % 7 if i % 5 == 0 else None)
                                   for i in range(FANOUT)))
    )
    text = tx_to_json_str(fanout)
    decode_ms = 1e3 * median_of(reps, lambda: timed(lambda: tx_from_json_str(text)))
    decoded = tx_from_json_str(text)
    reencode_ms = 1e3 * median_of(reps, lambda: timed(lambda: tx_to_json_str(decoded)))

    def txid_once() -> float:
        fresh = tx_from_json_str(text)
        return timed(lambda: txid(fresh))

    txid_ms = 1e3 * median_of(reps, txid_once)
    print(f"fan-out of {FANOUT} outputs ({len(text)} B of JSON):")
    print(f"  decode {decode_ms:7.2f} ms   re-encode {reencode_ms:7.2f} ms   txid {txid_ms:7.2f} ms")

    call_decode_us, call_reencode_us = call_batch_us(reps)
    print(f"batch of {CALLS} declared calls with access lists, auth and address constants:")
    print(f"  decode {call_decode_us:7.2f} µs/tx   re-encode {call_reencode_us:7.2f} µs/tx")

    print("a batch file's transactions read the earlier way (parse, decode, re-encode, compare) and by read_tx:")
    batches = {f"{CALLS} declared calls": call_batch(), f"{FANOUT}-output fan-out": [decoded]}
    batches.update({name: [tx] for name, tx in sample_kinds().items()})
    for name, txs in batches.items():
        earlier, parser = read_us(txs, reps)
        print(f"  {name:22s} earlier {earlier:9.2f} µs/tx   read_tx {parser:9.2f} µs/tx   ({parser / earlier:.2f}x)")

    decode_check_us, byte_check_us = header_check_us(reps)
    print(f"header file of {RECEIPTS} receipts:")
    print(f"  decode check {decode_check_us:6.2f} µs/receipt   byte check {byte_check_us:6.2f} µs/receipt")

    print(f"replay of a batch of one {FANOUT}-output fan-out ({REPLAY_LOCKS} distinct locks):")
    print(f"  replay's path (_batch_head, apply_batch over _batch_txs) {replay_path_ms(reps):6.2f} ms")
    stages = divergence_stages_ms(reps)
    print("  whole-file stages, to name a divergence: " + "   ".join(f"{stage} {ms:6.2f} ms" for stage, ms in stages.items()))

    def rounds() -> list[tuple[bytes, tuple[Output, ...]]]:
        return [
            (sha256(round_.to_bytes(4, "little")), tx_from_json_str(text).kind.outputs)
            for round_ in range(UTXOS // FANOUT)
        ]

    def put_each() -> float:
        state, items = ledger.LedgerState(), rounds()
        t0 = time.perf_counter()
        for tx_id, outs in items:
            for i, out in enumerate(outs):
                state.put_utxos(tx_id, (out,), i)
        return time.perf_counter() - t0

    def put_together() -> float:
        state, items = ledger.LedgerState(), rounds()
        t0 = time.perf_counter()
        for tx_id, outs in items:
            state.put_utxos(tx_id, outs)
        return time.perf_counter() - t0

    print(f"{UTXOS} outputs written:")
    for name, put in (("put_utxos per output", put_each), ("put_utxos per fan-out", put_together)):
        put_ms = 1e3 * median_of(reps, put)
        print(f"  {name:22s} {put_ms:7.2f} ms ({put_ms * 1e3 / UTXOS:.2f} µs each)")

    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    state = ledger.LedgerState()
    for tx_id, outs in rounds():
        state.put_utxos(tx_id, outs)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    objects = len(gc.get_objects()) - objects
    print(f"per {len(state.utxos)} UTXOs: {objects} tracked objects, {held / 2**20:.2f} MB allocated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
