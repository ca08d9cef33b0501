"""State container, batch application pipeline, hash-chained receipts and
headers (the coherence log), state digests, and the replay verifier.

Persistence is an append-only directory: genesis.json, batch_NNNNNN.json
(submitted transactions in canonical JSON), header_NNNNNN.json (header plus
receipts). Replay consumes exactly these files.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import codes, crypto, helper, lthash, permission, rules, scheduler, utxo, vm
from .lthash import LtHash
from .model import (
    DERIVED,
    HEX,
    INT,
    LEVEL,
    LOCK_SCRIPT,
    STR,
    U64,
    Call,
    Deploy,
    JsonCodec,
    JsonRow,
    JsonTable,
    Level,
    Lock,
    ModelError,
    MoveToAccount,
    MoveToUtxo,
    Outpoint,
    Output,
    Transaction,
    TxKind,
    U64_MAX,
    UtxoSpend,
    address_of_pubkey,
    classify_level,
    full_serialize,
    json_field,
    json_value,
    outpoint_range,
    read_json,
    read_json_at,
    require_u64,
    sha256,
    tx_from_json,
    tx_to_json_str as tx_to_json,
    txid as compute_txid,
)
from .script.interpreter import checksig_keys

ZERO_HASH = b"\x00" * 32

# Hashed layouts. Every byte field is a 32-byte hash, written with its u32
# length prefix; integers are little-endian.
_RECEIPT = struct.Struct("<I32sHQBI32s")
_HEADER = struct.Struct("<QQI32sI32sI32sI32sI32s")
_DIGEST_COUNTERS = struct.Struct("<5Q")
_DIGEST_TAG, _WRITES_TAG = b"tierledger/state/lthash16/v1", b"tierledger/receipt/writes/v1"


@dataclass(frozen=True)
class Receipt:
    tx_id: bytes
    status: int
    gas_used: int
    level: Level
    writes_digest: bytes

    def hash(self) -> bytes:
        return sha256(_RECEIPT.pack(
            32, self.tx_id, self.status, self.gas_used, self.level.value, 32, self.writes_digest
        ))

    @property
    def status_name(self) -> str:
        return codes.name(self.status)

    def to_json(self) -> dict:
        return json.loads(RECEIPT_JSON.encode(self))

    @staticmethod
    def from_json(obj: dict) -> "Receipt":
        return RECEIPT_JSON.decode(obj)


RECEIPT_JSON = JsonTable(
    Receipt,
    JsonRow("txid", HEX, attr="tx_id"),
    JsonRow("status", U64),
    JsonRow("status_name", STR, DERIVED),
    JsonRow("gas_used", U64),
    JsonRow("level", LEVEL),
    JsonRow("writes_digest", HEX),
)


@dataclass(frozen=True)
class BatchHeader:
    batch_number: int
    epoch: int
    prev_hash: bytes
    txs_hash: bytes
    receipts_hash: bytes
    post_state_digest: bytes
    config_hash: bytes

    def hash(self) -> bytes:
        return sha256(_HEADER.pack(
            self.batch_number, self.epoch, 32, self.prev_hash, 32, self.txs_hash,
            32, self.receipts_hash, 32, self.post_state_digest, 32, self.config_hash,
        ))

    @staticmethod
    def from_json(obj: dict) -> "BatchHeader":
        return HEADER_JSON.decode(obj)


HEADER_JSON = JsonTable(
    BatchHeader,
    JsonRow("batch_number", INT),
    JsonRow("epoch", INT),
    *(JsonRow(key, HEX) for key in ("prev_hash", "txs_hash", "receipts_hash", "post_state_digest", "config_hash")),
)


def utxo_entry(op: Outpoint, out: Output) -> bytes:
    return b"U" + op.serialize() + out.serialize()


_CREATED = struct.Struct("<cI32sI").pack  # utxo_entry's head, b"U" and the outpoint, without an Outpoint


class LedgerState:
    """The ledger's state. The UTXO set is a read-only view: every write
    goes through put_utxos and spend_utxos, which keep utxo_total, an LtHash
    over the UTXO entries and the expiry index up to date. Account writes
    go through the write API of self.accounts.

    The expiry index (read-only view: expiring) maps each expiry epoch to
    the outpoints whose output carries it; an epoch's entry is removed with
    its last outpoint. It is kept whether or not the config enables expiry,
    so the batch pipeline finds due outputs without scanning the set. The
    view guards only the mapping: its per-epoch sets are the index's own
    and must not be mutated, and spend_utxos changes them, so a caller that
    spends what it reads must copy it out first."""

    def __init__(self) -> None:
        self._utxos: dict[Outpoint, Output] = {}
        self.utxos: Mapping[Outpoint, Output] = MappingProxyType(self._utxos)
        self._expiring: dict[int, set[Outpoint]] = {}
        self.expiring: Mapping[int, AbstractSet[Outpoint]] = MappingProxyType(self._expiring)
        self.utxo_lthash = LtHash()
        self.utxo_total = 0
        self.accounts = vm.Accounts()
        self.pool = utxo.PendingPool()
        self.issued = 0
        self.expired = 0
        self.epoch = 0
        self.batch_number = 0
        self.prev_header_hash = ZERO_HASH

    def put_utxos(self, tx_id: bytes, outputs: Sequence[Output], first_index: int = 0) -> None:
        """Create outputs as (tx_id, first_index), (tx_id, first_index + 1),
        ...; their entries are noted in the UTXO LtHash, a list of
        helper.PLANNED_SUM or more as the sum jobs a batch's plan holds."""
        ops = outpoint_range(tx_id, first_index, first_index + len(outputs))
        entries = [utxo_entry(op, out) for op, out in zip(ops, outputs)]
        for op, out in zip(ops, outputs):
            self._utxos[op] = out
            if out.expiry is not None:
                self._expiring.setdefault(out.expiry, set()).add(op)
        if len(entries) >= helper.PLANNED_SUM:
            for job in helper.sums(entries):
                self.utxo_lthash.defer(helper.planned(job) or job)  # the plan's copy: the batch holds one
        else:
            self.utxo_lthash.add_many(entries)
        self.utxo_total += sum(out.amount for out in outputs)

    def spend_utxos(self, ops: Sequence[Outpoint]) -> int:
        """Spend ops, whose entries are noted as leaving the UTXO LtHash;
        returns their total amount."""
        entries, amount = [], 0
        for op in ops:
            out = self._utxos.pop(op)
            entries.append(utxo_entry(op, out))
            amount += out.amount
            if out.expiry is not None:
                due = self._expiring[out.expiry]
                due.remove(op)
                if not due:
                    del self._expiring[out.expiry]
        self.utxo_lthash.remove_many(entries)
        self.utxo_total -= amount
        return amount

    @property
    def account_total(self) -> int:
        """The balances and the fee income the running batch still owes the operator."""
        return self.accounts.total + self.accounts.fees

    def credit_fees(self, operator: bytes) -> None:
        """Credit the running batch's fee income to the operator, once, at its end."""
        self.accounts.set_balance(operator, self.accounts.balance(operator) + self.accounts.fees)
        self.accounts.fees = 0

    def conservation_holds(self) -> bool:
        """issued = utxo_total + account_total + expired, exactly."""
        return self.issued == self.utxo_total + self.account_total + self.expired

    def copy(self) -> "LedgerState":
        other = LedgerState()
        other._utxos.update(self._utxos)
        other._expiring.update((e, set(ops)) for e, ops in self._expiring.items())
        other.utxo_lthash = self.utxo_lthash.copy()
        other.utxo_total = self.utxo_total
        other.accounts = self.accounts.copy()
        other.pool = utxo.PendingPool(dict(self.pool.by_outpoint))
        other.issued = self.issued
        other.expired = self.expired
        other.epoch = self.epoch
        other.batch_number = self.batch_number
        other.prev_header_hash = self.prev_header_hash
        return other


def state_digest(state: LedgerState) -> bytes:
    """Commitment to the economic state: sha256 over a tag, the LtHash of
    the UTXO entries, the LtHash of the account entries (nonzero balances,
    nonzero storage slots, contract code hashes), the supply counters and
    the epoch. The accumulators are kept by the write API, so this costs
    the same whatever the state's size. Nonces and the pending pool are not
    committed."""
    return sha256(
        _DIGEST_TAG + state.utxo_lthash.digest() + state.accounts.lthash.digest()
        + _DIGEST_COUNTERS.pack(state.issued, state.expired, state.utxo_total, state.account_total, state.epoch)
    )


def writes_digest(delta: lthash.Delta) -> bytes:
    """A receipt's commitment to its own net writes, delta (`lthash.net`):
    sha256 over a tag, the entries removed, then those added, each list
    sorted and led by its u32 count, each entry by its u32 length."""
    parts = [_WRITES_TAG]
    for entries in (delta[1], delta[0]):
        parts.append(len(entries).to_bytes(4, "little"))
        parts += [len(entry).to_bytes(4, "little") + entry for entry in sorted(entries)]
    return sha256(b"".join(parts))


# ---------------------------------------------------------------------------
# Batch application


class BatchError(ValueError):
    """Malformed batch container (e.g. non-monotone epoch); rejected whole."""


def _coinbase_outpoint(batch_number: int) -> Outpoint:
    return Outpoint(sha256(b"coinbase" + batch_number.to_bytes(8, "little")), 0)


def _actor(k: TxKind) -> Optional[bytes]:
    """The account that signs an account-based kind; None for the kinds
    whose inputs are UTXOs, which the input witnesses authorize."""
    if isinstance(k, Deploy):
        return k.payer
    if isinstance(k, Call):
        return k.caller
    if isinstance(k, MoveToUtxo):
        return k.source
    return None


def _auth_names(tx: Transaction, actor: bytes) -> bool:
    """Account auth's cheap half: an auth whose key hashes to the actor."""
    return tx.auth is not None and address_of_pubkey(tx.auth.pubkey) == actor


def _auth_signed(tx: Transaction, tx_id: bytes) -> bool:
    """Account auth's signature, on a transaction that passed _auth_names."""
    return crypto.verify(tx.auth.pubkey, crypto.account_signing_message(tx_id), tx.auth.signature)


def _contract_gate(tx: Transaction, tx_id: bytes, epoch: int, cfg: rules.SystemConfig) -> int:
    """Admission of a Deploy or Call: validity window, permission policy and
    gas-price floor. OK means the call is buffered for the scheduler;
    anything else is its receipt status, with nothing charged."""
    if not utxo.check_window(tx, epoch):
        return utxo.OUTSIDE_VALIDITY_WINDOW
    policy = cfg.deploy_policy if isinstance(tx.kind, Deploy) else cfg.call_policy
    code = permission.authorize(
        tx_id, tx.auth.pubkey, tx.endorsement, policy, cfg.registry_pubkeys, epoch
    )
    if code != permission.AUTH_OK:
        return code
    return rules.check_fee(tx, None, cfg)


def _transfer(
    state: LedgerState,
    tx: Transaction,
    tx_id: bytes,
    epoch: int,
    cfg: rules.SystemConfig,
    batch_spent: set[Outpoint],
    matured: bool = False,
) -> int:
    """The one routine for UtxoSpend, MoveToAccount and MoveToUtxo: pending-
    pool admission, the validity window, the kind's checks, then the state
    writes and the fee, held for the operator until the batch end. A
    matured pending transaction's input locks passed at its admission and
    are not checked again. Returns the receipt status; a rejection writes
    nothing."""
    k = tx.kind
    accounts = state.accounts
    if isinstance(k, UtxoSpend) and tx.not_before is not None and tx.not_before > epoch:
        # Pool admission: the transaction must be valid except for its
        # not-yet-reached lower window bound. Its inputs are checked
        # against the current set only, not batch_spent: an input spent
        # earlier in this batch is simply missing.
        status, fee = utxo.validate_spend(tx, tx_id, state.utxos, epoch, cfg)
        return state.pool.submit(tx, tx_id, fee)[0] if status == utxo.OK else status
    if not utxo.check_window(tx, epoch):
        return utxo.OUTSIDE_VALIDITY_WINDOW
    if isinstance(k, MoveToUtxo):
        if tx.nonce != accounts.nonces.get(k.source, 0):
            return vm.STATUS_BAD_NONCE
        out_sum = sum(o.amount for o in k.outputs)
        if out_sum > k.amount or accounts.balance(k.source) < k.amount:
            return vm.STATUS_INSUFFICIENT_BALANCE
        fee = k.amount - out_sum
        code = rules.check_fee(tx, fee, cfg) or rules.check_allow_list(k.outputs, cfg)
        if code != rules.FEE_OK:
            return code
        accounts.set_balance(k.source, accounts.balance(k.source) - k.amount)
        accounts.set_nonce(k.source, tx.nonce + 1)
    else:
        status, fee = utxo.validate_spend(tx, tx_id, state.utxos, epoch, cfg, batch_spent, matured)
        if status != utxo.OK:
            return status
        batch_spent.update(k.inputs)
        state.spend_utxos(k.inputs)
    if isinstance(k, MoveToAccount):
        accounts.set_balance(k.to, accounts.balance(k.to) + k.amount)
    else:
        state.put_utxos(tx_id, k.outputs)
    accounts.fees += fee
    return codes.OK


def _plan(utxos: Mapping[Outpoint, Output], tx: Transaction, tx_id: bytes) -> list[helper.Job]:
    """The work tx will probably ask of the helper, in the order it asks
    it: its signature checks (account auth, and for each input found in the
    UTXO set its P2PK or multisig keys, or for a UtxoSpend's script lock
    each key its script pushes just before CHECKSIG or CHECKSIGVERIFY against
    each signature-sized witness item), then, where the host sees the
    helper's stores in order, the creation of its outputs if there are
    helper.PLANNED_SUM or more. A MoveToAccount's script-locked input fails
    before any script runs, and inputs made earlier in the batch and
    endorsements are left to the inline checks, spends and expiries to
    inline removal. A wrong guess costs the helper wasted work, never a
    verdict or a digest."""
    k = tx.kind
    jobs: list[helper.Job] = []
    if tx.auth is not None and _actor(k) is not None:
        jobs.append(((tx.auth.pubkey,), crypto.account_signing_message(tx_id), (tx.auth.signature,)))
    inputs = k.inputs if isinstance(k, (UtxoSpend, MoveToAccount)) else ()
    for i, (op, wit) in enumerate(zip(inputs, tx.witnesses)):
        out = utxos.get(op)
        if out is None:
            continue
        msg = crypto.utxo_signing_message(tx_id, i)
        if out.lock.kind != LOCK_SCRIPT:
            jobs.append((out.lock.pubkeys or (out.lock.pubkey,), msg, wit))
        elif isinstance(k, UtxoSpend):
            sigs = [item for item in wit if len(item) == crypto.SIG_BYTES]
            jobs += [((pk,), msg, (sig,)) for pk in checksig_keys(out.lock.script) for sig in sigs]
    if helper.ORDERED_STORES and isinstance(k, (UtxoSpend, MoveToUtxo)) and len(k.outputs) >= helper.PLANNED_SUM:
        jobs += helper.sums([_CREATED(b"U", 32, tx_id, i) + out.serialize() for i, out in enumerate(k.outputs)])
    return jobs


def apply_batch(
    state: LedgerState,
    txs: Iterable[Transaction],
    epoch: int,
    cfg: rules.SystemConfig,
    workers: int = scheduler.DEFAULT_WORKERS,
    parallel_min_gas: int = scheduler.PARALLEL_MIN_GAS,
    collect_telemetry: Optional[list] = None,
) -> tuple[list[Receipt], BatchHeader]:
    """Apply one batch in submission order; per-transaction failures become
    receipts, never batch failures. Mutates state.

    Each transaction takes one path: the level gate, account auth for the
    account-based kinds, then either the contract gate, which buffers a
    Deploy or Call for the scheduler, or the transfer routine. The buffer
    is flushed before each transfer, so transfer checks see every contract
    effect queued ahead of them. A buffered call's auth signature is checked
    only when the scheduler reaches the call, which gives the helper
    process the flush's conflict analysis and VM runs to verify it in; a refused
    call never runs, and its BAD_AUTH receipt commits no writes, as every
    rejection does. A call that fails
    the contract gate has its signature checked at once, so BAD_AUTH still
    takes precedence. Every fee is held for the operator as it is paid and
    credited once, after the last flush, in writes no receipt holds.

    txs may be any iterable. It is read once, whole, before the first state
    write, and while a helper process runs each transaction is planned for
    it as it is read: an iterable that raises leaves the state as it was."""
    if epoch < state.epoch:
        raise BatchError(f"batch epoch {epoch} below ledger epoch {state.epoch}")
    # Matured pending transactions (never pooled again) run ahead of new
    # submissions. Their locks passed at admission.
    mature = state.pool.mature(epoch)
    pending = [(e.tx, e.tx_id, True) for e in mature]
    batch_spent: set[Outpoint] = set()
    contract_buffer: list[tuple[int, Transaction, bytes]] = []
    # The expiry and coinbase writes, each receipt and each contract commit
    # close an interval of state writes. Every PART_SLOTS intervals make a
    # window, whose notes net (`lthash.net`) to one delta per accumulator,
    # posted to the helper in chunks as the next window opens; the last
    # window, the header's interval included, once the batch has run. The
    # batch folds every chunk at its end, after hashing its receipts, also
    # if a write raised.
    accumulators = state.utxo_lthash, state.accounts.lthash
    intervals: list[list[lthash.Notes]] = []
    folds: list[tuple[LtHash, lthash.Delta]] = []
    window = 0  # the open window's first interval

    def cut() -> list[lthash.Delta]:
        """The open window's net delta per accumulator in chunks
        (`helper.chunks`), queued to fold."""
        deltas = []
        for acc, notes in zip(accumulators, zip(*intervals[window:])):
            folds.extend((acc, delta) for deferred, _, _ in notes for delta in deferred)
            delta = lthash.net(chain.from_iterable(n[1] for n in notes), chain.from_iterable(n[2] for n in notes))
            for chunk in helper.chunks(delta):
                folds.append((acc, chunk))
                deltas.append(chunk)
        return deltas

    def close() -> int:
        """The interval since the last close, closed: its index."""
        nonlocal window
        if len(intervals) - window == helper.PART_SLOTS:
            helper.post(cut())
            window = len(intervals)
        intervals.append([acc.close() for acc in accumulators])
        return len(intervals) - 1

    def flush_contracts() -> None:
        if not contract_buffer:
            return

        def on_commit(idx: int, outcome: vm.ExecOutcome) -> None:
            i, _, tx_id = contract_buffer[idx]
            results[i] = (tx_id, outcome.status, outcome.gas_used, Level.L3, close())

        def admit(idx: int) -> bool:
            i, tx, tx_id = contract_buffer[idx]
            if _auth_signed(tx, tx_id):
                return True
            results[i] = (tx_id, codes.BAD_AUTH, 0, Level.L3, None)  # no writes
            return False

        _, telemetry = scheduler.schedule_batch(
            state.accounts,
            [(tx, tx_id) for _, tx, tx_id in contract_buffer],
            epoch,
            cfg,
            on_commit=on_commit,
            workers=workers,
            parallel_min_gas=parallel_min_gas,
            admit=admit,
        )
        if collect_telemetry is not None:
            collect_telemetry.append(telemetry)
        contract_buffer.clear()

    def plan(item: tuple[Transaction, bytes, bool]) -> list[helper.Job]:
        tx, tx_id, matured = item
        return _plan({} if matured else state.utxos, tx, tx_id)  # a matured one's inputs need no check

    batch = chain(pending, ((tx, compute_txid(tx), False) for tx in txs))
    with helper.split(batch, plan) as work:
        # Per transaction: its receipt's fields but the digest, and its
        # interval (None for no writes).
        results: list[Optional[tuple]] = [None] * len(work)
        try:
            try:
                state.pool.drain(epoch, mature)
                state.epoch = epoch
                # 1. Expire the due outputs, before any validation.
                state.expired += state.spend_utxos(rules.apply_expiry(state.expiring, epoch, cfg))
                # 2. Coinbase issuance to the operator. Capped so that issued, and
                # with it every supply counter and balance, stays within u64.
                sub = min(rules.subsidy(epoch, cfg), U64_MAX - state.issued)
                if sub > 0:
                    cb = _coinbase_outpoint(state.batch_number)
                    state.put_utxos(cb.txid, (Output(sub, Lock.pay_to_pubkey(cfg.operator_pubkey)),))
                    state.issued += sub
                close()  # no receipt's
                # 3. The transactions, in order.
                for i, (tx, tx_id, matured) in enumerate(work):
                    level = classify_level(tx, state.utxos)
                    actor = _actor(tx.kind)
                    if cfg.max_level < level:
                        status = codes.LEVEL_EXCEEDS_CONFIG
                    elif actor is not None and not _auth_names(tx, actor):
                        status = codes.BAD_AUTH
                    elif isinstance(tx.kind, (Deploy, Call)):
                        status = _contract_gate(tx, tx_id, epoch, cfg)
                        if status == codes.OK:
                            contract_buffer.append((i, tx, tx_id))
                            continue
                        if not _auth_signed(tx, tx_id):
                            status = codes.BAD_AUTH
                    elif actor is not None and not _auth_signed(tx, tx_id):
                        status = codes.BAD_AUTH
                    else:
                        flush_contracts()
                        status = _transfer(state, tx, tx_id, epoch, cfg, batch_spent, matured)
                    results[i] = (tx_id, status, 0, level, close())
                flush_contracts()
                # 4. The batch's fee income, to the operator: no receipt's write.
                state.credit_fees(cfg.operator_address)
            finally:
                intervals.append([acc.close() for acc in accumulators])  # the header's: what no receipt wrote
                helper.post(cut())  # the last window, which the helper folds while the caller hashes
            assert None not in results
            receipts = [Receipt(*result[:4], _writes_digest(intervals, result[4])) for result in results]
            txs_hash = sha256(b"".join(sha256(full_serialize(tx)) for tx, _, _ in work[len(pending) :]))
            receipts_hash = sha256(b"".join(r.hash() for r in receipts))
        finally:
            for acc, delta in reversed(folds):  # from the back: the helper folds from the front
                acc.settle(delta, helper.ask(delta))

    header = BatchHeader(
        batch_number=state.batch_number,
        epoch=epoch,
        prev_hash=state.prev_header_hash,
        txs_hash=txs_hash,
        receipts_hash=receipts_hash,
        post_state_digest=state_digest(state),
        config_hash=cfg.config_hash(),
    )
    state.prev_header_hash = header.hash()
    state.batch_number += 1
    return receipts, header


def _writes_digest(intervals: Sequence[Sequence[lthash.Notes]], k: Optional[int]) -> bytes:
    """The writes digest of interval k, a receipt's, over its net notes;
    None, for a receipt without writes, commits to none."""
    added: list[bytes] = []
    removed: list[bytes] = []
    for deferred, loose_added, loose_removed in intervals[k] if k is not None else ():
        added += chain(*(delta[0] for delta in deferred), loose_added)  # deferred: sums of created outputs
        removed += loose_removed
    return writes_digest(lthash.net(added, removed))


# ---------------------------------------------------------------------------
# Log persistence


def init_log(logdir: Union[str, Path], cfg: rules.SystemConfig) -> None:
    """Start a log: write logdir's genesis.json, unless logdir already holds
    a batch or header file (FileExistsError, and nothing is written)."""
    path = Path(logdir)
    path.mkdir(parents=True, exist_ok=True)
    if any(_LOG_FILE.match(f.name) for f in path.iterdir()):
        raise FileExistsError(f"{path} already holds batch or header files")
    (path / "genesis.json").write_text(cfg.to_json_str(), encoding="utf-8")


# The log's file names and encodings, shared by the writer and the replay
# verifier, which requires every file to match them byte for byte.
_LOG_FILE = re.compile(r"(batch|header)_(\d{6}|[1-9]\d{6,})\.json\Z")


def _log_file(kind: str, number: int) -> str:
    """batch_NNNNNN.json or header_NNNNNN.json, with more digits past
    999,999; _LOG_FILE matches exactly these names."""
    return f"{kind}_{number:06d}.json"


def _encode_batch(batch_number: int, epoch: int, txs: Sequence[Transaction]) -> str:
    """The batch file's text, through one codec that lives for this encode
    only: each distinct output object is encoded once."""
    codec = JsonCodec()
    return f'{{"batch":{batch_number},"epoch":{epoch},"txs":[{",".join([tx_to_json(tx, codec) for tx in txs])}]}}'


def _decode_txs(txs_json: list) -> list[Transaction]:
    """A batch file's transactions, through one codec that lives for this
    decode only: each distinct lock and output is decoded once."""
    codec = JsonCodec()
    return [tx_from_json(t, codec) for t in txs_json]


def _encode_header(header: BatchHeader, receipts: Sequence[Receipt]) -> str:
    return f'{{"header":{HEADER_JSON.encode(header)},"receipts":[{",".join(map(RECEIPT_JSON.encode, receipts))}]}}'


def write_batch_files(
    logdir: Union[str, Path],
    batch_number: int,
    epoch: int,
    txs: Sequence[Transaction],
    header: BatchHeader,
    receipts: Sequence[Receipt],
) -> None:
    path = Path(logdir)
    (path / _log_file("batch", batch_number)).write_text(
        _encode_batch(batch_number, epoch, txs), encoding="utf-8"
    )
    (path / _log_file("header", batch_number)).write_text(
        _encode_header(header, receipts), encoding="utf-8"
    )


def log_extent(logdir: Union[str, Path]) -> tuple[int, str]:
    """(n, missing): batch_NNNNNN.json and header_NNNNNN.json must cover the
    same contiguous range 0..n-1. Where they do, missing is "". Otherwise n
    is the first number with a file absent and missing names that file, so
    an orphan header or a stray batch after a gap is not silently ignored."""
    present: dict[str, set[int]] = {"batch": set(), "header": set()}
    for name in os.listdir(logdir):
        if (m := _LOG_FILE.match(name)) is not None:
            present[m.group(1)].add(int(m.group(2)))
    top = max(present["batch"] | present["header"], default=-1) + 1
    for i in range(top):
        for kind in ("batch", "header"):
            if i not in present[kind]:
                return i, _log_file(kind, i)
    return top, ""


# ---------------------------------------------------------------------------
# Replay verification


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    kind: str  # "ok" | "divergence" | "unreadable"
    batch: int = -1
    field: str = ""
    expected: str = ""
    found: str = ""
    # Final state of a log that verified.
    digest: str = ""
    batches: int = 0
    epoch: int = 0

    def to_json(self) -> dict:
        obj: dict = {"ok": self.ok, "kind": self.kind}
        if self.ok:
            obj.update(digest=self.digest, batches=self.batches, epoch=self.epoch)
        else:
            obj.update(batch=self.batch, field=self.field, expected=self.expected, found=self.found)
        return obj


def replay_verify(logdir: Union[str, Path]) -> ReplayReport:
    """Re-execute the whole log from genesis and check that every file is
    the canonical encoding of what replay computes; report the first
    mismatch, or the final state digest, batch count and epoch of a log
    that verifies.

    A batch verifies when its batch file is, byte for byte, the canonical
    head of batch i then the canonical text of each transaction it decodes
    to, and its header file's bytes are the encoding of the recomputed
    header and receipts. The batch file is read as one stream: each
    transaction is decoded, re-encoded and compared with its own text as
    apply_batch reads it, so the helper process starts on the plan while the
    rest of the file is still being read. Bytes equal to a canonical
    encoding decode to exactly the encoded values, so a file is parsed
    whole only to name a mismatch, by _divergence."""
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
        except OSError:
            return ReplayReport(False, "unreadable", batch=i)
        try:
            epoch, at = _batch_head(raw_batch, i)
            applied = apply_batch(state, _batch_txs(raw_batch, at), epoch, cfg, workers=1)
        except BatchError as exc:
            applied = exc
        except ModelError:
            applied = None  # the text stopped being canonical before anything was applied
        else:
            receipts, header = applied
            if _encode_header(header, receipts).encode() == raw_header:
                continue
        return _divergence(i, raw_batch, raw_header, applied)
    if missing:
        return ReplayReport(False, "unreadable", batch=n, field=missing)
    return ReplayReport(
        True, "ok", digest=state_digest(state).hex(), batches=state.batch_number, epoch=state.epoch
    )


# The canonical head of a batch file, up to its first transaction. The
# epoch is committed as a u64 in every state digest, so it has at most 20
# digits.
_BATCH_HEAD = re.compile(rb'\{"batch":(0|[1-9][0-9]*),"epoch":(0|[1-9][0-9]{0,19}),"txs":\[')


def _batch_head(raw_batch: bytes, i: int) -> tuple[int, int]:
    """The epoch of a batch file that starts with the canonical head of
    batch i, and where the head ends; ModelError for any other start."""
    head = _BATCH_HEAD.match(raw_batch)
    if head is None or head[1] != str(i).encode() or int(head[2]) > U64_MAX:
        raise ModelError(f"the batch file does not start as batch {i}'s canonical text")
    return int(head[2]), head.end()


def _batch_txs(raw_batch: bytes, at: int) -> Iterator[Transaction]:
    """The transactions of a batch file, from the end of its head at at,
    through one codec: each is read as one JSON value, decoded, and yielded
    only if it re-encodes to its own text; they must be joined by single
    commas, and the file must end with "]}" right after the last one. Any
    other text raises ModelError."""
    text = raw_batch.decode("latin-1")  # canonical text is ASCII: a byte above 0x7f never matches it
    codec = JsonCodec()
    end = len(text) - 2
    more = at < end
    while more:
        obj, stop = read_json_at(text, at)
        tx = tx_from_json(obj, codec)
        if text[at:stop] != tx_to_json(tx, codec):
            raise ModelError("a transaction's text is not its canonical encoding")
        yield tx
        more = text.startswith(",", stop)
        at = stop + more
    if at != end or not text.endswith("]}"):
        raise ModelError("the batch file does not end right after its last transaction")


def _divergence(
    i: int, raw_batch: bytes, raw_header: bytes, applied: Union[tuple[list[Receipt], BatchHeader], BatchError, None],
) -> ReplayReport:
    """The report for batch i, which did not verify: an unreadable file,
    then the first of the checks below to fail, in this order. applied is
    apply_batch's result or error, or None when the batch file's text was
    not canonical; only then, or on an error, is the batch file parsed
    whole, to tell which check it failed."""
    try:
        stored_obj = json_value(read_json(raw_header), dict, "header file")
        stored_header = BatchHeader.from_json(json_field(stored_obj, "header", dict))
        stored_receipts = [Receipt.from_json(r) for r in json_field(stored_obj, "receipts", list, of=dict)]
        if not isinstance(applied, tuple):
            batch_obj = json_value(read_json(raw_batch), dict, "batch file")
            # Integers, not bools (JSON true equals 1 and re-encodes as
            # true); the epoch is committed as a u64 in every state digest.
            batch_number = require_u64(json_field(batch_obj, "batch", int), "batch")
            epoch = require_u64(json_field(batch_obj, "epoch", int), "epoch")
            txs = _decode_txs(json_field(batch_obj, "txs", list))
    except ModelError:
        return ReplayReport(False, "unreadable", batch=i)
    if not isinstance(applied, tuple):
        # The log is written in one canonical encoding. Re-serializing the
        # decoded transactions must reproduce the file byte for byte;
        # anything else is tampering, even when it parses to equal values
        # (hex case flips, stray keys, number formatting).
        if _encode_batch(batch_number, epoch, txs).encode() != raw_batch:
            return ReplayReport(
                False, "divergence", batch=i, field="encoding", expected="canonical json", found="non-canonical bytes"
            )
        if batch_number != i:
            return ReplayReport(False, "divergence", batch=i, field="batch", expected=str(i), found=str(batch_number))
        # The text is batch i's canonical text, which the stream accepts: so
        # apply_batch ran and refused the epoch.
        return ReplayReport(False, "divergence", batch=i, field="epoch", expected="monotone", found=str(applied))
    receipts, header = applied
    for row in HEADER_JSON.rows:
        want = getattr(header, row.key)
        got = getattr(stored_header, row.key)
        if want != got:
            as_str = lambda v: v.hex() if isinstance(v, bytes) else str(v)
            return ReplayReport(
                False, "divergence", batch=i, field=row.key, expected=as_str(want), found=as_str(got),
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
    # The values are equal but the bytes are not: an edit to a derived
    # display field, or to the text's form.
    return ReplayReport(
        False, "divergence", batch=i, field="encoding", expected="canonical json", found="non-canonical bytes"
    )
