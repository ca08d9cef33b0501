"""Validation of the UTXO-input transactions (UtxoSpend at Levels 1/1.5/2,
and MoveToAccount), plus the pending/replaceable pool for time-locked
transactions. The ledger applies what passes, through its state write API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from . import crypto, rules, script
from .model import (
    LOCK_MULTISIG,
    LOCK_PUBKEY,
    LOCK_SCRIPT,
    MoveToAccount,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    sha256,
)

# Rejection codes (status registry range 100-199; script lock failures are
# reported as 200 + interpreter reason).
OK = 0
MISSING_INPUT = 100
DOUBLE_SPEND_IN_BATCH = 101
EXPIRED_INPUT = 102
OUTSIDE_VALIDITY_WINDOW = 103
INSUFFICIENT_FEE = rules.INSUFFICIENT_FEE
LOCK_FAILED = 105
WITNESS_COUNT_MISMATCH = 106
PENDING_ACCEPTED = 110
PENDING_REPLACED = 111
REJECTED_LOWER_FEE = 112

SCRIPT_FAILURE_BASE = 200


def spend_script_hashes(outputs: Sequence[Output]) -> tuple[bytes, ...]:
    """Hashes of the spending transaction's output locks, as seen by the
    COVENANT opcode. check_inputs computes them on demand, when the first
    script lock among the inputs runs, so a spend of signature locks alone
    hashes nothing."""
    return tuple(sha256(out.lock.serialize()) for out in outputs)


def check_window(tx: Transaction, epoch: int) -> bool:
    if tx.not_before is not None and epoch < tx.not_before:
        return False
    if tx.not_after is not None and epoch > tx.not_after:
        return False
    return True


def check_inputs(
    tx_id: bytes,
    tx: Transaction,
    utxos: Mapping[Outpoint, Output],
    epoch: int,
    cfg: rules.SystemConfig,
    spent_in_batch: Optional[set[Outpoint]] = None,
    locks_passed: bool = False,
) -> tuple[int, int]:
    """Existence, expiry, and lock checks for the inputs of a UtxoSpend or
    MoveToAccount, one witness per input.

    Returns (status, total input value); the value is 0 unless the status
    is OK. spent_in_batch tracks outpoints consumed earlier in the same
    batch validation. locks_passed skips the lock checks, for a matured
    pending transaction (see PoolEntry). A script lock cannot move value into an account, so
    a MoveToAccount input under one fails its lock. For a UtxoSpend, a script lock's covenant context,
    spend_script_hashes of tx's outputs, is computed when the first script
    lock runs.
    """
    inputs, witnesses = tx.kind.inputs, tx.witnesses
    if len(witnesses) != len(inputs):
        return WITNESS_COUNT_MISMATCH, 0
    seen: set[Outpoint] = set()
    total_in = 0
    out_hashes: Optional[tuple[bytes, ...]] = None
    for i, op in enumerate(inputs):
        if op in seen or (spent_in_batch is not None and op in spent_in_batch):
            return DOUBLE_SPEND_IN_BATCH, 0
        seen.add(op)
        out = utxos.get(op)
        if out is None:
            return MISSING_INPUT, 0
        if cfg.expiry_enabled and out.expiry is not None and out.expiry <= epoch:
            return EXPIRED_INPUT, 0
        total_in += out.amount
        if locks_passed:
            continue
        msg = crypto.utxo_signing_message(tx_id, i)
        wit = witnesses[i]
        lock = out.lock
        if lock.kind == LOCK_PUBKEY:
            if len(wit) != 1 or not crypto.verify(lock.pubkey, msg, wit[0]):
                return LOCK_FAILED, 0
        elif lock.kind == LOCK_MULTISIG:
            if not crypto.check_multisig(lock.m, lock.pubkeys, list(wit), msg):
                return LOCK_FAILED, 0
        elif lock.kind == LOCK_SCRIPT:
            if isinstance(tx.kind, MoveToAccount):
                return LOCK_FAILED, 0
            if out_hashes is None:
                out_hashes = spend_script_hashes(tx.kind.outputs)
            ctx = script.ScriptContext(
                signing_message=msg,
                not_before=tx.not_before,
                spend_script_hashes=out_hashes,
                covenants_enabled=cfg.covenants,
            )
            result = script.execute(lock.script, wit, ctx)
            if not result.success:
                return SCRIPT_FAILURE_BASE + result.reason, 0
        else:  # pragma: no cover - Lock constructor rejects unknown kinds
            return LOCK_FAILED, 0
    return OK, total_in


def validate_spend(
    tx: Transaction,
    tx_id: bytes,
    utxos: Mapping[Outpoint, Output],
    epoch: int,
    cfg: rules.SystemConfig,
    spent_in_batch: Optional[set[Outpoint]] = None,
    locks_passed: bool = False,
) -> tuple[int, int]:
    """The validation of both UTXO-input kinds, UtxoSpend and MoveToAccount,
    apart from the validity window: inputs and locks, value out against
    value in, the fee floor and the allow-list. Returns (status, implicit
    fee); the fee is 0 unless the status is OK. A MoveToAccount pays out
    its amount and creates no outputs.

    Pending-pool admission runs this alone, because the transaction's lower
    window bound is still in the future."""
    k = tx.kind
    status, total_in = check_inputs(tx_id, tx, utxos, epoch, cfg, spent_in_batch, locks_passed)
    if status != OK:
        return status, 0
    if isinstance(k, MoveToAccount):
        outputs, total_out = (), k.amount
    else:
        outputs, total_out = k.outputs, sum(out.amount for out in k.outputs)
    if total_out > total_in:
        return INSUFFICIENT_FEE, 0
    fee = total_in - total_out
    status = rules.check_fee(tx, fee, cfg) or rules.check_allow_list(outputs, cfg)
    return status, fee if status == OK else 0


# ---------------------------------------------------------------------------
# Pending pool for replaceable time-locked transactions


@dataclass(frozen=True)
class PoolEntry:
    """A pending transaction, admitted only once its input locks passed.
    That verdict holds at maturity: a lock's verdict depends only on the
    transaction and the input's output, and an outpoint never names another
    output. So a matured entry is checked again for existence, double
    spends and expiry, but not for its locks."""

    tx: Transaction
    tx_id: bytes
    fee: int


@dataclass
class PendingPool:
    """Transactions whose not_before is still in the future; at most one
    pending transaction per outpoint, replaceable by strictly higher fee."""

    by_outpoint: dict[Outpoint, PoolEntry] = field(default_factory=dict)

    def _outpoints(self, tx: Transaction) -> tuple[Outpoint, ...]:
        assert isinstance(tx.kind, UtxoSpend)
        return tx.kind.inputs

    def submit(self, tx: Transaction, tx_id: bytes, fee: int) -> tuple[int, list[bytes]]:
        """Returns (PENDING_ACCEPTED | PENDING_REPLACED | REJECTED_LOWER_FEE,
        txids of evicted entries)."""
        conflicts = {
            e.tx_id: e for op in self._outpoints(tx) if (e := self.by_outpoint.get(op)) is not None
        }
        if any(e.fee >= fee for e in conflicts.values()):
            return REJECTED_LOWER_FEE, []
        evicted = []
        if conflicts:
            for e in conflicts.values():
                for op in self._outpoints(e.tx):
                    self.by_outpoint.pop(op, None)
                evicted.append(e.tx_id)
        entry = PoolEntry(tx, tx_id, fee)
        for op in self._outpoints(tx):
            self.by_outpoint[op] = entry
        return (PENDING_REPLACED if evicted else PENDING_ACCEPTED), evicted

    def mature(self, epoch: int) -> list[PoolEntry]:
        """The entries mature at epoch, fee-descending then txid-ascending."""
        mature = {
            e.tx_id: e
            for e in self.by_outpoint.values()
            if e.tx.not_before is None or e.tx.not_before <= epoch
        }
        return sorted(mature.values(), key=lambda e: (-e.fee, e.tx_id))

    def drain(self, epoch: int, mature: Optional[list[PoolEntry]] = None) -> list[PoolEntry]:
        """Remove and return the entries mature at epoch, as mature orders
        them: mature, if the caller has listed them already."""
        mature = self.mature(epoch) if mature is None else mature
        for e in mature:
            for op in self._outpoints(e.tx):
                self.by_outpoint.pop(op, None)
        return mature

    def entries(self) -> list[PoolEntry]:
        return sorted({e.tx_id: e for e in self.by_outpoint.values()}.values(), key=lambda e: e.tx_id)
