"""One forked helper process that works through a batch's plan ahead of
the caller, which asks the same jobs in any order, and shares each result
through one table in shared memory (`split`). A job is a signature check,
each of whose triples ends as a libsodium verdict byte, or a sum of UTXO
entries, which ends as the entries' own LtHash `digest()`. A result is
looked up by the exact triple or entries the caller would compute it from,
so a wrong or stale plan costs only wasted work. A job the plan missed,
one past the table's room, and all work on one CPU or without libsodium
run inline: no verdict, digest, receipt or log byte depends on the helper.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
from contextlib import contextmanager, suppress
from typing import Callable, Iterator, Optional, Sequence, Union

from . import crypto
from .lthash import DIGEST_BYTES, LtHash

# Entries per sum job: a transaction's outputs or inputs are cut into sums
# of CHUNK, so that a fan-out's large transactions are shared out. Fewer
# than PLANNED_SUM entries are not worth a job: reading a vector back costs
# about half of expanding an entry.
CHUNK, PLANNED_SUM = 128, 8

Check = tuple[Sequence[bytes], bytes, Sequence[bytes]]  # (pubkeys, msg, sigs)
# A sum job holds its UTXO entries in a 1-tuple, so it never equals a
# check's 3-tuple as a key, and pickles as plainly.
Sum = tuple[tuple[bytes, ...]]
Job = Union[Check, Sum]

# The table in shared memory: a 4-byte cursor (the slot the caller asked
# last, in any order, or DONE after the batch), then a state byte per
# planned triple or sum in plan order, then one DIGEST_BYTES vector per
# slot for the first SUM_SLOTS slots; its pages are touched only by the sums
# a batch plans. Claims are plain byte writes: the helper claims from the
# front and the caller, helping, from the back, so both compute one job only
# when they race for the last free slot. A sum's slot ends ACCEPT once its
# vector is written; the helper writes the vector first, and on x86-64,
# whose stores are seen in order, the caller reads it only after the byte.
FREE, HELPING, CALLING, ACCEPT, REJECT = range(5)
HEAD, TABLE_SLOTS, SUM_SLOTS, DONE = 4, 1 << 16, 1 << 12, 2**32 - 1  # planned work past them runs inline
# The helper (process, the caller's end of its pipe, table); the running
# batch's job -> offset (None outside `split`) and offset - HEAD -> job.
_helper: Optional[tuple] = None
_slots: Optional[dict] = None
_jobs: list = []


def sums(entries: Sequence[bytes]) -> list[Sum]:
    """entries as the sum jobs that plan and apply them alike."""
    return [(tuple(entries[i : i + CHUNK]),) for i in range(0, len(entries), CHUNK)]


def _index(plan: Sequence[Job]) -> dict:
    """Each distinct job in plan to its table offset while the table has
    room: a sum among the first SUM_SLOTS slots, and for a check each triple
    that `check_multisig`'s greedy pass may ask libsodium (signature j
    against keys j onwards)."""
    slots: dict = {}
    for job in plan:
        if len(job) == 1:
            if len(slots) < SUM_SLOTS:
                slots.setdefault(job, HEAD + len(slots))
            continue
        pubkeys, msg, sigs = job
        for j, sig in enumerate(sigs):
            for pubkey in pubkeys[j:]:
                if len(slots) < TABLE_SLOTS:
                    slots.setdefault((pubkey, msg, sig), HEAD + len(slots))
    return slots


def _vector(slot: int) -> slice:
    """Where slot's vector lies, past every state byte."""
    at = TABLE_SLOTS + slot * DIGEST_BYTES
    return slice(at, at + DIGEST_BYTES)


def _run(table: mmap.mmap, slot: int, job: tuple, claim: int) -> Union[bool, bytes]:
    """job's result, computed under claim and written to its slot: a
    triple's libsodium verdict, or a sum's vector."""
    table[slot] = claim
    if len(job) == 1:
        acc = LtHash()
        acc.add_many(job[0])
        table[_vector(slot)] = result = acc.digest()
        table[slot] = ACCEPT
        return result
    result = crypto._sodium_check(*job)
    table[slot] = ACCEPT if result else REJECT
    return result


def ask(job: Job) -> Union[None, bool, bytes]:
    """job's result through the running batch's table (a triple's verdict, a
    sum's vector), or None if job is not planned. While the helper computes
    the caller's slot, the caller computes the last free slot, since the
    helper works from the front; with none left it waits, as long as the
    helper lives."""
    slot = None if _slots is None else _slots.get(job)
    if slot is None:
        return None
    process, _, table = _helper
    table[:HEAD] = slot.to_bytes(HEAD, "little")
    while (state := table[slot]) == HELPING:
        if (free := table.rfind(b"\0", HEAD, HEAD + len(_jobs))) > 0:
            _run(table, free, _jobs[free - HEAD], CALLING)
        elif not process.is_alive():
            break
    if state < ACCEPT:
        return _run(table, slot, job, CALLING)
    return table[_vector(slot)] if len(job) == 1 else state == ACCEPT


def summed(entries: Sequence[bytes]) -> list[tuple[Sequence[bytes], Optional[bytes]]]:
    """entries in parts, each with its vector from the running batch's
    table, or None where the caller is to add the part up itself."""
    if _slots is None or len(entries) < PLANNED_SUM:
        return [(entries, None)]
    return [(job[0], ask(job)) for job in sums(entries)]


def _serve(conn: multiprocessing.connection.Connection, table: mmap.mmap) -> None:
    """The helper process: for each plan, each free job in order but the one
    under the caller's cursor, a check through `check_multisig`'s libsodium
    pass, until the batch is done, then an acknowledgement, after which it
    writes nothing until it blocks on the next plan. EOF ends it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C stops the parent, and EOF this

    def take(job: tuple) -> bool:
        """False only for a rejected triple."""
        slot = slots.get(job)
        if slot is None or table[slot] != FREE:
            return slot is None or table[slot] != REJECT  # unplanned or taken: assume honest
        # Claim, then read the cursor, the reverse of the caller's order: a
        # caller that writes its cursor after this read finds the claim.
        table[slot] = HELPING
        if int.from_bytes(table[:HEAD], "little") in (slot, DONE):
            if table[slot] == HELPING:
                table[slot] = FREE  # the caller's own, or too late: leave it to the caller
            return True
        return _run(table, slot, job, HELPING) is not False

    with suppress(EOFError, OSError):  # the caller's end is closed
        while True:
            plan = conn.recv()
            slots = _index(plan)
            for job in plan:
                if len(job) == 1:
                    take(job)
                else:
                    pubkeys, msg, sigs = job
                    crypto._in_order(lambda *key: take(key), pubkeys, sigs, msg)
            conn.send_bytes(b"")


def _ready_helper() -> tuple:
    """The helper once it has acknowledged its last batch, after which it
    writes nothing until the next plan; a new helper if it died."""
    global _helper
    if _helper is not None:
        with suppress(EOFError, OSError):  # else it died; starting the next process reaps it
            _helper[1].recv_bytes()
            return _helper
    table, (conn, child_end) = mmap.mmap(-1, TABLE_SLOTS + (HEAD + SUM_SLOTS) * DIGEST_BYTES), multiprocessing.Pipe()
    fork = multiprocessing.get_context("fork")
    process = fork.Process(target=_serve, args=(child_end, table), name="tierledger-helper", daemon=True)
    _helper = (process, conn, table)
    try:
        process.start()  # the fork hook closes conn in the helper
    finally:
        child_end.close()
    return _helper


@contextmanager
def split(plan: Callable[[], Sequence[Job]]) -> Iterator[None]:
    """Share the batch's planned work with the helper process, which works
    through plan() meanwhile; only with libsodium and two CPUs is plan()
    called."""
    global _slots, _jobs
    if crypto.CPUS < 2 or crypto._sodium_verify() is None:
        yield
        return
    jobs = plan()
    slots = _index(jobs)
    helper = _ready_helper()
    helper[2][: HEAD + len(slots)] = bytes(HEAD + len(slots))
    with suppress(OSError):  # a helper that died since: inline now, a new one next batch
        helper[1].send(jobs)
        _slots, _jobs = slots, list(slots)
    try:
        yield
    finally:
        _slots, _jobs = None, []
        if _helper is helper:  # not in a forked child
            helper[2][:HEAD] = DONE.to_bytes(HEAD, "little")


def _forget_helper() -> None:
    """In a forked child: work inline, never touching the parent's table or pipe."""
    global _helper, _slots
    if _helper is not None:
        _helper[1].close()
        multiprocessing.process._children.discard(_helper[0])  # the child's exit must not stop it
    _helper = _slots = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
