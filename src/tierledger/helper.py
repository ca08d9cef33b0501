"""One forked helper process that works through a batch's plan ahead of the
caller, which asks the same jobs in any order, and shares each result
through one table in shared memory (`split`). The plan, made only while a
helper runs, reaches it in parts as the batch is read. A job is a signature
check, each of whose triples ends as a libsodium verdict byte, or a sum of
UTXO entries, which ends as the entries' own LtHash `digest()`. A result is
looked up by the exact triple or entries the caller would compute it from,
so a wrong or stale plan costs only wasted work. A job the plan missed, one
past the table's room, and all work on one CPU or without libsodium run
inline: no verdict, digest, receipt or log byte depends on the helper.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import platform
import signal
from collections import deque
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import crypto
from .lthash import DIGEST_BYTES, LtHash

# Entries per sum job: a transaction's created outputs are cut into sums of
# CHUNK, so that a fan-out's large transactions are shared out. Fewer than
# PLANNED_SUM outputs are not worth a job: reading a vector back costs about
# half of expanding an entry.
CHUNK, PLANNED_SUM = 128, 8
# The caller sends the parts it has read as one message once they hold a
# sum job or PART_SLOTS new table slots, and the rest with the end of the
# plan. Each message costs both processes a pickle and a wake-up, so a batch
# of a few small transactions still goes as one.
PART_SLOTS = 32

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
# vector is written; the helper writes the vector first, and the caller
# reads it only after the byte, which is sound only where stores are seen in
# order (x86-64). So sums are planned only there, and checks, whose result
# is the byte itself, everywhere.
FREE, HELPING, CALLING, ACCEPT, REJECT = range(5)
HEAD, TABLE_SLOTS, SUM_SLOTS, DONE = 4, 1 << 16, 1 << 12, 2**32 - 1  # planned work past them runs inline
ORDERED_STORES = platform.machine() in ("x86_64", "AMD64")
# The helper (process, the caller's end of its pipe, table); the running
# batch's job -> offset (None outside `split`) and offset - HEAD -> job.
_helper: Optional[tuple] = None
_slots: Optional[dict] = None
_jobs: list = []


def sums(entries: Sequence[bytes]) -> list[Sum]:
    """entries as the sum jobs that plan and apply them alike."""
    return [(tuple(entries[i : i + CHUNK]),) for i in range(0, len(entries), CHUNK)]


def _index(part: Sequence[Job], slots: dict) -> None:
    """Give each new job in part the next table offset while the table has
    room: a sum among the first SUM_SLOTS slots, and for a check each triple
    that `check_multisig`'s greedy pass may ask libsodium (signature j
    against keys j onwards). Both sides index the same parts in plan order,
    so they agree on every offset."""
    for job in part:
        if len(job) == 1:
            if len(slots) < SUM_SLOTS:
                slots.setdefault(job, HEAD + len(slots))
            continue
        pubkeys, msg, sigs = job
        for j, sig in enumerate(sigs):
            for pubkey in pubkeys[j:]:
                if len(slots) < TABLE_SLOTS:
                    slots.setdefault((pubkey, msg, sig), HEAD + len(slots))


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


def sharing() -> bool:
    """Whether a batch's planned jobs may be answered from the helper's table."""
    return _slots is not None


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


def _serve(conn: multiprocessing.connection.Connection, table: mmap.mmap) -> None:
    """The helper process: for each plan, each free job in order but the one
    under the caller's cursor, a check through `check_multisig`'s libsodium
    pass, reading the parts that have arrived between jobs, until the plan
    has ended and the batch is done; then an acknowledgement, after which it
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
            slots: dict = {}
            jobs: deque = deque()
            ended = False
            while jobs or not ended:
                # Read waiting parts between jobs, so that a caller blocked on
                # a full pipe waits for one job at most; wait for a part only
                # with no job left.
                if not ended and (not jobs or conn.poll()):
                    part, ended = conn.recv()
                    _index(part, slots)
                    jobs.extend(part)
                    continue
                job = jobs.popleft()
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
def split(items: Iterable, plan: Callable[..., Sequence[Job]]) -> Iterator[list]:
    """Read items whole before the block runs, and hand the block the list
    read. Only with libsodium and two CPUs is a helper used: then plan(item),
    the item's part of the batch's plan, is made as it is read, and the
    helper starts on each part as it is sent; otherwise nothing is planned."""
    global _slots, _jobs
    if crypto.CPUS < 2 or crypto._sodium_verify() is None:
        yield list(items)
        return
    helper = _ready_helper()
    _, conn, table = helper
    table[:HEAD] = bytes(HEAD)
    read: list = []
    slots: dict = {}
    message: list = []
    sent = 0  # slots the helper has been sent

    def send(ended: bool) -> None:
        nonlocal message, sent
        table[HEAD + sent : HEAD + len(slots)] = bytes(len(slots) - sent)
        with suppress(OSError):  # a helper that died since: its slots run inline, a new one next batch
            conn.send((message, ended))
        message, sent = [], len(slots)

    try:
        try:
            for item in items:
                read.append(item)
                part = plan(item)
                _index(part, slots)
                message += part
                if len(slots) - sent >= PART_SLOTS or any(len(job) == 1 for job in part):
                    send(False)
        finally:
            send(True)  # the rest and the end of the plan, also when reading it raised
        _slots, _jobs = slots, list(slots)
        yield read
    finally:
        _slots, _jobs = None, []
        if _helper is helper:  # not in a forked child
            table[:HEAD] = DONE.to_bytes(HEAD, "little")


def _forget_helper() -> None:
    """In a forked child: work inline, never touching the parent's table or pipe."""
    global _helper, _slots
    if _helper is not None:
        _helper[1].close()
        multiprocessing.process._children.discard(_helper[0])  # the child's exit must not stop it
    _helper = _slots = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
