"""One forked helper process that works through a batch's plan ahead of the
caller, which asks the same jobs in any order, and shares each result
through one table in shared memory (`split`). The plan, made only while a
helper runs, reaches it in parts as the batch is read, the batch's LtHash
deltas follow it as the batch runs and once it has run (`post`), and its
end follows once the batch has ended. A job is a signature check, each of
whose triples ends as a libsodium verdict byte, or an LtHash delta, which
ends as its lane vector. A result is looked up by the exact triple or
entries the caller would compute it from, so a wrong or stale plan costs
only wasted work. A job the plan missed, one past the table's room, and
all work on one CPU, without libsodium or without a helper that could
start run inline: no verdict, digest, receipt or log byte depends on the
helper.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import platform
import select
import signal
from collections import deque
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import crypto, lthash
from .lthash import DIGEST_BYTES

# Entries per vector job: a transaction's created outputs are cut into sums
# of CHUNK, and a window's net delta into chunks of at most CHUNK, so that a
# fan-out's large transactions and a large window are shared out. Fewer than
# PLANNED_SUM outputs are not worth a job: reading a vector back costs about
# half of expanding an entry. With no vector jobs at all (ORDERED_STORES
# false), perfbench at seed 41 on a 2-vCPU x86-64 host read, in two sets of
# 10 alternating pairs: contracts-declared commit_tps 0.88x and 0.91x, mixed
# commit_tps 0.86x and 0.89x, pay-10k replay_tps 0.65x and 0.70x and its
# setup_s 1.15x and 1.12x, winning at most 2 of 10 pairs in each.
CHUNK, PLANNED_SUM = 128, 8
# The caller sends the parts it has read as one message once they hold a
# vector job or PART_SLOTS new table slots, and the rest before the batch
# runs; each message costs both processes a pickle and a wake-up. A batch's
# window of LtHash writes is PART_SLOTS intervals, too (ledger.apply_batch).
PART_SLOTS = 32

Check = tuple[Sequence[bytes], bytes, Sequence[bytes]]  # (pubkeys, msg, sigs)
# A vector job is an LtHash delta, (added, removed): a 2-tuple never equals
# a check's 3-tuple as a key, and pickles plainly.
Job = Union[Check, lthash.Delta]

# The table in shared memory: a 4-byte cursor (the slot the caller asked
# last, in any order, or DONE after the batch), then a state byte per
# planned triple or vector job in plan order, then one DIGEST_BYTES vector
# per slot for the first SUM_SLOTS slots; its pages are touched only by the
# vector jobs a batch holds. Claims are plain byte writes: the helper claims
# from the front and the caller, helping, from the back, so both compute one
# job only when they race for the last free slot. A vector job's slot ends
# ACCEPT once its vector is written; the helper writes the vector first, and
# the caller reads it only after the byte, which is sound only where stores
# are seen in order (x86-64). So vector jobs go to the helper only there,
# and checks, whose result is the byte itself, everywhere.
FREE, HELPING, CALLING, ACCEPT, REJECT = range(5)
HEAD, TABLE_SLOTS, SUM_SLOTS, DONE = 4, 1 << 16, 1 << 12, 2**32 - 1  # planned work past them runs inline
ORDERED_STORES = platform.machine() in ("x86_64", "AMD64")
# The helper (process, the caller's end of its pipe, table); the running
# batch's job -> offset (None outside `split`), offset - HEAD -> job, the
# number of jobs planned before it ran, and the function that adds to its plan.
_helper: Optional[tuple] = None
_slots: Optional[dict] = None
_jobs: list = []
_planned = 0
_add: Optional[Callable[[Sequence[Job]], None]] = None
# Consecutive helper starts that failed, and the batches to run without
# trying again (`_ready_helper`).
_failed_starts = _batches_to_skip = 0


def chunks(delta: lthash.Delta) -> list[lthash.Delta]:
    """delta as deltas of at most CHUNK entries each, its additions first,
    that fold alike: jobs the caller and the helper can share."""
    added, removed = delta
    n = len(added)
    return [
        (added[i : i + CHUNK], removed[max(i - n, 0) : max(i + CHUNK - n, 0)])
        for i in range(0, n + len(removed), CHUNK)
    ]


def sums(entries: Sequence[bytes]) -> list[lthash.Delta]:
    """entries as the deltas, each adding CHUNK of them, that plan and apply
    them alike."""
    return chunks((tuple(entries), ()))


def _index(part: Sequence[Job], slots: dict) -> list:
    """Give each new job in part the next table offset while the table has
    room, and return the new keys: a vector job among the first SUM_SLOTS
    slots, and for a check each triple that `check_multisig`'s greedy pass
    may ask libsodium (signature j against keys j onwards). Both sides index
    the same parts in plan order, so they agree on every offset."""
    new = []
    for job in part:
        if len(job) < 3:
            keys: Sequence = (job,) if len(slots) < SUM_SLOTS else ()
        else:
            pubkeys, msg, sigs = job
            keys = [(pubkey, msg, sig) for j, sig in enumerate(sigs) for pubkey in pubkeys[j:]]
        for key in keys:
            if key not in slots and len(slots) < TABLE_SLOTS:
                slots[key] = HEAD + len(slots)
                new.append(key)
    return new


def _vector(slot: int) -> slice:
    """Where slot's vector lies, past every state byte."""
    at = TABLE_SLOTS + slot * DIGEST_BYTES
    return slice(at, at + DIGEST_BYTES)


def _run(table: mmap.mmap, slot: int, job: tuple, claim: int) -> Union[bool, bytes]:
    """job's result, computed under claim and written to its slot: a
    triple's libsodium verdict, or a vector job's lanes."""
    table[slot] = claim
    if len(job) < 3:
        table[_vector(slot)] = result = lthash.vector(job)
        table[slot] = ACCEPT
        return result
    result = crypto._sodium_check(*job)
    table[slot] = ACCEPT if result else REJECT
    return result


def planned(job: Job) -> Optional[Job]:
    """The running batch's own copy of job, if its plan holds it."""
    slot = None if _slots is None else _slots.get(job)
    return None if slot is None else _jobs[slot - HEAD]


def ask(job: Job) -> Union[None, bool, bytes]:
    """job's result through the running batch's table (a triple's verdict, a
    vector job's lanes), or None if job is not in the plan. While the helper
    computes the caller's slot, the caller computes the last free slot, since
    the helper works from the front; with none left it waits for a check, as
    long as the helper lives. A check helps only with the jobs planned before
    the batch ran: a delta takes longer than the check the caller waits for,
    and the deltas are the helper's while the batch runs. A vector job, asked
    once the batch has run, helps only with the deltas posted: a planned
    check still free by then is one the batch never asked. A vector job that
    the helper has not written is the caller's to compute, without its
    vector (None): claimed if free, and else computed alike, since its
    vector is the same whoever computes it."""
    slot = None if _slots is None else _slots.get(job)
    if slot is None:
        return None
    process, _, table = _helper
    table[:HEAD] = slot.to_bytes(HEAD, "little")
    helped = (HEAD + _planned, HEAD + len(_jobs)) if len(job) < 3 else (HEAD, HEAD + _planned)
    while (state := table[slot]) == HELPING:
        if (free := table.rfind(b"\0", *helped)) > 0:
            _run(table, free, _jobs[free - HEAD], CALLING)
        elif len(job) < 3 or not process.is_alive():
            break
    if state >= ACCEPT:
        return table[_vector(slot)] if len(job) < 3 else state == ACCEPT
    if len(job) < 3:
        if state == FREE:
            table[slot] = CALLING
        return None
    return _run(table, slot, job, CALLING)


def _serve(conn: multiprocessing.connection.Connection, table: mmap.mmap) -> None:
    """The helper process: for each plan, each free job in order but the one
    under the caller's cursor, a check through `check_multisig`'s libsodium
    pass, reading the parts that have arrived between jobs, until the plan
    has ended; then an acknowledgement, after which it writes nothing until
    it blocks on the next plan. EOF ends it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C stops the parent, and EOF this
    waiting = select.poll()  # a tenth of conn.poll()'s cost, paid between every two jobs
    waiting.register(conn.fileno(), select.POLLIN)

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
            last = False
            while jobs or not last:
                # Read waiting parts between jobs, so that a caller blocked on
                # a full pipe waits for one job at most; wait for a part only
                # with no job left.
                if not last and (not jobs or waiting.poll(0)):
                    part, last = conn.recv()
                    _index(part, slots)
                    jobs.extend(part)
                    continue
                job = jobs.popleft()
                if len(job) < 3:
                    take(job)
                else:
                    pubkeys, msg, sigs = job
                    crypto._in_order(lambda *key: take(key), pubkeys, sigs, msg)
            conn.send_bytes(b"")


def _ready_helper() -> Optional[tuple]:
    """The helper once it has acknowledged its last batch, after which it
    writes nothing until the next plan; a new helper if it died, also since
    its acknowledgement; None while a backoff runs. A fork that fails leaves
    open the four descriptors multiprocessing opened for it, so after k
    consecutive starts that failed the next 2^(k-1) - 1 batches run without
    trying, and a start that succeeds resets k. A table that cannot be
    mapped leaks nothing, and the next batch tries again."""
    global _helper, _failed_starts, _batches_to_skip
    if _helper is not None:
        with suppress(EOFError, OSError):  # else it died; starting the next process reaps it
            _helper[1].recv_bytes()
            if _helper[0].is_alive():
                return _helper
    if _batches_to_skip:
        _batches_to_skip -= 1
        return None
    table, (conn, child_end) = mmap.mmap(-1, TABLE_SLOTS + (HEAD + SUM_SLOTS) * DIGEST_BYTES), multiprocessing.Pipe()
    fork = multiprocessing.get_context("fork")
    process = fork.Process(target=_serve, args=(child_end, table), name="tierledger-helper", daemon=True)
    _helper = (process, conn, table)
    try:
        process.start()  # the fork hook closes conn in the helper
    except OSError:
        conn.close()
        _helper = None
        _failed_starts += 1
        _batches_to_skip = 2 ** (_failed_starts - 1) - 1
        raise
    finally:
        child_end.close()
    _failed_starts = 0
    return _helper


@contextmanager
def split(items: Iterable, plan: Callable[..., Sequence[Job]]) -> Iterator[list]:
    """Read items whole before the block runs, and hand the block the list
    read. Only with libsodium and two CPUs is a helper used: then plan(item),
    the item's part of the batch's plan, is made as it is read, and the
    helper starts on each part as it is sent; otherwise nothing is planned.
    The plan stays open for the deltas the block posts (`post`) and ends
    once the block has ended. A helper that cannot start leaves the batch
    to run inline, and a later batch tries again."""
    global _slots, _jobs, _planned, _add
    helper = None
    if crypto.CPUS > 1 and crypto._sodium_verify() is not None:
        with suppress(OSError):  # no room for the table, or no process to fork
            helper = _ready_helper()
    if helper is None:
        yield list(items)
        return
    _, conn, table = helper
    table[:HEAD] = bytes(HEAD)
    read: list = []
    slots: dict = {}
    jobs: list = []
    message: list = []
    sent = 0  # slots the helper has been sent

    def send(end: bool = False) -> None:
        nonlocal message, sent
        with suppress(OSError):  # a helper that died since: its slots run inline, a new one next batch
            conn.send((message, end))
        message, sent = [], len(slots)

    def add(part: Sequence[Job]) -> None:
        """Index part, whose new slots start free, and send what has
        gathered once it holds a vector job or PART_SLOTS new slots."""
        nonlocal message
        new = _index(part, slots)
        table[HEAD + len(jobs) : HEAD + len(slots)] = bytes(len(new))
        jobs.extend(new)
        message += part
        if len(slots) - sent >= PART_SLOTS or any(len(job) < 3 for job in part):
            send()

    try:
        for item in items:
            read.append(item)
            add(plan(item))
        if message:
            send()  # the plan's tail, for the helper to start on
        _slots, _jobs, _planned, _add = slots, jobs, len(jobs), add
        yield read
    finally:
        _slots, _jobs, _add = None, [], None
        if _helper is helper:  # not in a forked child
            send(True)  # the end of the plan, also when reading it or the block raised
            table[:HEAD] = DONE.to_bytes(HEAD, "little")


def post(deltas: Sequence[lthash.Delta]) -> None:
    """Add deltas to the running batch's plan and send them, where the host
    sees the helper's stores in order; a delta not posted is not in the
    plan, and `ask` leaves it to the caller."""
    # Posting every window, the batch's last one too, took contracts-declared
    # commit_tps from 8,099 to 9,182 tx/s; folding the windows inline as one
    # net per batch read 0.90x mixed commit_tps (0 of 6 pairs won).
    if _add is not None and ORDERED_STORES:
        _add(deltas)


def _forget_helper() -> None:
    """In a forked child: work inline, never touching the parent's table or pipe."""
    global _helper, _slots, _add
    if _helper is not None:
        _helper[1].close()
        multiprocessing.process._children.discard(_helper[0])  # the child's exit must not stop it
    _helper = _slots = _add = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
