"""The helper process's signature checks (`helper.split`): `apply_batch`
shares its libsodium verdicts with one forked helper through a byte table in
shared memory. The helper must never change a verdict, a receipt or a header hash;
no verdict may outlive its batch; a helper that raises or dies must leave
the inline verdicts; and an idle helper must use no CPU and must not outlive
its parent. Tests switch the helper on and off through `crypto.CPUS` alone.

A patch of `crypto` or `helper` reaches the helper only if the helper forks after it, so
tests that patch what the helper runs take the `fresh_helper` fixture, which
stops the helper before the test and again before the patches are undone."""

from __future__ import annotations

import errno
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
import types
from collections import Counter
from pathlib import Path

import pytest

import test_crypto
import test_golden as golden
from helpers import (
    KEYS,
    counter_code,
    make_call,
    make_config,
    make_deploy,
    make_move_to_account,
    make_move_to_utxo,
    p2pk,
    seed_balance,
    seed_utxo,
    signed_spend,
)
from tierledger import codes, crypto, helper, ledger, utxo
from tierledger.model import Lock, Outpoint, Output, Transaction, UtxoSpend, address_of_pubkey, txid
from tierledger.script import assemble

HELPER = "tierledger-helper"

needs_sodium = pytest.mark.skipif(crypto._sodium_verify() is None, reason="the helper needs libsodium")


def stop_helper() -> None:
    """Close the helper's pipe, so that it exits, and forget it and any
    failed starts."""
    running, helper._helper = helper._helper, None
    helper._failed_starts = helper._batches_to_skip = 0
    if running is not None:
        running[1].close()
        running[0].join(10)
        assert not running[0].is_alive()


@pytest.fixture
def fresh_helper(monkeypatch):
    """The test's first batch forks a helper that runs the test's patches;
    it is stopped before monkeypatch undoes them."""
    stop_helper()
    yield
    stop_helper()


def count_libsodium(monkeypatch) -> Counter:
    """Count this process's calls that reach libsodium, by (inside a batch, triple)."""
    calls: Counter = Counter()
    real = crypto._sodium_check

    def counting(*key):
        calls[helper._slots is not None, key] += 1
        return real(*key)

    monkeypatch.setattr(crypto, "_sodium_check", counting)
    return calls


def helper_processes() -> list:
    return [p for p in multiprocessing.active_children() if p.name == HELPER]


def wait_for_the_helper() -> None:
    """Wait until the helper has acknowledged the running batch's plan: it
    has finished its pass and writes nothing more until the next plan. The
    acknowledgement stays in the pipe for the next batch to read."""
    assert helper._helper[1].poll(30), "the helper never finished the plan"


def wait_for_verdicts(keys) -> None:
    """Wait until the running batch's table holds a verdict on each of keys.
    Its plan stays open until the batch ends, so the helper acknowledges
    nothing before; with no job left, it only waits for the next part."""
    table, deadline = helper._helper[2], time.monotonic() + 30
    while any(table[helper._slots[key]] < helper.ACCEPT for key in keys):
        assert time.monotonic() < deadline, "the helper never finished its pass"
        time.sleep(0.001)


def cursor(table) -> int:
    return int.from_bytes(table[: helper.HEAD], "little")


def mixed_batch():
    """A funded state, a config and one batch that mixes a 2-of-3 multisig
    signed by keys 1 and 3 (skipping key 2), a P2PK input created earlier in
    the same batch, a wrong signature, a Call with bad auth, and honest
    spends, moves and calls."""
    state, cfg = ledger.LedgerState(), make_config()
    ledger.apply_batch(state, [], 1, cfg)
    deployer = KEYS[9]
    seed_balance(state, address_of_pubkey(deployer.pubkey), 1_000)
    deploy = make_deploy(deployer, counter_code(), gas_limit=100)
    ledger.apply_batch(state, [deploy], 2, cfg)
    contract = txid(deploy)

    ms_keys = KEYS[1:4]
    ms_op = seed_utxo(state, Output(50, Lock.multisig(2, [kp.pubkey for kp in ms_keys])))
    ms_tx = Transaction(UtxoSpend((ms_op,), (p2pk(KEYS[4], 50),)))
    msg = crypto.utxo_signing_message(txid(ms_tx), 0)
    ms_tx = ms_tx.with_witnesses([(ms_keys[0].sign(msg), ms_keys[2].sign(msg))])

    first = signed_spend(KEYS[5], [seed_utxo(state, p2pk(KEYS[5], 40))], [p2pk(KEYS[6], 40)])
    chained = signed_spend(KEYS[6], [Outpoint(txid(first), 0)], [p2pk(KEYS[7], 40)])
    wrong = signed_spend(KEYS[8], [seed_utxo(state, p2pk(KEYS[7], 30))], [p2pk(KEYS[8], 30)])

    caller = KEYS[10]
    seed_balance(state, address_of_pubkey(caller.pubkey), 1_000)
    good_call = make_call(caller, contract, nonce=0, gas_limit=100)
    forged = make_call(caller, contract, nonce=1, gas_limit=100)
    forged = forged.with_auth(caller.pubkey, crypto.sign(caller.seed, b"not the txid"))
    move = make_move_to_utxo(caller, 10, [p2pk(caller, 10)], nonce=1)
    honest = [
        signed_spend(kp, [seed_utxo(state, p2pk(kp, 20))], [p2pk(kp, 20)]) for kp in KEYS[11:16]
    ]
    txs = [ms_tx, first, good_call, chained, wrong, forged, move, *honest]
    want = {0: codes.OK, 1: codes.OK, 2: codes.OK, 3: codes.OK, 4: utxo.LOCK_FAILED, 5: codes.BAD_AUTH, 6: codes.OK}
    return state, cfg, txs, want


def helper_pass(plan) -> set:
    """The triples the helper computes in its pass over plan, if the caller
    asks for none of them first."""
    keys: set = set()
    for pubkeys, msg, sigs in plan:
        crypto._in_order(lambda *key: keys.add(key) or crypto._sodium_check(*key), pubkeys, sigs, msg)
    return keys


def apply_copy(state, cfg, txs):
    state = state.copy()
    receipts, header = ledger.apply_batch(state, txs, state.epoch + 1, cfg)
    return receipts, header.hash()


def count_starts(monkeypatch) -> list:
    """The names of the threads and processes started from now on."""
    started: list = []
    for cls in (threading.Thread, multiprocessing.process.BaseProcess):
        real = cls.start
        monkeypatch.setattr(cls, "start", lambda self, real=real: started.append(self.name) or real(self))
    return started


@needs_sodium
def test_helper_on_and_off_give_identical_receipts_and_headers(monkeypatch):
    state, cfg, txs, want = mixed_batch()
    calls = count_libsodium(monkeypatch)
    started = count_starts(monkeypatch)
    monkeypatch.setattr(crypto, "CPUS", 1)
    inline = apply_copy(state, cfg, txs)
    assert calls and {in_batch for in_batch, _ in calls} == {False}
    assert started == []
    monkeypatch.setattr(crypto, "CPUS", 2)
    for _ in range(5):
        assert apply_copy(state, cfg, txs) == inline
    assert {i: inline[0][i].status for i in want} == want


@needs_sodium
def test_a_finished_helper_answers_every_planned_check(monkeypatch):
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg, txs, _ = mixed_batch()
    planned = [job for tx in txs for job in ledger._plan(state.utxos, tx, txid(tx)) if len(job) == 3]
    keys = helper_pass(planned)
    calls = count_libsodium(monkeypatch)
    with helper.split([planned], list):
        wait_for_verdicts(keys)
        table = helper._helper[2]
        # The helper computed exactly its pass, each verdict libsodium's.
        done = {key: table[slot] for key, slot in helper._slots.items() if table[slot] != helper.FREE}
        assert set(done) == keys
        assert all(done[key] == (helper.ACCEPT if crypto._sodium_check(*key) else helper.REJECT) for key in keys)
        calls.clear()
        # The caller checks only now, so each check must find the helper's
        # verdict.
        for pubkeys, msg, sigs in planned:
            if len(pubkeys) == 1:
                crypto.verify(pubkeys[0], msg, sigs[0])
            else:
                crypto.check_multisig(len(sigs), pubkeys, sigs, msg)
    assert not calls


@needs_sodium
def test_no_memo_outlives_its_batch(monkeypatch):
    """The batch's table is its memo: the caller drops its index when the
    batch ends, marks the table done, and the helper acknowledges before the
    next batch clears it."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg, txs, _ = mixed_batch()
    calls = count_libsodium(monkeypatch)
    apply_copy(state, cfg, txs)
    assert any(in_batch for in_batch, _ in calls)  # the batch ran with a table
    assert helper._slots is None
    table = helper._helper[2]
    assert cursor(table) == helper.DONE
    # Once the helper has acknowledged the batch, it writes nothing more.
    wait_for_the_helper()
    written = bytes(table)
    time.sleep(0.05)
    assert bytes(table) == written
    with pytest.raises(ledger.BatchError):
        ledger.apply_batch(state.copy(), txs, state.epoch - 1, cfg)
    assert helper._slots is None

    def boom(*args):
        raise RuntimeError("transfer failed")

    monkeypatch.setattr(ledger, "_transfer", boom)
    with pytest.raises(RuntimeError):
        apply_copy(state, cfg, txs)
    assert helper._slots is None
    assert cursor(helper._helper[2]) == helper.DONE


@needs_sodium
def test_a_helper_that_raises_leaves_the_inline_verdicts(monkeypatch, fresh_helper):
    monkeypatch.setattr(crypto, "CPUS", 1)
    state, cfg, txs, _ = mixed_batch()
    inline = apply_copy(state, cfg, txs)
    monkeypatch.setattr(crypto, "CPUS", 2)
    parent = os.getpid()
    real = crypto._sodium_check

    def failing(*key):
        if os.getpid() != parent:
            raise RuntimeError("helper failed")
        helper._helper[0].join(10)  # let the helper fail before the caller's first check
        return real(*key)

    monkeypatch.setattr(crypto, "_sodium_check", failing)
    result = []
    batch = threading.Thread(target=lambda: result.append(apply_copy(state, cfg, txs)), daemon=True)
    batch.start()
    batch.join(60)
    assert not batch.is_alive(), "apply_batch hung on a failed helper"
    failed = helper._helper[0]
    assert failed.exitcode == 1  # it raised
    assert result == [inline]
    # The next batch starts a new helper; there is never more than one.
    monkeypatch.setattr(crypto, "_sodium_check", real)
    assert apply_copy(state, cfg, txs) == inline
    assert helper._helper[0] is not failed and helper_processes() == [helper._helper[0]]


@needs_sodium
def test_a_caller_waiting_on_a_failed_claim_computes_the_verdict(monkeypatch, fresh_helper):
    monkeypatch.setattr(crypto, "CPUS", 2)
    kp = KEYS[1]
    key = (kp.pubkey, test_crypto.MSG, kp.sign(test_crypto.MSG))
    parent = os.getpid()
    real = crypto._sodium_check
    # The helper dies inside its first libsodium call, holding that claim.
    monkeypatch.setattr(crypto, "_sodium_check", lambda *k: os._exit(3) if os.getpid() != parent else real(*k))
    with helper.split([[((key[0],), key[1], (key[2],))]], list):
        process, _, table = helper._helper
        process.join(10)
        assert process.exitcode == 3
        slot = helper._slots[key]
        assert table[slot] == helper.HELPING
        result = []
        waiter = threading.Thread(target=lambda: result.append(crypto._sodium_accepts(*key)), daemon=True)
        waiter.start()
        waiter.join(30)
        assert not waiter.is_alive(), "the caller hung on a failed claim"
        assert result == [True]
        assert table[slot] == helper.ACCEPT


@needs_sodium
def test_racing_caller_and_helper_agree_on_every_verdict(monkeypatch, fresh_helper):
    """The caller and the helper race over one plan of 2,000 triples, in plan
    order and in shuffled orders. The verdicts come from a cheap stand-in for
    libsodium, so that both processes spend their time claiming. A claim is
    a plain byte write, so both may compute a triple; neither may ever read a
    wrong verdict, and every slot must end as one."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    rng = random.Random(7)
    keys = [(rng.randbytes(32), rng.randbytes(32), rng.randbytes(64)) for _ in range(2_000)]
    monkeypatch.setattr(crypto, "_sodium_check", lambda *key: key[2][0] % 2 == 0)
    want = {key: key[2][0] % 2 == 0 for key in keys}
    plan = [((pk,), msg, (sig,)) for pk, msg, sig in keys]
    for round_ in range(10):
        order = keys if round_ % 2 == 0 else random.Random(round_).sample(keys, len(keys))
        with helper.split([plan], list):
            got = {key: crypto._sodium_accepts(*key) for key in order}
            slots = dict(helper._slots)
        assert got == want, f"round {round_}"
        wait_for_the_helper()
        table = helper._helper[2]
        assert all(table[slot] == (helper.ACCEPT if want[key] else helper.REJECT) for key, slot in slots.items())


@needs_sodium
def test_a_caller_asking_out_of_plan_order_leaves_the_helper_every_other_slot(monkeypatch, fresh_helper):
    """The caller asks the last planned check first, as the scheduler does
    with a call in an early wave; the helper must still verify every earlier
    check, so the caller computes none of them."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    kp = KEYS[1]
    msgs = [crypto.account_signing_message(i.to_bytes(32, "little")) for i in range(40)]
    keys = [(kp.pubkey, msg, kp.sign(msg)) for msg in msgs]
    parent = os.getpid()
    real = crypto._sodium_check

    def slow_in_the_helper(*key):
        if os.getpid() != parent:
            time.sleep(0.002)  # the caller's first check lands before the helper's pass ends
        return real(*key)

    monkeypatch.setattr(crypto, "_sodium_check", slow_in_the_helper)
    calls = count_libsodium(monkeypatch)
    with helper.split([[((pk,), msg, (sig,)) for pk, msg, sig in keys]], list):
        assert crypto.verify(*keys[-1])
        wait_for_verdicts(keys)
        table = helper._helper[2]
        assert [table[helper._slots[key]] for key in keys] == [helper.ACCEPT] * len(keys)
        assert all(crypto.verify(*key) for key in keys[:-1])
    assert {key for _, key in calls} <= {keys[-1]}


@needs_sodium
def test_s_guard_holds_through_the_helper(monkeypatch, fresh_helper):
    monkeypatch.setattr(crypto, "CPUS", 2)
    monkeypatch.setattr(crypto, "_sodium_verify", lambda: lambda sig, msg, n, pk: 0)
    kp = KEYS[1]
    sig = test_crypto.SIGS[test_crypto.KEYS[0].pubkey]
    pk = test_crypto.KEYS[0].pubkey
    s = int.from_bytes(sig[32:], "little")
    bad = [test_crypto.with_s(sig, v) for v in (test_crypto.L, s + test_crypto.L, 2**256 - 1)]
    plan = [((pk, kp.pubkey), test_crypto.MSG, (b,)) for b in bad]
    with helper.split([plan], list):
        wait_for_verdicts(list(helper._slots))
        table = helper._helper[2]
        assert [table[slot] for slot in helper._slots.values()] == [helper.REJECT] * (2 * len(bad))
        assert crypto.verify(pk, test_crypto.MSG + b"x", sig)  # the stub is in effect
        for b in bad:
            assert not crypto.verify(pk, test_crypto.MSG, b)
            assert not crypto.check_multisig(1, [pk, kp.pubkey], [b], test_crypto.MSG)


@needs_sodium
def test_a_stale_verdict_never_lands_in_the_next_batch(monkeypatch, fresh_helper):
    """Batch N plans an honest signature and batch N+1 a bad one at the same
    slot. The helper's verdict on batch N's signature is delayed past the
    end of batch N; the next batch must wait for it before it clears the
    table, so the bad signature is still rejected."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    kp = KEYS[1]
    good = (kp.pubkey, test_crypto.MSG, kp.sign(test_crypto.MSG))
    bad = (kp.pubkey, test_crypto.MSG + b"x", good[2])
    parent = os.getpid()
    real = crypto._sodium_check

    def slow_in_the_helper(*key):
        if os.getpid() != parent:
            time.sleep(0.3)
        return real(*key)

    monkeypatch.setattr(crypto, "_sodium_check", slow_in_the_helper)
    with helper.split([[((good[0],), good[1], (good[2],))]], list):
        table = helper._helper[2]
        slot = helper._slots[good]
        deadline = time.monotonic() + 30
        while table[slot] != helper.HELPING:
            assert time.monotonic() < deadline, "the helper never claimed the slot"
        # Batch N ends while the helper is still computing its verdict.
    with helper.split([[((bad[0],), bad[1], (bad[2],))]], list):
        assert helper._slots[bad] == slot
        time.sleep(0.5)  # long enough for a late write from batch N to land
        assert not crypto._sodium_accepts(*bad)
        assert not crypto.verify(*bad)


@needs_sodium
def test_a_helper_killed_mid_batch_leaves_the_receipts(monkeypatch, fresh_helper):
    monkeypatch.setattr(crypto, "CPUS", 1)
    state, cfg, txs, _ = mixed_batch()
    inline = apply_copy(state, cfg, txs)
    monkeypatch.setattr(crypto, "CPUS", 2)
    parent = os.getpid()
    real = crypto._sodium_check
    armed: list = []

    def check(*key):
        if os.getpid() != parent:
            time.sleep(0.02)  # keeps the helper mid-pass
        elif armed and armed[0].is_alive():
            os.kill(armed[0].pid, signal.SIGKILL)
        return real(*key)

    monkeypatch.setattr(crypto, "_sodium_check", check)
    assert apply_copy(state, cfg, txs) == inline  # forks a slow helper
    killed = helper._helper[0]
    armed.append(killed)
    result = []
    batch = threading.Thread(target=lambda: result.append(apply_copy(state, cfg, txs)), daemon=True)
    batch.start()
    batch.join(60)
    assert not batch.is_alive(), "apply_batch hung on a killed helper"
    assert result == [inline]
    killed.join(10)
    assert killed.exitcode == -signal.SIGKILL
    # The next batch starts a new helper; there is never more than one.
    assert apply_copy(state, cfg, txs) == inline
    assert helper._helper[0] is not killed and helper_processes() == [helper._helper[0]]


CHILD = textwrap.dedent(
    """
    import sys, time
    from tierledger import crypto, helper
    crypto.CPUS = 2
    kp = crypto.keygen(bytes(32))
    msg = bytes(32)
    sig = kp.sign(msg)
    with helper.split([[((kp.pubkey,), msg, (sig,))]], list):
        assert crypto.verify(kp.pubkey, msg, sig)
    print(helper._helper[0].pid, flush=True)
    if sys.argv[1] == "wait":
        time.sleep(60)
    """
)


def exited(pid: int) -> bool:
    """pid has exited: it is gone, or a zombie that its new parent has yet
    to reap (read from /proc only)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@needs_sodium
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("end", ["exit", "kill"])
def test_no_helper_outlives_its_parent(end):
    env = {**os.environ, "PYTHONPATH": str(Path(crypto.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, "wait" if end == "kill" else "exit"], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        pid = int(child.stdout.readline())
        if end == "kill":
            child.kill()
        assert child.wait(30) == (-signal.SIGKILL if end == "kill" else 0)
    finally:
        child.kill()
        child.stdout.close()
    deadline = time.monotonic() + 2
    while not exited(pid):
        assert time.monotonic() < deadline, f"the helper outlived its parent ({end})"
        time.sleep(0.01)


def cpu_ticks(pid: int) -> int:
    """utime + stime of pid, in clock ticks, read from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


@needs_sodium
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_an_idle_helper_uses_no_cpu(monkeypatch):
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg, txs, _ = mixed_batch()
    apply_copy(state, cfg, txs)
    wait_for_the_helper()
    pid = helper._helper[0].pid
    before = cpu_ticks(pid)
    time.sleep(0.5)
    assert cpu_ticks(pid) - before <= 2


def run_golden(tmp_path, case) -> None:
    if isinstance(case, int):
        golden.test_random_corpus_final_header_hash(case)
    else:
        golden.test_fixture_final_header_hash(tmp_path, case)


GOLDEN_CASES = sorted(golden.FIXTURE_HEADERS) + sorted(golden.RANDOM_HEADERS)


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_hashes_on_one_cpu_start_no_thread(monkeypatch, tmp_path, case):
    monkeypatch.setattr(crypto, "CPUS", 1)
    started = count_starts(monkeypatch)
    run_golden(tmp_path, case)
    assert started == []


@needs_sodium
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_hashes_on_two_cpus(monkeypatch, tmp_path, case):
    monkeypatch.setattr(crypto, "CPUS", 2)
    seen = []
    real = crypto._sodium_accepts
    monkeypatch.setattr(crypto, "_sodium_accepts", lambda *key: seen.append(key in (helper._slots or ())) or real(*key))
    run_golden(tmp_path, case)
    assert any(seen)  # some check went through the table
    assert helper_processes() == [helper._helper[0]]


@needs_sodium
@pytest.mark.parametrize("failing", ["mmap", "fork"])
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_a_helper_that_cannot_start_leaves_the_batch_inline(monkeypatch, tmp_path, fresh_helper, case, failing):
    """With no room for the helper's table, or no process to fork, every
    batch runs inline and the golden hashes hold. A table that cannot be
    mapped is tried again on every batch; a fork that fails, on batches 1,
    2, 4, 8, ... of the failing run. Once a helper can start, the next
    batch that tries starts one."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    tries: list = []  # the batch, counted from 1, of each try
    batches: list = []
    start, apply_batch = multiprocessing.process.BaseProcess.start, ledger.apply_batch

    def counted(*args, **kwargs):
        batches.append(args)
        return apply_batch(*args, **kwargs)

    def no_table(*args):
        tries.append(len(batches))
        raise OSError(errno.ENOMEM, "no room for the table")

    def no_fork(process):
        if process.name != HELPER:
            return start(process)
        tries.append(len(batches))
        raise OSError(errno.EAGAIN, "no process to fork")

    with monkeypatch.context() as patch:
        patch.setattr(ledger, "apply_batch", counted)
        if failing == "mmap":
            patch.setattr(helper, "mmap", types.SimpleNamespace(mmap=no_table))
        else:
            patch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
        run_golden(tmp_path, case)
        assert tries and helper_processes() == []
    n = len(batches)
    if failing == "mmap":
        assert tries == list(range(1, n + 1))
        waits = 0
    else:
        assert tries == [2**i for i in range(n.bit_length())]
        waits = 2 ** n.bit_length() - 1 - n  # batches n + 1 to the next power of two, excluded
    state, cfg = ledger.LedgerState(), make_config()
    for epoch in range(1, waits + 1):
        ledger.apply_batch(state, [], epoch, cfg)
        assert helper_processes() == []
    ledger.apply_batch(state, [], waits + 1, cfg)
    assert helper._helper[0].is_alive() and helper_processes() == [helper._helper[0]]
    state, cfg, txs, _ = mixed_batch()
    apply_copy(state, cfg, txs)
    assert helper._helper[0].is_alive() and helper_processes() == [helper._helper[0]]


@needs_sodium
def test_a_helper_that_cannot_fork_is_tried_ever_less_often(monkeypatch, fresh_helper):
    """With every fork failing, 64 batches try to start the helper on
    batches 1, 2, 4, ..., 64 alone, and each try leaves at most the four
    pipe descriptors that multiprocessing opened for its fork."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg = ledger.LedgerState(), make_config()
    forks: list = []

    def no_fork():
        forks.append(epoch)
        raise OSError(errno.EAGAIN, "no process to fork")

    open_fds = lambda: len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
    before = open_fds()
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        for epoch in range(1, 65):
            ledger.apply_batch(state, [], epoch, cfg, workers=1)
    assert forks == [1, 2, 4, 8, 16, 32, 64]
    assert helper_processes() == [] and helper._helper is None
    assert open_fds() - before <= 4 * len(forks)


@needs_sodium
def test_a_start_that_succeeds_ends_the_backoff(monkeypatch, fresh_helper):
    """A fork that fails once is tried again on the next batch, and the
    helper it starts is used; after that start, the next failure is again
    tried on the very next batch."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg = ledger.LedgerState(), make_config()
    fork, forks = os.fork, []

    def every_other_fork_fails():
        forks.append(epoch)
        if len(forks) % 2:
            raise OSError(errno.EAGAIN, "no process to fork")
        return fork()

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", every_other_fork_fails)
        for epoch in range(1, 5):
            ledger.apply_batch(state, [], epoch, cfg, workers=1)
            assert (helper._helper is None) == (epoch % 2 == 1)
            if epoch == 2:  # the helper exits; the next batch forks again
                running = helper._helper
                running[1].close()
                running[0].join(10)
    assert forks == [1, 2, 3, 4]
    assert helper._helper[0].is_alive() and helper_processes() == [helper._helper[0]]


@needs_sodium
@pytest.mark.parametrize("part_slots", [1, 10**9], ids=["a-message-per-part", "one-message"])
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_hashes_however_the_plan_is_cut_into_parts(monkeypatch, tmp_path, case, part_slots):
    """The same jobs in plan order, sent to the helper as each
    transaction's part is read, or all in one message unless a part holds a
    sum: both sides index parts as they come, so every offset agrees."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    monkeypatch.setattr(helper, "PART_SLOTS", part_slots)
    sent = count_messages(monkeypatch)
    seen = []
    accepts = crypto._sodium_accepts
    monkeypatch.setattr(crypto, "_sodium_accepts", lambda *key: seen.append(key in (helper._slots or ())) or accepts(*key))
    run_golden(tmp_path, case)
    assert any(seen)
    if part_slots == 1:
        assert any(not ended and jobs for jobs, ended in sent)  # some plan took more than one message


def count_messages(monkeypatch) -> list:
    """The plan messages this process sends to the helper, as (jobs, ended)."""
    sent: list = []
    real = multiprocessing.connection.Connection.send
    monkeypatch.setattr(multiprocessing.connection.Connection, "send", lambda conn, obj: sent.append(obj) or real(conn, obj))
    return sent


@needs_sodium
def test_a_small_batch_sends_its_plan_then_its_end(monkeypatch):
    """The mixed batch's 12 transactions hold fewer than PART_SLOTS triples
    and no sum: one message of plan, then the plan's end alone once the
    batch has ended, since the plan stays open for any LtHash delta the
    batch posts. A batch of 40 single-key spends goes in parts of
    PART_SLOTS triples as it is read. Its first PART_SLOTS intervals (the
    writes before the batch and its expiry and coinbase writes, then the
    first receipts') make a window, whose net delta per accumulator is
    posted alone once the next interval closes; the caller folds the last
    window's itself, and the end of the plan follows alone."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg, txs, _ = mixed_batch()
    sent = count_messages(monkeypatch)
    apply_copy(state, cfg, txs)
    assert [ended for _, ended in sent] == [False, True]
    assert sent[1][0] == []
    sent.clear()
    spends = [signed_spend(KEYS[1], [seed_utxo(state, p2pk(KEYS[1], 5))], [p2pk(KEYS[2], 5)]) for _ in range(40)]
    receipts, _ = apply_copy(state, cfg, spends)
    assert {r.status for r in receipts} == {codes.OK}
    assert [(len(jobs), ended) for jobs, ended in sent] == [
        (helper.PART_SLOTS, False), (40 - helper.PART_SLOTS, False), (2, False), (0, True),
    ]
    # The window's spends remove only coins seeded in it: they cancel.
    assert [(len(job), len(job[1])) for job in sent[2][0]] == [(2, 0), (2, 0)]


@needs_sodium
def test_a_script_checksig_is_planned_and_answered_from_the_table(monkeypatch):
    """For a script lock, each key pushed right before CHECKSIG or
    CHECKSIGVERIFY is planned against each signature-sized witness item,
    and the script's check is answered from the helper's table."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg = ledger.LedgerState(), make_config()
    owner, other = KEYS[1], KEYS[2]
    text = f"PUSH({other.pubkey.hex()}) DROP PUSH({owner.pubkey.hex()}) CHECKSIGVERIFY DROP PUSH({other.pubkey.hex()}) CHECKSIG"
    coin = seed_utxo(state, Output(10, Lock.pay_to_script(assemble(text))))
    tx = Transaction(UtxoSpend((coin,), (p2pk(owner, 10),)))
    msg = crypto.utxo_signing_message(txid(tx), 0)
    sigs = (other.sign(msg), owner.sign(msg))
    tx = tx.with_witnesses([(sigs[0], b"\x01" * 3, sigs[1])])
    part = ledger._plan(state.utxos, tx, txid(tx))
    assert part == [((kp.pubkey,), msg, (sig,)) for kp in (owner, other) for sig in sigs]
    asked = []
    accepts = crypto._sodium_accepts
    monkeypatch.setattr(crypto, "_sodium_accepts", lambda *key: asked.append((key, key in (helper._slots or ()))) or accepts(*key))
    receipts, _ = apply_copy(state, cfg, [tx])
    assert receipts[0].status == codes.OK
    assert [item for item in asked if item[0][1] == msg] == [((owner.pubkey, msg, sigs[1]), True), ((other.pubkey, msg, sigs[0]), True)]


def test_golden_hashes_without_libsodium_start_no_helper(monkeypatch, tmp_path):
    monkeypatch.setattr(crypto, "CPUS", 2)
    started = count_starts(monkeypatch)
    monkeypatch.setattr(crypto, "_sodium", lambda: None)
    monkeypatch.setattr(crypto, "_secret_key", None)
    for case in GOLDEN_CASES:
        run_golden(tmp_path / str(case), case)
    assert started == []


@pytest.mark.parametrize(
    "helper_runs", [pytest.param(True, marks=needs_sodium), "one-cpu", "no-libsodium"], ids=["helper", "one-cpu", "no-libsodium"]
)
def test_a_plan_is_made_only_while_a_helper_runs(monkeypatch, tmp_path, helper_runs):
    """With one CPU, or with libsodium's verify missing, `helper.split`
    calls no plan function, so no signing message, job or entry is built
    for a helper that does not run; the golden hashes hold either way."""
    monkeypatch.setattr(crypto, "CPUS", 1 if helper_runs == "one-cpu" else 2)
    if helper_runs == "no-libsodium":
        monkeypatch.setattr(crypto, "_sodium_verify", lambda: None)
    planned = []
    real = ledger._plan
    monkeypatch.setattr(ledger, "_plan", lambda *args: planned.append(args[2]) or real(*args))
    for case in GOLDEN_CASES:
        run_golden(tmp_path / str(case), case)
    assert bool(planned) == (helper_runs is True)


@needs_sodium
def test_the_plan_gives_a_transaction_the_same_jobs_in_any_batch(monkeypatch):
    """A transaction's part of the plan depends on it and the state before
    its batch only: alone, in the mixed batch and in that batch reversed."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg, txs, _ = mixed_batch()
    plans: dict = {}
    real = ledger._plan

    def recording(utxos, tx, tx_id):
        jobs = real(utxos, tx, tx_id)
        plans.setdefault(tx_id, []).append(jobs)
        return jobs

    monkeypatch.setattr(ledger, "_plan", recording)
    for batch in (txs, txs[::-1], *([tx] for tx in txs)):
        apply_copy(state, cfg, batch)
    assert sorted(plans) == sorted(txid(tx) for tx in txs)
    for tx in txs:
        assert plans[txid(tx)] == [real(state.utxos, tx, txid(tx))] * 3
    assert any(plans[txid(tx)][0] for tx in txs)  # some transaction plans work


@needs_sodium
def test_a_move_to_account_plans_no_script_check(monkeypatch):
    """A MoveToAccount's script-locked input fails with LOCK_FAILED before
    any script runs, so its CHECKSIG keys are not sent to the helper; its
    P2PK input's check still is."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg = ledger.LedgerState(), make_config()
    owner = KEYS[1]
    script = Lock.pay_to_script(assemble(f"PUSH({owner.pubkey.hex()}) CHECKSIG"))
    coins = [seed_utxo(state, p2pk(owner, 10)), seed_utxo(state, Output(10, script))]
    tx = make_move_to_account(owner, coins, 20)
    tx_id = txid(tx)
    sent = count_messages(monkeypatch)
    receipts, _ = apply_copy(state, cfg, [tx])
    assert receipts[0].status == utxo.LOCK_FAILED
    p2pk_check = ((owner.pubkey,), crypto.utxo_signing_message(tx_id, 0), tx.witnesses[0])
    assert [job for jobs, _ in sent for job in jobs] == [p2pk_check]
    assert ledger._plan(state.utxos, tx, tx_id) == [p2pk_check]
