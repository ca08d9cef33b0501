"""The signature helper thread (`crypto.split_checks`): `apply_batch` shares
its libsodium accepts with one helper thread, which must never change a
verdict, a receipt or a header hash, must compute each (pubkey, msg, sig)
at most once per batch across both threads, and must leave no memo behind.
Tests switch the helper on and off through `crypto.CPUS` alone."""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter

import pytest

import test_crypto
import test_golden as golden
from helpers import (
    KEYS,
    counter_code,
    make_call,
    make_config,
    make_deploy,
    make_move_to_utxo,
    p2pk,
    seed_balance,
    seed_utxo,
    signed_spend,
)
from tierledger import codes, crypto, ledger, utxo
from tierledger.model import Lock, Outpoint, Output, Transaction, UtxoSpend, address_of_pubkey, txid

HELPER = "tierledger-verify"

needs_sodium = pytest.mark.skipif(crypto._sodium_verify() is None, reason="the helper needs libsodium")


def count_libsodium(monkeypatch) -> Counter:
    """Count the calls that reach libsodium, by (thread name, triple)."""
    calls: Counter = Counter()
    real = crypto._sodium_check

    def counting(*key):
        calls[threading.current_thread().name, key] += 1
        return real(*key)

    monkeypatch.setattr(crypto, "_sodium_check", counting)
    return calls


def helper_threads() -> int:
    return sum(t.name == HELPER for t in threading.enumerate())


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
    """The triples the helper claims in its pass over plan, if the caller
    claims none of them first."""
    keys: set = set()
    for pubkeys, msg, sigs in plan:
        crypto._in_order(lambda *key: keys.add(key) or crypto._sodium_check(*key), pubkeys, sigs, msg)
    return keys


def wait_for_the_helper(keys: set) -> None:
    """Wait until the helper has claimed and computed exactly keys, while
    this thread checks nothing."""
    deadline = time.monotonic() + 30
    while set(list(crypto._memo)) != keys or not all(isinstance(v, bool) for v in list(crypto._memo.values())):
        assert time.monotonic() < deadline, "the helper never finished the plan"
        time.sleep(0.001)


def apply_copy(state, cfg, txs):
    state = state.copy()
    receipts, header = ledger.apply_batch(state, txs, state.epoch + 1, cfg)
    return receipts, header.hash()


@needs_sodium
def test_helper_on_and_off_give_identical_receipts_and_headers(monkeypatch):
    state, cfg, txs, want = mixed_batch()
    calls = count_libsodium(monkeypatch)
    monkeypatch.setattr(crypto, "CPUS", 1)
    inline = apply_copy(state, cfg, txs)
    assert {thread for thread, _ in calls} == {"MainThread"}
    monkeypatch.setattr(crypto, "CPUS", 2)
    for _ in range(5):
        assert apply_copy(state, cfg, txs) == inline
    assert {i: inline[0][i].status for i in want} == want


@needs_sodium
def test_each_triple_reaches_libsodium_once_across_both_threads(monkeypatch):
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg, txs, _ = mixed_batch()
    planned = ledger._planned_checks(state.utxos, [(tx, txid(tx)) for tx in txs])
    keys = helper_pass(planned)
    calls = count_libsodium(monkeypatch)
    with crypto.split_checks(lambda: planned):
        wait_for_the_helper(keys)
        assert {thread for thread, _ in calls} == {HELPER}
        # The caller checks only now, so each check must find the helper's
        # verdict.
        for pubkeys, msg, sigs in planned:
            if len(pubkeys) == 1:
                crypto.verify(pubkeys[0], msg, sigs[0])
            else:
                crypto.check_multisig(len(sigs), pubkeys, sigs, msg)
    assert not [key for (thread, key) in calls if thread != HELPER]
    assert max(calls.values()) == 1
    # A whole batch, helper and caller racing: still once per triple.
    calls.clear()
    for _ in range(5):
        apply_copy(state, cfg, txs)
        crypto.quiesce()
        per_triple = Counter(key for _, key in calls.elements())
        assert max(per_triple.values()) == 1
        calls.clear()


@needs_sodium
def test_no_memo_outlives_its_batch(monkeypatch):
    monkeypatch.setattr(crypto, "CPUS", 2)
    state, cfg, txs, _ = mixed_batch()
    seen = []
    real = crypto._sodium_check
    monkeypatch.setattr(crypto, "_sodium_check", lambda *key: seen.append(crypto._memo) or real(*key))
    apply_copy(state, cfg, txs)
    assert crypto._memo is None
    memo = next(memo for memo in seen if isinstance(memo, dict))
    seen.clear()
    # Once the helper is done with the batch, it holds no reference either.
    deadline = time.monotonic() + 30
    while sys.getrefcount(memo) > 2:
        assert time.monotonic() < deadline, "the helper kept the batch's memo"
        time.sleep(0.001)
    with pytest.raises(ledger.BatchError):
        ledger.apply_batch(state.copy(), txs, state.epoch - 1, cfg)
    assert crypto._memo is None

    def boom(*args):
        raise RuntimeError("transfer failed")

    monkeypatch.setattr(ledger, "_transfer", boom)
    with pytest.raises(RuntimeError):
        apply_copy(state, cfg, txs)
    assert crypto._memo is None


@needs_sodium
@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_helper_that_raises_leaves_the_inline_verdicts(monkeypatch):
    state, cfg, txs, _ = mixed_batch()
    monkeypatch.setattr(crypto, "CPUS", 1)
    inline = apply_copy(state, cfg, txs)
    monkeypatch.setattr(crypto, "CPUS", 2)
    crypto.quiesce()
    raised = threading.Event()
    real = crypto._sodium_check

    def failing(*key):
        if threading.current_thread().name == HELPER:
            raised.set()
            raise RuntimeError("helper failed")
        raised.wait(10)  # let the helper fail before the caller's first check
        return real(*key)

    monkeypatch.setattr(crypto, "_sodium_check", failing)
    result = []
    batch = threading.Thread(target=lambda: result.append(apply_copy(state, cfg, txs)), daemon=True)
    batch.start()
    batch.join(60)
    assert not batch.is_alive(), "apply_batch hung on a failed helper"
    assert raised.is_set()
    assert result == [inline]
    # Once the failed helper has ended, the next batch starts a new one;
    # there is never more than one.
    failed = crypto._helper
    failed.join(10)
    assert not failed.is_alive()
    monkeypatch.setattr(crypto, "_sodium_check", real)
    assert apply_copy(state, cfg, txs) == inline
    assert crypto._helper is not failed and helper_threads() == 1


@needs_sodium
def test_a_caller_waiting_on_a_failed_claim_computes_the_verdict(monkeypatch):
    kp = KEYS[1]
    key = (kp.pubkey, test_crypto.MSG, kp.sign(test_crypto.MSG))
    entered, release = threading.Event(), threading.Event()
    real = crypto._sodium_check

    def check(*k):
        if threading.current_thread().name == "claimer":
            entered.set()
            release.wait(10)
            raise RuntimeError("claimer failed")
        return real(*k)

    memo: dict = {}
    monkeypatch.setattr(crypto, "_sodium_check", check)
    monkeypatch.setattr(crypto, "_memo", memo)
    claimer = threading.Thread(target=lambda: pytest.raises(RuntimeError, crypto._claim, memo, key, True), name="claimer")
    claimer.start()
    assert entered.wait(10)
    threading.Timer(0.05, release.set).start()
    result = []
    waiter = threading.Thread(target=lambda: result.append(crypto._sodium_accepts(*key)), daemon=True)
    waiter.start()
    waiter.join(30)
    assert not waiter.is_alive(), "the caller hung on a failed claim"
    assert result == [True]
    claimer.join(10)
    assert not claimer.is_alive()
    assert memo == {key: True}


def test_racing_threads_compute_each_triple_once(monkeypatch):
    """More threads than CPUs, switching as often as the interpreter allows,
    each claiming the same triples in its own order through one memo. The
    verdicts come from a cheap stand-in for libsodium, so that the threads
    spend their time claiming."""
    rng = random.Random(7)
    keys = [(rng.randbytes(32), rng.randbytes(32), rng.randbytes(64)) for _ in range(2_000)]
    calls: list = []
    monkeypatch.setattr(crypto, "_sodium_check", lambda *key: calls.append(key) or key[2][0] % 2 == 0)
    want = {key: key[2][0] % 2 == 0 for key in keys}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            calls.clear()
            monkeypatch.setattr(crypto, "_memo", {})
            results: list = []

            def check(seed: int) -> None:
                order = random.Random(seed).sample(keys, len(keys))
                results.append({key: crypto._sodium_accepts(*key) for key in order})

            threads = [threading.Thread(target=check, args=(round_ * 8 + i,), daemon=True) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert results == [want] * len(threads)
            assert sorted(calls) == sorted(keys), f"round {round_}"
    finally:
        sys.setswitchinterval(interval)


@needs_sodium
def test_s_guard_holds_through_the_helper(monkeypatch):
    monkeypatch.setattr(crypto, "CPUS", 2)
    monkeypatch.setattr(crypto, "_sodium_verify", lambda: lambda sig, msg, n, pk: 0)
    kp = KEYS[1]
    sig = test_crypto.SIGS[test_crypto.KEYS[0].pubkey]
    pk = test_crypto.KEYS[0].pubkey
    s = int.from_bytes(sig[32:], "little")
    bad = [test_crypto.with_s(sig, v) for v in (test_crypto.L, s + test_crypto.L, 2**256 - 1)]
    plan = [((pk, kp.pubkey), test_crypto.MSG, (b,)) for b in bad]
    with crypto.split_checks(lambda: plan):
        wait_for_the_helper(helper_pass(plan))
        assert len(crypto._memo) == 2 * len(bad)
        assert crypto.verify(pk, test_crypto.MSG + b"x", sig)  # the stub is in effect
        for b in bad:
            assert not crypto.verify(pk, test_crypto.MSG, b)
            assert not crypto.check_multisig(1, [pk, kp.pubkey], [b], test_crypto.MSG)


def count_thread_starts(monkeypatch) -> list:
    started: list = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self.name) or real(self))
    return started


def run_golden(tmp_path, case) -> None:
    if isinstance(case, int):
        golden.test_random_corpus_final_header_hash(case)
    else:
        golden.test_fixture_final_header_hash(tmp_path, case)


GOLDEN_CASES = sorted(golden.FIXTURE_HEADERS) + sorted(golden.RANDOM_HEADERS)


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_hashes_on_one_cpu_start_no_thread(monkeypatch, tmp_path, case):
    monkeypatch.setattr(crypto, "CPUS", 1)
    monkeypatch.setattr(crypto, "_helper", None)
    started = count_thread_starts(monkeypatch)
    run_golden(tmp_path, case)
    assert started == []


@needs_sodium
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_hashes_on_two_cpus(monkeypatch, tmp_path, case):
    monkeypatch.setattr(crypto, "CPUS", 2)
    seen = []
    real = crypto._sodium_check
    monkeypatch.setattr(crypto, "_sodium_check", lambda *key: seen.append(crypto._memo is not None) or real(*key))
    run_golden(tmp_path, case)
    assert any(seen)
    assert helper_threads() == 1


def test_golden_hashes_without_libsodium_start_no_helper(monkeypatch, tmp_path):
    monkeypatch.setattr(crypto, "CPUS", 2)
    monkeypatch.setattr(crypto, "_helper", None)
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(crypto, "_sodium", lambda: None)
    monkeypatch.setattr(crypto, "_secret_key", None)
    for case in GOLDEN_CASES:
        run_golden(tmp_path / str(case), case)
    assert started == []
