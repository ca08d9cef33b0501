"""The helper process's sum jobs (`helper.split`): `apply_batch` shares the
LtHash expansions of large created-output lists with one forked helper,
which writes each job's lane vector into shared memory; spends and expiries
are removed inline. No receipt, header hash or replay may depend on it: not
on whether it runs, not on its death mid-batch, and not on a plan that
names the wrong entries.

Tests switch the helper on and off through `crypto.CPUS` alone."""

from __future__ import annotations

import os
import signal
import time

import pytest

from helpers import KEYS, OPERATOR, make_config, p2pk, signed_spend
from test_verify_split import GOLDEN_CASES, fresh_helper, needs_sodium, run_golden  # noqa: F401
from tierledger import crypto, helper, ledger, lthash
from tierledger.model import Outpoint, txid

FANOUTS, FANOUT_OUTPUTS, PLANNED_INPUTS, DUE = 3, 1_000, 12, 9
EPOCH = 3


def commit(state, cfg, logdir, epoch, txs):
    receipts, header = ledger.apply_batch(state, txs, epoch, cfg)
    ledger.write_batch_files(logdir, header.batch_number, epoch, txs, header, receipts)
    return receipts, header


def sum_log(logdir):
    """A log whose last batch is built for these tests, and the state and
    batch before it. At its epoch DUE outputs expire, and it holds FANOUTS
    transactions of FANOUT_OUTPUTS outputs each, a spend of PLANNED_INPUTS
    inputs in the UTXO set, and a spend of a fan-out's output created
    earlier in the same batch; one more output expires in a later epoch."""
    cfg = make_config(expiry_enabled=True, initial_subsidy=10_000_000)
    ledger.init_log(logdir, cfg)
    state = ledger.LedgerState()
    commit(state, cfg, logdir, 1, [])
    (coinbase,) = state.utxos
    coins = [p2pk(OPERATOR, 1_000_000)] * FANOUTS + [p2pk(KEYS[1], 1_000)] * PLANNED_INPUTS
    coins += [p2pk(KEYS[2], 50, expiry=EPOCH)] * DUE + [p2pk(KEYS[2], 50, expiry=EPOCH + 5)]
    setup = signed_spend(OPERATOR, [coinbase], coins)
    receipts, _ = commit(state, cfg, logdir, 2, [setup])
    assert [r.status for r in receipts] == [0]
    made = txid(setup)
    fanouts = [
        signed_spend(OPERATOR, [Outpoint(made, j)], [p2pk(KEYS[3 + i % 5], 900 + i % 97) for i in range(FANOUT_OUTPUTS)])
        for j in range(FANOUTS)
    ]
    planned = signed_spend(
        KEYS[1], [Outpoint(made, FANOUTS + i) for i in range(PLANNED_INPUTS)], [p2pk(KEYS[4], 12_000)]
    )
    chained = signed_spend(KEYS[3], [Outpoint(txid(fanouts[0]), 0)], [p2pk(KEYS[5], 900)])
    return cfg, state, [*fanouts, planned, chained]


def apply_last(cfg, state, txs, logdir):
    """The last batch's receipts and header hash, applied to a copy of the
    state before it and written to logdir, and the log's replay report."""
    receipts, header = commit(state.copy(), cfg, logdir, EPOCH, txs)
    return receipts, header.hash(), ledger.replay_verify(logdir)


def made_entries(tx):
    """The UTXO entries of tx's created outputs."""
    ops = ledger.outpoint_range(txid(tx), 0, len(tx.kind.outputs))
    return [ledger.utxo_entry(op, out) for op, out in zip(ops, tx.kind.outputs)]


@pytest.fixture
def log(tmp_path, monkeypatch):
    """The test log and its batch, committed and replayed on one CPU; on
    two, sum jobs are planned whatever the host's store order."""
    monkeypatch.setattr(crypto, "CPUS", 1)
    monkeypatch.setattr(helper, "ORDERED_STORES", True)
    cfg, state, txs = sum_log(tmp_path)
    inline = apply_last(cfg, state, txs, tmp_path)
    receipts, _, report = inline
    assert [r.status for r in receipts] == [0] * len(txs)
    assert report.ok and report.batches == EPOCH
    return cfg, state, txs, tmp_path, inline


def count_vectors(monkeypatch) -> list:
    """Each sum part the caller asks, by whether its vector came from the table."""
    seen: list = []
    real = helper.ask

    def ask(job):
        result = real(job)
        if len(job) == 1:
            seen.append(result is not None)
        return result

    monkeypatch.setattr(helper, "ask", ask)
    return seen


def count_asked_sums(monkeypatch) -> list:
    """The planned sum jobs whose vectors the caller reads from a batch's table."""
    asked: list = []
    real = helper.ask

    def ask(job):
        result = real(job)
        if len(job) == 1 and result is not None:
            asked.append(job)
        return result

    monkeypatch.setattr(helper, "ask", ask)
    return asked


@needs_sodium
def test_the_helper_on_gives_the_inline_receipts_headers_and_replay(log, monkeypatch):
    cfg, state, txs, logdir, inline = log
    monkeypatch.setattr(crypto, "CPUS", 2)
    seen = count_vectors(monkeypatch)
    assert apply_last(cfg, state, txs, logdir) == inline
    assert True in seen  # some sums came from the helper's table
    after = state.copy()
    ledger.apply_batch(after, txs, EPOCH, cfg)
    assert after.expired == DUE * 50 and after.conservation_holds()
    assert sorted(after.expiring) == [EPOCH + 5]


@needs_sodium
def test_a_helper_killed_mid_batch_leaves_the_sums(log, monkeypatch, fresh_helper):
    """Each batch's helper is killed at the batch's first output creation
    (the coinbase's, in every batch), while it is mid-pass: the caller
    computes what it held, and each next batch starts a new helper."""
    cfg, state, txs, logdir, inline = log
    monkeypatch.setattr(crypto, "CPUS", 2)
    parent = os.getpid()
    real_run, real_put = helper._run, ledger.LedgerState.put_utxos
    killed: list = []

    def slow_in_the_helper(*args):
        if os.getpid() != parent:
            time.sleep(0.002)  # keeps the helper mid-pass
        return real_run(*args)

    def kill_first(*args, **kwargs):
        running = helper._helper and helper._helper[0]
        if running and running.is_alive():
            os.kill(running.pid, signal.SIGKILL)
            running.join(10)
            killed.append(running)
        return real_put(*args, **kwargs)

    monkeypatch.setattr(helper, "_run", slow_in_the_helper)
    monkeypatch.setattr(ledger.LedgerState, "put_utxos", kill_first)
    receipts, header_hash, report = apply_last(cfg, state, txs, logdir)
    assert (receipts, header_hash, report) == inline
    assert len(killed) >= 1 + EPOCH  # the commit's helper and one per replayed batch
    assert all(p.exitcode == -signal.SIGKILL for p in killed)


@needs_sodium
def test_a_wrong_plan_costs_only_work(log, monkeypatch):
    """Stale entries that no batch writes, and sums of a fan-out's outputs
    with one amount changed: the helper may compute every such job, and the
    caller uses none of them."""
    cfg, state, txs, logdir, inline = log
    monkeypatch.setattr(crypto, "CPUS", 2)
    real_plan = ledger._plan
    fanout = txs[0]
    other = (p2pk(KEYS[6], 1), *fanout.kind.outputs[1:])
    other_ops = ledger.outpoint_range(txid(fanout), 0, len(other))
    other_entries = [ledger.utxo_entry(op, out) for op, out in zip(other_ops, other)]
    stale = helper.sums([ledger.utxo_entry(Outpoint(bytes(32), i), p2pk(KEYS[7], 5)) for i in range(300)])
    planned: list = []

    def wrong_plan(utxos, tx, tx_id):
        jobs = real_plan(utxos, tx, tx_id)
        if tx_id == txid(fanout):
            first = helper.sums(other_entries)[0]
            jobs = [first if job == helper.sums(made_entries(fanout))[0] else job for job in jobs] + stale
            assert first in jobs
        planned.append(jobs)
        return jobs

    monkeypatch.setattr(ledger, "_plan", wrong_plan)
    assert apply_last(cfg, state, txs, logdir) == inline
    assert any(stale[0] in jobs for jobs in planned)


@needs_sodium
@pytest.mark.parametrize("planned_sum", [1, 10**9], ids=["every-sum", "no-sum"])
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_hashes_with_sums_on_and_off(monkeypatch, tmp_path, case, planned_sum):
    """With every created-output list planned as a sum job, and with none."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    monkeypatch.setattr(helper, "ORDERED_STORES", True)
    monkeypatch.setattr(helper, "PLANNED_SUM", planned_sum)
    asked = count_asked_sums(monkeypatch)
    run_golden(tmp_path, case)
    assert bool(asked) == (planned_sum == 1)


def test_the_plan_sums_only_created_outputs(tmp_path, monkeypatch):
    """The batch's sum jobs are the fan-outs' created outputs, in CHUNK
    parts and batch order, and none for the spend of PLANNED_INPUTS inputs
    or the DUE outputs; where the host may see the helper's stores out of
    order there are none at all, and the checks stay as they are. The
    plan's entries are put_utxos' own."""
    monkeypatch.setattr(crypto, "CPUS", 1)
    cfg, state, txs = sum_log(tmp_path)
    assert len(state.expiring[EPOCH]) == DUE
    checks = []
    for ordered, fanouts in ((True, txs[:FANOUTS]), (False, [])):
        monkeypatch.setattr(helper, "ORDERED_STORES", ordered)
        jobs = [job for tx in txs for job in ledger._plan(state.utxos, tx, txid(tx))]
        sums = [job for job in jobs if len(job) == 1]
        assert sums == [job for tx in fanouts for job in helper.sums(made_entries(tx))]
        parts = [min(helper.CHUNK, FANOUT_OUTPUTS - i) for i in range(0, FANOUT_OUTPUTS, helper.CHUNK)]
        assert [len(job[0]) for job in sums] == parts * len(fanouts)
        checks.append([job for job in jobs if len(job) == 3])
    assert checks[0] == checks[1] and len(checks[0]) == FANOUTS + PLANNED_INPUTS


@needs_sodium
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_hashes_where_stores_may_be_seen_out_of_order(monkeypatch, tmp_path, case):
    """Where the host may see the helper's stores out of order, no sum job
    is asked, even with every created-output list large enough, and checks
    still go through the helper's table."""
    monkeypatch.setattr(crypto, "CPUS", 2)
    monkeypatch.setattr(helper, "ORDERED_STORES", False)
    monkeypatch.setattr(helper, "PLANNED_SUM", 1)
    asked = count_asked_sums(monkeypatch)
    seen = []
    real = crypto._sodium_accepts
    monkeypatch.setattr(crypto, "_sodium_accepts", lambda *key: seen.append(key in (helper._slots or ())) or real(*key))
    run_golden(tmp_path, case)
    assert asked == [] and any(seen)


def test_a_digest_read_as_lanes_adds_and_removes_its_multiset():
    """Adding another LtHash's digest, read as lanes, equals adding its
    entries one by one, and removing it equals removing them one by one;
    add_many and remove_many agree with both."""
    entries = [bytes([i]) * (i % 7 + 1) for i in range(40)] + [b"twice"] * 2
    base = [b"base %d" % i for i in range(5)]
    other = lthash.LtHash()
    other.add_many(entries)
    vector = int.from_bytes(other.digest(), "little")
    by_lanes, by_entry, by_many = lthash.LtHash(), lthash.LtHash(), lthash.LtHash()
    for acc in (by_lanes, by_entry, by_many):
        acc.add_many(base)
    by_lanes.add_lanes(vector)
    for e in entries:
        by_entry.add(e)
    by_many.add_many(entries)
    assert by_lanes.digest() == by_entry.digest() == by_many.digest()
    by_lanes.remove_lanes(vector)
    for e in entries:
        by_entry.remove(e)
    by_many.remove_many(entries)
    only_base = lthash.LtHash()
    only_base.add_many(base)
    assert by_lanes.digest() == by_entry.digest() == by_many.digest() == only_base.digest()
