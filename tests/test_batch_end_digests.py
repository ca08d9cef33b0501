"""Pinned batch-end state digests. Each constant is the final state digest
of one run: every fixture scenario's report `final_digest`, and the
criterion 2 random corpus (RandomLedger seeds 100-102: bootstrap plus two
15-transaction batches). The header's `post_state_digest` commits to this
value, and replay reports it. A change to what a receipt commits to leaves
these constants alone; only a change to the state digest's definition, or
to what a batch writes, may move them."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import RandomLedger
from tierledger import ledger, scenario

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_DIGESTS = {
    "average_balance_contract": "978e9fe2e6775c0c6caf2e4992e9f7a7a36dffe192184a6c358b357346cb6897",
    "dex_order_matching": "cf4fb7bcd640999328f5a694614983ef8335cada94530a1c1fbdeed93beab6a6",
    "escrow_script": "1f4b9217c3323a2ef59c4d00d613c2014e7fe7d007cf11004b3420fb579272e0",
    "timelocked_replaceable": "b7eac6346012fcd9eb37c44c9b156abc49052e67d9183438a2babc6bfe2ce07a",
    "two_party_multisig": "29faf226d542eeb92a37a03d026be0fb87a1831f33d598722b2e7102b00ac54e",
}

RANDOM_DIGESTS = {
    100: "fbff5e7f7de42add16bf5c4519544a18ea91946f9d24319c70bea4232d825277",
    101: "bfd6d6e17e6a463b0d2900368b241dda0c02a548e403acf302785f6f998ee814",
    102: "8d503721140d7d7a891044b593023887415c9b7afafadbefe5d7b80f331aeaf0",
}


def test_fixture_set_is_the_pinned_set():
    assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(FIXTURE_DIGESTS)


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_final_digest(tmp_path, name):
    ok, report = scenario.run_scenario(FIXTURES / f"{name}.json", logdir=tmp_path, workers=1)
    assert ok, report["assertions"]
    assert report["final_digest"] == FIXTURE_DIGESTS[name]
    n, missing = ledger.log_extent(tmp_path)
    assert missing == ""
    last = json.loads((tmp_path / f"header_{n - 1:06d}.json").read_text(encoding="utf-8"))
    assert last["header"]["post_state_digest"] == FIXTURE_DIGESTS[name]
    assert ledger.replay_verify(tmp_path).digest == FIXTURE_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(RANDOM_DIGESTS))
def test_random_corpus_final_digest(seed):
    rl = RandomLedger(seed=seed)
    rl.bootstrap()
    for _ in range(2):
        rl.run_batch(15)
    assert ledger.state_digest(rl.state).hex() == RANDOM_DIGESTS[seed]
