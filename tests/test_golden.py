"""Golden header hashes. Each constant is the final header hash of one log:
every fixture scenario, and the criterion 2 random corpus (RandomLedger
seeds 100-102: bootstrap plus two 15-transaction batches). Any change to a
receipt, a state digest or a header moves at least one of them. They do
not depend on PYTHONHASHSEED. A change that alters receipts on purpose
updates these constants and records why in CHANGES.md."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import RandomLedger
from tierledger import ledger, scenario

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_HEADERS = {
    "average_balance_contract": "45845c40035764ab047f90eb45c0da313d9a9d85fcd323823b8c24cbe78735ba",
    "dex_order_matching": "69c5871b62244d8ae8c4ce91057b4b829949e0d682b0a91d2f46fc78209e661a",
    "escrow_script": "64221c7fb04295a9c7f936370d6db26d25cfb4d926c335c3f5ce38aa156519fd",
    "timelocked_replaceable": "a51143e6587749703b930cd0b01212150b230cb757bec3537c9bad3e3e59cbf0",
    "two_party_multisig": "89aafb904fb6db9bd1a7d8a622004338b50dd6977dfcfa107e18b6ab4f43086e",
}

RANDOM_HEADERS = {
    100: "1797c5698ca582e56955a6143c2e2f4dd888a74685df1654a6d7a6cc36367d45",
    101: "fd337ef7de77c9484d3619c22f6bf74f4891e086e036c50536f9bab9799524cf",
    102: "02eb4af8b53da63b35c4e2c133ae378e6ce0856e56ad37ce9f0e1311d7be5f02",
}


def test_fixture_set_is_the_golden_set():
    assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(FIXTURE_HEADERS)


@pytest.mark.parametrize("name", sorted(FIXTURE_HEADERS))
def test_fixture_final_header_hash(tmp_path, name):
    ok, report = scenario.run_scenario(FIXTURES / f"{name}.json", logdir=tmp_path, workers=1)
    assert ok, report["assertions"]
    n, missing = ledger.log_extent(tmp_path)
    assert missing == ""
    last = json.loads((tmp_path / f"header_{n - 1:06d}.json").read_text(encoding="utf-8"))
    assert ledger.BatchHeader.from_json(last["header"]).hash().hex() == FIXTURE_HEADERS[name]


@pytest.mark.parametrize("seed", sorted(RANDOM_HEADERS))
def test_random_corpus_final_header_hash(seed):
    rl = RandomLedger(seed=seed)
    rl.bootstrap()
    for _ in range(2):
        rl.run_batch(15)
    assert rl.state.prev_header_hash.hex() == RANDOM_HEADERS[seed]
