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
    "timelocked_replaceable": "7eed9cd6bb8b428f8c2ddf9e3bb1fb8b7fc020842f44e77109ccd8074a47fedf",
    "two_party_multisig": "89aafb904fb6db9bd1a7d8a622004338b50dd6977dfcfa107e18b6ab4f43086e",
}

RANDOM_HEADERS = {
    100: "b95a3ec90b0ace93348ec7b82dc18a0242b1ba098b3f730661efc1486f207d5c",
    101: "5389bedeb5b99b56f5960060c7b1c21dc954ed40f52dba81d76cc47be689539f",
    102: "fe8ff90064b510e5724ae8121a53145667448ebb6304fbcaae881a35c172dbda",
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
