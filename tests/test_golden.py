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
    "average_balance_contract": "c3548597e8af04b18d742d91e4478e8a02925e718776c60cccf19321b35c91d9",
    "dex_order_matching": "549571c2dac69e415c54627d1e52a6a6595e3c1facfe28801aaa278a0da3adbe",
    "escrow_script": "2c967075b14a7a3fbc0238d0e5d64d6c339eed5e5f4c81a12e3393be00dc2e03",
    "timelocked_replaceable": "361b9e81d61e8866b755c1fff7144d8f17709ad079d47a0ff9e849400ee4eff1",
    "two_party_multisig": "7f24d5aa92550780b4fd59595d96b9be0cde4fc7ecfea48bb861c383ed81dfd9",
}

RANDOM_HEADERS = {
    100: "42bf4ba3a411874fa125ae89d51c682c97ea7a5ef54ac19183be8c69c0876e25",
    101: "bf60d8cf7b7bb55456c3b55db846a1b62b906a239b791f02e8d19fd86d3bca6d",
    102: "ed9d00b89de7211253a86b12184d9e551388a21f8328c1e7accad131a21ba268",
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
