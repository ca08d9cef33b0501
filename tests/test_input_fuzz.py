"""Hostile input at every JSON entry point: a genesis, scenario,
transaction, batch or header file with the value at any key path, or the
whole file, replaced by arbitrary JSON or bytes. Every CLI command exits
0, 1 or 2 without raising, and replay_verify always returns a report.

A well-formed scenario can still ask for unbounded work: an advance of
2**64 epochs, or a zero-price call with a huge gas_limit on a looping
contract. That is work the scenario asked for, not malformed input, and is
out of scope here: an edited scenario that asks for more than MAX_EPOCHS
epochs in one step is not run (asks_for_unbounded_work). The base scenario
holds no looping contract, so no gas_limit needs the same. Nothing else is
filtered."""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tierledger import cli, ledger

MAX_EPOCHS = 16
EXAMPLES = 200

SCENARIO = {
    "name": "every-entry-point",
    "keys": {name: f"{i:02x}" * 32 for i, name in enumerate(["op", "alice", "bob", "carol", "inter"], 1)},
    "config": {
        "max_level": "L3",
        "initial_subsidy": 1000,
        "min_fee": 1,
        "operator_pubkey": "@op",
        "deploy_policy": {"kind": "endorsed", "granularity": "per_transaction"},
        "call_policy": {"kind": "allow_list", "pubkeys": ["@op", "@alice"]},
        "intermediary_registry": [{"name": "inter", "pubkey": "@inter"}],
    },
    "steps": [
        {"op": "advance"},
        {"op": "submit", "id": "fund", "tx": {"kind": "pay", "from": "op", "fee": 2, "outputs": [
            {"amount": 100, "to": "alice"},
            {"amount": 50, "to": {"multisig": {"m": 2, "keys": ["alice", "bob"]}}},
            {"amount": 30, "to": {"script": "PUSH(@bob) CHECKSIG"}, "expiry": 40},
        ]}},
        {"op": "submit", "tx": {"kind": "move_to_account", "from": "op", "amount": 600,
                                "inputs": [{"tx": "fund", "index": 3}]}},
        {"op": "advance"},
        {"op": "submit", "id": "counter", "tx": {
            "kind": "deploy", "payer": "op", "gas_limit": 31, "gas_price": 1, "endowment": 5,
            "code": "PUSHI 0 PUSHI 0 SLOAD PUSHI 1 ADD SSTORE HALT", "endorse": {"by": "inter"}}},
        {"op": "advance"},
        {"op": "submit", "id": "bump", "tx": {
            "kind": "call", "caller": "op", "contract": "counter", "gas_limit": 25, "gas_price": 1,
            "arg": 3, "address_consts": ["alice"], "not_before": 1, "not_after": 99,
            "access": {"balances_read": ["op"], "balances_written": ["op", "counter"],
                       "storage_read": [["counter", 0]], "storage_written": [["counter", 0]]}}},
        {"op": "submit", "tx": {"kind": "move_to_utxo", "from": "op", "amount": 20,
                                "outputs": [{"amount": 15, "to": "bob"}]}},
        {"op": "submit", "id": "both", "tx": {"kind": "spend", "outputs": [{"amount": 49, "to": "carol"}],
                                              "inputs": [{"tx": "fund", "index": 1,
                                                          "witness": [{"sig": "alice"}, {"sig": "bob"}]}]}},
        {"op": "client_rule", "payer": "alice", "payee": "bob", "amount": 4, "every": 2, "fee": 1},
        {"op": "advance", "epochs": 2},
        {"op": "assert", "check": "receipt", "tx": "both", "status": "Ok"},
        {"op": "assert", "check": "storage", "contract": "counter", "key": 0, "equals": 1},
        {"op": "assert", "check": "balance", "of": "counter", "equals": 5},
        {"op": "assert", "check": "utxo_balance", "of": "carol", "equals": 49},
        {"op": "assert", "check": "digest_prefix", "equals": ""},
        {"op": "assert", "check": "conservation"},
        {"op": "assert", "check": "epoch", "equals": 5},
    ],
}


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """A directory holding the scenario file and the log it runs into."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert cli.main(["--quiet", "run", str(root / "scenario.json"), str(root / "log")]) == 0
    assert ledger.replay_verify(root / "log").ok
    return root


def key_paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from key_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from key_paths(item, prefix + (i,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


_leaves = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(min_value=-(2**66), max_value=2**66)
    | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64])
    | st.binary(max_size=40).map(bytes.hex)
)
JSON = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def edits(draw, doc):
    """The file's new bytes: the whole file as arbitrary bytes, or the
    document with the value at one key path (the root included) replaced
    by arbitrary JSON. Also returns the edited document, None for bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64)), None
    path = draw(st.sampled_from(list(key_paths(doc))))
    edited = replaced(doc, path, draw(JSON))
    return json.dumps(edited, sort_keys=True, separators=(",", ":")).encode(), edited


def asks_for_unbounded_work(doc) -> bool:
    steps = doc.get("steps") if isinstance(doc, dict) else None
    for step in steps if isinstance(steps, list) else ():
        if not isinstance(step, dict):
            continue
        epochs = step.get("epochs", 1)
        if step.get("op") == "advance" and isinstance(epochs, int) and epochs > MAX_EPOCHS:
            return True
    return False


def run_commands(*args: list) -> None:
    for argv in args:
        assert cli.main(["--quiet", *map(str, argv)]) in (0, 1, 2), argv


FUZZ = settings(
    max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(st.data())
def test_any_edit_of_a_log_file_is_reported(base, data):
    log = base / "log"
    name = data.draw(st.sampled_from(sorted(p.name for p in log.iterdir())), "file")
    path = log / name
    original = path.read_bytes()
    raw, _ = data.draw(edits(json.loads(original)), "edit")
    try:
        path.write_bytes(raw)
        assert isinstance(ledger.replay_verify(log), ledger.ReplayReport)
        run_commands(["replay", log], ["digest", log])
        if name == "genesis.json":
            shutil.rmtree(base / "init", ignore_errors=True)
            run_commands(["init", path, base / "init"])
    finally:
        path.write_bytes(original)


@FUZZ
@given(st.data())
def test_any_edit_of_a_transaction_file_is_classified_or_refused(base, data):
    batches = [json.loads(p.read_text()) for p in sorted((base / "log").glob("batch_*.json"))]
    tx = data.draw(st.sampled_from([t for b in batches for t in b["txs"]]), "tx")
    raw, _ = data.draw(edits(tx), "edit")
    path = base / "tx.json"
    path.write_bytes(raw)
    run_commands(["classify", path])


@FUZZ
@given(st.data())
def test_any_edit_of_a_scenario_file_runs_or_is_refused(base, data):
    raw, edited = data.draw(edits(SCENARIO), "edit")
    assume(not asks_for_unbounded_work(edited))
    path = base / "edited.json"
    path.write_bytes(raw)
    shutil.rmtree(base / "run", ignore_errors=True)
    run_commands(["run", path, base / "run"])
