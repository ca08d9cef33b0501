"""Scenario runner and command-line interface: the recurring-payment client
rule, exit codes, and machine-readable output."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tierledger import cli, ledger, scenario
from tierledger.model import tx_to_json_str, txid
from helpers import KEYS, make_call, sha256

SEEDS = {
    "op": "01" * 32,
    "alice": "02" * 32,
    "bob": "03" * 32,
}


def base_scenario(steps, config_extra=None, name="test"):
    config = {"max_level": "L3", "initial_subsidy": 1000, "operator_pubkey": "@op"}
    config.update(config_extra or {})
    return {"name": name, "keys": SEEDS, "config": config, "steps": steps}


def write(tmp_path, obj, fname="scenario.json"):
    p = tmp_path / fname
    p.write_text(json.dumps(obj))
    return p


def test_client_rule_recurring_payment(tmp_path):
    # Alice schedules 5 to Bob every second epoch; over six epochs the rule
    # fires three times.
    steps = [
        {"op": "advance"},  # coinbase to the operator
        {"op": "submit", "tx": {"kind": "pay", "from": "op",
                                "outputs": [{"amount": 100, "to": "alice"}]}},
        {"op": "advance"},
        {"op": "client_rule", "payer": "alice", "payee": "bob", "amount": 5, "every": 2},
        {"op": "advance", "epochs": 6},
        {"op": "assert", "check": "utxo_balance", "of": "bob", "equals": 15},
        {"op": "assert", "check": "utxo_balance", "of": "alice", "equals": 85},
        {"op": "assert", "check": "conservation"},
        {"op": "assert", "check": "epoch", "equals": 8},
    ]
    path = write(tmp_path, base_scenario(steps))
    ok, report = scenario.run_scenario(path)
    assert ok, report["assertions"]
    assert report["batches"] == 8


def test_scenario_is_reproducible(tmp_path):
    steps = [
        {"op": "advance", "epochs": 3},
        {"op": "submit", "tx": {"kind": "pay", "from": "op",
                                "outputs": [{"amount": 7, "to": "bob"}]}},
        {"op": "advance"},
    ]
    path = write(tmp_path, base_scenario(steps))
    _, r1 = scenario.run_scenario(path)
    _, r2 = scenario.run_scenario(path)
    assert r1["final_digest"] == r2["final_digest"]


def test_malformed_scenario_raises(tmp_path):
    bad = write(tmp_path, base_scenario([{"op": "teleport"}]))
    with pytest.raises(scenario.ScenarioError):
        scenario.run_scenario(bad)
    with pytest.raises(scenario.ScenarioError):
        scenario.run_scenario(tmp_path / "missing.json")


def test_cli_run_exit_codes(tmp_path, capsys):
    passing = write(tmp_path, base_scenario(
        [{"op": "advance"}, {"op": "assert", "check": "epoch", "equals": 1}]), "pass.json")
    failing = write(tmp_path, base_scenario(
        [{"op": "advance"}, {"op": "assert", "check": "epoch", "equals": 9}]), "fail.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert cli.main(["run", str(passing), str(tmp_path / "log_a")]) == 0
    assert cli.main(["run", str(failing), str(tmp_path / "log_b")]) == 1
    assert cli.main(["run", str(broken), str(tmp_path / "log_c")]) == 2
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" in out


def test_cli_init_and_replay(tmp_path, capsys):
    genesis = tmp_path / "genesis.json"
    genesis.write_text(json.dumps({"initial_subsidy": 10, "operator_pubkey": "11" * 32}))
    logdir = tmp_path / "log"
    assert cli.main(["init", str(genesis), str(logdir)]) == 0
    assert cli.main(["replay", str(logdir)]) == 0  # empty log replays clean
    assert cli.main(["init", str(tmp_path / "nope.json"), str(logdir)]) == 2


def run_cli(*args) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so stderr holds everything it
    writes there."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "tierledger.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_cli_reports_each_error_once_and_nothing_when_quiet(tmp_path):
    genesis = tmp_path / "genesis.json"
    genesis.write_text(json.dumps({"initial_subsidy": 10, "operator_pubkey": "11" * 32}))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    good_scenario = write(tmp_path, base_scenario([{"op": "advance"}]))
    # An array nested past the JSON parser's recursion limit.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    cases = [
        (["init", bad, tmp_path / "log_a"], "error: cannot read genesis config: "),
        (["run", bad, tmp_path / "log_b"], "error: cannot read scenario: "),
        (["init", deep, tmp_path / "log_d"], "error: cannot read genesis config: "),
        (["run", deep, tmp_path / "log_e"], "error: cannot read scenario: "),
        (["classify", deep], "error: cannot parse transaction: "),
        # An unusable LOGDIR is malformed input too, not a traceback.
        (["init", genesis, a_file], "error: cannot create log directory: "),
        (["run", good_scenario, a_file], "error: cannot write log directory: "),
    ]
    for args, prefix in cases:
        res = run_cli(*args)
        assert (res.returncode, res.stdout) == (2, ""), args
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (args, res.stderr)
        quiet = run_cli("--quiet", *args)
        assert (quiet.returncode, quiet.stdout, quiet.stderr) == (2, "", ""), args


def test_cli_run_and_init_refuse_a_directory_that_holds_a_log(tmp_path):
    """A shorter scenario run over a longer log, or a new genesis under
    one, would leave a log that diverges on replay: run and init exit 2
    with one error line and write nothing. A directory that init made,
    holding only genesis.json, is accepted by run."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    genesis = tmp_path / "genesis.json"
    genesis.write_text(json.dumps({"initial_subsidy": 10, "operator_pubkey": "11" * 32}))
    logdir = tmp_path / "log"
    assert run_cli("run", fixtures / "average_balance_contract.json", logdir).returncode == 0
    before = {f.name: f.read_bytes() for f in logdir.iterdir()}
    for args, prefix in [
        (["run", fixtures / "two_party_multisig.json", logdir], "error: cannot write log directory: "),
        (["init", genesis, logdir], "error: cannot create log directory: "),
    ]:
        res = run_cli(*args)
        assert (res.returncode, res.stdout) == (2, ""), args
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (args, res.stderr)
        assert {f.name: f.read_bytes() for f in logdir.iterdir()} == before
    assert run_cli("replay", logdir).returncode == 0
    for stray in ("batch_000000.json", "header_000003.json"):  # one log file is enough
        (tmp_path / "stray").mkdir(exist_ok=True)
        (tmp_path / "stray" / stray).write_text("")
        assert run_cli("--quiet", "run", fixtures / "two_party_multisig.json", tmp_path / "stray").returncode == 2
        assert [f.name for f in (tmp_path / "stray").iterdir()] == [stray]
        (tmp_path / "stray" / stray).unlink()
    assert cli.main(["--quiet", "init", str(genesis), str(tmp_path / "fresh")]) == 0
    assert run_cli("run", fixtures / "two_party_multisig.json", tmp_path / "fresh").returncode == 0
    assert run_cli("replay", tmp_path / "fresh").returncode == 0


def test_cli_run_on_a_scenario_of_the_wrong_shape_exits_2(tmp_path):
    """A scenario file whose top level, keys or a step is not an object, or
    whose values have the wrong JSON type or range, is malformed input:
    exit 2 and one error line, not a traceback."""
    shapes = ["[]", "3", '"steps"', "null", '{"keys": [], "config": {}}',
              '{"config": {}, "steps": [3]}', '{"config": {}, "steps": {}}']
    fund = [{"op": "advance"}]
    shapes += [json.dumps(base_scenario(steps)) for steps in (
        fund + [{"op": "submit", "tx": {"kind": "call", "caller": "op", "contract": "op",
                                        "gas_limit": 5, "access": []}}],
        fund + [{"op": "submit", "tx": {"kind": "pay", "from": "op",
                                        "outputs": [{"amount": 5, "to": {"script": 5}}]}}],
        [{"op": "submit", "tx": {"kind": "deploy", "payer": "op", "gas_limit": 5, "code": {"hex": "zz"}}}],
        fund + [{"op": "client_rule", "payer": "op", "payee": "alice", "amount": 1, "every": 0},
                {"op": "advance"}],
    )]
    for i, text in enumerate(shapes):
        path = tmp_path / f"shape{i}.json"
        path.write_text(text)
        res = run_cli("run", path, tmp_path / f"log{i}")
        assert (res.returncode, res.stdout) == (2, ""), text
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed scenario: "), (text, res.stderr)


def test_cli_run_on_a_submit_whose_tx_is_not_an_object_exits_2(tmp_path):
    for i, tx in enumerate([3, [], "pay", None]):
        path = write(tmp_path, {"config": {}, "steps": [{"op": "submit", "tx": tx}]}, f"tx{i}.json")
        res = run_cli("run", path, tmp_path / f"log{i}")
        assert (res.returncode, res.stdout) == (2, ""), tx
        lines = res.stderr.splitlines()
        assert lines == ["error: malformed scenario: step 0: tx must be an object"], (tx, res.stderr)


def test_cli_run_then_replay_and_digest(tmp_path, capsys):
    steps = [
        {"op": "advance"},
        {"op": "submit", "tx": {"kind": "pay", "from": "op",
                                "outputs": [{"amount": 50, "to": "alice"}]}},
        {"op": "advance", "epochs": 2},
    ]
    path = write(tmp_path, base_scenario(steps))
    logdir = tmp_path / "log"
    assert cli.main(["--json", "run", str(path), str(logdir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert cli.main(["replay", str(logdir)]) == 0
    assert cli.main(["--json", "digest", str(logdir)]) == 0
    digest = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert digest["digest"] == report["final_digest"]
    assert digest["batches"] == 3
    # replay --json reports the same final state as digest --json.
    assert cli.main(["--json", "replay", str(logdir)]) == 0
    replayed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert replayed["ok"] is True
    assert {k: replayed[k] for k in ("digest", "batches", "epoch")} == {
        k: digest[k] for k in ("digest", "batches", "epoch")
    }
    # A flipped byte in a batch file turns replay and digest into exit 1,
    # garbage into 2.
    bpath = logdir / "batch_000001.json"
    raw = bpath.read_text()
    m = re.search(r'"[0-9a-f]{64,}"', raw)  # some hash or signature field
    idx = m.start() + 1
    bpath.write_text(raw[:idx] + ("f" if raw[idx] != "f" else "0") + raw[idx + 1 :])
    assert cli.main(["--quiet", "replay", str(logdir)]) == 1
    assert cli.main(["--quiet", "digest", str(logdir)]) == 1
    bpath.write_text("garbage")
    assert cli.main(["--quiet", "replay", str(logdir)]) == 2
    assert cli.main(["--quiet", "digest", str(logdir)]) == 2


def test_cli_classify(tmp_path, capsys):
    call = make_call(KEYS[1], sha256(b"c"))
    txfile = tmp_path / "tx.json"
    txfile.write_text(tx_to_json_str(call))
    assert cli.main(["classify", str(txfile)]) == 0
    assert capsys.readouterr().out.strip() == "L3"
    txfile.write_text("[]")
    assert cli.main(["--quiet", "classify", str(txfile)]) == 2
    # A value of the wrong JSON type is a malformed file too, not a crash.
    txfile.write_text('{"kind":"utxo_spend","inputs":5,"outputs":[]}')
    assert cli.main(["--quiet", "classify", str(txfile)]) == 2


def test_scenario_log_matches_direct_replay(tmp_path):
    steps = [
        {"op": "advance"},
        {"op": "submit", "tx": {"kind": "move_to_account", "from": "op", "amount": 1000}},
        {"op": "advance"},
        {"op": "submit", "tx": {"kind": "deploy", "payer": "op", "gas_limit": 31, "gas_price": 1,
                                "code": "PUSHI 0 PUSHI 0 SLOAD PUSHI 1 ADD SSTORE HALT"},
         "id": "counter"},
        {"op": "advance"},
        {"op": "submit", "tx": {"kind": "call", "caller": "op", "contract": "counter",
                                "gas_limit": 25, "gas_price": 1}},
        {"op": "advance"},
        {"op": "assert", "check": "storage", "contract": "counter", "key": 0, "equals": 1},
        {"op": "assert", "check": "receipt", "tx": "counter", "status": "Ok"},
        {"op": "assert", "check": "conservation"},
    ]
    path = write(tmp_path, base_scenario(steps))
    logdir = tmp_path / "log"
    ok, report = scenario.run_scenario(path, logdir=logdir)
    assert ok, report["assertions"]
    assert ledger.replay_verify(logdir).ok
