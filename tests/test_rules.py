"""System rules: issuance schedule, fee/gas-price floors, allow-list, output
expiry, and the genesis config codec."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import KEYS, make_config, p2pk, signed_spend
from tierledger import ledger, rules
from tierledger.model import Level, Lock, ModelError, Outpoint, Output, address_of_pubkey, sha256
from tierledger.permission import PermissionPolicy

ALICE, BOB = KEYS[1], KEYS[2]


def test_subsidy_halves_on_schedule():
    cfg = make_config(initial_subsidy=100, halving_interval=10)
    assert rules.subsidy(0, cfg) == 100
    assert rules.subsidy(9, cfg) == 100
    assert rules.subsidy(10, cfg) == 50
    assert rules.subsidy(25, cfg) == 25
    assert rules.subsidy(70, cfg) == 0  # floored away
    assert rules.subsidy(10 * 64, cfg) == 0  # shift guard


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=50))
def test_subsidy_is_monotone_nonincreasing(epoch, interval):
    cfg = make_config(initial_subsidy=1_000_000, halving_interval=interval)
    assert rules.subsidy(epoch + 1, cfg) <= rules.subsidy(epoch, cfg)


def test_total_issuance_is_bounded_by_geometric_sum():
    cfg = make_config(initial_subsidy=1000, halving_interval=5)
    total = sum(rules.subsidy(e, cfg) for e in range(1000))
    assert total <= 2 * 1000 * 5


def test_check_fee_utxo_and_contract_paths():
    op = Outpoint(sha256(b"x"), 0)
    tx = signed_spend(ALICE, [op], [p2pk(BOB, 5)])
    cfg = make_config(min_fee=3)
    assert rules.check_fee(tx, 2, cfg) == rules.INSUFFICIENT_FEE
    assert rules.check_fee(tx, 3, cfg) == rules.FEE_OK
    from helpers import make_call

    call = make_call(ALICE, sha256(b"c"), gas_price=1)
    priced = make_config(min_gas_price=2)
    assert rules.check_fee(call, None, priced) == rules.GAS_PRICE_TOO_LOW
    assert rules.check_fee(call, None, make_config()) == rules.FEE_OK


def test_allow_list_checks_every_output():
    allowed = Lock.pay_to_pubkey(ALICE.pubkey)
    cfg = make_config(allow_list=frozenset({allowed.address()}))
    ok = (Output(5, allowed),)
    mixed = (Output(5, allowed), Output(5, Lock.pay_to_pubkey(BOB.pubkey)))
    assert rules.check_allow_list(ok, cfg) == rules.FEE_OK
    assert rules.check_allow_list(mixed, cfg) == rules.ALLOW_LIST_VIOLATION
    assert rules.check_allow_list(mixed, make_config()) == rules.FEE_OK


def test_apply_expiry_inclusive_bound_and_disable():
    state = ledger.LedgerState()
    state.put_utxo(Outpoint(sha256(b"a"), 0), p2pk(ALICE, 10, expiry=5))
    state.put_utxo(Outpoint(sha256(b"b"), 0), p2pk(ALICE, 20, expiry=6))
    state.put_utxo(Outpoint(sha256(b"c"), 0), p2pk(ALICE, 30))
    utxos = state.utxos
    live = make_config(expiry_enabled=True)
    expired = rules.apply_expiry(state.expiring, 5, live)
    assert sum(utxos[op].amount for op in expired) == 10
    assert sum(o.amount for op, o in utxos.items() if op not in expired) == 50
    expired = rules.apply_expiry(state.expiring, 6, live)
    assert sum(utxos[op].amount for op in expired) == 30
    assert rules.apply_expiry(state.expiring, 9, make_config()) == []


def test_config_json_round_trip_and_hash():
    cfg = make_config(
        max_level=Level.L2,
        min_fee=2,
        covenants=False,
        allow_list=frozenset({b"\x07" * 32}),
        expiry_enabled=True,
        deploy_policy=PermissionPolicy.allow_list([ALICE.pubkey]),
        call_policy=PermissionPolicy.endorsed("per_user"),
        intermediary_registry=(("bank", BOB.pubkey),),
    )
    back = rules.SystemConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    assert cfg.config_hash() != make_config().config_hash()


# Genesis texts and config hashes written before genesis was read and
# written through its table: the default config, and one in which every
# field differs from its default.
PINNED_GENESIS = [
    (
        rules.SystemConfig(),
        '{"access_mode":"dynamic","call_policy":{"kind":"open"},"covenants":true,'
        '"deploy_policy":{"kind":"open"},"expiry_enabled":false,"halving_interval":10,'
        '"initial_subsidy":50,"intermediary_registry":[],"max_level":"L3","min_fee":0,'
        '"min_gas_price":0,"operator_pubkey":"' + "00" * 32 + '"}',
        "65ecd58141100117aaa97844f4250fa9a9d27d4beb74d603713a72229eeaa190",
    ),
    (
        rules.SystemConfig(
            max_level=Level.L1_5, initial_subsidy=7, halving_interval=3, min_fee=2, min_gas_price=4,
            covenants=False, access_mode=rules.ACCESS_DECLARED, allow_list=frozenset({b"\x07" * 32, b"\x03" * 32}),
            expiry_enabled=True, operator_pubkey=b"\x11" * 32,
            deploy_policy=PermissionPolicy.allow_list([b"\x44" * 32, b"\x05" * 32]),
            call_policy=PermissionPolicy.endorsed("per_user"),
            intermediary_registry=(("card", b"\x33" * 32), ("bank", b"\x22" * 32)),
        ),
        '{"access_mode":"declared","allow_list":["' + "03" * 32 + '","' + "07" * 32 + '"],'
        '"call_policy":{"granularity":"per_user","kind":"endorsed"},"covenants":false,'
        '"deploy_policy":{"kind":"allow_list","pubkeys":["' + "05" * 32 + '","' + "44" * 32 + '"]},'
        '"expiry_enabled":true,"halving_interval":3,"initial_subsidy":7,"intermediary_registry":'
        '[{"name":"card","pubkey":"' + "33" * 32 + '"},{"name":"bank","pubkey":"' + "22" * 32 + '"}],'
        '"max_level":"L1.5","min_fee":2,"min_gas_price":4,"operator_pubkey":"' + "11" * 32 + '"}',
        "c256b5aaeb83e81cd048368349cd2d75c745175a0639119d9f5e43a3dbcf190a",
    ),
]


@pytest.mark.parametrize("index", range(len(PINNED_GENESIS)))
def test_genesis_text_and_hash_are_pinned(index):
    cfg, text, config_hash = PINNED_GENESIS[index]
    assert cfg.to_json_str() == text
    assert cfg.config_hash().hex() == config_hash
    back = rules.SystemConfig.from_json(json.loads(text))
    assert back == cfg and back.to_json_str() == text


def test_a_policy_with_no_kind_or_no_key_is_open():
    assert PermissionPolicy.from_json({}) == PermissionPolicy.open()
    assert PermissionPolicy.from_json({"pubkeys": []}) == PermissionPolicy.open()
    assert rules.SystemConfig.from_json({"deploy_policy": {}, "call_policy": {}}) == rules.SystemConfig()
    genesis = json.loads(rules.SystemConfig().to_json_str())
    del genesis["deploy_policy"], genesis["call_policy"]
    assert rules.SystemConfig.from_json(genesis) == rules.SystemConfig()
    for key in ("deploy_policy", "call_policy"):
        with pytest.raises(ModelError, match=key):
            rules.SystemConfig.from_json({key: None})
    with pytest.raises(ModelError, match="kind must be a string"):
        rules.SystemConfig.from_json({"deploy_policy": {"kind": None}})
    with pytest.raises(ModelError, match="unknown policy kind 'vip'"):
        rules.SystemConfig.from_json({"call_policy": {"kind": "vip"}})


def test_a_malformed_registry_entry_is_a_model_error():
    entries = ([None], [[]], [{"name": "bank"}], [{"name": 1, "pubkey": "22" * 32}], [{"name": "bank", "pubkey": "zz"}])
    for registry in entries:
        with pytest.raises(ModelError):
            rules.SystemConfig.from_json({"intermediary_registry": registry})


def test_config_guards():
    with pytest.raises(ModelError):
        make_config(halving_interval=0)
    with pytest.raises(ModelError):
        make_config(access_mode="optimistic")
    with pytest.raises(ModelError):
        make_config(operator_pubkey=b"\x01" * 31)
    with pytest.raises(ModelError):
        make_config(call_policy=PermissionPolicy.endorsed("per_transaction"))  # empty registry


def test_derived_config_values_are_computed_once_and_fresh_per_config():
    cfg = make_config(min_fee=3)
    assert cfg.config_hash() == hashlib.sha256(cfg.to_json_str().encode()).digest()
    assert cfg.config_hash() is cfg.config_hash()
    assert cfg.operator_address == address_of_pubkey(cfg.operator_pubkey)
    other = dataclasses.replace(cfg, min_fee=4, operator_pubkey=BOB.pubkey)
    assert other.config_hash() == hashlib.sha256(other.to_json_str().encode()).digest()
    assert other.config_hash() != cfg.config_hash()
    assert other.operator_address == address_of_pubkey(BOB.pubkey) != cfg.operator_address
