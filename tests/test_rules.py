"""System rules: issuance schedule, fee/gas-price floors, allow-list, output
expiry, and the genesis config codec."""

from __future__ import annotations

import dataclasses
import hashlib

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
