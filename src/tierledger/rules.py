"""Within-system rules: issuance schedule, fee policy, and the optional
allow-list and expiring-money rules. These are hardcoded system behavior,
configured once at genesis and immutable afterwards.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Mapping, Optional

from .model import (
    BOOL,
    HEX,
    HEX_SET,
    INT,
    LEVEL,
    STR,
    Call,
    Deploy,
    JsonKind,
    JsonRow,
    JsonTable,
    Level,
    ModelError,
    Outpoint,
    Output,
    Transaction,
    address_of_pubkey,
    json_list,
    json_value,
    require_u64,
)
from .permission import INTERMEDIARY_JSON, POLICY_JSON, Intermediary, PermissionPolicy

ACCESS_DECLARED = "declared"
ACCESS_DYNAMIC = "dynamic"

# Rule error codes (status registry range 500-599).
FEE_OK = 0
INSUFFICIENT_FEE = 500
GAS_PRICE_TOO_LOW = 501
ALLOW_LIST_VIOLATION = 502


@dataclass(frozen=True)
class SystemConfig:
    """Genesis configuration; immutable for the life of the ledger."""

    max_level: Level = Level.L3
    initial_subsidy: int = 50
    halving_interval: int = 10
    min_fee: int = 0
    min_gas_price: int = 0
    covenants: bool = True
    access_mode: str = ACCESS_DYNAMIC
    allow_list: Optional[frozenset[bytes]] = None
    expiry_enabled: bool = False
    operator_pubkey: bytes = b"\x00" * 32
    deploy_policy: PermissionPolicy = field(default_factory=PermissionPolicy.open)
    call_policy: PermissionPolicy = field(default_factory=PermissionPolicy.open)
    intermediary_registry: tuple[Intermediary, ...] = ()

    def __post_init__(self) -> None:
        registry = tuple(Intermediary(*entry) for entry in self.intermediary_registry)
        object.__setattr__(self, "intermediary_registry", registry)
        if self.halving_interval < 1:
            raise ModelError("halving_interval must be >= 1")
        if self.access_mode not in (ACCESS_DECLARED, ACCESS_DYNAMIC):
            raise ModelError(f"unknown access mode {self.access_mode!r}")
        for key, values in {
            "operator_pubkey": (self.operator_pubkey,), "allow_list": self.allow_list or (),
            "deploy_policy": self.deploy_policy.allowed_pubkeys, "call_policy": self.call_policy.allowed_pubkeys,
            "intermediary_registry": [entry.pubkey for entry in registry],
        }.items():
            if any(len(value) != 32 for value in values):
                raise ModelError(f"each key or address in {key} must be 32 bytes")
        if len({entry.name for entry in registry}) < len(registry) or len(self.registry_pubkeys) < len(registry):
            raise ModelError("intermediary_registry names and pubkeys must each be unique")
        require_u64(self.initial_subsidy, "initial_subsidy")
        require_u64(self.min_fee, "min_fee")
        require_u64(self.min_gas_price, "min_gas_price")
        for policy in (self.deploy_policy, self.call_policy):
            if policy.kind == "endorsed" and not self.intermediary_registry:
                raise ModelError("endorsed policy requires a non-empty intermediary registry")

    # The config is frozen, so a value derived from it is computed once.
    @cached_property
    def operator_address(self) -> bytes:
        return address_of_pubkey(self.operator_pubkey)

    @cached_property
    def registry_pubkeys(self) -> frozenset[bytes]:
        return frozenset(entry.pubkey for entry in self.intermediary_registry)

    def to_json(self) -> dict:
        return json.loads(self.to_json_str())

    @staticmethod
    def from_json(obj: object) -> "SystemConfig":
        """Decode a genesis object; a malformed value is a ModelError that
        names its key."""
        return GENESIS_JSON.decode(json_value(obj, dict, "genesis"))

    def to_json_str(self) -> str:
        return GENESIS_JSON.encode(self)

    def config_hash(self) -> bytes:
        """sha256 of the canonical genesis JSON; embedded in every header."""
        return self._config_hash

    @cached_property
    def _config_hash(self) -> bytes:
        return hashlib.sha256(self.to_json_str().encode()).digest()


_POLICY = JsonKind(dict, PermissionPolicy.from_json, POLICY_JSON.encode)
GENESIS_JSON = JsonTable(
    SystemConfig,
    JsonRow("max_level", LEVEL, Level.L3),
    JsonRow("initial_subsidy", INT, 50),
    JsonRow("halving_interval", INT, 10),
    JsonRow("min_fee", INT, 0),
    JsonRow("min_gas_price", INT, 0),
    JsonRow("covenants", BOOL, True),
    JsonRow("access_mode", STR, ACCESS_DYNAMIC),
    JsonRow("allow_list", HEX_SET, None, True),
    JsonRow("expiry_enabled", BOOL, False),
    JsonRow("operator_pubkey", HEX, b"\x00" * 32),
    JsonRow("deploy_policy", _POLICY, PermissionPolicy.open()),
    JsonRow("call_policy", _POLICY, PermissionPolicy.open()),
    JsonRow("intermediary_registry", json_list(INTERMEDIARY_JSON), ()),
)


def subsidy(epoch: int, cfg: SystemConfig) -> int:
    """Issuance for a batch at the given epoch: halving-style geometric
    schedule, floor(initial / 2^(epoch div interval))."""
    halvings = epoch // cfg.halving_interval
    if halvings >= 64:
        return 0
    return cfg.initial_subsidy >> halvings


def check_fee(tx: Transaction, implicit_fee: Optional[int], cfg: SystemConfig) -> int:
    """FEE_OK or an error code. implicit_fee is inputs minus outputs for
    UTXO-style transactions (None for contract transactions)."""
    if isinstance(tx.kind, (Deploy, Call)):
        gas_price = tx.kind.gas_price
        if gas_price < cfg.min_gas_price:
            return GAS_PRICE_TOO_LOW
        return FEE_OK
    assert implicit_fee is not None
    if implicit_fee < cfg.min_fee:
        return INSUFFICIENT_FEE
    return FEE_OK


def check_allow_list(outputs: tuple[Output, ...], cfg: SystemConfig) -> int:
    """Every created output address must be on the allow-list when one is set."""
    if cfg.allow_list is None:
        return FEE_OK
    for out in outputs:
        if out.lock.address() not in cfg.allow_list:
            return ALLOW_LIST_VIOLATION
    return FEE_OK


def apply_expiry(
    expiring: Mapping[int, AbstractSet[Outpoint]], epoch: int, cfg: SystemConfig
) -> list[Outpoint]:
    """Outpoints of every output with expiry <= epoch (inclusive bound),
    read from the state's expiry index (expiry epoch -> outpoints), sorted.

    The batch pipeline spends them at batch start, before any transaction
    validation, and counts their amounts as expired. Spending them empties
    their epochs' entries, which the index then drops, so it holds only
    future epochs (and outputs created already expired, due next batch):
    the cost is O(pending expiry epochs + outputs expiring), not O(UTXO set).
    """
    if not cfg.expiry_enabled:
        return []
    # A list, not a generator: the caller spends these outpoints, which
    # mutates the index's sets while they would still be iterated.
    return sorted(op for e, ops in expiring.items() if e <= epoch for op in ops)
