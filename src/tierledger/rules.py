"""Within-system rules: issuance schedule, fee policy, and the optional
allow-list and expiring-money rules. These are hardcoded system behavior,
configured once at genesis and immutable afterwards.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Mapping, Optional

from .model import (
    Call,
    Deploy,
    Level,
    ModelError,
    Outpoint,
    Output,
    Transaction,
    address_of_pubkey,
    canonical_json,
    json_field,
    json_value,
    require_u64,
)
from .permission import PermissionPolicy

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
    intermediary_registry: tuple[tuple[str, bytes], ...] = ()

    def __post_init__(self) -> None:
        if self.halving_interval < 1:
            raise ModelError("halving_interval must be >= 1")
        if self.access_mode not in (ACCESS_DECLARED, ACCESS_DYNAMIC):
            raise ModelError(f"unknown access mode {self.access_mode!r}")
        if len(self.operator_pubkey) != 32:
            raise ModelError("operator_pubkey must be 32 bytes")
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

    @property
    def registry_pubkeys(self) -> frozenset[bytes]:
        return frozenset(pk for _, pk in self.intermediary_registry)

    def to_json(self) -> dict:
        obj: dict = {
            "max_level": self.max_level.label,
            "initial_subsidy": self.initial_subsidy,
            "halving_interval": self.halving_interval,
            "min_fee": self.min_fee,
            "min_gas_price": self.min_gas_price,
            "covenants": self.covenants,
            "access_mode": self.access_mode,
            "expiry_enabled": self.expiry_enabled,
            "operator_pubkey": self.operator_pubkey.hex(),
            "deploy_policy": self.deploy_policy.to_json(),
            "call_policy": self.call_policy.to_json(),
            "intermediary_registry": [
                {"name": name, "pubkey": pk.hex()} for name, pk in self.intermediary_registry
            ],
        }
        if self.allow_list is not None:
            obj["allow_list"] = sorted(a.hex() for a in self.allow_list)
        return obj

    @staticmethod
    def from_json(obj: object) -> "SystemConfig":
        """Decode a genesis object. A value of the wrong JSON type, the
        wrong shape or out of range is a ModelError (a bool is not an
        int); an allow_list of null means none."""
        obj = json_value(obj, dict, "genesis")
        allow = json_field(obj, "allow_list", list, None, of=bytes)
        registry = json_field(obj, "intermediary_registry", list, [], of=dict)
        return SystemConfig(
            max_level=Level.from_label(json_field(obj, "max_level", str, "L3")),
            initial_subsidy=json_field(obj, "initial_subsidy", int, 50),
            halving_interval=json_field(obj, "halving_interval", int, 10),
            min_fee=json_field(obj, "min_fee", int, 0),
            min_gas_price=json_field(obj, "min_gas_price", int, 0),
            covenants=json_field(obj, "covenants", bool, True),
            access_mode=json_field(obj, "access_mode", str, ACCESS_DYNAMIC),
            allow_list=None if allow is None else frozenset(allow),
            expiry_enabled=json_field(obj, "expiry_enabled", bool, False),
            operator_pubkey=json_field(obj, "operator_pubkey", bytes, b"\x00" * 32),
            deploy_policy=PermissionPolicy.from_json(json_field(obj, "deploy_policy", dict, {})),
            call_policy=PermissionPolicy.from_json(json_field(obj, "call_policy", dict, {})),
            intermediary_registry=tuple(
                (json_field(e, "name", str), json_field(e, "pubkey", bytes)) for e in registry
            ),
        )

    def to_json_str(self) -> str:
        return canonical_json(self.to_json())

    def config_hash(self) -> bytes:
        """sha256 of the canonical genesis JSON; embedded in every header."""
        return self._config_hash

    @cached_property
    def _config_hash(self) -> bytes:
        return hashlib.sha256(self.to_json_str().encode()).digest()


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
