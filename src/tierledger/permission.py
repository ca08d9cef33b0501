"""Policies over who may create and call programs, including intermediary
endorsement (per-transaction signatures and per-user bearer credentials).

Verification of the ledger itself is universal: anyone holding the receipt
log can run the replay verifier. No read-permissioning is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from . import crypto
from .model import HEX, HEX_SET, STR, EndorsementData, JsonRow, JsonTable, JsonTagged, ModelError

POLICY_OPEN = "open"
POLICY_ALLOW_LIST = "allow_list"
POLICY_ENDORSED = "endorsed"


@dataclass(frozen=True)
class PermissionPolicy:
    kind: str
    allowed_pubkeys: frozenset[bytes] = frozenset()
    granularity: str = "per_transaction"  # for endorsed policies

    def __post_init__(self) -> None:
        if self.kind not in (POLICY_OPEN, POLICY_ALLOW_LIST, POLICY_ENDORSED):
            raise ModelError(f"unknown policy kind {self.kind!r}")
        if self.kind == POLICY_ENDORSED and self.granularity not in (
            "per_transaction",
            "per_user",
        ):
            raise ModelError(f"unknown endorsement granularity {self.granularity!r}")

    @staticmethod
    def open() -> "PermissionPolicy":
        return PermissionPolicy(POLICY_OPEN)

    @staticmethod
    def allow_list(allowed_pubkeys: Sequence[bytes]) -> "PermissionPolicy":
        return PermissionPolicy(POLICY_ALLOW_LIST, allowed_pubkeys=frozenset(allowed_pubkeys))

    @staticmethod
    def endorsed(granularity: str) -> "PermissionPolicy":
        return PermissionPolicy(POLICY_ENDORSED, granularity=granularity)

    def to_json(self) -> dict:
        return POLICY_JSON.encode(self)

    @staticmethod
    def from_json(obj: dict) -> "PermissionPolicy":
        """Decode a policy object; one with no kind is open."""
        return POLICY_JSON.decode({"kind": POLICY_OPEN, **obj})


POLICY_JSON = JsonTagged("policy", attrgetter("kind"), {
    POLICY_OPEN: JsonTable(PermissionPolicy.open, tag=("kind", "open")),
    POLICY_ALLOW_LIST: JsonTable(
        PermissionPolicy.allow_list, JsonRow("pubkeys", HEX_SET, attr="allowed_pubkeys"), tag=("kind", "allow_list")
    ),
    POLICY_ENDORSED: JsonTable(PermissionPolicy.endorsed, JsonRow("granularity", STR), tag=("kind", "endorsed")),
})


class Intermediary(NamedTuple):
    """An intermediary_registry entry: a name and the key it endorses with."""

    name: str
    pubkey: bytes


INTERMEDIARY_JSON = JsonTable(Intermediary, JsonRow("name", STR), JsonRow("pubkey", HEX))


# Authorization error codes (status registry range 400-499).
AUTH_OK = 0
NOT_ON_ALLOW_LIST = 400
MISSING_ENDORSEMENT = 401
BAD_ENDORSEMENT_SIGNATURE = 402
CREDENTIAL_EXPIRED = 403


def _credential_message(user_pubkey: bytes, expiry: int) -> bytes:
    return user_pubkey + expiry.to_bytes(8, "little")


def issue_credential(
    intermediary_seed: bytes, user_pubkey: bytes, expiry: int
) -> EndorsementData:
    """Per-user bearer credential signed by an intermediary."""
    kp = crypto.keygen(intermediary_seed)
    sig = crypto.sign(intermediary_seed, _credential_message(user_pubkey, expiry))
    return EndorsementData(
        "per_user", kp.pubkey, sig, user_pubkey=user_pubkey, expiry=expiry
    )


def endorse_transaction(intermediary_seed: bytes, tx_id: bytes) -> EndorsementData:
    """Per-transaction endorsement: intermediary signature over the txid."""
    kp = crypto.keygen(intermediary_seed)
    return EndorsementData("per_transaction", kp.pubkey, crypto.sign(intermediary_seed, tx_id))


def authorize(
    tx_id: bytes,
    user_pubkey: Optional[bytes],
    endorsement: Optional[EndorsementData],
    policy: PermissionPolicy,
    registry_pubkeys: frozenset[bytes],
    epoch: int,
) -> int:
    """Check a transaction's initiating user against a policy.

    Returns AUTH_OK or a status code. Policies only ever restrict: nothing
    here can make an otherwise-invalid transaction valid.
    """
    if policy.kind == POLICY_OPEN:
        return AUTH_OK
    if policy.kind == POLICY_ALLOW_LIST:
        if user_pubkey is not None and user_pubkey in policy.allowed_pubkeys:
            return AUTH_OK
        return NOT_ON_ALLOW_LIST
    # Endorsed.
    if endorsement is None:
        return MISSING_ENDORSEMENT
    if endorsement.granularity != policy.granularity:
        return MISSING_ENDORSEMENT
    if endorsement.intermediary_pubkey not in registry_pubkeys:
        return BAD_ENDORSEMENT_SIGNATURE
    if policy.granularity == "per_transaction":
        if not crypto.verify(endorsement.intermediary_pubkey, tx_id, endorsement.signature):
            return BAD_ENDORSEMENT_SIGNATURE
        return AUTH_OK
    # per_user credential
    msg = _credential_message(endorsement.user_pubkey, endorsement.expiry)
    if not crypto.verify(endorsement.intermediary_pubkey, msg, endorsement.signature):
        return BAD_ENDORSEMENT_SIGNATURE
    if user_pubkey is None or endorsement.user_pubkey != user_pubkey:
        return BAD_ENDORSEMENT_SIGNATURE
    if endorsement.expiry < epoch:
        return CREDENTIAL_EXPIRED
    return AUTH_OK
