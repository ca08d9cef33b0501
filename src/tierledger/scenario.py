"""Scenario files: self-contained JSON test vectors driving the ledger.

A scenario carries a genesis config, named keypairs (by 32-byte seed), and
ordered steps: advance epochs, submit transaction templates, register
client rules (recurring payments synthesized and signed locally, exactly as
a user's own script would), and assertions. Runs are reproducible: the same
file always yields the same final digest and report.

Key references: config values and templates may use "@name" for a named
key's public key and "@addr:name" for its address.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from . import codes, crypto, ledger, permission, rules, scheduler
from .model import (
    LOCK_PUBKEY,
    AccessDecl,
    Call,
    Deploy,
    Lock,
    ModelError,
    MoveToAccount,
    MoveToUtxo,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    classify_level,
    txid as compute_txid,
)
from .script.asm import ScriptSyntaxError, assemble as assemble_script
from .vm import assemble as assemble_vm


class ScenarioError(ValueError):
    """Malformed scenario file (exit 2 territory), as opposed to a failing
    assertion (exit 1) or a rejected transaction (just a receipt)."""


@dataclass
class ClientRule:
    payer: str
    payee: str
    amount: int
    every: int
    fee: Optional[int] = None


@dataclass
class AssertionResult:
    step: int
    check: str
    ok: bool
    expected: str
    actual: str

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "check": self.check,
            "ok": self.ok,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass
class Runner:
    cfg: rules.SystemConfig
    keys: dict[str, crypto.KeyPair]
    logdir: Optional[Path] = None
    workers: int = scheduler.DEFAULT_WORKERS
    state: ledger.LedgerState = field(default_factory=ledger.LedgerState)
    txids: dict[str, bytes] = field(default_factory=dict)
    receipts: dict[bytes, ledger.Receipt] = field(default_factory=dict)
    queued: list[Transaction] = field(default_factory=list)
    reserved: set[Outpoint] = field(default_factory=set)
    pending_nonces: dict[bytes, int] = field(default_factory=dict)
    rules_: list[ClientRule] = field(default_factory=list)
    assertions: list[AssertionResult] = field(default_factory=list)
    batches: int = 0

    # -- name resolution ------------------------------------------------

    def key(self, name: str) -> crypto.KeyPair:
        kp = self.keys.get(name)
        if kp is None:
            raise ScenarioError(f"unknown key {name!r}")
        return kp

    def resolve_address(self, ref: str) -> bytes:
        """Key name -> address of its pubkey; transaction/contract id ->
        its txid; "self" -> the deploy-time placeholder; else hex."""
        if ref == "self":
            return b"\x00" * 32
        if ref in self.keys:
            return address_of_pubkey(self.keys[ref].pubkey)
        if ref in self.txids:
            return self.txids[ref]
        try:
            addr = bytes.fromhex(ref)
        except ValueError:
            raise ScenarioError(f"unresolvable address reference {ref!r}") from None
        if len(addr) != 32:
            raise ScenarioError(f"address reference {ref!r} is not 32 bytes")
        return addr

    def resolve_outpoint(self, obj: dict) -> Outpoint:
        ref = obj["tx"]
        tx_id = self.txids.get(ref)
        if tx_id is None:
            try:
                tx_id = bytes.fromhex(ref)
            except ValueError:
                raise ScenarioError(f"unknown transaction reference {ref!r}") from None
        return Outpoint(tx_id, obj.get("index", 0))

    def build_lock(self, to: Union[str, dict]) -> Lock:
        if isinstance(to, str):
            return Lock.pay_to_pubkey(self.key(to).pubkey)
        if "multisig" in to:
            ms = to["multisig"]
            return Lock.multisig(ms["m"], [self.key(n).pubkey for n in ms["keys"]])
        if "script" in to:
            text = to["script"]
            # "@name" inside PUSH(...) expands to the named key's pubkey hex.
            for name in sorted(self.keys, key=len, reverse=True):
                text = text.replace(f"@{name}", self.keys[name].pubkey.hex())
            return Lock.pay_to_script(
                assemble_script(text, covenants_enabled=self.cfg.covenants)
            )
        raise ScenarioError(f"unbuildable lock spec {to!r}")

    def build_output(self, obj: dict) -> Output:
        return Output(obj["amount"], self.build_lock(obj["to"]), obj.get("expiry"))

    def build_access(self, obj: Optional[dict]) -> Optional[AccessDecl]:
        if obj is None:
            return None
        return AccessDecl(
            balances_read=frozenset(self.resolve_address(a) for a in obj.get("balances_read", ())),
            balances_written=frozenset(self.resolve_address(a) for a in obj.get("balances_written", ())),
            storage_read=frozenset(
                (self.resolve_address(a), k) for a, k in obj.get("storage_read", ())
            ),
            storage_written=frozenset(
                (self.resolve_address(a), k) for a, k in obj.get("storage_written", ())
            ),
            callees=frozenset(self.resolve_address(a) for a in obj.get("callees", ())),
        )

    def next_nonce(self, addr: bytes) -> int:
        base = self.state.accounts.nonces.get(addr, 0)
        offset = self.pending_nonces.get(addr, 0)
        self.pending_nonces[addr] = offset + 1
        return base + offset

    # -- wallet ----------------------------------------------------------

    def spendable(self, name: str) -> list[tuple[Outpoint, Output]]:
        """The named key's single-signature coins, excluding anything a
        queued transaction already spends, largest first."""
        pk = self.key(name).pubkey
        coins = [
            (op, out)
            for op, out in self.state.utxos.items()
            if op not in self.reserved
            and out.lock.kind == LOCK_PUBKEY
            and out.lock.pubkey == pk
        ]
        coins.sort(key=lambda c: (-c[1].amount, c[0].serialize()))
        return coins

    def wallet_pay(
        self,
        payer: str,
        outputs: list[Output],
        fee: Optional[int],
        not_before: Optional[int] = None,
        not_after: Optional[int] = None,
    ) -> Transaction:
        """Synthesize a signed spend: largest-first coin selection with a
        change output back to the payer."""
        kp = self.key(payer)
        if fee is None:
            fee = self.cfg.min_fee
        target = sum(o.amount for o in outputs) + fee
        picked: list[tuple[Outpoint, Output]] = []
        have = 0
        for op, out in self.spendable(payer):
            picked.append((op, out))
            have += out.amount
            if have >= target:
                break
        if have < target:
            raise ScenarioError(
                f"{payer!r} cannot fund {target} (has {have} spendable)"
            )
        outs = list(outputs)
        change = have - target
        if change > 0:
            outs.append(Output(change, Lock.pay_to_pubkey(kp.pubkey)))
        tx = Transaction(
            UtxoSpend(tuple(op for op, _ in picked), tuple(outs)),
            not_before=not_before,
            not_after=not_after,
        )
        tx_id = compute_txid(tx)
        wit = tuple(
            (crypto.sign(kp.seed, crypto.utxo_signing_message(tx_id, i)),)
            for i in range(len(picked))
        )
        return tx.with_witnesses(wit)

    # -- template building -------------------------------------------------

    def build_tx(self, t: dict) -> Transaction:
        kind = t.get("kind")
        windows = dict(not_before=t.get("not_before"), not_after=t.get("not_after"))
        if kind == "pay":
            outputs = [self.build_output(o) for o in t["outputs"]]
            tx = self.wallet_pay(t["from"], outputs, t.get("fee"), **windows)
        elif kind == "spend":
            inputs = tuple(self.resolve_outpoint(i) for i in t["inputs"])
            outputs = tuple(self.build_output(o) for o in t["outputs"])
            tx = Transaction(UtxoSpend(inputs, outputs), **windows)
            tx_id = compute_txid(tx)
            witnesses = []
            for i, ispec in enumerate(t["inputs"]):
                msg = crypto.utxo_signing_message(tx_id, i)
                items: list[bytes] = []
                for w in ispec.get("witness", []):
                    if isinstance(w, str):
                        items.append(bytes.fromhex(w))
                    elif "sig" in w:
                        items.append(crypto.sign(self.key(w["sig"]).seed, msg))
                    elif "pk" in w:
                        items.append(self.key(w["pk"]).pubkey)
                    else:
                        raise ScenarioError(f"unbuildable witness item {w!r}")
                witnesses.append(tuple(items))
            tx = tx.with_witnesses(tuple(witnesses))
        elif kind == "deploy":
            kp = self.key(t["payer"])
            code = assemble_vm(t["code"]) if isinstance(t["code"], str) else bytes.fromhex(t["code"]["hex"])
            body = Deploy(
                code=code,
                endowment=t.get("endowment", 0),
                payer=address_of_pubkey(kp.pubkey),
                gas_limit=t["gas_limit"],
                gas_price=t.get("gas_price", self.cfg.min_gas_price),
                access=self.build_access(t.get("access")),
            )
            tx = self._account_tx(body, kp, **windows)
        elif kind == "call":
            kp = self.key(t["caller"])
            body = Call(
                contract=self.resolve_address(t["contract"]),
                arg=t.get("arg", 0),
                attached=t.get("attached", 0),
                caller=address_of_pubkey(kp.pubkey),
                gas_limit=t["gas_limit"],
                gas_price=t.get("gas_price", self.cfg.min_gas_price),
                access=self.build_access(t.get("access")),
                address_consts=tuple(self.resolve_address(a) for a in t.get("address_consts", ())),
            )
            tx = self._account_tx(body, kp, **windows)
        elif kind == "move_to_account":
            kp = self.key(t["from"])
            to = self.resolve_address(t.get("to", t["from"]))
            if "inputs" in t:
                inputs = [self.resolve_outpoint(i) for i in t["inputs"]]
            else:
                # No change output exists on a move: inputs minus the moved
                # amount is all fee, so coin selection must land exactly.
                needed = t["amount"] + t.get("fee", self.cfg.min_fee)
                inputs = []
                have = 0
                for op, out in self.spendable(t["from"]):
                    inputs.append(op)
                    have += out.amount
                    if have >= needed:
                        break
                if have != needed:
                    raise ScenarioError(
                        f"move_to_account needs coins summing exactly to {needed}; give explicit inputs"
                    )
            body = MoveToAccount(tuple(inputs), to, t["amount"])
            tx = Transaction(body, **windows)
            tx_id = compute_txid(tx)
            wit = tuple(
                (crypto.sign(kp.seed, crypto.utxo_signing_message(tx_id, i)),)
                for i in range(len(inputs))
            )
            tx = tx.with_witnesses(wit)
        elif kind == "move_to_utxo":
            kp = self.key(t["from"])
            body = MoveToUtxo(
                source=address_of_pubkey(kp.pubkey),
                amount=t["amount"],
                outputs=tuple(self.build_output(o) for o in t["outputs"]),
            )
            tx = self._account_tx(body, kp, **windows)
        else:
            raise ScenarioError(f"unknown transaction template kind {kind!r}")

        endorse = t.get("endorse")
        if endorse is not None:
            seed = self.key(endorse["by"]).seed
            tx_id = compute_txid(tx)
            if endorse.get("granularity", "per_transaction") == "per_transaction":
                ed = permission.endorse_transaction(seed, tx_id)
            else:
                user_pk = tx.auth.pubkey if tx.auth is not None else self.key(t.get("from", t.get("caller", t.get("payer")))).pubkey
                ed = permission.issue_credential(seed, user_pk, endorse["expiry"])
            tx = Transaction(
                tx.kind, tx.nonce, tx.not_before, tx.not_after, tx.witnesses, tx.auth, ed
            )
        return tx

    def _account_tx(self, body, kp: crypto.KeyPair, not_before=None, not_after=None) -> Transaction:
        addr = address_of_pubkey(kp.pubkey)
        tx = Transaction(body, nonce=self.next_nonce(addr), not_before=not_before, not_after=not_after)
        tx_id = compute_txid(tx)
        sig = crypto.sign(kp.seed, crypto.account_signing_message(tx_id))
        return tx.with_auth(kp.pubkey, sig)

    # -- step execution -----------------------------------------------------

    def submit(self, tx: Transaction, label: Optional[str]) -> None:
        tx_id = compute_txid(tx)
        if label is not None:
            self.txids[label] = tx_id
        if isinstance(tx.kind, (UtxoSpend, MoveToAccount)):
            self.reserved.update(tx.kind.inputs)
        self.queued.append(tx)

    def advance(self, epochs: int) -> None:
        for _ in range(epochs):
            epoch = self.state.epoch + 1
            batch = list(self.queued)
            self.queued.clear()
            for rule in self.rules_:
                if epoch % rule.every == 0:
                    out = Output(rule.amount, Lock.pay_to_pubkey(self.key(rule.payee).pubkey))
                    tx = self.wallet_pay(rule.payer, [out], rule.fee)
                    assert isinstance(tx.kind, UtxoSpend)
                    self.reserved.update(tx.kind.inputs)
                    batch.append(tx)
            receipts, header = ledger.apply_batch(
                self.state, batch, epoch, self.cfg, workers=self.workers
            )
            self.reserved.clear()
            self.pending_nonces.clear()
            for r in receipts:
                self.receipts[r.tx_id] = r
            if self.logdir is not None:
                ledger.write_batch_files(
                    self.logdir, header.batch_number, epoch, batch, header, receipts
                )
            self.batches += 1

    def run_assert(self, step_index: int, a: dict) -> None:
        check = a["check"]
        if check == "balance":
            addr = self.resolve_address(a["of"])
            actual = self.state.accounts.balance(addr)
            expected = a["equals"]
        elif check == "utxo_balance":
            pk = self.key(a["of"]).pubkey
            actual = sum(
                out.amount
                for out in self.state.utxos.values()
                if out.lock.kind == LOCK_PUBKEY and out.lock.pubkey == pk
            )
            expected = a["equals"]
        elif check == "receipt":
            r = self.receipts.get(self.txids.get(a["tx"], b""))
            actual = codes.name(r.status) if r is not None else "<no receipt>"
            expected = a["status"] if isinstance(a["status"], str) else codes.name(a["status"])
        elif check == "storage":
            addr = self.resolve_address(a["contract"])
            actual = self.state.accounts.storage_get(addr, a["key"])
            expected = a["equals"]
        elif check == "digest_prefix":
            digest = ledger.state_digest(self.state).hex()
            expected = a["equals"]
            actual = digest[: len(expected)]
        elif check == "conservation":
            actual = self.state.conservation_holds()
            expected = True
        elif check == "epoch":
            actual = self.state.epoch
            expected = a["equals"]
        else:
            raise ScenarioError(f"unknown assertion check {check!r}")
        self.assertions.append(
            AssertionResult(step_index, check, actual == expected, str(expected), str(actual))
        )

    def run_step(self, index: int, step: dict) -> None:
        op = step.get("op")
        if op == "advance":
            self.advance(step.get("epochs", 1))
        elif op == "submit":
            if not isinstance(step.get("tx"), dict):
                raise ScenarioError(f"malformed scenario: step {index}: tx must be an object")
            self.submit(self.build_tx(step["tx"]), step.get("id"))
        elif op == "client_rule":
            self.rules_.append(
                ClientRule(
                    step["payer"], step["payee"], step["amount"], step["every"], step.get("fee")
                )
            )
        elif op == "assert":
            self.run_assert(index, step)
        else:
            raise ScenarioError(f"unknown step op {op!r}")

    def report(self, name: str) -> dict:
        return {
            "scenario": name,
            "ok": all(a.ok for a in self.assertions),
            "assertions": [a.to_json() for a in self.assertions],
            "batches": self.batches,
            "epoch": self.state.epoch,
            "final_digest": ledger.state_digest(self.state).hex(),
        }


def _substitute_refs(value: Any, keys: dict[str, crypto.KeyPair]) -> Any:
    """Config-level key references: "@name" -> pubkey hex, "@addr:name" ->
    address hex."""
    if isinstance(value, str):
        if value.startswith("@addr:"):
            return address_of_pubkey(keys[value[6:]].pubkey).hex()
        if value.startswith("@"):
            return keys[value[1:]].pubkey.hex()
        return value
    if isinstance(value, list):
        return [_substitute_refs(v, keys) for v in value]
    if isinstance(value, dict):
        return {k: _substitute_refs(v, keys) for k, v in value.items()}
    return value


def load_scenario(obj: object) -> tuple[str, rules.SystemConfig, dict[str, crypto.KeyPair], list[dict]]:
    if not isinstance(obj, dict):
        raise ScenarioError("malformed scenario: the top level must be an object")
    if not isinstance(obj.get("keys", {}), dict):
        raise ScenarioError("malformed scenario: keys must be an object")
    try:
        keys = {name: crypto.keygen(bytes.fromhex(seed)) for name, seed in obj.get("keys", {}).items()}
        cfg_json = _substitute_refs(obj["config"], keys)
        cfg = rules.SystemConfig.from_json(cfg_json)
        steps = obj.get("steps", [])
        if not isinstance(steps, list) or not all(isinstance(step, dict) for step in steps):
            raise ScenarioError("malformed scenario: steps must be a list of objects")
        return obj.get("name", "unnamed"), cfg, keys, steps
    except ScenarioError:
        raise
    except (KeyError, ValueError, TypeError, ModelError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def run_scenario(
    path: Union[str, Path],
    logdir: Optional[Union[str, Path]] = None,
    workers: int = scheduler.DEFAULT_WORKERS,
) -> tuple[bool, dict]:
    """Execute a scenario file. Returns (all assertions passed, report).
    Raises ScenarioError when the file itself is malformed."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    name, cfg, keys, steps = load_scenario(obj)
    runner = Runner(cfg, keys, logdir=Path(logdir) if logdir is not None else None, workers=workers)
    if runner.logdir is not None:
        ledger.init_log(runner.logdir, cfg)
    for i, step in enumerate(steps):
        try:
            runner.run_step(i, step)
        except ScenarioError:
            raise
        except (ScriptSyntaxError, ModelError, KeyError, TypeError) as exc:
            raise ScenarioError(f"step {i} failed to build: {exc}") from exc
    return all(a.ok for a in runner.assertions), runner.report(name)
