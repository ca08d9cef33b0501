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

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Optional, Union

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
    json_field,
    json_value,
    read_json,
    require_u64,
    txid as compute_txid,
)
from .script.asm import assemble as assemble_script
from .vm import assemble as assemble_vm


class ScenarioError(ModelError):
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
        return asdict(self)


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

    def key(self, name: object) -> crypto.KeyPair:
        kp = self.keys.get(name) if type(name) is str else None
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
        addr = json_value(ref, bytes, f"address reference {ref!r}")
        if len(addr) != 32:
            raise ScenarioError(f"address reference {ref!r} is not 32 bytes")
        return addr

    def resolve_outpoint(self, obj: dict) -> Outpoint:
        ref = json_field(obj, "tx", str)
        tx_id = self.txids.get(ref) or json_value(ref, bytes, f"transaction reference {ref!r}")
        return Outpoint(tx_id, json_field(obj, "index", int, 0))

    def build_lock(self, to: object) -> Lock:
        if type(to) is str:
            return Lock.pay_to_pubkey(self.key(to).pubkey)
        if type(to) is dict and "multisig" in to:
            ms = json_field(to, "multisig", dict)
            names = json_field(ms, "keys", list, of=str)
            return Lock.multisig(json_field(ms, "m", int), [self.key(n).pubkey for n in names])
        if type(to) is dict and "script" in to:
            text = json_field(to, "script", str)
            # "@name" inside PUSH(...) expands to the named key's pubkey hex.
            for name in sorted(self.keys, key=len, reverse=True):
                text = text.replace(f"@{name}", self.keys[name].pubkey.hex())
            return Lock.pay_to_script(assemble_script(text, covenants_enabled=self.cfg.covenants))
        raise ScenarioError("to must be a key name, a multisig object or a script object")

    def build_output(self, obj: dict) -> Output:
        amount, expiry = json_field(obj, "amount", int), json_field(obj, "expiry", int, None)
        return Output(amount, self.build_lock(obj.get("to")), expiry)

    def build_access(self, t: dict) -> Optional[AccessDecl]:
        obj = json_field(t, "access", dict, None)
        if obj is None:
            return None

        def addrs(key: str) -> frozenset[bytes]:
            return frozenset(map(self.resolve_address, json_field(obj, key, list, [], of=str)))

        def slots(key: str) -> frozenset[tuple[bytes, int]]:
            pairs = json_field(obj, key, list, [], of=(str, int))
            return frozenset((self.resolve_address(a), k) for a, k in pairs)

        return AccessDecl(
            addrs("balances_read"), addrs("balances_written"),
            slots("storage_read"), slots("storage_written"), addrs("callees"),
        )

    def next_nonce(self, addr: bytes) -> int:
        base = self.state.accounts.nonces.get(addr, 0)
        offset = self.pending_nonces.get(addr, 0)
        self.pending_nonces[addr] = offset + 1
        return base + offset

    # -- wallet ----------------------------------------------------------

    def select_coins(self, name: str, target: int) -> tuple[list[Outpoint], int]:
        """(outpoints, sum) of the named key's unqueued single-signature coins,
        largest first, through the first one that brings the sum to target."""
        pk = self.key(name).pubkey
        coins = [
            (op, out)
            for op, out in self.state.utxos.items()
            if op not in self.reserved
            and out.lock.kind == LOCK_PUBKEY
            and out.lock.pubkey == pk
        ]
        coins.sort(key=lambda c: (-c[1].amount, c[0].serialize()))
        picked: list[Outpoint] = []
        have = 0
        for op, out in coins:
            picked.append(op)
            have += out.amount
            if have >= target:
                break
        return picked, have

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
        picked, have = self.select_coins(payer, target)
        if have < target:
            raise ScenarioError(f"{payer!r} cannot fund {target} (has {have} spendable)")
        outs = list(outputs)
        change = have - target
        if change > 0:
            outs.append(Output(change, Lock.pay_to_pubkey(kp.pubkey)))
        spend = UtxoSpend(tuple(picked), tuple(outs))
        return self._signed(Transaction(spend, not_before=not_before, not_after=not_after), kp)

    @staticmethod
    def _signed(tx: Transaction, kp: crypto.KeyPair) -> Transaction:
        """tx with each of its inputs signed by kp alone."""
        tx_id = compute_txid(tx)
        return tx.with_witnesses(
            (crypto.sign(kp.seed, crypto.utxo_signing_message(tx_id, i)),) for i in range(len(tx.kind.inputs))
        )

    # -- template building -------------------------------------------------

    def build_tx(self, t: dict) -> Transaction:
        get = partial(json_field, t)
        kind = get("kind", str)
        windows = dict(not_before=get("not_before", int, None), not_after=get("not_after", int, None))
        if kind == "pay":
            outputs = [self.build_output(o) for o in get("outputs", list, of=dict)]
            tx = self.wallet_pay(get("from", str), outputs, get("fee", int, None), **windows)
        elif kind == "spend":
            specs = get("inputs", list, of=dict)
            outputs = tuple(self.build_output(o) for o in get("outputs", list, of=dict))
            tx = Transaction(UtxoSpend(tuple(map(self.resolve_outpoint, specs)), outputs), **windows)
            tx_id = compute_txid(tx)
            tx = tx.with_witnesses(
                [self.witness_item(w, crypto.utxo_signing_message(tx_id, i)) for w in witness]
                for i, witness in enumerate(json_field(spec, "witness", list, []) for spec in specs)
            )
        elif kind == "deploy":
            kp = self.key(get("payer", str))
            code = t.get("code")
            body = Deploy(
                code=assemble_vm(code) if type(code) is str else json_field(get("code", dict), "hex", bytes),
                endowment=get("endowment", int, 0),
                payer=address_of_pubkey(kp.pubkey),
                gas_limit=get("gas_limit", int),
                gas_price=get("gas_price", int, self.cfg.min_gas_price),
                access=self.build_access(t),
            )
            tx = self._account_tx(body, kp, **windows)
        elif kind == "call":
            kp = self.key(get("caller", str))
            body = Call(
                contract=self.resolve_address(get("contract", str)),
                arg=get("arg", int, 0),
                attached=get("attached", int, 0),
                caller=address_of_pubkey(kp.pubkey),
                gas_limit=get("gas_limit", int),
                gas_price=get("gas_price", int, self.cfg.min_gas_price),
                access=self.build_access(t),
                address_consts=tuple(map(self.resolve_address, get("address_consts", list, [], of=str))),
            )
            tx = self._account_tx(body, kp, **windows)
        elif kind == "move_to_account":
            payer = get("from", str)
            to, amount = self.resolve_address(get("to", str, payer)), get("amount", int)
            if "inputs" in t:
                inputs = [self.resolve_outpoint(i) for i in get("inputs", list, of=dict)]
            else:
                # No change output exists on a move: inputs minus the moved
                # amount is all fee, so coin selection must land exactly.
                needed = amount + get("fee", int, self.cfg.min_fee)
                inputs, have = self.select_coins(payer, needed)
                if have != needed:
                    raise ScenarioError(
                        f"move_to_account needs coins summing exactly to {needed}; give explicit inputs"
                    )
            tx = Transaction(MoveToAccount(tuple(inputs), to, amount), **windows)
            tx = self._signed(tx, self.key(payer))
        elif kind == "move_to_utxo":
            kp = self.key(get("from", str))
            body = MoveToUtxo(
                source=address_of_pubkey(kp.pubkey),
                amount=get("amount", int),
                outputs=tuple(self.build_output(o) for o in get("outputs", list, of=dict)),
            )
            tx = self._account_tx(body, kp, **windows)
        else:
            raise ScenarioError(f"unknown transaction template kind {kind!r}")

        endorse = get("endorse", dict, None)
        if endorse is not None:
            seed = self.key(json_field(endorse, "by", str)).seed
            if json_field(endorse, "granularity", str, "per_transaction") == "per_transaction":
                ed = permission.endorse_transaction(seed, compute_txid(tx))
            else:
                user = tx.auth or self.key(t.get("from", t.get("caller", t.get("payer"))))
                expiry = require_u64(json_field(endorse, "expiry", int), "expiry")
                ed = permission.issue_credential(seed, user.pubkey, expiry)
            tx = replace(tx, endorsement=ed)
        return tx

    def witness_item(self, w: object, msg: bytes) -> bytes:
        """A spend template's witness item: hex, {"sig": key} (its signature
        over msg) or {"pk": key} (its public key)."""
        if type(w) is str:
            return json_value(w, bytes, "witness")
        if type(w) is dict and "sig" in w:
            return crypto.sign(self.key(w["sig"]).seed, msg)
        if type(w) is dict and "pk" in w:
            return self.key(w["pk"]).pubkey
        raise ScenarioError("a witness item must be hex, a sig object or a pk object")

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
            for rule in self.rules_:
                if epoch % rule.every == 0:
                    out = Output(rule.amount, Lock.pay_to_pubkey(self.key(rule.payee).pubkey))
                    self.submit(self.wallet_pay(rule.payer, [out], rule.fee), None)
            batch = list(self.queued)
            self.queued.clear()
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
        get = partial(json_field, a)
        check = get("check", str)
        if check == "balance":
            actual = self.state.accounts.balance(self.resolve_address(get("of", str)))
            expected = get("equals", int)
        elif check == "utxo_balance":
            pk = self.key(get("of", str)).pubkey
            actual = sum(
                out.amount
                for out in self.state.utxos.values()
                if out.lock.kind == LOCK_PUBKEY and out.lock.pubkey == pk
            )
            expected = get("equals", int)
        elif check == "receipt":
            r = self.receipts.get(self.txids.get(get("tx", str), b""))
            actual = codes.name(r.status) if r is not None else "<no receipt>"
            expected = a["status"] if type(a.get("status")) is str else codes.name(get("status", int))
        elif check == "storage":
            addr = self.resolve_address(get("contract", str))
            actual = self.state.accounts.storage_get(addr, get("key", int))
            expected = get("equals", int)
        elif check == "digest_prefix":
            digest = ledger.state_digest(self.state).hex()
            expected = get("equals", str)
            actual = digest[: len(expected)]
        elif check == "conservation":
            actual = self.state.conservation_holds()
            expected = True
        elif check == "epoch":
            actual = self.state.epoch
            expected = get("equals", int)
        else:
            raise ScenarioError(f"unknown assertion check {check!r}")
        self.assertions.append(
            AssertionResult(step_index, check, actual == expected, str(expected), str(actual))
        )

    def run_step(self, index: int, step: dict) -> None:
        get = partial(json_field, step)
        op = get("op", str)
        if op == "advance":
            self.advance(get("epochs", int, 1))
        elif op == "submit":
            self.submit(self.build_tx(get("tx", dict)), get("id", str, None))
        elif op == "client_rule":
            rule = ClientRule(get("payer", str), get("payee", str), get("amount", int), get("every", int),
                              get("fee", int, None))
            if rule.every < 1:
                raise ScenarioError("every must be an integer >= 1")
            self.rules_.append(rule)
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


def _substitute_refs(tree: dict, keys: dict[str, crypto.KeyPair]) -> None:
    """Config-level key references, in place: "@name" -> pubkey hex,
    "@addr:name" -> address hex. A walk with its own stack, so that no
    nesting the JSON parser accepts can exhaust Python's."""
    stack: list = [tree]
    while stack:
        node = stack.pop()
        for k, v in (node.items() if type(node) is dict else enumerate(node)):
            if type(v) is str and v.startswith("@"):
                is_address = v.startswith("@addr:")
                name = v[6:] if is_address else v[1:]
                if name not in keys:
                    raise ScenarioError(f"unknown key {name!r}")
                pk = keys[name].pubkey
                node[k] = (address_of_pubkey(pk) if is_address else pk).hex()
            elif type(v) in (dict, list):
                stack.append(v)


def load_scenario(obj: object) -> tuple[str, rules.SystemConfig, dict[str, crypto.KeyPair], list[dict]]:
    try:
        obj = json_value(obj, dict, "the top level")
        keys = {}
        for name, seed in json_field(obj, "keys", dict, {}, of=bytes).items():
            if len(seed) != crypto.SEED_BYTES:
                raise ModelError(f"the seed of key {name!r} must be {crypto.SEED_BYTES} bytes")
            keys[name] = crypto.keygen(seed)
        config = json_field(obj, "config", dict)
        _substitute_refs(config, keys)
        cfg = rules.SystemConfig.from_json(config)
        steps = json_field(obj, "steps", list, [], of=dict)
        return json_field(obj, "name", str, "unnamed"), cfg, keys, steps
    except ModelError as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def run_scenario(
    path: Union[str, Path],
    logdir: Optional[Union[str, Path]] = None,
    workers: int = scheduler.DEFAULT_WORKERS,
) -> tuple[bool, dict]:
    """Execute a scenario file. Returns (all assertions passed, report).
    Raises ScenarioError when the file itself is malformed, and OSError
    when the log directory cannot be written."""
    try:
        obj = read_json(Path(path).read_bytes())
    except (OSError, ModelError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    name, cfg, keys, steps = load_scenario(obj)
    runner = Runner(cfg, keys, logdir=Path(logdir) if logdir is not None else None, workers=workers)
    if runner.logdir is not None:
        ledger.init_log(runner.logdir, cfg)
    for i, step in enumerate(steps):
        try:
            runner.run_step(i, step)
        except ModelError as exc:
            raise ScenarioError(f"malformed scenario: step {i}: {exc}") from exc
    return all(a.ok for a in runner.assertions), runner.report(name)
