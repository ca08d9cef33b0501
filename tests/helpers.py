"""Shared builders for the test suite: deterministic keys, configs, funded
ledger states, signed transaction constructors, and a randomized workload
generator used by the conservation and replay suites."""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Sequence

import pytest

from oracles import recompute_state_digest, state_entries
from tierledger import crypto, ledger, rules, vm
from tierledger.model import (
    AccessDecl,
    Call,
    Deploy,
    Level,
    Lock,
    MoveToAccount,
    MoveToUtxo,
    Outpoint,
    Output,
    Transaction,
    UtxoSpend,
    address_of_pubkey,
    sha256,
    txid,
)
from tierledger.script.asm import assemble as assemble_script

KEYS = [crypto.keygen(bytes([i]) * 32) for i in range(1, 17)]
OPERATOR = KEYS[0]


def make_config(max_level: Level = Level.L3, **kw) -> rules.SystemConfig:
    kw.setdefault("operator_pubkey", OPERATOR.pubkey)
    return rules.SystemConfig(max_level=max_level, **kw)


def p2pk(kp: crypto.KeyPair, amount: int, expiry: Optional[int] = None) -> Output:
    return Output(amount, Lock.pay_to_pubkey(kp.pubkey), expiry)


_seed_counter = 0


def seed_utxo(state: ledger.LedgerState, output: Output) -> Outpoint:
    """Grow the UTXO set directly (counted as issuance), bypassing batches;
    unit-test plumbing that keeps conservation intact."""
    global _seed_counter
    _seed_counter += 1
    op = Outpoint(sha256(b"test-seed" + _seed_counter.to_bytes(8, "little")), 0)
    state.put_utxos(op.txid, (output,), op.index)
    state.issued += output.amount
    return op


def seed_balance(state: ledger.LedgerState, addr: bytes, amount: int) -> None:
    state.accounts.set_balance(addr, state.accounts.balance(addr) + amount)
    state.issued += amount


def signed_spend(
    kp: crypto.KeyPair,
    inputs: Sequence[Outpoint],
    outputs: Sequence[Output],
    not_before: Optional[int] = None,
    not_after: Optional[int] = None,
) -> Transaction:
    """UtxoSpend with every input signed by the same key."""
    tx = Transaction(
        UtxoSpend(tuple(inputs), tuple(outputs)),
        not_before=not_before,
        not_after=not_after,
    )
    tx_id = txid(tx)
    return tx.with_witnesses(
        tuple(
            (crypto.sign(kp.seed, crypto.utxo_signing_message(tx_id, i)),)
            for i in range(len(inputs))
        )
    )


def account_signed(tx: Transaction, kp: crypto.KeyPair) -> Transaction:
    tx_id = txid(tx)
    return tx.with_auth(kp.pubkey, crypto.sign(kp.seed, crypto.account_signing_message(tx_id)))


def make_deploy(
    kp: crypto.KeyPair,
    code: bytes,
    nonce: int = 0,
    endowment: int = 0,
    gas_limit: int = 10_000,
    gas_price: int = 0,
    access: Optional[AccessDecl] = None,
) -> Transaction:
    body = Deploy(
        code=code,
        endowment=endowment,
        payer=address_of_pubkey(kp.pubkey),
        gas_limit=gas_limit,
        gas_price=gas_price,
        access=access,
    )
    return account_signed(Transaction(body, nonce=nonce), kp)


def make_call(
    kp: crypto.KeyPair,
    contract: bytes,
    nonce: int = 0,
    arg: int = 0,
    attached: int = 0,
    gas_limit: int = 10_000,
    gas_price: int = 0,
    access: Optional[AccessDecl] = None,
    address_consts: Sequence[bytes] = (),
) -> Transaction:
    body = Call(
        contract=contract,
        arg=arg,
        attached=attached,
        caller=address_of_pubkey(kp.pubkey),
        gas_limit=gas_limit,
        gas_price=gas_price,
        access=access,
        address_consts=tuple(address_consts),
    )
    return account_signed(Transaction(body, nonce=nonce), kp)


def make_move_to_account(
    kp: crypto.KeyPair, inputs: Sequence[Outpoint], amount: int, to: Optional[bytes] = None
) -> Transaction:
    body = MoveToAccount(tuple(inputs), to if to is not None else address_of_pubkey(kp.pubkey), amount)
    tx = Transaction(body)
    tx_id = txid(tx)
    return tx.with_witnesses(
        tuple(
            (crypto.sign(kp.seed, crypto.utxo_signing_message(tx_id, i)),)
            for i in range(len(inputs))
        )
    )


def coinbase_to_account(state: ledger.LedgerState, batch_number: int, to: bytes) -> Transaction:
    """MoveToAccount of batch batch_number's whole coinbase to `to`, so a
    logged ledger funds accounts through batches that replay."""
    cb = ledger._coinbase_outpoint(batch_number)
    return make_move_to_account(OPERATOR, [cb], state.utxos[cb].amount, to=to)


def make_move_to_utxo(
    kp: crypto.KeyPair, amount: int, outputs: Sequence[Output], nonce: int = 0
) -> Transaction:
    body = MoveToUtxo(address_of_pubkey(kp.pubkey), amount, tuple(outputs))
    return account_signed(Transaction(body, nonce=nonce), kp)


# Counter contract: storage[0] += 1 per call. Hand-summed gas: PUSHI(1) +
# PUSHI(1) + SLOAD(5) + PUSHI(1) + ADD(1) + SSTORE(10) + HALT(1) = 20.
COUNTER_ASM = "PUSHI 0 PUSHI 0 SLOAD PUSHI 1 ADD SSTORE HALT"
COUNTER_GAS = 20

# Busy loop: ARG iterations of DUP NOT JUMPI PUSHI SUB JUMP (6 gas each),
# then DUP NOT JUMPI falls through on zero and HALTs.
BURN_ASM = "ARG loop: DUP NOT JUMPI end PUSHI 1 SUB JUMP loop end: HALT"


def counter_code() -> bytes:
    return vm.assemble(COUNTER_ASM)


def burn_code() -> bytes:
    return vm.assemble(BURN_ASM)


class RandomLedger:
    """Randomized mixed-level workload against a real ledger: plain spends,
    multisig and script locks, validity windows, moves in both directions,
    contract calls, output expiry, plus some deliberately invalid
    submissions (rejections are receipts, part of the workload)."""

    def __init__(
        self,
        seed: int,
        n_keys: int = 6,
        access_mode: str = rules.ACCESS_DYNAMIC,
        logdir=None,
    ) -> None:
        self.rng = random.Random(seed)
        # The operator participates too, so coinbase and fee income
        # recirculate instead of stranding.
        self.keys = KEYS[:n_keys]
        self.cfg = make_config(
            expiry_enabled=True,
            access_mode=access_mode,
            initial_subsidy=1000,
            halving_interval=8,
        )
        self.state = ledger.LedgerState()
        self.logdir = logdir
        if logdir is not None:
            ledger.init_log(logdir, self.cfg)
        self.msig_coins: list[tuple[Outpoint, int, list[int]]] = []
        self.script_coins: list[tuple[Outpoint, int]] = []  # (outpoint, key index)
        self.contract: Optional[bytes] = None
        self.txs_applied = 0

    # wallet views -----------------------------------------------------------

    def coins_of(self, ki: int) -> list[tuple[Outpoint, Output]]:
        pk = self.keys[ki].pubkey
        return sorted(
            (
                (op, out)
                for op, out in self.state.utxos.items()
                if out.lock.kind == 0 and out.lock.pubkey == pk
            ),
            key=lambda c: c[0].serialize(),
        )

    def _script_lock_for(self, ki: int) -> Lock:
        return Lock.pay_to_script(
            assemble_script(f"PUSH({self.keys[ki].pubkey.hex()}) CHECKSIG")
        )

    # batch construction -------------------------------------------------------

    def _random_outputs(self, total: int, payer_ki: int) -> tuple[list[Output], Optional[tuple]]:
        """Split total into 1-2 outputs minus a small fee; occasionally a
        multisig or script or expiring output. Returns (outputs, note) where
        note records a special coin to track."""
        rng = self.rng
        fee = rng.randint(0, min(2, total - 1))
        rest = total - fee
        note = None
        outs: list[Output] = []
        roll = rng.random()
        to_ki = rng.randrange(len(self.keys))
        if roll < 0.08 and rest >= 2:
            m = rng.choice([1, 2])
            ka, kb = rng.sample(range(len(self.keys)), 2)
            outs.append(Output(rest, Lock.multisig(m, [self.keys[ka].pubkey, self.keys[kb].pubkey])))
            note = ("msig", m, [ka, kb])
        elif roll < 0.16:
            outs.append(Output(rest, self._script_lock_for(to_ki)))
            note = ("script", to_ki)
        else:
            expiry = self.state.epoch + rng.randint(2, 6) if rng.random() < 0.15 else None
            if rest >= 4 and rng.random() < 0.8:
                a = rng.randint(1, rest - 1)
                outs.append(Output(a, Lock.pay_to_pubkey(self.keys[to_ki].pubkey), expiry))
                outs.append(p2pk(self.keys[payer_ki], rest - a))
            else:
                outs.append(Output(rest, Lock.pay_to_pubkey(self.keys[to_ki].pubkey), expiry))
        return outs, note

    def build_batch(self, size: int) -> list[Transaction]:
        rng = self.rng
        txs: list[Transaction] = []
        spent: set[Outpoint] = set()
        wallets = {ki: self.coins_of(ki) for ki in range(len(self.keys))}
        nonces = dict(self.state.accounts.nonces)
        epoch = self.state.epoch + 1

        def take_coin(ki: int) -> Optional[tuple[Outpoint, Output]]:
            avail = [c for c in wallets[ki] if c[0] not in spent]
            if not avail:
                return None
            c = rng.choice(avail)
            spent.add(c[0])
            return c

        attempts = 0
        while len(txs) < size and attempts < size * 5:
            attempts += 1
            roll = rng.random()
            ki = rng.randrange(len(self.keys))
            kp = self.keys[ki]
            addr = address_of_pubkey(kp.pubkey)
            if roll < 0.55:
                coin = take_coin(ki)
                if coin is None:
                    continue
                op, out = coin
                outs, note = self._random_outputs(out.amount, ki)
                nb = epoch + rng.randint(1, 3) if rng.random() < 0.06 else None
                na = epoch + rng.randint(0, 4) if nb is None and rng.random() < 0.1 else None
                tx = signed_spend(kp, [op], outs, not_before=nb, not_after=na)
                if note is not None and nb is None:
                    tid = txid(tx)
                    self_note = (Outpoint(tid, 0),) + note[1:]
                    if note[0] == "msig":
                        self.msig_coins.append(self_note)  # type: ignore[arg-type]
                    else:
                        self.script_coins.append(self_note)  # type: ignore[arg-type]
                txs.append(tx)
            elif roll < 0.65 and self.msig_coins:
                op, m, kis = self.msig_coins.pop(rng.randrange(len(self.msig_coins)))
                if op in spent or op not in self.state.utxos:
                    continue
                spent.add(op)
                amount = self.state.utxos[op].amount
                tx = Transaction(UtxoSpend((op,), (p2pk(self.keys[kis[0]], amount),)))
                tid = txid(tx)
                msg = crypto.utxo_signing_message(tid, 0)
                sigs = tuple(crypto.sign(self.keys[k].seed, msg) for k in kis[:m])
                txs.append(tx.with_witnesses((sigs,)))
            elif roll < 0.72 and self.script_coins:
                op, owner = self.script_coins.pop(rng.randrange(len(self.script_coins)))
                if op in spent or op not in self.state.utxos:
                    continue
                spent.add(op)
                amount = self.state.utxos[op].amount
                tx = Transaction(UtxoSpend((op,), (p2pk(self.keys[owner], amount),)))
                tid = txid(tx)
                sig = crypto.sign(self.keys[owner].seed, crypto.utxo_signing_message(tid, 0))
                txs.append(tx.with_witnesses(((sig,),)))
            elif roll < 0.82:
                coin = take_coin(ki)
                if coin is None:
                    continue
                op, out = coin
                txs.append(make_move_to_account(kp, [op], out.amount))
            elif roll < 0.88:
                bal = self.state.accounts.balance(addr)
                if bal < 2:
                    continue
                amount = rng.randint(1, bal)
                n = nonces.get(addr, 0)
                nonces[addr] = n + 1
                txs.append(
                    make_move_to_utxo(kp, amount, [p2pk(kp, amount - rng.randint(0, min(1, amount - 1)))], nonce=n)
                )
            elif roll < 0.96 and self.contract is not None:
                bal = self.state.accounts.balance(addr)
                if bal < 30:
                    continue
                n = nonces.get(addr, 0)
                nonces[addr] = n + 1
                access = None
                if self.cfg.access_mode == rules.ACCESS_DECLARED:
                    access = AccessDecl(
                        storage_read=frozenset({(self.contract, 0)}),
                        storage_written=frozenset({(self.contract, 0)}),
                    )
                txs.append(
                    make_call(kp, self.contract, nonce=n, gas_limit=25, gas_price=1, access=access)
                )
            else:
                # Deliberately broken: wrong key signs someone else's coin.
                other = (ki + 1) % len(self.keys)
                coin = take_coin(other)
                if coin is None:
                    continue
                op, out = coin
                txs.append(signed_spend(kp, [op], [p2pk(kp, out.amount)]))
        return txs

    def _apply(self, txs: list[Transaction], epoch: int) -> list[ledger.Receipt]:
        """Apply and log one batch, then check it against the oracles."""
        receipts, header = ledger.apply_batch(self.state, txs, epoch, self.cfg, workers=1)
        check_conservation(self.state)
        if self.logdir is not None:
            ledger.write_batch_files(self.logdir, header.batch_number, epoch, txs, header, receipts)
        return receipts

    def run_batch(self, size: int = 40) -> list[ledger.Receipt]:
        epoch = self.state.epoch + 1
        txs = self.build_batch(size)
        receipts = self._apply(txs, epoch)
        self.txs_applied += len(txs)
        return receipts

    def bootstrap(self) -> None:
        """First batches: coinbase to the operator, fan out coins to every
        key, seed account balances, deploy the counter contract."""
        self._apply([], 1)
        cb = next(iter(self.state.utxos))
        total = self.state.utxos[cb].amount
        per_key = 5
        share = total // (per_key * len(self.keys))
        outs = []
        for kp in self.keys:
            outs.extend(p2pk(kp, share) for _ in range(per_key))
        outs.append(p2pk(OPERATOR, total - per_key * share * len(self.keys)))
        fanout = signed_spend(OPERATOR, [cb], outs)
        deployer = self.keys[0]
        access = AccessDecl(
            storage_read=frozenset({(b"\x00" * 32, 0)}),
            storage_written=frozenset({(b"\x00" * 32, 0)}),
        )
        self._apply([fanout], 2)
        # Move one coin each into accounts, then deploy.
        txs = [make_move_to_account(kp, [self.coins_of(i)[0][0]], self.coins_of(i)[0][1].amount)
               for i, kp in enumerate(self.keys)]
        dep = make_deploy(deployer, counter_code(), nonce=0, gas_limit=31, gas_price=1, access=access)
        self.contract = txid(dep)
        txs.append(dep)
        receipts = self._apply(txs, 3)
        assert receipts[-1].status == 0, receipts[-1]
        self.txs_applied += len(txs) + 1


# ---------------------------------------------------------------------------
# Random script corpus (differential and fuzz testing)

_SCRIPT_MSG = sha256(b"script-differential-msg")
_SCRIPT_KEYS = KEYS[:3]
_SCRIPT_SIGS = [crypto.sign(kp.seed, _SCRIPT_MSG) for kp in _SCRIPT_KEYS]

_PLAIN_OPS = [0x00, 0x51, 0x69, 0x75, 0x76, 0x7C, 0x87, 0x88, 0xA8, 0xAC, 0xAD, 0xAE, 0xB1, 0xC0]


def random_branch_free_script(rng: random.Random):
    """(code, witness, ctx_kwargs): a random script with no conditionals,
    seasoned with real keys/signatures so CHECKSIG paths both pass and fail."""
    from tierledger import script as script_mod

    code = bytearray()
    for _ in range(rng.randint(0, 14)):
        roll = rng.random()
        if roll < 0.35:
            data = rng.randbytes(rng.randint(1, 9))
            if rng.random() < 0.3:
                data = rng.randrange(1, 4).to_bytes(1, "little")
            code.append(len(data))
            code.extend(data)
        elif roll < 0.45:
            kp = rng.choice(_SCRIPT_KEYS)
            code.append(32)
            code.extend(kp.pubkey)
        elif roll < 0.5:
            code.append(8)
            code.extend(rng.randrange(0, 6).to_bytes(8, "little"))
        else:
            code.append(rng.choice(_PLAIN_OPS))
    if rng.random() < 0.2:
        code.append(0x51)  # nudge some scripts toward success
    witness: list[bytes] = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.4:
            witness.append(rng.choice(_SCRIPT_SIGS))
        else:
            witness.append(rng.randbytes(rng.randint(0, 12)))
    ctx = dict(
        signing_message=_SCRIPT_MSG,
        not_before=rng.choice([None, 0, 3, 10]),
        spend_script_hashes=tuple(rng.randbytes(32) for _ in range(rng.randint(0, 2))),
        covenants_enabled=rng.random() < 0.8,
    )
    return bytes(code), tuple(witness), ctx


def random_adversarial_program(rng: random.Random):
    """(code, witness): inputs built to stress limits: raw byte noise,
    deep stacks, oversize programs, truncated pushes, unbalanced branches."""
    roll = rng.random()
    if roll < 0.3:
        code = rng.randbytes(rng.randint(1, 400))
    elif roll < 0.45:
        code = bytes([0x51]) * rng.randint(200, 2000)  # stack growth
    elif roll < 0.6:
        code = bytes([0x51, 0x76]) + bytes([0x76]) * rng.randint(200, 600)  # DUP storm
    elif roll < 0.7:
        code = rng.randbytes(rng.randint(2000, 20_000))  # step-limit territory
    elif roll < 0.8:
        code = bytes([75]) + rng.randbytes(rng.randint(0, 40))  # truncated push
    elif roll < 0.9:
        body = [rng.choice([0x63, 0x67, 0x68, 0x51, 0x00, 0x69]) for _ in range(rng.randint(1, 60))]
        code = bytes(body)  # branch nesting chaos
    else:
        code = bytes([0xAE]) + rng.randbytes(rng.randint(0, 30))  # multisig popper
    witness = tuple(rng.randbytes(rng.randint(0, 300)) for _ in range(rng.randint(0, 40)))
    return code, witness


def apply_watching_the_fee_credit(
    state: ledger.LedgerState, txs: Sequence[Transaction], epoch: int, cfg: rules.SystemConfig
) -> tuple[list[ledger.Receipt], Counter, Counter]:
    """apply_batch on one worker, with the state's entries before the batch
    and just before its batch-end fee credit, which must come once and move
    the operator's balance entry by the batch's fees alone."""
    before, credits = state_entries(state), []
    real = ledger.LedgerState.credit_fees

    def credit(crediting: ledger.LedgerState, operator: bytes) -> None:
        credits.append((state_entries(crediting), crediting.accounts.fees, crediting.accounts.balance(operator)))
        real(crediting, operator)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ledger.LedgerState, "credit_fees", credit)
        receipts, _ = ledger.apply_batch(state, txs, epoch, cfg, workers=1)
    ((unsettled, fees, old),) = credits
    entry = lambda bal: Counter([vm.balance_entry(cfg.operator_address, bal)] if bal else [])
    assert state_entries(state) == unsettled - entry(old) + entry(old + fees)
    return receipts, before, unsettled


def check_conservation(state: ledger.LedgerState) -> None:
    """Recompute every counter, the state digest and the expiry index from
    scratch; trusting the incremental bookkeeping would make the invariant
    circular."""
    utxo_total = 0
    expiring: dict[int, set[Outpoint]] = {}
    for op, out in state.utxos.items():
        utxo_total += out.amount
        if out.expiry is not None:
            expiring.setdefault(out.expiry, set()).add(op)
    account_total = sum(state.accounts.balances.values())
    assert state.utxo_total == utxo_total
    assert state.issued == utxo_total + account_total + state.expired, (
        state.issued,
        utxo_total,
        account_total,
        state.expired,
    )
    assert ledger.state_digest(state) == recompute_state_digest(state)
    # Every output with an expiry under its epoch, nothing else, and no
    # empty sets (the rebuilt index has none).
    assert dict(state.expiring) == expiring
