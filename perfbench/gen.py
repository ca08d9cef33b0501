"""Workload generators for the ledger benchmark.

A generator builds a whole workload from a seed: the set-up batches that
create the starting state through real transactions (coinbase, then
fan-out, then account funding and deploys), and the timed batches. It keeps
its own model of every wallet it creates, so it knows by construction the
receipt each transaction must get: status, gas and level. Transactions
leave the generator as canonical JSON strings, the form in which an
operator receives them.

Nothing here reads or writes ledger state. The only value taken from the
ledger is the outpoint of the first coinbase, which the operator learns
from its own state after the first batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from tierledger import codes, crypto, rules, utxo, vm
from tierledger.model import (
    AccessDecl,
    LOCK_SCRIPT,
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
    tx_to_json_str,
    txid,
)
from tierledger.script import assemble as assemble_script
from tierledger.script.opcodes import R_VERIFY_FAILED

SUBSIDY = 10**15
FANOUT_TXS = 10
GAS_PRICE = 1
EXPIRING_SHARE = 0.05  # payments whose output expires 1-3 epochs later, unspent

# Counter contract: storage[0] += 1. Hand-summed gas: PUSHI(1) + PUSHI(1)
# + SLOAD(5) + PUSHI(1) + ADD(1) + SSTORE(10) + HALT(1) = 20.
COUNTER_ASM = "PUSHI 0 PUSHI 0 SLOAD PUSHI 1 ADD SSTORE HALT"
COUNTER_GAS = 20
# Busy loop of ARG iterations. Hand-summed gas: ARG(1), then 6 per
# iteration (DUP NOT JUMPI PUSHI SUB JUMP), then DUP NOT JUMPI HALT (4).
BURN_ASM = "ARG loop: DUP NOT JUMPI end PUSHI 1 SUB JUMP loop end: HALT"


def burn_gas(iterations: int) -> int:
    return 6 * iterations + 5


ZERO = b"\x00" * 32
SELF_SLOT0 = AccessDecl(
    storage_read=frozenset({(ZERO, 0)}), storage_written=frozenset({(ZERO, 0)})
)


@dataclass(frozen=True)
class Expect:
    status: int
    gas: int
    level: Level


OK_L1 = Expect(codes.OK, 0, Level.L1)
OK_L15 = Expect(codes.OK, 0, Level.L1_5)
OK_L2 = Expect(codes.OK, 0, Level.L2)
OK_L3 = Expect(codes.OK, 0, Level.L3)


@dataclass
class Batch:
    epoch: int
    txs: list[str] = field(default_factory=list)  # canonical JSON
    expect: list[Expect] = field(default_factory=list)  # drained entries first


@dataclass
class _Pending:
    tx: Transaction
    tx_id: bytes
    fee: int
    owner: int
    amount: int


class _Gen:
    """Wallet model shared by the workloads: P2PK coins per key, 2-of-3
    multisig coins, script coins, account balances and nonces. Coins
    created in a batch become spendable from the next batch on."""

    def __init__(self, name: str, seed: str, n_users: int, **cfg_kw) -> None:
        self.rng = random.Random(f"{name}/{seed}")
        key = lambda i: crypto.keygen(sha256(f"perfbench/{name}/{seed}/{i}".encode()))
        self.op = key("operator")
        self.users = [key(i) for i in range(n_users)]
        self.addrs = [address_of_pubkey(k.pubkey) for k in self.users]
        self.cfg = rules.SystemConfig(
            operator_pubkey=self.op.pubkey,
            initial_subsidy=SUBSIDY,
            halving_interval=10**6,
            **cfg_kw,
        )
        self.p2pk: list[list[tuple[Outpoint, int]]] = [[] for _ in self.users]
        self.msig: list[tuple[Outpoint, int, tuple[int, int, int]]] = []
        self.scripts: list[tuple[Outpoint, int, tuple]] = []
        self.incoming: list[Callable[[], None]] = []
        self.balance: dict[int, int] = {}
        self.nonce: dict[int, int] = {}
        self.pending: dict[Outpoint, _Pending] = {}
        self.batch = Batch(0)
        self.spent_p2pk: list[tuple[Outpoint, int, int]] = []

    # batch bookkeeping -------------------------------------------------------

    def begin(self, epoch: int) -> None:
        self.batch = Batch(epoch)
        self.spent_p2pk = []

    def end(self) -> Batch:
        for register in self.incoming:
            register()
        self.incoming = []
        return self.batch

    def emit(self, tx: Transaction, expect: Expect) -> None:
        self.batch.txs.append(tx_to_json_str(tx))
        self.batch.expect.append(expect)

    # coins -------------------------------------------------------------------

    def take_p2pk(self, k: int, in_batch: bool = True) -> tuple[Outpoint, int]:
        """Remove one of k's coins from the wallet. in_batch: a transaction
        of this batch spends it (so a later one can double-spend it)."""
        op, amount = self.take_from(self.p2pk[k])
        if in_batch:
            self.spent_p2pk.append((op, k, amount))
        return op, amount

    def user_with_coins(self, n: int = 1) -> Optional[int]:
        for _ in range(20):
            k = self.rng.randrange(len(self.users))
            if len(self.p2pk[k]) >= n:
                return k
        return None

    def take_from(self, pool: list) -> tuple:
        i = self.rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        return pool.pop()

    def register_outputs(self, tx_id: bytes, outputs: list[tuple[Output, Optional[tuple]]]) -> None:
        """Record created coins; a None note marks a coin nobody spends
        (expiring, or paid to the operator)."""

        def register() -> None:
            for j, (out, note) in enumerate(outputs):
                if note is None:
                    continue
                op = Outpoint(tx_id, j)
                if note[0] == "p2pk":
                    self.p2pk[note[1]].append((op, out.amount))
                elif note[0] == "msig":
                    self.msig.append((op, out.amount, note[1]))
                else:
                    self.scripts.append((op, out.amount, note))

        self.incoming.append(register)

    def p2pk_out(self, k: int, amount: int) -> tuple[Output, tuple]:
        return Output(amount, Lock.pay_to_pubkey(self.users[k].pubkey)), ("p2pk", k)

    def msig_out(self, amount: int) -> tuple[Output, tuple]:
        trio = tuple(sorted(self.rng.sample(range(len(self.users)), 3)))
        lock = Lock.multisig(2, [self.users[i].pubkey for i in trio])
        return Output(amount, lock), ("msig", trio)

    # signing -----------------------------------------------------------------

    def spend(
        self,
        inputs: list[Outpoint],
        outputs: list[tuple[Output, Optional[tuple]]],
        signers: list[list[crypto.KeyPair]],
        extra: Optional[list[tuple[bytes, ...]]] = None,
        not_before: Optional[int] = None,
        not_after: Optional[int] = None,
        register: bool = True,
    ) -> tuple[Transaction, bytes]:
        """Signed UtxoSpend; witness i is the signatures of signers[i]
        followed by extra[i]."""
        tx = Transaction(
            UtxoSpend(tuple(inputs), tuple(o for o, _ in outputs)),
            not_before=not_before,
            not_after=not_after,
        )
        tx_id = txid(tx)
        witnesses = []
        for i, keys in enumerate(signers):
            msg = crypto.utxo_signing_message(tx_id, i)
            wit = tuple(kp.sign(msg) for kp in keys)
            witnesses.append(wit + (extra[i] if extra else ()))
        if register:
            self.register_outputs(tx_id, outputs)
        return tx.with_witnesses(witnesses), tx_id

    def account_signed(self, tx: Transaction, kp: crypto.KeyPair) -> Transaction:
        tx_id = txid(tx)
        return tx.with_auth(kp.pubkey, kp.sign(crypto.account_signing_message(tx_id)))

    def next_nonce(self, k: int) -> int:
        n = self.nonce.get(k, 0)
        self.nonce[k] = n + 1
        return n

    # transaction kinds ---------------------------------------------------------

    def pay(self, epoch: int, script_share: float = 0.0) -> bool:
        """P2PK payment: one coin split into payment and change, or two
        coins merged. The payment output is sometimes expiring (never
        spent), or a script lock (L2)."""
        rng = self.rng
        merge = rng.random() < 0.5  # splits and merges balance: the set stays its size
        k = self.user_with_coins(2 if merge else 1)
        if k is None:
            return False
        to = rng.randrange(len(self.users))
        if merge:
            (op1, a1), (op2, a2) = self.take_p2pk(k), self.take_p2pk(k)
            tx, _ = self.spend(
                [op1, op2], [self.p2pk_out(to, a1 + a2 - 1)], [[self.users[k]], [self.users[k]]]
            )
            self.emit(tx, OK_L1)
            return True
        op, amount = self.take_p2pk(k)
        if amount < 4:
            tx, _ = self.spend([op], [self.p2pk_out(to, amount)], [[self.users[k]]])
            self.emit(tx, OK_L1)
            return True
        paid = amount // 3
        level = Level.L1
        roll = rng.random()
        if roll < script_share:
            pay_out = self.script_out(to, paid, epoch)
            level = Level.L2
        elif roll < script_share + EXPIRING_SHARE:
            pubkey = self.users[to].pubkey
            pay_out = (Output(paid, Lock.pay_to_pubkey(pubkey), epoch + rng.randint(1, 3)), None)
        else:
            pay_out = self.p2pk_out(to, paid)
        outs = [pay_out, self.p2pk_out(k, amount - paid - 1)]
        tx, _ = self.spend([op], outs, [[self.users[k]]])
        self.emit(tx, Expect(codes.OK, 0, level))
        return True

    def multisig_spend(self) -> bool:
        """2-of-3 spend into a fresh 2-of-3 lock. Two of the three keys sign,
        in lock order; when the first key does not sign, the greedy check
        spends one failed verify on it."""
        if not self.msig:
            return False
        op, amount, trio = self.take_from(self.msig)
        signers = sorted(self.rng.sample(trio, 2))
        tx, _ = self.spend([op], [self.msig_out(amount - 1)], [[self.users[i] for i in signers]])
        self.emit(tx, OK_L1)
        return True

    def script_out(self, owner: int, amount: int, epoch: int) -> tuple[Output, tuple]:
        """A script-locked coin of one of three kinds: hash lock with
        CHECKSIG, a two-branch timelock, or a covenant with CHECKSIG."""
        rng = self.rng
        pk = self.users[owner].pubkey.hex()
        kind = rng.choice(("hashlock", "timelock", "covenant"))
        if kind == "hashlock":
            preimage = rng.randbytes(16)
            text = f"SHA256 PUSH({sha256(preimage).hex()}) EQUALVERIFY PUSH({pk}) CHECKSIG"
            note = ("hashlock", owner, preimage)
        elif kind == "timelock":
            late = rng.randrange(len(self.users))
            t = epoch.to_bytes(8, "little").hex()
            text = (
                f"IF PUSH({pk}) CHECKSIG ELSE PUSH({t}) CHECKLOCKTIME "
                f"PUSH({self.users[late].pubkey.hex()}) CHECKSIG ENDIF"
            )
            note = ("timelock", owner, late, epoch)
        else:
            dest = rng.randrange(len(self.users))
            allowed = sha256(Lock.pay_to_pubkey(self.users[dest].pubkey).serialize())
            text = f"PUSH({allowed.hex()}) PUSH(01) COVENANT PUSH({pk}) CHECKSIG"
            note = ("covenant", owner, dest)
        return Output(amount, Lock.pay_to_script(assemble_script(text))), note

    def script_spend(self) -> bool:
        if not self.scripts:
            return False
        op, amount, note = self.take_from(self.scripts)
        kind, owner = note[0], note[1]
        if kind == "hashlock":
            tx, _ = self.spend(
                [op], [self.p2pk_out(owner, amount)], [[self.users[owner]]], extra=[(note[2],)]
            )
        elif kind == "timelock":
            _, owner, late, t = note
            if self.rng.random() < 0.5:
                tx, _ = self.spend(
                    [op], [self.p2pk_out(owner, amount)], [[self.users[owner]]], extra=[(b"\x01",)]
                )
            else:
                # ELSE branch: CHECKLOCKTIME needs not_before >= t, and
                # t <= the current epoch keeps the spend out of the pool.
                tx, _ = self.spend(
                    [op], [self.p2pk_out(late, amount)], [[self.users[late]]],
                    extra=[(b"",)], not_before=t,
                )
        else:
            _, owner, dest = note
            tx, _ = self.spend([op], [self.p2pk_out(dest, amount)], [[self.users[owner]]])
        self.emit(tx, OK_L2)
        return True

    def window_spend(self, epoch: int) -> bool:
        """L1.5: a payment valid only up to a near epoch; runs at once."""
        k = self.user_with_coins()
        if k is None:
            return False
        op, amount = self.take_p2pk(k)
        to = self.rng.randrange(len(self.users))
        tx, _ = self.spend(
            [op], [self.p2pk_out(to, amount)], [[self.users[k]]],
            not_after=epoch + self.rng.randint(0, 3),
        )
        self.emit(tx, OK_L15)
        return True

    def pending_submit(self, epoch: int) -> bool:
        """L1.5 time-locked spend that waits in the pending pool for two
        epochs; half are fee-replaced, and some replacements are attempted
        with a fee too low to win."""
        k = self.user_with_coins()
        if k is None:
            return False
        op, amount = self.take_p2pk(k, in_batch=False)  # reserved until it matures
        if amount < 4:
            self.p2pk[k].append((op, amount))
            return False
        nb = epoch + 2
        fees = [1]
        if self.rng.random() < 0.5:
            fees.append(3)
            if self.rng.random() < 0.5:
                fees.append(2)
        best: Optional[_Pending] = None
        for fee in fees:
            outs = [self.p2pk_out(k, amount - fee)]
            tx, tx_id = self.spend([op], outs, [[self.users[k]]], not_before=nb, register=False)
            if best is None:
                status = utxo.PENDING_ACCEPTED
            elif fee > best.fee:
                status = utxo.PENDING_REPLACED
            else:
                status = utxo.REJECTED_LOWER_FEE
            self.emit(tx, Expect(status, 0, Level.L1_5))
            if best is None or fee > best.fee:
                best = _Pending(tx, tx_id, fee, k, amount - fee)
        assert best is not None
        self.pending[op] = best
        return True

    def drain_pending(self, epoch: int) -> None:
        """Pool entries mature at this epoch run first, fee-descending then
        txid-ascending, and succeed."""
        mature = [
            (op, e) for op, e in self.pending.items() if e.tx.not_before <= epoch
        ]
        for op, e in sorted(mature, key=lambda m: (-m[1].fee, m[1].tx_id)):
            del self.pending[op]
            self.batch.expect.append(OK_L15)
            self.register_outputs(e.tx_id, [self.p2pk_out(e.owner, e.amount)])

    def move_to_account(self) -> bool:
        k = self.user_with_coins()
        if k is None:
            return False
        op, amount = self.take_p2pk(k)
        fee = 1 if amount > 1 and self.rng.random() < 0.5 else 0
        tx = Transaction(MoveToAccount((op,), self.addrs[k], amount - fee))
        signed, _ = self.sign_plain(tx, [self.users[k]])
        self.balance[k] = self.balance.get(k, 0) + amount - fee
        self.emit(signed, OK_L3)
        return True

    def sign_plain(self, tx: Transaction, signers: list[crypto.KeyPair]) -> tuple[Transaction, bytes]:
        tx_id = txid(tx)
        wits = [(kp.sign(crypto.utxo_signing_message(tx_id, i)),) for i, kp in enumerate(signers)]
        return tx.with_witnesses(wits), tx_id

    def move_to_utxo(self) -> bool:
        k = self.rng.randrange(len(self.users))
        bal = self.balance.get(k, 0)
        if bal < 100:
            return False
        amount = self.rng.randint(2, bal // 4)
        fee = self.rng.randint(0, 1)
        out, note = self.p2pk_out(k, amount - fee)
        body = MoveToUtxo(self.addrs[k], amount, (out,))
        tx = self.account_signed(Transaction(body, nonce=self.next_nonce(k)), self.users[k])
        self.register_outputs(txid(tx), [(out, note)])
        self.balance[k] = bal - amount
        self.emit(tx, OK_L3)
        return True

    def call(
        self, k: int, contract: bytes, arg: int, gas: int, access: Optional[AccessDecl]
    ) -> None:
        """Contract call that commits using exactly `gas`, paying gas at
        GAS_PRICE from the caller's account."""
        body = Call(contract, arg, 0, self.addrs[k], gas, GAS_PRICE, access)
        tx = self.account_signed(Transaction(body, nonce=self.next_nonce(k)), self.users[k])
        self.balance[k] -= gas * GAS_PRICE
        self.emit(tx, Expect(codes.OK, gas, Level.L3))

    def deploy(self, k: int, code: bytes, access: Optional[AccessDecl]) -> bytes:
        gas = vm.deploy_gas(code)
        body = Deploy(code, 0, self.addrs[k], gas, GAS_PRICE, access)
        tx = self.account_signed(Transaction(body, nonce=self.next_nonce(k)), self.users[k])
        self.balance[k] -= gas * GAS_PRICE
        self.emit(tx, Expect(codes.OK, gas, Level.L3))
        return txid(tx)

    # deliberately invalid ------------------------------------------------------

    def wrong_signer(self) -> bool:
        k = self.user_with_coins()
        if k is None:
            return False
        op, amount = self.rng.choice(self.p2pk[k])
        thief = (k + 1) % len(self.users)
        tx, _ = self.spend([op], [self.p2pk_out(thief, amount)], [[self.users[thief]]], register=False)
        self.emit(tx, Expect(utxo.LOCK_FAILED, 0, Level.L1))
        return True

    def double_spend(self) -> bool:
        if not self.spent_p2pk:
            return False
        op, k, amount = self.rng.choice(self.spent_p2pk)
        tx, _ = self.spend([op], [self.p2pk_out(k, amount)], [[self.users[k]]], register=False)
        self.emit(tx, Expect(utxo.DOUBLE_SPEND_IN_BATCH, 0, Level.L1))
        return True

    def bad_preimage(self) -> bool:
        hashlocks = [s for s in self.scripts if s[2][0] == "hashlock"]
        if not hashlocks:
            return False
        op, amount, note = self.rng.choice(hashlocks)
        owner = note[1]
        tx, _ = self.spend(
            [op], [self.p2pk_out(owner, amount)], [[self.users[owner]]],
            extra=[(self.rng.randbytes(16),)], register=False,
        )
        self.emit(tx, Expect(utxo.SCRIPT_FAILURE_BASE + R_VERIFY_FAILED, 0, Level.L2))
        return True

    # set-up ------------------------------------------------------------------

    def fanout(
        self, coinbase: Outpoint, epoch: int, outputs: list[tuple[Output, Optional[tuple]]]
    ) -> tuple[list[Batch], list[Outpoint]]:
        """Two batches: the operator splits the coinbase into FANOUT_TXS
        coins, then each of those pays an equal slice of `outputs`. Returns
        the batches and the outpoints of `outputs`, in order."""
        per_tx = -(-len(outputs) // FANOUT_TXS)
        slices = [outputs[i : i + per_tx] for i in range(0, len(outputs), per_tx)]
        share = rules.subsidy(1, self.cfg) // len(slices)
        op_lock = Lock.pay_to_pubkey(self.op.pubkey)
        self.begin(epoch)
        split = [(Output(share, op_lock), None) for _ in slices]
        tx, split_id = self.spend([coinbase], split, [[self.op]], register=False)
        self.emit(tx, OK_L1)
        batches = [self.end()]
        self.begin(epoch + 1)
        created = []
        for j, outs in enumerate(slices):
            level = Level.L2 if any(o.lock.kind == LOCK_SCRIPT for o, _ in outs) else Level.L1
            tx, tx_id = self.spend([Outpoint(split_id, j)], outs, [[self.op]])
            self.emit(tx, Expect(codes.OK, 0, level))
            created += [Outpoint(tx_id, i) for i in range(len(outs))]
        batches.append(self.end())
        return batches, created

    def coin_amount(self, n_coins: int) -> int:
        return rules.subsidy(1, self.cfg) // FANOUT_TXS // -(-n_coins // FANOUT_TXS) - 1


# ---------------------------------------------------------------------------
# Workloads


def _pay_10k(g: _Gen, coinbase: Outpoint, n_batches: int) -> tuple[list[Batch], list[Batch]]:
    amount = g.coin_amount(PAY_USERS * PAY_COINS_PER_USER + PAY_MSIG_COINS)
    outs = [g.p2pk_out(k, amount) for k in range(PAY_USERS) for _ in range(PAY_COINS_PER_USER)]
    outs += [g.msig_out(amount) for _ in range(PAY_MSIG_COINS)]
    g.rng.shuffle(outs)
    setup, _ = g.fanout(coinbase, 2, outs)
    timed = []
    for epoch in range(4, 4 + n_batches):
        g.begin(epoch)
        while len(g.batch.txs) < PAY_BATCH_TXS:
            if g.rng.random() < 0.10 and g.multisig_spend():
                continue
            g.pay(epoch)
        timed.append(g.end())
    return setup, timed


def _contracts_declared(
    g: _Gen, coinbase: Outpoint, n_batches: int
) -> tuple[list[Batch], list[Batch]]:
    amount = g.coin_amount(CD_CALLERS)
    op_lock = Lock.pay_to_pubkey(g.op.pubkey)
    setup, funds = g.fanout(coinbase, 2, [(Output(amount, op_lock), None)] * CD_CALLERS)
    g.begin(4)
    for k, op in enumerate(funds):
        tx, _ = g.sign_plain(Transaction(MoveToAccount((op,), g.addrs[k], amount)), [g.op])
        g.balance[k] = amount
        g.emit(tx, OK_L3)
    counters = [g.deploy(0, vm.assemble(COUNTER_ASM), SELF_SLOT0) for _ in range(CD_COUNTERS)]
    burners = [g.deploy(0, vm.assemble(BURN_ASM), AccessDecl()) for _ in range(CD_BURNERS)]
    setup.append(g.end())
    # Batch sizes spread evenly over CD_BATCH_CALLS in a seeded order, so
    # that every seed commits the same mix of sizes.
    lo, hi = CD_BATCH_CALLS
    sizes = [lo + (hi - lo) * i // max(1, n_batches - 1) for i in range(n_batches)]
    g.rng.shuffle(sizes)
    timed = []
    for epoch, size in zip(range(5, 5 + n_batches), sizes):
        g.begin(epoch)
        for _ in range(size):
            k = g.rng.randrange(CD_CALLERS)
            if g.rng.random() < CD_BURN_SHARE:
                g.call(k, g.rng.choice(burners), CD_BURN_ITERS, burn_gas(CD_BURN_ITERS), AccessDecl())
            else:
                slot = frozenset({(g.rng.choice(counters), 0)})
                contract = next(iter(slot))[0]
                g.call(k, contract, 0, COUNTER_GAS, AccessDecl(storage_read=slot, storage_written=slot))
        timed.append(g.end())
    return setup, timed


def _mixed(g: _Gen, coinbase: Outpoint, n_batches: int) -> tuple[list[Batch], list[Batch]]:
    n_coins = MIXED_USERS * MIXED_P2PK_PER_USER + MIXED_MSIG + MIXED_SCRIPTS
    amount = g.coin_amount(n_coins)
    outs = [g.p2pk_out(k, amount) for k in range(MIXED_USERS) for _ in range(MIXED_P2PK_PER_USER)]
    outs += [g.msig_out(amount) for _ in range(MIXED_MSIG)]
    outs += [g.script_out(g.rng.randrange(MIXED_USERS), amount, 1) for _ in range(MIXED_SCRIPTS)]
    g.rng.shuffle(outs)
    setup, _ = g.fanout(coinbase, 2, outs)
    g.begin(4)
    for k in range(MIXED_USERS):
        op, a = g.take_p2pk(k)
        tx, _ = g.sign_plain(Transaction(MoveToAccount((op,), g.addrs[k], a)), [g.users[k]])
        g.balance[k] = a
        g.emit(tx, OK_L3)
    counters = [g.deploy(0, vm.assemble(COUNTER_ASM), None) for _ in range(MIXED_COUNTERS)]
    setup.append(g.end())

    def call() -> bool:
        k = g.rng.randrange(MIXED_USERS)
        if g.balance.get(k, 0) < COUNTER_GAS * GAS_PRICE:
            return False
        g.call(k, g.rng.choice(counters), 0, COUNTER_GAS, None)
        return True

    def invalid() -> bool:
        return g.rng.choice((g.wrong_signer, g.double_spend, g.bad_preimage))()

    kinds: list[tuple[float, Callable[[int], bool]]] = [
        (0.30, lambda e: g.pay(e, script_share=0.2)),
        (0.07, lambda e: g.multisig_spend()),
        (0.05, g.window_spend),
        (0.06, g.pending_submit),
        (0.14, lambda e: g.script_spend()),
        (0.07, lambda e: g.move_to_account()),
        (0.07, lambda e: g.move_to_utxo()),
        (0.16, lambda e: call()),
        (0.03, lambda e: invalid()),
    ]
    timed = []
    for epoch in range(5, 5 + n_batches):
        g.begin(epoch)
        g.drain_pending(epoch)
        while len(g.batch.txs) < MIXED_BATCH_TXS:
            roll = g.rng.random()
            for weight, kind in kinds:
                roll -= weight
                if roll < 0:
                    break
            if not kind(epoch):
                g.pay(epoch)
        timed.append(g.end())
    return setup, timed


@dataclass(frozen=True)
class Workload:
    users: int
    config: dict
    build: Callable[[_Gen, Outpoint, int], tuple[list[Batch], list[Batch]]]
    # Nominal seconds per timed batch on the reference host (2 CPUs); a run
    # commits about seconds / batch_s batches, a fixed amount of work.
    batch_s: float


PAY_USERS = 1000
PAY_COINS_PER_USER = 9
PAY_MSIG_COINS = 1000
PAY_BATCH_TXS = 6

CD_CALLERS = 200
CD_COUNTERS = 4
CD_BURNERS = 16
CD_BURN_ITERS = 800
CD_BURN_SHARE = 0.2
CD_BATCH_CALLS = (100, 250)

MIXED_USERS = 64
MIXED_P2PK_PER_USER = 12
MIXED_MSIG = 100
MIXED_SCRIPTS = 180
MIXED_COUNTERS = 2
MIXED_BATCH_TXS = 90

WORKLOADS: dict[str, Workload] = {
    # L1 payments and ~10% 2-of-3 multisig spends over ~10k UTXOs owned by
    # 1,000 keys, expiry on.
    "pay-10k": Workload(PAY_USERS, {"expiry_enabled": True}, _pay_10k, 0.19),
    # Declared-access L3 calls on a tiny UTXO set: counter calls that
    # conflict on a shared slot, conflict-free gas-heavy burn calls.
    "contracts-declared": Workload(
        CD_CALLERS, {"access_mode": rules.ACCESS_DECLARED}, _contracts_declared, 0.2
    ),
    # Every level in one dynamic-mode ledger at ~1k UTXOs, expiry on, with
    # about 5% deliberately invalid transactions.
    "mixed": Workload(MIXED_USERS, {"expiry_enabled": True}, _mixed, 0.104),
}


def generator(name: str, seed: int, ledger: int) -> _Gen:
    """Generator for one of a run's independent ledgers."""
    w = WORKLOADS[name]
    return _Gen(name, f"{seed}/{ledger}", w.users, **w.config)


def timed_batches(name: str, seconds: float, ledgers: int) -> int:
    """Timed batches per ledger, so that `ledgers` ledgers together take
    about `seconds` of commit time on the reference host."""
    return max(1, round(seconds / WORKLOADS[name].batch_s / ledgers))


def plan(
    g: _Gen, name: str, coinbase: Outpoint, n_batches: int
) -> tuple[list[Batch], list[Batch]]:
    """Set-up batches (after the first, coinbase-only one) and the timed
    batches."""
    return WORKLOADS[name].build(g, coinbase, n_batches)
