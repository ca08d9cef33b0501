"""Script machine: assembler, opcode semantics, execution limits, and
random-bytecode robustness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KEYS
from tierledger import crypto, script
from tierledger.script import ScriptContext, ScriptSyntaxError, assemble, disassemble, execute
from tierledger.script.opcodes import (
    MAX_ELEMENT,
    MAX_STACK,
    MAX_STEPS,
    MAX_WITNESS_ITEMS,
    R_BAD_PUSH,
    R_EMPTY_SCRIPT,
    R_RETURN_HIT,
    R_STACK_LIMIT,
    R_STACK_UNDERFLOW,
    R_STEP_LIMIT,
    R_TYPE_ERROR,
    R_UNBALANCED_IF,
    R_VERIFY_FAILED,
)

CTX = ScriptContext()
KP = KEYS[2]


def run(text: str, witness=(), **ctx_kw) -> script.ScriptResult:
    return execute(assemble(text), witness, ScriptContext(**ctx_kw))


def test_assemble_disassemble_round_trip():
    text = "PUSH(aabb) DUP SHA256 SWAP DROP TRUE IF FALSE ELSE TRUE ENDIF VERIFY TRUE"
    code = assemble(text)
    assert disassemble(code) == text
    assert assemble(disassemble(code)) == code


def test_assemble_rejects_garbage():
    for bad in ("NOSUCH", "PUSH(zz)", "PUSH()", "ELSE", "ENDIF", "IF", "IF ELSE ELSE ENDIF"):
        with pytest.raises(ScriptSyntaxError):
            assemble(bad)
    with pytest.raises(ScriptSyntaxError):
        assemble("PUSH(aa) " * 600)  # over the byte limit
    with pytest.raises(ScriptSyntaxError):
        assemble("PUSH(00) COVENANT", covenants_enabled=False)


def test_truthiness_and_basic_stack_ops():
    assert run("TRUE").success
    assert run("FALSE").reason == R_VERIFY_FAILED
    assert run("PUSH(0000)").reason == R_VERIFY_FAILED  # all-zero is falsy
    assert run("PUSH(0100)").success
    assert run("TRUE FALSE DROP").success
    assert run("FALSE TRUE SWAP DROP").success
    assert run("TRUE DUP VERIFY").success
    assert run("DROP").reason == R_STACK_UNDERFLOW
    assert run("SWAP", witness=(b"\x01",)).reason == R_STACK_UNDERFLOW


def test_witness_seeds_stack_first_item_deepest():
    # Witness (a, b): b on top.
    res = run("DROP", witness=(b"", b"\x01"))
    assert res.reason == R_VERIFY_FAILED  # dropped top b, left falsy a
    assert run("SWAP DROP", witness=(b"", b"\x01")).success


def test_equal_and_equalverify():
    assert run("PUSH(ab) PUSH(ab) EQUAL").success
    assert run("PUSH(ab) PUSH(ac) EQUAL").reason == R_VERIFY_FAILED
    assert run("PUSH(ab) PUSH(ac) EQUALVERIFY TRUE").reason == R_VERIFY_FAILED
    assert run("PUSH(ab) PUSH(ab) EQUALVERIFY TRUE").success


def test_sha256_matches_hashlib():
    import hashlib

    digest = hashlib.sha256(b"\xab").hexdigest()
    assert run(f"PUSH(ab) SHA256 PUSH({digest}) EQUALVERIFY TRUE").success


def test_return_and_empty():
    assert run("TRUE RETURN").reason == R_RETURN_HIT
    assert execute(b"", (), CTX).reason == R_EMPTY_SCRIPT
    assert execute(bytes([75]), (), CTX).reason == R_BAD_PUSH


def test_if_else_endif():
    assert run("TRUE IF TRUE ELSE FALSE ENDIF").success
    assert run("FALSE IF TRUE ELSE FALSE ENDIF").reason == R_VERIFY_FAILED
    assert run("TRUE IF FALSE IF TRUE ENDIF TRUE ENDIF").success  # nested
    # The assembler rejects unbalanced branches; raw bytecode exercises the
    # interpreter's own guards.
    assert execute(bytes([0x51, 0x63, 0x51]), (), CTX).reason == R_UNBALANCED_IF
    assert execute(bytes([0x68, 0x51]), (), CTX).reason == R_UNBALANCED_IF
    assert execute(bytes([0x67]), (), CTX).reason == R_UNBALANCED_IF  # bare ELSE
    # Skipped branches still track nesting but execute nothing.
    assert run("FALSE IF DROP DROP DROP ENDIF TRUE").success


def test_checksig_paths():
    msg = b"\xcd" * 32
    sig = crypto.sign(KP.seed, msg)
    pk = KP.pubkey.hex()
    ok = execute(assemble(f"PUSH({pk}) CHECKSIG"), (sig,), ScriptContext(signing_message=msg))
    assert ok.success
    bad = execute(assemble(f"PUSH({pk}) CHECKSIG"), (b"\x00" * 64,), ScriptContext(signing_message=msg))
    assert bad.reason == R_VERIFY_FAILED  # CHECKSIG pushed falsy, end check fails
    verify = execute(
        assemble(f"PUSH({pk}) CHECKSIGVERIFY TRUE"), (sig,), ScriptContext(signing_message=msg)
    )
    assert verify.success


def test_checkmultisig_in_script():
    msg = b"\xee" * 32
    a, b = KEYS[3], KEYS[4]
    sa, sb = crypto.sign(a.seed, msg), crypto.sign(b.seed, msg)
    text = f"PUSH(02) PUSH({a.pubkey.hex()}) PUSH({b.pubkey.hex()}) PUSH(02) CHECKMULTISIG"
    ctx = ScriptContext(signing_message=msg)
    assert execute(assemble(text), (sa, sb), ctx).success
    assert execute(assemble(text), (sb, sa), ctx).reason == R_VERIFY_FAILED
    bad_n = "PUSH(00) CHECKMULTISIG"
    assert execute(assemble(bad_n), (), ctx).reason == R_TYPE_ERROR


def test_checklocktime():
    t5 = (5).to_bytes(8, "little")
    assert run(f"PUSH({t5.hex()}) CHECKLOCKTIME TRUE", not_before=5).success
    assert run(f"PUSH({t5.hex()}) CHECKLOCKTIME TRUE", not_before=7).success
    assert run(f"PUSH({t5.hex()}) CHECKLOCKTIME TRUE", not_before=4).reason == R_VERIFY_FAILED
    assert run(f"PUSH({t5.hex()}) CHECKLOCKTIME TRUE").reason == R_VERIFY_FAILED  # no window
    assert run("PUSH(01) CHECKLOCKTIME TRUE", not_before=5).reason == R_TYPE_ERROR  # not 8 bytes


def test_covenant_restricts_spend_hashes():
    allowed = b"\x10" * 32
    text = f"PUSH({allowed.hex()}) PUSH(01) COVENANT TRUE"
    good = ScriptContext(spend_script_hashes=(allowed,))
    bad = ScriptContext(spend_script_hashes=(allowed, b"\x11" * 32))
    assert execute(assemble(text), (), good).success
    assert execute(assemble(text), (), bad).reason == R_VERIFY_FAILED
    disabled = ScriptContext(spend_script_hashes=(allowed,), covenants_enabled=False)
    assert execute(assemble(text), (), disabled).reason == R_TYPE_ERROR
    # Zero-hash covenant forbids every spend shape except no outputs at all.
    assert execute(assemble("FALSE COVENANT TRUE"), (), good).reason == R_VERIFY_FAILED
    assert execute(assemble("FALSE COVENANT TRUE"), (), ScriptContext()).success


def test_witness_limits():
    too_many = tuple(b"\x01" for _ in range(MAX_WITNESS_ITEMS + 1))
    assert execute(assemble("TRUE"), too_many, CTX).reason == R_STACK_LIMIT
    oversize = (b"\x01" * (MAX_ELEMENT + 1),)
    assert execute(assemble("TRUE"), oversize, CTX).reason == R_STACK_LIMIT


def test_stack_limit():
    res = execute(bytes([0x51]) * (MAX_STACK + 1), (), CTX)
    assert res.reason == R_STACK_LIMIT
    res = execute(bytes([0x51]) + bytes([0x76]) * MAX_STACK, (), CTX)
    assert res.reason == R_STACK_LIMIT


def test_step_limit():
    res = execute(bytes([0x51, 0x75]) * ((MAX_STEPS // 2) + 10), (), CTX)
    assert res.reason == R_STEP_LIMIT
    assert res.steps <= MAX_STEPS + 1


def test_unknown_opcode():
    assert execute(bytes([0xFE]), (), CTX).reason == R_TYPE_ERROR


@given(st.binary(max_size=300), st.lists(st.binary(max_size=40), max_size=6))
@settings(max_examples=200)
def test_random_bytecode_never_raises(code, witness):
    res = execute(code, witness, CTX)
    assert isinstance(res.success, bool)
    assert res.steps <= MAX_STEPS + 1
