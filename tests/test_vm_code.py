"""Contract bytecode: the one walk (vm._instructions) behind decode,
validate_code and disassemble, against the separate validator and decoder
it replaced (oracles.ref_validate_code, oracles.ref_decode)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_decode, ref_validate_code
from test_vm import programs
from tierledger import vm
from tierledger.model import MAX_CONTRACT_CODE_BYTES, ModelError


def agrees_with_reference(code: bytes) -> None:
    valid = ref_validate_code(code)
    assert vm.validate_code(code) == valid
    assert vm.decode(code) == (ref_decode(code) if valid else None)


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=48))
def test_random_bytes_validate_as_the_reference(code):
    agrees_with_reference(code)


@settings(max_examples=300, deadline=None)
@given(programs(), st.data())
def test_programs_with_one_byte_changed_validate_as_the_reference(code, data):
    agrees_with_reference(code)
    at = data.draw(st.integers(0, len(code) - 1), label="at")
    byte = data.draw(st.integers(0, 255), label="byte")
    agrees_with_reference(code[:at] + bytes([byte]) + code[at + 1 :])


@settings(max_examples=300, deadline=None)
@given(programs(), st.sampled_from([vm.OP_JUMP, vm.OP_JUMPI]), st.integers(0, 0xFFFF), st.integers(-3, 2), st.booleans())
def test_jump_targets_validate_as_the_reference(code, op, target, near_end, use_near_end):
    """A jump appended to a valid program, to any u16 target: among them
    the program's last bytes, its end and the offsets just past it."""
    end = len(code) + 3
    if use_near_end:
        target = max(0, end + near_end)
    jump = bytes([op]) + target.to_bytes(2, "little")
    agrees_with_reference(code + jump)
    agrees_with_reference(jump + code)


def test_edge_codes_validate_as_the_reference():
    halt = bytes([vm.OP_HALT])
    pushi = bytes([vm.OP_PUSHI]) + bytes(8)
    cases = [
        b"",
        halt * MAX_CONTRACT_CODE_BYTES,
        halt * (MAX_CONTRACT_CODE_BYTES + 1),
        pushi * 455,
        pushi * 455 + bytes([vm.OP_PUSHI]),
        bytes([vm.OP_JUMP, 0xFF, 0xFF]),
        bytes([vm.OP_JUMP, 3, 0]),
        bytes([vm.OP_JUMP, 3, 0, vm.OP_HALT]),
        bytes([vm.OP_PUSHA]),
        bytes([vm.OP_PUSHA, 255]),
    ]
    for code in cases:
        agrees_with_reference(code)


@pytest.mark.parametrize(
    "code",
    [
        bytes([vm.OP_PUSHI, 1]),
        bytes([vm.OP_HALT, vm.OP_PUSHI]) + bytes(7),
        bytes([vm.OP_PUSHA]),
        bytes([vm.OP_JUMP, 0]),
        bytes([vm.OP_JUMPI]),
        bytes([0xEE]),
        bytes([vm.OP_HALT, 0xEE, vm.OP_HALT]),
    ],
    ids=bytes.hex,
)
def test_disassemble_rejects_truncated_operands_and_unknown_opcodes(code):
    with pytest.raises(ModelError):
        vm.disassemble(code)


@settings(max_examples=200, deadline=None)
@given(programs())
def test_assemble_inverts_disassemble(code):
    assert vm.assemble(vm.disassemble(code)) == code
