"""Tests for the program builder DSL and the textual assembler."""

import pytest

from repro.core.exceptions import AssemblerError, EncodingError
from repro.cpu import isa
from repro.cpu.assembler import assemble
from repro.cpu.machine import MachineConfig, MultiTitan
from repro.cpu.program import ProgramBuilder
from repro.mem.memory import Memory


def run(program, memory=None, setup=None):
    machine = MultiTitan(program, memory=memory,
                         config=MachineConfig(model_ibuffer=False))
    if setup:
        setup(machine)
    machine.run()
    return machine


class TestProgramBuilder:
    def test_forward_label_resolution(self):
        b = ProgramBuilder()
        target = b.label("fwd")
        b.j(target)
        b.li(1, 99)     # skipped
        b.place(target)
        b.li(2, 7)
        machine = run(b.build())
        assert machine.iregs[1] == 0
        assert machine.iregs[2] == 7

    def test_unplaced_label_is_an_error(self):
        b = ProgramBuilder()
        b.j(b.label("nowhere"))
        with pytest.raises(AssemblerError):
            b.build()

    def test_duplicate_label_name_rejected(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(AssemblerError):
            b.label("x")

    def test_halt_appended_automatically(self):
        b = ProgramBuilder()
        b.nop()
        program = b.build()
        assert program.instructions[-1][0] == isa.HALT

    def test_counted_loop_helper(self):
        b = ProgramBuilder()
        b.li(1, 0)
        b.li(2, 5)
        top, close = b.counted_loop(1, 2)
        b.addi(3, 3, 2)
        b.addi(1, 1, 1)
        close()
        machine = run(b.build())
        assert machine.iregs[3] == 10

    def test_falu_validates_at_build_time(self):
        b = ProgramBuilder()
        with pytest.raises(EncodingError):
            b.fadd(48, 0, 8, vl=8)  # runs past R51

    def test_fdiv_seq_divides(self):
        b = ProgramBuilder()
        b.fdiv_seq(q=10, a=0, b=1, temps=(20, 21))
        machine = run(b.build(), setup=lambda m: (
            m.fpu.regs.write(0, 7.0), m.fpu.regs.write(1, 4.0)))
        assert machine.fpu.regs.read(10) == pytest.approx(1.75, rel=1e-14)

    def test_disassembly_includes_labels(self):
        b = ProgramBuilder()
        top = b.here("loop")
        b.addi(1, 1, 1)
        b.blt(1, 2, top)
        text = b.build().disassemble()
        assert "loop:" in text
        assert "addi r1, r1, 1" in text

    def test_digest_is_hashed_once_per_program(self, monkeypatch):
        from repro.core import semantics

        calls = []
        original = semantics.program_digest

        def counting(instructions):
            calls.append(instructions)
            return original(instructions)

        monkeypatch.setattr(semantics, "program_digest", counting)
        b = ProgramBuilder()
        b.li(1, 3)
        program = b.build()
        machine = run(program)
        for _ in range(3):
            machine.restore(machine.snapshot())
        assert program.digest == original(program.instructions)
        assert len(calls) == 1

    def test_r0_is_never_written(self):
        b = ProgramBuilder()
        b.li(0, 42)
        b.addi(0, 0, 3)
        machine = run(b.build())
        assert machine.iregs[0] == 0


class TestAssembler:
    def test_basic_program(self):
        program = assemble("""
            ; compute r3 = 5 + 7
            li r1, 5
            li r2, 7
            add r3, r1, r2
            halt
        """)
        machine = run(program)
        assert machine.iregs[3] == 12

    def test_branch_and_label(self):
        program = assemble("""
            li r1, 0
            li r2, 4
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """)
        machine = run(program)
        assert machine.iregs[1] == 4

    def test_fpu_vector_instruction(self):
        program = assemble("""
            fadd f16, f0, f8, vl=4
            halt
        """)
        machine = run(program, setup=lambda m: (
            m.fpu.regs.write_group(0, [1.0, 2.0, 3.0, 4.0]),
            m.fpu.regs.write_group(8, [5.0, 5.0, 5.0, 5.0])))
        assert machine.fpu.regs.read_group(16, 4) == [6.0, 7.0, 8.0, 9.0]

    def test_scalar_broadcast_stride_bits(self):
        program = assemble("fmul f16, f32, f0, vl=4, sa=0\nhalt\n")
        machine = run(program, setup=lambda m: (
            m.fpu.regs.write(32, 2.0),
            m.fpu.regs.write_group(0, [1.0, 2.0, 3.0, 4.0])))
        assert machine.fpu.regs.read_group(16, 4) == [2.0, 4.0, 6.0, 8.0]

    def test_memory_operands(self):
        memory = Memory()
        memory.write(256, 4.25)
        program = assemble("""
            li r1, 256
            fload f0, 0(r1)
            fadd f1, f0, f0
            fstore f1, 8(r1)
            halt
        """)
        machine = run(program, memory=memory)
        assert memory.read(264) == 8.5

    def test_fcmp_variants(self):
        program = assemble("""
            fcmp.lt r1, f0, f1
            fcmp.eq r2, f0, f0
            halt
        """)
        machine = run(program, setup=lambda m: (
            m.fpu.regs.write(0, 1.0), m.fpu.regs.write(1, 2.0)))
        assert machine.iregs[1] == 1
        assert machine.iregs[2] == 1

    def test_unary_fpu_ops(self):
        program = assemble("""
            frecip f1, f0
            ftrunc f2, f0
            halt
        """)
        machine = run(program, setup=lambda m: m.fpu.regs.write(0, 4.0))
        assert machine.fpu.regs.read(1) == pytest.approx(0.25, rel=1e-4)
        assert machine.fpu.regs.read(2) == 4

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1, r2")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("li r99, 3")

    def test_bad_fpu_option(self):
        with pytest.raises(AssemblerError):
            assemble("fadd f0, f1, f2, q=3")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("frecip f0, f1, f2")

    def test_comments_and_blank_lines(self):
        program = assemble("""
            # hash comment
            ; semicolon comment

            nop
            halt
        """)
        assert len(program.instructions) == 2

    def test_vector_length_out_of_range(self):
        with pytest.raises(EncodingError):
            assemble("fadd f0, f1, f2, vl=17")
