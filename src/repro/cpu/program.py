"""A symbolic program builder for the MultiTitan simulator.

The builder is what the workload kernels are written in: it provides
labels with forward references, loop helpers, and mnemonic emitters for
every instruction, including the Figure-3 FPU ALU operations with vector
length and stride fields.  ``build()`` resolves labels and returns an
immutable :class:`Program`.
"""

from repro.core.encoding import AluInstruction, MAX_VECTOR_LENGTH, NUM_REGISTERS
from repro.core.exceptions import AssemblerError, EncodingError
from repro.core.types import Op, UNARY_OPS, unit_func_for
from repro.cpu import isa


class Label:
    """A branch target; resolved to an instruction index at build time."""

    def __init__(self, name):
        self.name = name
        self.index = None

    def __repr__(self):
        return "Label(%r@%s)" % (self.name, self.index)


_FALU_MNEMONICS = {
    Op.ADD: "fadd", Op.SUB: "fsub", Op.MUL: "fmul", Op.ITER: "fiter",
    Op.RECIP: "frecip", Op.FLOAT: "ffloat", Op.TRUNC: "ftrunc",
    Op.IMUL: "fimul",
}

_FCMP_CONDS = {isa.CMP_EQ: "eq", isa.CMP_LT: "lt", isa.CMP_LE: "le"}


def instruction_source(instruction):
    """Render one decoded instruction tuple as assembler input text.

    Unlike :func:`repro.cpu.isa.disassemble` (which renders FPU ALU
    operations in the paper's Figure-3 notation), every line produced
    here reassembles to the identical tuple via
    :func:`repro.cpu.assembler.assemble`.  Branch and jump targets use
    the absolute ``@N`` notation, so the text is position-exact.
    """
    opcode = instruction[0]
    name = isa.OPCODE_NAMES.get(opcode)
    if opcode in (isa.NOP, isa.HALT, isa.RFE):
        return name
    if opcode == isa.LI:
        return "li r%d, %d" % instruction[1:]
    if opcode in (isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR):
        return "%s r%d, r%d, r%d" % ((name,) + instruction[1:])
    if opcode in (isa.ADDI, isa.MULI, isa.SLL, isa.SRA):
        return "%s r%d, r%d, %d" % ((name,) + instruction[1:])
    if opcode in (isa.LW, isa.SW):
        return "%s r%d, %d(r%d)" % (name, instruction[1], instruction[3],
                                    instruction[2])
    if opcode in isa.BRANCH_OPS:
        return "%s r%d, r%d, @%d" % ((name,) + instruction[1:])
    if opcode == isa.J:
        return "j @%d" % instruction[1]
    if opcode in (isa.FLOAD, isa.FSTORE):
        return "%s f%d, %d(r%d)" % (name, instruction[1], instruction[3],
                                    instruction[2])
    if opcode == isa.FCMP:
        return "fcmp.%s r%d, f%d, f%d" % (_FCMP_CONDS[instruction[4]],
                                          instruction[1], instruction[2],
                                          instruction[3])
    if opcode == isa.FALU:
        op, rr, ra, rb, vl, sra, srb, _unary = instruction[1:]
        mnemonic = _FALU_MNEMONICS[Op(op)]
        if Op(op) in UNARY_OPS:
            return "%s f%d, f%d, vl=%d, sa=%d" % (mnemonic, rr, ra, vl, sra)
        return ("%s f%d, f%d, f%d, vl=%d, sa=%d, sb=%d"
                % (mnemonic, rr, ra, rb, vl, sra, srb))
    raise AssemblerError("cannot render instruction %r as source"
                         % (instruction,))


class Program:
    """An assembled program: decoded instruction tuples plus labels."""

    def __init__(self, instructions, labels, source_comments=None):
        self.instructions = instructions
        self.labels = labels
        self.source_comments = source_comments or {}
        self._decoded = None
        self._digest = None

    def __len__(self):
        return len(self.instructions)

    @property
    def decoded(self):
        """Predecoded dispatch entries, parallel to ``instructions``.

        Built lazily, exactly once per program (instructions are
        immutable after ``build()``), and shared by every machine and
        reference executor running this program -- see
        :func:`repro.core.semantics.predecode`.
        """
        if self._decoded is None:
            from repro.core import semantics
            self._decoded = semantics.predecode(self.instructions)
        return self._decoded

    @property
    def digest(self):
        """SHA-256 of the instruction stream, computed once per program
        like :attr:`decoded` (:func:`repro.core.semantics.program_digest`).
        """
        if self._digest is None:
            from repro.core import semantics
            self._digest = semantics.program_digest(self.instructions)
        return self._digest

    def disassemble(self):
        label_at = {label.index: label.name for label in self.labels.values()}
        lines = []
        for index, instruction in enumerate(self.instructions):
            if index in label_at:
                lines.append("%s:" % label_at[index])
            comment = self.source_comments.get(index)
            text = "  %4d: %s" % (index, isa.disassemble(instruction, index))
            if comment:
                text += "    ; %s" % comment
            lines.append(text)
        return "\n".join(lines)

    def to_source(self):
        """Assembler text that reassembles to these exact instruction
        tuples (one instruction per line, ``@N`` branch targets).

        The fuzzer's triage bundles store minimized programs in this
        form; ``assemble(program.to_source()).instructions ==
        program.instructions`` holds for every program the builder can
        produce.
        """
        return "\n".join(instruction_source(instruction)
                         for instruction in self.instructions) + "\n"


class ProgramBuilder:
    """Emit instructions one at a time; then :meth:`build`."""

    def __init__(self):
        self._instructions = []
        self._labels = {}
        self._fixups = []  # (instruction_index, operand_index, label)
        self._comments = {}

    # -- labels ---------------------------------------------------------

    def label(self, name=None):
        """Create a new (unplaced) label."""
        if name is None:
            name = "L%d" % len(self._labels)
        if name in self._labels:
            raise AssemblerError("duplicate label %r" % name)
        label = Label(name)
        self._labels[name] = label
        return label

    def place(self, label):
        """Place a label at the current position."""
        if label.index is not None:
            raise AssemblerError("label %r placed twice" % label.name)
        label.index = len(self._instructions)
        return label

    def here(self, name=None):
        """Create a label placed at the current position."""
        return self.place(self.label(name))

    def comment(self, text):
        """Attach a comment to the next emitted instruction."""
        self._comments[len(self._instructions)] = text

    # -- raw emission ----------------------------------------------------

    def _emit(self, *instruction):
        self._instructions.append(tuple(instruction))
        return len(self._instructions) - 1

    def _emit_branch(self, opcode, ra, rb, target):
        index = self._emit(opcode, ra, rb, 0)
        self._fixups.append((index, 3, target))
        return index

    # -- integer instructions ---------------------------------------------

    def nop(self):
        return self._emit(isa.NOP)

    def halt(self):
        return self._emit(isa.HALT)

    def li(self, rd, imm):
        return self._emit(isa.LI, rd, imm)

    def add(self, rd, ra, rb):
        return self._emit(isa.ADD, rd, ra, rb)

    def addi(self, rd, ra, imm):
        return self._emit(isa.ADDI, rd, ra, imm)

    def sub(self, rd, ra, rb):
        return self._emit(isa.SUB, rd, ra, rb)

    def mul(self, rd, ra, rb):
        return self._emit(isa.MUL, rd, ra, rb)

    def muli(self, rd, ra, imm):
        return self._emit(isa.MULI, rd, ra, imm)

    def sll(self, rd, ra, shamt):
        return self._emit(isa.SLL, rd, ra, shamt)

    def sra(self, rd, ra, shamt):
        return self._emit(isa.SRA, rd, ra, shamt)

    def and_(self, rd, ra, rb):
        return self._emit(isa.AND, rd, ra, rb)

    def or_(self, rd, ra, rb):
        return self._emit(isa.OR, rd, ra, rb)

    def xor(self, rd, ra, rb):
        return self._emit(isa.XOR, rd, ra, rb)

    def lw(self, rd, ra, offset=0):
        return self._emit(isa.LW, rd, ra, offset)

    def sw(self, rs, ra, offset=0):
        return self._emit(isa.SW, rs, ra, offset)

    def beq(self, ra, rb, target):
        return self._emit_branch(isa.BEQ, ra, rb, target)

    def bne(self, ra, rb, target):
        return self._emit_branch(isa.BNE, ra, rb, target)

    def blt(self, ra, rb, target):
        return self._emit_branch(isa.BLT, ra, rb, target)

    def bge(self, ra, rb, target):
        return self._emit_branch(isa.BGE, ra, rb, target)

    def ble(self, ra, rb, target):
        return self._emit_branch(isa.BLE, ra, rb, target)

    def bgt(self, ra, rb, target):
        return self._emit_branch(isa.BGT, ra, rb, target)

    def j(self, target):
        index = self._emit(isa.J, 0)
        self._fixups.append((index, 1, target))
        return index

    # -- FPU loads/stores --------------------------------------------------

    def fload(self, fd, ra, offset=0):
        return self._emit(isa.FLOAD, fd, ra, offset)

    def fstore(self, fs, ra, offset=0):
        return self._emit(isa.FSTORE, fs, ra, offset)

    def fcmp(self, rd, fa, fb, cond=isa.CMP_LT):
        return self._emit(isa.FCMP, rd, fa, fb, cond)

    def rfe(self):
        """Return from an interrupt handler (pc <- epc)."""
        return self._emit(isa.RFE)

    # -- FPU ALU instructions (Figure 3) -----------------------------------

    def falu(self, op, rr, ra, rb=0, vl=1, sra=True, srb=True):
        op = Op(op)
        unit, func = unit_func_for(op)
        # Validate once at build time through the encoding layer.
        AluInstruction(rr=rr, ra=ra, rb=rb, unit=unit, func=func,
                       vector_length=vl, stride_ra=bool(sra),
                       stride_rb=bool(srb)).validate()
        return self._emit(isa.FALU, int(op), rr, ra, rb, vl,
                          1 if sra else 0, 1 if srb else 0,
                          op in UNARY_OPS)

    def fadd(self, rr, ra, rb, vl=1, sra=True, srb=True):
        return self.falu(Op.ADD, rr, ra, rb, vl, sra, srb)

    def fsub(self, rr, ra, rb, vl=1, sra=True, srb=True):
        return self.falu(Op.SUB, rr, ra, rb, vl, sra, srb)

    def fmul(self, rr, ra, rb, vl=1, sra=True, srb=True):
        return self.falu(Op.MUL, rr, ra, rb, vl, sra, srb)

    def fiter(self, rr, ra, rb, vl=1, sra=True, srb=True):
        return self.falu(Op.ITER, rr, ra, rb, vl, sra, srb)

    def frecip(self, rr, ra, vl=1, sra=True):
        return self.falu(Op.RECIP, rr, ra, 0, vl, sra, False)

    def ffloat(self, rr, ra, vl=1, sra=True):
        return self.falu(Op.FLOAT, rr, ra, 0, vl, sra, False)

    def ftrunc(self, rr, ra, vl=1, sra=True):
        return self.falu(Op.TRUNC, rr, ra, 0, vl, sra, False)

    def fimul(self, rr, ra, rb, vl=1, sra=True, srb=True):
        return self.falu(Op.IMUL, rr, ra, rb, vl, sra, srb)

    def fdiv_seq(self, q, a, b, temps):
        """Emit the six-operation division schedule ``q := a / b``.

        ``temps`` names two scratch FPU registers.  The quotient carries
        the few-ulp error of the reciprocal/Newton path -- exactly the
        machine's division semantics.
        """
        t0, t1 = temps[0], temps[1]
        self.frecip(t0, b)                       # t0 = ~1/b       (16 bit)
        self.fiter(t1, b, t0)                    # t1 = 2 - b*t0
        self.fmul(t0, t0, t1)                    # t0 = t0*t1      (32 bit)
        self.fiter(t1, b, t0)                    # t1 = 2 - b*t0
        self.fmul(t0, t0, t1)                    # t0 = t0*t1      (64 bit)
        self.fmul(q, a, t0)                      # q  = a * (1/b)
        return q

    # -- loop helper --------------------------------------------------------

    def counted_loop(self, counter_reg, count_reg):
        """Return (top_label, close) for a loop running while
        ``counter_reg < count_reg``; the caller increments the counter.

        Usage::

            top, close = b.counted_loop(rK, rN)
            ...body...
            b.addi(rK, rK, 1)
            close()
        """
        top = self.here()

        def close():
            self.blt(counter_reg, count_reg, top)

        return top, close

    # -- build ---------------------------------------------------------------

    def build(self):
        for index, operand_index, label in self._fixups:
            if isinstance(label, Label):
                if label.index is None:
                    raise AssemblerError("label %r never placed" % label.name)
                target = label.index
            else:
                target = int(label)
            instruction = list(self._instructions[index])
            instruction[operand_index] = target
            self._instructions[index] = tuple(instruction)
        if not self._instructions or self._instructions[-1][0] != isa.HALT:
            self.halt()
        return Program(list(self._instructions), dict(self._labels),
                       dict(self._comments))
