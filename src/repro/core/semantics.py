"""The single source of truth for MultiTitan architectural semantics.

WRL 89/8's organizing idea is that one scalar issue path drives
everything; this module is the software analogue: every per-opcode
architectural effect -- integer ALU results, branch conditions, FCMP
conditions, FPU ALU element arithmetic, and the legality of an FPU
load/store against an in-flight vector instruction -- is defined here
exactly once.  Both the cycle-accurate execution core
(:mod:`repro.cpu.pipeline`) and the untimed functional reference
(:mod:`repro.robustness.reference`) dispatch through the tables below,
so the two interpretations of the ISA cannot drift apart -- which is the
precondition for the differential checker to mean anything.

The module also owns **predecoding**: :func:`predecode` turns a program's
instruction tuples into dense ``(kind, ...)`` dispatch entries exactly
once at load time (operands extracted, stride bits normalized to bools,
per-op callables bound), so the cycle loop never re-inspects opcodes or
re-extracts operands on the hot path.
"""

import hashlib
import operator

from repro.core.types import (  # noqa: F401  (re-exported: FPU op semantics)
    UNARY_OPS,
    execute_op,
    result_overflowed,
)
from repro.cpu import isa

# ----------------------------------------------------------------------
# Integer ALU semantics (one table per operand shape)
# ----------------------------------------------------------------------

#: Three-register integer operations: ``rd := fn(iregs[ra], iregs[rb])``.
INT_BINOPS = {
    isa.ADD: operator.add,
    isa.SUB: operator.sub,
    isa.MUL: operator.mul,
    isa.AND: operator.and_,
    isa.OR: operator.or_,
    isa.XOR: operator.xor,
}

#: Register-immediate integer operations: ``rd := fn(iregs[ra], imm)``.
INT_IMMOPS = {
    isa.ADDI: operator.add,
    isa.MULI: operator.mul,
    isa.SLL: operator.lshift,
    isa.SRA: operator.rshift,
}

# ----------------------------------------------------------------------
# Branch and FP-compare semantics
# ----------------------------------------------------------------------

#: Branch conditions: taken iff ``fn(iregs[ra], iregs[rb])``.
BRANCH_TESTS = {
    isa.BEQ: operator.eq,
    isa.BNE: operator.ne,
    isa.BLT: operator.lt,
    isa.BGE: operator.ge,
    isa.BLE: operator.le,
    isa.BGT: operator.gt,
}

#: FCMP conditions: ``rd := 1 if fn(F[fa], F[fb]) else 0``.
FCMP_TESTS = {
    isa.CMP_EQ: operator.eq,
    isa.CMP_LT: operator.lt,
    isa.CMP_LE: operator.le,
}


def branch_taken(opcode, a, b):
    """Whether a branch opcode is taken on operand values ``a``, ``b``."""
    return BRANCH_TESTS[opcode](a, b)


def fcmp_flag(cond, a, b):
    """The FCMP condition flag for two FPU register values."""
    return FCMP_TESTS[cond](a, b)


# ----------------------------------------------------------------------
# FPU transfer legality (section 2.3.2 execution constraint)
# ----------------------------------------------------------------------

def fload_conflicts(alu_state, fd):
    """Whether an FPU load of ``fd`` must stall against the *current*
    (next-to-issue) element of the in-flight vector instruction.

    The hardware interlocks only against the specifiers sitting in the
    instruction register; deeper overlaps are the compiler's job.
    """
    if alu_state is None:
        return False
    return (fd == alu_state.rr or fd == alu_state.ra
            or (not alu_state.unary and fd == alu_state.rb))


def fstore_conflicts(alu_state, fs):
    """Whether an FPU store of ``fs`` must stall until the current vector
    element (whose result the store would read) has issued and reserved
    its destination register."""
    return alu_state is not None and fs == alu_state.rr


# ----------------------------------------------------------------------
# Predecode: instruction tuples -> dense dispatch entries
# ----------------------------------------------------------------------

# Dispatch kinds.  The cycle loop and the reference executor both branch
# on entry[0]; the remaining fields are pre-extracted operands plus any
# pre-bound per-op callable.
(
    K_FALU,      # (K_FALU, op, rr, ra, rb, vl, sra, srb, unary, instruction)
    K_FLOAD,     # (K_FLOAD, fd, ra, offset)
    K_FSTORE,    # (K_FSTORE, fs, ra, offset)
    K_INT_IMM,   # (K_INT_IMM, rd, ra, imm, fn)
    K_INT_BINOP, # (K_INT_BINOP, rd, ra, rb, fn)
    K_LI,        # (K_LI, rd, imm)
    K_LW,        # (K_LW, rd, ra, offset)
    K_SW,        # (K_SW, rs, ra, offset)
    K_BRANCH,    # (K_BRANCH, ra, rb, target, test, opcode)
    K_J,         # (K_J, target)
    K_FCMP,      # (K_FCMP, rd, fa, fb, test)
    K_NOP,       # (K_NOP,)
    K_RFE,       # (K_RFE,)
    K_HALT,      # (K_HALT,)
    K_UNKNOWN,   # (K_UNKNOWN, opcode)
) = range(15)


def decode_one(instruction):
    """Predecode one instruction tuple into its dense dispatch entry."""
    opcode = instruction[0]
    if opcode == isa.FALU:
        op, rr, ra, rb, vl, sra, srb, unary = instruction[1:]
        return (K_FALU, op, rr, ra, rb, vl, bool(sra), bool(srb),
                bool(unary), instruction)
    if opcode == isa.FLOAD:
        return (K_FLOAD, instruction[1], instruction[2], instruction[3])
    if opcode == isa.FSTORE:
        return (K_FSTORE, instruction[1], instruction[2], instruction[3])
    if opcode in INT_IMMOPS:
        return (K_INT_IMM, instruction[1], instruction[2], instruction[3],
                INT_IMMOPS[opcode])
    if opcode in INT_BINOPS:
        return (K_INT_BINOP, instruction[1], instruction[2], instruction[3],
                INT_BINOPS[opcode])
    if opcode == isa.LI:
        return (K_LI, instruction[1], instruction[2])
    if opcode == isa.LW:
        return (K_LW, instruction[1], instruction[2], instruction[3])
    if opcode == isa.SW:
        return (K_SW, instruction[1], instruction[2], instruction[3])
    if opcode in BRANCH_TESTS:
        return (K_BRANCH, instruction[1], instruction[2], instruction[3],
                BRANCH_TESTS[opcode], opcode)
    if opcode == isa.J:
        return (K_J, instruction[1])
    if opcode == isa.FCMP:
        # The hardware decodes two condition bits; anything that is not
        # EQ or LT falls through to LE.
        test = FCMP_TESTS.get(instruction[4], operator.le)
        return (K_FCMP, instruction[1], instruction[2], instruction[3], test)
    if opcode == isa.NOP:
        return (K_NOP,)
    if opcode == isa.RFE:
        return (K_RFE,)
    if opcode == isa.HALT:
        return (K_HALT,)
    # Unknown opcodes predecode successfully and raise at *execution*,
    # preserving the machine's lazy unknown-opcode diagnostics (a program
    # may legitimately never reach a bad word).
    return (K_UNKNOWN, opcode)


def predecode(instructions):
    """Predecode a whole program once; returns a list parallel to
    ``instructions`` (``decoded[pc]`` executes ``instructions[pc]``)."""
    return [decode_one(instruction) for instruction in instructions]


# ----------------------------------------------------------------------
# Memory runs: straight-line FPU load/store runs off one base register
# ----------------------------------------------------------------------

class LoadRun:
    """A straight-line run of FPU loads off one base register with
    pairwise-distinct destination registers -- one vector-register load
    on the classical backend
    (:mod:`repro.baselines.classical_machine`)."""

    __slots__ = ("ra", "fds", "offsets", "n")

    def __init__(self, ra, fds, offsets):
        self.ra = ra
        self.fds = tuple(fds)
        self.offsets = tuple(offsets)
        self.n = len(self.fds)


class StoreRun:
    """A straight-line run of FPU stores off one base register -- one
    vector-register store on the classical backend."""

    __slots__ = ("ra", "fss", "offsets", "n")

    def __init__(self, ra, fss, offsets):
        self.ra = ra
        self.fss = tuple(fss)
        self.offsets = tuple(offsets)
        self.n = len(self.fss)


def memory_runs(decoded):
    """Per-pc load-run and store-run tables for a predecoded program.

    Returns ``(load_runs, store_runs)``; ``load_runs[pc]`` is the
    :class:`LoadRun` beginning at ``pc`` (or ``None`` when the run there
    is shorter than two loads, shares no base register, or repeats a
    destination), and likewise for ``store_runs``.  Every pc inside a
    run gets its own suffix run.
    """
    length = len(decoded)
    load_runs = [None] * length
    store_runs = [None] * length
    for pc in range(length - 1, -1, -1):
        entry = decoded[pc]
        kind = entry[0]
        if kind == K_FLOAD:
            ra = entry[2]
            fds = [entry[1]]
            offsets = [entry[3]]
            scan = pc + 1
            while scan < length:
                nxt = decoded[scan]
                if (nxt[0] != K_FLOAD or nxt[2] != ra
                        or nxt[1] in fds):
                    break
                fds.append(nxt[1])
                offsets.append(nxt[3])
                scan += 1
            if len(fds) >= 2:
                load_runs[pc] = LoadRun(ra, fds, offsets)
        elif kind == K_FSTORE:
            ra = entry[2]
            fss = [entry[1]]
            offsets = [entry[3]]
            scan = pc + 1
            while scan < length:
                nxt = decoded[scan]
                if nxt[0] != K_FSTORE or nxt[2] != ra:
                    break
                fss.append(nxt[1])
                offsets.append(nxt[3])
                scan += 1
            if len(fss) >= 2:
                store_runs[pc] = StoreRun(ra, fss, offsets)
    return load_runs, store_runs


def check_vector_lengths(decoded, max_vl):
    """Reject FALU entries whose VL exceeds the configured ceiling.

    Machines call this once at construction (every backend shares the
    predecoded entry list), so a program that violates the configured
    ``MachineConfig.max_vl`` fails loudly up front -- naming the pc --
    instead of deep inside a run.
    """
    from repro.core.exceptions import SimulationError

    for pc, entry in enumerate(decoded):
        if entry[0] == K_FALU and entry[5] > max_vl:
            raise SimulationError(
                "FALU at pc=%d has vl=%d, above the configured "
                "max_vl=%d" % (pc, entry[5], max_vl))


# ----------------------------------------------------------------------
# Stable program identity
# ----------------------------------------------------------------------

def program_digest(instructions):
    """A SHA-256 digest of a decoded instruction stream.

    Stable across Python processes, versions, and platforms (unlike
    ``hash()``, which is salted per process), so snapshots taken in one
    process validate in another.  Operands are canonicalized through
    ``int()`` -- stride/unary flags may be bools, which are ints.
    """
    hasher = hashlib.sha256()
    for instruction in instructions:
        hasher.update(":".join(str(int(field)) for field in instruction)
                      .encode("ascii"))
        hasher.update(b";")
    return hasher.hexdigest()
