"""A pure functional reference executor for the MultiTitan ISA.

No timing, no scoreboard, no caches: each instruction's architectural
effects are applied immediately and in program order.  WRL 89/8's claim
(sections 2.3.1-2.3.3) is that the pipelined machine's state is always
*precise* -- every element of a vector instruction passes through the
scalar scoreboard, so the cycle-level machine must be observationally
equal to this sequential semantics.  The differential checker
(:mod:`repro.robustness.differential`) runs the two in lockstep and
reports the first disagreement.

The executor interprets the same **predecoded** dispatch entries as the
cycle-accurate execution core, through a per-kind handler table; the
per-opcode tables themselves (integer ops, branch and FCMP conditions,
FPU element arithmetic) come from :mod:`repro.core.semantics`.  That
module is the single source of truth for architectural behaviour -- the
only thing defined here is the untimed *application order* of effects.

The executor supports two modes:

* **standalone** -- :meth:`ReferenceExecutor.run` follows its own control
  flow from ``pc`` until HALT;
* **follow** -- :meth:`ReferenceExecutor.execute` applies one committed
  instruction handed to it by the machine's commit events (this is how
  the differential checker tracks interrupt handlers without modelling
  interrupt timing).
"""

from repro.core.encoding import NUM_REGISTERS
from repro.core.exceptions import SimulationError
from repro.core.semantics import (
    K_BRANCH,
    K_FALU,
    K_FCMP,
    K_FLOAD,
    K_FSTORE,
    K_HALT,
    K_INT_BINOP,
    K_INT_IMM,
    K_J,
    K_LI,
    K_LW,
    K_NOP,
    K_RFE,
    K_SW,
    decode_one,
    execute_op,
    predecode,
    result_overflowed,
)
from repro.cpu import isa

#: Handler result meaning "control continues at pc + 1".  A sentinel is
#: needed because ``None`` is a legitimate next_pc (follow-mode ``rfe``
#: asks the checker to resync at the next commit).
_SEQUENTIAL = object()


class ReferenceExecutor:
    """Sequential, untimed interpreter over predecoded dispatch entries."""

    def __init__(self, instructions, iregs=None, fregs=None,
                 memory_words=None, pc=0, decoded=None):
        self.instructions = instructions
        self.pc = pc
        self.epc = None
        self.halted = False
        self.steps = 0
        self.iregs = list(iregs) if iregs is not None \
            else [0] * isa.NUM_INT_REGISTERS
        self.fregs = list(fregs) if fregs is not None \
            else [0.0] * NUM_REGISTERS
        self.memory = list(memory_words) if memory_words is not None else []
        self.psw_overflow = False
        self.psw_overflow_dest = None
        self.psw_overflow_element = None
        self._decoded = decoded if decoded is not None \
            else predecode(instructions)
        self._dispatch = {
            K_FALU: self._exec_falu,
            K_FLOAD: self._exec_fload,
            K_FSTORE: self._exec_fstore,
            K_INT_IMM: self._exec_int_imm,
            K_INT_BINOP: self._exec_int_binop,
            K_LI: self._exec_li,
            K_LW: self._exec_lw,
            K_SW: self._exec_sw,
            K_BRANCH: self._exec_branch,
            K_J: self._exec_j,
            K_FCMP: self._exec_fcmp,
            K_NOP: self._exec_nop,
            K_RFE: self._exec_rfe,
            K_HALT: self._exec_halt,
        }

    @classmethod
    def from_machine(cls, machine):
        """Start from a machine's current architectural state (after any
        setup hook has populated registers and memory); the predecoded
        program is shared with the machine."""
        executor = cls(
            machine.program.instructions,
            iregs=machine.iregs,
            fregs=machine.fpu.regs.values,
            memory_words=machine.memory.raw_words,
            pc=machine.pc,
            decoded=machine.decoded,
        )
        executor.epc = machine.epc
        executor.halted = machine.halted
        return executor

    # ------------------------------------------------------------------

    def _mem_index(self, address):
        if address % 8:
            raise SimulationError(
                "reference executor: unaligned access at %d" % address)
        index = address >> 3
        if index >= len(self.memory):
            self.memory.extend([0.0] * (index + 1 - len(self.memory)))
        return index

    def execute(self, instruction, pc=None):
        """Apply one instruction; return its architectural effects.

        The result is a dict with ``freg_writes``, ``ireg_writes``,
        ``mem_writes`` (lists of ``(target, value)``) and ``next_pc``.
        ``freg_writes`` lists vector elements in issue order, truncated
        at the first overflowing element exactly like the hardware abort.
        """
        follow = pc is not None
        if follow:
            self.pc = pc
        index = self.pc
        # The common case hands us the program's own instruction object,
        # whose dispatch entry was predecoded once at construction;
        # anything else (synthetic instructions in tests, mid-stream
        # patches) decodes on the fly.
        if (isinstance(index, int) and 0 <= index < len(self.instructions)
                and self.instructions[index] is instruction):
            entry = self._decoded[index]
        else:
            entry = decode_one(instruction)
        effects = {
            "freg_writes": [],
            "ireg_writes": [],
            "mem_writes": [],
            "next_pc": self.pc + 1,
        }
        handler = self._dispatch.get(entry[0])
        if handler is None:
            raise SimulationError(
                "reference executor: unknown opcode %d" % entry[1])
        next_pc = handler(entry, effects, follow)
        if next_pc is not _SEQUENTIAL:
            effects["next_pc"] = next_pc
        self.pc = effects["next_pc"]
        self.steps += 1
        return effects

    # -- per-kind handlers (architectural effects only) -----------------

    def _exec_falu(self, entry, effects, follow):
        _, op, rr, ra, rb, vl, sra, srb, unary, _instruction = entry
        fregs = self.fregs
        writes = effects["freg_writes"]
        remaining = vl
        while remaining:
            a = fregs[ra]
            b = fregs[rb] if not unary else None
            result = execute_op(op, a, b)
            fregs[rr] = result
            writes.append((rr, result))
            if result_overflowed(op, a, b, result):
                if not self.psw_overflow:
                    self.psw_overflow = True
                    self.psw_overflow_dest = rr
                    self.psw_overflow_element = vl - remaining
                break
            remaining -= 1
            rr += 1
            if sra:
                ra += 1
            if srb:
                rb += 1
        return _SEQUENTIAL

    def _exec_fload(self, entry, effects, follow):
        _, fd, ra, offset = entry
        value = self.memory[self._mem_index(self.iregs[ra] + offset)]
        self.fregs[fd] = value
        effects["freg_writes"].append((fd, value))
        return _SEQUENTIAL

    def _exec_fstore(self, entry, effects, follow):
        _, fs, ra, offset = entry
        index = self._mem_index(self.iregs[ra] + offset)
        value = self.fregs[fs]
        self.memory[index] = value
        effects["mem_writes"].append((index, value))
        return _SEQUENTIAL

    def _exec_int_imm(self, entry, effects, follow):
        _, rd, ra, imm, op_fn = entry
        if rd:
            iregs = self.iregs
            iregs[rd] = op_fn(iregs[ra], imm)
            effects["ireg_writes"].append((rd, iregs[rd]))
        return _SEQUENTIAL

    def _exec_int_binop(self, entry, effects, follow):
        _, rd, ra, rb, op_fn = entry
        if rd:
            iregs = self.iregs
            iregs[rd] = op_fn(iregs[ra], iregs[rb])
            effects["ireg_writes"].append((rd, iregs[rd]))
        return _SEQUENTIAL

    def _exec_li(self, entry, effects, follow):
        _, rd, imm = entry
        if rd:
            self.iregs[rd] = imm
            effects["ireg_writes"].append((rd, imm))
        return _SEQUENTIAL

    def _exec_lw(self, entry, effects, follow):
        _, rd, ra, offset = entry
        value = self.memory[self._mem_index(self.iregs[ra] + offset)]
        if rd:
            self.iregs[rd] = int(value)
            effects["ireg_writes"].append((rd, self.iregs[rd]))
        return _SEQUENTIAL

    def _exec_sw(self, entry, effects, follow):
        _, rs, ra, offset = entry
        index = self._mem_index(self.iregs[ra] + offset)
        value = self.iregs[rs]
        self.memory[index] = value
        effects["mem_writes"].append((index, value))
        return _SEQUENTIAL

    def _exec_branch(self, entry, effects, follow):
        _, ra, rb, target, test, _opcode = entry
        if test(self.iregs[ra], self.iregs[rb]):
            return target
        return _SEQUENTIAL

    def _exec_j(self, entry, effects, follow):
        return entry[1]

    def _exec_fcmp(self, entry, effects, follow):
        _, rd, fa, fb, test = entry
        if rd:
            self.iregs[rd] = 1 if test(self.fregs[fa], self.fregs[fb]) else 0
            effects["ireg_writes"].append((rd, self.iregs[rd]))
        return _SEQUENTIAL

    def _exec_nop(self, entry, effects, follow):
        return _SEQUENTIAL

    def _exec_rfe(self, entry, effects, follow):
        if self.epc is not None:
            next_pc = self.epc
            self.epc = None
            return next_pc
        if follow:
            # The machine dispatched the interrupt; the reference only
            # sees the committed stream.  Resync control flow at the
            # next commit.
            return None
        raise SimulationError(
            "reference executor: rfe outside an interrupt handler")

    def _exec_halt(self, entry, effects, follow):
        self.halted = True
        return self.pc

    # ------------------------------------------------------------------

    def step(self):
        """Standalone mode: execute the instruction at the current pc."""
        if self.halted:
            raise SimulationError("reference executor already halted")
        if self.pc >= len(self.instructions):
            raise SimulationError(
                "reference executor: PC %d ran off the end" % self.pc)
        return self.execute(self.instructions[self.pc])

    def run(self, max_steps=10_000_000):
        """Standalone mode: run from the current pc until HALT."""
        while not self.halted:
            if self.steps >= max_steps:
                raise SimulationError(
                    "reference executor exceeded %d steps" % max_steps)
            self.step()
        return self
