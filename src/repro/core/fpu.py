"""The FPU chip: register file, scoreboard, functional units, and the
vector element sequencer.

Vector instructions are issued "by merely incrementing register fields in
the instruction register and issuing the resulting instructions with the
same mechanism used for scalar operations" (WRL 89/8 section 2.1.1).  The
only vector-specific hardware is three six-bit incrementers for the
register specifiers, a four-bit decrementer for the vector length, and a
little pipeline control to reissue instructions whose count is non-zero --
all of which lives in :meth:`Fpu.try_issue_element`.

Because each element passes through the ordinary scalar scoreboard,
arbitrary data dependencies between the elements of one vector are legal:
reductions and recurrences vectorize.
"""

from repro.core.encoding import AluInstruction, NUM_REGISTERS
from repro.core.events import ElementIssueEvent
from repro.core.exceptions import SimulationError, VectorHazardError
from repro.core.functional_units import FUNCTIONAL_UNIT_LATENCY, UNIT_OF_OP, make_units
from repro.core.registers import RegisterFile
from repro.core.scoreboard import Scoreboard
from math import isinf
from operator import add as _float_add, mul as _float_mul, sub as _float_sub

from repro.core.types import (FLOP_OPS, Op, UNARY_OPS, execute_op, nan_result,
                              result_overflowed)
from repro.fparith.division import iteration_step

#: Inline arithmetic for the common binary operations.  Operand types
#: are pre-checked as floats, so these compute exactly what
#: :func:`execute_op` would without its dispatch and checking overhead.
_INLINE_BINOP = {
    Op.ADD: _float_add,
    Op.SUB: _float_sub,
    Op.MUL: _float_mul,
    Op.ITER: iteration_step,
}


class FpuStats:
    """Issue and stall counters for one simulation run."""

    def __init__(self):
        self.elements_issued = 0
        self.flops = 0
        self.alu_instructions = 0
        self.vector_instructions = 0
        self.scoreboard_stall_cycles = 0
        self.overflow_aborts = 0
        self.loads = 0
        self.stores = 0

    def as_dict(self):
        return dict(self.__dict__)

    def load_state(self, state):
        for key, value in state.items():
            setattr(self, key, value)


class _AluState:
    """The mutable ALU instruction register contents."""

    __slots__ = ("op", "rr", "ra", "rb", "remaining", "stride_ra", "stride_rb",
                 "unary", "seq", "vl")

    def __init__(self, instruction):
        self.op = instruction.op
        self.rr = instruction.rr
        self.ra = instruction.ra
        self.rb = instruction.rb
        self.remaining = instruction.vector_length
        self.stride_ra = instruction.stride_ra
        self.stride_rb = instruction.stride_rb
        self.unary = self.op in UNARY_OPS
        self.seq = None
        self.vl = instruction.vector_length

    @property
    def element(self):
        """Index of the current (next-to-issue) element."""
        return self.vl - self.remaining

    def state_dict(self):
        """All fields, for checkpointing the in-flight instruction."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_state(cls, state):
        instance = cls.__new__(cls)
        for slot in cls.__slots__:
            setattr(instance, slot, state[slot])
        return instance


class Fpu:
    """Cycle-level model of the MultiTitan FPU chip."""

    def __init__(self, latency=FUNCTIONAL_UNIT_LATENCY, strict_hazards=False,
                 audit_ports=False):
        self.latency = latency
        self.strict_hazards = strict_hazards
        self.regs = RegisterFile()
        self.scoreboard = Scoreboard(audit_ports=audit_ports)
        self.units = make_units(latency)
        self.stats = FpuStats()
        self.alu_ir = None
        self.alu_ir_free_cycle = 0
        self.hazard_warnings = []
        # The instruction-register state discarded by an overflow abort,
        # positioned at the overflowing element.  Together with the PSW's
        # captured destination specifier this is the precise restart state
        # of section 2.3.3: a handler repairs the operands and calls
        # :meth:`resume_aborted`.
        self.aborted_ir = None
        # Optional observer: a callable receiving an ElementIssueEvent for
        # every issued element, or None (the execution core installs the
        # event bus's "element" publisher here at the start of each run).
        self.emit_element = None
        # Writes in flight: cycle -> list of (register, value, unit_name).
        self._pending = {}

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------

    def retire(self, cycle):
        """Write back results whose latency has elapsed.

        Must run at the start of each cycle, before issue, so that a
        result issued in cycle *i* is usable by cycle *i + latency*.
        """
        ready = self._pending.pop(cycle, None)
        if not ready:
            return
        values = self.regs.values
        clear = self.scoreboard.clear
        for register, value in ready:
            values[register] = value
            clear(register, cycle)

    def drain(self, cycle):
        """Retire everything still in flight (end of simulation)."""
        for ready_cycle in sorted(self._pending):
            self.retire(ready_cycle)

    @property
    def busy(self):
        return self.alu_ir is not None or bool(self._pending)

    # ------------------------------------------------------------------
    # ALU instruction acceptance and element issue
    # ------------------------------------------------------------------

    def ir_free(self, cycle):
        """Whether a new ALU instruction can enter the instruction register."""
        return self.alu_ir is None and cycle >= self.alu_ir_free_cycle

    def accept_alu(self, instruction, cycle):
        """Latch a new ALU instruction into the (free) instruction register.

        The first element attempts to issue in the same cycle, matching the
        Figure 13 schedule.
        """
        if not self.ir_free(cycle):
            raise SimulationError("ALU IR busy in cycle %d" % cycle)
        if isinstance(instruction, AluInstruction):
            instruction.validate()
            state = _AluState(instruction)
        else:
            state = instruction
        self.alu_ir = state
        self.stats.alu_instructions += 1
        if state.remaining > 1:
            self.stats.vector_instructions += 1
        self.try_issue_element(cycle)

    def try_issue_element(self, cycle):
        """Attempt to issue the current element of the ALU IR.

        Returns True when an element issued.  Implements the paper's
        sequencing: after issue, the vector-length field is checked; if
        zero the instruction is cleared from the instruction register,
        otherwise the specifiers increment (Rr always; Ra/Rb per their
        stride bits) and the resulting instruction is treated like any
        newly latched instruction.
        """
        state = self.alu_ir
        if state is None:
            return False
        bits = self.scoreboard.bits
        ra, rb, rr = state.ra, state.rb, state.rr
        if bits[ra] or (not state.unary and bits[rb]) or bits[rr]:
            self.stats.scoreboard_stall_cycles += 1
            return False

        values = self.regs.values
        a = values[ra]
        op = state.op
        if state.unary:
            b = None
            result = execute_op(op, a, b)
        else:
            b = values[rb]
            opfn = _INLINE_BINOP.get(op)
            if (opfn is not None and type(a) is float
                    and type(b) is float):
                result = opfn(a, b)
                if result != result:
                    # NaN payloads are architecturally defined (first
                    # NaN operand propagates), not inherited from the
                    # C-level operand order of this call site -- see
                    # repro.core.types.nan_result.
                    result = nan_result(a, b)
            else:
                result = execute_op(op, a, b)
        # The functional units are fully pipelined with a shared latency;
        # timing flows through the pending-write queue and the units keep
        # issue statistics (their standalone pipeline model is exercised
        # by the unit tests).
        self.units[UNIT_OF_OP[op]].issue_count += 1
        if self.scoreboard.audit_ports:
            self.scoreboard.reserve(rr, cycle)
        else:
            # The precheck above saw the bit clear and a valid index;
            # reserve() could only repeat those checks.
            bits[rr] = True
        key = cycle + self.latency
        pending = self._pending
        if key in pending:
            pending[key].append((rr, result))
        else:
            pending[key] = [(rr, result)]
        if self.emit_element is not None:
            self.emit_element(ElementIssueEvent(cycle, state.seq, rr))
        stats = self.stats
        stats.elements_issued += 1
        if op in FLOP_OPS:
            stats.flops += 1

        if isinf(result) and result_overflowed(op, a, b, result):
            # Discard all remaining elements; save the destination
            # specifier of the first overflowing element in the PSW.
            # The instruction-register state is parked (not destroyed) so
            # a handler can repair the operands and resume from the
            # overflowing element -- the precise restart of section 2.3.3.
            self.regs.psw.record_overflow(rr, element=state.element)
            self.stats.overflow_aborts += 1
            self.aborted_ir = state
            self.alu_ir = None
            self.alu_ir_free_cycle = cycle + 1
            return True

        state.remaining -= 1
        if state.remaining == 0:
            self.alu_ir = None
            self.alu_ir_free_cycle = cycle + 1
        else:
            state.rr = rr + 1
            if state.stride_ra:
                state.ra = ra + 1
            if state.stride_rb:
                state.rb = rb + 1
        return True

    def resume_aborted(self, cycle):
        """Restart an overflow-aborted vector from its overflowing element.

        The handler is expected to have repaired the source operands (the
        PSW names the element and its destination specifier).  Clears the
        PSW, re-latches the parked instruction-register state, and lets
        the ordinary sequencer reissue the overflowing element and every
        element after it.  Raises if there is nothing to resume or the
        instruction register is busy.
        """
        if self.aborted_ir is None:
            raise SimulationError("no overflow-aborted instruction to resume")
        if not self.ir_free(cycle):
            raise SimulationError(
                "ALU IR busy in cycle %d; cannot resume aborted vector" % cycle)
        state = self.aborted_ir
        self.aborted_ir = None
        self.regs.psw.clear()
        self.alu_ir = state
        self.try_issue_element(cycle)
        return state

    # ------------------------------------------------------------------
    # Loads and stores (memory port, driven by the CPU through the
    # separate Load/Store instruction register)
    # ------------------------------------------------------------------

    def load_write(self, register, value, cycle):
        """An FPU load: data arrives from the cache, usable next cycle."""
        self._check_ls_hazard("load", register, cycle)
        self.scoreboard.reserve(register, cycle)
        self._pending.setdefault(cycle + 1, []).append((register, value))
        self.stats.loads += 1

    def store_ready(self, register, cycle=None):
        """Whether a store of ``register`` may issue (no pending write)."""
        return not self.scoreboard.is_reserved(
            register, port="load_store_read", cycle=cycle
        )

    def store_read(self, register, cycle):
        """An FPU store: read the register for the memory port."""
        self._check_ls_hazard("store", register, cycle)
        self.stats.stores += 1
        return self.regs.values[register]

    # ------------------------------------------------------------------
    # Vector/load-store ordering hazards (section 2.3.2)
    # ------------------------------------------------------------------

    def unissued_footprint(self, skip_current=True):
        """Registers belonging to elements that have not yet issued.

        The hardware interlocks loads/stores against the *current* element
        (its specifiers sit in the instruction register), so by default
        only the deeper elements -- the compiler's responsibility, section
        2.3.2 -- are reported.
        """
        state = self.alu_ir
        if state is None or state.remaining == 0:
            return frozenset()
        registers = set()
        first = 1 if skip_current else 0
        for element in range(first, state.remaining):
            registers.add(state.rr + element)
            registers.add(state.ra + (element if state.stride_ra else 0))
            if not state.unary:
                registers.add(state.rb + (element if state.stride_rb else 0))
        return registers

    def _check_ls_hazard(self, kind, register, cycle):
        state = self.alu_ir
        if state is None:
            return
        hazardous = register in self.unissued_footprint()
        if kind == "store":
            # A store only reads; it conflicts only with unissued writes
            # beyond the interlocked current element.
            writes = {state.rr + e for e in range(1, state.remaining)}
            hazardous = register in writes
        if hazardous:
            message = (
                "%s of R%d in cycle %d overlaps an unissued element of the "
                "in-flight vector instruction" % (kind, register, cycle)
            )
            if self.strict_hazards:
                raise VectorHazardError(message)
            self.hazard_warnings.append(message)

    # ------------------------------------------------------------------
    # Checkpointing (repro.robustness)
    # ------------------------------------------------------------------

    def state_dict(self):
        """Complete FPU state: registers, PSW, scoreboard, the in-flight
        instruction register, pending writebacks, and counters."""
        return {
            "regs": self.regs.state_dict(),
            "scoreboard": self.scoreboard.state_dict(),
            "alu_ir": None if self.alu_ir is None else self.alu_ir.state_dict(),
            "aborted_ir": (None if self.aborted_ir is None
                           else self.aborted_ir.state_dict()),
            "alu_ir_free_cycle": self.alu_ir_free_cycle,
            "pending": {cycle: [tuple(write) for write in writes]
                        for cycle, writes in self._pending.items()},
            "stats": self.stats.as_dict(),
            "hazard_warnings": list(self.hazard_warnings),
            "unit_issues": {name: unit.issue_count
                            for name, unit in self.units.items()},
        }

    def load_state(self, state):
        self.regs.load_state(state["regs"])
        self.scoreboard.load_state(state["scoreboard"])
        self.alu_ir = (None if state["alu_ir"] is None
                       else _AluState.from_state(state["alu_ir"]))
        self.aborted_ir = (None if state["aborted_ir"] is None
                           else _AluState.from_state(state["aborted_ir"]))
        self.alu_ir_free_cycle = state["alu_ir_free_cycle"]
        # Mutate the pending dict in place: the cycle simulator's hot loop
        # holds an alias.
        self._pending.clear()
        for cycle, writes in state["pending"].items():
            self._pending[cycle] = [tuple(write) for write in writes]
        self.stats.load_state(state["stats"])
        self.hazard_warnings[:] = state["hazard_warnings"]
        for name, count in state["unit_issues"].items():
            self.units[name].issue_count = count

    # ------------------------------------------------------------------

    def reset(self):
        self.regs.reset()
        self.scoreboard.reset()
        for unit in self.units.values():
            unit.reset()
        self.stats = FpuStats()
        self.alu_ir = None
        self.alu_ir_free_cycle = 0
        self.hazard_warnings = []
        self.aborted_ir = None
        self._pending = {}
