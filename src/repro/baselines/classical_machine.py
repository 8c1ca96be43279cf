"""A cycle-level classical chained-vector machine.

The simulated counterpart to the *analytic* classical model in
:mod:`repro.baselines.classical`: a Cray-shaped vector organization with
**split scalar/vector register files**, vector-register load/store, and
chaining, executing the same predecoded ISA layer
(:mod:`repro.core.semantics`) as the MultiTitan simulator.  Registered
as the ``"classical"`` execution backend (:mod:`repro.core.backend`), it
lets the paper's central comparison -- unified vector/scalar file versus
classical vector machine -- run the *same program* on both organizations
and diff architectural state cross-backend while reporting each side's
cycle counts.

Architectural results are bit-identical to the sequential reference
semantics (:class:`repro.robustness.reference.ReferenceExecutor`): the
machine is blocking and in-order, applying each instruction's effects in
program order, including the overflow-abort discipline (write the
overflowing element, record it in the PSW, discard the rest).  Only the
*timing* is classical:

* **Vector streams.**  A VL >= 2 FALU instruction becomes a vector
  stream: ``vector_startup`` dead cycles, then one element per cycle.
  Runs of two or more FPU loads (stores) off one base register
  (:func:`repro.core.semantics.memory_runs`) are issued as a single
  vector-register load (store): ``memory_startup`` dead cycles then one
  element per cycle, exactly the analytic model's ``startup + n``.
* **Chaining.**  A vector FALU whose sources overlap the destination
  registers of the immediately preceding vector producer (FALU or
  vector load) pays ``chain_delay`` startup instead of
  ``vector_startup``.  Like the analytic ``_vector_cost(n, chained)``,
  chaining is modelled as a reduced startup on the consumer rather than
  true stream overlap.
* **Split register files.**  Registers written by a vector stream live
  in the vector file; when the *scalar* unit (scalar FALU, FCMP, scalar
  store) reads one, the value must first cross to the scalar file at
  ``move_latency`` cycles per operand -- the paper's reduction and
  recurrence tax, which the unified file eliminates.  Vector stores
  leave the chaining window open; every other scalar-unit dispatch
  closes it.
* **Scalar costs.**  Scalar FP ops take ``scalar_op_latency``; integer
  ALU ops, LI and NOP take one cycle; LW/SW and scalar FP load/store
  take ``scalar_mem_latency`` (no cache model -- a classical register
  machine streams from memory); taken branches and jumps take
  ``taken_branch_cycles``.

The machine implements the full :class:`repro.core.backend.
ExecutionBackend` contract -- ``run(stop_cycle=)`` pauses cleanly
mid-stream and :meth:`snapshot`/:meth:`restore` round-trip bit-exactly,
including an in-flight vector stream.  Fault injection is *not*
supported: a set ``fault_plan`` raises instead of being silently
ignored.
"""

from dataclasses import dataclass

from repro.core import semantics
from repro.core.backend import ExecutionBackend
from repro.core.events import EventBus
from repro.core.exceptions import LivelockError, SimulationError
from repro.core.fpu import FpuStats
from repro.core.registers import RegisterFile
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
    execute_op,
    memory_runs,
    result_overflowed,
)
from repro.cpu import isa
from repro.cpu.pipeline import MachineStats, RunResult
from repro.mem.memory import Memory


@dataclass
class ClassicalCycleTiming:
    """Latency parameters of the simulated classical vector machine.

    Defaults mirror :class:`repro.baselines.classical.ClassicalTiming`
    (Cray-1-shaped: long startup, single-cycle element rate, expensive
    vector<->scalar moves) so the simulated and analytic baselines
    describe the same machine.
    """

    vector_startup: int = 15
    chain_delay: int = 4
    scalar_op_latency: int = 6
    move_latency: int = 4
    memory_startup: int = 15
    scalar_mem_latency: int = 11
    taken_branch_cycles: int = 2

    def as_dict(self):
        return {
            "vector_startup": self.vector_startup,
            "chain_delay": self.chain_delay,
            "scalar_op_latency": self.scalar_op_latency,
            "move_latency": self.move_latency,
            "memory_startup": self.memory_startup,
            "scalar_mem_latency": self.scalar_mem_latency,
            "taken_branch_cycles": self.taken_branch_cycles,
        }


class _NullCache:
    """Stand-in for the MultiTitan cache surface.

    The classical machine has no cache model (memory latency is flat),
    but harness code -- ``run_kernel``, ``restore_point``, workload
    setup hooks -- touches ``machine.dcache``/``machine.ibuf``
    unconditionally; this object absorbs those calls.
    """

    hits = 0
    misses = 0

    def warm_range(self, *args, **kwargs):
        pass

    def flush(self):
        pass

    def reset_stats(self):
        pass

    def state_dict(self):
        return {}

    def load_state(self, state):
        pass


class _ClassicalFpu:
    """FP register-file holder matching the ``machine.fpu`` surface."""

    def __init__(self):
        self.regs = RegisterFile()
        self.stats = FpuStats()

    def reset(self):
        self.regs.reset()
        self.stats = FpuStats()


class ClassicalVectorBackend(ExecutionBackend):
    """Cycle-level classical chained-vector machine (``"classical"``)."""

    backend_id = "classical"
    SNAPSHOT_VERSION = 1

    def __init__(self, program, memory=None, config=None, timing=None):
        from repro.cpu.machine import MachineConfig

        self.config = config or MachineConfig()
        self.config.validate()
        self.timing = timing or ClassicalCycleTiming()
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.fpu = _ClassicalFpu()
        self.dcache = _NullCache()
        self.ibuf = _NullCache()
        self.events = EventBus()
        self.trace = None
        self.fault_plan = None
        self._load_runs, self._store_runs = memory_runs(self.decoded)
        semantics.check_vector_lengths(self.decoded, self.config.max_vl)
        self.reset_cpu()

    # ------------------------------------------------------------------

    @property
    def decoded(self):
        return self.program.decoded

    def reset_cpu(self):
        """Reset CPU/FPU state; memory is untouched."""
        self.cycle = 0
        self.pc = 0
        self.epc = None
        self.halted = False
        self.iregs = [0] * isa.NUM_INT_REGISTERS
        self.stats = MachineStats()
        self.fpu.reset()
        self._halt_cycle = None
        self._stall = 0
        self._inflight = None
        # Destination registers of the most recent vector producer; a
        # following vector FALU reading any of them is chained.
        self._prev_vec = None
        # Registers currently resident in the (split) vector file.
        self._vector_file = set()
        self._interrupts = []  # (cycle, handler_pc), soonest first
        self._timing_stats = {"vector_ops": 0, "chained_ops": 0,
                              "scalar_moves": 0}

    def schedule_interrupt(self, cycle, handler_pc):
        """Deliver an interrupt at (or after) ``cycle``; ``rfe`` resumes.

        Delivery waits for the machine to be between instructions (this
        machine is blocking, so an in-flight vector stream drains
        first) and for any previous handler to ``rfe``.
        """
        self._interrupts.append((cycle, handler_pc))
        self._interrupts.sort()

    # ------------------------------------------------------------------
    # Diagnosable errors: same context format as the MultiTitan machine.
    # ------------------------------------------------------------------

    def _error(self, message):
        error = SimulationError(message) if isinstance(message, str) \
            else message
        instruction = None
        if 0 <= self.pc < len(self.program.instructions):
            instruction = self.program.instructions[self.pc]
        text = "%s [cycle=%d pc=%d" % (error.args[0] if error.args else "",
                                       self.cycle, self.pc)
        if instruction is not None:
            text += " instr=%s" % (isa.disassemble(instruction),)
        text += "]"
        error.args = (text,) + error.args[1:]
        error.cycle = self.cycle
        error.pc = self.pc
        error.instruction = instruction
        return error

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, max_cycles=None, stop_cycle=None):
        """Run until HALT; return a :class:`repro.cpu.RunResult`.

        Same contract as the MultiTitan machine: ``stop_cycle`` pauses
        cleanly (even mid-vector-stream) and a later ``run()`` resumes;
        ``max_cycles`` raises :class:`LivelockError` when exceeded.
        """
        if self.fault_plan is not None:
            raise self._error(
                "the classical backend does not support fault injection; "
                "clear machine.fault_plan or use a multititan-domain "
                "backend (percycle/fastpath)")
        limit = max_cycles if max_cycles is not None else \
            self.config.max_cycles
        while not (self.halted and self._inflight is None
                   and self._stall == 0):
            if stop_cycle is not None and self.cycle >= stop_cycle:
                return self._result()
            if self.cycle >= limit:
                raise self._error(LivelockError(
                    "classical backend exceeded %d cycles "
                    "(stall=%d inflight=%s)"
                    % (limit, self._stall,
                       self._inflight["kind"] if self._inflight else None)))
            self._step_cycle()
        return self._result()

    def _result(self):
        self.stats.cycles = self.cycle
        return RunResult(
            halt_cycle=self._halt_cycle,
            completion_cycle=self.cycle,
            stats=self.stats,
            fpu_stats=self.fpu.stats,
            dcache_hits=0,
            dcache_misses=0,
        )

    def timing_report(self):
        """Per-backend timing summary for the cross-backend oracle."""
        report = {"backend": self.backend_id, "cycles": self.cycle}
        report.update(self._timing_stats)
        report.update(self.timing.as_dict())
        return report

    # ------------------------------------------------------------------

    def _step_cycle(self):
        if self._stall:
            self._stall -= 1
        elif self._inflight is not None:
            stream = self._inflight
            if stream["wait"]:
                stream["wait"] -= 1
            else:
                self._issue_element(stream)
                if stream["remaining"] == 0:
                    self._inflight = None
        else:
            self._dispatch()
        self.cycle += 1
        if self.halted and self._halt_cycle is None:
            self._halt_cycle = self.cycle

    def _deliver_interrupt(self):
        if self._interrupts and self.epc is None \
                and self._interrupts[0][0] <= self.cycle:
            _, handler_pc = self._interrupts.pop(0)
            self.epc = self.pc
            self.pc = handler_pc

    def _dispatch(self):
        self._deliver_interrupt()
        pc = self.pc
        if not 0 <= pc < len(self.decoded):
            raise self._error("PC %d ran off the end of the program" % pc)
        entry = self.decoded[pc]
        kind = entry[0]
        handler = self._DISPATCH.get(kind)
        if handler is None:
            raise self._error("unknown opcode %d" % entry[1])
        handler(self, entry)

    # -- scalar-side helpers -------------------------------------------

    def _cross_to_scalar(self, *registers):
        """Cost of moving vector-resident operands to the scalar file.

        Each distinct vector-resident register charges ``move_latency``
        and becomes scalar-resident (the moved copy is what the scalar
        unit keeps using).
        """
        moves = 0
        for reg in set(registers):
            if reg in self._vector_file:
                self._vector_file.discard(reg)
                moves += 1
        self._timing_stats["scalar_moves"] += moves
        return moves * self.timing.move_latency

    def _scalar_dispatch(self, cost):
        """Account one scalar-unit instruction of ``cost`` cycles."""
        self._prev_vec = None
        self._stall = cost - 1
        self.stats.instructions += 1

    # -- per-kind dispatch handlers ------------------------------------

    def _dispatch_falu(self, entry):
        _, op, rr, ra, rb, vl, sra, srb, unary, _instruction = entry
        self.stats.falu_transfers += 1
        self.fpu.stats.alu_instructions += 1
        if vl < 2:
            self._dispatch_scalar_falu(op, rr, ra, rb, unary)
            return
        sources = set(range(ra, ra + vl)) if sra else {ra}
        if not unary:
            sources |= set(range(rb, rb + vl)) if srb else {rb}
        chained = self._prev_vec is not None \
            and bool(self._prev_vec & sources)
        self._inflight = {
            "kind": "falu", "op": op, "rr": rr, "ra": ra, "rb": rb,
            "sra": sra, "srb": srb, "unary": unary, "vl": vl,
            "remaining": vl,
            "wait": self.timing.chain_delay if chained
            else self.timing.vector_startup,
        }
        self._vector_file.update(range(rr, rr + vl))
        self._prev_vec = frozenset(range(rr, rr + vl))
        self.fpu.stats.vector_instructions += 1
        self._timing_stats["vector_ops"] += 1
        if chained:
            self._timing_stats["chained_ops"] += 1
        self.stats.instructions += 1
        self.pc += 1

    def _dispatch_scalar_falu(self, op, rr, ra, rb, unary):
        cost = self.timing.scalar_op_latency
        cost += self._cross_to_scalar(*((ra,) if unary else (ra, rb)))
        fregs = self.fpu.regs.values
        a = fregs[ra]
        b = fregs[rb] if not unary else None
        result = execute_op(op, a, b)
        fregs[rr] = result
        self.fpu.stats.elements_issued += 1
        if result_overflowed(op, a, b, result):
            self.fpu.regs.psw.record_overflow(rr, element=0)
            self.fpu.stats.overflow_aborts += 1
        self._vector_file.discard(rr)
        self.pc += 1
        self._scalar_dispatch(cost)

    def _issue_element(self, stream):
        kind = stream["kind"]
        if kind == "falu":
            fregs = self.fpu.regs.values
            a = fregs[stream["ra"]]
            b = fregs[stream["rb"]] if not stream["unary"] else None
            result = execute_op(stream["op"], a, b)
            fregs[stream["rr"]] = result
            self.fpu.stats.elements_issued += 1
            if result_overflowed(stream["op"], a, b, result):
                # Section 2.3.1 discipline, shared with the reference
                # executor: the overflowing element is written, the PSW
                # records it, the remaining elements are discarded.
                self.fpu.regs.psw.record_overflow(
                    stream["rr"], element=stream["vl"] - stream["remaining"])
                self.fpu.stats.overflow_aborts += 1
                stream["remaining"] = 0
                return
            stream["remaining"] -= 1
            stream["rr"] += 1
            if stream["sra"]:
                stream["ra"] += 1
            if stream["srb"]:
                stream["rb"] += 1
            return
        index = stream["index"]
        address = stream["base"] + stream["offsets"][index]
        try:
            if kind == "vload":
                self.fpu.regs.values[stream["fds"][index]] = \
                    self.memory.read(address)
                self.fpu.stats.loads += 1
            else:  # vstore
                self.memory.write(
                    address, self.fpu.regs.values[stream["fss"][index]])
                self.fpu.stats.stores += 1
        except SimulationError as error:
            raise self._error(error) from None
        stream["index"] += 1
        stream["remaining"] -= 1

    def _dispatch_fload(self, entry):
        run = self._load_runs[self.pc]
        if run is not None:
            self._inflight = {
                "kind": "vload", "base": self.iregs[run.ra],
                "fds": list(run.fds), "offsets": list(run.offsets),
                "index": 0, "remaining": run.n,
                "wait": self.timing.memory_startup,
            }
            self._vector_file.update(run.fds)
            self._prev_vec = frozenset(run.fds)
            self.stats.instructions += run.n
            self.stats.fpu_loads += run.n
            self._timing_stats["vector_ops"] += 1
            self.pc += run.n
            return
        _, fd, ra, offset = entry
        try:
            value = self.memory.read(self.iregs[ra] + offset)
        except SimulationError as error:
            raise self._error(error) from None
        self.fpu.regs.values[fd] = value
        self.fpu.stats.loads += 1
        self.stats.fpu_loads += 1
        self._vector_file.discard(fd)
        self.pc += 1
        self._scalar_dispatch(self.timing.scalar_mem_latency)

    def _dispatch_fstore(self, entry):
        run = self._store_runs[self.pc]
        if run is not None:
            self._inflight = {
                "kind": "vstore", "base": self.iregs[run.ra],
                "fss": list(run.fss), "offsets": list(run.offsets),
                "index": 0, "remaining": run.n,
                "wait": self.timing.memory_startup,
            }
            # A store consumes without producing: the chaining window
            # stays open across it.
            self.stats.instructions += run.n
            self.stats.fpu_stores += run.n
            self._timing_stats["vector_ops"] += 1
            self.pc += run.n
            return
        _, fs, ra, offset = entry
        cost = self.timing.scalar_mem_latency + self._cross_to_scalar(fs)
        try:
            self.memory.write(self.iregs[ra] + offset,
                              self.fpu.regs.values[fs])
        except SimulationError as error:
            raise self._error(error) from None
        self.fpu.stats.stores += 1
        self.stats.fpu_stores += 1
        self.pc += 1
        self._scalar_dispatch(cost)

    def _dispatch_int_imm(self, entry):
        _, rd, ra, imm, op_fn = entry
        if rd:
            self.iregs[rd] = op_fn(self.iregs[ra], imm)
        self.stats.integer_instructions += 1
        self.pc += 1
        self._scalar_dispatch(1)

    def _dispatch_int_binop(self, entry):
        _, rd, ra, rb, op_fn = entry
        if rd:
            self.iregs[rd] = op_fn(self.iregs[ra], self.iregs[rb])
        self.stats.integer_instructions += 1
        self.pc += 1
        self._scalar_dispatch(1)

    def _dispatch_li(self, entry):
        _, rd, imm = entry
        if rd:
            self.iregs[rd] = imm
        self.stats.integer_instructions += 1
        self.pc += 1
        self._scalar_dispatch(1)

    def _dispatch_lw(self, entry):
        _, rd, ra, offset = entry
        try:
            value = self.memory.read(self.iregs[ra] + offset)
        except SimulationError as error:
            raise self._error(error) from None
        if rd:
            self.iregs[rd] = int(value)
        self.stats.integer_instructions += 1
        self.pc += 1
        self._scalar_dispatch(self.timing.scalar_mem_latency)

    def _dispatch_sw(self, entry):
        _, rs, ra, offset = entry
        try:
            self.memory.write(self.iregs[ra] + offset, self.iregs[rs])
        except SimulationError as error:
            raise self._error(error) from None
        self.stats.integer_instructions += 1
        self.pc += 1
        self._scalar_dispatch(self.timing.scalar_mem_latency)

    def _dispatch_branch(self, entry):
        _, ra, rb, target, test, _opcode = entry
        self.stats.branch_instructions += 1
        if test(self.iregs[ra], self.iregs[rb]):
            self.stats.taken_branches += 1
            self.pc = target
            self._scalar_dispatch(self.timing.taken_branch_cycles)
        else:
            self.pc += 1
            self._scalar_dispatch(1)

    def _dispatch_j(self, entry):
        self.stats.branch_instructions += 1
        self.stats.taken_branches += 1
        self.pc = entry[1]
        self._scalar_dispatch(self.timing.taken_branch_cycles)

    def _dispatch_fcmp(self, entry):
        _, rd, fa, fb, test = entry
        cost = self.timing.scalar_op_latency + self._cross_to_scalar(fa, fb)
        if rd:
            fregs = self.fpu.regs.values
            self.iregs[rd] = 1 if test(fregs[fa], fregs[fb]) else 0
        self.pc += 1
        self._scalar_dispatch(cost)

    def _dispatch_nop(self, entry):
        self.pc += 1
        self._scalar_dispatch(1)

    def _dispatch_rfe(self, entry):
        if self.epc is None:
            raise self._error("rfe outside an interrupt handler")
        self.pc = self.epc
        self.epc = None
        self._scalar_dispatch(self.timing.taken_branch_cycles)

    def _dispatch_halt(self, entry):
        self.halted = True
        self._scalar_dispatch(1)

    _DISPATCH = {
        K_FALU: _dispatch_falu,
        K_FLOAD: _dispatch_fload,
        K_FSTORE: _dispatch_fstore,
        K_INT_IMM: _dispatch_int_imm,
        K_INT_BINOP: _dispatch_int_binop,
        K_LI: _dispatch_li,
        K_LW: _dispatch_lw,
        K_SW: _dispatch_sw,
        K_BRANCH: _dispatch_branch,
        K_J: _dispatch_j,
        K_FCMP: _dispatch_fcmp,
        K_NOP: _dispatch_nop,
        K_RFE: _dispatch_rfe,
        K_HALT: _dispatch_halt,
    }

    # ------------------------------------------------------------------
    # Checkpoint / restore (ExecutionBackend contract)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Complete state as plain data, including an in-flight stream."""
        return {
            "version": self.SNAPSHOT_VERSION,
            "backend": self.backend_id,
            "program_length": len(self.program.instructions),
            "program_digest": self.program.digest,
            "cycle": self.cycle,
            "pc": self.pc,
            "epc": self.epc,
            "halted": self.halted,
            "halt_cycle": self._halt_cycle,
            "stall": self._stall,
            "inflight": dict(self._inflight) if self._inflight else None,
            "prev_vec": sorted(self._prev_vec)
            if self._prev_vec is not None else None,
            "vector_file": sorted(self._vector_file),
            "interrupts": [tuple(entry) for entry in self._interrupts],
            "iregs": list(self.iregs),
            "fregs": self.fpu.regs.state_dict(),
            "fpu_stats": self.fpu.stats.as_dict(),
            "stats": self.stats.as_dict(),
            "timing_stats": dict(self._timing_stats),
            "memory": self.memory.delta_snapshot(),
        }

    def restore(self, snapshot):
        """Restore a :meth:`snapshot` bit-exactly, even mid-stream."""
        if snapshot.get("version") != self.SNAPSHOT_VERSION \
                or snapshot.get("backend") != self.backend_id:
            raise SimulationError(
                "snapshot version %r / backend %r not supported "
                "(expected version %d backend %r)"
                % (snapshot.get("version"), snapshot.get("backend"),
                   self.SNAPSHOT_VERSION, self.backend_id))
        if (snapshot["program_length"] != len(self.program.instructions)
                or snapshot["program_digest"]
                != self.program.digest):
            raise SimulationError(
                "snapshot was taken from a different program")
        self.cycle = snapshot["cycle"]
        self.pc = snapshot["pc"]
        self.epc = snapshot["epc"]
        self.halted = snapshot["halted"]
        self._halt_cycle = snapshot["halt_cycle"]
        self._stall = snapshot["stall"]
        self._inflight = dict(snapshot["inflight"]) \
            if snapshot["inflight"] else None
        self._prev_vec = frozenset(snapshot["prev_vec"]) \
            if snapshot["prev_vec"] is not None else None
        self._vector_file = set(snapshot["vector_file"])
        self._interrupts = [tuple(entry)
                            for entry in snapshot["interrupts"]]
        self.iregs[:] = snapshot["iregs"]
        self.fpu.regs.load_state(snapshot["fregs"])
        self.fpu.stats.load_state(snapshot["fpu_stats"])
        self.stats.load_state(snapshot["stats"])
        self._timing_stats = dict(snapshot["timing_stats"])
        self.memory.restore_delta(snapshot["memory"])
        return self
