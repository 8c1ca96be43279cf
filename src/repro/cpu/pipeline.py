"""The staged execution core of the MultiTitan system simulator.

This module replaces the former ~450-line monolithic loop in
``MultiTitan.run()`` with an explicit structure:

* :class:`FetchStage` -- instruction delivery through the 2 KB on-chip
  buffer (optionally backed by the external instruction cache); owns the
  instruction-fetch stall counter.
* :class:`IssueStage` -- the scalar issue point: one CPU instruction
  attempts to issue per cycle once ``cpu_ready`` allows; owns the issue
  stall counters (integer delay slots, ALU-IR-busy transfer stalls,
  scoreboard and vector-interlock stalls).
* :class:`MemPortStage` -- the single blocking memory port shared by
  integer and FPU loads/stores (stores hold it for two cycles); owns the
  port-busy and data-cache-miss stall counters.
* :class:`FpuSequencer` -- the FPU side: ALU instruction acceptance,
  per-cycle vector element issue, and result retirement (the FPU's own
  scoreboard stall counter lives in ``Fpu.stats``).
* :class:`ExecutionCore` -- drives the stages cycle by cycle over the
  **predecoded** program (:func:`repro.core.semantics.predecode`): each
  instruction word is decoded exactly once at load into a dense
  ``(kind, ...)`` entry with pre-bound per-opcode semantics callables,
  so the hot loop never re-inspects opcodes.  It has two loops: the
  reference per-cycle loop and an unobserved fast path that skips
  quiescent cycles and memoizes steady-state loops.

Architectural semantics (what each opcode *does*) live in exactly one
place -- :mod:`repro.core.semantics` -- shared with the functional
reference executor; this module owns *timing* (when it happens).

Stall-counter ownership: the counters are stored on the run's
:class:`MachineStats` record (the serialization surface for snapshots
and results); each stage exposes its own counters as attributes
delegating to that record, and by convention only that stage's logic in
the core loop updates them.  The core loop hoists stage state into
locals for the duration of a ``run()`` call -- simulation speed is a
contract here (see ``benchmarks/bench_simspeed.py``) -- and writes it
back to the stages at every exit point.

Observers hook the core through the machine's typed event bus
(:mod:`repro.core.events`): ``alu`` / ``element`` / ``load`` / ``store``
trace events plus ``commit`` and ``retire``.  Publishers are resolved
once per run; an unobserved run pays nothing.
"""

from dataclasses import dataclass

from repro.core import semantics
from repro.core.events import (
    AluTransferEvent,
    CommitEvent,
    LoadIssueEvent,
    RetireEvent,
    StoreIssueEvent,
)
from repro.core.exceptions import SimulationError
from repro.core.fpu import _AluState
from repro.core.functional_units import CYCLE_TIME_NS
from operator import eq as _op_eq, ge as _op_ge, gt as _op_gt
from operator import le as _op_le, lt as _op_lt, ne as _op_ne


def _taken_run(test, c, e, cap):
    """Length of the initial run of ``True`` in ``test(c + j*e, 0)`` for
    ``j = 1..cap``.

    ``test`` is one of the six ``operator`` comparison functions used by
    :data:`repro.core.semantics.BRANCH_TESTS`; ``c`` and ``e`` are the
    difference and per-iteration difference of the two branch operands
    just after a taken evaluation (``j = 0``, known True).  The result
    is how many further evaluations stay taken, so the loop exit (or
    the cycle limit, via ``cap``) is always reached by concrete
    simulation.  ``test(a, b)`` for these operators depends only on
    ``a - b``, which advances linearly.
    """
    if test is _op_gt:
        test, c, e = _op_lt, -c, -e
    elif test is _op_ge:
        test, c, e = _op_le, -c, -e
    if test is _op_lt:
        if e == 0:
            return cap if c < 0 else 0
        if e > 0:
            if c + e >= 0:
                return 0
            j = (-1 - c) // e  # last j with c + j*e <= -1
            return j if j < cap else cap
        return cap if c + e < 0 else 0
    if test is _op_le:
        if e == 0:
            return cap if c <= 0 else 0
        if e > 0:
            if c + e > 0:
                return 0
            j = -c // e  # last j with c + j*e <= 0
            return j if j < cap else cap
        return cap if c + e <= 0 else 0
    if test is _op_ne:
        if e == 0:
            return cap if c else 0
        if c % e == 0:
            j0 = -c // e  # the one j where c + j*e == 0
            if j0 >= 1:
                j = j0 - 1
                return j if j < cap else cap
        return cap
    if test is _op_eq:
        if e == 0:
            return cap if c == 0 else 0
        return 1 if c + e == 0 else 0
    return 0


@dataclass
class MachineStats:
    """Counters accumulated over one run.

    This record is the single storage for the whole core's counters --
    it is what snapshots serialize and what ``RunResult`` reports.  The
    stall counters are each owned by one pipeline stage (see the stage
    classes), which exposes them under stage-local names.
    """

    cycles: int = 0
    instructions: int = 0
    integer_instructions: int = 0
    branch_instructions: int = 0
    taken_branches: int = 0
    fpu_loads: int = 0
    fpu_stores: int = 0
    falu_transfers: int = 0
    stall_alu_ir_busy: int = 0
    stall_scoreboard: int = 0
    stall_vector_interlock: int = 0
    stall_port: int = 0
    stall_int_delay: int = 0
    stall_dcache_miss_cycles: int = 0
    stall_ibuf_miss_cycles: int = 0

    def as_dict(self):
        return dict(self.__dict__)

    def load_state(self, state):
        for key, value in state.items():
            setattr(self, key, value)


@dataclass
class RunResult:
    """Outcome of :meth:`repro.cpu.machine.MultiTitan.run`."""

    halt_cycle: int
    completion_cycle: int
    stats: MachineStats
    fpu_stats: "FpuStats"
    dcache_hits: int
    dcache_misses: int

    def elapsed_seconds(self, cycle_time_ns=CYCLE_TIME_NS):
        return self.completion_cycle * cycle_time_ns * 1e-9

    def mflops(self, nominal_flops, cycle_time_ns=CYCLE_TIME_NS):
        """MFLOPS from a nominal flop count at the machine clock."""
        seconds = self.elapsed_seconds(cycle_time_ns)
        if seconds <= 0:
            return 0.0
        return nominal_flops / seconds / 1e6


def _stat_counter(field):
    """A stage attribute delegating to one MachineStats field.

    The stage *owns* the counter (its logic is the only writer); the
    stats record *stores* it (so snapshot/restore and RunResult keep
    their format without a separate sync step).
    """

    def get(self):
        return getattr(self.machine.stats, field)

    def set(self, value):
        setattr(self.machine.stats, field, value)

    return property(get, set, doc="owned counter -> MachineStats.%s" % field)


class FetchStage:
    """Instruction delivery: the 2 KB on-chip buffer, optionally backed
    by the 64 KB external instruction cache (Figure 1)."""

    __slots__ = ("machine", "ibuf", "icache", "enabled", "model_external",
                 "external_hit_penalty")

    #: stall cycles charged while the instruction buffer refills
    stall_cycles = _stat_counter("stall_ibuf_miss_cycles")

    def __init__(self, machine):
        config = machine.config
        self.machine = machine
        self.ibuf = machine.ibuf
        self.icache = machine.icache
        self.enabled = config.model_ibuffer
        self.model_external = config.model_external_icache
        self.external_hit_penalty = config.icache_hit_penalty

    def penalty(self, pc):
        """Fetch-stall penalty for the instruction at ``pc`` (0 = hit).

        The on-chip buffer refills from the external instruction cache
        when that cache holds the line; otherwise from memory.
        """
        penalty = self.ibuf.access(pc << 2)
        if penalty and self.model_external and self.icache.access(pc << 2) == 0:
            penalty = self.external_hit_penalty
        return penalty


class IssueStage:
    """The scalar issue point: at most one CPU instruction issues per
    cycle, gated by ``cpu_ready`` (pipeline redirects, delay slots,
    memory-port completion all push it forward)."""

    __slots__ = ("machine", "cpu_ready")

    #: integer operand not yet past its load/FCMP delay slot
    stall_int_delay = _stat_counter("stall_int_delay")
    #: FALU transfer found the FPU ALU instruction register busy
    stall_alu_ir_busy = _stat_counter("stall_alu_ir_busy")
    #: FPU load/store/FCMP waiting on a reserved (in-flight) register
    stall_scoreboard = _stat_counter("stall_scoreboard")
    #: section 2.3.2 interlock against the current vector element
    stall_vector_interlock = _stat_counter("stall_vector_interlock")

    def __init__(self, machine):
        self.machine = machine
        self.cpu_ready = 0


class MemPortStage:
    """The single blocking memory port: integer and FPU loads/stores
    share it; a store holds it ``store_cycles`` cycles; a data-cache
    miss (plus optional TLB miss) stalls the whole pipeline."""

    __slots__ = ("machine", "dcache", "tlb", "model_tlb", "store_cycles",
                 "port_free")

    #: issue attempted while the port was still held
    stall_port = _stat_counter("stall_port")
    #: data-cache (and TLB) miss stall cycles
    miss_stall_cycles = _stat_counter("stall_dcache_miss_cycles")

    def __init__(self, machine):
        config = machine.config
        self.machine = machine
        self.dcache = machine.dcache
        self.tlb = machine.tlb
        self.model_tlb = config.model_tlb
        self.store_cycles = config.store_port_cycles
        self.port_free = 0

    def access_penalty(self, address, is_write=False):
        """Data-side access penalty for one reference (0 = hit)."""
        penalty = self.dcache.access(address, is_write=is_write)
        if self.model_tlb:
            penalty += self.tlb.translate(address)
        return penalty


class FpuSequencer:
    """The FPU side of the core: accepts ALU transfers into the
    instruction register, issues one vector element per cycle through
    the scalar scoreboard, and retires results whose latency elapsed.

    Scoreboard stalls of the element sequencer are counted by the FPU
    itself (``Fpu.stats.scoreboard_stall_cycles``).
    """

    __slots__ = ("machine", "fpu", "last_retire_cycle")

    def __init__(self, machine):
        self.machine = machine
        self.fpu = machine.fpu
        self.last_retire_cycle = 0

    def accept_transfer(self, entry, cycle, emit_alu):
        """Latch a predecoded FALU entry into the (free) ALU IR and try
        to issue its first element -- the Figure 13 schedule."""
        machine = self.machine
        fpu = self.fpu
        state = _AluState.__new__(_AluState)
        (_, state.op, state.rr, state.ra, state.rb, vl,
         state.stride_ra, state.stride_rb, state.unary, instruction) = entry
        state.remaining = vl
        state.vl = vl
        seq = machine._alu_seq
        state.seq = seq
        machine._alu_seq = seq + 1
        if emit_alu is not None:
            emit_alu(AluTransferEvent(cycle, seq, instruction))
        fpu.alu_ir = state
        fpu.stats.alu_instructions += 1
        if vl > 1:
            fpu.stats.vector_instructions += 1
        fpu.try_issue_element(cycle)


class ExecutionCore:
    """Cycle-by-cycle driver over the predecoded program.

    Owns the four stages and the run loop.  The loop hoists stage and
    machine state into locals (this is the measured hot path; see the
    module docstring) and restores it on every exit, so stage state is
    authoritative between runs.
    """

    def __init__(self, machine):
        self.machine = machine
        self.fetch = FetchStage(machine)
        self.issue = IssueStage(machine)
        self.mem_port = MemPortStage(machine)
        self.sequencer = FpuSequencer(machine)

    def reset(self):
        self.issue.cpu_ready = 0
        self.mem_port.port_free = 0
        self.sequencer.last_retire_cycle = 0

    # ------------------------------------------------------------------

    def run(self, max_cycles=None, stop_cycle=None):
        """Run until HALT and the FPU drains; return a :class:`RunResult`.

        ``stop_cycle`` pauses the simulation cleanly once ``cycle``
        reaches it (no error) with all in-flight state intact; a
        subsequent ``run()`` -- or a restore of a snapshot into a fresh
        machine -- resumes from there.

        Dispatches to the fast path (:meth:`_run_fast`: quiescent-cycle
        skipping and loop memoization) when nothing needs per-cycle
        visibility; otherwise -- any event-bus subscriber, a
        ``stop_cycle``, a fault plan, per-cycle audits, or pending
        interrupts -- the per-cycle loop runs.  Both paths
        produce bit-identical architectural state, cycle counts, and
        stats (enforced by the fast-vs-slow differential fuzz mode).
        """
        machine = self.machine
        config = machine.config
        if (config.fast_path
                and stop_cycle is None
                and machine.fault_plan is None
                and not config.audit_invariants
                and not config.audit_scoreboard_ports
                and not machine._interrupts
                and not machine.events.active()):
            return self._run_fast(max_cycles)
        return self._run_slow(max_cycles, stop_cycle)

    def _run_slow(self, max_cycles=None, stop_cycle=None):
        """The reference per-cycle loop: every cycle is simulated one at
        a time, events are published, and harness hooks fire."""
        machine = self.machine
        config = machine.config
        limit = max_cycles or config.max_cycles
        stats = machine.stats
        fpu = self.sequencer.fpu
        memory = machine.memory
        memory_words = memory.raw_words
        mark = memory.mark  # stores below it skip Memory.store
        instructions = machine.program.instructions
        decoded = machine.decoded
        iregs = machine.iregs
        ireg_ready = machine.ireg_ready
        sb_bits = fpu.scoreboard.bits
        fetch_stage = self.fetch
        fetch_penalty = fetch_stage.penalty
        model_ibuffer = fetch_stage.enabled
        mem_port = self.mem_port
        dcache_access = mem_port.dcache.access
        model_tlb = mem_port.model_tlb
        tlb_translate = mem_port.tlb.translate
        store_cycles = mem_port.store_cycles
        taken_cost = config.taken_branch_cycles
        program_length = len(decoded)
        try_issue_element = fpu.try_issue_element

        # Dispatch kinds (bound late: repro.core.semantics may still be
        # initializing when this module is first imported -- see the
        # import-cycle note in that module's docstring).
        K_FALU = semantics.K_FALU
        K_FLOAD = semantics.K_FLOAD
        K_FSTORE = semantics.K_FSTORE
        K_INT_IMM = semantics.K_INT_IMM
        K_INT_BINOP = semantics.K_INT_BINOP
        K_LI = semantics.K_LI
        K_LW = semantics.K_LW
        K_SW = semantics.K_SW
        K_BRANCH = semantics.K_BRANCH
        K_J = semantics.K_J
        K_FCMP = semantics.K_FCMP
        K_NOP = semantics.K_NOP
        K_RFE = semantics.K_RFE
        K_HALT = semantics.K_HALT

        cycle = machine.cycle
        pc = machine.pc
        halted = machine.halted
        halt_cycle = None
        cpu_ready = self.issue.cpu_ready
        port_free = mem_port.port_free
        pending = fpu._pending

        bus = machine.events
        emit_alu = bus.publisher("alu")
        emit_load = bus.publisher("load")
        emit_store = bus.publisher("store")
        emit_commit = bus.publisher("commit")
        emit_retire = bus.publisher("retire")
        fpu.emit_element = bus.publisher("element")

        faults = machine.fault_plan
        audit = None
        if config.audit_invariants:
            from repro.robustness.invariants import audit_invariants
            audit = audit_invariants

        last_retire_cycle = 0
        stopped = False
        try:
            while cycle < limit:
                # -- harness hooks (no-ops unless attached) -------------
                if stop_cycle is not None and cycle >= stop_cycle:
                    stopped = True
                    break
                if faults is not None:
                    extra_stall = faults.apply(machine, cycle)
                    if extra_stall:
                        cpu_ready = max(cpu_ready, cycle + extra_stall)
                if audit is not None:
                    audit(machine, cycle)

                # -- FpuSequencer: result retirement --------------------
                if pending:
                    ready = pending.pop(cycle, None)
                    if ready:
                        values = fpu.regs.values
                        for register, value in ready:
                            values[register] = value
                            sb_bits[register] = False
                        last_retire_cycle = cycle
                        if emit_retire is not None:
                            emit_retire(RetireEvent(cycle, ready))

                # -- FpuSequencer: vector element issue -----------------
                if fpu.alu_ir is not None:
                    try_issue_element(cycle)

                # -- termination check ----------------------------------
                if halted:
                    if fpu.alu_ir is None and not pending:
                        break
                    cycle += 1
                    continue

                # -- IssueStage: may a CPU instruction issue? -----------
                if cycle < cpu_ready:
                    cycle += 1
                    continue
                if machine._interrupts and cycle >= machine._interrupts[0][0] \
                        and machine.epc is None:
                    _, handler = machine._interrupts.pop(0)
                    machine.epc = pc
                    pc = handler
                    cpu_ready = cycle + taken_cost  # pipeline redirect
                    cycle += 1
                    continue
                if pc >= program_length:
                    raise machine._error(
                        "PC %d ran off the end of the program" % pc, cycle, pc)

                # -- FetchStage: instruction delivery -------------------
                if model_ibuffer:
                    penalty = fetch_penalty(pc)
                    if penalty:
                        stats.stall_ibuf_miss_cycles += penalty
                        cpu_ready = cycle + penalty
                        cycle += 1
                        continue

                entry = decoded[pc]
                kind = entry[0]
                issue_pc = pc

                # ---- FPU ALU transfer (over the address bus) ----
                if kind == K_FALU:
                    if fpu.alu_ir is not None or cycle < fpu.alu_ir_free_cycle:
                        stats.stall_alu_ir_busy += 1
                        cycle += 1
                        continue
                    self.sequencer.accept_transfer(entry, cycle, emit_alu)
                    stats.falu_transfers += 1
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- FPU load ----
                elif kind == K_FLOAD:
                    fd, ra, offset = entry[1], entry[2], entry[3]
                    if cycle < port_free:
                        stats.stall_port += 1
                        cycle += 1
                        continue
                    # Execution constraint against the *current*
                    # (next-to-issue) element of an in-flight vector
                    # instruction (WRL 89/8 section 2.3.2); deeper
                    # overlaps are the compiler's job.
                    state = fpu.alu_ir
                    if state is not None and (
                            fd == state.rr or fd == state.ra
                            or (not state.unary and fd == state.rb)):
                        stats.stall_vector_interlock += 1
                        cycle += 1
                        continue
                    if sb_bits[fd]:
                        stats.stall_scoreboard += 1
                        cycle += 1
                        continue
                    if ireg_ready[ra] > cycle:
                        stats.stall_int_delay += 1
                        cycle += 1
                        continue
                    address = iregs[ra] + offset
                    penalty = dcache_access(address)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    effective = cycle + penalty
                    try:
                        fpu.load_write(fd, memory_words[address >> 3],
                                       effective)
                    except SimulationError as err:
                        raise machine._attach_context(err, cycle, pc,
                                                      instructions[pc])
                    if emit_load is not None:
                        emit_load(LoadIssueEvent(effective, fd))
                    stats.fpu_loads += 1
                    stats.instructions += 1
                    port_free = effective + 1
                    cpu_ready = effective + 1
                    pc += 1

                # ---- FPU store ----
                elif kind == K_FSTORE:
                    fs, ra, offset = entry[1], entry[2], entry[3]
                    if cycle < port_free:
                        stats.stall_port += 1
                        cycle += 1
                        continue
                    # Stall until the current vector element (whose
                    # result this store would read) has issued and
                    # reserved its register.
                    state = fpu.alu_ir
                    if state is not None and fs == state.rr:
                        stats.stall_vector_interlock += 1
                        cycle += 1
                        continue
                    if sb_bits[fs]:
                        stats.stall_scoreboard += 1
                        cycle += 1
                        continue
                    if ireg_ready[ra] > cycle:
                        stats.stall_int_delay += 1
                        cycle += 1
                        continue
                    address = iregs[ra] + offset
                    penalty = dcache_access(address, True)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    effective = cycle + penalty
                    try:
                        value = fpu.store_read(fs, effective)
                    except SimulationError as err:
                        raise machine._attach_context(err, cycle, pc,
                                                      instructions[pc])
                    word = address >> 3
                    if 0 <= word < mark:
                        memory_words[word] = value
                    else:
                        memory.store(address, value)
                        mark = memory.mark
                    if emit_store is not None:
                        emit_store(StoreIssueEvent(effective, fs))
                    stats.fpu_stores += 1
                    stats.instructions += 1
                    port_free = effective + store_cycles
                    cpu_ready = effective + 1
                    pc += 1

                # ---- integer ALU (register-immediate) ----
                elif kind == K_INT_IMM:
                    rd, ra, imm, op_fn = entry[1], entry[2], entry[3], entry[4]
                    if ireg_ready[ra] > cycle:
                        stats.stall_int_delay += 1
                        cycle += 1
                        continue
                    if rd:
                        iregs[rd] = op_fn(iregs[ra], imm)
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- integer ALU (three-register) ----
                elif kind == K_INT_BINOP:
                    rd, ra, rb, op_fn = entry[1], entry[2], entry[3], entry[4]
                    if ireg_ready[ra] > cycle or ireg_ready[rb] > cycle:
                        stats.stall_int_delay += 1
                        cycle += 1
                        continue
                    if rd:
                        iregs[rd] = op_fn(iregs[ra], iregs[rb])
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- load immediate ----
                elif kind == K_LI:
                    rd = entry[1]
                    if rd:
                        iregs[rd] = entry[2]
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- integer load/store ----
                elif kind == K_LW:
                    rd, ra, offset = entry[1], entry[2], entry[3]
                    if cycle < port_free:
                        stats.stall_port += 1
                        cycle += 1
                        continue
                    if ireg_ready[ra] > cycle:
                        stats.stall_int_delay += 1
                        cycle += 1
                        continue
                    address = iregs[ra] + offset
                    penalty = dcache_access(address)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    value = memory_words[address >> 3]
                    if rd:
                        iregs[rd] = int(value)
                        ireg_ready[rd] = cycle + penalty + 2  # one delay slot
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    port_free = cycle + penalty + 1
                    cpu_ready = cycle + penalty + 1
                    pc += 1

                elif kind == K_SW:
                    rs, ra, offset = entry[1], entry[2], entry[3]
                    if cycle < port_free:
                        stats.stall_port += 1
                        cycle += 1
                        continue
                    if ireg_ready[ra] > cycle or ireg_ready[rs] > cycle:
                        stats.stall_int_delay += 1
                        cycle += 1
                        continue
                    address = iregs[ra] + offset
                    penalty = dcache_access(address, True)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    word = address >> 3
                    if 0 <= word < mark:
                        memory_words[word] = iregs[rs]
                    else:
                        memory.store(address, iregs[rs])
                        mark = memory.mark
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    port_free = cycle + penalty + store_cycles
                    cpu_ready = cycle + penalty + 1
                    pc += 1

                # ---- control ----
                elif kind == K_BRANCH:
                    ra, rb, target, test = (entry[1], entry[2], entry[3],
                                            entry[4])
                    if ireg_ready[ra] > cycle or ireg_ready[rb] > cycle:
                        stats.stall_int_delay += 1
                        cycle += 1
                        continue
                    stats.instructions += 1
                    stats.branch_instructions += 1
                    if test(iregs[ra], iregs[rb]):
                        stats.taken_branches += 1
                        pc = target
                        cpu_ready = cycle + taken_cost
                    else:
                        pc += 1
                        cpu_ready = cycle + 1

                elif kind == K_J:
                    stats.instructions += 1
                    stats.branch_instructions += 1
                    stats.taken_branches += 1
                    pc = entry[1]
                    cpu_ready = cycle + taken_cost

                elif kind == K_FCMP:
                    rd, fa, fb, test = entry[1], entry[2], entry[3], entry[4]
                    state = fpu.alu_ir
                    if state is not None and (fa == state.rr
                                              or fb == state.rr):
                        stats.stall_vector_interlock += 1
                        cycle += 1
                        continue
                    if sb_bits[fa] or sb_bits[fb]:
                        stats.stall_scoreboard += 1
                        cycle += 1
                        continue
                    values = fpu.regs.values
                    if rd:
                        iregs[rd] = 1 if test(values[fa], values[fb]) else 0
                        ireg_ready[rd] = cycle + 2  # one delay slot
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                elif kind == K_NOP:
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                elif kind == K_RFE:
                    if machine.epc is None:
                        raise machine._error(
                            "rfe outside an interrupt handler",
                            cycle, pc, instructions[pc])
                    stats.instructions += 1
                    pc = machine.epc
                    machine.epc = None
                    cpu_ready = cycle + taken_cost

                elif kind == K_HALT:
                    halted = True
                    halt_cycle = cycle
                    stats.instructions += 1

                else:
                    raise machine._error(
                        "unknown opcode %d at pc %d" % (entry[1], pc),
                        cycle, pc, instructions[pc])

                if emit_commit is not None:
                    emit_commit(CommitEvent(cycle, issue_pc,
                                            instructions[issue_pc]))
                cycle += 1
        finally:
            # Stage state is authoritative between runs: write the
            # hoisted locals back even when an error propagates, so
            # diagnostics and snapshots see the faulting cycle.
            machine.cycle = cycle
            machine.pc = pc
            machine.halted = halted
            self.issue.cpu_ready = cpu_ready
            mem_port.port_free = port_free
            self.sequencer.last_retire_cycle = last_retire_cycle

        if not stopped and cycle >= limit and not halted:
            # Lazy import, like the invariants hook above: this is a cold
            # path and robustness sits on top of the core.
            from repro.core.exceptions import LivelockError
            from repro.robustness.watchdog import livelock_diagnostic
            raise machine._attach_context(
                LivelockError("simulation exceeded %d cycles; %s"
                              % (limit, livelock_diagnostic(machine))),
                cycle, pc)

        return self._build_result(halt_cycle, cycle, last_retire_cycle)

    def _build_result(self, halt_cycle, cycle, last_retire_cycle):
        """The run epilogue shared by both paths.

        The routine is complete when the CPU reached HALT *and* the last
        FPU result has been written back (a result retiring in cycle c
        is usable from cycle c, so c itself is the elapsed-cycle count).
        """
        stats = self.machine.stats
        completion = halt_cycle if halt_cycle is not None else cycle
        completion = max(completion, last_retire_cycle)
        stats.cycles = completion
        dcache = self.mem_port.dcache
        return RunResult(
            halt_cycle=halt_cycle if halt_cycle is not None else cycle,
            completion_cycle=completion,
            stats=stats,
            fpu_stats=self.sequencer.fpu.stats,
            dcache_hits=dcache.hits,
            dcache_misses=dcache.misses,
        )

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------

    @staticmethod
    def _advance_fpu(cycle, target, limit, fpu, pending, values, sb_bits):
        """Advance FPU activity from just after ``cycle`` through
        ``min(target, limit)`` during a deterministic CPU wait.

        With the sequencer idle, only due writebacks exist: they retire
        at their exact cycles (a pure jump).  With an instruction in
        flight, every cycle is stepped so elements keep issuing.  No
        work is performed at or past ``limit`` (the per-cycle loop never
        enters its body there).  Returns the cycle of the last
        retirement performed, or ``None``.
        """
        end = target if target < limit else limit
        last_key = None
        if fpu.alu_ir is None:
            while pending:
                key = min(pending)
                if key > end or key >= limit:
                    break
                ready = pending.pop(key)
                for register, value in ready:
                    values[register] = value
                    sb_bits[register] = False
                last_key = key
            return last_key
        try_issue_element = fpu.try_issue_element
        while cycle < end:
            cycle += 1
            if cycle >= limit:
                break
            ready = pending.pop(cycle, None)
            if ready:
                for register, value in ready:
                    values[register] = value
                    sb_bits[register] = False
                last_key = cycle
            if fpu.alu_ir is not None:
                try_issue_element(cycle)
        return last_key

    def _run_fast(self, max_cycles=None):
        """The unobserved fast path: bit-identical to :meth:`_run_slow`
        but coalescing work the per-cycle loop repeats.

        Two mechanisms (see DESIGN.md section 14):

        * **quiescent-cycle skipping** -- waits whose release cycle is
          already known (``cpu_ready`` holds, deterministic delay-slot
          and port waits, the post-HALT drain) jump ``cycle`` forward,
          retiring any writebacks that fall inside the skipped span at
          their exact cycles (:meth:`_advance_fpu`);
        * **steady-state loop memoization** -- once two consecutive trips
          around a loop-closing backward branch have identical effects,
          the remaining trips are applied in closed form
          (:func:`_taken_run`).

        Every instruction otherwise issues through its own arm, one per
        dispatch kind, exactly as in the per-cycle loop.  Per-cycle
        semantics that the per-cycle loop exercises as side effects are
        preserved exactly: stalled issue slots re-fetch from the
        instruction buffer (so buffer hit counters advance per spin, one
        fewer when the run dies at the cycle limit mid-wait), stall
        cycles are attributed to the same counters in the same priority
        order, and FPU retirement always precedes element issue within a
        cycle.
        """
        machine = self.machine
        config = machine.config
        limit = max_cycles or config.max_cycles
        stats = machine.stats
        fpu = self.sequencer.fpu
        memory = machine.memory
        memory_words = memory.raw_words
        mark = memory.mark  # stores below it skip Memory.store
        instructions = machine.program.instructions
        decoded = machine.decoded
        iregs = machine.iregs
        ireg_ready = machine.ireg_ready
        sb_bits = fpu.scoreboard.bits
        values = fpu.regs.values
        fetch_stage = self.fetch
        fetch_penalty = fetch_stage.penalty
        model_ibuffer = fetch_stage.enabled
        ibuf = fetch_stage.ibuf
        mem_port = self.mem_port
        dcache_access = mem_port.dcache.access
        model_tlb = mem_port.model_tlb
        tlb_translate = mem_port.tlb.translate
        store_cycles = mem_port.store_cycles
        taken_cost = config.taken_branch_cycles
        program_length = len(decoded)
        try_issue_element = fpu.try_issue_element
        fpu_stats = fpu.stats
        dcache = mem_port.dcache

        K_FALU = semantics.K_FALU
        K_FLOAD = semantics.K_FLOAD
        K_FSTORE = semantics.K_FSTORE
        K_INT_IMM = semantics.K_INT_IMM
        K_INT_BINOP = semantics.K_INT_BINOP
        K_LI = semantics.K_LI
        K_LW = semantics.K_LW
        K_SW = semantics.K_SW
        K_BRANCH = semantics.K_BRANCH
        K_J = semantics.K_J
        K_FCMP = semantics.K_FCMP
        K_NOP = semantics.K_NOP
        K_RFE = semantics.K_RFE
        K_HALT = semantics.K_HALT

        cycle = machine.cycle
        pc = machine.pc
        halted = machine.halted
        halt_cycle = None
        cpu_ready = self.issue.cpu_ready
        port_free = mem_port.port_free
        pending = fpu._pending

        # No observers by construction (run() dispatched here because the
        # bus is silent), so no publishers are resolved at all.
        fpu.emit_element = None

        # Above this cycle no integer register is inside a delay slot;
        # memoization engages only there, so no bulk jump can carry an
        # absolute ``ireg_ready`` cycle along.
        ireg_horizon = max(ireg_ready)

        # -- steady-state loop memoization ----------------------------
        # The limiting form of quiescent-cycle skipping: when two
        # consecutive trips around a loop-closing backward branch have
        # identical effects (FPU registers at a fixed point, identical
        # relative timing, constant integer-register deltas, zero cache
        # misses, idempotent stores, a straight-line body whose memory
        # addresses do not move), the remaining trip count follows from
        # the branch test in closed form and the skipped iterations
        # collapse into one bulk counter update.  Every condition below
        # is load-bearing; see DESIGN.md section 14.
        memo_pc = -1  # loop-head pc under observation
        memo_prev = None  # head snapshot from the previous visit
        memo_delta = None  # per-iteration delta awaiting confirmation
        memo_clean = True  # no non-idempotent store since last head
        memo_fails = 0
        memo_dead = -1  # head pc given up on (hot non-memoizable loop)
        memo_counters = (
            (stats, "instructions"),
            (stats, "integer_instructions"),
            (stats, "branch_instructions"),
            (stats, "taken_branches"),
            (stats, "fpu_loads"),
            (stats, "fpu_stores"),
            (stats, "falu_transfers"),
            (stats, "stall_alu_ir_busy"),
            (stats, "stall_scoreboard"),
            (stats, "stall_vector_interlock"),
            (stats, "stall_port"),
            (stats, "stall_int_delay"),
            (stats, "stall_dcache_miss_cycles"),
            (stats, "stall_ibuf_miss_cycles"),
            (fpu_stats, "elements_issued"),
            (fpu_stats, "flops"),
            (fpu_stats, "alu_instructions"),
            (fpu_stats, "vector_instructions"),
            (fpu_stats, "scoreboard_stall_cycles"),
            (fpu_stats, "loads"),
            (fpu_stats, "stores"),
            (dcache, "hits"),
            (ibuf, "hits"),
            (machine, "_alu_seq"),
        ) + tuple((unit, "issue_count") for unit in fpu.units.values())
        memo_body_safe = frozenset((K_INT_IMM, K_INT_BINOP, K_LI, K_NOP,
                                    K_FCMP, K_FALU))

        def _memo_head(head_pc, branch_pc, test, t_ra, t_rb,
                       cycle_now, cpu_ready_now, port_free_now, lr_now):
            """One observation of a taken loop-closing branch.

            Returns ``(jump, pf_jump, lr_jump)``: cycles to add to
            ``cycle`` / ``cpu_ready``, to ``port_free`` and to
            ``last_retire_cycle`` (all zero until a steady state is
            confirmed twice).  ``port_free`` and ``last_retire_cycle``
            get their own jumps because a body without stores (or
            retirements) leaves them frozen on the per-cycle path while
            ``cycle`` advances.
            """
            nonlocal memo_pc, memo_prev, memo_delta, memo_clean
            nonlocal memo_fails, memo_dead
            clean = memo_clean
            memo_clean = True
            snap = (
                tuple(iregs),
                tuple(values),
                cpu_ready_now - cycle_now,
                port_free_now,
                dcache.misses,
                ibuf.misses,
                fpu_stats.overflow_aborts,
                len(fpu.hazard_warnings),
                len(memory_words),
                tuple([getattr(obj, name) for obj, name in memo_counters]),
                cycle_now,
                lr_now,
            )
            if memo_pc != head_pc or memo_prev is None:
                if memo_pc != head_pc:
                    memo_fails = 0
                memo_pc = head_pc
                memo_prev = snap
                memo_delta = None
                return 0, 0, 0
            prev = memo_prev
            memo_prev = snap
            span = cycle_now - prev[10]
            lr_d = lr_now - prev[11]
            pf_d = port_free_now - prev[3]
            if (not clean or span <= 0
                    or snap[1] != prev[1]  # FPU regs at a fixed point
                    or snap[2] != prev[2]  # same relative waits
                    or snap[4] != prev[4]  # no cache misses, aborts,
                    or snap[5] != prev[5]  # hazard warnings or memory
                    or snap[6] != prev[6]  # growth inside the trip
                    or snap[7] != prev[7]
                    or snap[8] != prev[8]
                    or (lr_d != 0 and lr_d != span)
                    or (pf_d != 0 and pf_d != span)):
                memo_delta = None
                memo_fails += 1
                if memo_fails >= 8:
                    memo_dead = head_pc
                return 0, 0, 0
            prev_ir = prev[0]
            new_ir = snap[0]
            if prev_ir == new_ir:
                ireg_deltas = ()
            else:
                ireg_deltas = tuple(
                    [(index, after - before) for index, (before, after)
                     in enumerate(zip(prev_ir, new_ir)) if before != after])
            counter_deltas = tuple(
                [after - before for before, after in zip(prev[9], snap[9])])
            delta = (span, lr_d, pf_d, ireg_deltas, counter_deltas)
            if delta != memo_delta:
                unconfirmed = memo_delta is None
                memo_delta = delta
                if not unconfirmed:
                    memo_fails += 1
                    if memo_fails >= 8:
                        memo_dead = head_pc
                return 0, 0, 0
            # Confirmed twice.  The trip must be the straight-line body
            # [head_pc, branch_pc] executed exactly once with this
            # branch as its only control transfer; then the only
            # iteration-varying inputs are the linearly-moving integer
            # registers, and the body scan proves no memory address or
            # stored integer depends on one of those.
            if (counter_deltas[2] != 1  # branch_instructions
                    or counter_deltas[3] != 1  # taken_branches
                    or counter_deltas[0] != branch_pc - head_pc + 1):
                memo_fails += 1
                if memo_fails >= 8:
                    memo_dead = head_pc
                return 0, 0, 0
            moved = dict(ireg_deltas)
            for body_pc in range(head_pc, branch_pc):
                body_entry = decoded[body_pc]
                body_kind = body_entry[0]
                if body_kind in memo_body_safe:
                    continue
                if body_kind == K_FLOAD or body_kind == K_LW:
                    if moved.get(body_entry[2]):
                        break
                elif body_kind == K_FSTORE:
                    if moved.get(body_entry[2]):
                        break
                elif body_kind == K_SW:
                    if moved.get(body_entry[1]) or moved.get(body_entry[2]):
                        break
                else:
                    break
            else:
                cap = (limit - span - cycle_now) // span
                if cap <= 0:
                    return 0, 0, 0
                e = moved.get(t_ra, 0) - moved.get(t_rb, 0)
                k = _taken_run(test, iregs[t_ra] - iregs[t_rb], e, cap)
                if k <= 0:
                    return 0, 0, 0
                for index, d in ireg_deltas:
                    iregs[index] += k * d
                for pair, d in zip(memo_counters, counter_deltas):
                    if d:
                        obj, name = pair
                        setattr(obj, name, getattr(obj, name) + k * d)
                memo_prev = None
                jump = k * span
                return (jump, jump if pf_d else 0, jump if lr_d else 0)
            memo_fails += 1
            if memo_fails >= 8:
                memo_dead = head_pc
            return 0, 0, 0

        last_retire_cycle = 0
        limit_hit = False
        try:
            while cycle < limit:
                # -- FpuSequencer: retirement, then element issue -------
                if pending:
                    ready = pending.pop(cycle, None)
                    if ready:
                        for register, value in ready:
                            values[register] = value
                            sb_bits[register] = False
                        last_retire_cycle = cycle
                if fpu.alu_ir is not None:
                    try_issue_element(cycle)

                # -- termination: HALT reached, drain the FPU -----------
                if halted:
                    if fpu.alu_ir is not None:
                        cycle += 1
                        continue
                    if not pending:
                        break
                    target = min(pending)
                    cycle = target if target < limit else limit
                    continue

                # -- IssueStage: known-length wait for cpu_ready --------
                if cycle < cpu_ready:
                    if fpu.alu_ir is not None:
                        cycle += 1
                        continue
                    target = cpu_ready
                    if pending:
                        key = min(pending)
                        if key < target:
                            target = key
                    cycle = target if target < limit else limit
                    continue
                if pc >= program_length:
                    raise machine._error(
                        "PC %d ran off the end of the program" % pc, cycle, pc)

                # -- FetchStage: instruction delivery -------------------
                if model_ibuffer:
                    penalty = fetch_penalty(pc)
                    if penalty:
                        stats.stall_ibuf_miss_cycles += penalty
                        cpu_ready = cycle + penalty
                        cycle += 1
                        continue

                entry = decoded[pc]
                kind = entry[0]

                # ---- FPU ALU transfer ----
                if kind == K_FALU:
                    if fpu.alu_ir is not None or cycle < fpu.alu_ir_free_cycle:
                        stalls = 0
                        limit_hit = False
                        while True:
                            if (fpu.alu_ir is None
                                    and cycle >= fpu.alu_ir_free_cycle):
                                break
                            stalls += 1
                            cycle += 1
                            if cycle >= limit:
                                limit_hit = True
                                break
                            ready = pending.pop(cycle, None)
                            if ready:
                                for register, value in ready:
                                    values[register] = value
                                    sb_bits[register] = False
                                last_retire_cycle = cycle
                            if fpu.alu_ir is not None:
                                try_issue_element(cycle)
                        stats.stall_alu_ir_busy += stalls
                        if model_ibuffer:
                            ibuf.hits += stalls - 1 if limit_hit else stalls
                        if limit_hit:
                            break
                    self.sequencer.accept_transfer(entry, cycle, None)
                    stats.falu_transfers += 1
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- FPU load ----
                elif kind == K_FLOAD:
                    fd, ra, offset = entry[1], entry[2], entry[3]
                    state = fpu.alu_ir
                    if (cycle < port_free
                            or (state is not None
                                and (fd == state.rr or fd == state.ra
                                     or (not state.unary and fd == state.rb)))
                            or sb_bits[fd] or ireg_ready[ra] > cycle):
                        port_stalls = interlock_stalls = 0
                        sb_stalls = int_stalls = 0
                        limit_hit = False
                        while True:
                            if fpu.alu_ir is None and not pending:
                                # Deterministic remainder: the port and
                                # the delay slot release at known cycles
                                # and nothing can re-block them.
                                if cycle < port_free:
                                    target = (port_free if port_free < limit
                                              else limit)
                                    port_stalls += target - cycle
                                    cycle = target
                                    if cycle >= limit:
                                        limit_hit = True
                                        break
                                if ireg_ready[ra] > cycle:
                                    target = ireg_ready[ra]
                                    if target > limit:
                                        target = limit
                                    int_stalls += target - cycle
                                    cycle = target
                                    if cycle >= limit:
                                        limit_hit = True
                                        break
                                break
                            if cycle < port_free:
                                port_stalls += 1
                            else:
                                state = fpu.alu_ir
                                if (state is not None
                                        and (fd == state.rr or fd == state.ra
                                             or (not state.unary
                                                 and fd == state.rb))):
                                    interlock_stalls += 1
                                elif sb_bits[fd]:
                                    sb_stalls += 1
                                elif ireg_ready[ra] > cycle:
                                    int_stalls += 1
                                else:
                                    break
                            cycle += 1
                            if cycle >= limit:
                                limit_hit = True
                                break
                            ready = pending.pop(cycle, None)
                            if ready:
                                for register, value in ready:
                                    values[register] = value
                                    sb_bits[register] = False
                                last_retire_cycle = cycle
                            if fpu.alu_ir is not None:
                                try_issue_element(cycle)
                        stats.stall_port += port_stalls
                        stats.stall_vector_interlock += interlock_stalls
                        stats.stall_scoreboard += sb_stalls
                        stats.stall_int_delay += int_stalls
                        if model_ibuffer:
                            spins = (port_stalls + interlock_stalls
                                     + sb_stalls + int_stalls)
                            ibuf.hits += spins - 1 if limit_hit else spins
                        if limit_hit:
                            break
                    address = iregs[ra] + offset
                    penalty = dcache_access(address)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    effective = cycle + penalty
                    try:
                        fpu.load_write(fd, memory_words[address >> 3],
                                       effective)
                    except SimulationError as err:
                        raise machine._attach_context(err, cycle, pc,
                                                      instructions[pc])
                    stats.fpu_loads += 1
                    stats.instructions += 1
                    port_free = effective + 1
                    cpu_ready = effective + 1
                    pc += 1

                # ---- FPU store ----
                elif kind == K_FSTORE:
                    fs, ra, offset = entry[1], entry[2], entry[3]
                    state = fpu.alu_ir
                    if (cycle < port_free
                            or (state is not None and fs == state.rr)
                            or sb_bits[fs] or ireg_ready[ra] > cycle):
                        port_stalls = interlock_stalls = 0
                        sb_stalls = int_stalls = 0
                        limit_hit = False
                        while True:
                            if fpu.alu_ir is None and not pending:
                                if cycle < port_free:
                                    target = (port_free if port_free < limit
                                              else limit)
                                    port_stalls += target - cycle
                                    cycle = target
                                    if cycle >= limit:
                                        limit_hit = True
                                        break
                                if ireg_ready[ra] > cycle:
                                    target = ireg_ready[ra]
                                    if target > limit:
                                        target = limit
                                    int_stalls += target - cycle
                                    cycle = target
                                    if cycle >= limit:
                                        limit_hit = True
                                        break
                                break
                            if cycle < port_free:
                                port_stalls += 1
                            else:
                                state = fpu.alu_ir
                                if state is not None and fs == state.rr:
                                    interlock_stalls += 1
                                elif sb_bits[fs]:
                                    sb_stalls += 1
                                elif ireg_ready[ra] > cycle:
                                    int_stalls += 1
                                else:
                                    break
                            cycle += 1
                            if cycle >= limit:
                                limit_hit = True
                                break
                            ready = pending.pop(cycle, None)
                            if ready:
                                for register, value in ready:
                                    values[register] = value
                                    sb_bits[register] = False
                                last_retire_cycle = cycle
                            if fpu.alu_ir is not None:
                                try_issue_element(cycle)
                        stats.stall_port += port_stalls
                        stats.stall_vector_interlock += interlock_stalls
                        stats.stall_scoreboard += sb_stalls
                        stats.stall_int_delay += int_stalls
                        if model_ibuffer:
                            spins = (port_stalls + interlock_stalls
                                     + sb_stalls + int_stalls)
                            ibuf.hits += spins - 1 if limit_hit else spins
                        if limit_hit:
                            break
                    address = iregs[ra] + offset
                    penalty = dcache_access(address, True)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    effective = cycle + penalty
                    try:
                        value = fpu.store_read(fs, effective)
                    except SimulationError as err:
                        raise machine._attach_context(err, cycle, pc,
                                                      instructions[pc])
                    word = address >> 3
                    if not 0 <= word < mark:
                        memo_clean = False
                        memory.store(address, value)
                        mark = memory.mark
                    else:
                        old = memory_words[word]
                        if old is not value and not (
                                type(old) is type(value)
                                and old == value and value != 0):
                            memo_clean = False
                        memory_words[word] = value
                    stats.fpu_stores += 1
                    stats.instructions += 1
                    port_free = effective + store_cycles
                    cpu_ready = effective + 1
                    pc += 1

                # ---- integer ALU (register-immediate) ----
                elif kind == K_INT_IMM:
                    rd, ra, imm, op_fn = entry[1], entry[2], entry[3], entry[4]
                    if ireg_ready[ra] > cycle:
                        target = ireg_ready[ra]
                        last_key = self._advance_fpu(cycle, target, limit,
                                                     fpu, pending, values,
                                                     sb_bits)
                        if last_key is not None:
                            last_retire_cycle = last_key
                        if target >= limit:
                            stats.stall_int_delay += limit - cycle
                            if model_ibuffer:
                                ibuf.hits += limit - cycle - 1
                            cycle = limit
                            break
                        stats.stall_int_delay += target - cycle
                        if model_ibuffer:
                            ibuf.hits += target - cycle
                        cycle = target
                    if rd:
                        iregs[rd] = op_fn(iregs[ra], imm)
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- integer ALU (three-register) ----
                elif kind == K_INT_BINOP:
                    rd, ra, rb, op_fn = entry[1], entry[2], entry[3], entry[4]
                    if ireg_ready[ra] > cycle or ireg_ready[rb] > cycle:
                        target = ireg_ready[ra]
                        if ireg_ready[rb] > target:
                            target = ireg_ready[rb]
                        last_key = self._advance_fpu(cycle, target, limit,
                                                     fpu, pending, values,
                                                     sb_bits)
                        if last_key is not None:
                            last_retire_cycle = last_key
                        if target >= limit:
                            stats.stall_int_delay += limit - cycle
                            if model_ibuffer:
                                ibuf.hits += limit - cycle - 1
                            cycle = limit
                            break
                        stats.stall_int_delay += target - cycle
                        if model_ibuffer:
                            ibuf.hits += target - cycle
                        cycle = target
                    if rd:
                        iregs[rd] = op_fn(iregs[ra], iregs[rb])
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- load immediate ----
                elif kind == K_LI:
                    rd = entry[1]
                    if rd:
                        iregs[rd] = entry[2]
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                # ---- integer load/store ----
                elif kind == K_LW:
                    rd, ra, offset = entry[1], entry[2], entry[3]
                    if cycle < port_free or ireg_ready[ra] > cycle:
                        # Both releases are deterministic; the slow loop
                        # charges the port first, then the delay slot.
                        release = port_free if port_free > cycle else cycle
                        port_stalls = release - cycle
                        end = release
                        int_stalls = 0
                        if ireg_ready[ra] > release:
                            int_stalls = ireg_ready[ra] - release
                            end = ireg_ready[ra]
                        last_key = self._advance_fpu(cycle, end, limit, fpu,
                                                     pending, values, sb_bits)
                        if last_key is not None:
                            last_retire_cycle = last_key
                        if end >= limit:
                            span = limit - cycle
                            clipped = (port_stalls if port_stalls < span
                                       else span)
                            stats.stall_port += clipped
                            stats.stall_int_delay += span - clipped
                            if model_ibuffer:
                                ibuf.hits += span - 1
                            cycle = limit
                            break
                        stats.stall_port += port_stalls
                        stats.stall_int_delay += int_stalls
                        if model_ibuffer:
                            ibuf.hits += port_stalls + int_stalls
                        cycle = end
                    address = iregs[ra] + offset
                    penalty = dcache_access(address)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    value = memory_words[address >> 3]
                    if rd:
                        iregs[rd] = int(value)
                        ready_at = cycle + penalty + 2  # one delay slot
                        ireg_ready[rd] = ready_at
                        if ready_at > ireg_horizon:
                            ireg_horizon = ready_at
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    port_free = cycle + penalty + 1
                    cpu_ready = cycle + penalty + 1
                    pc += 1

                elif kind == K_SW:
                    rs, ra, offset = entry[1], entry[2], entry[3]
                    if (cycle < port_free or ireg_ready[ra] > cycle
                            or ireg_ready[rs] > cycle):
                        release = port_free if port_free > cycle else cycle
                        port_stalls = release - cycle
                        int_release = ireg_ready[ra]
                        if ireg_ready[rs] > int_release:
                            int_release = ireg_ready[rs]
                        end = release
                        int_stalls = 0
                        if int_release > release:
                            int_stalls = int_release - release
                            end = int_release
                        last_key = self._advance_fpu(cycle, end, limit, fpu,
                                                     pending, values, sb_bits)
                        if last_key is not None:
                            last_retire_cycle = last_key
                        if end >= limit:
                            span = limit - cycle
                            clipped = (port_stalls if port_stalls < span
                                       else span)
                            stats.stall_port += clipped
                            stats.stall_int_delay += span - clipped
                            if model_ibuffer:
                                ibuf.hits += span - 1
                            cycle = limit
                            break
                        stats.stall_port += port_stalls
                        stats.stall_int_delay += int_stalls
                        if model_ibuffer:
                            ibuf.hits += port_stalls + int_stalls
                        cycle = end
                    address = iregs[ra] + offset
                    penalty = dcache_access(address, True)
                    if model_tlb:
                        penalty += tlb_translate(address)
                    if penalty:
                        stats.stall_dcache_miss_cycles += penalty
                    word = address >> 3
                    value = iregs[rs]
                    if not 0 <= word < mark:
                        memo_clean = False
                        memory.store(address, value)
                        mark = memory.mark
                    else:
                        old = memory_words[word]
                        if old is not value and not (
                                type(old) is type(value)
                                and old == value and value != 0):
                            memo_clean = False
                        memory_words[word] = value
                    stats.instructions += 1
                    stats.integer_instructions += 1
                    port_free = cycle + penalty + store_cycles
                    cpu_ready = cycle + penalty + 1
                    pc += 1

                # ---- control ----
                elif kind == K_BRANCH:
                    ra, rb, target_pc, test = (entry[1], entry[2], entry[3],
                                               entry[4])
                    if ireg_ready[ra] > cycle or ireg_ready[rb] > cycle:
                        target = ireg_ready[ra]
                        if ireg_ready[rb] > target:
                            target = ireg_ready[rb]
                        last_key = self._advance_fpu(cycle, target, limit,
                                                     fpu, pending, values,
                                                     sb_bits)
                        if last_key is not None:
                            last_retire_cycle = last_key
                        if target >= limit:
                            stats.stall_int_delay += limit - cycle
                            if model_ibuffer:
                                ibuf.hits += limit - cycle - 1
                            cycle = limit
                            break
                        stats.stall_int_delay += target - cycle
                        if model_ibuffer:
                            ibuf.hits += target - cycle
                        cycle = target
                    stats.instructions += 1
                    stats.branch_instructions += 1
                    if test(iregs[ra], iregs[rb]):
                        stats.taken_branches += 1
                        branch_at = pc
                        pc = target_pc
                        cpu_ready = cycle + taken_cost
                        if target_pc <= branch_at and target_pc != memo_dead:
                            cycle += 1
                            if (fpu.alu_ir is None and not pending
                                    and fpu.aborted_ir is None
                                    and not model_tlb
                                    and cycle >= ireg_horizon):
                                jump, pf_jump, lr_jump = _memo_head(
                                    target_pc, branch_at, test, ra, rb,
                                    cycle, cpu_ready, port_free,
                                    last_retire_cycle)
                                if jump:
                                    cycle += jump
                                    cpu_ready += jump
                                    port_free += pf_jump
                                    last_retire_cycle += lr_jump
                            else:
                                memo_prev = None
                            continue
                    else:
                        pc += 1
                        cpu_ready = cycle + 1

                elif kind == K_J:
                    stats.instructions += 1
                    stats.branch_instructions += 1
                    stats.taken_branches += 1
                    pc = entry[1]
                    cpu_ready = cycle + taken_cost

                elif kind == K_FCMP:
                    rd, fa, fb, test = entry[1], entry[2], entry[3], entry[4]
                    state = fpu.alu_ir
                    if ((state is not None
                         and (fa == state.rr or fb == state.rr))
                            or sb_bits[fa] or sb_bits[fb]):
                        interlock_stalls = sb_stalls = 0
                        limit_hit = False
                        while True:
                            state = fpu.alu_ir
                            if (state is not None
                                    and (fa == state.rr or fb == state.rr)):
                                interlock_stalls += 1
                            elif sb_bits[fa] or sb_bits[fb]:
                                sb_stalls += 1
                            else:
                                break
                            cycle += 1
                            if cycle >= limit:
                                limit_hit = True
                                break
                            ready = pending.pop(cycle, None)
                            if ready:
                                for register, value in ready:
                                    values[register] = value
                                    sb_bits[register] = False
                                last_retire_cycle = cycle
                            if fpu.alu_ir is not None:
                                try_issue_element(cycle)
                        stats.stall_vector_interlock += interlock_stalls
                        stats.stall_scoreboard += sb_stalls
                        if model_ibuffer:
                            spins = interlock_stalls + sb_stalls
                            ibuf.hits += spins - 1 if limit_hit else spins
                        if limit_hit:
                            break
                    if rd:
                        iregs[rd] = 1 if test(values[fa], values[fb]) else 0
                        ready_at = cycle + 2  # one delay slot
                        ireg_ready[rd] = ready_at
                        if ready_at > ireg_horizon:
                            ireg_horizon = ready_at
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                elif kind == K_NOP:
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                elif kind == K_RFE:
                    if machine.epc is None:
                        raise machine._error(
                            "rfe outside an interrupt handler",
                            cycle, pc, instructions[pc])
                    stats.instructions += 1
                    pc = machine.epc
                    machine.epc = None
                    cpu_ready = cycle + taken_cost

                elif kind == K_HALT:
                    halted = True
                    halt_cycle = cycle
                    stats.instructions += 1

                else:
                    raise machine._error(
                        "unknown opcode %d at pc %d" % (entry[1], pc),
                        cycle, pc, instructions[pc])

                cycle += 1
        finally:
            machine.cycle = cycle
            machine.pc = pc
            machine.halted = halted
            self.issue.cpu_ready = cpu_ready
            mem_port.port_free = port_free
            self.sequencer.last_retire_cycle = last_retire_cycle

        if cycle >= limit and not halted:
            from repro.core.exceptions import LivelockError
            from repro.robustness.watchdog import livelock_diagnostic
            raise machine._attach_context(
                LivelockError("simulation exceeded %d cycles; %s"
                              % (limit, livelock_diagnostic(machine))),
                cycle, pc)

        return self._build_result(halt_cycle, cycle, last_retire_cycle)
