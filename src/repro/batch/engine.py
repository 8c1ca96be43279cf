"""The struct-of-arrays fleet engine behind the ``soa`` backend.

Layout
------
A :class:`SoaFleet` owns N *lanes* over one shared, predecoded program.
All architectural state lives in NumPy arrays with a leading batch
axis, ``object`` dtype so every element keeps its exact Python type
(the cross-backend oracle compares states type-strictly: a
``numpy.int64`` where ``percycle`` holds an ``int`` is a divergence):

* ``fregs``/``sb_bits`` -- (N, 52) FP register file and scoreboard
  reservation bits;
* ``iregs``/``ireg_ready`` -- (N, 32) integer registers and their
  delay-slot ready cycles (lanes expose live row views, so workload
  setup code can write ``machine.iregs[k]`` as it does on MultiTitan);
* ``psw_overflow``/``psw_dest``/``psw_element`` -- (N,) PSW fields;
* pending FPU writebacks -- (N, S) slot arrays (retire cycle, register,
  value) plus a per-lane slot count, grown by doubling;
* per-lane scalars (cycle, pc, halted, cpu_ready, port_free, ...) --
  (N,) arrays.

Per-lane *non-architectural* machinery stays as ordinary objects built
with the exact MultiTitan recipe: data cache, instruction buffer,
external icache, TLB, memory image and a :class:`MachineStats` record.

Execution
---------
Each lane advance rebinds a per-lane :class:`repro.core.fpu.Fpu` shell
onto the lane's hoisted rows (register list, scoreboard bits, pending
dict, ALU IR) and then runs a transcription of the reference per-cycle
loop (``ExecutionCore._run_slow``) with the event/fault/audit/interrupt
hooks removed -- the real ``Fpu`` methods (element issue, load/store
hazard checks, overflow restart) run unmodified on the hoisted state,
so FPU semantics cannot drift from the scalar core.  Two
state-identical accelerations from the fast path are kept (the halted
writeback drain and the known-length ``cpu_ready`` wait), each clamped
to any stop/pause bound.

Lanes that HALT, fault, or pause are simply not advanced further --
masked out of the fleet loop, never unbatched.  Lockstep slicing
(``run_all(slice_cycles=...)``) advances every live lane to a common
pause cycle per round.

Unsupported MultiTitan features fail loudly: per-cycle observation
(``trace``/``audit_invariants``/``audit_scoreboard_ports``) at fleet
construction, fault plans and event subscribers at ``run()``.
"""

import numpy as np

from repro.core import semantics
from repro.core.backend import ExecutionBackend
from repro.core.encoding import NUM_REGISTERS
from repro.core.events import EventBus
from repro.core.exceptions import SimulationError
from repro.core.fpu import Fpu, _AluState
from repro.cpu import isa
from repro.cpu.machine import MachineConfig, MultiTitan
from repro.cpu.pipeline import ExecutionCore, MachineStats, RunResult
from repro.mem.cache import DirectMappedCache, data_cache, instruction_buffer
from repro.mem.memory import Memory
from repro.mem.tlb import Tlb

__all__ = ["SoaFleet", "SoaLane", "create_soa_machine"]

#: MachineConfig flags the batched engine cannot honour (they need the
#: per-cycle hook points the scalar core provides).
_UNSUPPORTED_FLAGS = ("trace", "audit_invariants", "audit_scoreboard_ports")

#: Initial pending-writeback slot capacity per lane (grown by doubling;
#: one slot per in-flight FPU result, so VL=16 fits without a regrow).
_PENDING_SLOTS = 16


def _object_row(n, columns, fill):
    array = np.empty((n, columns), dtype=object)
    array[...] = fill
    return array


def _object_vec(n, fill):
    array = np.empty(n, dtype=object)
    array[...] = fill
    return array


class _LaneShell:
    """A minimal machine facade over one hoisted lane, just enough for
    the real :class:`repro.cpu.pipeline.ExecutionCore` fast path.

    Unbounded lane runs (no stop/pause cycle) do not need the per-cycle
    transcription at all: ``ExecutionCore._run_fast`` reads only plain
    machine attributes (config/program/decoded/memory, the cache and
    FPU objects, ``cycle``/``pc``/``halted``/``epc``/``_alu_seq``, the
    integer register lists and a stats record) and writes its exit
    state back to ``cycle``/``pc``/``halted`` plus the three stage
    attributes.  The fleet hoists a lane into this shell, drives the
    *unmodified* core -- quiescent-cycle skipping and loop memoization
    -- and scatters the shell back into the arrays, so the batched fast
    path cannot drift from ``fastpath`` (whose bit-exactness against
    ``percycle`` the equivalence fuzz job enforces).
    """

    _attach_context = staticmethod(MultiTitan._attach_context)
    _error = MultiTitan._error

    def __init__(self, fleet, index):
        self.config = fleet.configs[index]
        self.program = fleet.program
        self.decoded = fleet.decoded
        self.memory = fleet.memories[index]
        self.fpu = fleet._fpus[index]
        self.dcache = fleet.dcaches[index]
        self.ibuf = fleet.ibufs[index]
        self.icache = fleet.icaches[index]
        self.tlb = fleet.tlbs[index]
        self.stats = fleet._stats[index]
        self.iregs = []
        self.ireg_ready = []
        self.cycle = 0
        self.pc = 0
        self.halted = False
        self.epc = None
        self._alu_seq = 0


class SoaFleet:
    """N machines over one shared program, state struct-of-arrays."""

    def __init__(self, program, configs, memories=None):
        if not configs:
            raise ValueError("a SoaFleet needs at least one lane config")
        self.program = program
        self.decoded = program.decoded
        self.configs = [(config if config is not None
                         else MachineConfig()).validate()
                        for config in configs]
        checked_vl = set()
        for config in self.configs:
            for flag in _UNSUPPORTED_FLAGS:
                if getattr(config, flag):
                    raise SimulationError(
                        "the soa backend does not support MachineConfig."
                        "%s: per-cycle observation needs the percycle "
                        "backend" % flag)
            if config.max_vl not in checked_vl:
                checked_vl.add(config.max_vl)
                semantics.check_vector_lengths(program.decoded,
                                               config.max_vl)
        n = self.n_lanes = len(self.configs)

        if memories is None:
            memories = [None] * n
        if len(memories) != n:
            raise ValueError("got %d memories for %d lanes"
                             % (len(memories), n))
        self.memories = [memory if memory is not None else Memory()
                         for memory in memories]

        # Per-lane microarchitecture, the exact MultiTitan.__init__
        # recipe (so cache state_dicts match percycle bit-for-bit).
        self._fpus = []
        self.dcaches = []
        self.ibufs = []
        self.icaches = []
        self.tlbs = []
        for config in self.configs:
            fpu = Fpu(latency=config.fpu_latency,
                      strict_hazards=config.strict_hazards,
                      audit_ports=False)
            self._fpus.append(fpu)
            dcache = data_cache(config.dcache_miss_penalty)
            dcache.size_bytes = config.dcache_size
            dcache.line_bytes = config.dcache_line
            dcache.num_lines = config.dcache_size // config.dcache_line
            dcache.flush()
            self.dcaches.append(dcache)
            ibuf = instruction_buffer(config.ibuf_miss_penalty)
            ibuf.size_bytes = config.ibuf_size
            ibuf.line_bytes = config.ibuf_line
            ibuf.num_lines = config.ibuf_size // config.ibuf_line
            ibuf.flush()
            self.ibufs.append(ibuf)
            self.tlbs.append(Tlb(miss_penalty=config.tlb_miss_penalty))
            self.icaches.append(DirectMappedCache(
                config.icache_size, config.ibuf_line,
                miss_penalty=config.ibuf_miss_penalty,
                name="instruction-L2"))
        self._stats = [MachineStats() for _ in range(n)]

        # -- the struct-of-arrays state ---------------------------------
        self.fregs = _object_row(n, NUM_REGISTERS, 0.0)
        self.sb_bits = _object_row(n, NUM_REGISTERS, False)
        self.iregs = _object_row(n, isa.NUM_INT_REGISTERS, 0)
        self.ireg_ready = _object_row(n, isa.NUM_INT_REGISTERS, 0)
        self.psw_overflow = _object_vec(n, False)
        self.psw_dest = _object_vec(n, None)
        self.psw_element = _object_vec(n, None)
        self._pend_cycle = np.empty((n, _PENDING_SLOTS), dtype=object)
        self._pend_reg = np.empty((n, _PENDING_SLOTS), dtype=object)
        self._pend_val = np.empty((n, _PENDING_SLOTS), dtype=object)
        self._pend_count = np.zeros(n, dtype=np.int64)
        self.alu_ir = _object_vec(n, None)
        self.aborted_ir = _object_vec(n, None)
        self.ir_free = _object_vec(n, 0)
        self.cycle = _object_vec(n, 0)
        self.pc = _object_vec(n, 0)
        self.halted = _object_vec(n, False)
        self.cpu_ready = _object_vec(n, 0)
        self.port_free = _object_vec(n, 0)
        self.alu_seq = _object_vec(n, 0)
        self.epc = _object_vec(n, None)
        self.halt_cycle = _object_vec(n, None)
        self.last_retire = _object_vec(n, 0)
        self.stopped = _object_vec(n, False)

        self.lanes = [SoaLane(self, index) for index in range(n)]

        # Lazily-built per-lane shells for the real fast path (see
        # _advance_lane_fast); most lanes of a lockstep fleet never
        # need one.
        self._shells = [None] * n
        self._cores = [None] * n

    # ------------------------------------------------------------------
    # Pending-writeback slot arrays <-> the Fpu's {cycle: [(reg, value)]}
    # ------------------------------------------------------------------

    def _pending_of(self, index):
        pending = {}
        row_cycle = self._pend_cycle[index]
        row_reg = self._pend_reg[index]
        row_val = self._pend_val[index]
        for slot in range(int(self._pend_count[index])):
            key = row_cycle[slot]
            writes = pending.get(key)
            if writes is None:
                pending[key] = writes = []
            writes.append((row_reg[slot], row_val[slot]))
        return pending

    def _store_pending(self, index, pending):
        total = sum(len(writes) for writes in pending.values())
        if total > self._pend_cycle.shape[1]:
            self._grow_pending(total)
        row_cycle = self._pend_cycle[index]
        row_reg = self._pend_reg[index]
        row_val = self._pend_val[index]
        slot = 0
        for key, writes in pending.items():
            for register, value in writes:
                row_cycle[slot] = key
                row_reg[slot] = register
                row_val[slot] = value
                slot += 1
        self._pend_count[index] = total

    def _grow_pending(self, capacity):
        slots = self._pend_cycle.shape[1]
        while slots < capacity:
            slots *= 2
        for name in ("_pend_cycle", "_pend_reg", "_pend_val"):
            old = getattr(self, name)
            grown = np.empty((self.n_lanes, slots), dtype=object)
            grown[:, :old.shape[1]] = old
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # Shell synchronization (restore/reset write the Fpu shell directly)
    # ------------------------------------------------------------------

    def _sync_arrays_from_fpu(self, index):
        """Mirror one lane's Fpu shell back into the SoA arrays."""
        fpu = self._fpus[index]
        self.fregs[index, :] = fpu.regs.values
        self.sb_bits[index, :] = fpu.scoreboard.bits
        self._store_pending(index, fpu._pending)
        self.alu_ir[index] = fpu.alu_ir
        self.aborted_ir[index] = fpu.aborted_ir
        self.ir_free[index] = fpu.alu_ir_free_cycle
        psw = fpu.regs.psw
        self.psw_overflow[index] = psw.overflow
        self.psw_dest[index] = psw.overflow_dest
        self.psw_element[index] = psw.overflow_element

    def _reset_lane(self, index):
        """The MultiTitan.reset_cpu contract for one lane: CPU and FPU
        state cleared, caches and memory untouched."""
        self.cycle[index] = 0
        self.pc[index] = 0
        self.iregs[index, :] = [0] * isa.NUM_INT_REGISTERS
        self.ireg_ready[index, :] = [0] * isa.NUM_INT_REGISTERS
        self.halted[index] = False
        self._stats[index] = MachineStats()
        self._fpus[index].reset()
        self._sync_arrays_from_fpu(index)
        self.cpu_ready[index] = 0
        self.port_free[index] = 0
        self.alu_seq[index] = 0
        self.epc[index] = None
        self.halt_cycle[index] = None
        self.last_retire[index] = 0
        self.stopped[index] = False

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run_lane(self, index, max_cycles=None, stop_cycle=None):
        """Run one lane to completion (or ``stop_cycle``); the scalar
        ``ExecutionBackend.run`` contract."""
        limit = max_cycles or self.configs[index].max_cycles
        self.halt_cycle[index] = None
        self.last_retire[index] = 0
        self.stopped[index] = False
        if stop_cycle is None and self.configs[index].fast_path:
            return self._advance_lane_fast(index, limit)
        self._advance_lane(index, limit, stop_cycle=stop_cycle)
        self._check_livelock(index, limit)
        return self._result_for(index)

    def run_all(self, max_cycles=None, slice_cycles=None):
        """Run every lane; returns ``(results, errors)`` lists.

        ``slice_cycles=None`` advances each live lane straight to
        completion (fastest; lanes are fully independent).  With a
        slice, every round advances all live lanes to a common pause
        cycle -- lockstep in wall-clock rounds -- which bounds how far
        any lane runs ahead (used by the differential battery).  A
        faulting lane records its error and is masked out; its slot in
        ``results`` stays ``None``.
        """
        n = self.n_lanes
        results = [None] * n
        errors = [None] * n
        limits = []
        for index in range(n):
            limits.append(max_cycles or self.configs[index].max_cycles)
            self.halt_cycle[index] = None
            self.last_retire[index] = 0
            self.stopped[index] = False
        live = list(range(n))
        while live:
            if slice_cycles is None:
                pause = None
            else:
                pause = min(self.cycle[index] for index in live) \
                    + slice_cycles
            still_live = []
            for index in live:
                if pause is None and self.configs[index].fast_path:
                    try:
                        results[index] = self._advance_lane_fast(
                            index, limits[index])
                    except SimulationError as error:
                        errors[index] = error
                    continue
                try:
                    paused = self._advance_lane(index, limits[index],
                                                pause_cycle=pause)
                except SimulationError as error:
                    errors[index] = error
                    continue
                if paused:
                    still_live.append(index)
                    continue
                try:
                    self._check_livelock(index, limits[index])
                except SimulationError as error:
                    errors[index] = error
                    continue
                results[index] = self._result_for(index)
            live = still_live
        return results, errors

    def _check_livelock(self, index, limit):
        if (not self.stopped[index] and self.cycle[index] >= limit
                and not self.halted[index]):
            from repro.core.exceptions import LivelockError
            from repro.robustness.watchdog import livelock_diagnostic
            raise MultiTitan._attach_context(
                LivelockError("simulation exceeded %d cycles; %s"
                              % (limit,
                                 livelock_diagnostic(self.lanes[index]))),
                self.cycle[index], self.pc[index])

    def _result_for(self, index):
        stats = self._stats[index]
        halt_cycle = self.halt_cycle[index]
        cycle = self.cycle[index]
        completion = halt_cycle if halt_cycle is not None else cycle
        completion = max(completion, self.last_retire[index])
        stats.cycles = completion
        dcache = self.dcaches[index]
        return RunResult(
            halt_cycle=halt_cycle if halt_cycle is not None else cycle,
            completion_cycle=completion,
            stats=stats,
            fpu_stats=self._fpus[index].stats,
            dcache_hits=dcache.hits,
            dcache_misses=dcache.misses,
        )

    # ------------------------------------------------------------------
    # The unbounded advance: the real ExecutionCore fast path over a
    # per-lane shell (see _LaneShell).
    # ------------------------------------------------------------------

    def _advance_lane_fast(self, index, limit):
        """Run one lane to completion on the real fast path.

        Hoists the lane into its :class:`_LaneShell` (the same rebind
        protocol as :meth:`_advance_lane`), drives the unmodified
        ``ExecutionCore._run_fast``, and scatters the shell back -- on
        livelock too, so diagnostics and snapshots see the faulting
        cycle.  The core's epilogue builds the same ``RunResult`` as
        :meth:`_result_for` and raises the same ``LivelockError``, so
        callers need no extra checks.
        """
        core = self._cores[index]
        if core is None:
            self._shells[index] = _LaneShell(self, index)
            core = self._cores[index] = ExecutionCore(self._shells[index])
        shell = self._shells[index]
        fpu = self._fpus[index]
        fpu.regs._values = self.fregs[index].tolist()
        fpu.scoreboard._bits = self.sb_bits[index].tolist()
        fpu._pending = self._pending_of(index)
        fpu.alu_ir = self.alu_ir[index]
        fpu.aborted_ir = self.aborted_ir[index]
        fpu.alu_ir_free_cycle = self.ir_free[index]
        psw = fpu.regs.psw
        psw.overflow = self.psw_overflow[index]
        psw.overflow_dest = self.psw_dest[index]
        psw.overflow_element = self.psw_element[index]
        shell.stats = self._stats[index]
        shell.iregs = self.iregs[index].tolist()
        shell.ireg_ready = self.ireg_ready[index].tolist()
        shell.cycle = self.cycle[index]
        shell.pc = self.pc[index]
        shell.halted = self.halted[index]
        shell.epc = self.epc[index]
        shell._alu_seq = self.alu_seq[index]
        core.issue.cpu_ready = self.cpu_ready[index]
        core.mem_port.port_free = self.port_free[index]
        core.sequencer.last_retire_cycle = self.last_retire[index]
        try:
            result = core._run_fast(limit)
        finally:
            self.cycle[index] = shell.cycle
            self.pc[index] = shell.pc
            self.halted[index] = shell.halted
            self.epc[index] = shell.epc
            self.alu_seq[index] = shell._alu_seq
            self.cpu_ready[index] = core.issue.cpu_ready
            self.port_free[index] = core.mem_port.port_free
            self.last_retire[index] = core.sequencer.last_retire_cycle
            self.iregs[index, :] = shell.iregs
            self.ireg_ready[index, :] = shell.ireg_ready
            self._sync_arrays_from_fpu(index)
        if self.halted[index]:
            self.halt_cycle[index] = result.halt_cycle
        return result

    # ------------------------------------------------------------------
    # The per-lane advance: ExecutionCore._run_slow transcribed, hooks
    # removed, plus two state-identical fast-path jumps.
    # ------------------------------------------------------------------

    def _advance_lane(self, index, limit, stop_cycle=None,
                      pause_cycle=None):
        """Advance one lane until done, ``stop_cycle``, ``pause_cycle``
        or ``limit``; returns True when it paused (more work left)."""
        config = self.configs[index]
        stats = self._stats[index]
        memory = self.memories[index]
        memory_words = memory.words
        instructions = self.program.instructions
        decoded = self.decoded

        # Rebind the lane's Fpu shell onto the hoisted SoA rows: the
        # real Fpu methods then mutate exactly this state.
        fpu = self._fpus[index]
        fregs = self.fregs[index].tolist()
        fpu.regs._values = fregs
        sb_bits = self.sb_bits[index].tolist()
        fpu.scoreboard._bits = sb_bits
        pending = self._pending_of(index)
        fpu._pending = pending
        fpu.alu_ir = self.alu_ir[index]
        fpu.aborted_ir = self.aborted_ir[index]
        fpu.alu_ir_free_cycle = self.ir_free[index]
        psw = fpu.regs.psw
        psw.overflow = self.psw_overflow[index]
        psw.overflow_dest = self.psw_dest[index]
        psw.overflow_element = self.psw_element[index]
        iregs = self.iregs[index].tolist()
        ireg_ready = self.ireg_ready[index].tolist()
        values = fregs
        fpu_stats = fpu.stats
        try_issue_element = fpu.try_issue_element

        dcache_access = self.dcaches[index].access
        ibuf = self.ibufs[index]
        ibuf_access = ibuf.access
        icache_access = self.icaches[index].access
        model_ibuffer = config.model_ibuffer
        model_external = config.model_external_icache
        external_hit_penalty = config.icache_hit_penalty
        model_tlb = config.model_tlb
        tlb_translate = self.tlbs[index].translate
        store_cycles = config.store_port_cycles
        taken_cost = config.taken_branch_cycles
        program_length = len(decoded)
        attach = MultiTitan._attach_context

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

        cycle = self.cycle[index]
        pc = self.pc[index]
        halted = self.halted[index]
        halt_cycle = self.halt_cycle[index]
        cpu_ready = self.cpu_ready[index]
        port_free = self.port_free[index]
        alu_seq = self.alu_seq[index]
        epc = self.epc[index]
        last_retire_cycle = self.last_retire[index]
        stopped = self.stopped[index]
        paused = False

        # Quiescent-cycle jumps must not sail past a stop/pause bound
        # (the loop-top checks have to fire at exactly that cycle).
        jump_bound = stop_cycle
        if pause_cycle is not None:
            jump_bound = pause_cycle if jump_bound is None \
                else min(jump_bound, pause_cycle)

        try:
            while cycle < limit:
                if stop_cycle is not None and cycle >= stop_cycle:
                    stopped = True
                    break
                if pause_cycle is not None and cycle >= pause_cycle:
                    paused = True
                    break

                # -- FpuSequencer: result retirement --------------------
                if pending:
                    ready = pending.pop(cycle, None)
                    if ready:
                        for register, value in ready:
                            values[register] = value
                            sb_bits[register] = False
                        last_retire_cycle = cycle

                # -- FpuSequencer: vector element issue -----------------
                if fpu.alu_ir is not None:
                    try_issue_element(cycle)

                # -- termination check (fast drain when nothing issues) -
                if halted:
                    if fpu.alu_ir is not None:
                        cycle += 1
                        continue
                    if not pending:
                        break
                    target = min(pending)
                    if jump_bound is not None and target > jump_bound:
                        target = jump_bound
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
                    if jump_bound is not None and target > jump_bound:
                        target = jump_bound
                    cycle = target if target < limit else limit
                    continue
                if pc >= program_length:
                    raise attach(SimulationError(
                        "PC %d ran off the end of the program" % pc),
                        cycle, pc)

                # -- FetchStage: instruction delivery -------------------
                if model_ibuffer:
                    penalty = ibuf_access(pc << 2)
                    if penalty and model_external \
                            and icache_access(pc << 2) == 0:
                        penalty = external_hit_penalty
                    if penalty:
                        stats.stall_ibuf_miss_cycles += penalty
                        cpu_ready = cycle + penalty
                        cycle += 1
                        continue

                entry = decoded[pc]
                kind = entry[0]

                # ---- FPU ALU transfer (over the address bus) ----
                if kind == K_FALU:
                    if fpu.alu_ir is not None \
                            or cycle < fpu.alu_ir_free_cycle:
                        stats.stall_alu_ir_busy += 1
                        cycle += 1
                        continue
                    # accept_transfer, inlined without the event hook
                    state = _AluState.__new__(_AluState)
                    (_, state.op, state.rr, state.ra, state.rb, vl,
                     state.stride_ra, state.stride_rb, state.unary,
                     _instruction) = entry
                    state.remaining = vl
                    state.vl = vl
                    state.seq = alu_seq
                    alu_seq += 1
                    fpu.alu_ir = state
                    fpu_stats.alu_instructions += 1
                    if vl > 1:
                        fpu_stats.vector_instructions += 1
                    try_issue_element(cycle)
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
                        raise attach(err, cycle, pc, instructions[pc])
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
                        raise attach(err, cycle, pc, instructions[pc])
                    if address >> 3 >= len(memory_words):
                        memory.write(address, value)
                        memory_words = memory.words
                    else:
                        memory_words[address >> 3] = value
                    stats.fpu_stores += 1
                    stats.instructions += 1
                    port_free = effective + store_cycles
                    cpu_ready = effective + 1
                    pc += 1

                # ---- integer ALU (register-immediate) ----
                elif kind == K_INT_IMM:
                    rd, ra, imm, op_fn = (entry[1], entry[2], entry[3],
                                          entry[4])
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
                    rd, ra, rb, op_fn = (entry[1], entry[2], entry[3],
                                         entry[4])
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
                        ireg_ready[rd] = cycle + penalty + 2
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
                    if address >> 3 >= len(memory_words):
                        memory.write(address, iregs[rs])
                        memory_words = memory.words
                    else:
                        memory_words[address >> 3] = iregs[rs]
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
                    rd, fa, fb, test = (entry[1], entry[2], entry[3],
                                        entry[4])
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
                    if rd:
                        iregs[rd] = 1 if test(values[fa], values[fb]) \
                            else 0
                        ireg_ready[rd] = cycle + 2
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                elif kind == K_NOP:
                    stats.instructions += 1
                    pc += 1
                    cpu_ready = cycle + 1

                elif kind == K_RFE:
                    if epc is None:
                        raise attach(SimulationError(
                            "rfe outside an interrupt handler"),
                            cycle, pc, instructions[pc])
                    stats.instructions += 1
                    pc = epc
                    epc = None
                    cpu_ready = cycle + taken_cost

                elif kind == K_HALT:
                    halted = True
                    halt_cycle = cycle
                    stats.instructions += 1

                else:
                    raise attach(SimulationError(
                        "unknown opcode %d at pc %d" % (entry[1], pc)),
                        cycle, pc, instructions[pc])

                cycle += 1
        finally:
            # Scatter the hoisted state back even when an error
            # propagates, so diagnostics and snapshots see the faulting
            # cycle (the Fpu shell keeps the hoisted containers, so it
            # stays consistent with the arrays between advances).
            self.cycle[index] = cycle
            self.pc[index] = pc
            self.halted[index] = halted
            self.halt_cycle[index] = halt_cycle
            self.cpu_ready[index] = cpu_ready
            self.port_free[index] = port_free
            self.alu_seq[index] = alu_seq
            self.epc[index] = epc
            self.last_retire[index] = last_retire_cycle
            self.stopped[index] = stopped
            self.fregs[index, :] = fregs
            self.sb_bits[index, :] = sb_bits
            self._store_pending(index, pending)
            self.alu_ir[index] = fpu.alu_ir
            self.aborted_ir[index] = fpu.aborted_ir
            self.ir_free[index] = fpu.alu_ir_free_cycle
            self.psw_overflow[index] = psw.overflow
            self.psw_dest[index] = psw.overflow_dest
            self.psw_element[index] = psw.overflow_element
            self.iregs[index, :] = iregs
            self.ireg_ready[index, :] = ireg_ready
        return paused


class SoaLane(ExecutionBackend):
    """One fleet lane behind the scalar ``ExecutionBackend`` contract.

    State reads delegate to the fleet's arrays; ``iregs``/``ireg_ready``
    are live row views, so harness writes (workload setup, CLI ``--set``
    pokes) land in the batch state exactly as they do on MultiTitan.
    """

    backend_id = "soa"
    trace = None

    def __init__(self, fleet, index):
        self.fleet = fleet
        self.index = index
        self.events = EventBus()
        self.fault_plan = None

    # -- fleet delegation ----------------------------------------------

    @property
    def config(self):
        return self.fleet.configs[self.index]

    @property
    def program(self):
        return self.fleet.program

    @property
    def decoded(self):
        return self.fleet.decoded

    @property
    def memory(self):
        return self.fleet.memories[self.index]

    @property
    def stats(self):
        return self.fleet._stats[self.index]

    @property
    def fpu(self):
        return self.fleet._fpus[self.index]

    @property
    def dcache(self):
        return self.fleet.dcaches[self.index]

    @property
    def ibuf(self):
        return self.fleet.ibufs[self.index]

    @property
    def icache(self):
        return self.fleet.icaches[self.index]

    @property
    def tlb(self):
        return self.fleet.tlbs[self.index]

    @property
    def cycle(self):
        return self.fleet.cycle[self.index]

    @property
    def pc(self):
        return self.fleet.pc[self.index]

    @property
    def halted(self):
        return self.fleet.halted[self.index]

    @property
    def epc(self):
        return self.fleet.epc[self.index]

    @property
    def cpu_ready(self):
        return self.fleet.cpu_ready[self.index]

    @property
    def port_free(self):
        return self.fleet.port_free[self.index]

    @property
    def iregs(self):
        return self.fleet.iregs[self.index]

    @property
    def ireg_ready(self):
        return self.fleet.ireg_ready[self.index]

    # -- the backend contract ------------------------------------------

    def run(self, max_cycles=None, stop_cycle=None):
        if self.fault_plan is not None:
            raise SimulationError(
                "the soa backend does not support fault injection; run "
                "the fault plan on the percycle backend")
        if self.events.active():
            raise SimulationError(
                "the soa backend publishes no events; attach observers "
                "to the percycle backend")
        return self.fleet.run_lane(self.index, max_cycles=max_cycles,
                                   stop_cycle=stop_cycle)

    def snapshot(self):
        fleet = self.fleet
        index = self.index
        return {
            "version": MultiTitan.SNAPSHOT_VERSION,
            "program_length": len(fleet.program.instructions),
            "program_digest": semantics.program_digest(
                fleet.program.instructions),
            "cycle": fleet.cycle[index],
            "pc": fleet.pc[index],
            "epc": fleet.epc[index],
            "halted": fleet.halted[index],
            "cpu_ready": fleet.cpu_ready[index],
            "port_free": fleet.port_free[index],
            "alu_seq": fleet.alu_seq[index],
            "interrupts": [],
            "iregs": list(fleet.iregs[index]),
            "ireg_ready": list(fleet.ireg_ready[index]),
            "stats": fleet._stats[index].as_dict(),
            "fpu": fleet._fpus[index].state_dict(),
            "dcache": fleet.dcaches[index].state_dict(),
            "ibuf": fleet.ibufs[index].state_dict(),
            "icache": fleet.icaches[index].state_dict(),
            "tlb": fleet.tlbs[index].state_dict(),
            "memory": fleet.memories[index].delta_snapshot(),
        }

    def restore(self, snapshot):
        version = snapshot.get("version")
        if version != MultiTitan.SNAPSHOT_VERSION:
            if version == 1:
                raise SimulationError(
                    "snapshot version 1 not supported: its program_hash "
                    "was process-salted and cannot be validated; re-take "
                    "the snapshot with this build (version %d)"
                    % MultiTitan.SNAPSHOT_VERSION)
            raise SimulationError(
                "snapshot version %r not supported (expected %d)"
                % (version, MultiTitan.SNAPSHOT_VERSION))
        fleet = self.fleet
        index = self.index
        if (snapshot["program_length"]
                != len(fleet.program.instructions)
                or snapshot["program_digest"]
                != semantics.program_digest(fleet.program.instructions)):
            raise SimulationError(
                "snapshot was taken from a different program")
        if snapshot["interrupts"]:
            raise SimulationError(
                "the soa backend does not support pending interrupts; "
                "restore this snapshot on the percycle backend")
        fleet.cycle[index] = snapshot["cycle"]
        fleet.pc[index] = snapshot["pc"]
        fleet.epc[index] = snapshot["epc"]
        fleet.halted[index] = snapshot["halted"]
        fleet.cpu_ready[index] = snapshot["cpu_ready"]
        fleet.port_free[index] = snapshot["port_free"]
        fleet.alu_seq[index] = snapshot["alu_seq"]
        fleet.iregs[index, :] = snapshot["iregs"]
        fleet.ireg_ready[index, :] = snapshot["ireg_ready"]
        fleet._stats[index].load_state(snapshot["stats"])
        fleet._fpus[index].load_state(snapshot["fpu"])
        fleet._sync_arrays_from_fpu(index)
        fleet.dcaches[index].load_state(snapshot["dcache"])
        fleet.ibufs[index].load_state(snapshot["ibuf"])
        fleet.icaches[index].load_state(snapshot["icache"])
        fleet.tlbs[index].load_state(snapshot["tlb"])
        fleet.memories[index].restore_delta(snapshot["memory"])
        return self

    def reset_cpu(self):
        self.fleet._reset_lane(self.index)


def create_soa_machine(program, memory=None, config=None):
    """The registry factory: a single-lane fleet's lane 0."""
    return SoaFleet(program, [config], memories=[memory]).lanes[0]
