"""The MultiTitan system simulator: CPU + FPU + caches, cycle by cycle.

This module owns the machine's *state* (registers, caches, snapshots,
interrupts) and its configuration; the cycle-by-cycle behaviour lives in
the staged execution core, :mod:`repro.cpu.pipeline`, and the
architectural per-opcode semantics in :mod:`repro.core.semantics`.
Observers attach through the typed event bus at ``machine.events``
(:mod:`repro.core.events`).

Timing contract (calibrated against Figures 5-9 and 13 of WRL 89/8; the
figure tests assert the published cycle counts exactly):

* one CPU instruction attempts to issue per cycle;
* an FPU ALU element issued in cycle *i* is usable (by another element or
  by a store) from cycle *i + 3*;
* the FPU ALU instruction register is occupied while a vector issues, one
  element per cycle; a new ALU transfer stalls the CPU until it frees;
* FPU loads and stores flow through the separate Load/Store instruction
  register concurrently with ALU issue; loads deliver data usable the
  next cycle; stores hold the memory port for two cycles;
* taken branches cost two cycles; integer loads and FCMP have one delay
  slot; a data-cache miss stalls the (blocking) pipeline 14 cycles.
"""

import difflib
import hashlib
import json
from dataclasses import dataclass, fields

from repro.core import semantics
from repro.core.backend import ExecutionBackend
from repro.core.encoding import MAX_VECTOR_LENGTH, NUM_REGISTERS
from repro.core.events import EventBus, TraceRecorder
from repro.core.exceptions import SimulationError
from repro.core.fpu import Fpu
from repro.core.functional_units import CYCLE_TIME_NS, FUNCTIONAL_UNIT_LATENCY
from repro.cpu import isa
from repro.cpu.pipeline import ExecutionCore, MachineStats, RunResult  # noqa: F401  (re-exported)
from repro.mem.cache import data_cache, instruction_buffer
from repro.mem.memory import Memory


@dataclass
class MachineConfig:
    """Tunable machine parameters (defaults are the paper's MultiTitan)."""

    fpu_latency: int = FUNCTIONAL_UNIT_LATENCY
    cycle_time_ns: float = CYCLE_TIME_NS
    dcache_size: int = 64 * 1024
    dcache_line: int = 16
    dcache_miss_penalty: int = 14
    ibuf_size: int = 2 * 1024
    ibuf_line: int = 16
    ibuf_miss_penalty: int = 14
    store_port_cycles: int = 2
    taken_branch_cycles: int = 2
    model_ibuffer: bool = True
    # Figure 1's two-level instruction path: the on-chip 2 KB buffer is
    # backed by a 64 KB external instruction cache in 25 ns RAMs.  Off by
    # default (the Figure 14 calibration charges a flat miss penalty).
    model_external_icache: bool = False
    icache_size: int = 64 * 1024
    icache_hit_penalty: int = 4
    model_tlb: bool = False
    tlb_miss_penalty: int = 24
    strict_hazards: bool = False
    audit_scoreboard_ports: bool = False
    # Validate scoreboard/pending-write/cache consistency every cycle
    # (repro.robustness.invariants); strict runs only -- it costs time.
    audit_invariants: bool = False
    trace: bool = False
    # Allow the execution core's fast path (quiescent-cycle skipping and
    # steady-state loop memoization).  Bit-exact with the
    # per-cycle loop -- the fastpath-equivalence fuzz job enforces it --
    # and automatically bypassed per-run whenever an observer, stop
    # cycle, fault plan, or invariant audit needs cycle granularity.
    fast_path: bool = True
    max_cycles: int = 200_000_000
    # Ceiling on a single FALU instruction's vector length.  The ISA
    # encoding caps VL at MAX_VECTOR_LENGTH; machines additionally
    # reject programs exceeding this configured ceiling at construction.
    max_vl: int = MAX_VECTOR_LENGTH

    #: Fields that change what is *observed*, not what is *computed*: two
    #: configs differing only here produce identical architectural results
    #: and cycle counts, so they share a result-cache fingerprint.
    OBSERVATION_FIELDS = ("trace", "audit_invariants", "audit_scoreboard_ports",
                          "fast_path")

    def as_dict(self):
        """All fields as a plain JSON-serializable dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def fingerprint(self):
        """Stable SHA-256 over every result-affecting field.

        The digest keys the on-disk result cache (:mod:`repro.orchestrate`):
        any change to a timing or structure parameter produces a different
        fingerprint, while observation-only toggles (tracing, invariant
        audits) do not.
        """
        payload = {name: value for name, value in self.as_dict().items()
                   if name not in self.OBSERVATION_FIELDS}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def validate(self):
        """Reject inconsistent configurations, naming the bad field.

        Called at machine construction (every backend) and from
        :meth:`from_overrides`, so a declarative sweep or a
        :class:`repro.api.RunRequest` carrying an impossible machine
        fails loudly up front instead of deep inside the pipeline.
        Returns ``self`` so calls chain.
        """
        def require(condition, field, why):
            if not condition:
                raise ValueError(
                    "invalid MachineConfig.%s=%r: %s"
                    % (field, getattr(self, field), why))

        require(self.fpu_latency >= 1, "fpu_latency",
                "a zero-latency FPU stage cannot model the writeback "
                "pipeline (must be >= 1)")
        require(self.cycle_time_ns > 0, "cycle_time_ns",
                "the machine clock must have a positive period")
        require(self.max_cycles >= 1, "max_cycles",
                "the watchdog budget must allow at least one cycle")
        require(self.store_port_cycles >= 1, "store_port_cycles",
                "a store holds the memory port for at least one cycle")
        require(self.taken_branch_cycles >= 1, "taken_branch_cycles",
                "a taken branch takes at least one cycle")
        for field in ("dcache_miss_penalty", "ibuf_miss_penalty",
                      "icache_hit_penalty", "tlb_miss_penalty"):
            require(getattr(self, field) >= 0, field,
                    "penalties cannot be negative")
        for size_field, line_field in (("dcache_size", "dcache_line"),
                                       ("ibuf_size", "ibuf_line"),
                                       ("icache_size", "ibuf_line")):
            line = getattr(self, line_field)
            require(line >= 1, line_field,
                    "cache lines must hold at least one byte")
            require(getattr(self, size_field) >= line, size_field,
                    "the cache must hold at least one %s-byte line"
                    % line)
            require(getattr(self, size_field) % line == 0, size_field,
                    "the cache size must be a whole number of %s-byte "
                    "lines (%s)" % (line, line_field))
        require(self.max_vl >= 1, "max_vl",
                "vector instructions have at least one element")
        require(self.max_vl <= NUM_REGISTERS, "max_vl",
                "the VL ceiling cannot exceed the %d-register file"
                % NUM_REGISTERS)
        require(self.max_vl <= MAX_VECTOR_LENGTH, "max_vl",
                "the VL ceiling cannot exceed the ISA encoding's "
                "maximum of %d" % MAX_VECTOR_LENGTH)
        return self

    @classmethod
    def field_names(cls):
        """Every declared field name, sorted (the valid override keys)."""
        return tuple(sorted(f.name for f in fields(cls)))

    @classmethod
    def check_field_names(cls, names):
        """Reject names that are not ``MachineConfig`` fields.

        The one error path for every surface that accepts field names --
        :meth:`from_overrides` dicts, :class:`repro.dse.space.
        ParameterSpace` dimensions, CLI ``--dim``/``--grid`` axes -- so
        a typo always fails the same way: ``ValueError`` naming the bad
        name with a closest-match suggestion.
        """
        valid = cls.field_names()
        unknown = sorted(set(names) - set(valid))
        if not unknown:
            return
        described = []
        for name in unknown:
            close = difflib.get_close_matches(str(name), valid, n=1)
            described.append("%s (did you mean %r?)" % (name, close[0])
                             if close else str(name))
        raise ValueError(
            "unknown MachineConfig field(s) %s (valid: %s)"
            % (", ".join(described), ", ".join(valid)))

    @classmethod
    def from_overrides(cls, overrides=None, **defaults):
        """Build a config from ``defaults`` with ``overrides`` on top.

        Unknown keys raise ``ValueError`` naming the valid fields (with
        a did-you-mean suggestion), so a typo in a declarative sweep
        fails loudly instead of silently running the default machine;
        the merged config is :meth:`validate`\\ d, so inconsistent
        values fail just as loudly.
        """
        merged = dict(defaults)
        merged.update(overrides or {})
        cls.check_field_names(merged)
        return cls(**merged).validate()


def _check_observation_fields(cls):
    """Import-time guard: every ``OBSERVATION_FIELDS`` name must exist.

    ``fingerprint()`` *excludes* the observation fields; if one were
    renamed without updating the tuple, the stale name would silently
    stop matching and the field would start being fingerprinted --
    changing every cache key (and, for an actual observation toggle,
    splitting the result cache for no reason).  Failing the import makes
    a rename impossible to miss.
    """
    declared = {f.name for f in fields(cls)}
    missing = [name for name in cls.OBSERVATION_FIELDS
               if name not in declared]
    if missing:
        raise AssertionError(
            "%s.OBSERVATION_FIELDS names nonexistent field(s): %s -- a "
            "renamed field silently changes every cache fingerprint; "
            "update OBSERVATION_FIELDS alongside the field"
            % (cls.__name__, ", ".join(missing)))
    return cls


_check_observation_fields(MachineConfig)


class MultiTitan(ExecutionBackend):
    """One MultiTitan processor: CPU chip + FPU chip + caches.

    Implements the :class:`repro.core.backend.ExecutionBackend`
    contract; registered twice in the backend registry -- as
    ``"percycle"`` (fast path disabled) and ``"fastpath"`` (the
    default) -- because the two share this machine but form distinct
    dispatch strategies whose equivalence the fuzzer's fast-vs-slow
    lockstep mode proves.

    Warm-cache measurements run the program twice via
    :func:`repro.workloads.common.run_cold_and_warm` (caches and memory
    survive :meth:`reset_cpu`); there is no separate cache-preload step.
    """

    def __init__(self, program, memory=None, config=None):
        self.config = (config or MachineConfig()).validate()
        self.program = program
        semantics.check_vector_lengths(program.decoded, self.config.max_vl)
        self.memory = memory if memory is not None else Memory()
        self.fpu = Fpu(
            latency=self.config.fpu_latency,
            strict_hazards=self.config.strict_hazards,
            audit_ports=self.config.audit_scoreboard_ports,
        )
        self.dcache = data_cache(self.config.dcache_miss_penalty)
        self.dcache.size_bytes = self.config.dcache_size
        self.dcache.line_bytes = self.config.dcache_line
        self.dcache.num_lines = self.config.dcache_size // self.config.dcache_line
        self.dcache.flush()
        self.ibuf = instruction_buffer(self.config.ibuf_miss_penalty)
        self.ibuf.size_bytes = self.config.ibuf_size
        self.ibuf.line_bytes = self.config.ibuf_line
        self.ibuf.num_lines = self.config.ibuf_size // self.config.ibuf_line
        self.ibuf.flush()
        from repro.mem.tlb import Tlb
        self.tlb = Tlb(miss_penalty=self.config.tlb_miss_penalty)
        from repro.mem.cache import DirectMappedCache
        self.icache = DirectMappedCache(
            self.config.icache_size, self.config.ibuf_line,
            miss_penalty=self.config.ibuf_miss_penalty, name="instruction-L2")
        # Observers subscribe here (repro.core.events): "alu" / "element"
        # / "load" / "store" trace events plus "commit" and "retire".
        # Subscribe before run(); publishers are resolved at run start.
        self.events = EventBus()
        self._trace_recorder = None
        # Harness attachment (repro.robustness): fault_plan injects
        # perturbations at chosen cycles; it survives reset_cpu().
        self.fault_plan = None
        self.core = ExecutionCore(self)
        self.reset_cpu()

    # ------------------------------------------------------------------

    @property
    def backend_id(self):
        """Registry name of the dispatch strategy in effect."""
        return "fastpath" if self.config.fast_path else "percycle"

    def reset_cpu(self):
        """Reset CPU and FPU state; caches and memory are untouched."""
        self.cycle = 0
        self.pc = 0
        self.iregs = [0] * isa.NUM_INT_REGISTERS
        self.ireg_ready = [0] * isa.NUM_INT_REGISTERS
        self.halted = False
        self.stats = MachineStats()
        self.fpu.reset()
        self.core.reset()
        if self._trace_recorder is not None:
            self._trace_recorder.detach(self.events)
            self._trace_recorder = None
        if self.config.trace:
            self._trace_recorder = TraceRecorder().attach(self.events)
            self.trace = self._trace_recorder.events
        else:
            self.trace = None
        self._alu_seq = 0
        self.epc = None
        self._interrupts = []  # (cycle, handler_pc), soonest first

    @property
    def decoded(self):
        """The predecoded program (see :mod:`repro.core.semantics`)."""
        return self.program.decoded

    # Issue and memory-port readiness live on their pipeline stages; these
    # delegating properties keep the machine's historical surface (tests,
    # snapshots, and the robustness harness read/write them here).

    @property
    def cpu_ready(self):
        return self.core.issue.cpu_ready

    @cpu_ready.setter
    def cpu_ready(self, value):
        self.core.issue.cpu_ready = value

    @property
    def port_free(self):
        return self.core.mem_port.port_free

    @port_free.setter
    def port_free(self, value):
        self.core.mem_port.port_free = value

    def schedule_interrupt(self, cycle, handler_pc):
        """Deliver an interrupt: at (or after) ``cycle`` the CPU saves its
        pc in ``epc`` and vectors to ``handler_pc``; a ``rfe`` instruction
        resumes.  In-flight FPU vector instructions keep issuing through
        the handler -- "vector ALU instructions may continue long after an
        interrupt" (section 2.3.1)."""
        self._interrupts.append((cycle, handler_pc))
        self._interrupts.sort()

    # ------------------------------------------------------------------
    # Checkpoint / restore (repro.robustness)
    # ------------------------------------------------------------------

    # Version 2: program identity is a SHA-256 digest of the instruction
    # stream (version 1 used Python's process-salted hash(), which never
    # validated across processes).
    SNAPSHOT_VERSION = 2

    def snapshot(self):
        """Capture the complete architectural state as plain data.

        Everything a restarted machine needs is included: the CPU
        (integer registers, PC/EPC, pipeline-ready cycles, pending
        interrupts), the FPU (52-register file, PSW, scoreboard, the
        in-flight ALU instruction register, pending writebacks), cache
        and TLB tags, and a sparse memory delta.  ``restore`` of the
        result into a machine running the same program round-trips
        bit-exactly, even mid-vector -- the paper's restartable-state
        claim (sections 2.3.1-2.3.3) made executable.  The snapshot is
        plain data keyed by a stable program digest, so it may be
        serialized and restored in a different Python process.
        """
        return {
            "version": self.SNAPSHOT_VERSION,
            "program_length": len(self.program.instructions),
            "program_digest": self.program.digest,
            "cycle": self.cycle,
            "pc": self.pc,
            "epc": self.epc,
            "halted": self.halted,
            "cpu_ready": self.cpu_ready,
            "port_free": self.port_free,
            "alu_seq": self._alu_seq,
            "interrupts": [tuple(entry) for entry in self._interrupts],
            "iregs": list(self.iregs),
            "ireg_ready": list(self.ireg_ready),
            "stats": self.stats.as_dict(),
            "fpu": self.fpu.state_dict(),
            "dcache": self.dcache.state_dict(),
            "ibuf": self.ibuf.state_dict(),
            "icache": self.icache.state_dict(),
            "tlb": self.tlb.state_dict(),
            "memory": self.memory.delta_snapshot(),
        }

    def restore(self, snapshot):
        """Restore a :meth:`snapshot`, including in-flight FPU state.

        The machine must be running the same program the snapshot was
        taken from; a :meth:`run` call afterwards resumes from the
        captured cycle and completes with the same results and cycle
        counts as an uninterrupted run.
        """
        version = snapshot.get("version")
        if version != self.SNAPSHOT_VERSION:
            if version == 1:
                raise SimulationError(
                    "snapshot version 1 not supported: its program_hash "
                    "was process-salted and cannot be validated; re-take "
                    "the snapshot with this build (version %d)"
                    % self.SNAPSHOT_VERSION)
            raise SimulationError(
                "snapshot version %r not supported (expected %d)"
                % (version, self.SNAPSHOT_VERSION))
        if (snapshot["program_length"] != len(self.program.instructions)
                or snapshot["program_digest"]
                != self.program.digest):
            raise SimulationError(
                "snapshot was taken from a different program")
        self.cycle = snapshot["cycle"]
        self.pc = snapshot["pc"]
        self.epc = snapshot["epc"]
        self.halted = snapshot["halted"]
        self.cpu_ready = snapshot["cpu_ready"]
        self.port_free = snapshot["port_free"]
        self._alu_seq = snapshot["alu_seq"]
        self._interrupts = [tuple(entry) for entry in snapshot["interrupts"]]
        self.iregs[:] = snapshot["iregs"]
        self.ireg_ready[:] = snapshot["ireg_ready"]
        self.stats.load_state(snapshot["stats"])
        self.fpu.load_state(snapshot["fpu"])
        self.dcache.load_state(snapshot["dcache"])
        self.ibuf.load_state(snapshot["ibuf"])
        self.icache.load_state(snapshot["icache"])
        self.tlb.load_state(snapshot["tlb"])
        self.memory.restore_delta(snapshot["memory"])
        return self

    # ------------------------------------------------------------------
    # Diagnosable errors: every SimulationError raised while running
    # carries the machine context (cycle, pc, current instruction).
    # ------------------------------------------------------------------

    @staticmethod
    def _attach_context(error, cycle, pc, instruction=None):
        """Append machine context to an in-flight error.

        The original message stays as a stable prefix so existing
        matching keeps working; the structured fields are also set as
        attributes for programmatic use.
        """
        text = "%s [cycle=%d pc=%d" % (error.args[0] if error.args else "",
                                       cycle, pc)
        if instruction is not None:
            text += " instr=%s" % (isa.disassemble(instruction),)
        text += "]"
        error.args = (text,) + error.args[1:]
        error.cycle = cycle
        error.pc = pc
        error.instruction = instruction
        return error

    def _error(self, message, cycle, pc, instruction=None):
        return self._attach_context(SimulationError(message), cycle, pc,
                                    instruction)

    # ------------------------------------------------------------------

    def run(self, max_cycles=None, stop_cycle=None):
        """Run until HALT and the FPU drains; return a :class:`RunResult`.

        ``stop_cycle`` pauses the simulation cleanly once ``cycle``
        reaches it (no error) with all in-flight state intact; a
        subsequent ``run()`` -- or a :meth:`restore` of a
        :meth:`snapshot` into a fresh machine -- resumes from there.
        """
        return self.core.run(max_cycles=max_cycles, stop_cycle=stop_cycle)
