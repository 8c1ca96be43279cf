"""Differential self-checking: cycle-level machine vs functional reference.

A :class:`DifferentialChecker` subscribes to two kinds on the machine's
event bus (``machine.events``, :mod:`repro.core.events`):

* ``commit`` -- after every committed CPU instruction the reference
  executor applies the same instruction functionally and the checker
  compares integer-register and memory effects immediately (they commit
  in the same cycle on the machine);
* ``retire`` -- FPU results reach the register file ``latency`` cycles
  after issue, so each writeback is compared against a per-register
  FIFO of values the reference predicted at commit time.

The first disagreement raises :class:`~repro.core.exceptions.
DivergenceError` naming the diverging register, the cycle, and the
instruction -- a single-bit fault injected into a register is caught at
the first retirement that consumes it.  Comparisons are bit-exact
(``struct`` encoding), so even sign-of-zero or NaN-payload corruption is
caught.  Control flow is verified by pc continuity; interrupt dispatch
and ``rfe`` resync it (the reference follows the committed stream, so
handlers are checked too).
"""

import struct
from collections import deque

from repro.core.exceptions import DivergenceError
from repro.robustness.reference import ReferenceExecutor


def bit_exact(a, b):
    """Bit-exact equality: types must match; floats compare by encoding
    (distinguishes 0.0 from -0.0 and NaN payloads)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


class DifferentialChecker:
    """Lockstep self-checker; attach to a machine *after* its registers
    and memory have been initialised (the reference starts from a copy)."""

    def __init__(self, machine, check_control_flow=True):
        self.machine = machine
        self.reference = ReferenceExecutor.from_machine(machine)
        self.check_control_flow = check_control_flow
        self.commits = 0
        self.retirements = 0
        self._expected_writes = {}   # register -> deque of expected values
        self._expected_pc = machine.pc
        self._last_epc = machine.epc
        machine.events.subscribe("commit", self._on_commit)
        machine.events.subscribe("retire", self._on_retire)

    def detach(self):
        self.machine.events.unsubscribe("commit", self._on_commit)
        self.machine.events.unsubscribe("retire", self._on_retire)

    # ------------------------------------------------------------------

    def _diverge(self, message, **context):
        raise DivergenceError("divergence: " + message, **context)

    def _on_commit(self, event):
        machine = self.machine
        _, cycle, pc, instruction = event
        if self.check_control_flow and self._expected_pc is not None \
                and pc != self._expected_pc:
            # An interrupt dispatch legitimately redirects the committed
            # stream; it is visible as epc switching from None to a saved
            # pc since the previous commit.
            dispatched = machine.epc is not None and self._last_epc is None
            if not dispatched:
                self._diverge(
                    "control flow reached pc %d, reference expected %d"
                    % (pc, self._expected_pc),
                    cycle=cycle, pc=pc, instruction=instruction)
        self._last_epc = machine.epc

        effects = self.reference.execute(instruction, pc=pc)
        self.commits += 1
        self._expected_pc = effects["next_pc"]

        for register, value in effects["ireg_writes"]:
            actual = machine.iregs[register]
            if not bit_exact(actual, value):
                self._diverge(
                    "integer register r%d = %r, reference computed %r"
                    % (register, actual, value),
                    register=register, cycle=cycle, pc=pc,
                    instruction=instruction, expected=value, actual=actual)
        for index, value in effects["mem_writes"]:
            actual = machine.memory.raw_words[index]
            if not bit_exact(actual, value):
                self._diverge(
                    "memory word %d (address %d) = %r, reference wrote %r"
                    % (index, index * 8, actual, value),
                    cycle=cycle, pc=pc, instruction=instruction,
                    expected=value, actual=actual)
        for register, value in effects["freg_writes"]:
            self._expected_writes.setdefault(register, deque()).append(value)

    def _on_retire(self, event):
        _, cycle, ready = event
        for register, value in ready:
            queue = self._expected_writes.get(register)
            if not queue:
                self._diverge(
                    "unexpected FPU writeback to R%d (value %r)"
                    % (register, value),
                    register=register, cycle=cycle, actual=value)
            expected = queue.popleft()
            self.retirements += 1
            if not bit_exact(value, expected):
                self._diverge(
                    "FPU register R%d retired %r, reference computed %r"
                    % (register, value, expected),
                    register=register, cycle=cycle, expected=expected,
                    actual=value)

    # ------------------------------------------------------------------

    def final_check(self):
        """After the run drains: no expected writes may be outstanding and
        the complete architectural state must agree."""
        machine = self.machine
        reference = self.reference
        for register, queue in self._expected_writes.items():
            if queue:
                self._diverge(
                    "%d expected write(s) to R%d never retired"
                    % (len(queue), register), register=register)
        for register, value in enumerate(machine.fpu.regs.values):
            if not bit_exact(value, reference.fregs[register]):
                self._diverge(
                    "final FPU register R%d = %r, reference %r"
                    % (register, value, reference.fregs[register]),
                    register=register, expected=reference.fregs[register],
                    actual=value)
        for register, value in enumerate(machine.iregs):
            if not bit_exact(value, reference.iregs[register]):
                self._diverge(
                    "final integer register r%d = %r, reference %r"
                    % (register, value, reference.iregs[register]),
                    register=register, expected=reference.iregs[register],
                    actual=value)
        machine_words = machine.memory.raw_words
        for index, value in enumerate(reference.memory):
            actual = machine_words[index] if index < len(machine_words) else 0.0
            if not bit_exact(actual, value):
                self._diverge(
                    "final memory word %d (address %d) = %r, reference %r"
                    % (index, index * 8, actual, value),
                    expected=value, actual=actual)
        psw = machine.fpu.regs.psw
        if (psw.overflow, psw.overflow_dest) != (
                reference.psw_overflow, reference.psw_overflow_dest):
            self._diverge(
                "PSW overflow state (%r, R%r) differs from reference "
                "(%r, R%r)" % (psw.overflow, psw.overflow_dest,
                               reference.psw_overflow,
                               reference.psw_overflow_dest))
        return True


def run_differential(program, memory=None, config=None, setup=None,
                     max_cycles=None, check_control_flow=True):
    """Build a machine, attach a checker, run, and verify the final state.

    Returns ``(run_result, checker)``; raises :class:`DivergenceError` at
    the first disagreement.  ``setup`` (as in the workload kernels)
    populates registers before the reference copies its starting state.
    """
    from repro.cpu.machine import MultiTitan
    machine = MultiTitan(program, memory=memory, config=config)
    if setup:
        setup(machine)
    checker = DifferentialChecker(machine,
                                  check_control_flow=check_control_flow)
    try:
        result = machine.run(max_cycles=max_cycles)
        checker.final_check()
    finally:
        checker.detach()
    return result, checker


def check_kernel(kernel, config=None):
    """Differential-check one :class:`~repro.workloads.common.BuiltKernel`.

    Runs the kernel cold under the checker, restores the memory image
    afterwards (kernels are reusable), and returns the checker.
    """
    snapshot = kernel.memory.delta_snapshot()
    try:
        _, checker = run_differential(
            kernel.program, memory=kernel.memory, config=config,
            setup=kernel.setup)
    finally:
        kernel.memory.restore_delta(snapshot)
    return checker
