"""Fast-path execution core: bit-exactness of quiescent-cycle skipping
and steady-state loop memoization against the reference per-cycle loop,
on synthetic programs and on the paper's own kernels across the design
space the DSE gym searches.

Every behavioural test here runs the same program through both paths
(``MachineConfig(fast_path=...)``) and compares final snapshots with the
same bit-exact recursion the differential fuzzer uses, so a regression
in either path shows up as a concrete field path, not a flaky number.
"""

import functools
import operator
import random
import struct

import pytest

from repro.core.encoding import MAX_VECTOR_LENGTH
from repro.core.exceptions import SimulationError
from repro.core.functional_units import CYCLE_TIME_NS
from repro.cpu.machine import MachineConfig, MultiTitan
from repro.cpu.pipeline import _taken_run
from repro.cpu.program import ProgramBuilder
from repro.dse import space_preset
from repro.mem.memory import Memory, WORD_BYTES
from repro.robustness.fuzz.driver import _state_difference
from repro.workloads.linpack import build_linpack
from repro.workloads.livermore.kernels_common import build_loop


def machine_for(program, words=None, fast_path=True, setup=None,
                **config_kwargs):
    memory = Memory()
    if words:
        memory.words[: len(words)] = list(words)
    config = MachineConfig(fast_path=fast_path, **config_kwargs)
    machine = MultiTitan(program, memory=memory, config=config)
    if setup is not None:
        setup(machine)
    return machine


def run_both(program, words=None, setup=None, **config_kwargs):
    """Run on both paths; assert bit-identical state and results."""
    fast = machine_for(program, words, True, setup, **config_kwargs)
    slow = machine_for(program, words, False, setup, **config_kwargs)
    fast_result = fast.run()
    slow_result = slow.run()
    difference = _state_difference(fast.snapshot(), slow.snapshot())
    assert difference is None, "fast/slow state diverged at %s" % difference
    assert fast_result.halt_cycle == slow_result.halt_cycle
    assert fast_result.completion_cycle == slow_result.completion_cycle
    return fast, fast_result


def bits_of(value):
    return struct.pack("<d", value)


NAN_A = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
NAN_B = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000002))[0]


# ---------------------------------------------------------------------------
# Satellite: completion_cycle vs halt_cycle in RunResult
# ---------------------------------------------------------------------------

class TestCompletionAfterHalt:
    """A vector retiring after HALT must drive elapsed time and MFLOPS
    through ``completion_cycle``, not ``halt_cycle``."""

    def _result(self):
        b = ProgramBuilder()
        b.li(1, 0)
        b.fload(0, 1, 0)
        # Long scalar-source vector issued right before HALT: the CPU
        # halts while the FPU is still retiring elements.
        b.fmul(16, 0, 0, vl=8)
        b.halt()
        words = [1.5] + [0.0] * 31
        return run_both(b.build(), words)

    def test_final_vector_retires_after_halt(self):
        _, result = self._result()
        assert result.completion_cycle > result.halt_cycle

    def test_elapsed_seconds_uses_completion_cycle(self):
        _, result = self._result()
        expected = result.completion_cycle * CYCLE_TIME_NS * 1e-9
        assert result.elapsed_seconds() == expected
        assert result.elapsed_seconds() > \
            result.halt_cycle * CYCLE_TIME_NS * 1e-9

    def test_mflops_uses_completion_cycle(self):
        _, result = self._result()
        nominal = 8
        expected = nominal / result.elapsed_seconds() / 1e6
        assert result.mflops(nominal) == pytest.approx(expected)

    def test_stats_cycles_match_completion(self):
        machine, result = self._result()
        assert machine.stats.cycles == result.completion_cycle


# ---------------------------------------------------------------------------
# Satellite: errors mid-vector leave consistent state on both paths
# ---------------------------------------------------------------------------

class TestErrorMidVector:
    def _program(self):
        b = ProgramBuilder()
        b.li(1, 0)
        for reg in range(8):
            b.fload(reg, 1, reg * WORD_BYTES)
        # Vector source sweeps F0..F7; element 3 hits the integer word
        # and raises inside execute_op, mid-vector.
        b.fadd(16, 0, 0, vl=8, sra=False, srb=True)
        b.halt()
        words = [float(i) for i in range(8)]
        words[3] = 3  # non-architectural int slips past the loader
        return b.build(), words + [0.0] * 8

    def test_simulation_error_leaves_cycle_and_pc_consistent(self):
        program, words = self._program()
        outcomes = []
        for fast_path in (True, False):
            machine = machine_for(program, words, fast_path=fast_path)
            with pytest.raises(SimulationError):
                machine.run()
            outcomes.append(machine)
        fast, slow = outcomes
        # The finally-clause writeback must leave the hoisted locals in
        # the machine even when the error propagates mid-vector.
        assert fast.cycle == slow.cycle
        assert fast.pc == slow.pc
        assert fast.halted == slow.halted
        difference = _state_difference(fast.snapshot(), slow.snapshot())
        assert difference is None, difference

    def test_faulting_machine_can_be_snapshot(self):
        program, words = self._program()
        machine = machine_for(program, words, fast_path=True)
        with pytest.raises(SimulationError):
            machine.run()
        snap = machine.snapshot()
        assert snap["cycle"] == machine.cycle
        assert snap["pc"] == machine.pc


# ---------------------------------------------------------------------------
# Satellite: snapshot at arbitrary stop_cycle inside an in-flight vector
# ---------------------------------------------------------------------------

def _vector_store_kernel():
    """A kernel with two chained vectors immediately followed by a run of
    stores, so a stop-cycle sweep crosses both in-flight elements and
    cycles where the store port holds the CPU."""
    b = ProgramBuilder()
    b.li(1, 0)
    b.li(2, 16 * WORD_BYTES)
    for reg in range(8):
        b.fload(reg, 1, reg * WORD_BYTES)
    b.fadd(16, 0, 0, vl=8, sra=False, srb=True)
    b.fmul(24, 16, 16, vl=8, sra=False, srb=True)
    for reg in range(8):
        b.fstore(24 + reg, 2, reg * WORD_BYTES)
    b.halt()
    words = [float(i + 1) * 0.5 for i in range(8)] + [0.0] * 24
    return b.build(), words


class TestStopCycleInsideBurst:
    def test_stop_restore_resume_is_byte_identical(self):
        program, words = _vector_store_kernel()
        golden = machine_for(program, words, fast_path=True)
        golden_result = golden.run()
        golden_snap = golden.snapshot()
        final = golden_result.completion_cycle
        assert final > 8  # the sweep actually crosses in-flight work

        for stop in range(1, final + 1):
            paused = machine_for(program, words, fast_path=True)
            paused.run(stop_cycle=stop)  # stop_cycle forces the
            # per-cycle loop; the snapshot lands mid-vector/mid-store
            resumed = machine_for(program, words, fast_path=True)
            resumed.restore(paused.snapshot())
            result = resumed.run()
            assert result.completion_cycle == final, "stop=%d" % stop
            difference = _state_difference(resumed.snapshot(), golden_snap)
            assert difference is None, \
                "stop=%d diverged at %s" % (stop, difference)


# ---------------------------------------------------------------------------
# Steady-state loop memoization
# ---------------------------------------------------------------------------

def _loop_program(body, count, init=()):
    """A counted loop (r4 = 0 .. r5 = count) around ``body(builder)``."""
    b = ProgramBuilder()
    for rd, imm in init:
        b.li(rd, imm)
    b.li(4, 0)
    b.li(5, count)
    top, close = b.counted_loop(4, 5)
    body(b)
    b.addi(4, 4, 1)
    close()
    b.halt()
    return b.build()


class TestLoopMemoization:
    """The memoizer must engage only when every per-iteration delta is
    provably constant; these kernels pin both the engage and refuse
    sides to bit-exact agreement with the per-cycle loop."""

    def test_linear_loop_matches_slow_path(self):
        # Constant ireg deltas: the memoizable steady state.
        program = _loop_program(
            lambda b: (b.add(6, 6, 7), b.addi(8, 8, 3)),
            count=500, init=[(6, 0), (7, 2), (8, 1)])
        machine, result = run_both(program)
        assert machine.iregs[6] == 1000
        assert machine.iregs[8] == 1 + 3 * 500

    def test_nonlinear_loop_matches_slow_path(self):
        # xor of the counter gives a non-constant delta; the memoizer
        # must refuse, and both paths still agree bit-exactly.
        program = _loop_program(
            lambda b: b.xor(6, 4, 7), count=300, init=[(6, 0), (7, 5)])
        run_both(program)

    def test_fixed_base_vector_loop_matches_slow_path(self):
        def body(b):
            for reg in range(4):
                b.fload(reg, 1, reg * WORD_BYTES)
            b.fadd(8, 0, 0, vl=4, sra=False, srb=True)
            for reg in range(4):
                b.fstore(8 + reg, 2, reg * WORD_BYTES)
        program = _loop_program(body, count=400,
                                init=[(1, 0), (2, 8 * WORD_BYTES)])
        words = [1.0, 2.0, 3.0, 4.0] + [0.0] * 12
        machine, _ = run_both(program, words)
        assert machine.memory.read(8 * WORD_BYTES) == 2.0

    def test_moving_base_loop_matches_slow_path(self):
        # The store base advances every iteration: addresses are not
        # iteration-invariant, so the memoizer must refuse.
        def body(b):
            b.fload(0, 1, 0)
            b.fstore(0, 2, 0)
            b.addi(2, 2, WORD_BYTES)
        program = _loop_program(body, count=64,
                                init=[(1, 0), (2, WORD_BYTES)])
        words = [7.25] + [0.0] * 127
        machine, _ = run_both(program, words)
        assert machine.memory.read(64 * WORD_BYTES) == 7.25

    def test_memoized_loop_resumes_after_snapshot(self):
        # Pause the slow path mid-loop, restore into a fast machine:
        # the memoizer picks up from arbitrary interior state.
        program = _loop_program(
            lambda b: b.add(6, 6, 7), count=1000, init=[(6, 0), (7, 1)])
        golden = machine_for(program, fast_path=True)
        final = golden.run().completion_cycle
        paused = machine_for(program, fast_path=True)
        paused.run(stop_cycle=final // 2)
        resumed = machine_for(program, fast_path=True)
        resumed.restore(paused.snapshot())
        assert resumed.run().completion_cycle == final
        difference = _state_difference(resumed.snapshot(), golden.snapshot())
        assert difference is None, difference


BRUTE_TESTS = (operator.lt, operator.le, operator.gt,
               operator.ge, operator.eq, operator.ne)


class TestTakenRunSolver:
    @pytest.mark.parametrize("test", BRUTE_TESTS,
                             ids=[t.__name__ for t in BRUTE_TESTS])
    def test_matches_brute_force(self, test):
        cap = 25
        for c in range(-9, 10):
            for e in range(-4, 5):
                expected = 0
                for j in range(1, cap + 1):
                    if not test(c + j * e, 0):
                        break
                    expected += 1
                got = _taken_run(test, c, e, cap)
                assert got == expected, \
                    "test=%s c=%d e=%d: %d != %d" % (
                        test.__name__, c, e, got, expected)

    def test_cap_bounds_infinite_runs(self):
        assert _taken_run(operator.ne, 5, 0, 10 ** 9) == 10 ** 9
        assert _taken_run(operator.lt, -1, 0, 7) == 7


# ---------------------------------------------------------------------------
# NaN payload propagation (regression: inline arithmetic call sites)
# ---------------------------------------------------------------------------

class TestNaNPayloads:
    """The sequencer's inline arithmetic must retire the same NaN bit
    pattern as ``execute_op`` (the reference executor's call site):
    CPython's per-site specialization of commutative float ``+`` can
    otherwise propagate the *other* operand's payload."""

    def test_nan_plus_nan_bit_pattern_matches_slow_path(self):
        b = ProgramBuilder()
        b.li(1, 0)
        b.fload(0, 1, 0)
        b.fload(1, 1, WORD_BYTES)
        b.fadd(16, 0, 1, vl=4)
        b.fmul(24, 0, 1, vl=4)
        b.halt()
        words = [NAN_A, NAN_B] + [0.0] * 14
        machine, _ = run_both(b.build(), words)
        for reg in (16, 24):
            assert machine.fpu.regs.values[reg] != \
                machine.fpu.regs.values[reg]  # NaN retired

    def test_nan_store_run_matches_slow_path(self):
        # NaN flowing through a load/compute/store loop: every path
        # must store the payload the architecture defines.
        def body(b):
            b.fload(0, 1, 0)
            b.fload(1, 1, WORD_BYTES)
            b.fadd(8, 0, 1)
            b.fstore(8, 2, 0)
        program = _loop_program(body, count=20,
                                init=[(1, 0), (2, 4 * WORD_BYTES)])
        words = [NAN_A, NAN_B] + [0.0] * 14
        machine, _ = run_both(program, words)
        stored = machine.memory.read(4 * WORD_BYTES)
        assert stored != stored


# ---------------------------------------------------------------------------
# The paper's kernels across the design space the DSE gym searches
# ---------------------------------------------------------------------------

#: Livermore loops that run out of FPU registers above this strip length
#: (the codegen ceiling repro.dse.fitness records as a suite entry's
#: ``vl_cap``); every other loop compiles at the full VL of 16.
LIVERMORE_VL_CAP = {2: 8, 7: 4, 8: 4, 9: 8, 10: 4}


def _searched_configs():
    """Three seeded samples of the default DSE space, plus both FPU
    latency extremes of that space with free cache misses."""
    space = space_preset("default")
    rng = random.Random(1989)
    configs = [("sample%d" % index, space.config_for(space.sample(rng)))
               for index in range(3)]
    configs += [("latency%d" % latency,
                 {"fpu_latency": latency, "dcache_miss_penalty": 0})
                for latency in (1, 8)]
    return configs


def _paper_kernel_cases():
    """Livermore 1-24 (vector coding, VL capped like the DSE fitness
    caps it) and Linpack n=12 (scalar; vector when its fixed VL of 8
    fits under the ceiling) on every searched config."""
    cases = []
    for name, overrides in _searched_configs():
        max_vl = MachineConfig.from_overrides(overrides).max_vl
        for loop in range(1, 25):
            vl = min(LIVERMORE_VL_CAP.get(loop, MAX_VECTOR_LENGTH), max_vl)
            cases.append(pytest.param(
                overrides, functools.partial(build_loop, loop, vl=vl),
                id="%s-LL%02d" % (name, loop)))
        codings = ("scalar", "vector") if max_vl >= 8 else ("scalar",)
        for coding in codings:
            cases.append(pytest.param(
                overrides, functools.partial(build_linpack, 12, coding),
                id="%s-linpack-%s" % (name, coding)))
    return cases


class TestPaperKernelsAcrossSearchedSpace:
    """The synthetic programs above run near the default config; the
    gym reports results at other latencies, cache geometries, miss
    penalties and VL ceilings, where the memoizer's closed-form jump is
    most likely to break."""

    @pytest.mark.parametrize("overrides, build", _paper_kernel_cases())
    def test_fast_path_matches_per_cycle_loop(self, overrides, build):
        kernel = build()
        run_both(kernel.program, kernel.memory.words, setup=kernel.setup,
                 **overrides)


# ---------------------------------------------------------------------------
# Dispatcher eligibility: anything needing per-cycle visibility must
# force the reference loop
# ---------------------------------------------------------------------------

class TestFastPathEligibility:
    def test_event_subscriber_forces_slow_path(self):
        b = ProgramBuilder()
        b.li(1, 7)
        b.halt()
        machine = machine_for(b.build(), fast_path=True)
        seen = []
        machine.events.subscribe("commit", seen.append)
        machine.run()
        assert seen  # per-cycle events were published

    def test_stop_cycle_forces_slow_path_then_fast_resume(self):
        program = _loop_program(
            lambda b: b.add(6, 6, 7), count=50, init=[(6, 0), (7, 1)])
        machine = machine_for(program, fast_path=True)
        machine.run(stop_cycle=10)
        assert machine.cycle == 10 and not machine.halted
        result = machine.run()
        reference = machine_for(program, fast_path=False)
        assert result.completion_cycle == \
            reference.run().completion_cycle
