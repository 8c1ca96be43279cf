"""Host-side simulation-speed kernels (simulated cycles per wall second).

The three kernels stress the distinct dispatch paths of the cycle loop:

* ``int_loop``     -- integer ALU + branch dominated (scalar control);
* ``vector_chain`` -- FPU vector issue + load/store dual-issue traffic;
* ``mixed_mem``    -- integer loads/stores with data-cache misses.

``benchmarks/bench_simspeed.py`` is the CI-facing driver; the builders
live here so the orchestrator (``repro.api`` workload ``simspeed``) can
run the same kernels declaratively.
"""

import time

from repro.core.backend import create_machine
from repro.cpu.machine import MachineConfig, MultiTitan  # noqa: F401  (re-exported)
from repro.cpu.program import ProgramBuilder
from repro.mem.memory import Memory


def build_int_loop(iterations):
    """A counted loop of integer ALU and branch work."""
    b = ProgramBuilder()
    b.li(1, 0)                   # k
    b.li(2, iterations)          # N
    b.li(3, 1)
    b.li(4, 0)                   # accumulator
    top, close = b.counted_loop(1, 2)
    b.add(4, 4, 3)
    b.sub(5, 4, 3)
    b.xor(6, 5, 4)
    b.sll(7, 6, 1)
    b.addi(1, 1, 1)
    close()
    b.halt()
    return b.build(), None


def build_vector_chain(iterations):
    """FPU vector instructions chained through loads and stores."""
    b = ProgramBuilder()
    b.li(1, 0)                   # k
    b.li(2, iterations)          # N
    b.li(8, 0)                   # base address
    top, close = b.counted_loop(1, 2)
    for lane in range(8):
        b.fload(lane, 8, lane * 8)
    b.fadd(16, 0, 8, vl=8)
    b.fmul(24, 16, 0, vl=8)
    for lane in range(8):
        b.fstore(24 + lane, 8, 64 + lane * 8)
    b.addi(1, 1, 1)
    close()
    b.halt()

    def setup(machine):
        for index in range(16):
            machine.memory.words[index] = float(index + 1)
        machine.fpu.regs.write_group(8, [0.5] * 8)

    return b.build(), setup


def build_mixed_mem(iterations, stride=128):
    """Integer loads/stores striding far enough to miss the data cache."""
    b = ProgramBuilder()
    b.li(1, 0)                   # k
    b.li(2, iterations)          # N
    b.li(3, 0)                   # address
    b.li(4, stride)
    top, close = b.counted_loop(1, 2)
    b.lw(5, 3, 0)
    b.addi(5, 5, 1)
    b.sw(5, 3, 0)
    b.add(3, 3, 4)
    b.addi(1, 1, 1)
    close()
    b.halt()

    def setup(machine):
        machine.memory.write(stride * iterations, 0)

    return b.build(), setup


KERNELS = {
    "int_loop": build_int_loop,
    "vector_chain": build_vector_chain,
    "mixed_mem": build_mixed_mem,
}


def time_kernel(name, iterations, repeats, fast_path=True, backend=None):
    """Best-of-``repeats`` simulated-cycles-per-second for one kernel.

    ``fast_path=False`` times the reference per-cycle loop instead of
    the fast path; both must simulate the same number
    of cycles (enforced by the fast-vs-slow differential fuzz mode and
    by ``benchmarks/bench_simspeed.py``'s ratio gate).  ``backend``
    times a registered execution backend instead (the named backend's
    dispatch strategy then wins over ``fast_path``).
    """
    program, setup = KERNELS[name](iterations)
    best = 0.0
    cycles = 0
    for _ in range(repeats):
        machine = create_machine(
            backend, program, memory=Memory(),
            config=MachineConfig(model_ibuffer=False, fast_path=fast_path))
        if setup:
            setup(machine)
        start = time.perf_counter()
        machine.run()
        elapsed = time.perf_counter() - start
        cycles = machine.cycle
        if elapsed > 0:
            best = max(best, cycles / elapsed)
    return {"kernel": name, "simulated_cycles": cycles,
            "cycles_per_second": best}
