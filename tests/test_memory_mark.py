"""The memory write mark: every word at or past ``Memory.mark`` holds the
0.0 fill, so snapshots and rewinds scan only the written prefix and
still return exactly what a scan of the whole word list returns."""

from math import copysign

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backend import create_machine
from repro.core.exceptions import SimulationError
from repro.cpu.program import ProgramBuilder
from repro.mem.memory import Arena, Memory, WORD_BYTES
from repro.workloads.common import run_kernel
from repro.workloads.linpack import build_linpack
from repro.workloads.livermore.kernels_common import build_loop

SMALL_WORDS = 32


def full_scan(memory):
    """The delta-snapshot algorithm without the mark: every word."""
    words = {}
    for index, word in enumerate(memory.raw_words):
        if type(word) is not float or word != 0.0:
            words[index] = word
        elif copysign(1.0, word) < 0.0:
            words[index] = word
    return {"length": len(memory.raw_words), "words": words}


def exact_words(words):
    """Words keyed for bit-exact comparison: ``0 == 0.0 == -0.0`` in
    Python, but the type and the sign are part of the image."""
    return [(type(word).__name__, repr(word)) for word in words]


def exact_delta(delta):
    return (delta["length"],
            sorted((index, type(word).__name__, repr(word))
                   for index, word in delta["words"].items()))


def loop_store(memory, address, value):
    """A store arm of the cycle loops, as they inline it."""
    word = address >> 3
    if 0 <= word < memory.mark:
        memory.raw_words[word] = value
    else:
        memory.store(address, value)


def model_store(model, address, value):
    """What the loops did before the mark: write in place below the
    list's end (unaligned to the containing word, negative from the
    end) and grow through an aligned write past it."""
    word = address >> 3
    if word < len(model):
        model[word] = value
        return
    if address % WORD_BYTES:
        raise SimulationError("unaligned access at address %d" % address)
    model.extend([0.0] * (word + 1 - len(model)))
    model[word] = value


VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0, 1, 0.0]),
                   st.floats(width=64), st.integers(-3, 3))
WORD = st.integers(0, SMALL_WORDS + 8)
OPS = st.one_of(
    st.tuples(st.just("write"), WORD, VALUES),
    st.tuples(st.just("write_block"), WORD,
              st.lists(VALUES, min_size=1, max_size=4)),
    st.tuples(st.just("loop_store"),
              st.integers(-8 * (SMALL_WORDS + 4), 8 * (SMALL_WORDS + 8)),
              VALUES),
    st.tuples(st.just("words"), st.integers(-SMALL_WORDS, SMALL_WORDS - 1),
              VALUES),
    st.tuples(st.just("alloc"), st.integers(1, 4), VALUES),
    st.tuples(st.just("read"), WORD, st.none()),
    st.tuples(st.just("snapshot"), st.none(), st.none()),
    st.tuples(st.just("restore"), st.integers(0, 7), st.none()),
)


class TestMarkProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPS, max_size=30))
    def test_delta_snapshot_matches_full_scan(self, ops):
        memory = Memory(size_bytes=SMALL_WORDS * WORD_BYTES)
        arena = Arena(memory, base=8 * WORD_BYTES)
        saved = []
        for op, arg, value in ops:
            if op == "write":
                memory.write(arg * WORD_BYTES, value)
            elif op == "write_block":
                memory.write_block(arg * WORD_BYTES, value)
            elif op == "loop_store":
                model = list(memory.raw_words)
                try:
                    model_store(model, arg, value)
                except (SimulationError, IndexError) as err:
                    with pytest.raises(type(err)):
                        loop_store(memory, arg, value)
                else:
                    loop_store(memory, arg, value)
                assert exact_words(memory.raw_words) == exact_words(model)
            elif op == "words":
                memory.words[arg] = value
            elif op == "alloc":
                arena.alloc(arg, initial=[value] * arg)
            elif op == "read":
                memory.read(arg * WORD_BYTES)
            elif op == "snapshot":
                saved.append((memory.delta_snapshot(),
                              exact_words(memory.raw_words)))
            elif saved:
                delta, image = saved[arg % len(saved)]
                memory.restore_delta(delta)
                assert exact_words(memory.raw_words) == image
            assert memory.mark <= len(memory.raw_words)
            assert (exact_delta(memory.delta_snapshot())
                    == exact_delta(full_scan(memory)))

    def test_restore_keeps_the_list_alias(self):
        memory = Memory(size_bytes=SMALL_WORDS * WORD_BYTES)
        alias = memory.raw_words
        empty = memory.delta_snapshot()
        memory.write(8 * SMALL_WORDS * 2, 1.0)
        memory.restore_delta(empty)
        assert memory.raw_words is alias
        assert len(alias) == SMALL_WORDS and memory.mark == 0

    def test_taking_words_covers_the_whole_list(self):
        memory = Memory(size_bytes=SMALL_WORDS * WORD_BYTES)
        assert memory.mark == 0
        memory.words[-1] = 2.0
        assert memory.mark == SMALL_WORDS
        assert memory.delta_snapshot()["words"] == {SMALL_WORDS - 1: 2.0}


# ---------------------------------------------------------------------------
# The cycle loops' slow-path store, end to end
# ---------------------------------------------------------------------------

ARENA_WORDS = 16
MACHINE_WORDS = 256

#: Stray store addresses and the word each lands in, as the loops
#: always stored them (a negative index counts from the list's end).
STRAY_STORES = {
    "past-arena": (8 * (ARENA_WORDS + 3), ARENA_WORDS + 3),
    "negative": (-16, MACHINE_WORDS - 2),
    "unaligned": (8 * (ARENA_WORDS + 6) + 3, ARENA_WORDS + 6),
    "past-end": (8 * (MACHINE_WORDS + 4), MACHINE_WORDS + 4),
}


def stray_store_program(kind, address):
    """One ``sw`` of 7 or ``fstore`` of 3.0 to ``address``, loaded back."""
    b = ProgramBuilder()
    b.li(1, 7)
    b.fload(0, 0, 0)
    b.fadd(1, 0, 0)
    if kind == "sw":
        b.sw(1, 0, address)
        b.lw(2, 0, address)
    else:
        b.fstore(1, 0, address)
        b.fload(2, 0, address)
    b.halt()
    return b.build()


def stray_store_memory():
    memory = Memory(size_bytes=MACHINE_WORDS * WORD_BYTES)
    Arena(memory).alloc_array([1.5] * ARENA_WORDS)
    return memory


STRAY_CASES = [pytest.param(kind, target, id="%s-%s" % (kind, target))
               for kind in ("sw", "fstore") for target in STRAY_STORES]


class TestStoresOutsideTheMark:
    @pytest.mark.parametrize("backend", ["percycle", "fastpath"])
    @pytest.mark.parametrize("kind, target", STRAY_CASES)
    def test_stray_store_lands_where_it_always_did(self, kind, target,
                                                   backend):
        address, word = STRAY_STORES[target]
        machine = create_machine(backend, stray_store_program(kind, address),
                                 memory=stray_store_memory())
        machine.run()
        memory = machine.memory
        value = 7 if kind == "sw" else 3.0
        assert memory.raw_words[word] == value
        assert len(memory.raw_words) == max(MACHINE_WORDS, word + 1)
        if kind == "sw":
            assert machine.iregs[2] == value
        else:
            assert machine.fpu.regs.values[2] == value
        # The mark covers the stored word (for the negative store, the
        # whole list), so the snapshot still sees it.
        assert memory.mark == (len(memory.raw_words) if address < 0
                               else word + 1)
        assert (exact_delta(memory.delta_snapshot())
                == exact_delta(full_scan(memory)))

    @pytest.mark.parametrize("kind, target", STRAY_CASES)
    def test_percycle_and_fastpath_agree(self, kind, target):
        program = stray_store_program(kind, STRAY_STORES[target][0])
        snapshots = []
        for backend in ("percycle", "fastpath"):
            machine = create_machine(backend, program,
                                     memory=stray_store_memory())
            machine.run()
            snapshots.append(machine.snapshot())
        assert snapshots[0] == snapshots[1]

    @pytest.mark.parametrize("backend", ["percycle", "fastpath"])
    @pytest.mark.parametrize("kind, target", STRAY_CASES)
    def test_snapshot_round_trips_into_a_fresh_machine(self, kind, target,
                                                       backend):
        program = stray_store_program(kind, STRAY_STORES[target][0])
        whole = create_machine(backend, program, memory=stray_store_memory())
        whole.run()
        fresh = create_machine(backend, program, memory=Memory(size_bytes=8))
        fresh.restore(whole.snapshot())
        assert (exact_words(fresh.memory.raw_words)
                == exact_words(whole.memory.raw_words))
        assert fresh.snapshot() == whole.snapshot()

    def test_mid_run_snapshot_resumes_identically(self):
        program = stray_store_program("fstore", STRAY_STORES["negative"][0])
        whole = create_machine("percycle", program,
                               memory=stray_store_memory())
        whole.run()
        paused = create_machine("percycle", program,
                                memory=stray_store_memory())
        paused.run(stop_cycle=6)
        assert not paused.halted
        resumed = create_machine("fastpath", program,
                                 memory=stray_store_memory())
        resumed.restore(paused.snapshot())
        resumed.run()
        assert resumed.snapshot() == whole.snapshot()


# ---------------------------------------------------------------------------
# The request path keeps the mark inside each kernel's promised extent
# ---------------------------------------------------------------------------

class TestRequestPathMark:
    @pytest.mark.parametrize("coding", ["vector", "scalar"])
    @pytest.mark.parametrize("loop", range(1, 25))
    def test_livermore_mark_within_memory_extent(self, loop, coding):
        kernel = build_loop(loop, coding)
        for warm in (False, True):
            result = run_kernel(kernel, warm=warm)
            assert result.passed
            assert kernel.memory.mark <= kernel.memory_extent

    @pytest.mark.parametrize("coding", ["vector", "scalar"])
    def test_linpack_mark_stays_small(self, coding):
        kernel = build_linpack(12, coding)
        words = len(kernel.memory.raw_words)
        for warm in (False, True):
            assert run_kernel(kernel, warm=warm).passed
            assert kernel.memory.mark < words // 100
