"""Flat word-addressed main memory.

The MultiTitan data paths are 64 bits wide; the simulator models memory
as an array of 64-bit words holding Python numbers (floats for FP data,
ints for integer data).  Addresses are in bytes and must be 8-byte
aligned, matching the double-only FPU.

A write high-water mark (:attr:`Memory.mark`) bounds the written
prefix: every word at or past it holds the 0.0 fill.  Snapshots and
rewinds therefore cost the words a program touched, not the 1 MB
default image.
"""

from itertools import islice
from math import copysign

from repro.core.exceptions import SimulationError

WORD_BYTES = 8


class Memory:
    """A growable array of 64-bit words with a write high-water mark.

    Invariant: every word at index ``>= mark`` is the positive 0.0 fill,
    and ``mark <= len(words)``.  Each writer keeps it: :meth:`write`,
    :meth:`write_block` and :meth:`store` raise the mark over what they
    write, :meth:`restore_delta` resets it from the restored words, and
    taking the raw list through :attr:`words` raises it to the list's
    end (the caller may write anywhere).
    """

    def __init__(self, size_bytes=1 << 20):
        self._words = [0.0] * (size_bytes // WORD_BYTES)
        self.mark = 0

    def _index(self, address):
        if address % WORD_BYTES:
            raise SimulationError("unaligned access at address %d" % address)
        index = address // WORD_BYTES
        if index < 0:
            raise SimulationError("negative address %d" % address)
        if index >= len(self._words):
            self._words.extend([0.0] * (index + 1 - len(self._words)))
        return index

    def read(self, address):
        return self._words[self._index(address)]

    def write(self, address, value):
        index = self._index(address)
        self._words[index] = value
        if index >= self.mark:
            self.mark = index + 1

    def read_block(self, address, count):
        start = self._index(address)
        self._index(address + (count - 1) * WORD_BYTES)
        return self._words[start : start + count]

    def write_block(self, address, values):
        start = self._index(address)
        self._index(address + (len(values) - 1) * WORD_BYTES)
        end = start + len(values)
        self._words[start:end] = list(values)
        if values and end > self.mark:
            self.mark = end

    def store(self, address, value):
        """The cycle loops' store to a word outside ``[0, mark)``.

        It does what the loops' inline ``words[address >> 3] = value``
        does inside the list -- an unaligned address stores to its
        containing word, a negative one indexes from the list's end --
        and past the end grows the list through :meth:`write` (which
        rejects an unaligned address).  Then the mark covers the word.
        """
        index = address >> 3
        words = self._words
        if index >= len(words):
            self.write(address, value)
            return
        words[index] = value
        if index < 0:
            self.mark = len(words)
        elif index >= self.mark:
            self.mark = index + 1

    def delta_snapshot(self):
        """Sparse snapshot: only words differing from the 0.0 fill.

        Workloads touch a small fraction of the address space, so the
        delta is far smaller than a full image, and only the prefix
        below the mark is scanned.  Word *types* matter (the FPU
        distinguishes int and float register data), so an integer 0 is
        part of the delta even though ``0 == 0.0`` -- and so is a
        stored ``-0.0``, which compares equal to the fill but is a
        different bit pattern.
        """
        words = {}
        for index, word in enumerate(islice(self._words, self.mark)):
            if type(word) is not float or word != 0.0:
                words[index] = word
            elif copysign(1.0, word) < 0.0:
                words[index] = word
        return {"length": len(self._words), "words": words}

    def restore_delta(self, snapshot):
        """Restore the exact image captured by :meth:`delta_snapshot`.

        Zeroes the written prefix ``[0, mark)`` (the whole list when the
        length differs) and sets the mark from the restored words.
        Mutates the existing word list in place so aliases (the cycle
        simulator's hot-loop local) stay valid.
        """
        words = self._words
        length = snapshot["length"]
        if length == len(words):
            words[: self.mark] = [0.0] * self.mark
        else:
            words[:] = [0.0] * length
        restored = snapshot["words"]
        for index, word in restored.items():
            words[index] = word
        self.mark = max(restored, default=-1) + 1

    @property
    def size_bytes(self):
        return len(self._words) * WORD_BYTES

    @property
    def words(self):
        """The raw word list, for callers that may write through it.

        Taking it raises the mark to the list's end, so whatever the
        caller writes stays inside the snapshot's scan.
        """
        self.mark = len(self._words)
        return self._words

    @property
    def raw_words(self):
        """The raw word list, leaving the mark alone.

        For readers, and for the cycle loops, which send every store
        outside ``[0, mark)`` through :meth:`store`.
        """
        return self._words


class Arena:
    """A bump allocator for laying out workload arrays in memory."""

    def __init__(self, memory, base=0):
        self.memory = memory
        self._next = base

    def alloc(self, count_words, initial=None):
        """Reserve ``count_words`` 8-byte words; return the base address."""
        address = self._next
        self._next += count_words * WORD_BYTES
        if initial is not None:
            if len(initial) != count_words:
                raise SimulationError("initializer length mismatch")
            self.memory.write_block(address, initial)
        return address

    def alloc_array(self, values):
        """Reserve and initialize an array; return the base address."""
        return self.alloc(len(values), initial=list(values))

    @property
    def bytes_used(self):
        return self._next
