"""A Mahler-flavored expression IR over the vector builder.

The paper's Mahler extension let loops be written as elementwise
expressions over vector variables and memory vectors, with a vector-sum
operator.  :class:`Kernel` offers the same surface in Python: declare
arrays and scalar parameters, combine them with ordinary operators
(offsets via indexing, ``/`` expands to the six-operation divide), assign
to output arrays or reduce with :meth:`Kernel.reduce_sum`, and compile to
a strip-mined machine program.  Every compiled kernel can evaluate its
own expression trees in pure Python, so results are self-checking.

    k = Kernel()
    y, z = k.input("y"), k.input("z")
    q, r, t = k.param("q"), k.param("r"), k.param("t")
    x = k.output("x")
    k.assign(x, q + y[0] * (r * z[10] + t * z[11]))     # Livermore loop 1
    compiled = k.compile(n=100, data={...}, params={...})
    outcome = compiled.run()
"""

import math
from dataclasses import dataclass

from repro.core.exceptions import SimulationError
from repro.cpu.machine import MachineConfig, MultiTitan
from repro.cpu.program import ProgramBuilder
from repro.mem.memory import Arena, Memory
from repro.vectorize.allocator import AllocationError
from repro.vectorize.builder import VScalar, VVec, VectorKernelBuilder


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base expression; supports +, -, *, / and reciprocal()."""

    def __add__(self, other):
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other):
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other):
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other):
        return BinOp("*", _wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", _wrap(other), self)

    def reciprocal(self):
        """The raw 16-bit reciprocal approximation (one operation)."""
        return Recip(self)


@dataclass(frozen=True)
class LoadExpr(Expr):
    """One element of an input array at loop index + offset."""

    array: str
    offset: int = 0


@dataclass(frozen=True)
class ParamExpr(Expr):
    """A scalar parameter, loaded into a register before the loop."""

    name: str


@dataclass(frozen=True)
class LiteralExpr(Expr):
    """A compile-time float constant (becomes an anonymous parameter)."""

    value: float


@dataclass(frozen=True)
class BinOp(Expr):
    operator: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Recip(Expr):
    operand: Expr


def _wrap(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return LiteralExpr(float(value))
    raise TypeError("cannot use %r in a kernel expression" % (value,))


class ArrayHandle:
    """An input or output array; indexing yields element expressions."""

    def __init__(self, name, writable):
        self.name = name
        self.writable = writable

    def __getitem__(self, offset):
        if not isinstance(offset, int):
            raise TypeError("array offsets are compile-time integers")
        return LoadExpr(self.name, offset)


@dataclass
class _Assign:
    array: str
    expr: Expr
    offset: int


@dataclass
class _Reduce:
    name: str
    expr: Expr


# ---------------------------------------------------------------------------
# The kernel front end
# ---------------------------------------------------------------------------

class Kernel:
    """Collects declarations and statements; :meth:`compile` produces a
    runnable, self-checking machine kernel."""

    def __init__(self, vl=8):
        self.vl = vl
        self._inputs = {}
        self._outputs = {}
        self._params = []
        self._literals = {}
        self._statements = []

    def input(self, name):
        handle = ArrayHandle(name, writable=False)
        self._inputs[name] = handle
        return handle

    def output(self, name):
        handle = ArrayHandle(name, writable=True)
        self._outputs[name] = handle
        return handle

    def param(self, name):
        self._params.append(name)
        return ParamExpr(name)

    def assign(self, array, expr, offset=0):
        """``array[k + offset] = expr`` for every loop index ``k``."""
        if not isinstance(array, ArrayHandle) or not array.writable:
            raise SimulationError("assign target must be an output array")
        self._statements.append(_Assign(array.name, _wrap(expr), offset))

    def reduce_sum(self, expr, name="sum"):
        """Accumulate ``expr`` over the loop (strip-wise halving sums)."""
        self._statements.append(_Reduce(name, _wrap(expr)))
        return name

    # -- analysis ---------------------------------------------------------

    def _walk(self, expr, visit):
        visit(expr)
        if isinstance(expr, BinOp):
            self._walk(expr.lhs, visit)
            self._walk(expr.rhs, visit)
        elif isinstance(expr, Recip):
            self._walk(expr.operand, visit)

    def footprints(self):
        """Max read offset per input array (for data-length validation)."""
        spans = {}

        def visit(node):
            if isinstance(node, LoadExpr):
                low, high = spans.get(node.array, (node.offset, node.offset))
                spans[node.array] = (min(low, node.offset),
                                     max(high, node.offset))

        for statement in self._statements:
            self._walk(statement.expr, visit)
        return spans

    # -- compilation --------------------------------------------------------

    def compile(self, n, data, params=None, vl=None, base=256):
        """Lay out memory, generate code, and return a CompiledKernel.

        On register exhaustion the strip length halves automatically and
        compilation retries (the paper instead raised a compile error and
        the programmer picked a shorter vector).
        """
        params = dict(params or {})
        vl = vl if vl is not None else self.vl
        spans = self.footprints()
        for name in self._inputs:
            low, high = spans.get(name, (0, 0))
            need = n + high
            if name not in data:
                raise SimulationError("missing data for input %r" % name)
            if len(data[name]) < need:
                raise SimulationError(
                    "input %r needs %d elements (n=%d plus offset %d)"
                    % (name, need, n, high))
            if low < 0:
                raise SimulationError(
                    "negative read offsets are not supported (%r)" % name)
        missing = [p for p in self._params if p not in params]
        if missing:
            raise SimulationError("missing parameter values: %s" % missing)

        while True:
            try:
                return self._compile_once(n, data, params, vl, base)
            except AllocationError:
                if vl <= 1:
                    raise
                vl //= 2

    def _compile_once(self, n, data, params, vl, base):
        memory = Memory()
        arena = Arena(memory, base=base)
        addresses = {}
        for name in self._inputs:
            addresses[name] = arena.alloc_array([float(v) for v in data[name]])
        for name in self._outputs:
            length = len(data[name]) if name in data else n
            addresses[name] = arena.alloc(max(length, n))

        literal_values = []

        def collect_literals(node):
            if isinstance(node, LiteralExpr) and node.value not in literal_values:
                literal_values.append(node.value)

        for statement in self._statements:
            self._walk(statement.expr, collect_literals)

        param_order = list(params)
        param_block = [float(params[p]) for p in param_order] + literal_values
        param_addr = arena.alloc_array(param_block) if param_block \
            else arena.alloc(1)

        pb = ProgramBuilder()
        vb = VectorKernelBuilder(pb, vl=vl)
        handles = {name: vb.array(addresses[name]) for name in addresses}
        param_handle = vb.array_at_reg(vb.int_temp())
        pb.li(param_handle.reg, param_addr)
        registers = {}
        for index, name in enumerate(param_order):
            registers[("param", name)] = vb.scalar_load(param_handle, index)
        for index, value in enumerate(literal_values):
            registers[("lit", value)] = vb.scalar_load(
                param_handle, len(param_order) + index)

        reductions = {}
        for statement in self._statements:
            if isinstance(statement, _Reduce):
                accumulator = vb.scalar_temp()
                vb.move_into(accumulator, vb.zero())
                reductions[statement.name] = accumulator
        result_slots = {name: arena.alloc(1) for name in reductions}

        def emit(expr, width):
            if isinstance(expr, LoadExpr):
                return vb.vload(handles[expr.array], expr.offset, vl=width)
            if isinstance(expr, ParamExpr):
                return registers[("param", expr.name)]
            if isinstance(expr, LiteralExpr):
                return registers[("lit", expr.value)]
            if isinstance(expr, Recip):
                return vb.recip(emit(expr.operand, width))
            if isinstance(expr, BinOp):
                lhs = emit(expr.lhs, width)
                rhs = emit(expr.rhs, width)
                into = lhs if isinstance(lhs, VVec) else (
                    rhs if isinstance(rhs, VVec) and expr.operator != "/"
                    else None)
                if expr.operator == "+":
                    return vb.add(lhs, rhs, into=into)
                if expr.operator == "-":
                    return vb.sub(lhs, rhs, into=into)
                if expr.operator == "*":
                    return vb.mul(lhs, rhs, into=into)
                if expr.operator == "/":
                    return vb.div(lhs, rhs)
                raise SimulationError("unknown operator %r" % expr.operator)
            raise SimulationError("unknown expression node %r" % (expr,))

        def body(width):
            for statement in self._statements:
                vb.fpu.mark()
                value = emit(statement.expr, width)
                if isinstance(statement, _Assign):
                    if isinstance(value, VScalar) and width > 1:
                        # A loop-invariant expression still fills every
                        # element ("vector := scalar op scalar").
                        value = vb.splat(value, width)
                    vb.vstore(handles[statement.array], value,
                              offset=statement.offset)
                else:
                    total = vb.vsum(value)
                    vb.add(reductions[statement.name], total,
                           into=reductions[statement.name])
                vb.fpu.release()

        vb.strip_loop(n, body)
        for name, accumulator in reductions.items():
            slot_reg = vb.int_temp()
            pb.li(slot_reg, result_slots[name])
            pb.fstore(accumulator.reg, slot_reg, 0)

        return CompiledKernel(self, pb.build(), memory, addresses,
                              result_slots, n, dict(data), dict(params), vl)


class CompiledKernel:
    """A compiled kernel plus its self-checking reference evaluator."""

    def __init__(self, kernel, program, memory, addresses, result_slots,
                 n, data, params, vl):
        self.kernel = kernel
        self.program = program
        self.memory = memory
        self.addresses = addresses
        self.result_slots = result_slots
        self.n = n
        self.data = data
        self.params = params
        self.vl = vl

    # -- pure-Python reference ------------------------------------------------

    def _evaluate(self, expr, index, outputs):
        if isinstance(expr, LoadExpr):
            source = outputs.get(expr.array, self.data.get(expr.array))
            return source[index + expr.offset]
        if isinstance(expr, ParamExpr):
            return self.params[expr.name]
        if isinstance(expr, LiteralExpr):
            return expr.value
        if isinstance(expr, Recip):
            return 1.0 / self._evaluate(expr.operand, index, outputs)
        lhs = self._evaluate(expr.lhs, index, outputs)
        rhs = self._evaluate(expr.rhs, index, outputs)
        return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                "/": lhs / rhs if rhs else math.inf}[expr.operator]

    def expected(self):
        """Evaluate the expression trees in Python: (arrays, reductions)."""
        outputs = {name: [0.0] * max(len(self.data.get(name, [])), self.n)
                   for name in self.kernel._outputs}
        sums = {name: 0.0 for name in self.result_slots}
        for index in range(self.n):
            for statement in self.kernel._statements:
                value = self._evaluate(statement.expr, index, outputs)
                if isinstance(statement, _Assign):
                    outputs[statement.array][index + statement.offset] = value
                else:
                    sums[statement.name] += value
        return outputs, sums

    # -- execution ---------------------------------------------------------------

    def run(self, config=None, check=True, rel_tol=1e-9):
        config = config or MachineConfig(model_ibuffer=False)
        snapshot = self.memory.delta_snapshot()
        machine = MultiTitan(self.program, memory=self.memory, config=config)
        result = machine.run()
        outputs = {name: self.memory.read_block(self.addresses[name], self.n)
                   for name in self.kernel._outputs}
        sums = {name: self.memory.read(slot)
                for name, slot in self.result_slots.items()}
        error = None
        if check:
            expected_outputs, expected_sums = self.expected()
            for name, values in outputs.items():
                for index, (got, want) in enumerate(
                        zip(values, expected_outputs[name])):
                    if not math.isclose(got, want, rel_tol=rel_tol,
                                        abs_tol=1e-300):
                        error = "%s[%d] = %r, want %r" % (name, index, got, want)
                        break
                if error:
                    break
            if not error:
                for name, got in sums.items():
                    want = expected_sums[name]
                    if not math.isclose(got, want, rel_tol=max(rel_tol, 1e-6),
                                        abs_tol=1e-12):
                        error = "%s = %r, want %r" % (name, got, want)
        self.memory.restore_delta(snapshot)
        return KernelOutcome(result.completion_cycle, outputs, sums, error,
                             machine)


@dataclass
class KernelOutcome:
    cycles: int
    outputs: dict
    sums: dict
    check_error: str
    machine: object

    @property
    def passed(self):
        return self.check_error is None
