"""Operation types of the FPU ALU instruction set (Figure 4 of WRL 89/8).

The 2-bit *unit* field selects the functional unit and the 2-bit *func*
field the operation within it:

======================  ====  ====
operation               unit  func
======================  ====  ====
reserved                0     x
add                     1     0
subtract                1     1
float                   1     2
truncate                1     3
multiply                2     0
integer multiply        2     1
iteration step          2     2
reserved                2     3
reciprocal              3     0
reserved                3     1-3
======================  ====  ====
"""

import math
from enum import IntEnum

from repro.core.exceptions import ReservedOperationError, SimulationError
from repro.fparith.division import iteration_step
from repro.fparith.integer_ops import float_from_int, integer_multiply, truncate_to_int
from repro.fparith.reciprocal import recip_approx


class Unit(IntEnum):
    """The functional unit addressed by an ALU instruction."""

    RESERVED = 0
    ADD = 1
    MULTIPLY = 2
    RECIPROCAL = 3


class Func(IntEnum):
    """Generic names for the four per-unit function codes."""

    F0 = 0
    F1 = 1
    F2 = 2
    F3 = 3


class Op(IntEnum):
    """Flat operation identifiers, one per defined (unit, func) pair."""

    ADD = 0
    SUB = 1
    FLOAT = 2
    TRUNC = 3
    MUL = 4
    IMUL = 5
    ITER = 6
    RECIP = 7


_OP_BY_UNIT_FUNC = {
    (Unit.ADD, 0): Op.ADD,
    (Unit.ADD, 1): Op.SUB,
    (Unit.ADD, 2): Op.FLOAT,
    (Unit.ADD, 3): Op.TRUNC,
    (Unit.MULTIPLY, 0): Op.MUL,
    (Unit.MULTIPLY, 1): Op.IMUL,
    (Unit.MULTIPLY, 2): Op.ITER,
    (Unit.RECIPROCAL, 0): Op.RECIP,
}

_UNIT_FUNC_BY_OP = {op: pair for pair, op in _OP_BY_UNIT_FUNC.items()}

OP_NAMES = {
    Op.ADD: "add",
    Op.SUB: "subtract",
    Op.FLOAT: "float",
    Op.TRUNC: "truncate",
    Op.MUL: "multiply",
    Op.IMUL: "integer multiply",
    Op.ITER: "iteration step",
    Op.RECIP: "reciprocal",
}

# Operations that read only the Ra source operand.
UNARY_OPS = frozenset({Op.FLOAT, Op.TRUNC, Op.RECIP})

# Operations counted as floating-point work for MFLOPS accounting.
FLOP_OPS = frozenset({Op.ADD, Op.SUB, Op.MUL, Op.ITER, Op.RECIP})


def op_for(unit, func):
    """Map a (unit, func) field pair to an :class:`Op`.

    Raises :class:`ReservedOperationError` for the reserved encodings.
    """
    op = _OP_BY_UNIT_FUNC.get((Unit(unit), func))
    if op is None:
        raise ReservedOperationError(
            "reserved operation: unit=%d func=%d" % (unit, func)
        )
    return op


def unit_func_for(op):
    """Map an :class:`Op` back to its (unit, func) encoding."""
    unit, func = _UNIT_FUNC_BY_OP[Op(op)]
    return int(unit), func


def _require_float(value, op_name):
    if type(value) is not float:
        raise SimulationError(
            "%s applied to non-floating register value %r" % (op_name, value)
        )
    return value


def _require_int(value, op_name):
    if type(value) is not int:
        raise SimulationError(
            "%s applied to non-integer register value %r" % (op_name, value)
        )
    return value


_QUIET_NAN = float("nan")


def nan_result(a, b=None):
    """The architectural NaN payload for a NaN-valued operation result.

    C-level float arithmetic propagates whichever operand's payload the
    compiled operand order favours, and CPython's adaptive interpreter
    can change that order *at one call site mid-process* (the
    unspecialized ``PyNumber_Add`` path and the specialized inline
    float add compile the commutative ``+`` with opposite operand
    orders).  Hardware payload propagation is therefore not a usable
    semantic.  The architecture instead defines: the first NaN operand
    propagates unchanged; an invalid operation on non-NaN operands
    (``inf - inf``, ``0 * inf``) yields the canonical quiet NaN.  Every
    arithmetic site -- :func:`execute_op` and the element sequencer's
    inline arithmetic -- must route NaN results through this function.
    """
    if a != a:
        return a
    if type(b) is float and b != b:
        return b
    return _QUIET_NAN


def execute_op(op, a, b):
    """Compute an ALU operation on two register values.

    Register values are Python floats (FP data) or ints (the results of
    ``truncate``/``integer multiply`` and integer data placed by loads).
    Returns the result register value.
    """
    if op == Op.ADD:
        result = _require_float(a, "add") + _require_float(b, "add")
        return result if result == result else nan_result(a, b)
    if op == Op.SUB:
        result = _require_float(a, "subtract") - _require_float(b, "subtract")
        return result if result == result else nan_result(a, b)
    if op == Op.MUL:
        result = _require_float(a, "multiply") * _require_float(b, "multiply")
        return result if result == result else nan_result(a, b)
    if op == Op.ITER:
        result = iteration_step(_require_float(a, "iteration step"),
                                _require_float(b, "iteration step"))
        return result if result == result else nan_result(a, b)
    if op == Op.RECIP:
        result = recip_approx(_require_float(a, "reciprocal"))
        return result if result == result else nan_result(a)
    if op == Op.FLOAT:
        return float_from_int(_require_int(a, "float"))
    if op == Op.TRUNC:
        return truncate_to_int(_require_float(a, "truncate"))
    if op == Op.IMUL:
        return integer_multiply(_require_int(a, "integer multiply"),
                                _require_int(b, "integer multiply"))
    raise ReservedOperationError("unknown op %r" % (op,))


def result_overflowed(op, a, b, result):
    """True when an operation overflowed the double-precision range.

    Overflow aborts the remaining elements of a vector instruction and is
    recorded in the PSW (WRL 89/8 section 2.3.1).
    """
    if type(result) is not float:
        return False
    if not math.isinf(result):
        return False
    # Infinite operands propagate; only finite->infinite is an overflow.
    for operand in (a, b):
        if type(operand) is float and math.isinf(operand):
            return False
    return True
