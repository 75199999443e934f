"""Concrete evaluation of terms under a variable assignment.

Used by property-based tests (the solver's model must satisfy the formula it
was extracted from; simplification must preserve meaning) and by the concrete
interpreters in the language semantics.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.smt import terms as t
from repro.smt.terms import BOOL, Term


class EvalError(Exception):
    """Raised when a term mentions a variable missing from the environment."""


SelectHandler = Callable[[str, int, int], int]


def _default_select(array: str, offset: int, width: int) -> int:
    raise EvalError(f"no select handler for array {array!r} at offset {offset}")


def evaluate(
    term: Term,
    env: Mapping[str, int | bool],
    select_handler: SelectHandler = _default_select,
) -> int | bool:
    """Evaluate ``term``; bitvector results are unsigned Python ints.

    ``select_handler(array, offset, width)`` supplies initial memory bytes
    for ``select`` terms (tests usually back it with a dict).
    """
    cache: dict[Term, int | bool] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in cache:
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((arg, False) for arg in node.args if arg not in cache)
            continue
        args = [cache[arg] for arg in node.args]
        cache[node] = eval_node(node, args, env, select_handler)
    return cache[term]


def eval_node(
    node: Term,
    args: Sequence[int | bool],
    env: Mapping[str, int | bool],
    select_handler: SelectHandler,
) -> int | bool:
    """Value of one node, given the values of its arguments (in order)."""
    op = node.op
    if op in ("bvconst", "boolconst"):
        return node.value
    if op in ("bvvar", "boolvar"):
        if node.name not in env:
            raise EvalError(f"unbound variable {node.name!r}")
        value = env[node.name]
        if node.sort is BOOL:
            return bool(value)
        return t.truncate(int(value), node.width)
    width = node.width if node.sort is not BOOL else None
    if op == "add":
        return t.truncate(args[0] + args[1], width)
    if op == "neg":
        return t.truncate(-args[0], width)
    if op == "mul":
        return t.truncate(args[0] * args[1], width)
    if op == "udiv":
        return t.mask(width) if args[1] == 0 else args[0] // args[1]
    if op == "urem":
        return args[0] if args[1] == 0 else args[0] % args[1]
    if op == "sdiv":
        lhs = t.to_signed(args[0], width)
        rhs = t.to_signed(args[1], width)
        if rhs == 0:
            return t.truncate(-1 if lhs >= 0 else 1, width)
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        return t.truncate(quotient, width)
    if op == "srem":
        lhs = t.to_signed(args[0], width)
        rhs = t.to_signed(args[1], width)
        if rhs == 0:
            return t.truncate(lhs, width)
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        return t.truncate(lhs - rhs * quotient, width)
    if op == "bvand":
        return args[0] & args[1]
    if op == "bvor":
        return args[0] | args[1]
    if op == "bvxor":
        return args[0] ^ args[1]
    if op == "bvnot":
        return t.truncate(~args[0], width)
    if op == "shl":
        return 0 if args[1] >= width else t.truncate(args[0] << args[1], width)
    if op == "lshr":
        return 0 if args[1] >= width else args[0] >> args[1]
    if op == "ashr":
        signed = t.to_signed(args[0], width)
        return t.truncate(signed >> min(args[1], width - 1), width)
    if op == "concat":
        lo_width = node.args[1].width
        return (args[0] << lo_width) | args[1]
    if op == "extract":
        high, low = node.attr
        return (args[0] >> low) & t.mask(high - low + 1)
    if op == "zext":
        return args[0]
    if op == "sext":
        return t.truncate(t.to_signed(args[0], node.args[0].width), width)
    if op == "eq":
        return args[0] == args[1]
    if op == "ult":
        return args[0] < args[1]
    if op == "slt":
        inner_width = node.args[0].width
        return t.to_signed(args[0], inner_width) < t.to_signed(args[1], inner_width)
    if op == "not":
        return not args[0]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "xorb":
        return args[0] != args[1]
    if op == "ite":
        return args[1] if args[0] else args[2]
    if op == "select":
        array, width_bits = node.attr
        return t.truncate(select_handler(array, args[0], width_bits), width_bits)
    raise EvalError(f"cannot evaluate operation {op!r}")
