"""Symbolic operational semantics for Virtual RISC-V.

The stepping skeleton is the shared one (:mod:`repro.mir.semantics`);
this module adds what is RISC-V's own.  State environment layout:

- virtual registers under ``vr<id>_<width>`` (the same key scheme every
  virtual target uses, so liveness and sync-point machinery are shared);
- physical registers under their ABI names (``a0`` ... ``t6``); narrow
  views zero-extend into the full 64-bit register on write and truncate
  on read;
- ``zero`` (x0) is hardwired: reads yield 0, writes are discarded and
  never enter the environment.

There is no flags register — conditional control flow is fused
compare-and-branch, and comparisons materialize through ``slt``/``seqz``.
Division follows the RISC-V integer spec and never traps: dividing by
zero yields the all-ones quotient (and the dividend as remainder), and
``INT_MIN / -1`` wraps — both in a single successor state, which the
equivalence check accepts because the LLVM side's division errors are
handled by the acceptability relation (paper Section 4.6).  Memory
accesses still fork out-of-bounds error branches, mirroring the LLVM
side's error kinds.
"""

from __future__ import annotations

from repro.memory import Memory
from repro.mir import semantics as mir_semantics
from repro.mir.semantics import MachineSemantics, MachineSemanticsError
from repro.semantics.state import ProgramState, Value
from repro.smt import terms as t
from repro.smt.terms import Term
from repro.vriscv.insns import (
    ALU_OPS,
    COMPARE_OPS,
    MachineFunction,
    MInstr,
    RETURN_REGISTER,
    XReg,
    ZERO_REGISTER,
)

__all__ = ["MachineSemanticsError", "VRiscvSemantics", "machine_entry_state"]


def machine_entry_state(
    function: MachineFunction,
    memory: Memory,
    register_values: dict[str, Value] | None = None,
) -> ProgramState:
    """:func:`repro.mir.semantics.machine_entry_state`, keeping the
    hardwired ``zero`` register out of the environment."""
    values = dict(register_values or {})
    values.pop(ZERO_REGISTER, None)
    return mir_semantics.machine_entry_state(function, memory, values)


class VRiscvSemantics(MachineSemantics):
    """The Virtual RISC-V language definition consumed by KEQ."""

    language_name = "vriscv"
    instruction_type = MInstr
    return_register = RETURN_REGISTER

    # -- register file ------------------------------------------------------------

    def _read_physical(self, state: ProgramState, reg: XReg) -> Value:
        if reg.name == ZERO_REGISTER:
            return t.zero(reg.width)
        return super()._read_physical(state, reg)

    def _write_physical(
        self, state: ProgramState, reg: XReg, value: Value
    ) -> ProgramState:
        if reg.name == ZERO_REGISTER:
            return state  # x0 is hardwired to zero: the write is discarded.
        # Narrow views zero-extend into the full register.
        return super()._write_physical(state, reg, value)

    # -- branch conditions ---------------------------------------------------------

    def _branch_condition(self, state: ProgramState, instr: MInstr) -> Term:
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        opcode = instr.opcode
        if opcode == "beq":
            return t.eq(lhs, rhs)
        if opcode == "bne":
            return t.not_(t.eq(lhs, rhs))
        if opcode == "blt":
            return t.slt(lhs, rhs)
        if opcode == "bge":
            return t.not_(t.slt(lhs, rhs))
        if opcode == "bltu":
            return t.ult(lhs, rhs)
        if opcode == "bgeu":
            return t.not_(t.ult(lhs, rhs))
        raise MachineSemanticsError(f"unknown branch {opcode!r}")

    # -- RISC-V-only steps ---------------------------------------------------------

    def _step_alu(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        opcode = instr.opcode
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        dest = instr.result
        assert dest is not None
        width = dest.width
        if opcode in ("sll", "srl", "sra"):
            # RISC-V masks the shift amount to the register width; the LLVM
            # side treats oversized shifts as an error branch, which refines
            # this total behaviour.
            rhs = t.bvand(rhs, t.bv_const(width - 1, width))
        result = _ALU_BUILDERS[opcode](lhs, rhs)
        if opcode in ("div", "rem", "divu", "remu"):
            # RISC-V division never traps: x/0 is all ones, x%0 is x, and
            # INT_MIN/-1 wraps (which SMT-LIB bvsdiv/bvsrem already do).
            zero_divisor = t.eq(rhs, t.zero(width))
            fallback = t.ones(width) if opcode in ("div", "divu") else lhs
            result = t.ite(zero_divisor, fallback, result)
        return [self.write_reg(state, dest, result).advanced()]

    def _step_compare(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        lhs = self._operand_term(state, instr.operands[0])
        rhs = self._operand_term(state, instr.operands[1])
        dest = instr.result
        assert dest is not None
        compare = t.slt if instr.opcode == "slt" else t.ult
        value = t.bool_to_bv(compare(lhs, rhs), dest.width)
        return [self.write_reg(state, dest, value).advanced()]

    def _step_set_zero(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        source = self._operand_term(state, instr.operands[0])
        dest = instr.result
        assert dest is not None
        is_zero = t.eq(source, t.zero(source.width))
        condition = is_zero if instr.opcode == "seqz" else t.not_(is_zero)
        value = t.bool_to_bv(condition, dest.width)
        return [self.write_reg(state, dest, value).advanced()]

    def _step_sel(self, state: ProgramState, instr: MInstr) -> list[ProgramState]:
        cond = self._operand_term(state, instr.operands[0])
        condition = t.not_(t.eq(cond, t.zero(cond.width)))
        taken = self._operand_value(state, instr.operands[1])
        not_taken = self._operand_value(state, instr.operands[2])
        assert instr.result is not None
        return self._select(state, instr.result, condition, taken, not_taken)

    own_steps = {
        **dict.fromkeys(ALU_OPS, _step_alu),
        **dict.fromkeys(COMPARE_OPS, _step_compare),
        "seqz": _step_set_zero,
        "snez": _step_set_zero,
        "sel": _step_sel,
    }


_ALU_BUILDERS = {
    "add": t.add,
    "sub": t.sub,
    "mul": t.mul,
    "and": t.bvand,
    "or": t.bvor,
    "xor": t.bvxor,
    "sll": t.shl,
    "srl": t.lshr,
    "sra": t.ashr,
    "div": t.sdiv,
    "rem": t.srem,
    "divu": t.udiv,
    "remu": t.urem,
}
