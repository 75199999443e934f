"""Line-based parser for the textual machine IR of every virtual target.

Grammar (one construct per line; ``;`` starts a comment):

.. code-block:: text

    <function-name>:
    frame <object-name>, <bytes>          ; optional frame declarations
    .LBB0:                                ; block labels
      %vr8_32 = COPY <register>           ; instructions
      %vr1_32 = load [b + 4]              ; width from the destination
      store [b + 2], %vr1_16              ; width from the source register
      store16 [b + 3], 2                  ; explicit width for immediates
      call @callee, <register>, ...
      ret

Memory operands are ``[object]``, ``[object + disp]``, ``[reg]``,
``[reg + disp]`` or ``[object + reg + disp]``.  Immediates take their
width from the instruction's registers; memory operands take theirs from
an explicit ``load<bits>``/``store<bits>`` suffix, else 8 bytes under the
address-of mnemonic, else the registers.

The target's dialect is its :class:`repro.mir.MInstr` subclass: the
opcode table, the physical-register notation (``REGISTER.parse``), and
the jump, branch and address-of mnemonics.
"""

from __future__ import annotations

import re

from repro.mir import (
    Imm,
    Label,
    MachineBlock,
    MachineFunction,
    MemRef,
    MInstr,
    PhysReg,
    VReg,
)


class MachineParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_VREG_RE = re.compile(r"%vr(\d+)_(\d+)$")
_INT_RE = re.compile(r"-?\d+$")
_NAME_RE = re.compile(r"[A-Za-z_.$][\w.$]*$")
_LABEL_LINE_RE = re.compile(r"([A-Za-z_.$][\w.$]*):$")
_MEM_RE = re.compile(r"\[([^\]]*)\]$")
_SIZED_ACCESS_RE = re.compile(r"(load|store)(8|16|32|64)$")


def _parse_register(text: str, dialect: type[MInstr]) -> VReg | PhysReg | None:
    match = _VREG_RE.match(text)
    if match:
        return VReg(int(match.group(1)), int(match.group(2)))
    return dialect.REGISTER.parse(text)


class _RawImm:
    """An immediate whose width is resolved from instruction context."""

    def __init__(self, value: int):
        self.value = value


def _parse_operand(text: str, line: int, dialect: type[MInstr]):
    text = text.strip()
    register = _parse_register(text, dialect)
    if register is not None:
        return register
    if _INT_RE.match(text):
        return _RawImm(int(text))
    mem_match = _MEM_RE.match(text)
    if mem_match:
        return _parse_memref(mem_match.group(1), line, dialect)
    if text.startswith("@"):
        return Label(text[1:])
    if _NAME_RE.match(text):
        return Label(text)
    raise MachineParseError(f"cannot parse operand {text!r}", line)


def _parse_memref(inner: str, line: int, dialect: type[MInstr]) -> MemRef:
    object_name: str | None = None
    base = None
    disp = 0
    # Normalize "a - 4" to "a + -4" before splitting.
    inner = inner.replace("-", "+ -").replace("+ +", "+")
    for part in inner.split("+"):
        part = part.strip()
        if not part:
            continue
        register = _parse_register(part, dialect)
        if register is not None:
            if base is not None:
                raise MachineParseError("two base registers in memory operand", line)
            base = register
            continue
        if _INT_RE.match(part):
            disp += int(part)
            continue
        if _NAME_RE.match(part):
            if object_name is not None:
                raise MachineParseError("two objects in memory operand", line)
            object_name = part
            continue
        raise MachineParseError(f"bad memory operand component {part!r}", line)
    # width_bytes is patched in by the instruction that owns the operand.
    return MemRef(width_bytes=0, object=object_name, base=base, disp=disp)


def _split_operands(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current)
    return [part.strip() for part in parts]


def _resolve_widths(
    opcode: str,
    result,
    operands: list,
    explicit_bytes: int | None,
    line: int,
    dialect: type[MInstr],
) -> list:
    """Resolve raw immediates and memory widths from context."""
    resolved = list(operands)

    def width_from_registers() -> int | None:
        if result is not None:
            return result.width
        for operand in resolved:
            if isinstance(operand, (VReg, PhysReg)):
                return operand.width
        return None

    context_width = width_from_registers()
    for index, operand in enumerate(resolved):
        if isinstance(operand, _RawImm):
            width = context_width
            if explicit_bytes is not None:
                width = explicit_bytes * 8
            if width is None:
                raise MachineParseError(
                    f"cannot infer immediate width in {opcode}", line
                )
            resolved[index] = Imm(operand.value, width)
        elif isinstance(operand, MemRef) and operand.width_bytes == 0:
            if explicit_bytes is not None:
                bytes_ = explicit_bytes
            elif opcode == dialect.ADDRESS:
                bytes_ = 8
            elif context_width is not None:
                bytes_ = context_width // 8
            else:
                raise MachineParseError(
                    f"cannot infer access width in {opcode}", line
                )
            resolved[index] = MemRef(
                width_bytes=bytes_,
                object=operand.object,
                base=operand.base,
                disp=operand.disp,
            )
    return resolved


def _add_block(function: MachineFunction, name: str, line: int) -> MachineBlock:
    try:
        return function.add_block(MachineBlock(name))
    except ValueError as error:
        raise MachineParseError(str(error), line) from None


def parse_machine_function(text: str, dialect: type[MInstr]) -> MachineFunction:
    """Parse one machine function written in ``dialect``'s notation."""
    function: MachineFunction | None = None
    current: MachineBlock | None = None
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";")[0].strip()
        if not line:
            continue
        label_match = _LABEL_LINE_RE.match(line)
        if label_match:
            name = label_match.group(1)
            if function is None:
                function = MachineFunction(name)
            else:
                current = _add_block(function, name, line_number)
            continue
        if function is None:
            raise MachineParseError("instruction before function label", line_number)
        if line.startswith("frame "):
            object_name, _, size_text = line[len("frame ") :].partition(",")
            try:
                function.frame_objects[object_name.strip()] = int(size_text)
            except ValueError:
                raise MachineParseError(
                    f"bad frame declaration {line!r}", line_number
                ) from None
            continue
        if current is None:
            current = _add_block(function, ".LBB0", line_number)
        current.instructions.append(_parse_instruction(line, line_number, dialect))
    if function is None:
        raise MachineParseError("empty machine function", 0)
    return function


def _parse_instruction(line: str, line_number: int, dialect: type[MInstr]) -> MInstr:
    result = None
    if "=" in line.split("[")[0]:  # '=' before any memory bracket
        left, _, rest = line.partition("=")
        result = _parse_register(left.strip(), dialect)
        if result is None:
            raise MachineParseError(f"bad result register {left.strip()!r}", line_number)
        line = rest.strip()
    mnemonic, _, operand_text = line.partition(" ")
    mnemonic = mnemonic.strip()
    explicit_bytes: int | None = None
    width_match = _SIZED_ACCESS_RE.match(mnemonic)
    if width_match:
        mnemonic = width_match.group(1)
        explicit_bytes = int(width_match.group(2)) // 8
    operands = [
        _parse_operand(part, line_number, dialect)
        for part in _split_operands(operand_text)
    ]
    if mnemonic == "call" and not (operands and isinstance(operands[0], Label)):
        raise MachineParseError(f"{mnemonic} needs a label target", line_number)
    if mnemonic == dialect.JUMP or mnemonic in dialect.BRANCHES:
        # Jumps and branches take their target label last.
        _, arity = dialect.OPCODES[mnemonic]
        if len(operands) != arity or not isinstance(operands[-1], Label):
            raise MachineParseError(f"{mnemonic} needs a label target", line_number)
    operands = _resolve_widths(
        mnemonic, result, operands, explicit_bytes, line_number, dialect
    )
    try:
        return dialect(mnemonic, tuple(operands), result)
    except ValueError as error:
        raise MachineParseError(str(error), line_number) from error
