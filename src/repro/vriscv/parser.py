"""Parser for textual Virtual RISC-V.

The grammar is the shared machine-IR one (:mod:`repro.mir.parser`) in
this target's dialect, for example:

.. code-block:: text

    foo:
    frame stack.foo.x, 4
    .LBB0:
      %vr8_32 = COPY a2.32
      %vr9_32 = li 1
      blt %vr8_32, %vr2_32, .LBB4
      j .LBB1
    .LBB1:
      %vr5_64 = la [stack.foo.x]
      store16 [b + 3], 2
      call @callee, a0, a1
      a0.32 = COPY %vr0_32
      ret
"""

from __future__ import annotations

from repro.mir import MachineFunction
from repro.mir import parser as mir_parser
from repro.mir.parser import MachineParseError
from repro.vriscv.insns import MInstr

__all__ = ["MachineParseError", "parse_machine_function"]


def parse_machine_function(text: str) -> MachineFunction:
    return mir_parser.parse_machine_function(text, MInstr)
