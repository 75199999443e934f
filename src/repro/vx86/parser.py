"""Parser for textual Virtual x86 (the notation of Figure 2(b)).

The grammar is the shared machine-IR one (:mod:`repro.mir.parser`) in
this target's dialect, for example:

.. code-block:: text

    foo:
    frame stack.foo.x, 4
    .LBB0:
      %vr8_32 = COPY edx
      %vr9_32 = mov 1
      cmp %vr2_32, %vr8_32
      jae .LBB4
      jmp .LBB1
    .LBB1:
      %vr5_64 = lea [stack.foo.x]
      store16 [b + 3], 2
      call @callee, edi, esi
      eax = COPY %vr0_32
      ret
"""

from __future__ import annotations

from repro.mir import MachineFunction
from repro.mir import parser as mir_parser
from repro.mir.parser import MachineParseError
from repro.vx86.insns import MInstr

__all__ = ["MachineParseError", "parse_machine_function"]


def parse_machine_function(text: str) -> MachineFunction:
    return mir_parser.parse_machine_function(text, MInstr)
