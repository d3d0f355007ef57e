"""A small RISC-like instruction set used by the simulated cores.

The paper's attack families (cache side channels, Spectre, Meltdown,
Foreshadow) exploit architectural *concepts* — memory loads that touch
caches, branches that can be mispredicted, faulting loads whose results are
forwarded transiently — rather than any particular vendor encoding.  This
package provides the minimal instruction vocabulary needed to express both
victims and attackers for all of them: ALU operations, loads/stores that go
through the full MMU/cache path, branches, a cache-line flush (the analogue
of ``clflush``, required by Flush+Reload), fences, CSR access and traps.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "instructions": ("InstrKind", "Instruction", "Reg", "add", "addi", "and_",
                     "beq", "bge", "blt", "bne", "csrr", "csrw", "ecall",
                     "fence", "flush", "halt", "jal", "jmp", "li", "load",
                     "mul", "nop", "or_", "ret", "shl", "shr", "store", "sub",
                     "xor"),
    "program": ("Program",),
    "assembler": ("AssemblyError", "assemble"),
})
