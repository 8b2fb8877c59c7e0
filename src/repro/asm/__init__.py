"""Two-pass assembler, disassembler, and program image.

The assembler turns SDSP assembly text into a
:class:`~repro.asm.program.Program`: an encoded text segment plus the
initial data-segment image. Pseudo-instructions (``li``, ``la``, ``mov``,
``not``, ``b``, ``bgt``, ``ble``, ``call``, ``ret``, ``nop``, ``fmov``)
expand to real instructions during pass one so that label addresses are
exact.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "assembler": ("assemble",),
    "disassembler": ("disassemble",),
    "errors": ("AsmError",),
    "program": ("DATA_BASE", "Program"),
})

__all__ = ["AsmError", "DATA_BASE", "Program", "assemble", "disassemble"]
